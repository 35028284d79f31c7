"""CLI subcommands, file round-trips, exit codes, determinism."""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latkern import matrixio
from latkern.cli import build_parser, main
from latkern.matrixio import (InputFormatError, dump_matrix, json_text,
                              load_matrix, matrix_from_json, matrix_to_json)
from latkern.rational import Poly, RatFun
from latkern.transfer import TransferMatrix

from gen import (rand_bicausal, rand_causal, rand_matrix,
                 rand_strictly_causal_injective)

z = RatFun.zpow


def write(path, matrix):
    dump_matrix(matrix, str(path))
    return str(path)


def test_matrix_round_trip_random():
    rng = random.Random(91)
    for _ in range(25):
        m = rand_matrix(rng, rng.randint(1, 3), rng.randint(1, 3), 3)
        assert matrix_from_json(matrix_to_json(m)) == m


def test_matrix_text_read_off_json_matches_str():
    # Text mode prints a report matrix from its coefficient texts; that
    # must be str() of the matrix, signs, unit and fractional terms alike.
    rng = random.Random(92)
    ms = [rand_matrix(rng, rng.randint(1, 3), rng.randint(1, 3), 3)
          for _ in range(40)]
    ms.append(TransferMatrix([[0, -1, z(1) - 1, -z(2) + Fraction(-1, 2)],
                              [z(-1), -z(-2), 1 / (1 - z(1)),
                               (z(1) + 1) / (2 * z(2) - 3)]]))
    for m in ms:
        assert matrixio.matrix_json_str(matrix_to_json(m)) == str(m)


def test_matrix_file_round_trip(tmp_path):
    m = TransferMatrix([[RatFun(Poly([1, 2]), Poly([0, 0, 3])), z(1)]])
    path = write(tmp_path / "m.json", m)
    assert load_matrix(path) == m


def test_malformed_files_rejected(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(InputFormatError):
        load_matrix(str(bad))
    bad.write_text(json.dumps({"rows": 1, "cols": 2, "entries": [[{"num": ["1"], "den": ["1"]}]]}))
    with pytest.raises(InputFormatError, match="shape"):
        load_matrix(str(bad))
    bad.write_text(json.dumps({"rows": 1, "cols": 1,
                               "entries": [[{"num": ["1.5"], "den": ["1"]}]]}))
    with pytest.raises(InputFormatError):
        load_matrix(str(bad))


@pytest.mark.parametrize("size", [1.9, True, "1", 0, -1])
def test_shape_fields_must_be_positive_integers(tmp_path, capsys, size):
    # A shape field that only rounds, converts or compares to a valid size
    # is malformed input, in matrix and in constant-matrix files alike.
    one = {"num": ["1"], "den": ["1"]}
    for field in ("rows", "cols"):
        obj = {"rows": 1, "cols": 1, "entries": [[one]], field: size}
        f = tmp_path / "f.json"
        f.write_text(json.dumps(obj))
        assert main(["--json", "classify", str(f)]) == 2
        diag = json.loads(capsys.readouterr().out)
        assert diag["command"] == "classify"
        assert diag["error"] == (f"{field} must be a JSON integer of at "
                                 f"least 1, got {size!r}")
        obj["entries"] = [["0"]]
        a = tmp_path / "a.json"
        a.write_text(json.dumps(obj))
        b = tmp_path / "b.json"
        b.write_text(json.dumps({"rows": 1, "cols": 1, "entries": [["1"]]}))
        assert main(["--json", "statespace", str(a), str(b)]) == 2
        diag = json.loads(capsys.readouterr().out)
        assert diag["command"] == "statespace" and field in diag["error"]
    for grid in (5, [5], {"0": []}):
        f.write_text(json.dumps({"rows": 1, "cols": 1, "entries": grid}))
        assert main(["--json", "classify", str(f)]) == 2
        assert json.loads(capsys.readouterr().out) == {
            "command": "classify", "error": "entries must be a list of rows"}


def test_classify_and_latency_commands(tmp_path, capsys):
    f = write(tmp_path / "f.json", TransferMatrix.diag([z(-1), z(-3)]))
    assert main(["classify", f]) == 0
    capsys.readouterr()
    assert main(["--json", "latency", f]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["report"]["latency_indices"] == [2, 0]
    assert report["exit_status"] == 0


def test_factor_command_exit_codes(tmp_path, capsys):
    f = write(tmp_path / "f.json", TransferMatrix.scalar(z(-2)))
    h = write(tmp_path / "h.json", TransferMatrix.scalar(z(-1)))
    assert main(["--json", "factor", f, h]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["decision"] == "no" and "witness" in report
    assert main(["factor", h, f]) == 0
    capsys.readouterr()
    assert main(["--json", "factor", h, f, "--static"]) == 1
    capsys.readouterr()


def test_static_factor_failed_certificate_is_not_a_no(tmp_path, capsys,
                                                       monkeypatch):
    # A wrong solution of the window system fails the certificate g*f == h:
    # that is exit 3, never the "no" of exit 1.
    from latkern import linalg

    exact = linalg.solve
    monkeypatch.setattr(linalg, "solve",
                        lambda a, b: [x + 1 for x in exact(a, b)])
    f = write(tmp_path / "f.json", TransferMatrix.diag([z(-1), z(-3)]))
    h = write(tmp_path / "h.json", TransferMatrix.diag([2 * z(-1), z(-3)]))
    assert main(["--json", "factor", f, h, "--static"]) == 3
    assert json.loads(capsys.readouterr().out) == {
        "command": "factor", "error": "static factor reconstruction failed"}


def test_equiv_command(tmp_path, capsys):
    f1 = write(tmp_path / "f1.json", TransferMatrix.scalar(z(-1)))
    f2 = write(tmp_path / "f2.json",
               TransferMatrix.scalar(RatFun(Poly([2]), Poly([0, 1]))))
    assert main(["equiv", f1, f2, "--mode", "post"]) == 0
    capsys.readouterr()
    f3 = write(tmp_path / "f3.json", TransferMatrix.scalar(z(-2)))
    assert main(["equiv", f1, f3, "--mode", "two-sided"]) == 1
    capsys.readouterr()


def test_equiv_refuses_non_injective_maps(tmp_path, capsys):
    flat = write(tmp_path / "flat.json",
                 TransferMatrix([[z(-1), z(-1)], [z(-1), z(-1)]]))
    f = write(tmp_path / "f.json", TransferMatrix.diag([z(-1), z(-2)]))
    zero = write(tmp_path / "zero.json", TransferMatrix.zero(2, 2))
    for args, name in (([flat, f], "first map"), ([f, flat], "second map"),
                       ([zero, f], "first map")):
        assert main(["--json", "equiv", *args, "--mode", "post"]) == 2
        assert json.loads(capsys.readouterr().out) == {
            "command": "equiv",
            "error": f"{name} is not injective; equivalence via latency "
                     "kernels requires full column rank"}


def test_realize_command_writes_files(tmp_path, capsys):
    f = write(tmp_path / "f.json", TransferMatrix.scalar(z(-2)))
    l = write(tmp_path / "l.json",
              TransferMatrix.scalar(RatFun(Poly([0, 1]), Poly([1, 1]))))
    out = tmp_path / "out"
    assert main(["--json", "realize", f, l, "--out-dir", str(out)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["sigma"] == [1] and report["nu"] == [1]
    v = load_matrix(str(out / "v.json"))
    g = load_matrix(str(out / "g.json"))
    assert v.classify().bicausal and g.classify().causal


def _realize_files(tmp_path):
    f = write(tmp_path / "f.json",
              TransferMatrix([[z(-1), z(-2)], [RatFun.const(0), z(-3)]]))
    l = write(tmp_path / "l.json",
              TransferMatrix([[RatFun(Poly([1, 1]), Poly([2, 1])), z(-1)],
                              [RatFun.const(2), RatFun.const(1)]]))
    return ["--json", "realize", f, l, "--out-dir", str(tmp_path / "out")]


def _faulty_check(monkeypatch, fault):
    """Run the realization identity on what fault makes of (loop, v)."""
    from latkern import feedback

    exact = feedback._check_realization
    monkeypatch.setattr(feedback, "_check_realization",
                        lambda loop, v, l: exact(*fault(loop, v), l))


@pytest.mark.parametrize("t", [1, 6, 7])
def test_realize_cross_check_catches_perturbed_v(tmp_path, capsys,
                                                 monkeypatch, t):
    # v moved by 3 z^-t where vg_representation certifies it, at a small
    # index or a large one, is refused: the identity is exact, so no
    # window bounds what it covers.
    bump = TransferMatrix([[RatFun.const(0), RatFun.const(0)],
                           [3 * z(-t), RatFun.const(0)]])
    _faulty_check(monkeypatch, lambda loop, v: (loop, v + bump))
    assert main(_realize_files(tmp_path)) == 3
    assert json.loads(capsys.readouterr().out) == {
        "command": "realize", "error": "realization identity failed"}


def test_realize_cross_check_needs_a_causal_unit(tmp_path, capsys,
                                                 monkeypatch):
    # A loop with a z term, or with constant term other than I, fails the
    # exact identity; realize needs no causal-unit guard of its own.
    argv = _realize_files(tmp_path)
    for wrong in (lambda loop: loop + z(1) * TransferMatrix.identity(2),
                  lambda loop: loop * 2):
        _faulty_check(monkeypatch, lambda loop, v: (wrong(loop), v))
        assert main(argv) == 3
        assert json.loads(capsys.readouterr().out) == {
            "command": "realize", "error": "realization identity failed"}
        monkeypatch.undo()


def test_realize_certifies_once_in_the_library(tmp_path, capsys,
                                               monkeypatch):
    # (I + g f) l = v is checked once, by vg_representation; the CLI
    # checks nothing of its own and imports nothing from polymatrix.
    import ast
    import inspect

    from latkern import cli, feedback

    exact = feedback._check_realization
    calls = []

    def counted(*args):
        calls.append(args)
        return exact(*args)

    monkeypatch.setattr(feedback, "_check_realization", counted)
    assert main(_realize_files(tmp_path)) == 0
    assert json.loads(capsys.readouterr().out)["exit_status"] == 0
    assert len(calls) == 1
    tree = ast.parse(inspect.getsource(cli))
    modules = {node.module for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)}
    assert "polymatrix" not in modules and "latkern.polymatrix" not in modules


def test_realize_expands_no_series(tmp_path, capsys, monkeypatch):
    # The realization is certified by exact rational arithmetic: no series
    # is expanded for the reported window.
    from latkern.simulate import SeriesMatrix

    def refuse(*args):
        raise RuntimeError("a series was expanded")

    monkeypatch.setattr(SeriesMatrix, "from_transfer", refuse)
    monkeypatch.setattr(RatFun, "laurent_ints", refuse)
    assert main(_realize_files(tmp_path)) == 0
    assert json.loads(capsys.readouterr().out)["exit_status"] == 0


def test_factor_and_equiv_run_no_kernel_certificate(tmp_path, capsys,
                                                   monkeypatch):
    # factor and equiv certify each answer by its own identity or witness,
    # not the kernel they read it off; latency, realize and worstcase
    # report the kernel itself, so they still certify it.
    import latkern.latency
    from latkern.properbasis import SmithAtInfinity

    f = write(tmp_path / "f.json",
              TransferMatrix([[z(-1), z(-2)], [RatFun.const(0), z(-3)]]))
    l = write(tmp_path / "l.json",
              TransferMatrix([[RatFun(Poly([1, 1]), Poly([2, 1])), z(-1)],
                              [RatFun.const(2), RatFun.const(1)]]))
    lf = write(tmp_path / "lf.json", load_matrix(l) * load_matrix(f))
    zf = write(tmp_path / "zf.json", z(1) * load_matrix(f))
    swap = write(tmp_path / "swap.json",
                 TransferMatrix.diag([z(-3), z(-1)]) * load_matrix(l))
    cases = [["factor", f, lf], ["factor", f, zf],
             ["equiv", f, lf, "--mode", "post"],
             ["equiv", f, swap, "--mode", "post"]]

    def run(args):
        code = main(["--json", *args])
        return code, json.loads(capsys.readouterr().out)

    expected = [run(args) for args in cases]
    assert [code for code, _ in expected] == [0, 1, 0, 1]

    def refuse(*args):
        raise RuntimeError("the kernel was certified")

    monkeypatch.setattr(latkern.latency, "certify_latency_kernel", refuse)
    monkeypatch.setattr(SmithAtInfinity, "reassembles", refuse)
    assert [run(args) for args in cases] == expected
    monkeypatch.undo()

    certify = latkern.latency.certify_latency_kernel
    counted = []

    def counting(k, g):
        counted.append(g)
        return certify(k, g)

    monkeypatch.setattr(latkern.latency, "certify_latency_kernel", counting)
    for args in (["latency", f], ["worstcase", f],
                 ["realize", f, l, "--out-dir", str(tmp_path / "out")]):
        counted.clear()
        assert run(args)[0] == 0
        assert counted


def test_no_command_inverts_the_smith_row_record(tmp_path, capsys,
                                                 monkeypatch):
    # Every kernel answer and the reassembly check b1^-1 * f == delta * b2
    # read b1^-1, the forward replay of the Smith form's row record; no
    # command replays it backwards into b1.  On a 3x2 plant the row
    # record is the only record of size 3.
    from latkern import linalg

    rng = random.Random(94)
    f, _ = rand_strictly_causal_injective(rng, 3, 2, max_nu=2, max_deg=1)
    l_po, l_pr = rand_bicausal(rng, 3, 1), rand_bicausal(rng, 2, 1)
    fp = write(tmp_path / "f.json", f)
    hp = write(tmp_path / "h.json", rand_causal(rng, 2, 3, 1) * f)
    post = write(tmp_path / "post.json", l_po * f)
    both = write(tmp_path / "both.json", l_po * f * l_pr)
    lp = write(tmp_path / "l.json", l_pr)
    inverse = linalg.RowOps.inverse

    def refusing(self):
        if self.n == f.rows:
            raise RuntimeError("the Smith row record was inverted")
        return inverse(self)

    monkeypatch.setattr(linalg.RowOps, "inverse", refusing)
    for args in (["latency", fp], ["factor", fp, hp],
                 ["equiv", fp, post, "--mode", "post"],
                 ["equiv", fp, both, "--mode", "two-sided"],
                 ["realize", fp, lp, "--out-dir", str(tmp_path / "out")],
                 ["worstcase", fp]):
        assert main(["--json", *args]) == 0, args
        report = json.loads(capsys.readouterr().out)
        assert report.get("decision", "yes") == "yes"
        assert report.get("equivalent", True) is True


def test_worstcase_and_expand_and_simulate(tmp_path, capsys):
    f = write(tmp_path / "f.json", TransferMatrix.scalar(z(-2)))
    assert main(["--json", "worstcase", f]) == 0
    capsys.readouterr()
    assert main(["--json", "expand", f, "--terms", "4"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["terms"][0] == {"index": 2, "coeff": [["1"]]}

    u = write(tmp_path / "u.json", TransferMatrix.scalar(z(2)))
    assert main(["--json", "simulate", f, u, "--horizon", "6"]) == 0
    report = json.loads(capsys.readouterr().out)
    coeffs = {item["index"]: item["coeff"] for item in report["output"]}
    assert coeffs[0] == [["1"]]


def test_simulate_agrees_with_apply_expand(tmp_path, capsys):
    rng = random.Random(92)
    for _ in range(10):
        fm = rand_matrix(rng, 2, 2, 2)
        um = rand_matrix(rng, 2, 1, 2)
        f = write(tmp_path / "f.json", fm)
        u = write(tmp_path / "u.json", um)
        assert main(["--json", "simulate", f, u, "--horizon", "8"]) == 0
        report = json.loads(capsys.readouterr().out)
        exact = fm.apply([um.entry(i, 0) for i in range(2)])
        from fractions import Fraction
        for item in report["output"]:
            t = item["index"]
            for i in range(2):
                assert Fraction(item["coeff"][i][0]) == exact[i].laurent_coeff(t)


def test_statespace_command(tmp_path, capsys):
    (tmp_path / "a.json").write_text(json.dumps(
        {"rows": 2, "cols": 2, "entries": [["0", "1"], ["0", "0"]]}))
    (tmp_path / "b.json").write_text(json.dumps(
        {"rows": 2, "cols": 1, "entries": [["0"], ["1"]]}))
    assert main(["--json", "statespace", str(tmp_path / "a.json"),
                 str(tmp_path / "b.json")]) == 0
    report = json.loads(capsys.readouterr().out)
    got = matrix_from_json(report["transfer"])
    assert got == TransferMatrix.from_columns([[z(-2), z(-1)]])


def test_usage_errors_exit_2(tmp_path, capsys):
    missing = str(tmp_path / "missing.json")
    assert main(["classify", missing]) == 2
    capsys.readouterr()
    flat = write(tmp_path / "flat.json",
                 TransferMatrix([[z(-1), z(-1)], [z(-1), z(-1)]]))
    assert main(["latency", flat]) == 2
    capsys.readouterr()
    f = write(tmp_path / "f.json", TransferMatrix.scalar(z(-1)))
    bad_l = write(tmp_path / "l.json", TransferMatrix.scalar(z(-1)))
    assert main(["realize", f, bad_l]) == 2
    capsys.readouterr()
    u = write(tmp_path / "u.json", TransferMatrix.scalar(RatFun.const(1)))
    for horizon in ("-1", "-5", "0"):
        assert main(["simulate", f, u, "--horizon", horizon]) == 2
        capsys.readouterr()
    u2 = write(tmp_path / "u2.json", TransferMatrix([[RatFun.const(1)],
                                                     [z(-1)]]))
    assert main(["--json", "simulate", f, u2]) == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert "2 entries" in error and "1 columns" in error
    over_cap = [["expand", f, "--terms", "1001"],
                ["simulate", f, u, "--horizon", "1001"]]
    for argv in over_cap:
        assert main(["--json"] + argv) == 2
        assert "at most 1000" in json.loads(capsys.readouterr().out)["error"]


def test_unwritable_output_paths_exit_2(tmp_path, capsys):
    # An output path that cannot be written is a usage error, not a "no":
    # exit 2 with the {command, error} diagnostic, and no traceback.
    f = write(tmp_path / "f.json", TransferMatrix.scalar(z(-2)))
    l = write(tmp_path / "l.json",
              TransferMatrix.scalar(RatFun(Poly([0, 1]), Poly([1, 1]))))
    (tmp_path / "a.json").write_text(json.dumps(
        {"rows": 1, "cols": 1, "entries": [["0"]]}))
    (tmp_path / "b.json").write_text(json.dumps(
        {"rows": 1, "cols": 1, "entries": [["1"]]}))
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    blocked = tmp_path / "blocked"
    (blocked / "v.json").mkdir(parents=True)
    missing = str(tmp_path / "missing" / "out.json")
    cases = [(["realize", f, l, "--out-dir", f], f),
             (["realize", f, l, "--out-dir", str(blocked)],
              str(blocked / "v.json")),
             (["worstcase", f, "--out", missing], missing),
             (["statespace", a, b, "--out", missing], missing)]
    for argv, path in cases:
        assert main(["--json"] + argv) == 2
        diag = json.loads(capsys.readouterr().out)
        assert diag["command"] == argv[0]
        assert diag["error"].startswith(f"cannot write {path}: ")
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(
            f"error: cannot write {path}: ")


def test_unwritable_output_paths_fail_before_the_work(tmp_path, capsys,
                                                      monkeypatch):
    # The output paths are checked before any algebra and create nothing.
    # With the checks off, the writes report the same diagnostics after
    # the work; with them on, the same diagnostics come out although every
    # construction is patched to raise.
    f = write(tmp_path / "f.json", TransferMatrix.scalar(z(-2)))
    l = write(tmp_path / "l.json",
              TransferMatrix.scalar(RatFun(Poly([0, 1]), Poly([1, 1]))))
    (tmp_path / "a.json").write_text(json.dumps(
        {"rows": 1, "cols": 1, "entries": [["0"]]}))
    (tmp_path / "b.json").write_text(json.dumps(
        {"rows": 1, "cols": 1, "entries": [["1"]]}))
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    blocked = tmp_path / "blocked"
    (blocked / "g.json").mkdir(parents=True)
    missing = str(tmp_path / "missing" / "out.json")
    under_file = str(tmp_path / "f.json" / "out.json")
    deep_under_file = str(tmp_path / "f.json" / "a" / "b")
    cases = [["realize", f, l, "--out-dir", f],
             ["realize", f, l, "--out-dir", deep_under_file],
             ["realize", f, l, "--out-dir", str(blocked)],
             ["worstcase", f, "--out", missing],
             ["worstcase", f, "--out", under_file],
             ["worstcase", f, "--out", str(blocked)],
             ["statespace", a, b, "--out", missing]]

    def diagnostics():
        out = []
        for argv in cases:
            assert main(["--json"] + argv) == 2
            out.append(json.loads(capsys.readouterr().out))
        return out

    with monkeypatch.context() as late:
        late.setattr("latkern.cli.check_output_dir", lambda *args: None)
        late.setattr("latkern.cli.check_output_file", lambda *args: None)
        after_work = diagnostics()
    for diag, path in zip(after_work, [f, deep_under_file,
                                       str(blocked / "g.json"), missing,
                                       under_file, str(blocked), missing]):
        assert diag["error"].startswith(f"cannot write {path}: ")

    def refuse(*args):
        raise RuntimeError("the work ran before the output path check")

    for name in ("vg_representation", "worst_case_precompensator",
                 "from_state_space"):
        monkeypatch.setattr(f"latkern.cli.{name}", refuse)
    made = sorted(tmp_path.rglob("*"))
    assert diagnostics() == after_work
    assert sorted(tmp_path.rglob("*")) == made


def test_json_reports_deterministic(tmp_path, capsys):
    f = write(tmp_path / "f.json", TransferMatrix.diag([z(-1), z(-3)]))
    assert main(["--json", "latency", f]) == 0
    first = capsys.readouterr().out
    assert main(["--json", "latency", f]) == 0
    second = capsys.readouterr().out
    assert first == second


def test_no_environment_horizon(tmp_path, capsys, monkeypatch):
    # simulate's horizon comes from --horizon alone, and realize reports
    # no series window: its identity is exact.
    monkeypatch.setenv("LATKERN_HORIZON", "5")
    f = write(tmp_path / "f.json", TransferMatrix.scalar(z(-1)))
    u = write(tmp_path / "u.json", TransferMatrix.scalar(RatFun.const(1)))
    assert main(["--json", "simulate", f, u]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["horizon"] == 40
    assert [t["index"] for t in report["output"]] == list(range(41))
    assert main(_realize_files(tmp_path)) == 0
    assert sorted(json.loads(capsys.readouterr().out)) == [
        "command", "exit_status", "files", "g", "nu", "sigma", "v"]


def test_failed_certificate_exits_3(tmp_path, capsys, monkeypatch):
    from latkern.transfer import InternalCheckError

    def broken(f):
        raise InternalCheckError("forced certificate failure")

    monkeypatch.setattr("latkern.cli.latency_kernel", broken)
    f = write(tmp_path / "f.json", TransferMatrix.diag([z(-1), z(-3)]))
    assert main(["--json", "latency", f]) == 3
    diag = json.loads(capsys.readouterr().out)
    assert diag == {"command": "latency", "error": "forced certificate failure"}
    assert main(["latency", f]) == 3
    assert "forced certificate failure" in capsys.readouterr().err


def test_parser_built_once_and_reused(tmp_path, capsys):
    # main parses with one parser per process; no call may leave state in
    # it that changes a later call, usage errors included.
    f = write(tmp_path / "f.json", TransferMatrix.diag([z(-1), z(-3)]))
    g = write(tmp_path / "g.json", TransferMatrix.diag([z(-2), z(-3)]))
    u = write(tmp_path / "u.json", TransferMatrix([[RatFun.const(1)],
                                                   [z(-1)]]))
    calls = [["--json", "latency", f],
             ["--json", "equiv", f, g, "--mode", "post"],
             ["expand", f, "--terms", "3"],
             ["--json", "factor", f, f, "--static"],
             ["--json", "factor", f, f],
             ["--json", "equiv", f, f, "--mode", "two-sided"],
             ["--json", "simulate", f, u, "--horizon", "4"],
             ["classify", f]]
    first = {}
    for argv in calls + calls[::-1] + calls:
        code = main(argv)
        out = capsys.readouterr().out
        assert first.setdefault(tuple(argv), (code, out)) == (code, out)
        with pytest.raises(SystemExit) as exc:
            main(["equiv", f, g, "--mode", "sideways"])
        assert exc.value.code == 2
        capsys.readouterr()
    assert build_parser() is build_parser()


def test_coefficient_strings_parse_exactly(tmp_path, capsys):
    entry = {"num": ["+3", "-4/6", " 7 ", "0/5", "12/1"], "den": ["1"]}
    m = matrix_from_json({"rows": 1, "cols": 1, "entries": [[entry]]})
    assert m.entry(0, 0) == RatFun(Poly([3, Fraction(-2, 3), 7, 0, 12]))
    for raw, match in (("1/0", r"bad coefficient '1/0': Fraction\(1, 0\)"),
                       ("3/-5", "bad coefficient '3/-5': expected an exact"),
                       ("1.5", "bad coefficient '1.5': expected an exact")):
        obj = {"rows": 1, "cols": 1,
               "entries": [[{"num": [raw], "den": ["1"]}]]}
        with pytest.raises(InputFormatError, match=match):
            matrix_from_json(obj)
    bad = tmp_path / "zero_den.json"
    bad.write_text(json.dumps({"rows": 1, "cols": 1,
                               "entries": [[{"num": ["2/0"], "den": ["1"]}]]}))
    assert main(["--json", "classify", str(bad)]) == 2
    assert "Fraction(2, 0)" in json.loads(capsys.readouterr().out)["error"]


def test_loader_matches_the_fraction_route(tmp_path, capsys):
    # Non-canonical files: unreduced "6/4", JSON integers, the common
    # factor z + 2 planted in num and den, and an empty num list.
    entries = [
        {"num": ["6/4", 2, "-10/15"], "den": ["4/6", "0", "8/12"]},
        {"num": ["4/6", "1/3"], "den": ["-6/3", "2/2", 1]},
        {"num": [], "den": ["3/9", 5]},
        {"num": ["0/7", "-12/8"], "den": [0, 0, "21/14"]},
    ]
    obj = {"rows": 1, "cols": len(entries), "entries": [entries]}
    got = matrix_from_json(obj)

    def fields(p):
        return p._n, p._d, p._p

    for e, raw in zip(got.entries[0], entries):
        num, den = (Poly([Fraction(c) for c in raw[k]]) for k in ("num", "den"))
        assert fields(matrixio._poly_from_json(raw["num"])) == fields(num)
        assert fields(matrixio._poly_from_json(raw["den"])) == fields(den)
        want = RatFun(num, den)
        assert (fields(e.num), fields(e.den)) == (fields(want.num),
                                                  fields(want.den))
    for raw in (True, "1.5", "3/-5"):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"rows": 1, "cols": 1,
                                   "entries": [[{"num": [raw], "den": ["1"]}]]}))
        assert main(["--json", "classify", str(bad)]) == 2
        assert "coefficient" in json.loads(capsys.readouterr().out)["error"]


def _bad(raw):
    return (f"bad coefficient {raw!r}: expected an exact 'a' or 'a/b' "
            "integer string (no decimals)")


@pytest.mark.parametrize("raws, want", [
    # The batch joins a list's coefficients with commas: a comma or a
    # second slash inside one coefficient must not read as a list.
    (["1,2"], _bad("1,2")),
    (["1", "2,3"], _bad("2,3")),
    (["1/2/3"], _bad("1/2/3")),
    ([",1"], _bad(",1")),
    (["3,"], _bad("3,")),
    # Padding is stripped; Unicode decimal digits are digits.
    ([" 3 "], [3]),
    (["\u20033\x1f"], [3]),
    (["٣/٤"], [Fraction(3, 4)]),
    (["１２", "-0/7"], [12]),
    # JSON integers mixed with strings.
    ([2, "1/2", -3], [2, Fraction(1, 2), -3]),
    (["1/3", 4, " -5/6 "], [Fraction(1, 3), 4, Fraction(-5, 6)]),
    ([0, "0"], []),
    ([10 ** 5000, "1/2"], [10 ** 5000, Fraction(1, 2)]),  # too long for str()
    ([7, "1.5"], _bad("1.5")),
    (["1", True],
     "coefficients must be integer or 'a/b' strings, got True"),
    ([1, "1_0", "2/0"], _bad("1_0")),
    ([1, "2/0", "1_0"], "bad coefficient '2/0': Fraction(2, 0)"),
])
def test_loader_parity_cases(raws, want):
    # Each case reads as it did when every coefficient was parsed alone:
    # the same value, or the message for the first bad coefficient.
    if isinstance(want, str):
        with pytest.raises(InputFormatError) as exc:
            matrixio._poly_from_json(raws)
        assert str(exc.value) == want
    else:
        assert matrixio._poly_from_json(raws) == Poly(want)


def _one_at_a_time(raws):
    pairs = [matrixio._parse_pair(c) for c in raws]
    return Poly([Fraction(n, d) for n, d in pairs])


_digits = st.sampled_from(["0", "1", "-3", "+20", "٣", "１２"])
# Mostly well-formed coefficients, and two of them run together by a
# slash, a comma or another separator, padded or not.
_coeff_text = st.one_of(
    _digits,
    st.tuples(st.sampled_from(["", " ", "\t"]), _digits,
              st.sampled_from(["/", ",", "//", " / ", "_", ".", ""]),
              _digits).map("".join),
    st.text(st.sampled_from("0123456789+-/, _."), max_size=4))


@settings(max_examples=400, deadline=None)
@given(st.lists(st.one_of(_coeff_text, st.integers(), st.booleans(),
                          st.none()), max_size=5))
def test_loader_batch_agrees_with_one_at_a_time(raws):
    # _parse_pair is the one definition of a coefficient: the batch reads
    # the value it reads, or raises the error it raises first.
    try:
        want = _one_at_a_time(raws)
    except InputFormatError as exc:
        with pytest.raises(InputFormatError) as got:
            matrixio._poly_from_json(raws)
        assert str(got.value) == str(exc)
    else:
        got = matrixio._poly_from_json(raws)
        assert (got._n, got._d, got._p) == (want._n, want._d, want._p)


_json_strings = st.text(st.one_of(st.sampled_from('"\\/\x00\x1f\n\t\x7fé€😀'),
                                  st.characters()), max_size=8)
_json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), _json_strings),
    lambda kids: st.one_of(st.lists(kids, max_size=4),
                           st.lists(kids, max_size=4).map(tuple),
                           st.dictionaries(_json_strings, kids, max_size=4)),
    max_leaves=24)


@settings(max_examples=300, deadline=None)
@given(_json_values)
def test_json_text_matches_the_stdlib_encoder(obj):
    assert json_text(obj) == json.dumps(obj, indent=2, sort_keys=True)


@pytest.mark.parametrize("obj", [
    1.5, Fraction(1, 2), {1: "a"}, {"a": [1, {None: 2}]}, [1, 2.0],
    {"a": {1, 2}}])
def test_json_text_refuses_other_types(obj):
    with pytest.raises(TypeError):
        json_text(obj)


def _loader_mutations(obj):
    """Deterministic malformed variants of the matrix file obj, as text
    or bytes: truncations, wrong types, non-list rows, bad coefficient
    strings and zero denominators."""
    text = json.dumps(obj, indent=2, sort_keys=True)
    body = text.rstrip()
    for k in range(0, len(body) - 1, max(1, len(body) // 7)):
        yield body[:k]
    yield b"\xff\xfe{"
    for top in ([], 1, "m", None, True, [obj]):
        yield json.dumps(top)

    def edit(path, value):
        new = json.loads(text)
        node = new
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        return json.dumps(new)

    for grid in ({}, "x", None, [1], [None], [["x"]], [[[]]], [[1, 2]]):
        yield edit(["entries"], grid)
    for entry in ([], "1", 1, None, {"num": ["1"]}, {"den": ["1"]}):
        yield edit(["entries", 0, 0], entry)
    for num in (1, "1", None, {}, [None], [[1]], [1.5], [True],
                [float("nan")], [float("inf")]):
        yield edit(["entries", 0, 0, "num"], num)
    for coeff in ("1.5", "1e3", "abc", "", "1/", "/2", "0x10", "1 / 2",
                  "--1", "1/-5", "+", "1_000", "2/0"):
        yield edit(["entries", 0, 0, "num", 0], coeff)
    for den in ([], ["0"], ["0", "0"], ["1/0"], ["0/3", "0"], "1", 0, None):
        yield edit(["entries", 0, 0, "den"], den)


def test_loader_fuzz_exits_2_with_a_diagnostic(tmp_path, capsys):
    # Every malformed input file of factor, latency, realize and simulate
    # is refused with exit 2 and the {command, error} diagnostic, never
    # with a traceback and never as a failed certificate (exit 3).
    f = TransferMatrix([[z(-1), RatFun(Poly([1]), Poly([2, 3, 1]))],
                        [RatFun.const(0), z(-2)]])
    valid = {"f": f, "h": TransferMatrix([[z(-3), z(-2)]]),
             "l": TransferMatrix([[1, z(-1)], [0, 2]]),
             "u": TransferMatrix([[RatFun.const(1)], [z(-1)]])}
    paths = {k: write(tmp_path / f"{k}.json", m) for k, m in valid.items()}
    commands = {"factor": ["f", "h"], "latency": ["f"],
                "realize": ["f", "l"], "simulate": ["f", "u"]}
    bad = tmp_path / "bad.json"
    cases = 0
    for command, slots in commands.items():
        for slot in slots:
            for mutated in _loader_mutations(matrix_to_json(valid[slot])):
                if isinstance(mutated, bytes):
                    bad.write_bytes(mutated)
                else:
                    bad.write_text(mutated)
                argv = [str(bad) if s == slot else paths[s] for s in slots]
                if command == "realize":
                    argv += ["--out-dir", str(tmp_path / "out")]
                code = main(["--json", command, *argv])
                diag = json.loads(capsys.readouterr().out)
                assert code == 2, (command, slot, mutated)
                assert set(diag) == {"command", "error"}
                assert diag["command"] == command and diag["error"]
                cases += 1
    assert cases > 300
