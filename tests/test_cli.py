"""CLI subcommands, file round-trips, exit codes, determinism."""

import json
import random
from fractions import Fraction

import pytest

from latkern import matrixio
from latkern.cli import build_parser, main
from latkern.matrixio import (InputFormatError, dump_matrix, load_matrix,
                              matrix_from_json, matrix_to_json)
from latkern.rational import Poly, RatFun
from latkern.transfer import TransferMatrix

from gen import rand_matrix

z = RatFun.zpow


def write(path, matrix):
    dump_matrix(matrix, str(path))
    return str(path)


def test_matrix_round_trip_random():
    rng = random.Random(91)
    for _ in range(25):
        m = rand_matrix(rng, rng.randint(1, 3), rng.randint(1, 3), 3)
        assert matrix_from_json(matrix_to_json(m)) == m


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


@pytest.mark.parametrize("t", [1, 6])
def test_realize_cross_check_catches_perturbed_v(tmp_path, capsys,
                                                 monkeypatch, t):
    # The true realization with v moved by 3 z^-t at the window's first
    # strictly causal index and at its last one, the horizon.
    import dataclasses

    from latkern.feedback import vg_representation

    monkeypatch.setenv("LATKERN_HORIZON", "6")
    f_m = TransferMatrix([[z(-1), z(-2)], [RatFun.const(0), z(-3)]])
    l_m = TransferMatrix([[RatFun(Poly([1, 1]), Poly([2, 1])), z(-1)],
                          [RatFun.const(2), RatFun.const(1)]])
    true = vg_representation(f_m, l_m)
    f = write(tmp_path / "f.json", f_m)
    l = write(tmp_path / "l.json", l_m)
    out = str(tmp_path / "out")

    monkeypatch.setattr("latkern.cli.vg_representation",
                        lambda f, l: true)
    assert main(["--json", "realize", f, l, "--out-dir", out]) == 0
    capsys.readouterr()

    bump = TransferMatrix([[RatFun.const(0), RatFun.const(0)],
                           [3 * z(-t), RatFun.const(0)]])
    wrong = dataclasses.replace(true, v=true.v + bump)
    monkeypatch.setattr("latkern.cli.vg_representation",
                        lambda f, l: wrong)
    assert main(["--json", "realize", f, l, "--out-dir", out]) == 3
    diag = json.loads(capsys.readouterr().out)
    assert diag == {"command": "realize",
                    "error": "simulation cross-check failed"}


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


def test_usage_errors_exit_2(tmp_path, capsys, monkeypatch):
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
    monkeypatch.setenv("LATKERN_HORIZON", "1001")
    over_cap = [["expand", f, "--terms", "1001"],
                ["simulate", f, u, "--horizon", "1001"],
                ["simulate", f, u]]
    for argv in over_cap:
        assert main(["--json"] + argv) == 2
        assert "at most 1000" in json.loads(capsys.readouterr().out)["error"]


def test_json_reports_deterministic(tmp_path, capsys):
    f = write(tmp_path / "f.json", TransferMatrix.diag([z(-1), z(-3)]))
    assert main(["--json", "latency", f]) == 0
    first = capsys.readouterr().out
    assert main(["--json", "latency", f]) == 0
    second = capsys.readouterr().out
    assert first == second


def test_horizon_env_respected(tmp_path, capsys, monkeypatch):
    f = write(tmp_path / "f.json", TransferMatrix.scalar(z(-1)))
    u = write(tmp_path / "u.json", TransferMatrix.scalar(RatFun.const(1)))
    monkeypatch.setenv("LATKERN_HORIZON", "5")
    assert main(["--json", "simulate", f, u]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["horizon"] == 5


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
