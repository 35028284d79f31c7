"""Causal and static factorization decisions."""

import json
import random
from fractions import Fraction

import pytest

import latkern.factor
import latkern.linalg
from latkern.cli import main
from latkern.factor import (causal_factor, constant_matrix, static_factor)
from latkern.latency import latency_kernel
from latkern.matrixio import dump_matrix
from latkern.properbasis import smith_at_infinity
from latkern.rational import Poly, RatFun
from latkern.transfer import InternalCheckError, TransferMatrix
from oracles import image_is_proper, reference_causal_factor

from gen import (corrupt_entry, move_out_of_kernel, rand_causal, rand_matrix,
                 rand_nonzero_matrix, rand_strictly_causal_injective)

z = RatFun.zpow


def test_causal_factor_examples():
    yes = causal_factor(TransferMatrix.scalar(z(-1)), TransferMatrix.scalar(z(-2)))
    assert yes.decision and yes.g == TransferMatrix.scalar(z(-1))

    no = causal_factor(TransferMatrix.scalar(z(-2)), TransferMatrix.scalar(z(-1)))
    assert not no.decision
    assert no.witness == (z(2),)
    assert image_is_proper(TransferMatrix.scalar(z(-2)), list(no.witness))
    assert not image_is_proper(TransferMatrix.scalar(z(-1)), list(no.witness))

    f = TransferMatrix.from_columns([[z(-1), z(-2)]])
    out = causal_factor(f, TransferMatrix.scalar(z(-2)))
    assert out.decision
    assert out.g * f == TransferMatrix.scalar(z(-2))
    assert out.g.classify().causal


def test_causal_factor_soundness_random():
    rng = random.Random(51)
    for _ in range(30):
        m = rng.randint(1, 2)
        p = rng.randint(m, 3)
        f, _ = rand_strictly_causal_injective(rng, p, m, max_nu=2, max_deg=1)
        h = rand_matrix(rng, rng.randint(1, 2), m, 2)
        out = causal_factor(f, h)
        kernel = latency_kernel(f)
        oracle = all(
            image_is_proper(h, list(kernel.generator.column(j)))
            for j in range(m))
        assert out.decision == oracle
        if out.decision:
            assert out.g * f == h and out.g.classify().causal
        else:
            assert image_is_proper(f, list(out.witness))
            assert not image_is_proper(h, list(out.witness))


def test_causal_factor_matches_reference_construction():
    # g is h on the image of f and zero on the unit columns completing it;
    # the reference builds the same map from a column-reduced image basis
    # and one inversion, so the two must agree entry for entry.
    rng = random.Random(56)
    yes = 0
    for m in range(1, 4):
        for p in (m, m + 1, m + 2):
            for q in range(1, 4):
                f, _ = rand_strictly_causal_injective(rng, p, m, max_nu=2,
                                                      max_deg=1)
                if rng.random() < 0.8:
                    h = rand_causal(rng, q, p, 1) * f
                else:
                    h = rand_matrix(rng, q, m, 1)
                out = causal_factor(f, h)
                if out.decision:
                    yes += 1
                    assert out.g == reference_causal_factor(f, h)
    assert yes >= 20


def test_corrupt_smith_b1_inverse_is_caught(monkeypatch, tmp_path, capsys):
    # b1^-1 is built on first read; planting it in the instance dict is
    # what that read returns.
    def corrupted(f):
        s = smith_at_infinity(f)
        s.__dict__["b1_inv"] = corrupt_entry(s.b1_inv)
        return s

    monkeypatch.setattr("latkern.latency.smith_at_infinity", corrupted)
    rng = random.Random(57)
    f, _ = rand_strictly_causal_injective(rng, 2, 2, max_nu=2, max_deg=1)
    h = rand_causal(rng, 2, 2, 1) * f
    with pytest.raises(InternalCheckError,
                       match="causal factor reconstruction failed"):
        causal_factor(f, h)
    fp, hp = str(tmp_path / "f.json"), str(tmp_path / "h.json")
    dump_matrix(f, fp)
    dump_matrix(h, hp)
    assert main(["--json", "factor", fp, hp]) == 3
    diag = json.loads(capsys.readouterr().out)
    assert diag == {"command": "factor",
                    "error": "causal factor reconstruction failed"}


def test_image_coordinates_give_a_left_inverse():
    # M = w^-1 * b1^-1[:m, :] reads f's outputs in the basis f * d of its
    # image: M * f = d^-1, so d * M is a left inverse of f.
    rng = random.Random(63)
    for m in range(1, 4):
        for p in (m, m + 1, m + 2):
            f, _ = rand_strictly_causal_injective(rng, p, m, max_nu=2,
                                                  max_deg=1)
            k = latency_kernel(f)
            assert k.image_coordinates * f == k.generator_inv
            assert (k.generator * k.image_coordinates * f
                    == TransferMatrix.identity(m))


def test_corrupt_image_coordinates_is_caught(monkeypatch, tmp_path, capsys):
    # The left factor is h * d times the kernel's image coordinates M;
    # a moved entry of M is caught by the reconstruction check.
    def corrupted(f):
        k = latency_kernel(f)
        k.__dict__["image_coordinates"] = corrupt_entry(k.image_coordinates)
        return k

    rng = random.Random(64)
    f, _ = rand_strictly_causal_injective(rng, 3, 2, max_nu=2, max_deg=1)
    h = rand_causal(rng, 2, 3, 1) * f
    with pytest.raises(InternalCheckError,
                       match="causal factor reconstruction failed"):
        causal_factor(f, h, kernel=corrupted(f))
    monkeypatch.setattr("latkern.factor.build_latency_kernel", corrupted)
    fp, hp = str(tmp_path / "f.json"), str(tmp_path / "h.json")
    dump_matrix(f, fp)
    dump_matrix(h, hp)
    assert main(["--json", "factor", fp, hp]) == 3
    diag = json.loads(capsys.readouterr().out)
    assert diag == {"command": "factor",
                    "error": "causal factor reconstruction failed"}


def test_witness_from_a_moved_generator_column_is_caught(monkeypatch,
                                                         tmp_path, capsys):
    # factor reads its answer off an uncertified kernel and certifies the
    # witness of a "no" instead: f(u) causal and h(u) not.  With a generator
    # column moved out of the kernel a factorizable h looks refuted; the
    # witness check exits 3, never 1 with a wrong witness.
    build = latkern.factor.build_latency_kernel
    monkeypatch.setattr(latkern.factor, "build_latency_kernel",
                        lambda f: move_out_of_kernel(build(f)))
    rng = random.Random(65)
    f, _ = rand_strictly_causal_injective(rng, 3, 2, max_nu=2, max_deg=1)
    h = rand_causal(rng, 2, 3, 1) * f
    with pytest.raises(InternalCheckError,
                       match="factor witness does not refute"):
        causal_factor(f, h)
    fp, hp = str(tmp_path / "f.json"), str(tmp_path / "h.json")
    dump_matrix(f, fp)
    dump_matrix(h, hp)
    assert main(["--json", "factor", fp, hp]) == 3
    assert json.loads(capsys.readouterr().out) == {
        "command": "factor", "error": "factor witness does not refute"}


def test_singular_complement_block_is_a_failed_certificate(monkeypatch,
                                                           tmp_path, capsys):
    # Rows m.. of b1^-1 restricted to the complement columns must be
    # invertible; zeroing them is a library fault (exit 3), not bad input.
    def corrupted(f):
        s = smith_at_infinity(f)
        m = len(s.sigma)
        rows = [list(row) for row in s.b1_inv.entries]
        rows[m:] = [[RatFun.const(0)] * len(row) for row in rows[m:]]
        s.__dict__["b1_inv"] = TransferMatrix(rows)
        return s

    monkeypatch.setattr("latkern.latency.smith_at_infinity", corrupted)
    rng = random.Random(59)
    f, _ = rand_strictly_causal_injective(rng, 3, 2, max_nu=2, max_deg=1)
    h = rand_causal(rng, 2, 3, 1) * f
    with pytest.raises(InternalCheckError, match="complement block"):
        causal_factor(f, h)
    fp, hp = str(tmp_path / "f.json"), str(tmp_path / "h.json")
    dump_matrix(f, fp)
    dump_matrix(h, hp)
    assert main(["--json", "factor", fp, hp]) == 3
    assert "complement block" in json.loads(capsys.readouterr().out)["error"]


def test_order_consistent_maps_absorb_higher_order():
    rng = random.Random(52)
    done = 0
    while done < 50:
        f = rand_nonzero_matrix(rng, 2, 2, 2)
        rep = f.classify()
        if not rep.order_consistent or f.rank() != 2:
            continue
        h = rand_nonzero_matrix(rng, 2, 2, 2)
        if h.order() < rep.map_order:
            h = h * z(h.order() - rep.map_order)  # raise ord(h) to ord(f)
        assert h.order() >= rep.map_order
        assert causal_factor(f, h).decision
        done += 1


def test_nonlatent_maps_absorb_every_strictly_causal_map():
    rng = random.Random(53)
    f = TransferMatrix.from_columns([[z(-1), z(-1) + z(-2)]])
    assert f.classify().nonlatent
    for _ in range(25):
        h = rand_matrix(rng, 2, 1, 3)
        if h.is_zero or h.order() < 1:
            continue
        out = causal_factor(f, h)
        assert out.decision


def test_bicausal_equivalence_wrappers():
    from latkern.latency import compensation_equivalence
    res = compensation_equivalence(TransferMatrix.scalar(z(-1)),
                                   TransferMatrix.scalar(RatFun.const(2) * z(-1)),
                                   "post")
    assert res.equivalent
    assert res.post == TransferMatrix.scalar(RatFun.const(2))

    res_no = compensation_equivalence(TransferMatrix.scalar(z(-1)),
                                      TransferMatrix.scalar(z(-2)), "post")
    assert not res_no.equivalent
    assert res_no.witness is not None

    f1 = TransferMatrix.diag([z(-1), z(-2)])
    shear = TransferMatrix([[RatFun.const(1), z(-1)],
                            [RatFun.const(0), RatFun.const(1)]])
    assert shear.classify().bicausal
    f2 = f1 * shear
    res_pre = compensation_equivalence(f1, f2, "pre")
    assert res_pre.equivalent
    assert res_pre.pre.classify().bicausal
    assert f1 * res_pre.pre == f2


def test_static_factor_examples():
    f = TransferMatrix.scalar(z(-1))
    doubled = static_factor(f, TransferMatrix.scalar(RatFun.const(2) * z(-1)))
    assert constant_matrix(doubled.g) == ((2,),)

    assert not static_factor(f, TransferMatrix.scalar(z(-2))).decision

    f2 = TransferMatrix.from_columns([[z(-2), z(-1)]])
    g = static_factor(f2, TransferMatrix.scalar(z(-1))).g
    assert constant_matrix(g) == ((0, 1),)
    assert g * f2 == TransferMatrix.scalar(z(-1))


def test_static_factor_window_bound_against_bruteforce():
    """The truncation-window decision must match exact rational equality."""
    rng = random.Random(54)
    for _ in range(40):
        p, m, q = rng.randint(1, 2), rng.randint(1, 2), rng.randint(1, 2)
        f = rand_matrix(rng, p, m, 2)
        if rng.random() < 0.5:
            g0 = TransferMatrix.from_constant(
                [[Fraction(rng.randint(-3, 3)) for _ in range(p)]
                 for _ in range(q)])
            h = g0 * f
        else:
            h = rand_matrix(rng, q, m, 2)
        got = static_factor(f, h)
        if got.decision:
            assert got.g * f == h
        else:
            # brute force: no constant combination reproduces h
            found = brute_force_static(f, h)
            assert found is None


def brute_force_static(f, h):
    """Exact polynomial-identity solve, independent of windowing."""
    from latkern import linalg
    from latkern.rational import poly_lcm
    p, m, q = f.rows, f.cols, h.rows
    rows = []
    rhs = [[] for _ in range(q)]
    for j in range(m):
        den = Poly.one()
        for i in range(p):
            den = poly_lcm(den, f.entry(i, j).den)
        for i in range(q):
            den = poly_lcm(den, h.entry(i, j).den)
        polys_f = [f.entry(i, j).num * (den // f.entry(i, j).den)
                   for i in range(p)]
        polys_h = [h.entry(i, j).num * (den // h.entry(i, j).den)
                   for i in range(q)]
        top = max([pf.degree for pf in polys_f] + [ph.degree for ph in polys_h])
        for d in range(top + 1):
            rows.append([pf.coeff(d) for pf in polys_f])
            for i in range(q):
                rhs[i].append(polys_h[i].coeff(d))
    sols = [linalg.solve(rows, rhs[i]) for i in range(q)]
    if any(s is None for s in sols):
        return None
    return TransferMatrix.from_constant(sols)


def test_static_implies_causal():
    rng = random.Random(55)
    for _ in range(10):
        m = rng.randint(1, 2)
        f, _ = rand_strictly_causal_injective(rng, 2, m, max_nu=1, max_deg=1)
        g0 = TransferMatrix.from_constant(
            [[Fraction(rng.randint(-2, 2)) for _ in range(2)]])
        h = g0 * f
        assert static_factor(f, h).decision
        assert causal_factor(f, h).decision


def _write_pair(tmp_path, f, h):
    """Paths of f and h written as f.json and h.json under tmp_path."""
    paths = [str(tmp_path / "f.json"), str(tmp_path / "h.json")]
    dump_matrix(f, paths[0])
    dump_matrix(h, paths[1])
    return paths


def test_square_factor_replays_neither_b1_nor_b2(monkeypatch, tmp_path,
                                                 capsys):
    # For square f, factor reads b1^-1 and b2^-1 off the Smith records
    # (transform replays) and never b1 or b2 (inverse replays).
    rng = random.Random(63)
    f, _ = rand_strictly_causal_injective(rng, 3, 3, max_nu=2, max_deg=1)
    h = rand_causal(rng, 2, 3) * f
    paths = _write_pair(tmp_path, f, h)

    def refuse(self):
        raise AssertionError("a Smith factor was replayed")

    monkeypatch.setattr(latkern.linalg.RowOps, "inverse", refuse)
    assert main(["--json", "factor", *paths]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["decision"] == "yes"


def _functional(terms, row):
    """sum c * [z^-t] row[j] over the witness terms (j, t, c)."""
    return sum(c * row[j].laurent_coeff(t) for j, t, c in terms)


def test_static_factor_no_carries_a_fredholm_witness():
    # No constant g has g * f == h; the witness functional y vanishes on
    # each row of f but not on the named row of h.
    rng = random.Random(64)
    cases = [(TransferMatrix.scalar(z(-1)), TransferMatrix.scalar(z(-2))),
             (TransferMatrix.zero(1, 2), TransferMatrix([[0, z(-1)]]))]
    while len(cases) < 12:
        f, h = rand_matrix(rng, 2, 2, 2), rand_matrix(rng, 2, 2, 2)
        if not static_factor(f, h).decision:
            cases.append((f, h))
    for f, h in cases:
        out = static_factor(f, h)
        assert not out.decision and out.g is None
        row, terms = out.witness
        assert all(_functional(terms, r) == 0 for r in f.entries)
        assert _functional(terms, h.entries[row]) != 0


def test_static_factor_no_reports_its_witness(tmp_path, capsys):
    paths = _write_pair(tmp_path, TransferMatrix.scalar(z(-1)),
                        TransferMatrix.scalar(z(-2)))
    assert main(["--json", "factor", *paths, "--static"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["decision"] == "no"
    witness = report["witness"]
    assert witness["row"] == 0
    terms = [(y["column"], y["index"], Fraction(y["coeff"]))
             for y in witness["y"]]
    assert _functional(terms, [z(-1)]) == 0
    assert _functional(terms, [z(-2)]) != 0


def test_static_factor_corrupted_witness_exits_3(tmp_path, capsys,
                                                 monkeypatch):
    # Every solution linalg.solve returns is moved off by one: the window
    # system of g stays inconsistent, and the witness y no longer
    # annihilates f's windows.
    exact = latkern.linalg.solve

    def off_by_one(a, b):
        x = exact(a, b)
        return None if x is None else tuple(v + 1 for v in x)

    monkeypatch.setattr(latkern.linalg, "solve", off_by_one)
    paths = _write_pair(tmp_path, TransferMatrix.scalar(z(-1)),
                        TransferMatrix.scalar(z(-2)))
    assert main(["--json", "factor", *paths, "--static"]) == 3
    assert json.loads(capsys.readouterr().out) == {
        "command": "factor", "error": "static factor witness does not refute"}
