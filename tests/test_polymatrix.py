"""Polynomial matrices (TransferMatrix with polynomial entries): coprime
fractions and reachability indices from the Krylov basis, column-reducedness
as properness at infinity, and the reference GCRD and column reduction."""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from latkern import linalg, polymatrix, properbasis
from latkern.cli import main
from latkern.feedback import (StateSpace, static_state_feedback_test,
                              vg_representation)
from latkern.matrixio import dump_matrix
from latkern.polymatrix import (hermite_gcrd, krylov_kernel_basis,
                                reachability_indices, right_coprime_fraction)
from latkern.rational import ORD_INF, Poly, RatFun
from latkern.transfer import InternalCheckError, TransferMatrix
from oracles import (column_reduce_poly, high_coefficient_data, poly_entries,
                     poly_matrix_det, poly_module_contains,
                     reference_coprime_fraction,
                     reference_krylov_kernel_basis)

from gen import (rand_bicausal, rand_matrix, rand_poly, rand_poly_vector,
                 rand_strictly_causal_injective)

z = RatFun.zpow


def is_unimodular(u: TransferMatrix) -> bool:
    """A nonzero constant determinant, by the permutation-sum oracle."""
    return poly_matrix_det(u).degree == 0


def test_gcrd_examples():
    r, u, _ = hermite_gcrd(TransferMatrix([[Poly.z(2)]]),
                           TransferMatrix([[Poly.z(1)]]))
    assert r == TransferMatrix([[Poly.z(1)]])
    assert is_unimodular(u)

    r, u, _ = hermite_gcrd(TransferMatrix.identity(2),
                           TransferMatrix([[Poly.z(3), Poly([1, 2])],
                                           [Poly.zero(), Poly.z(1)]]))
    assert is_unimodular(r)

    r, _, _ = hermite_gcrd(TransferMatrix([[Poly([1, 1])]]),
                           TransferMatrix([[Poly([-1, 1])]]))
    assert r == TransferMatrix([[Poly.one()]])


def test_gcrd_certificate_reconstructs():
    rng = random.Random(61)
    for _ in range(15):
        m = rng.randint(1, 2)
        a = TransferMatrix([[rand_poly(rng, 2) for _ in range(m)]
                            for _ in range(m)])
        b = TransferMatrix([[rand_poly(rng, 2) for _ in range(m)]
                            for _ in range(m)])
        stacked = TransferMatrix(a.entries + b.entries)
        if stacked.rank() != m:
            continue
        r, u, u_inv = hermite_gcrd(a, b)
        assert is_unimodular(u)
        assert u * u_inv == TransferMatrix.identity(2 * m)
        prod = u * stacked
        for i in range(m):
            for j in range(m):
                assert prod.entry(i, j) == r.entry(i, j)
        for i in range(m, 2 * m):
            for j in range(m):
                assert prod.entry(i, j).is_zero


def test_gcrd_rejects_rank_deficiency():
    with pytest.raises(ValueError):
        hermite_gcrd(TransferMatrix([[Poly.zero()]]),
                     TransferMatrix([[Poly.zero()]]))


def test_column_reduce_examples():
    p = TransferMatrix([[Poly([1, 0, 1]), Poly([0, 0, 1])],
                        [Poly.one(), Poly.one()]])
    reduced, v, _ = column_reduce_poly(p)
    assert is_unimodular(v)
    degrees, high = high_coefficient_data(reduced)
    assert sum(degrees) == poly_matrix_det(p).degree
    assert linalg.rank(high) == 2

    d = TransferMatrix([[Poly.z(1), Poly.zero()], [Poly.zero(), Poly.z(2)]])
    rd, _, _ = column_reduce_poly(d)
    assert rd == d

    p2 = TransferMatrix([[Poly.z(1), Poly.z(1)], [Poly.zero(), Poly.one()]])
    r2, _, _ = column_reduce_poly(p2)
    degrees, high = high_coefficient_data(r2)
    assert sum(degrees) == 1
    assert linalg.rank(high) == 2


def test_column_reduce_rejects_singular():
    with pytest.raises(ValueError):
        column_reduce_poly(TransferMatrix([[Poly.z(1), Poly.z(1)],
                                           [Poly.z(1), Poly.z(1)]]))


def test_fraction_examples():
    fr = right_coprime_fraction(
        TransferMatrix.scalar(RatFun(Poly([0, 1]), Poly([1, 1]))))
    assert fr.num == TransferMatrix([[Poly.z(1)]])
    assert fr.den == TransferMatrix([[Poly([1, 1])]])
    assert fr.degrees == (1,)

    fr2 = right_coprime_fraction(TransferMatrix.scalar(z(-2)))
    assert fr2.num == TransferMatrix([[Poly.one()]])
    assert fr2.den == TransferMatrix([[Poly.z(2)]])

    fr3 = right_coprime_fraction(TransferMatrix.from_columns([[z(-2), z(-1)]]))
    assert fr3.den == TransferMatrix([[Poly.z(2)]])
    assert fr3.num == TransferMatrix([[Poly.one()], [Poly.z(1)]])


def test_reachability_examples():
    assert reachability_indices(TransferMatrix.identity(2)) == ((0, 0), 0)
    v = TransferMatrix.scalar(RatFun(Poly([0, 1]), Poly([1, 1])))
    assert reachability_indices(v) == ((1,), 1)
    w = TransferMatrix.diag([RatFun(Poly([0, 1]), Poly([1, 1])),
                             RatFun(Poly([0, 0, 1]), Poly([1, 0, 1]))])
    assert reachability_indices(w) == ((2, 1), 3)


def test_kernel_module_examples():
    f = TransferMatrix.from_columns([[z(-2), z(-1)]])
    p = right_coprime_fraction(f).den
    assert p == TransferMatrix([[Poly.z(2)]])
    # z^2 stays polynomial under f, z does not
    assert all(e.is_polynomial for e in f.apply([z(2)]))
    assert not all(e.is_polynomial for e in f.apply([z(1)]))

    assert right_coprime_fraction(TransferMatrix.diag([z(-1), z(-1)])).den \
        == TransferMatrix.diag([Poly.z(1), Poly.z(1)])
    assert right_coprime_fraction(TransferMatrix.identity(2)).den == \
        TransferMatrix.identity(2)


def test_fraction_membership_oracle():
    rng = random.Random(62)
    for _ in range(15):
        p, m = rng.randint(1, 2), rng.randint(1, 2)
        v = rand_matrix(rng, p, m, 2)
        frac = right_coprime_fraction(v)
        den_inv = frac.den.inverse()
        for _ in range(7):
            u = rand_poly_vector(rng, m, 4)
            image_poly = all(e.is_polynomial for e in v.apply(u))
            coords = den_inv.apply(u)
            coord_poly = all(e.is_polynomial for e in coords)
            assert image_poly == coord_poly


def test_fraction_soundness_random():
    rng = random.Random(63)
    for _ in range(15):
        p, m = rng.randint(1, 2), rng.randint(1, 2)
        v = rand_matrix(rng, p, m, 2)
        frac = right_coprime_fraction(v)
        assert frac.num * frac.den.inverse() == v
        gc, _, _ = hermite_gcrd(frac.num, frac.den)
        assert is_unimodular(gc)
        assert poly_matrix_det(frac.den).degree == sum(frac.degrees)


def test_reachability_invariance_under_unimodular_postfactor():
    rng = random.Random(64)
    for _ in range(10):
        v = rand_matrix(rng, 2, 2, 2)
        shear = TransferMatrix([[Poly.one(), rand_poly(rng, 2)],
                                [Poly.zero(), Poly.one()]])
        assert is_unimodular(shear)
        assert reachability_indices(v) == reachability_indices(v * shear)


def test_poly_module_contains():
    p1 = TransferMatrix([[Poly.z(1)]])
    p2 = TransferMatrix([[Poly.z(2)]])
    assert poly_module_contains(p1, p2)
    assert not poly_module_contains(p2, p1)


def test_fraction_of_zero_map():
    frac = right_coprime_fraction(TransferMatrix.zero(2, 2))
    assert frac.den == TransferMatrix.identity(2)
    assert frac.degrees == (0, 0)
    assert reachability_indices(TransferMatrix.zero(2, 2)) == ((0, 0), 0)


def _same_fraction_up_to_unimodular(got, ref, v):
    # Two minimal bases of one module differ by a unimodular right
    # factor: den^-1 * den_ref and its inverse are both polynomial.
    assert sorted(got.degrees) == sorted(ref.degrees)
    assert got.degrees == high_coefficient_data(got.den)[0]
    assert got.num == v * got.den
    ratio = got.den.inverse() * ref.den
    poly_entries(ratio)
    poly_entries(ratio.inverse())


def test_fraction_matches_reference_construction():
    # The fraction read off the Krylov basis against the one built by
    # inverting the Hermite GCRD over Q(z) and column-reducing.
    rng = random.Random(65)
    for _ in range(12):
        p, m = rng.randint(1, 3), rng.randint(1, 3)
        v = rand_matrix(rng, p, m, 2)
        _same_fraction_up_to_unimodular(right_coprime_fraction(v),
                                        reference_coprime_fraction(v), v)
    for _ in range(4):
        m = rng.randint(1, 3)
        f, _ = rand_strictly_causal_injective(rng, m, m, max_nu=2, max_deg=1)
        v = vg_representation(f, rand_bicausal(rng, m, 2)).v
        _same_fraction_up_to_unimodular(right_coprime_fraction(v),
                                        reference_coprime_fraction(v), v)


def test_fraction_runs_one_elimination_and_no_inversion(monkeypatch):
    calls = []
    real = polymatrix.krylov_kernel_basis

    def counting(abar, d):
        calls.append((abar, d))
        return real(abar, d)

    def refuse(*args):
        raise RuntimeError("inversion or Hermite elimination called")

    v = rand_matrix(random.Random(66), 3, 2, 2)
    monkeypatch.setattr(polymatrix, "krylov_kernel_basis", counting)
    monkeypatch.setattr(polymatrix, "hermite_gcrd", refuse)
    monkeypatch.setattr(TransferMatrix, "inverse", refuse)
    right_coprime_fraction(v)
    assert len(calls) == 1


_V = TransferMatrix([[RatFun(Poly([1, 1]), Poly([2, 1])), z(-1)],
                     [RatFun.const(2), z(-2)]])


def _realize_files(tmp_path):
    f = tmp_path / "f.json"
    l = tmp_path / "l.json"
    dump_matrix(TransferMatrix([[z(-1), z(-2)], [RatFun.const(0), z(-3)]]),
                str(f))
    dump_matrix(TransferMatrix([[RatFun(Poly([1, 1]), Poly([2, 1])), z(-1)],
                                [RatFun.const(2), RatFun.const(1)]]), str(l))
    return ["--json", "realize", str(f), str(l),
            "--out-dir", str(tmp_path / "out")]


def _corrupt_krylov_basis(monkeypatch, how):
    real = polymatrix.krylov_kernel_basis

    def corrupted(abar, d):
        degrees, k = real(abar, d)
        degrees, cols = list(degrees), [list(c) for c in zip(*k.entries)]
        if how == "entry":
            cols[0][0] = cols[0][0] + Poly.one()
        elif how == "duplicate":
            cols[1], degrees[1] = cols[0], degrees[0]
        elif how == "shifted":  # z * column 0 still lies in the module
            cols[0], degrees[0] = [Poly.z(1) * e for e in cols[0]], \
                degrees[0] + 1
        else:
            degrees[0] += 1
        return degrees, TransferMatrix(zip(*cols))

    monkeypatch.setattr(polymatrix, "krylov_kernel_basis", corrupted)


@pytest.mark.parametrize("entry", ["reachability_indices",
                                   "right_coprime_fraction"])
@pytest.mark.parametrize("how, message", [
    ("entry", "reachability basis leaves the module"),
    ("duplicate", "reachability basis is not column-reduced"),
    ("degree", "reachability basis degrees differ from the Krylov ranks"),
    ("shifted", "reachability basis degrees differ from the Krylov ranks")])
def test_corrupt_krylov_basis_is_caught(tmp_path, capsys, monkeypatch, how,
                                        message, entry):
    _corrupt_krylov_basis(monkeypatch, how)
    with pytest.raises(InternalCheckError, match=message):
        getattr(polymatrix, entry)(_V)
    assert main(_realize_files(tmp_path)) == 3
    assert json.loads(capsys.readouterr().out) == {
        "command": "realize", "error": message}


_SS = StateSpace(a=((0, 1), (0, 0)), b=((0,), (1,)))


def test_corrupt_krylov_basis_reaches_no_feedback_answer(monkeypatch):
    # The callers of the fraction get the basis only through its checks,
    # so a corrupted basis stops them instead of deciding.
    message = "reachability basis leaves the module"
    _corrupt_krylov_basis(monkeypatch, "entry")
    with pytest.raises(InternalCheckError, match=message):
        right_coprime_fraction(TransferMatrix.diag([z(-1), z(-2)])).den
    with pytest.raises(InternalCheckError, match=message):
        static_state_feedback_test(_SS, TransferMatrix.identity(1))


def test_feedback_tests_run_no_gcrd(monkeypatch):
    def refuse(*args):
        raise RuntimeError("Hermite elimination called")

    monkeypatch.setattr(polymatrix, "hermite_gcrd", refuse)
    assert right_coprime_fraction(TransferMatrix.diag([z(-1), z(-2)])).den \
        == TransferMatrix.diag([Poly.z(1), Poly.z(2)])
    assert static_state_feedback_test(_SS, TransferMatrix.identity(1)).gain \
        == ((0, 0),)


def _fraction_indices(v):
    # The reference fraction: Hermite GCRD, inversion over Q(z) and
    # column reduction, with no Krylov elimination.
    frac = reference_coprime_fraction(v)
    return tuple(sorted(frac.degrees, reverse=True)), \
        frac.state_dimension


def _krylov_matches_reference(v):
    # The fraction-free elimination and the elimination over Fractions
    # give the same degrees and the same basis, entry for entry.
    abar, d = polymatrix._over_common_denominator(v)
    assert krylov_kernel_basis(abar, d) == reference_krylov_kernel_basis(abar,
                                                                         d)


def test_krylov_indices_match_coprime_fraction_on_seeded_plants():
    rng = random.Random(67)
    cases = [TransferMatrix.zero(2, 3), TransferMatrix.identity(3)]
    cases += [rand_matrix(rng, rng.randint(1, 3), rng.randint(1, 3), 2)
              for _ in range(15)]
    for m in (1, 2, 3, 3):
        f, _ = rand_strictly_causal_injective(rng, m + rng.randint(0, 1), m,
                                              max_nu=2, max_deg=1)
        cases += [f, vg_representation(f, rand_bicausal(rng, m, 2)).v]
    for v in cases:
        assert reachability_indices(v) == _fraction_indices(v)
        _krylov_matches_reference(v)


def test_realize_runs_no_gcrd_and_no_column_reduction(monkeypatch):
    def refuse(*args):
        raise RuntimeError("Hermite elimination or column reduction run")

    monkeypatch.setattr(polymatrix, "hermite_gcrd", refuse)
    monkeypatch.setattr(properbasis, "column_reduce_at_infinity", refuse)
    f = TransferMatrix([[z(-1), z(-2)], [RatFun.const(0), z(-3)]])
    l = TransferMatrix([[RatFun(Poly([1, 1]), Poly([2, 1])), z(-1)],
                        [RatFun.const(2), RatFun.const(1)]])
    rep = vg_representation(f, l)
    assert rep.sigma == reachability_indices(rep.v)[0] == (2, 0)


polys = st.lists(st.one_of(st.integers(-3, 3).map(Fraction),
                           st.builds(Fraction, st.integers(-5, 5),
                                     st.integers(1, 4))),
                 max_size=3).map(Poly)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_column_reduction_predictable_degree(data):
    # p' = p w with w unimodular, a full-rank high-coefficient matrix, and
    # the sum of column degrees equal to deg det p; a matrix whose last
    # column is a polynomial combination of the others is refused.
    n = data.draw(st.integers(1, 3))
    rows = [[data.draw(polys) for _ in range(n)] for _ in range(n)]
    p = TransferMatrix(rows)
    det = poly_matrix_det(p)
    assume(not det.is_zero)
    reduced, w, w_inv = column_reduce_poly(p)
    assert reduced == p * w
    assert w * w_inv == TransferMatrix.identity(n)
    degrees, high = high_coefficient_data(reduced)
    assert linalg.rank(high) == n
    assert sum(degrees) == det.degree
    qs = [data.draw(polys) for _ in range(n - 1)]
    singular = [row[:-1] + [sum((q * x for q, x in zip(qs, row)), Poly.zero())]
                for row in rows]
    with pytest.raises(ValueError, match="singular"):
        column_reduce_poly(TransferMatrix(singular))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_leading_data_of_a_polynomial_matrix_is_its_high_coefficient_data(
        data):
    # Column-reducedness is properness at infinity: on polynomial columns
    # leading_data reads each order as minus the column degree (inf for a
    # zero column) and each lead as the coefficients at that degree, which
    # right_coprime_fraction's certificate relies on.
    rows, cols = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    entries = st.one_of(st.just(Poly.zero()), polys)
    p = TransferMatrix([[data.draw(entries) for _ in range(cols)]
                        for _ in range(rows)])
    orders, leads = properbasis.leading_data(p.columns())
    degrees, high = high_coefficient_data(p)
    assert orders == [ORD_INF if s < 0 else -s for s in degrees]
    assert leads == high


@st.composite
def shared_den_matrices(draw):
    """p x m maps whose entries share one or two denominators."""
    p, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    dens = draw(st.lists(polys.filter(lambda q: not q.is_zero),
                         min_size=1, max_size=2))
    return TransferMatrix([[RatFun(draw(polys), draw(st.sampled_from(dens)))
                            for _ in range(m)] for _ in range(p)])


@settings(max_examples=80, deadline=None)
@given(st.one_of(shared_den_matrices(),
                 st.integers(1, 3).map(TransferMatrix.identity),
                 st.tuples(st.integers(1, 3), st.integers(1, 3)).map(
                     lambda s: TransferMatrix.zero(*s))))
def test_krylov_indices_match_coprime_fraction(v):
    assert reachability_indices(v) == _fraction_indices(v)
    _krylov_matches_reference(v)




def test_krylov_independence_modulo_the_prime_matches_rank_over_q(
        monkeypatch):
    # On the Krylov degrees the columns are independent; with one degree
    # raised by one they are not, and that shortfall modulo the prime is
    # then confirmed by a rank over Q, which a prime dividing every
    # vector's content forces on the true degrees too.
    rng = random.Random(68)
    cases = [rand_matrix(rng, rng.randint(1, 3), rng.randint(1, 3), 2)
             for _ in range(12)] + [_V, TransferMatrix.identity(2)]
    ranks = []
    monkeypatch.setattr(linalg, "rank",
                        lambda a, rank=linalg.rank: ranks.append(a) or rank(a))
    for v in cases:
        abar, d = polymatrix._over_common_denominator(v)
        degrees, _ = krylov_kernel_basis(abar, d)
        assert polymatrix._krylov_columns_independent(abar, d, degrees)
        assert not ranks
        for j in range(len(degrees)):
            raised = [s + (i == j) for i, s in enumerate(degrees)]
            assert not polymatrix._krylov_columns_independent(abar, d, raised)
            assert len(ranks) == 1
            ranks.clear()
    monkeypatch.setattr(polymatrix, "_PRIME", 2)
    abar, d = polymatrix._over_common_denominator(2 * _V)
    degrees, _ = krylov_kernel_basis(abar, d)
    assert polymatrix._krylov_columns_independent(abar, d, degrees)
    assert len(ranks) == 1
