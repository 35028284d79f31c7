"""Poly as content times primitive integer part, and its gcd.

Every operation is compared with the plain Fraction-list references in
oracles.py; the gcd is also compared between its two integer algorithms
(GCDHEU and the primitive remainder sequence) and, where installed, with
sympy.
"""

import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latkern import rational
from latkern.cli import main
from latkern.matrixio import dump_matrix, matrix_from_json, matrix_to_json
from latkern.rational import Poly, RatFun, poly_gcd
from latkern.transfer import TransferMatrix
from gen import rand_causal, rand_strictly_causal_injective
from oracles import (poly_add_ref, poly_divmod_ref, poly_gcd_ref,
                     poly_mul_ref)

coeff = st.one_of(
    st.just(Fraction(0)),
    st.integers(-9, 9).map(Fraction),
    st.builds(Fraction, st.integers(-10**12, 10**12), st.integers(1, 10**6)))
coeffs = st.lists(coeff, max_size=8)
nonzero_coeffs = coeffs.filter(lambda cs: any(cs))
scalar = st.builds(Fraction, st.integers(-10**6, 10**6).filter(bool),
                   st.integers(1, 10**4))

props = settings(max_examples=150, deadline=None)


def ref(cs):
    return list(Poly(cs).coeffs)


def assert_canonical(p: Poly):
    if p.is_zero:
        assert p._p == () and (p._n, p._d) == (0, 1)
        return
    assert all(isinstance(x, int) for x in p._p)
    assert p._p[-1] > 0
    assert math.gcd(*p._p) == 1
    assert isinstance(p._n, int) and isinstance(p._d, int)
    assert p._n != 0 and p._d > 0 and math.gcd(p._n, p._d) == 1


@props
@given(coeffs, coeffs)
def test_ring_operations_match_reference(a, b):
    pa, pb = Poly(a), Poly(b)
    for p in (pa + pb, pa - pb, pa * pb, -pa):
        assert_canonical(p)
    assert list((pa + pb).coeffs) == poly_add_ref(a, b)
    assert list((pa - pb).coeffs) == poly_add_ref(a, [-x for x in b])
    assert list((pa * pb).coeffs) == poly_mul_ref(a, b)


@props
@given(coeffs, nonzero_coeffs)
def test_divmod_matches_reference(a, b):
    pa, pb = Poly(a), Poly(b)
    q, r = divmod(pa, pb)
    assert_canonical(q)
    assert_canonical(r)
    assert q * pb + r == pa
    assert r.degree < pb.degree
    assert (list(q.coeffs), list(r.coeffs)) == poly_divmod_ref(a, b)
    assert pa // pb == q and pa % pb == r


@props
@given(nonzero_coeffs)
def test_monic_matches_reference(a):
    m = Poly(a).monic()
    assert_canonical(m)
    assert m.is_monic and m.lead == 1
    assert list(m.coeffs) == [c / ref(a)[-1] for c in ref(a)]


@props
@given(coeffs, scalar)
def test_canonical_form_is_unique(a, s):
    p = Poly(a)
    assert_canonical(p)
    assert Poly(p.coeffs) == p
    # the same value reached through a scaled copy has equal fields
    same = Poly([c * s for c in a]) * (1 / s)
    assert (same._n, same._d, same._p) == (p._n, p._d, p._p)
    assert same == p and hash(same) == hash(p)
    assert p.degree == len(ref(a)) - 1
    assert all(p.coeff(i) == c for i, c in enumerate(ref(a)))


@props
@given(coeffs, nonzero_coeffs)
def test_json_round_trip(a, b):
    e = RatFun(Poly(a), Poly(b))
    m = TransferMatrix([[e, RatFun(Poly(b), Poly(a) or Poly.one())]])
    text = json.dumps(matrix_to_json(m))
    back = matrix_from_json(json.loads(text))
    assert back == m
    assert json.dumps(matrix_to_json(back)) == text


@props
@given(nonzero_coeffs, nonzero_coeffs, nonzero_coeffs, scalar, scalar)
def test_heuristic_gcd_agrees_with_prs(a, b, common, sa, sb):
    # planted common factor, contents that are not units, and the plain
    # (mostly coprime) pair
    pc = Poly(common)
    pairs = [(Poly(a), Poly(b)), (Poly(a) * pc * sa, Poly(b) * pc * sb)]
    for x, y in pairs:
        g = poly_gcd(x, y)
        assert list(g.coeffs) == poly_gcd_ref(x.coeffs, y.coeffs)
        if x.degree > 0 and y.degree > 0:
            heu = rational._heu_gcd(x._p, y._p)
            assert heu is None or heu[0] == rational._prs_gcd(x._p, y._p)
    assert poly_gcd(*pairs[1]) % pc.monic() == Poly.zero()


def test_retry_and_fallback(monkeypatch):
    # f = z - 15 and g = z + 1 are coprime.  At the first evaluation point,
    # xi = 31, f(31) = 16 and g(31) = 32 share 16, whose symmetric digits
    # read back as z - 15 itself.  That candidate does not divide g, so the
    # answer needs a second point, or the remainder sequence when only one
    # point is allowed.
    f, g = (-15, 1), (1, 1)
    assert rational._heu_gcd(f, g) == ((1,), f, g)
    monkeypatch.setattr(rational, "HEU_GCD_MAX", 1)
    assert rational._heu_gcd(f, g) is None
    assert poly_gcd(Poly(f), Poly(g)) == Poly.one()
    assert poly_gcd(Poly(f) * Poly(g), Poly(g) * Poly(g)) == Poly(g)


def test_first_point_respects_the_bound():
    # gcd(z^2 - z - 2, z^2 - 2z) = z - 2.  At xi = 4, below the bound
    # 2 min(|f|, |g|) + 2 = 6, the values 10 and 8 share only 2, a constant
    # that divides everything, so the answer would be 1.
    f, g = (-2, -1, 1), (0, -2, 1)
    assert rational._heu_gcd(f, g) == ((-2, 1), (1, 1), (0, 1))
    assert poly_gcd(Poly(f), Poly(g)) == Poly((-2, 1))


@props
@given(nonzero_coeffs, nonzero_coeffs, nonzero_coeffs)
def test_fallback_alone_is_exact(a, b, common):
    pc = Poly(common)
    x, y = Poly(a) * pc, Poly(b) * pc
    expect = poly_gcd(x, y)
    saved = rational.HEU_GCD_MAX
    rational.HEU_GCD_MAX = 0
    try:
        assert poly_gcd(x, y) == expect
        assert list(expect.coeffs) == poly_gcd_ref(x.coeffs, y.coeffs)
    finally:
        rational.HEU_GCD_MAX = saved


@props
@given(nonzero_coeffs, nonzero_coeffs, nonzero_coeffs)
def test_gcd_matches_sympy(a, b, common):
    sympy = pytest.importorskip("sympy")
    z = sympy.Symbol("z")
    pc = Poly(common)
    for x, y in [(Poly(a), Poly(b)), (Poly(a) * pc, Poly(b) * pc)]:
        sx = sympy.Poly(list(reversed(x.coeffs)) or [0], z, domain="QQ")
        sy = sympy.Poly(list(reversed(y.coeffs)) or [0], z, domain="QQ")
        expect = sympy.gcd(sx, sy).monic()
        got = poly_gcd(x, y)
        assert [Fraction(int(c.p), int(c.q))
                for c in reversed(expect.all_coeffs())] == list(got.coeffs)


def _ratfun(num, den, factor):
    """RatFun from coefficient lists, with `factor` planted in both."""
    return RatFun(Poly(num) * factor, Poly(den) * factor)


def _ratfun_ref(num, den):
    """RatFun(num, den) from Fraction reference coefficient lists."""
    return RatFun(Poly(num), Poly(den))


@props
@given(coeffs, nonzero_coeffs, nonzero_coeffs, nonzero_coeffs, scalar)
def test_every_result_is_canonical(a, b, c, common, s):
    pa, pb, pc = Poly(a), Poly(b), Poly(common)
    polys = [pa, pa + pb, pa - pb, pa * pb, pa * s, pa * 3, -pa,
             pb.monic(), pb.shift(2), *divmod(pa * pc, pb)]
    x = _ratfun(a, b, pc)
    y = _ratfun(c, common, Poly(b))
    ratfuns = [x, y, x + y, x - y, x * y, y.inverse(), (x - y) + y]
    if not x.is_zero:
        ratfuns += [y / x, x.inverse()]
    for r in ratfuns:
        assert r.den.is_monic
        polys += [r.num, r.den]
    for p in polys:
        assert_canonical(p)


def _check_cofactors(x: tuple, y: tuple):
    """_gcd_cofactors on x and y by GCDHEU, then by the remainder-sequence
    fallback alone: the cofactors rebuild x and y, and the gcd is
    primitive with a positive lead and agrees with the reference."""
    expect = poly_gcd_ref(x, y)
    saved = rational.HEU_GCD_MAX
    try:
        for heu_max in (saved, 0):
            rational.HEU_GCD_MAX = heu_max
            g, ca, cb = rational._gcd_cofactors(x, y)
            if heu_max == 0:
                assert rational._heu_gcd(x, y) is None
            assert poly_mul_ref(g, ca) == list(x)
            assert poly_mul_ref(g, cb) == list(y)
            assert g[-1] > 0 and math.gcd(*g) == 1
            assert [Fraction(c, g[-1]) for c in g] == expect
    finally:
        rational.HEU_GCD_MAX = saved


@props
@given(nonzero_coeffs, nonzero_coeffs, nonzero_coeffs)
def test_gcd_cofactors_rebuild_their_inputs(a, b, common):
    pc = Poly(common)
    _check_cofactors((Poly(a) * pc)._p, (Poly(b) * pc)._p)


@props
@given(nonzero_coeffs, nonzero_coeffs, nonzero_coeffs,
       st.integers(0, 4), st.integers(0, 4))
def test_gcd_cofactors_split_powers_of_z(a, b, common, va, vb):
    # z^va x c and z^vb y c, then pure monomials, and pairs that are equal
    # or constant once their powers of z are split off
    pc = Poly(common)
    x, y = Poly(a) * pc, Poly(b) * pc
    za, zb = Poly.z(va), Poly.z(vb)
    pairs = [(za * x, zb * y), (za, zb * y), (za * x, zb), (za, zb),
             (za * x, zb * x), (za * pc, pc)]
    for u, w in pairs:
        _check_cofactors(u._p, w._p)


def test_no_gcd_runs_on_a_multiple_of_z(monkeypatch, tmp_path):
    # Delays make most gcd operands on the kernel path multiples of z;
    # _gcd_cofactors splits the powers of z off before either algorithm.
    calls = []

    def refuse(run):
        def guarded(f, g):
            if not (f[0] and g[0]):
                raise AssertionError(f"gcd of a multiple of z: {f}, {g}")
            calls.append(run.__name__)
            return run(f, g)
        return guarded

    monkeypatch.setattr(rational, "_heu_gcd", refuse(rational._heu_gcd))
    monkeypatch.setattr(rational, "_prs_gcd", refuse(rational._prs_gcd))
    rng = random.Random(14)
    f, _ = rand_strictly_causal_injective(rng, 3, 3)
    h = rand_causal(rng, 3, 3, 1) * f
    fp, hp = str(tmp_path / "f.json"), str(tmp_path / "h.json")
    dump_matrix(f, fp)
    dump_matrix(h, hp)
    assert main(["--json", "factor", fp, hp]) == 0
    assert calls


@props
@given(coeffs, nonzero_coeffs, coeffs, nonzero_coeffs, nonzero_coeffs)
def test_ratfun_operations_match_reference(an, ad, bn, bd, common):
    # The planted factors give the product its cross-cancellations and the
    # sum a shared denominator factor; in the last pair, x + y cancels it.
    pc = Poly(common)
    x = _ratfun(an, ad, pc)
    pairs = [(x, _ratfun(bn, bd, Poly(ad))),
             (x, RatFun(Poly(bn), Poly(bd) * Poly(ad))),
             (x, RatFun(Poly(bn), Poly(bd)) - x)]
    for x, y in pairs:
        xn, xd, yn, yd = x.num.coeffs, x.den.coeffs, y.num.coeffs, y.den.coeffs
        neg_yn = [-c for c in yn]
        assert x + y == _ratfun_ref(
            poly_add_ref(poly_mul_ref(xn, yd), poly_mul_ref(yn, xd)),
            poly_mul_ref(xd, yd))
        assert x - y == _ratfun_ref(
            poly_add_ref(poly_mul_ref(xn, yd), poly_mul_ref(neg_yn, xd)),
            poly_mul_ref(xd, yd))
        assert x * y == _ratfun_ref(poly_mul_ref(xn, yn), poly_mul_ref(xd, yd))
        if not y.is_zero:
            assert x / y == _ratfun_ref(poly_mul_ref(xn, yd),
                                        poly_mul_ref(xd, yn))
