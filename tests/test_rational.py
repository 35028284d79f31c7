"""Scalar arithmetic: orders, leading coefficients, expansion, truncations."""

import importlib.util
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latkern.rational import (ORD_INF, Poly, RatFun, _add_parts, _mul_parts,
                              _parts)
from latkern.simulate import _over_lcm
from latkern.transfer import TransferMatrix
from oracles import add_dicts, convolve_dicts, expansion_oracle, poly_gcd_ref

from gen import rand_poly, rand_ratfun, rationals

z = RatFun.zpow


def test_order_examples():
    assert RatFun(Poly([1, 1]), Poly.z(3)).order() == 2
    assert RatFun.const(0).order() == ORD_INF
    assert RatFun(Poly([1, 0, 1])).order() == -2


def test_leading_coeff_examples():
    assert RatFun(Poly([1, 1]), Poly.z(3)).leading_coeff() == 1
    # frozen from the long-division oracle: first term of 3/(2z-2) is (3/2) z^-1
    assert expansion_oracle(RatFun(Poly([3]), Poly([-2, 2])), 1) == {1: Fraction(3, 2)}
    assert RatFun(Poly([3]), Poly([-2, 2])).leading_coeff() == Fraction(3, 2)
    assert RatFun(Poly([0, -1])).leading_coeff() == -1


def test_leading_coeff_of_zero_rejected():
    with pytest.raises(ValueError, match="zero"):
        RatFun.const(0).leading_coeff()


def test_expand_examples():
    geo = RatFun(Poly([1]), Poly([-1, 1]))
    assert geo.order() == 1 and geo.laurent_window(1, 3) == [1, 1, 1]

    poly = RatFun(Poly([2, 1]))
    assert poly.order() == -1
    assert poly.laurent_coeff(-1) == 1 and poly.laurent_coeff(0) == 2
    assert all(poly.laurent_coeff(t) == 0 for t in range(1, 6))

    # frozen from the synthetic-division oracle
    assert expansion_oracle(RatFun(Poly([1]), Poly([0, -1, 1])), 4) == \
        {2: 1, 3: 1, 4: 1}
    s = RatFun(Poly([1]), Poly([0, -1, 1]))
    assert s.order() == 2 and s.laurent_window(2, 4) == [1, 1, 1]


def test_split_examples():
    r = RatFun(Poly([1, 2, 1]), Poly([0, 1]))  # z + 2 + z^-1
    plus, minus = r.split()
    assert plus == Poly([2, 1])
    assert minus == RatFun(Poly([1, 2]), Poly([0, 1]))  # 2 + z^-1

    plus, minus = RatFun(Poly([1]), Poly([-1, 1])).split()
    assert plus.is_zero and minus == RatFun(Poly([1]), Poly([-1, 1]))

    plus, minus = RatFun(Poly.z(2)).split()
    assert plus == Poly.z(2) and minus.is_zero


def test_field_op_examples():
    assert z(-1) * z(-1) == z(-2)
    assert z(-1) + (-z(-1)) == RatFun.const(0)
    gm1 = RatFun(Poly([-1, 1]))
    assert RatFun(Poly([1]), Poly([-1, 1])) * gm1 == RatFun.const(1)
    with pytest.raises(ZeroDivisionError):
        RatFun.const(1) / RatFun.const(0)


def test_valuation_laws_random():
    rng = random.Random(12)
    for _ in range(200):
        a = rand_ratfun(rng, 6, nonzero=True)
        b = rand_ratfun(rng, 6, nonzero=True)
        assert (a * b).order() == a.order() + b.order()
        s = a + b
        if not s.is_zero:
            assert s.order() >= min(a.order(), b.order())


def test_expand_is_ring_morphism_on_windows():
    rng = random.Random(13)
    horizon = 15
    for _ in range(100):
        a = rand_ratfun(rng, 5, nonzero=True)
        b = rand_ratfun(rng, 5, nonzero=True)
        da = expansion_oracle(a, horizon)
        db = expansion_oracle(b, horizon)
        valid = min(horizon + a.order(), horizon + b.order(), horizon)
        conv = convolve_dicts(da, db, valid)
        lo = a.order() + b.order()
        assert (a * b).laurent_window(lo, valid) == \
            [conv.get(t, Fraction(0)) for t in range(lo, valid + 1)]
        tot = a + b
        sd = add_dicts(da, db)
        if not tot.is_zero:
            lo = min(a.order(), b.order())
            assert tot.laurent_window(lo, horizon) == \
                [sd.get(t, Fraction(0)) for t in range(lo, horizon + 1)]
        else:
            assert not sd


@settings(max_examples=150, deadline=None)
@given(st.lists(rationals, max_size=7),
       st.lists(rationals, min_size=1, max_size=7),
       st.integers(-8, 8), st.integers(0, 12), st.booleans())
def test_laurent_window_matches_long_division(num, den, start, length, built):
    if not any(den):
        den = den[:-1] + [Fraction(1)]
    r = RatFun(Poly(num), Poly(den))
    if built:
        # Coefficients cached beforehand give the same window.
        r.num.coeffs, r.den.coeffs
    horizon = start + length
    oracle = expansion_oracle(r, horizon)
    assert r.laurent_window(start, horizon) == [
        oracle.get(t, Fraction(0)) for t in range(start, horizon + 1)]
    assert r.laurent_coeff(horizon) == oracle.get(horizon, Fraction(0))


@settings(max_examples=200, deadline=None)
@given(st.lists(rationals, max_size=7),
       st.lists(rationals, min_size=1, max_size=7),
       st.integers(-10, 8), st.integers(-2, 14))
def test_laurent_ints_is_the_window_over_its_lcm(num, den, start, length):
    # Covers the zero function, improper entries (order < 0), windows
    # starting before or after the order, horizons before the order and
    # empty windows (length < 0).
    if not any(den):
        den = den[:-1] + [Fraction(1)]
    r = RatFun(Poly(num), Poly(den))
    horizon = start + length
    assert r.laurent_ints(start, horizon) == _over_lcm(
        r.laurent_window(start, horizon))


def test_laurent_ints_with_a_highly_composite_lead():
    lead = 2**20 * 3**10 * 5**8
    for num, den in [(Poly([7, -3, 1]), Poly([1, 6, -2, lead])),
                     (Poly([1, 0, 0, 0, 0, 9]), Poly([3, 0, lead])),
                     (Poly([5, lead]), Poly([lead - 1, 12, lead]))]:
        r = RatFun(num, den)
        for start, horizon in [(-4, 30), (r.order(), 40), (9, 25)]:
            assert r.laurent_ints(start, horizon) == _over_lcm(
                r.laurent_window(start, horizon))


def test_laurent_ints_on_the_realize_loop_at_m4():
    # The entries of a realization's I + g f on the benchmark's 4 x 4
    # plant family, whose leads have hundreds of bits.  realize no longer
    # expands them; they stay as a hard input.
    from latkern.feedback import vg_representation
    from latkern.transfer import TransferMatrix
    instances = _perfbench_module("instances")
    rng = random.Random(12)
    f, _ = instances.injective_plant(rng, 4, 4, (1, 2, 3, 4), 1)
    rep = vg_representation(f, instances.rand_bicausal(rng, 4, 2))
    loop = TransferMatrix.identity(4) + rep.g * f
    for row in loop.entries:
        for e in row:
            assert e.laurent_ints(0, 40) == _over_lcm(e.laurent_window(0, 40))


def _perfbench_module(name):
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_laurent_coeff_at_the_order_reads_two_coefficients():
    r = RatFun(Poly([1, 2, 3, 4, 5]), Poly([7, 1, 1, 1, 1, 1, 1, 2]))
    assert r.laurent_coeff(r.order()) == Fraction(5, 2)
    # No Fraction list was built for num or den.
    assert r.num._coeffs is None and r.den._coeffs is None


def test_split_reconstruction_random():
    rng = random.Random(14)
    for _ in range(200):
        r = rand_ratfun(rng, 6)
        plus, minus = r.split()
        c = r.laurent_coeff(0)
        assert RatFun(plus) + minus == r + RatFun.const(c)


def test_canonical_form_idempotent():
    rng = random.Random(15)
    for _ in range(100):
        r = rand_ratfun(rng, 6)
        again = RatFun(r.num, r.den)
        assert again.num == r.num and again.den == r.den
        assert r.den.lead == 1


def test_canonical_equality_is_value_equality():
    a = RatFun(Poly([2, 2]), Poly([0, 2]))  # (2z+2)/2z
    b = RatFun(Poly([1, 1]), Poly([0, 1]))
    assert a == b and hash(a) == hash(b)


def test_truncated_series_normalization():
    # a window from before the order is zero-padded up to it
    s = RatFun(Poly([2, 1]), Poly.z(3))  # z^-2 + 2 z^-3
    assert s.laurent_window(0, 3) == [0, 0, 1, 2]
    assert s.order() == 2 and s.laurent_window(2, 3) == [1, 2]
    assert s.laurent_window(3, 2) == []
    assert RatFun.const(0).laurent_window(0, 2) == [0, 0, 0]


def test_expand_respects_horizon_precondition():
    # a horizon that ends before the order reads all zeros
    assert RatFun(Poly([1]), Poly.z(5)).laurent_window(0, 2) == [0, 0, 0]
    assert RatFun(Poly([1]), Poly.z(5)).laurent_window(0, 5)[-1] == 1


def naive_add(a, b):
    return RatFun(a.num * b.den + b.num * a.den, a.den * b.den)


def naive_mul(a, b):
    return RatFun(a.num * b.num, a.den * b.den)


def naive_gcd(a, b):
    while not b.is_zero:
        a, b = b, a % b
    return a.monic() if not a.is_zero else a


def test_reduced_arithmetic_matches_naive():
    # the fast paths (lcm addition, cross-cancelling product, integer
    # remainder-sequence gcd) must be indistinguishable from the schoolbook
    # operations on canonical forms
    from latkern.rational import poly_gcd
    rng = random.Random(16)
    for _ in range(300):
        a = rand_ratfun(rng, 5)
        b = rand_ratfun(rng, 5)
        assert a + b == naive_add(a, b)
        assert a - b == naive_add(a, RatFun(-b.num, b.den))
        assert a * b == naive_mul(a, b)
        if not b.is_zero:
            assert a / b == naive_mul(a, b.inverse())
        assert poly_gcd(a.num, b.num) == naive_gcd(a.num, b.num)
    # structured denominators sharing factors
    for _ in range(100):
        common = rand_poly(rng, 2, nonzero=True)
        a = RatFun(rand_poly(rng, 3), common * rand_poly(rng, 2, nonzero=True))
        b = RatFun(rand_poly(rng, 3), common * rand_poly(rng, 2, nonzero=True))
        s = a + b
        assert s == naive_add(a, b)
        assert poly_gcd(s.num, s.den).degree == 0 or s.is_zero
        p = a * b
        assert p == naive_mul(a, b)
        assert p.is_zero or (poly_gcd(p.num, p.den).degree == 0
                             and p.den.lead == 1)


# 2^20 3^10 5^8: a lead with many small prime factors makes the content
# gcds and the cross-cancellations of the parts form nontrivial.
COMPOSITE = 2**20 * 3**10 * 5**8
small_polys = st.lists(rationals, max_size=4).map(Poly)
composite_leads = st.lists(st.integers(-9, 9), max_size=3).map(
    lambda c: Poly(c + [COMPOSITE]))
nonzero_rationals = rationals.filter(bool)
# General, constant, c z^k and composite-lead denominators; a shared one
# is drawn per example.
parts_dens = st.one_of(
    small_polys.filter(bool),
    nonzero_rationals.map(lambda c: Poly([c])),
    st.builds(lambda k, c: Poly.z(k) * c, st.integers(1, 4),
              nonzero_rationals),
    composite_leads)
parts_nums = st.one_of(small_polys, composite_leads)
signs = st.sampled_from([1, -1, Fraction(-3, 7)])


@st.composite
def parts_entries(draw, shared: Poly):
    """A RatFun over a general, shared, constant or c z^k denominator, or
    one with a highly composite lead; the numerator may be zero, have a
    composite lead, or carry a negative content."""
    den = shared if draw(st.booleans()) else draw(parts_dens)
    return RatFun(draw(parts_nums) * draw(signs), den)


def _assert_parts(parts, num: Poly, den: Poly):
    """parts = (n, d, p, q) is num / den in the form of the parts helpers:
    p and q coprime primitive, q with a positive lead, d > 0."""
    n, d, p, q = parts
    assert d > 0 and q[-1] > 0 and math.gcd(*q) == 1
    if p:
        assert p[-1] > 0 and math.gcd(*p) == 1
        assert len(poly_gcd_ref(p, q)) == 1
    assert Poly(p) * n * den == num * Poly(q) * d


def _assert_canonical_of(r: RatFun, num: Poly, den: Poly):
    """r is the canonical form of num / den, checked without RatFun's
    own reduction, and equal to RatFun(num, den)."""
    assert r.num * den == num * r.den
    assert r.den.lead == 1
    assert len(poly_gcd_ref(r.num.coeffs, r.den.coeffs)) == 1
    assert r == RatFun(num, den)


def _unreduced_dot(xs, ys):
    """(num, den) of sum x * y, over the product of every denominator."""
    num, den = Poly.zero(), Poly.one()
    for x, y in zip(xs, ys):
        tn, td = x.num * y.num, x.den * y.den
        num, den = num * td + tn * den, den * td
    return num, den


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_parts_arithmetic_matches_unreduced_polys(data):
    shared = data.draw(small_polys.filter(bool))
    x, y, w, v = (data.draw(parts_entries(shared)) for _ in range(4))
    px, py = _parts(x.num, x.den), _parts(y.num, y.den)
    _assert_parts(px, x.num, x.den)
    if y:  # the divisor's pair: a numerator as denominator, any sign
        _assert_parts(_parts(y.den, y.num), y.den, y.num)
        _assert_canonical_of(x / y, x.num * y.den, x.den * y.num)
    _assert_parts(_mul_parts(px, py), x.num * y.num, x.den * y.den)
    _assert_parts(_add_parts(px, py), x.num * y.den + y.num * x.den,
                  x.den * y.den)
    _assert_parts(_add_parts(px, _parts(-x.num, x.den)), Poly.zero(), x.den)
    _assert_canonical_of(x + y, x.num * y.den + y.num * x.den, x.den * y.den)
    _assert_canonical_of(x - y, x.num * y.den - y.num * x.den, x.den * y.den)
    _assert_canonical_of(x * y, x.num * y.num, x.den * y.den)
    # Row 0 cancels to zero after two terms and then adds w * v; row 1
    # cancels to zero at its end; row 2 is dense.
    a = TransferMatrix([[x, -x, w], [x, -x, 0], [w, y, x]])
    b = TransferMatrix([[y, v], [y, w], [v, y]])
    ab = a * b
    for i, row in enumerate(a.entries):
        for j, col in enumerate(zip(*b.entries)):
            _assert_canonical_of(ab.entry(i, j), *_unreduced_dot(row, col))
    for r, row in zip(a.apply(b.column(0)), a.entries):
        _assert_canonical_of(r, *_unreduced_dot(row, b.column(0)))
