"""Convolution harness: agreement with exact arithmetic on windows."""

import random
from fractions import Fraction

import pytest

from latkern.rational import Poly, RatFun
from latkern.simulate import (MAX_HORIZON, SeriesMatrix, simulate_response,
                              verification_horizon)
from latkern.transfer import TransferMatrix

from gen import rand_bicausal, rand_matrix, rand_ratfun
from oracles import expansion_oracle

z = RatFun.zpow


def test_simulate_matches_apply_and_expand():
    rng = random.Random(81)
    horizon = 15
    for _ in range(50):
        p, m = rng.randint(1, 3), rng.randint(1, 3)
        f = rand_matrix(rng, p, m, 2)
        u = [rand_ratfun(rng, 2) for _ in range(m)]
        series = simulate_response(f, u, horizon)
        exact = f.apply(u)
        valid = series.horizon
        for i, e in enumerate(exact):
            for t in range(series.start, valid + 1):
                assert series.coeff(t)[i][0] == e.laurent_coeff(t)


def _mixed_matrix():
    """A zero entry, a negative-order entry, and an entry of order 50."""
    return TransferMatrix([
        [RatFun.const(0), RatFun(Poly([1, 0, 2, 3]), Poly([-1, 1])), z(-50)],
        [RatFun(Poly([2]), Poly([Fraction(1, 2), 0, 1])), z(-3),
         RatFun(Poly([1, 1]), Poly([3, 1]))],
    ])


@pytest.mark.parametrize("horizon", [1, 40])
def test_from_transfer_window_matches_oracle(horizon):
    rng = random.Random(83)
    cases = [_mixed_matrix(), TransferMatrix.zero(2, 2)]
    cases += [rand_matrix(rng, 2, 3, 4) for _ in range(5)]
    for f in cases:
        s = SeriesMatrix.from_transfer(f, horizon)
        assert s.start == (0 if f.is_zero else min(f.order(), 0))
        oracle = [[expansion_oracle(e, horizon) for e in row]
                  for row in f.entries]
        for t in range(s.start, horizon + 1):
            assert s.coeff(t) == f.markov(t)
            assert s.coeff(t) == tuple(tuple(d.get(t, 0) for d in row)
                                       for row in oracle)


def test_from_transfer_window_matches_sympy_series():
    sympy = pytest.importorskip("sympy")
    w = sympy.Symbol("w")
    horizon = 12
    rng = random.Random(84)
    for f in [_mixed_matrix()] + [rand_matrix(rng, 2, 2, 3)
                                  for _ in range(3)]:
        s = SeriesMatrix.from_transfer(f, horizon)
        for i, row in enumerate(f.entries):
            for j, e in enumerate(row):
                # z^-t is w^t: expand the entry as a Laurent series in w.
                num = sum(sympy.Rational(c) * w**-k
                          for k, c in enumerate(e.num.coeffs))
                den = sum(sympy.Rational(c) * w**-k
                          for k, c in enumerate(e.den.coeffs))
                ser = sympy.series(num / den, w, 0, horizon + 1).removeO()
                ser = sympy.expand(ser)
                for t in range(s.start, horizon + 1):
                    assert s.coeff(t)[i][j] == Fraction(str(ser.coeff(w, t)))


def test_series_product_window():
    f = TransferMatrix.scalar(z(-1))
    g = TransferMatrix.scalar(RatFun(Poly([1]), Poly([-1, 1])))
    sf = SeriesMatrix.from_transfer(f, 10)
    sg = SeriesMatrix.from_transfer(g, 10)
    prod = sf * sg
    exact = SeriesMatrix.from_transfer(f * g, prod.horizon)
    assert prod.agrees_with(exact)


def test_series_inverse_matches_exact_inverse():
    rng = random.Random(82)
    for _ in range(10):
        b = rand_bicausal(rng, 2, 2)
        sb = SeriesMatrix.from_transfer(b, 12)
        inv = sb.inverse()
        exact = SeriesMatrix.from_transfer(b.inverse(), 12)
        assert inv.agrees_with(exact)


def test_series_inverse_rejects_singular_constant():
    s = SeriesMatrix.from_transfer(TransferMatrix.scalar(z(-1)), 5)
    with pytest.raises(ValueError):
        s.inverse()


def test_verification_horizon_env(monkeypatch):
    monkeypatch.delenv("LATKERN_HORIZON", raising=False)
    assert verification_horizon() == 40
    monkeypatch.setenv("LATKERN_HORIZON", "17")
    assert verification_horizon() == 17
    monkeypatch.setenv("LATKERN_HORIZON", "zero")
    with pytest.raises(ValueError):
        verification_horizon()
    monkeypatch.setenv("LATKERN_HORIZON", "-3")
    with pytest.raises(ValueError):
        verification_horizon()
    monkeypatch.setenv("LATKERN_HORIZON", str(MAX_HORIZON))
    assert verification_horizon() == MAX_HORIZON
    monkeypatch.setenv("LATKERN_HORIZON", str(MAX_HORIZON + 1))
    with pytest.raises(ValueError, match=f"at most {MAX_HORIZON}"):
        verification_horizon()
