"""Convolution harness: agreement with exact arithmetic on windows."""

import random

import pytest

from latkern.rational import Poly, RatFun
from latkern.simulate import (MAX_HORIZON, SeriesMatrix, simulate_response,
                              verification_horizon)
from latkern.transfer import TransferMatrix

from gen import rand_bicausal, rand_matrix, rand_ratfun

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
