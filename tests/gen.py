"""Seeded random generators for test instances."""

from __future__ import annotations

import dataclasses
import random
from fractions import Fraction

from hypothesis import strategies as st

from latkern import linalg
from latkern.rational import Poly, RatFun
from latkern.transfer import TransferMatrix


# Hypothesis strategy for exact coefficients: zero, small integers and
# fractions with large numerators.
rationals = st.one_of(
    st.just(Fraction(0)),
    st.integers(-9, 9).map(Fraction),
    st.builds(Fraction, st.integers(-10**9, 10**9), st.integers(1, 10**4)))


def rand_fraction(rng: random.Random, span: int = 5) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, span))


def rand_poly(rng: random.Random, max_deg: int, nonzero=False) -> Poly:
    deg = rng.randint(0, max_deg)
    coeffs = [rand_fraction(rng) for _ in range(deg + 1)]
    p = Poly(coeffs)
    if nonzero and p.is_zero:
        return Poly([Fraction(rng.randint(1, 5))] + coeffs[1:])
    return p


def rand_ratfun(rng: random.Random, max_deg: int = 6, nonzero=False) -> RatFun:
    num = rand_poly(rng, max_deg, nonzero=nonzero)
    den = rand_poly(rng, max_deg, nonzero=True)
    return RatFun(num, den)


def rand_matrix(rng: random.Random, p: int, m: int, max_deg: int = 3) -> TransferMatrix:
    return TransferMatrix([[rand_ratfun(rng, max_deg) for _ in range(m)]
                           for _ in range(p)])


def rand_nonzero_matrix(rng, p, m, max_deg=3) -> TransferMatrix:
    while True:
        f = rand_matrix(rng, p, m, max_deg)
        if not f.is_zero:
            return f


def rand_full_rank_matrix(rng, p, m, max_deg=3) -> TransferMatrix:
    while True:
        f = rand_matrix(rng, p, m, max_deg)
        if f.rank() == min(p, m):
            return f


def rand_bicausal(rng: random.Random, n: int, max_deg: int = 3) -> TransferMatrix:
    """Invertible constant term plus a strictly causal tail of entry degree
    <= max_deg (denominators are powers of z)."""
    while True:
        const = [[rand_fraction(rng) for _ in range(n)] for _ in range(n)]
        if linalg.invert(linalg.mat(const)) is not None:
            break
    return _with_causal_tail(rng, const, max_deg)


def rand_causal(rng: random.Random, p: int, m: int,
                max_deg: int = 3) -> TransferMatrix:
    """Random constant term plus a strictly causal tail, as rand_bicausal
    but p x m and with no invertibility requirement."""
    const = [[rand_fraction(rng) for _ in range(m)] for _ in range(p)]
    return _with_causal_tail(rng, const, max_deg)


def _with_causal_tail(rng, const, max_deg):
    entries = []
    for const_row in const:
        row = []
        for c in const_row:
            tail = [rand_fraction(rng) if rng.random() < 0.6 else Fraction(0)
                    for _ in range(max_deg)]
            # c + tail[0] z^-1 + ... as (c*z^d + ...)/z^d
            coeffs = list(reversed(tail)) + [c]
            row.append(RatFun(Poly(coeffs), Poly.z(max_deg)))
        entries.append(row)
    return TransferMatrix(entries)


def rand_strictly_causal_injective(rng: random.Random, p: int, m: int,
                                   max_nu: int = 3, max_deg: int = 2):
    """Strictly causal injective map with latency indices <= max_nu.

    Built as b1 * diag(z^-s) * b2 with bicausal factors and shift orders
    s_i in [1, max_nu + 1]; the latency indices of the result are
    s_i - 1 <= max_nu.
    """
    assert p >= m
    sigma = sorted(rng.randint(1, max_nu + 1) for _ in range(m))
    b1 = rand_bicausal(rng, p, max_deg)
    b2 = rand_bicausal(rng, m, max_deg)
    delta = [[RatFun.zpow(-sigma[j]) if i == j else RatFun.const(0)
              for j in range(m)] for i in range(p)]
    return b1 * TransferMatrix(delta) * b2, tuple(sorted((s - 1 for s in sigma),
                                                         reverse=True))


def corrupt_entry(m: TransferMatrix) -> TransferMatrix:
    """m with its top-right entry raised by 1, for corruption tests."""
    rows = [list(row) for row in m.entries]
    rows[0][-1] = rows[0][-1] + 1
    return TransferMatrix(rows)


def move_out_of_kernel(k):
    """The latency kernel k with generator column 0 times z, for corruption
    tests: f sends that column to order -1, so it leaves the kernel, while
    the carried inverse and the Smith form stay as they were."""
    cols = k.generator.columns()
    cols[0] = [RatFun.zpow(1) * e for e in cols[0]]
    return dataclasses.replace(k, generator=TransferMatrix.from_columns(cols))


def rand_state_pair(rng: random.Random, n: int, m: int):
    """Random (A, B) with B of full column rank."""
    a = tuple(tuple(Fraction(rng.randint(-2, 2)) for _ in range(n))
              for _ in range(n))
    while True:
        b = tuple(tuple(Fraction(rng.randint(-2, 2)) for _ in range(m))
                  for _ in range(n))
        if linalg.rank(b) == m:
            return a, b


def rand_poly_vector(rng: random.Random, m: int, max_deg: int = 4):
    return [RatFun(rand_poly(rng, max_deg)) for _ in range(m)]
