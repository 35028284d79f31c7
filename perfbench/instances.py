"""Seeded instance generators owned by the benchmark.

These are deliberately independent of the test suite's generators, so a
change to the tests cannot change what the benchmark measures.  Instances
are built with the library's own exact arithmetic; the structure of each
instance (shape, degrees, shift orders, which branch a decision should
take) is fixed by the caller, and only the coefficients come from the
seed.  That keeps the mix of work the same from seed to seed and from
round to round.
"""

from __future__ import annotations

import random
from fractions import Fraction

from latkern import linalg
from latkern.rational import Poly, RatFun
from latkern.transfer import TransferMatrix


def rand_fraction(rng: random.Random, span: int = 5) -> Fraction:
    """Nonzero a/b with |a|, b <= span; never zero, so sparsity is fixed."""
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, span),
                    rng.randint(1, span))


def rand_poly(rng: random.Random, deg: int) -> Poly:
    """Dense polynomial of exact degree deg."""
    return Poly([rand_fraction(rng) for _ in range(deg + 1)])


def rand_matrix(rng, p: int, m: int, max_deg: int, offset: int = 0):
    """p x m map whose entry degrees run through 0..max_deg in a fixed
    pattern (shifted by offset), so orders of both signs occur and every
    seed gets the same degrees."""
    n = max_deg + 1
    rows = []
    for i in range(p):
        row = []
        for j in range(m):
            k = i * m + j + offset
            row.append(RatFun(rand_poly(rng, k % n),
                              rand_poly(rng, (2 * k + 3) % n)))
        rows.append(row)
    return TransferMatrix(rows)


def rand_causal(rng, p: int, m: int, deg: int) -> TransferMatrix:
    """Causal map whose entries have numerator and denominator of degree deg."""
    return TransferMatrix([[RatFun(rand_poly(rng, deg), rand_poly(rng, deg))
                            for _ in range(m)] for _ in range(p)])


def rand_bicausal(rng, n: int, deg: int) -> TransferMatrix:
    """Invertible constant term plus a dense strictly causal tail.

    Entries are polynomials of degree deg in z^-1, written as
    (c z^deg + ...)/z^deg.
    """
    while True:
        const = [[rand_fraction(rng) for _ in range(n)] for _ in range(n)]
        if linalg.invert(linalg.mat(const)) is not None:
            break
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            tail = [rand_fraction(rng) for _ in range(deg)]
            row.append(RatFun(Poly(list(reversed(tail)) + [const[i][j]]),
                              Poly.z(deg)))
        rows.append(row)
    return TransferMatrix(rows)


def injective_plant(rng, p: int, m: int, sigma, deg: int):
    """Strictly causal injective p x m plant b1 * diag(z^-sigma) * b2.

    Returns the plant and its latency indices sigma_i - 1, nonincreasing.
    """
    b1 = rand_bicausal(rng, p, deg)
    b2 = rand_bicausal(rng, m, deg)
    delta = TransferMatrix([[RatFun.zpow(-sigma[j]) if i == j else 0
                             for j in range(m)] for i in range(p)])
    return b1 * delta * b2, sorted((s - 1 for s in sigma), reverse=True)


def rand_input(rng, m: int, max_deg: int, offset: int = 0) -> TransferMatrix:
    """Column vector of rational inputs (possibly non-causal)."""
    return rand_matrix(rng, m, 1, max_deg, offset)
