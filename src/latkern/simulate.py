"""Truncated-series matrices: the convolution simulation harness.

Apart from the exact rational arithmetic, transfer matrices are expanded
into truncated series by integer recurrences and composed by convolution
and recursive series inversion only.  Each entry is expanded in one
integer pass (`RatFun.laurent_ints`) and held as one integer sequence
over one denominator, so neither the expansion nor a product builds a
Fraction; a coefficient matrix over Q is built only when it is read.
Agreement with the exact rational arithmetic on a window is the
acceptance-level consistency test, and the `simulate` CLI subcommand runs
inputs through it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul

from . import linalg
from .rational import ORD_INF
from .transfer import TransferMatrix

DEFAULT_HORIZON = 40
# Expansion is linear in the number of terms per entry, but convolution
# is quadratic, so longer windows are refused before any work starts.
MAX_HORIZON = 1000


def check_horizon(value: int, name: str) -> int:
    """value if it is a usable series length, else ValueError naming name."""
    if value < 1:
        raise ValueError(f"{name} must be positive")
    if value > MAX_HORIZON:
        raise ValueError(f"{name} must be at most {MAX_HORIZON}, got {value}")
    return value


class SeriesMatrix:
    """Matrix-valued truncated Laurent series: coefficient matrices
    indexed start, start+1, ..., horizon.

    Each entry is stored as one integer sequence over one positive integer
    denominator: `_entries[r][c] = (nums, den)` gives the coefficient
    nums[t - start] / den at index t.  The scale is not reduced, so equal
    values may be stored over different denominators, and two series are
    compared by cross-multiplying.  `coeff(t)` builds the Fraction matrix
    at t each time it is read.
    """

    __slots__ = ("start", "horizon", "rows", "cols", "_entries")

    def __init__(self, start: int, coeffs, horizon: int, rows: int, cols: int):
        coeffs = list(coeffs)
        if len(coeffs) != horizon - start + 1:
            raise ValueError("coefficient count does not match window")
        for m in coeffs:
            if len(m) != rows or any(len(row) != cols for row in m):
                raise ValueError(f"coefficient matrix is not {rows} x {cols}")
        self._fill(start, horizon, rows, cols,
                   [[_over_lcm([Fraction(m[r][c]) for m in coeffs])
                     for c in range(cols)] for r in range(rows)])

    @classmethod
    def _make(cls, start: int, horizon: int, rows: int, cols: int,
              entries) -> SeriesMatrix:
        """Trusted constructor: each sequence has horizon - start + 1 ints."""
        self = object.__new__(cls)
        self._fill(start, horizon, rows, cols, entries)
        return self

    def _fill(self, start, horizon, rows, cols, entries):
        for name, value in (("start", start), ("horizon", horizon),
                            ("rows", rows), ("cols", cols),
                            ("_entries", entries)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("SeriesMatrix is immutable")

    @classmethod
    def from_transfer(cls, f: TransferMatrix, horizon: int) -> SeriesMatrix:
        """The expansion of f from min(order, 0) to horizon: each entry is
        the pair `RatFun.laurent_ints` returns, its window over the least
        common denominator, and no Fraction is built."""
        order = f.order()
        start = 0 if order == ORD_INF else min(order, 0)
        return cls._make(start, horizon, f.rows, f.cols,
                         [[e.laurent_ints(start, horizon) for e in row]
                          for row in f.entries])

    def coeff(self, t: int):
        if t > self.horizon:
            raise ValueError(f"index {t} beyond horizon {self.horizon}")
        if t < self.start:
            return linalg.zeros(self.rows, self.cols)
        i = t - self.start
        return tuple(tuple(Fraction(nums[i], den) for nums, den in row)
                     for row in self._entries)

    def __mul__(self, other: SeriesMatrix) -> SeriesMatrix:
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        start = self.start + other.start
        horizon = min(self.horizon + other.start, other.horizon + self.start)
        n = horizon - start + 1
        entries = []
        for arow in self._entries:
            row = []
            for c in range(other.cols):
                # Schoolbook convolution of each pair, truncated to the
                # window, then the sum of the partials over the lcm of
                # their denominators.
                parts = []
                for (a, da), brow in zip(arow, other._entries):
                    b, db = brow[c]
                    parts.append(([sum(map(mul, a[:t + 1], b[t::-1]))
                                   for t in range(n)], da * db))
                den = math.lcm(*(d for _, d in parts))
                acc = [0] * n
                for part, d in parts:
                    s = den // d
                    acc = [x + s * y for x, y in zip(acc, part)]
                row.append((acc, den))
            entries.append(row)
        return SeriesMatrix._make(start, horizon, self.rows, other.cols,
                                  entries)

    def inverse(self) -> SeriesMatrix:
        """Series inverse by the convolution recurrence.

        Requires a square series starting at index 0 with invertible
        constant coefficient (the bicausal case).
        """
        if self.rows != self.cols:
            raise ValueError("series inverse needs a square matrix")
        if self.start < 0 and any(any(nums[:-self.start])
                                  for row in self._entries
                                  for nums, _ in row):
            raise ValueError("series inverse needs a causal series")
        cs = [self.coeff(t) for t in range(self.horizon + 1)]
        inv0 = linalg.invert(cs[0])
        if inv0 is None:
            raise ValueError("constant coefficient is singular")
        n = self.rows
        out = [inv0]
        for k in range(1, self.horizon + 1):
            acc = [[Fraction(0)] * n for _ in range(n)]
            for i in range(1, k + 1):
                a = cs[i]
                b = out[k - i]
                for r in range(n):
                    for c in range(n):
                        acc[r][c] += sum(a[r][kk] * b[kk][c] for kk in range(n))
            out.append(tuple(tuple(-sum(inv0[r][kk] * acc[kk][c]
                                        for kk in range(n))
                                   for c in range(n)) for r in range(n)))
        return SeriesMatrix(0, out, self.horizon, n, n)


def _over_lcm(fracs) -> tuple[list[int], int]:
    """(integers, denominator): the Fractions over the lcm of theirs."""
    den = math.lcm(*(x.denominator for x in fracs))
    return [x.numerator * (den // x.denominator) for x in fracs], den


def simulate_response(f: TransferMatrix, u, horizon: int):
    """Convolve the expansions of f and the input vector u.

    Returns the response as a p x 1 SeriesMatrix up to the horizon; it
    agrees with expanding the exact image f.apply(u) on the common window.
    """
    u = list(u)
    if len(u) != f.cols:
        raise ValueError(f"input has {len(u)} entries but the map has "
                         f"{f.cols} columns")
    fs = SeriesMatrix.from_transfer(f, horizon)
    orders = [e.order() for e in u if not e.is_zero]
    ustart = min(orders) if orders else 0
    # Per index, on Fractions: laurent_ints here took series 34 -> 132
    # ops/s but peak_rss_mb +63%, since the benchmark keeps every
    # operation's stdout (ROADMAP item 1).
    ucoeffs = [[[e.laurent_coeff(t)] for e in u]
               for t in range(min(ustart, 0), horizon + 1)]
    us = SeriesMatrix(min(ustart, 0), ucoeffs, horizon, len(u), 1)
    return fs * us
