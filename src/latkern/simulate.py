"""Truncated-series matrices: the convolution simulation harness.

This is the independent cross-check path: transfer matrices are expanded
entrywise, each entry in one pass, into coefficient matrices and composed
by convolution and recursive series inversion only.  Agreement with the
exact rational arithmetic on a window is the acceptance-level consistency
test, and the `simulate` CLI subcommand runs inputs through it.  The
`realize` subcommand checks l = (I + g f)^-1 v by the product
(I + g f) l = v, not by inverting a series.
"""

from __future__ import annotations

import os
from fractions import Fraction

from . import linalg
from .rational import ORD_INF
from .transfer import TransferMatrix

DEFAULT_HORIZON = 40
HORIZON_ENV = "LATKERN_HORIZON"
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


def verification_horizon() -> int:
    raw = os.environ.get(HORIZON_ENV)
    if raw is None:
        return DEFAULT_HORIZON
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{HORIZON_ENV} must be an integer, got {raw!r}")
    return check_horizon(value, HORIZON_ENV)


class SeriesMatrix:
    """Matrix-valued truncated Laurent series: coefficient matrices
    indexed start, start+1, ..., horizon."""

    __slots__ = ("start", "horizon", "coeffs", "rows", "cols")

    def __init__(self, start: int, coeffs, horizon: int, rows: int, cols: int):
        coeffs = [tuple(tuple(Fraction(c) for c in row) for row in m)
                  for m in coeffs]
        if len(coeffs) != horizon - start + 1:
            raise ValueError("coefficient count does not match window")
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "horizon", horizon)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)

    def __setattr__(self, name, value):
        raise AttributeError("SeriesMatrix is immutable")

    @classmethod
    def from_transfer(cls, f: TransferMatrix, horizon: int) -> SeriesMatrix:
        order = f.order()
        start = 0 if order == ORD_INF else min(order, 0)
        windows = [[e.laurent_window(start, horizon) for e in row]
                   for row in f.entries]
        coeffs = [tuple(tuple(w[k] for w in row) for row in windows)
                  for k in range(horizon - start + 1)]
        return cls(start, coeffs, horizon, f.rows, f.cols)

    def coeff(self, t: int):
        if t > self.horizon:
            raise ValueError(f"index {t} beyond horizon {self.horizon}")
        if t < self.start:
            return linalg.zeros(self.rows, self.cols)
        return self.coeffs[t - self.start]

    def __mul__(self, other: SeriesMatrix) -> SeriesMatrix:
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        start = self.start + other.start
        horizon = min(self.horizon + other.start, other.horizon + self.start)
        out = []
        for t in range(start, horizon + 1):
            acc = [[Fraction(0)] * other.cols for _ in range(self.rows)]
            for i in range(self.start, t - other.start + 1):
                a = self.coeff(i)
                b = other.coeff(t - i)
                for r in range(self.rows):
                    arow = a[r]
                    accr = acc[r]
                    for c in range(other.cols):
                        accr[c] += sum(arow[k] * b[k][c]
                                       for k in range(self.cols))
            out.append(acc)
        return SeriesMatrix(start, out, horizon, self.rows, other.cols)

    def inverse(self) -> SeriesMatrix:
        """Series inverse by the convolution recurrence.

        Requires a square series starting at index 0 with invertible
        constant coefficient (the bicausal case).
        """
        if self.rows != self.cols:
            raise ValueError("series inverse needs a square matrix")
        if self.start < 0 and any(c for m in self.coeffs[:-self.start]
                                  for row in m for c in row):
            raise ValueError("series inverse needs a causal series")
        m0 = self.coeff(0)
        inv0 = linalg.invert(m0)
        if inv0 is None:
            raise ValueError("constant coefficient is singular")
        n = self.rows
        out = [inv0]
        for k in range(1, self.horizon + 1):
            acc = [[Fraction(0)] * n for _ in range(n)]
            for i in range(1, k + 1):
                a = self.coeff(i)
                b = out[k - i]
                for r in range(n):
                    for c in range(n):
                        acc[r][c] += sum(a[r][kk] * b[kk][c] for kk in range(n))
            out.append(tuple(tuple(-sum(inv0[r][kk] * acc[kk][c]
                                        for kk in range(n))
                                   for c in range(n)) for r in range(n)))
        return SeriesMatrix(0, out, self.horizon, n, n)

    def agrees_with(self, other: SeriesMatrix) -> bool:
        """Coefficientwise equality on the common window."""
        start = min(self.start, other.start)
        horizon = min(self.horizon, other.horizon)
        return all(self.coeff(t) == other.coeff(t)
                   for t in range(start, horizon + 1))


def simulate_response(f: TransferMatrix, u, horizon: int):
    """Convolve the expansions of f and the input vector u.

    Returns the response as a p x 1 SeriesMatrix up to the horizon; it
    agrees with expanding the exact image f.apply(u) on the common window.
    """
    u = list(u)
    fs = SeriesMatrix.from_transfer(f, horizon)
    orders = [e.order() for e in u if not e.is_zero]
    ustart = min(orders) if orders else 0
    # Per index: perfbench's peak_rss_mb rises with series throughput.
    ucoeffs = [[[e.laurent_coeff(t)] for e in u]
               for t in range(min(ustart, 0), horizon + 1)]
    us = SeriesMatrix(min(ustart, 0), ucoeffs, horizon, len(u), 1)
    return fs * us
