"""Matrices of rational functions as linear maps over the Laurent field.

A TransferMatrix is the computational stand-in for a time-invariant linear
map between extended signal spaces.  This module supplies its Markov
coefficients, order, the causality classification, exact inversion, and
the static/strictly-causal decomposition.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .linalg import _echelon, _kernel_vector
from .rational import (ORD_INF, Poly, RatFun, _add_parts, _gcd_cofactors,
                       _int_mul, _mul_parts, _over_monic, _parts, _primitive)


class InternalCheckError(AssertionError):
    """A certified identity failed; indicates a bug, not bad input."""


class SingularMatrixError(ValueError):
    """Raised when inverting a singular matrix; carries a kernel vector."""

    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"singular matrix; kernel vector {_fmt_vec(witness)}")


def _fmt_vec(v) -> str:
    return "(" + ", ".join(str(x) for x in v) + ")"


def _entry(x) -> RatFun:
    if isinstance(x, RatFun):
        return x
    if isinstance(x, Poly):  # a polynomial over 1 is canonical as it is
        return RatFun._raw(x, Poly.one())
    if isinstance(x, (int, Fraction)):
        return RatFun.const(x)
    raise TypeError(f"not a matrix entry: {x!r}")


@dataclass(frozen=True)
class CausalityReport:
    map_order: object  # int or ORD_INF
    causal: bool
    strictly_causal: bool
    order_consistent: bool
    instantaneous: bool
    nonlatent: bool
    bicausal: bool

    def as_dict(self) -> dict:
        return {
            "map_order": "inf" if self.map_order == ORD_INF else self.map_order,
            "causal": self.causal,
            "strictly_causal": self.strictly_causal,
            "order_consistent": self.order_consistent,
            "instantaneous": self.instantaneous,
            "nonlatent": self.nonlatent,
            "bicausal": self.bicausal,
        }


class TransferMatrix:
    """Rectangular grid of RatFun entries; immutable."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        rows = tuple(tuple(_entry(x) for x in row) for row in entries)
        if not rows or not rows[0]:
            raise ValueError("matrix must have at least one row and column")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValueError("ragged matrix")
        object.__setattr__(self, "entries", rows)

    def __setattr__(self, name, value):
        raise AttributeError("TransferMatrix is immutable")

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    @classmethod
    def identity(cls, n: int) -> TransferMatrix:
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zero(cls, p: int, m: int) -> TransferMatrix:
        return cls([[0] * m for _ in range(p)])

    @classmethod
    def diag(cls, scalars) -> TransferMatrix:
        scalars = list(scalars)
        n = len(scalars)
        return cls([[scalars[i] if i == j else 0 for j in range(n)]
                    for i in range(n)])

    @classmethod
    def scalar(cls, r) -> TransferMatrix:
        return cls([[r]])

    @classmethod
    def from_constant(cls, a) -> TransferMatrix:
        return cls([[RatFun.const(c) for c in row] for row in a])

    @classmethod
    def from_columns(cls, columns) -> TransferMatrix:
        cols = [list(c) for c in columns]
        n = len(cols[0])
        if any(len(c) != n for c in cols):
            raise ValueError("ragged column list")
        return cls([[cols[j][i] for j in range(len(cols))] for i in range(n)])

    def entry(self, i: int, j: int) -> RatFun:
        return self.entries[i][j]

    def column(self, j: int) -> tuple[RatFun, ...]:
        return tuple(row[j] for row in self.entries)

    def columns(self):
        return [self.column(j) for j in range(self.cols)]

    def transpose(self) -> TransferMatrix:
        return TransferMatrix([[self.entries[i][j] for i in range(self.rows)]
                               for j in range(self.cols)])

    def _entrywise(self, other: TransferMatrix, op) -> TransferMatrix:
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("dimension mismatch")
        return TransferMatrix([[op(a, b) for a, b in zip(r1, r2)]
                               for r1, r2 in zip(self.entries, other.entries)])

    def __add__(self, other: TransferMatrix) -> TransferMatrix:
        return self._entrywise(other, operator.add)

    def __sub__(self, other: TransferMatrix) -> TransferMatrix:
        return self._entrywise(other, operator.sub)

    def __neg__(self) -> TransferMatrix:
        return TransferMatrix([[-a for a in row] for row in self.entries])

    def __mul__(self, other):
        if isinstance(other, TransferMatrix):
            if self.cols != other.rows:
                raise ValueError("dimension mismatch")
            cols = list(zip(*other.entries))
            return TransferMatrix([[_dot(row, col) for col in cols]
                                   for row in self.entries])
        other = _entry(other)
        return TransferMatrix([[a * other for a in row] for row in self.entries])

    def __rmul__(self, other):
        other = _entry(other)
        return TransferMatrix([[other * a for a in row] for row in self.entries])

    def __eq__(self, other) -> bool:
        return (isinstance(other, TransferMatrix)
                and self.entries == other.entries)

    def __hash__(self):
        return hash(self.entries)

    def apply(self, u) -> tuple[RatFun, ...]:
        """Exact image of the input vector u (length = cols)."""
        u = [_entry(x) for x in u]
        if len(u) != self.cols:
            raise ValueError(f"input length {len(u)} != {self.cols} columns")
        return tuple(_dot(row, u) for row in self.entries)

    @property
    def is_zero(self) -> bool:
        return all(e.is_zero for row in self.entries for e in row)

    def order(self):
        """Minimum entry order; ORD_INF for the zero matrix."""
        orders = [e.order() for row in self.entries for e in row
                  if not e.is_zero]
        return min(orders) if orders else ORD_INF

    def markov(self, k: int):
        """Constant coefficient matrix of z^-k in the entrywise expansion."""
        return tuple(tuple(e.laurent_coeff(k) for e in row)
                     for row in self.entries)

    def classify(self) -> CausalityReport:
        k0 = self.order()
        if k0 == ORD_INF:
            # Zero map: the order-consistency identity holds vacuously.
            return CausalityReport(ORD_INF, True, True, True, False, False, False)
        causal = k0 >= 0
        strictly = k0 >= 1
        lead = self.markov(k0)
        consistent = linalg.rank(lead) == self.cols
        bicausal = (self.is_square and causal
                    and linalg.rank(self.markov(0)) == self.rows)
        return CausalityReport(
            map_order=k0,
            causal=causal,
            strictly_causal=strictly,
            order_consistent=consistent,
            instantaneous=consistent and k0 == 0,
            nonlatent=consistent and k0 == 1,
            bicausal=bicausal,
        )

    def rank(self) -> int:
        """Rank over the rational function field."""
        work = [list(row) for row in self.entries]
        return len(_echelon(work, weight=_total_degree))

    def inverse(self) -> TransferMatrix:
        """Exact inverse; raises SingularMatrixError with a kernel witness."""
        if not self.is_square:
            raise ValueError("inverse of a nonsquare matrix")
        n = self.rows
        work = [list(row) + [RatFun.const(1 if i == j else 0) for j in range(n)]
                for i, row in enumerate(self.entries)]
        pivots = _echelon(work, n, _total_degree)
        if len(pivots) < n:
            raise SingularMatrixError(
                _kernel_vector(work, pivots, n, RatFun.const(1)))
        return TransferMatrix([row[n:] for row in work])

    def static_strict_split(self):
        """(A0, strictly causal remainder); requires a causal matrix."""
        report = self.classify()
        if not report.causal:
            raise ValueError("static/strict split of a non-causal matrix")
        a0 = self.markov(0)
        rest = self - TransferMatrix.from_constant(a0)
        return a0, rest

    def __str__(self) -> str:
        return "[" + "; ".join(", ".join(str(e) for e in row)
                               for row in self.entries) + "]"

    def __repr__(self) -> str:
        return f"TransferMatrix({self.rows}x{self.cols})"


def _dot(xs, ys) -> RatFun:
    """sum x * y over a pair of sequences of canonical RatFun.

    A pair with a zero factor adds nothing, so it costs nothing: Smith
    factors, b1^-1 and identity targets are sparse.  The other pairs are
    grouped by their two denominators.  A pair alone is one `_mul_parts`;
    a larger group is one `_shared_sum`, as in the rows of an inverse,
    whose entries share a denominator.  The group sums stay in the parts
    form of `rational._add_parts`, each in lowest terms, are folded by it,
    and the canonical RatFun is built once, at the end.
    """
    groups = {}
    for x, y in zip(xs, ys):
        if x.num._p and y.num._p:
            groups.setdefault((x.den._p, y.den._p), []).append((x, y))
    acc = None
    for (qx, qy), pairs in groups.items():
        if len(pairs) == 1:
            (x, y), = pairs
            term = _mul_parts(_parts(x.num, x.den), _parts(y.num, y.den))
        else:
            term = _shared_sum(pairs, qx, qy)
        acc = term if acc is None else _add_parts(acc, term)
    return _ZERO if acc is None else RatFun._raw(*_over_monic(*acc))


def _shared_sum(pairs, qx: tuple, qy: tuple) -> tuple:
    """sum x * y over pairs whose denominators have the primitive parts qx
    and qy, in parts form.

    The denominators are monic, so 1 / (x.den * y.den) = qx[-1] qy[-1] /
    (qx qy).  The products of the numerators are summed unreduced over the
    lcm of their contents' denominators, and one gcd against qx qy brings
    the sum to lowest terms; a sum that cancels is the zero of the parts
    form.
    """
    terms = [(x.num._n * y.num._n, x.num._d * y.num._d,
              _int_mul(x.num._p, y.num._p)) for x, y in pairs]
    den = math.lcm(*(d for _, d, _ in terms))
    out = [0] * max(len(p) for _, _, p in terms)
    for n, d, p in terms:
        s = n * (den // d)
        for i, v in enumerate(p):
            out[i] += s * v
    c, p = _primitive(out)
    if not p:
        return 0, 1, (), (1,)
    _, p, q = _gcd_cofactors(p, _int_mul(qx, qy))
    return c * qx[-1] * qy[-1], den, p, q


_ZERO = RatFun.const(0)


def _total_degree(r: RatFun) -> int:
    return r.num.degree + r.den.degree
