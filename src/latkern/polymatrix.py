"""Polynomial matrices over K[z]: right coprime fractions and reachability
indices from one Krylov elimination, products compared on a window of
Laurent coefficients by numerator degrees, and the Hermite GCRD, kept as a
reference.

A right coprime fraction v = N * P^-1 with P column-reduced exposes the
reachability structure of a rational map: the column degrees of P are its
reachability indices and deg det P the minimal state dimension.  P
generates the module M of polynomial inputs with polynomial response, and
any column-reduced basis of M is such a P.

With v = abar / d, M = {u : abar * u = 0 mod d}.  Its minimal basis is
read off one incremental elimination on the Krylov columns
z^i * abar * e_j mod d, whose ranks are the controllability indices of
multiplication by z on (Q[z]/d)^p with input abar.  It runs fraction-free
on integer multiples of those columns and builds Fractions only for the
basis P, which polynomial products certify; N = abar * P / d is the
quotient of the division that shows P lies in M.  No determinant is
computed and no matrix is inverted over Q(z).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .rational import Poly, RatFun, poly_lcm
from .transfer import InternalCheckError, TransferMatrix


class PolyMatrix:
    """Rectangular grid of Poly entries; immutable."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        rows = tuple(tuple(_poly(x) for x in row) for row in entries)
        if not rows or not rows[0]:
            raise ValueError("matrix must have at least one row and column")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValueError("ragged matrix")
        object.__setattr__(self, "entries", rows)

    def __setattr__(self, name, value):
        raise AttributeError("PolyMatrix is immutable")

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])

    @classmethod
    def identity(cls, n: int) -> PolyMatrix:
        return cls([[Poly.one() if i == j else Poly.zero() for j in range(n)]
                    for i in range(n)])

    @classmethod
    def scalar_diag(cls, d: Poly, n: int) -> PolyMatrix:
        return cls([[d if i == j else Poly.zero() for j in range(n)]
                    for i in range(n)])

    def to_transfer(self) -> TransferMatrix:
        return TransferMatrix([[RatFun(e) for e in row] for row in self.entries])

    def entry(self, i: int, j: int) -> Poly:
        return self.entries[i][j]

    def column_degree(self, j: int) -> int:
        """Maximum entry degree in column j; -1 for a zero column."""
        return max(e.degree for e in (row[j] for row in self.entries))

    def column_degrees(self) -> tuple[int, ...]:
        return tuple(self.column_degree(j) for j in range(self.cols))

    def high_coefficient_matrix(self):
        """Coefficient of z^(column degree) entrywise, per column."""
        degs = self.column_degrees()
        return tuple(tuple(row[j].coeff(degs[j]) if degs[j] >= 0 else Fraction(0)
                           for j in range(self.cols))
                     for row in self.entries)

    def __mul__(self, other: PolyMatrix) -> PolyMatrix:
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        n = self.cols
        return PolyMatrix(
            [[sum((self.entries[i][k] * other.entries[k][j] for k in range(n)),
                  Poly.zero())
              for j in range(other.cols)] for i in range(self.rows)])

    def __eq__(self, other) -> bool:
        return isinstance(other, PolyMatrix) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __str__(self) -> str:
        return "[" + "; ".join(", ".join(str(e) for e in row)
                               for row in self.entries) + "]"

    def __repr__(self) -> str:
        return f"PolyMatrix({self.rows}x{self.cols})"


def _poly(x) -> Poly:
    if isinstance(x, Poly):
        return x
    if isinstance(x, (int, Fraction)):
        return Poly.const(x)
    raise TypeError(f"not a polynomial entry: {x!r}")


def hermite_gcrd(a: PolyMatrix, b: PolyMatrix):
    """Greatest common right divisor of (a, b) with unimodular certificate.

    Returns (r, u, u_inv) with u * [a; b] = [r; 0] and r in Hermite form:
    upper triangular, monic diagonal, entries above each pivot of lower
    degree.  Requires the stacked matrix to have full column rank.  Pivot
    at each step is the minimum-degree nonzero entry (ties: lowest row),
    reduced by polynomial division until the column is cleared.  u and
    u_inv are replayed from the record of row operations, and
    u * u_inv == I certifies that u is unimodular.

    No routine of the package calls it: right_coprime_fraction reads its
    fraction off the Krylov basis.  It stays as the reference GCRD of the
    tests' coprime-fraction oracle and as a public name that the
    benchmark's span tracer (perfbench/spantrace.py) resolves.
    """
    if a.cols != b.cols:
        raise ValueError("stacked matrices need matching column counts")
    c = a.cols
    work = [list(row) for row in a.entries] + [list(row) for row in b.entries]
    nrows = len(work)
    if nrows < c:
        raise ValueError("stacked matrix cannot have full column rank")
    ops = linalg.RowOps(nrows, Poly.one(), work)
    for col in range(c):
        while True:
            nz = [i for i in range(col, nrows) if not work[i][col].is_zero]
            if not nz:
                raise ValueError("stacked matrix is column rank deficient")
            piv = min(nz, key=lambda i: (work[i][col].degree, i))
            ops.swap(col, piv)
            others = [i for i in range(col + 1, nrows)
                      if not work[i][col].is_zero]
            if not others:
                break
            for i in others:
                ops.add(i, col, -(work[i][col] // work[col][col]))
        lead = work[col][col].lead
        if lead != 1:
            ops.scale(col, 1 / lead)
        for i in range(col)[::-1]:
            if work[i][col].degree >= work[col][col].degree:
                ops.add(i, col, -(work[i][col] // work[col][col]))

    r = PolyMatrix([work[i][:c] for i in range(c)])
    if any(not work[i][j].is_zero for i in range(c, nrows) for j in range(c)):
        raise InternalCheckError("elimination left residue below the divisor")
    u, u_inv = PolyMatrix(ops.transform()), PolyMatrix(ops.inverse())
    if u * u_inv != PolyMatrix.identity(nrows):
        raise InternalCheckError("row transformation is not unimodular")
    return r, u, u_inv


def _over_common_denominator(v: TransferMatrix):
    """(abar, d): v = abar / d with d the monic lcm of the entry
    denominators and abar polynomial."""
    d = Poly.one()
    for row in v.entries:
        for e in row:
            d = poly_lcm(d, e.den)
    return (PolyMatrix([[e.num * (d // e.den) for e in row]
                        for row in v.entries]), d)


def product_agrees_on_window(a: TransferMatrix, b: TransferMatrix,
                             c: TransferMatrix, horizon: int) -> bool:
    """Whether a * b and c have equal Laurent coefficients at z^-t for
    every t <= horizon, decided on numerators with no series expanded.

    With a = A / da, b = B / db and c = C / dc over monic denominators,
    a * b - c = X / (da db dc) for X = (A B) dc - C (da db), and an entry
    x != 0 of X starts at z^-(deg(da db dc) - deg x).
    """
    if (a.rows, b.cols) != (c.rows, c.cols):
        return False
    (na, da), (nb, db), (nc, dc) = map(_over_common_denominator, (a, b, c))
    dab = da * db
    bound = dab.degree + dc.degree - horizon
    return all((x := ab * dc - ce * dab).is_zero or x.degree < bound
               for ab_row, c_row in zip((na * nb).entries, nc.entries)
               for ab, ce in zip(ab_row, c_row))


@dataclass(frozen=True)
class CoprimeFraction:
    """v = num * den^-1 with right coprime factors and column-reduced den.

    den is a minimal basis of the polynomial inputs u with v * u
    polynomial.  column_degrees are its column degrees, in column order:
    the reachability indices of v, summing to deg det den.
    """

    num: PolyMatrix
    den: PolyMatrix
    column_degrees: tuple

    @property
    def state_dimension(self) -> int:
        return sum(self.column_degrees)


def right_coprime_fraction(v: TransferMatrix) -> CoprimeFraction:
    """Right coprime fraction of a rational matrix, from one elimination.

    With v = abar / d, den is the basis k of M = {u : abar * u = 0 mod d}
    that krylov_kernel_basis reads off exact ranks over Q, and num the
    quotient of abar * k by d.  Three checks certify k: zero remainders
    (k lies in M, and num = v * den), a high-coefficient matrix of rank m
    (k is column-reduced), and column degrees equal to the Krylov ranks.
    A column-reduced k in M with those degrees spans, in each degree, as
    much of M as the ranks count, so it generates M.  That is right
    coprimeness: a common right divisor r of num and den leaves den * r^-1
    in M, so r^-1 is polynomial.
    """
    abar, d = _over_common_denominator(v)
    degrees, k = krylov_kernel_basis(abar, d)
    quotients = [[divmod(e, d) for e in row] for row in (abar * k).entries]
    if any(not r.is_zero for row in quotients for _, r in row):
        raise InternalCheckError("reachability basis leaves the module")
    if linalg.rank(k.high_coefficient_matrix()) != v.cols:
        raise InternalCheckError("reachability basis is not column-reduced")
    if k.column_degrees() != tuple(degrees):
        raise InternalCheckError("reachability basis degrees differ from "
                                 "the Krylov ranks")
    num = PolyMatrix([[q for q, _ in row] for row in quotients])
    return CoprimeFraction(num, k, tuple(degrees))


def krylov_kernel_basis(abar: PolyMatrix, d: Poly):
    """Minimal basis of M = {u in Q[z]^m : abar * u = 0 mod d}; uncertified.

    Returns (degrees, k) with k an m x m PolyMatrix whose column j lies in
    M and has degree degrees[j].  The columns z^i * abar * e_j mod d, as
    vectors over Q of p * deg d coefficients, enter one incremental
    elimination i by i.  Once z^i * abar * e_j depends on the columns
    before it, so does every later power of z on e_j (multiply the
    dependence by z), and column j leaves with degrees[j] = i; the
    dependence, read as polynomials, is column j of k, with a unit
    coefficient on z^i e_j.  The degrees are the controllability indices
    of multiplication by z on (Q[z]/d)^p with input abar, and by the
    predictable-degree property the column degrees of any minimal basis
    of M (Kailath 1980, sections 6.3-6.4).

    The elimination is fraction-free (Bareiss 1968).  With d = D / D[n]
    for D primitive, each column is carried as an integer vector R, a
    known rational multiple s of it, and z * R mod d is D[n] * shift(R) -
    R[top] * D[:n].  A reduction x <- w[piv] * x - x[piv] * w works on the
    vector and, alongside, on its integer coordinates over the carried
    vectors, and divides both by their common content.  Every vector is a
    scalar multiple of the one an elimination over Q would hold, so the
    pivots and the dependencies are the same, and the coordinates of a
    dependent column in the independent ones, being unique, give the same
    k; Fractions are built only for k.
    """
    n = d.degree
    dp, lead = d.int_coeffs()  # d is monic: d = dp / lead, dp primitive
    tail = dp[:n]
    m = abar.cols
    residues = {}  # j -> (R, s): R = s * (z^i abar e_j mod d)
    for j in range(m):
        rs = [(row[j] % d).int_coeffs() for row in abar.entries]
        den = math.lcm(*(rd for _, rd in rs))
        vec = []
        for ints, rd in rs:
            vec += [x * (den // rd) for x in ints] + [0] * (n - len(ints))
        residues[j] = _without_content(vec, Fraction(den))
    basis = []  # (pivot, vector, {label: integer coordinate})
    scales = {}  # label (i, j) -> s of the vector R it stands for
    degrees, kernel = [0] * m, [None] * m
    i = 0
    while residues:
        for j in list(residues):
            x, s = residues[j]
            comb = {(i, j): 1}  # x = sum comb[label] * R(label)
            for piv, w, wcomb in basis:
                a = x[piv]
                if a:
                    b = w[piv]
                    x = [b * xe - a * we for xe, we in zip(x, w)]
                    comb = {label: b * comb.get(label, 0)
                            - a * wcomb.get(label, 0)
                            for label in comb.keys() | wcomb.keys()}
                    g = math.gcd(*x, *comb.values())
                    if g != 1:
                        x = [xe // g for xe in x]
                        comb = {label: c // g for label, c in comb.items()}
            piv = next((t for t, xe in enumerate(x) if xe), None)
            if piv is not None:
                basis.append((piv, x, comb))
                scales[i, j] = s
                continue
            # sum comb[label] * s(label) * column(label) = 0
            alpha = comb.pop((i, j)) * s
            coeffs = [[Fraction(0)] * (i + 1) for _ in range(m)]
            coeffs[j][i] = Fraction(1)
            for (ii, jj), c in comb.items():
                coeffs[jj][ii] = c * scales[ii, jj] / alpha
            degrees[j], kernel[j] = i, [Poly(c) for c in coeffs]
            del residues[j]
        for j, (vec, s) in residues.items():
            shifted = []
            for b in range(0, len(vec), n):
                top = vec[b + n - 1]
                shifted += [lead * (vec[b + t - 1] if t else 0) - top * tail[t]
                            for t in range(n)]
            residues[j] = _without_content(shifted, s * lead)
        i += 1
    return degrees, PolyMatrix(zip(*kernel))


def _without_content(vec: list, s: Fraction):
    """(vec / g, s / g) for g the content of the integer list vec; s / g
    is then the scale of the result when s was that of vec."""
    g = math.gcd(*vec)
    if g > 1:
        return [x // g for x in vec], s / g
    return vec, s


def reachability_indices(v: TransferMatrix):
    """(indices sorted nonincreasing, minimal state dimension): the column
    degrees of the certified right_coprime_fraction(v)."""
    frac = right_coprime_fraction(v)
    return (tuple(sorted(frac.column_degrees, reverse=True)),
            frac.state_dimension)


def polynomial_kernel_module(f: TransferMatrix) -> PolyMatrix:
    """Generator P of the polynomial inputs with polynomial image under f.

    A polynomial u has f*u polynomial exactly when P^-1 u is polynomial.
    Requires f injective.
    """
    if f.rank() != f.cols:
        raise ValueError("polynomial kernel module needs an injective map")
    return right_coprime_fraction(f).den


def poly_module_contains(p1: PolyMatrix, p2: PolyMatrix) -> bool:
    """Whether p2's polynomial column module sits inside p1's."""
    ratio = p1.to_transfer().inverse() * p2.to_transfer()
    return all(e.is_polynomial for row in ratio.entries for e in row)
