"""Polynomial matrices over K[z]: right coprime fractions and reachability
indices from one Krylov elimination, and the Hermite GCRD, kept as a
reference.

A polynomial matrix is a TransferMatrix whose entries are polynomials.
It is column-reduced exactly when its columns are properly independent in
K((z^-1)): each column degree is minus the column order, and the
high-coefficient matrix is the leading matrix of properbasis.leading_data.

A right coprime fraction v = N * P^-1 with P column-reduced exposes the
reachability structure of a rational map: the column degrees of P are its
reachability indices and deg det P the minimal state dimension.  P
generates the module M of polynomial inputs with polynomial response, and
any column-reduced basis of M is such a P.

With v = abar / d, M = {u : abar * u = 0 mod d}.  Its minimal basis P is
read off one fraction-free elimination on the Krylov columns
z^i * abar * e_j mod d, and N = abar * P / d.  No determinant is computed
and no matrix is inverted over Q(z).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .properbasis import leading_data
from .rational import Poly, poly_lcm
from .transfer import InternalCheckError, TransferMatrix


def hermite_gcrd(a: TransferMatrix, b: TransferMatrix):
    """Greatest common right divisor of the polynomial matrices (a, b),
    with unimodular certificate.

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
    work = [[e.num for e in row] for row in a.entries + b.entries]
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

    r = TransferMatrix([work[i][:c] for i in range(c)])
    if any(not work[i][j].is_zero for i in range(c, nrows) for j in range(c)):
        raise InternalCheckError("elimination left residue below the divisor")
    u, u_inv = TransferMatrix(ops.transform()), TransferMatrix(ops.inverse())
    if u * u_inv != TransferMatrix.identity(nrows):
        raise InternalCheckError("row transformation is not unimodular")
    return r, u, u_inv


def _over_common_denominator(v: TransferMatrix):
    """(abar, d): v = abar / d with d the monic lcm of the entry
    denominators and abar polynomial."""
    d = Poly.one()
    for row in v.entries:
        for e in row:
            d = poly_lcm(d, e.den)
    return (TransferMatrix([[e.num * (d // e.den) for e in row]
                            for row in v.entries]), d)


@dataclass(frozen=True)
class CoprimeFraction:
    """v = num * den^-1 with right coprime factors and column-reduced den.

    den is a minimal basis of the polynomial inputs u with v * u
    polynomial.  degrees are its column degrees, in column order: the
    reachability indices of v, summing to deg det den.
    """

    num: TransferMatrix
    den: TransferMatrix
    degrees: tuple

    @property
    def state_dimension(self) -> int:
        return sum(self.degrees)


def right_coprime_fraction(v: TransferMatrix) -> CoprimeFraction:
    """Right coprime fraction of a rational matrix, from one elimination.

    With v = abar / d, den is the basis k of M = {u : abar * u = 0 mod d}
    that krylov_kernel_basis reads off exact ranks over Q, and num the
    quotient of abar * k by d.  Four checks certify k: zero remainders
    (k lies in M, and num = v * den); from one leading_data call, a rank-m
    leading matrix (the columns of k are properly independent at infinity,
    so k is column-reduced) and column degrees, minus the column orders,
    equal to the reported ones; and, apart from the elimination,
    independent Krylov columns z^i * abar * e_j mod d for i below them.  Those lie in
    abar * Q[z]^m mod d = Q[z]^m / M, of dimension deg det P for a basis P
    of M, so the degrees sum to at most deg det P; k = P * U has deg det k
    equal to that sum, so U is unimodular and k generates M.  That is
    right coprimeness: a common right divisor r of num and den leaves
    den * r^-1 in M, so r^-1 is polynomial.
    """
    abar, d = _over_common_denominator(v)
    degrees, k = krylov_kernel_basis(abar, d)
    quotients = [[divmod(e.num, d) for e in row]
                 for row in (abar * k).entries]
    if any(not r.is_zero for row in quotients for _, r in row):
        raise InternalCheckError("reachability basis leaves the module")
    orders, leads = leading_data(k.columns())
    if linalg.rank(leads) != v.cols:
        raise InternalCheckError("reachability basis is not column-reduced")
    if (orders != [-s for s in degrees]
            or not _krylov_columns_independent(abar, d, degrees)):
        raise InternalCheckError("reachability basis degrees differ from "
                                 "the Krylov ranks")
    num = TransferMatrix([[q for q, _ in row] for row in quotients])
    return CoprimeFraction(num, k, tuple(degrees))


def krylov_kernel_basis(abar: TransferMatrix, d: Poly):
    """Minimal basis of M = {u in Q[z]^m : abar * u = 0 mod d}; uncertified.

    Returns (degrees, k) with k an m x m polynomial matrix whose column j
    lies in M and has degree degrees[j].  The columns z^i * abar * e_j mod d, as
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
        rs = [(row[j].num % d).int_coeffs() for row in abar.entries]
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
    return degrees, TransferMatrix(zip(*kernel))


def _without_content(vec: list, s: Fraction):
    """(vec / g, s / g) for g the content of the integer list vec; s / g
    is then the scale of the result when s was that of vec."""
    g = math.gcd(*vec)
    if g > 1:
        return [x // g for x in vec], s / g
    return vec, s


_PRIME = (1 << 61) - 1  # ranks of integer vectors are taken modulo it first


def _krylov_columns_independent(abar: TransferMatrix, d: Poly,
                                degrees) -> bool:
    """Whether the columns z^i * abar * e_j mod d, i < degrees[j], are
    independent over Q.  They are built by polynomial division, apart from
    krylov_kernel_basis, as integer vectors.  A full rank modulo _PRIME is
    a nonzero minor, so it proves independence; only a shortfall there is
    taken again over Q."""
    n, vectors = d.degree, []
    for j, degree in enumerate(degrees):
        column = [row[j].num % d for row in abar.entries]
        for _ in range(degree):
            parts = [e.int_coeffs() for e in column]
            den = math.lcm(*(pd for _, pd in parts))
            vectors.append([x * (den // pd) for xs, pd in parts
                            for x in xs + [0] * (n - len(xs))])
            column = [(Poly.z() * e) % d for e in column]
    basis = {}  # pivot -> vector modulo the prime, 1 at the pivot
    for x in vectors:
        for piv, w in basis.items():
            if c := x[piv] % _PRIME:
                x = [(xe - c * we) % _PRIME for xe, we in zip(x, w)]
        piv = next((t for t, xe in enumerate(x) if xe % _PRIME), None)
        if piv is None:
            return linalg.rank(linalg.mat(vectors)) == len(vectors)
        inv = pow(x[piv], -1, _PRIME)
        basis[piv] = [xe * inv % _PRIME for xe in x]
    return True


def reachability_indices(v: TransferMatrix):
    """(indices sorted nonincreasing, minimal state dimension): the column
    degrees of the certified right_coprime_fraction(v)."""
    frac = right_coprime_fraction(v)
    return (tuple(sorted(frac.degrees, reverse=True)),
            frac.state_dimension)
