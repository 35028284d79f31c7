"""Exact linear algebra over Q, and the one elimination kernel.

Constant matrices are tuples of tuples of Fraction.  These routines back
the valuation-level decisions of the package (leading-coefficient rank,
invertibility of constant terms, static factor solving), which must be
exact: every predicate downstream is a rank or solvability test.  The
Gauss-Jordan kernel `_echelon` and `_kernel_vector` also serve matrices
over Q(z) in `transfer`.
"""

from __future__ import annotations

from fractions import Fraction


def mat(rows) -> tuple[tuple[Fraction, ...], ...]:
    return tuple(tuple(Fraction(c) for c in row) for row in rows)


def zeros(p: int, m: int) -> tuple[tuple[Fraction, ...], ...]:
    return tuple(tuple(Fraction(0) for _ in range(m)) for _ in range(p))


def eye(n: int) -> tuple[tuple[Fraction, ...], ...]:
    return tuple(tuple(Fraction(1 if i == j else 0) for j in range(n))
                 for i in range(n))


def shape(a) -> tuple[int, int]:
    return len(a), len(a[0]) if a else 0


def matmul(a, b):
    p, n = shape(a)
    n2, m = shape(b)
    if n != n2:
        raise ValueError("dimension mismatch")
    return tuple(tuple(sum((a[i][k] * b[k][j] for k in range(n)), Fraction(0))
                       for j in range(m)) for i in range(p))


def _echelon(rows, limit_cols=None, weight=None):
    """Reduced row echelon form in place over an exact field.

    Entries may be any field elements with + - * / and a truth value
    (Fraction, RatFun).  Pivots are only sought in the first limit_cols
    columns, so augmented columns are carried along but never pivoted on.
    The pivot row is the first with a nonzero entry, or the one whose entry
    has the least weight(entry) when weight is given; the reduced form is
    the same for every choice.

    Returns the list of pivot columns; its length is the rank.
    """
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    if limit_cols is None:
        limit_cols = ncols
    pivots = []
    r = 0
    for c in range(limit_cols):
        cands = [i for i in range(r, nrows) if rows[i][c]]
        if not cands:
            continue
        pr = cands[0] if weight is None else min(
            cands, key=lambda i: weight(rows[i][c]))
        rows[r], rows[pr] = rows[pr], rows[r]
        p = rows[r][c]
        # A zero entry stays as it is: dividing or subtracting it is a
        # no-op that still costs a full field operation.
        rows[r] = [x / p if x else x for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y if y else x
                           for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def _kernel_vector(rows, pivots, ncols, one):
    """Kernel vector at the first free column of a reduced echelon form.

    None when every column holds a pivot.  Normalized so its first nonzero
    entry is `one`, the unit of the entries' field.
    """
    pivot_set = set(pivots)
    free = next((c for c in range(ncols) if c not in pivot_set), None)
    if free is None:
        return None
    x = [one - one] * ncols
    x[free] = one
    for r, c in enumerate(pivots):
        x[c] = -rows[r][free]
    lead = next(v for v in x if v)
    return tuple(v / lead for v in x)


def rank(a) -> int:
    rows = [list(row) for row in a]
    if not rows:
        return 0
    return len(_echelon(rows))


def nullspace_vector(a):
    """One nonzero kernel vector of a (columns over Q), or None if injective.

    Normalized so its first nonzero entry is 1.
    """
    rows = [list(row) for row in a]
    pivots = _echelon(rows) if rows else []
    return _kernel_vector(rows, pivots, shape(a)[1], Fraction(1))


def solve(a, b):
    """A particular solution x of a x = b over Q, or None if inconsistent.

    Free variables are set to zero.
    """
    p, m = shape(a)
    rows = [list(row) + [bv] for row, bv in zip(a, b)]
    pivots = _echelon(rows, m)
    for r in range(len(pivots), p):
        if rows[r][m] != 0:
            return None
    x = [Fraction(0)] * m
    for r, c in enumerate(pivots):
        x[c] = rows[r][m]
    return tuple(x)


def invert(a):
    """Inverse over Q, or None if singular."""
    n, m = shape(a)
    if n != m:
        raise ValueError("inverse of a nonsquare matrix")
    rows = [list(row) + list(e) for row, e in zip(a, eye(n))]
    pivots = _echelon(rows, n)
    if len(pivots) < n:
        return None
    return tuple(tuple(rows[i][n:]) for i in range(n))
