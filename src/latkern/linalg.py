"""Exact linear algebra over Q, and the one elimination kernel and record.

Constant matrices are tuples of tuples of Fraction.  These routines back
the valuation-level decisions of the package (leading-coefficient rank,
invertibility of constant terms, static factor solving), which must be
exact: every predicate downstream is a rank or solvability test.  The
Gauss-Jordan kernel `_echelon` and `_kernel_vector` also serve matrices
over Q(z) in `transfer`.  `RowOps` records the steps of the Smith form,
and of the Hermite elimination and the column reduction at infinity that
stay beside it as references, and replays them into each transformation
and its inverse.
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


class RowOps:
    """A record of elementary row operations, replayed on demand.

    Steps: swap(i, j), add(i, j, c) (row i += c * row j) and scale(i, c)
    (row i *= c, c a unit), over a field with + - * / and a truth value
    (RatFun; Poly with Fraction scalings).  Each step is also applied to
    rows when given.  transform() replays the record on the identity: T
    with T * rows_before == rows_after.  inverse() replays the inverse
    steps as column operations: T^-1.  Column operations are recorded as
    row operations on the list of columns; their transform is transposed.
    """

    def __init__(self, n: int, one, rows=None):
        self.n = n
        self.one = one
        self.rows = rows
        self.steps = []  # (step, its inverse as a row update of columns)

    def swap(self, i: int, j: int):
        if i != j:
            self._record(("swap", i, j, None), ("swap", i, j, None))

    def add(self, i: int, j: int, c):
        self._record(("add", i, j, c), ("add", j, i, -c))

    def scale(self, i: int, c):
        self._record(("scale", i, i, c), ("scale", i, i, 1 / c))

    def _record(self, step, inverse):
        self.steps.append((step, inverse))
        if self.rows is not None:
            _row_op(self.rows, *step)

    def transform(self) -> list:
        return self._replay(0)

    def inverse(self) -> list:
        return [list(row) for row in zip(*self._replay(1))]

    def _replay(self, side: int) -> list:
        zero = self.one - self.one
        rows = [[self.one if i == j else zero for j in range(self.n)]
                for i in range(self.n)]
        for step in self.steps:
            _row_op(rows, *step[side])
        return rows


def _row_op(rows, kind, i, j, c):
    # A zero entry stays as it is, as in _echelon.
    if kind == "swap":
        rows[i], rows[j] = rows[j], rows[i]
    elif kind == "add":
        rows[i] = [x + c * y if y else x for x, y in zip(rows[i], rows[j])]
    else:
        rows[i] = [x * c if x else x for x in rows[i]]


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
