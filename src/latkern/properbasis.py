"""Bases that are proper at infinity, and the Smith form over K[[z^-1]].

A set of Laurent vectors is properly independent when their leading
coefficients are independent over the ground field; such a basis has the
predictable order property (the order of any combination equals the
minimum of the term orders).  Column reduction turns any full-column-rank
matrix into one, certified by a bicausal column transformation that keeps
both the field span and the generated power-series module.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction

from . import linalg
from .rational import ORD_INF, RatFun
from .transfer import InternalCheckError, TransferMatrix


def column_order(col):
    orders = [e.order() for e in col if not e.is_zero]
    return min(orders) if orders else ORD_INF


def column_lead(col, order):
    """Leading coefficient vector: the z^-order coefficient entrywise."""
    return tuple(e.leading_coeff() if e and e.order() == order
                 else Fraction(0) for e in col)


def leading_data(cols):
    """(orders, leading matrix with lead vectors as columns)."""
    orders = [column_order(c) for c in cols]
    leads = [column_lead(c, o) for c, o in zip(cols, orders)]
    n = len(cols[0])
    lead_matrix = tuple(tuple(leads[j][i] for j in range(len(cols)))
                        for i in range(n))
    return orders, lead_matrix


@dataclass(frozen=True)
class ProperBasis:
    """An ordered proper basis with its column orders and leading matrix."""

    columns: TransferMatrix
    orders: tuple
    leading_matrix: tuple


def column_reduce_at_infinity(m: TransferMatrix):
    """Reduce the columns of m to a proper basis of their span.

    Returns (ProperBasis, w) with columns = m*w and w bicausal, so both the
    field span and the generated power-series module are unchanged.  The
    result is ordered: column orders are nondecreasing.  w is replayed
    from the record of column operations.

    When the leading coefficients admit a dependency, the dependent column
    of maximal order (ties: lowest index) is replaced by the combination
    that cancels the leads, which raises its order by at least 1, and so
    the sum of column orders.  A nonzero maximal minor has order at least
    that sum (each of its terms takes one entry from every column), and
    at most the degree of its denominator, which divides the product of
    all entry denominators; the bicausal steps keep every maximal minor
    up to a unit.  So under full column rank the sum never passes the sum
    of the entry denominator degrees, and the loop terminates.  A sum
    beyond it (a zero column has order inf) proves the columns dependent
    and raises ValueError; no rank is computed up front.
    """
    n = m.cols
    cols = m.columns()
    bound = sum(e.den.degree for c in cols for e in c)
    ops = linalg.RowOps(n, RatFun.const(1), cols)
    orders = [column_order(c) for c in cols]
    leads = [column_lead(c, o) for c, o in zip(cols, orders)]
    while True:
        if sum(orders) > bound:
            raise ValueError("column reduction needs full column rank; "
                             "drop dependent columns first")
        alpha = linalg.nullspace_vector(tuple(zip(*leads)))
        if alpha is None:
            break
        support = [i for i, a in enumerate(alpha) if a != 0]
        j = max(support, key=lambda i: (orders[i], -i))
        # Column j becomes sum_i alpha_i z^(orders[i] - orders[j]) column i;
        # only column j changes, so only its order and lead are recomputed.
        ops.scale(j, alpha[j])
        for i in support:
            if i != j:
                ops.add(j, i, alpha[i] * RatFun.zpow(orders[i] - orders[j]))
        new_order = column_order(cols[j])
        if new_order != ORD_INF and new_order <= orders[j]:
            raise InternalCheckError("lead cancellation did not raise the "
                                     "column order")
        orders[j] = new_order
        leads[j] = column_lead(cols[j], new_order)

    perm = sorted(range(n), key=lambda i: (orders[i], i))
    basis = TransferMatrix.from_columns([cols[i] for i in perm])
    lead_matrix = tuple(zip(*(leads[i] for i in perm)))
    w_cols = ops.transform()  # the record acts on columns: w transposed
    return (ProperBasis(basis, tuple(orders[i] for i in perm), lead_matrix),
            TransferMatrix.from_columns([w_cols[i] for i in perm]))


@dataclass(frozen=True)
class SmithAtInfinity:
    """Factorization f = b1 * delta * b2 with b1, b2 bicausal.

    delta is rows x cols with z^-sigma[i] on the diagonal and zeros
    elsewhere; sigma is nondecreasing with one entry per rank.  b2_inv is
    b2^-1, replayed from the record of column operations, which every
    latency kernel reads.  The form keeps both records; b1_inv = b1^-1,
    b2 and delta_b2 are each built on first read, so a caller pays only
    for what it reads.  The row record is only ever replayed forward:
    b1^-1 gives the image coordinates, the image complement and the
    reassembly check, and b1 itself is never formed.  Nothing is checked
    here, not even reassembles(f): latency_kernel certifies the kernel
    b2_inv yields, causal_factor and compensation_equivalence the answers
    read off them.

    For injective f (rank m = cols), b1^-1 * f = delta * b2: the rows :m
    of b1^-1 read the image in the coordinates z^-sigma * b2, and the rows
    m.. annihilate it.
    """

    sigma: tuple
    b2_inv: TransferMatrix
    row_ops: linalg.RowOps = field(repr=False, compare=False)
    col_ops: linalg.RowOps = field(repr=False, compare=False)

    @functools.cached_property
    def b1_inv(self) -> TransferMatrix:
        return TransferMatrix(self.row_ops.transform())

    @functools.cached_property
    def b2(self) -> TransferMatrix:
        # The column record acts on the list of columns: its replay is
        # transposed, as for b2_inv in smith_at_infinity.
        return TransferMatrix(zip(*self.col_ops.inverse()))

    @functools.cached_property
    def delta_b2(self) -> tuple:
        """The nonzero rows of delta * b2: z^-sigma[i] * row i of b2."""
        return tuple(tuple(e * RatFun.zpow(-s) if e else e for e in row)
                     for row, s in zip(self.b2.entries, self.sigma))

    def image_complement(self) -> tuple:
        """Unit columns completing the image of f to a proper basis of K^p.

        With r = len(sigma), B0 the constant term of b1 and E0 that of
        rows r.. of b1^-1, B0^-1 * [B0[:, :r] | e_I] = [[I_r, *], [0,
        E0[:, I]]]: the unit columns I complete the image exactly when
        E0[:, I] is nonsingular.  They are the pivot columns of one echelon
        form of E0, greedy from the lowest index.  The rows of E0 span the
        annihilator of the image's leading coefficients, so two maps with
        the same image get the same columns.  Fewer than p - r pivots
        raise InternalCheckError.
        """
        rows = [[e.laurent_coeff(0) for e in row]
                for row in self.b1_inv.entries[len(self.sigma):]]
        cols = tuple(linalg._echelon(rows))
        if len(cols) < len(rows):
            raise InternalCheckError("image complement block of b1^-1 is "
                                     "singular")
        return cols

    def reassembles(self, f: TransferMatrix) -> bool:
        """Whether b1^-1 * f == delta * b2: rows i < len(sigma) are
        delta_b2, the rest zero.  The two replays of one record are exact
        inverses, so this is f == b1 * delta * b2."""
        zero = [[0] * f.cols] * (f.rows - len(self.sigma))
        return self.b1_inv * f == TransferMatrix([*self.delta_b2, *zero])


def smith_at_infinity(f: TransferMatrix) -> SmithAtInfinity:
    """Diagonalize f over the power-series ring by bicausal row/column ops.

    The pivot is the global minimum-order entry of the working submatrix
    (ties row-major); elimination multipliers are then proper, so both
    accumulated transformations stay bicausal.  Orders never drop below
    the pivot order, which makes sigma nondecreasing.  Row and column
    operations are only recorded; b2_inv is replayed here, and every other
    factor when it is first read.  Uncertified: the reassembly check is
    certify_latency_kernel's.
    """
    if f.is_zero:
        raise ValueError("Smith form at infinity of the zero matrix")
    p, m = f.rows, f.cols
    work = [list(row) for row in f.entries]
    zero = RatFun.const(0)
    row_ops = linalg.RowOps(p, RatFun.const(1))
    col_ops = linalg.RowOps(m, RatFun.const(1))  # on the columns of work

    sigma = []
    k = 0
    while k < min(p, m):
        best = None
        for i in range(k, p):
            for j in range(k, m):
                e = work[i][j]
                if e.is_zero:
                    continue
                o = e.order()
                if best is None or o < best[0]:
                    best = (o, i, j)
        if best is None:
            break
        _, pi, pj = best
        row_ops.swap(k, pi)
        work[k], work[pi] = work[pi], work[k]
        col_ops.swap(k, pj)
        for row in work:
            row[k], row[pj] = row[pj], row[k]
        pivot_row = work[k]
        pinv = pivot_row[k].inverse()
        # Row i += c * row k clears work[i][k]: that entry becomes the known
        # zero, and only the columns right of the pivot are computed.  Left
        # of the pivot, row k is zero already.
        for i in range(k + 1, p):
            row = work[i]
            if row[k].is_zero:
                continue
            c = -(row[k] * pinv)
            row_ops.add(i, k, c)
            row[k] = zero
            for j in range(k + 1, m):
                if not pivot_row[j].is_zero:
                    row[j] = row[j] + c * pivot_row[j]
        # The column operations clear row k right of the pivot.  No later
        # step reads that part of work, so they are only recorded.
        for j in range(k + 1, m):
            if not pivot_row[j].is_zero:
                col_ops.add(j, k, -(pivot_row[j] * pinv))
        sigma.append(pivot_row[k].order())
        k += 1

    # Absorb the unit part of each pivot into b2, leaving pure powers.
    for i, s in enumerate(sigma):
        col_ops.scale(i, 1 / (work[i][i] * RatFun.zpow(s)))

    return SmithAtInfinity(tuple(sigma),
                           TransferMatrix(zip(*col_ops.transform())),
                           row_ops, col_ops)


@dataclass(frozen=True)
class OrderChain:
    """Leading-coefficient filtration of a finitely generated submodule.

    subspaces[j] is a constant basis matrix of the space spanned by leading
    coefficients of module elements of order <= j; mu[j] its dimension.
    Outside [k_lower, k_upper] the chain is constant.
    """

    k_lower: int
    k_upper: int
    subspaces: dict
    mu: dict


def order_chain(d: TransferMatrix) -> OrderChain:
    """Order chain of the module generated by the columns of d.

    Requires the columns to be properly independent (column-reduce first
    otherwise); the chain is then read off the ordered basis directly.
    """
    cols = d.columns()
    # A zero column has a zero lead, so the rank covers it.
    orders, leads = leading_data(cols)
    if linalg.rank(leads) != len(cols):
        raise ValueError("order chain needs a properly independent generator; "
                         "run column_reduce_at_infinity first")
    by_order = sorted(range(len(cols)), key=lambda i: (orders[i], i))
    k_lower = orders[by_order[0]]
    k_upper = orders[by_order[-1]]
    subspaces = {}
    mu = {}
    for j in range(k_lower, k_upper + 1):
        sel = [i for i in by_order if orders[i] <= j]
        basis = tuple(tuple(row[i] for i in sel) for row in leads)
        subspaces[j] = basis
        mu[j] = len(sel)
    return OrderChain(k_lower, k_upper, subspaces, mu)
