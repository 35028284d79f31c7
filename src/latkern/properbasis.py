"""Bases that are proper at infinity, and the Smith form over K[[z^-1]].

A set of Laurent vectors is properly independent when their leading
coefficients are independent over the ground field; such a basis has the
predictable order property (the order of any combination equals the
minimum of the term orders).  Column reduction turns any full-column-rank
matrix into one, certified by a bicausal column transformation that keeps
both the field span and the generated power-series module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .rational import ORD_INF, RatFun
from .transfer import InternalCheckError, TransferMatrix


def column_order(col):
    orders = [e.order() for e in col if not e.is_zero]
    return min(orders) if orders else ORD_INF


def column_lead(col, order=None):
    """Leading coefficient vector: the z^-order coefficient entrywise."""
    if order is None:
        order = column_order(col)
    if order == ORD_INF:
        return tuple(Fraction(0) for _ in col)
    return tuple(e.laurent_coeff(order) for e in col)


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
    columns: TransferMatrix
    orders: tuple
    leading_matrix: tuple
    ordered: bool = False


def proper_independence_check(cols):
    """Whether the leading coefficients are independent over K.

    Returns (flag, leading matrix).  A zero vector is never properly
    independent.
    """
    cols = [tuple(c) for c in cols]
    orders, lead_matrix = leading_data(cols)
    if any(o == ORD_INF for o in orders):
        return False, lead_matrix
    return linalg.rank(lead_matrix) == len(cols), lead_matrix


def column_reduce_at_infinity(m: TransferMatrix):
    """Reduce the columns of m to a proper basis of their span.

    Returns (ProperBasis, w) with columns = m*w and w bicausal, so both the
    field span and the generated power-series module are unchanged.  The
    result is ordered: column orders are nondecreasing.

    When the leading coefficients admit a dependency, the dependent column
    of maximal order (ties: lowest index) is replaced by the combination
    that cancels the leads, which strictly raises its order.  The sum of
    column orders is bounded above by the minimal order among maximal
    minors, so the loop terminates.
    """
    if m.rank() != m.cols:
        raise ValueError("column reduction needs full column rank; "
                         "drop dependent columns first")
    cols = [list(m.column(j)) for j in range(m.cols)]
    w = TransferMatrix.identity(m.cols)
    while True:
        orders, lead_matrix = leading_data(cols)
        alpha = linalg.nullspace_vector(lead_matrix)
        if alpha is None:
            break
        support = [i for i, a in enumerate(alpha) if a != 0]
        j = max(support, key=lambda i: (orders[i], -i))
        combo = [RatFun.const(0)] * len(cols[0])
        elem = [[RatFun.const(1 if r == c else 0) for c in range(m.cols)]
                for r in range(m.cols)]
        for i in support:
            factor = RatFun.const(alpha[i]) * RatFun.zpow(orders[i] - orders[j])
            elem[i][j] = factor
            combo = [acc + factor * e for acc, e in zip(combo, cols[i])]
        new_order = column_order(combo)
        if new_order != ORD_INF and new_order <= orders[j]:
            raise InternalCheckError("lead cancellation did not raise the "
                                     "column order")
        cols[j] = combo
        w = w * TransferMatrix(elem)

    orders, _ = leading_data(cols)
    perm = sorted(range(len(cols)), key=lambda i: (orders[i], i))
    pmat = TransferMatrix([[1 if perm[j] == i else 0 for j in range(m.cols)]
                           for i in range(m.cols)])
    cols = [cols[i] for i in perm]
    w = w * pmat
    orders, lead_matrix = leading_data(cols)
    basis = TransferMatrix.from_columns(cols)
    return ProperBasis(basis, tuple(orders), lead_matrix, ordered=True), w


def extend_to_proper_basis(partial: ProperBasis | None, ambient_dim: int) -> TransferMatrix | None:
    """Constant unit columns completing the leading coefficients to K^n.

    The union of the partial basis and the returned columns is a proper
    basis of the full n-dimensional Laurent space, and the two spans form
    a proper direct sum.  Returns None when the partial basis is full;
    partial=None stands for the empty basis and yields identity columns.
    """
    k = partial.columns.cols if partial is not None else 0
    if k > ambient_dim:
        raise ValueError("partial basis larger than ambient space")
    if k == ambient_dim:
        return None
    lead_cols = ([[partial.leading_matrix[i][j] for i in range(ambient_dim)]
                  for j in range(k)] if partial is not None else [])
    chosen = []
    current = linalg.rank(tuple(zip(*lead_cols))) if lead_cols else 0
    for i in range(ambient_dim):
        candidate = [Fraction(1 if r == i else 0) for r in range(ambient_dim)]
        trial = lead_cols + chosen + [candidate]
        if linalg.rank(tuple(zip(*trial))) > current + len(chosen):
            chosen.append(candidate)
            if len(chosen) == ambient_dim - k:
                break
    return TransferMatrix.from_columns(
        [[RatFun.const(c) for c in col] for col in chosen])


@dataclass(frozen=True)
class SmithAtInfinity:
    """Factorization f = b1 * delta * b2 with b1, b2 bicausal.

    delta is rows x cols with z^-sigma[i] on the diagonal and zeros
    elsewhere; sigma is nondecreasing with one entry per rank.
    """

    b1: TransferMatrix
    sigma: tuple
    b2: TransferMatrix

    def delta(self, rows: int, cols: int) -> TransferMatrix:
        d = [[RatFun.const(0) for _ in range(cols)] for _ in range(rows)]
        for i, s in enumerate(self.sigma):
            d[i][i] = RatFun.zpow(-s)
        return TransferMatrix(d)

    def reassemble(self) -> TransferMatrix:
        return self.b1 * self.delta(self.b1.rows, self.b2.rows) * self.b2


def smith_at_infinity(f: TransferMatrix) -> SmithAtInfinity:
    """Diagonalize f over the power-series ring by bicausal row/column ops.

    The pivot is the global minimum-order entry of the working submatrix
    (ties row-major); elimination multipliers are then proper, so both
    accumulated transformations stay bicausal.  Orders never drop below
    the pivot order, which makes sigma nondecreasing.
    """
    if f.is_zero:
        raise ValueError("Smith form at infinity of the zero matrix")
    p, m = f.rows, f.cols
    work = [[f.entry(i, j) for j in range(m)] for i in range(p)]
    b1 = [[RatFun.const(1 if i == j else 0) for j in range(p)] for i in range(p)]
    b2 = [[RatFun.const(1 if i == j else 0) for j in range(m)] for i in range(m)]

    def swap_rows(a, b):
        if a != b:
            work[a], work[b] = work[b], work[a]
            for row in b1:
                row[a], row[b] = row[b], row[a]

    def swap_cols(a, b):
        if a != b:
            for row in work:
                row[a], row[b] = row[b], row[a]
            b2[a], b2[b] = b2[b], b2[a]

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
        swap_rows(k, pi)
        swap_cols(k, pj)
        pivot = work[k][k]
        pinv = pivot.inverse()
        for i in range(k + 1, p):
            if work[i][k].is_zero:
                continue
            c = work[i][k] * pinv
            work[i] = [a - c * b for a, b in zip(work[i], work[k])]
            for row in b1:
                row[k] = row[k] + c * row[i]
        for j in range(k + 1, m):
            if work[k][j].is_zero:
                continue
            c = work[k][j] * pinv
            for row in work:
                row[j] = row[j] - c * row[k]
            b2[k] = [a + c * b for a, b in zip(b2[k], b2[j])]
        sigma.append(pivot.order())
        k += 1

    # Absorb the unit part of each pivot into b2, leaving pure powers.
    for i, s in enumerate(sigma):
        unit = work[i][i] * RatFun.zpow(s)
        b2[i] = [unit * e for e in b2[i]]

    result = SmithAtInfinity(TransferMatrix(b1), tuple(sigma),
                             TransferMatrix(b2))
    if result.reassemble() != f:
        raise InternalCheckError("Smith form does not reassemble the map")
    return result


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
    ok, _ = proper_independence_check(cols)
    if not ok:
        raise ValueError("order chain needs a properly independent generator; "
                         "run column_reduce_at_infinity first")
    orders = [column_order(c) for c in cols]
    leads = [column_lead(c, o) for c, o in zip(cols, orders)]
    by_order = sorted(range(len(cols)), key=lambda i: (orders[i], i))
    k_lower = orders[by_order[0]]
    k_upper = orders[by_order[-1]]
    subspaces = {}
    mu = {}
    for j in range(k_lower, k_upper + 1):
        sel = [i for i in by_order if orders[i] <= j]
        basis = tuple(tuple(leads[i][r] for i in sel)
                      for r in range(d.rows))
        subspaces[j] = basis
        mu[j] = len(sel)
    return OrderChain(k_lower, k_upper, subspaces, mu)
