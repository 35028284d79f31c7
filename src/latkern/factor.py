"""Causal and static factorization of one map over another.

The causal factorization decision h = g*f with g causal reduces to a
containment of latency kernels; the constructive yes-branch builds g from
the kernel's Smith form, as h on the image of f and zero on a constant
complement of it.  The static variant solves an exact finite linear
system over the ground field, and refutes by a Fredholm witness of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .latency import InternalCheckError, LatencyKernel, build_latency_kernel
from .rational import ORD_INF, Poly, RatFun, poly_lcm
from .transfer import TransferMatrix


@dataclass(frozen=True)
class FactorOutcome:
    decision: bool
    g: TransferMatrix | None = None
    witness: tuple | None = None


def causal_factor(f: TransferMatrix, h: TransferMatrix,
                  kernel: LatencyKernel | None = None) -> FactorOutcome:
    """Decide h = g*f with g causal; construct g or a witness input.

    The decision, the construction and the check of a no's witness are
    construct_causal_factor's; this adds the certificate g * f == h on the
    yes-branch ("causal factor reconstruction failed").  Callers that
    certify an identity implying g * f == h themselves (vg_representation,
    static_feedback_realizable) call construct_causal_factor instead.
    """
    outcome = construct_causal_factor(f, h, kernel)
    if outcome.decision and outcome.g * f != h:
        raise InternalCheckError("causal factor reconstruction failed")
    return outcome


def construct_causal_factor(f: TransferMatrix, h: TransferMatrix,
                            kernel: LatencyKernel | None = None
                            ) -> FactorOutcome:
    """The decision of causal_factor and its g or witness, without the
    certificate g * f == h, which the caller checks or implies.

    f must be injective; h may be any finite-order map with the same input
    dimension.  The decision is containment of f's latency kernel in h's,
    tested by properness of h applied to each kernel basis column.  On
    failure the witness u = z^s d, s the order of f(d), has f(u) proper
    of order 0; h(u) = z^s h(d) is checked improper, so the witness holds
    whatever kernel d came from (built uncertified if not passed in).

    The yes-branch reads g off b1^-1 in the kernel's Smith form f =
    b1*delta*b2 (LatencyKernel.left_factor): g is h on the image of f and
    zero on the unit columns that complete the image, the pivots of the
    constant term of b1^-1's rows m.. (SmithAtInfinity.image_complement).
    The images h * d of the generator columns, which the containment test
    computes and finds proper, are its input.  g is causal because h * d
    is and image_coordinates, rows of b1^-1[:m, :], is (b1^-1 is
    bicausal); an order below 0 raises InternalCheckError.  No matrix of
    size p is inverted, and nothing is column-reduced.
    """
    if f.cols != h.cols:
        raise ValueError("factor candidates need the same input dimension")
    k = kernel if kernel is not None else build_latency_kernel(f)
    images = []
    for d in k.generator.columns():
        image = h.apply(d)
        if not all(e.is_causal for e in image):
            shift = min(e.order() for e in f.apply(d) if not e.is_zero)
            if min(e.order() for e in image) >= shift:
                raise InternalCheckError("factor witness does not refute")
            scale = RatFun.zpow(shift)
            witness = tuple(scale * e for e in d)
            return FactorOutcome(False, witness=witness)
        images.append(image)

    g = k.left_factor(TransferMatrix.from_columns(images))
    if g.order() < 0:
        raise InternalCheckError("constructed factor is not causal")
    return FactorOutcome(True, g=g)


def static_factor(f: TransferMatrix, h: TransferMatrix) -> FactorOutcome:
    """Decide h = g*f with g constant; construct g or a witness.

    Linear equations over K in the entries of g, obtained by matching
    Laurent coefficients columnwise on the window from the minimum order
    up to the degree of the column's common denominator: a nonzero
    rational over that denominator has order at most that degree, so a
    solution has g*f == h exactly (else InternalCheckError, never a no).

    Stack the windows as A (one column per row of f) and b_i (row i of
    h).  When A x = b_i has no solution, the Fredholm alternative gives
    y with y A = 0 and y b_i != 0, found by solving the transposed
    system.  The witness is (i, y), y as (column j, index t, coefficient)
    terms: a functional on Laurent coefficients that vanishes on every
    row of f, hence on every constant combination of them, but not on
    row i of h.  It is checked on coefficients read afresh by
    laurent_coeff ("static factor witness does not refute").
    """
    if f.cols != h.cols:
        raise ValueError("factor candidates need the same input dimension")
    p, m, q = f.rows, f.cols, h.rows
    rows_a = []
    coords = []  # (column, index) of each stacked row
    rhs_cols = [[] for _ in range(q)]
    for j in range(m):
        den = Poly.one()
        for i in range(p):
            den = poly_lcm(den, f.entry(i, j).den)
        for i in range(q):
            den = poly_lcm(den, h.entry(i, j).den)
        orders = ([f.entry(i, j).order() for i in range(p)]
                  + [h.entry(i, j).order() for i in range(q)])
        finite = [o for o in orders if o != ORD_INF]
        if not finite:
            continue
        t_lo = min(finite)
        f_win = [f.entry(k, j).laurent_window(t_lo, den.degree)
                 for k in range(p)]
        h_win = [h.entry(i, j).laurent_window(t_lo, den.degree)
                 for i in range(q)]
        for k in range(den.degree - t_lo + 1):
            rows_a.append([w[k] for w in f_win])
            coords.append((j, t_lo + k))
            for i in range(q):
                rhs_cols[i].append(h_win[i][k])
    if not rows_a:
        return FactorOutcome(True, g=TransferMatrix.zero(q, p))

    g_rows = []
    for i in range(q):
        sol = linalg.solve(rows_a, rhs_cols[i])
        if sol is None:
            return FactorOutcome(False, witness=_static_witness(
                f, h, i, rows_a, rhs_cols[i], coords))
        g_rows.append(sol)
    g = TransferMatrix.from_constant(g_rows)
    if g * f != h:
        raise InternalCheckError("static factor reconstruction failed")
    return FactorOutcome(True, g=g)


def _static_witness(f, h, i, rows_a, rhs, coords) -> tuple:
    """(i, y terms) with y A = 0 and y b_i = 1, checked; see static_factor."""
    p = len(rows_a[0])
    system = [list(col) for col in zip(*rows_a)] + [rhs]
    y = linalg.solve(system, [0] * p + [1])
    if y is None:
        raise InternalCheckError("inconsistent static system has no "
                                 "Fredholm witness")
    terms = tuple((j, t, c) for (j, t), c in zip(coords, y) if c)

    def value(row):
        return sum(c * row[j].laurent_coeff(t) for j, t, c in terms)

    if any(value(r) for r in f.entries) or not value(h.entries[i]):
        raise InternalCheckError("static factor witness does not refute")
    return i, terms


def constant_matrix(g: TransferMatrix):
    """View a static transfer matrix as a grid of Fractions."""
    out = []
    for row in g.entries:
        vals = []
        for e in row:
            if not e.is_polynomial or e.num.degree > 0:
                raise ValueError("matrix is not static")
            vals.append(e.num.coeff(0) if not e.is_zero else Fraction(0))
        out.append(tuple(vals))
    return tuple(out)
