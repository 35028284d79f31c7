"""Latency kernels of injective maps and the decisions they support.

The latency kernel of a map f collects the inputs whose response is
proper (free of z^+k terms).  For injective f it is a full, finitely
generated module over the power-series ring, written D*Omega^- with D an
ordered proper generator; membership of u is then the single causality
test "D^-1 u causal".  The kernel's column orders give the latency
indices, the exact obstruction to realizing precompensators as feedback.
"""

from __future__ import annotations

from dataclasses import dataclass

from .properbasis import (OrderChain, column_reduce_at_infinity,
                          extend_to_proper_basis, order_chain,
                          smith_at_infinity)
from .rational import RatFun
from .transfer import InternalCheckError, TransferMatrix


class KernelNotFinitelyGenerated(ValueError):
    """The map is not injective, so its latency kernel has no finite basis."""


@dataclass(frozen=True)
class LatencyKernel:
    """Ordered proper generator of ker pi^- f plus derived invariants.

    generator          m x m nonsingular, columns ordered by nondecreasing
                       order; generator^-1 is strictly causal for strictly
                       causal f.
    generator_inv      generator^-1, certified by generator * generator_inv
                       == I.
    poly_generator     strictly polynomial ordered proper generator of the
                       same module (entries in z*K[z]); None when f is not
                       strictly causal, where no such basis exists.
    orders             column orders of generator (nondecreasing).
    indices            latency indices nu_i = -order_i - 1, nonincreasing.
    chain              order chain / latency chain of the module.
    strictly_causal_input  False flags the advisory case where f had
                       order <= 0 and indices may be negative.
    """

    generator: TransferMatrix
    generator_inv: TransferMatrix
    poly_generator: TransferMatrix | None
    orders: tuple
    indices: tuple
    chain: OrderChain
    strictly_causal_input: bool

    def contains(self, u) -> bool:
        """Membership of the input vector u in the kernel module."""
        image = self.generator_inv.apply(u)
        return all(e.is_causal for e in image)


def latency_kernel(f: TransferMatrix) -> LatencyKernel:
    """Compute the latency kernel of an injective map.

    Route: Smith form at infinity f = b1 * delta * b2, so an input u has a
    proper response exactly when b2*u lands in diag(z^sigma) * Omega^-;
    the generator is therefore b2^-1 * diag(z^sigma), column-reduced to an
    ordered proper basis d = b2^-1 * diag(z^sigma) * w.  Smith form and
    column reduction carry b2^-1 and w^-1, so d^-1 = w^-1 * diag(z^-sigma)
    * b2 is a product, not an inversion; d * d^-1 == I certifies both
    carried inverses at once.  Each step carries an exact certificate.
    """
    m = f.cols
    smith = smith_at_infinity(f)
    if len(smith.sigma) < m:
        raise KernelNotFinitelyGenerated(
            "latency kernel is not finitely generated: map has rank "
            f"{len(smith.sigma)} < {m} (not injective)")
    sigma = smith.sigma
    # raw = b2^-1 * diag(z^sigma) and raw^-1 = diag(z^-sigma) * b2, each
    # built by scaling columns or rows.
    raw = TransferMatrix([[e * RatFun.zpow(s) for e, s in zip(row, sigma)]
                          for row in smith.b2_inv.entries])
    basis, _ = column_reduce_at_infinity(raw)
    d = basis.columns
    raw_inv = TransferMatrix([[e * RatFun.zpow(-s) for e in row]
                              for row, s in zip(smith.b2.entries, sigma)])
    d_inv = basis.w_inv * raw_inv
    if d * d_inv != TransferMatrix.identity(m):
        raise InternalCheckError("kernel generator times its carried inverse "
                                 "is not the identity")
    strictly_causal = f.classify().strictly_causal
    poly = strictly_polynomial_basis(d, d_inv) if strictly_causal else None
    orders = basis.orders
    indices = tuple(-o - 1 for o in orders)
    return LatencyKernel(
        generator=d,
        generator_inv=d_inv,
        poly_generator=poly,
        orders=orders,
        indices=indices,
        chain=order_chain(d),
        strictly_causal_input=strictly_causal,
    )


def strictly_polynomial_basis(d: TransferMatrix,
                              d_inv: TransferMatrix) -> TransferMatrix:
    """Strictly polynomial generator of the module generated by d.

    Truncates every entry to its z^+k, k >= 1 terms.  Valid for ordered
    proper generators of latency kernels of strictly causal injective
    maps, where the truncation drops only a causal remainder.  d_inv must
    be d^-1, which both certificates use: d^-1 is strictly causal (the
    stated precondition), and d^-1 * result is bicausal (same module both
    ways).
    """
    if not d_inv.classify().strictly_causal:
        raise InternalCheckError("kernel generator inverse not strictly causal")
    out = []
    for row in d.entries:
        new_row = []
        for e in row:
            plus = e.plus_part()
            strict = plus - type(plus).const(plus.coeff(0))
            new_row.append(RatFun(strict))
        out.append(new_row)
    result = TransferMatrix(out)
    ratio = d_inv * result
    if not ratio.classify().bicausal:
        raise InternalCheckError(
            "strictly polynomial truncation left the module: input was not "
            "an ordered proper latency-kernel generator of a strictly "
            "causal map")
    return result


@dataclass(frozen=True)
class ContainmentResult:
    contains: bool
    equal: bool
    certificate: TransferMatrix | None
    witness: tuple | None  # (row, col, order) of the offending entry


def module_contains(d1: TransferMatrix, d2: TransferMatrix) -> ContainmentResult:
    """Whether the module generated by d2 sits inside the one from d1.

    d1 must be nonsingular (a full module); d1.inverse() raises ValueError
    otherwise.  The test is causality of r = d1^-1 * d2, returned as
    certificate; equality holds when r is bicausal.  On failure the witness
    names the improper entry.
    """
    r = d1.inverse() * d2
    for i in range(r.rows):
        for j in range(r.cols):
            e = r.entry(i, j)
            if not e.is_causal:
                return ContainmentResult(False, False, None, (i, j, e.order()))
    return ContainmentResult(True, r.classify().bicausal, r, None)


@dataclass(frozen=True)
class EquivalenceResult:
    equivalent: bool
    mode: str
    post: TransferMatrix | None = None
    pre: TransferMatrix | None = None
    witness: tuple | None = None
    detail: str = ""


def _require_injective(f: TransferMatrix, name: str):
    if f.rank() != f.cols:
        raise KernelNotFinitelyGenerated(
            f"{name} is not injective; equivalence via latency kernels "
            "requires full column rank")


def _bicausal_left_factor(f1: TransferMatrix, f2: TransferMatrix) -> TransferMatrix:
    """Bicausal l with f2 = l * f1, given equal latency kernels.

    Column-reduce both maps to proper bases of their images, extend each
    with constant columns to a proper basis of the output space, and map
    basis to basis: the image part carries f1's coordinates to f2's, the
    complement part is matched columnwise.
    """
    p = f1.rows
    pb1, w1 = column_reduce_at_infinity(f1)
    pb2, _ = column_reduce_at_infinity(f2)
    r1 = extend_to_proper_basis(pb1, p)
    r2 = extend_to_proper_basis(pb2, p)
    target = f2 * w1
    source = pb1.columns
    if r1 is not None:
        source = source.hstack(r1)
        target = target.hstack(r2)
    l = target * source.inverse()
    if not l.classify().bicausal:
        raise InternalCheckError("constructed left factor is not bicausal")
    if l * f1 != f2:
        raise InternalCheckError("constructed left factor does not map f1 to f2")
    return l


def compensation_equivalence(f1: TransferMatrix, f2: TransferMatrix,
                             mode: str = "post") -> EquivalenceResult:
    """Decide bicausal equivalence of two injective maps and build compensators.

    post:      f2 = l * f1 for bicausal l  <=>  equal latency kernels.
    pre:       f2 = f1 * l, decided on the transposed maps.
    two_sided: f2 = l_po * f1 * l_pr      <=>  equal latency index lists;
               l_pr is the order-preserving module isomorphism d1 * d2^-1,
               l_po the induced left factor.
    """
    if (f1.rows, f1.cols) != (f2.rows, f2.cols):
        raise ValueError("equivalence needs equal shapes")
    if mode == "pre":
        res = compensation_equivalence(f1.transpose(), f2.transpose(), "post")
        # _bicausal_left_factor certified post * f1^T == f2^T, which is
        # f1 * pre == f2 transposed exactly.
        pre = res.post.transpose() if res.post is not None else None
        detail = f"on the transposed maps: {res.detail}" if res.detail else ""
        return EquivalenceResult(res.equivalent, "pre", pre=pre,
                                 witness=res.witness, detail=detail)
    _require_injective(f1, "first map")
    _require_injective(f2, "second map")
    k1 = latency_kernel(f1)
    k2 = latency_kernel(f2)
    if mode == "post":
        fwd = module_contains(k1.generator, k2.generator)
        if not fwd.contains:
            u = k2.generator.column(fwd.witness[1])
            return EquivalenceResult(
                False, "post", witness=tuple(u),
                detail="kernel of second map not inside kernel of first")
        bwd = module_contains(k2.generator, k1.generator)
        if not bwd.contains:
            u = k1.generator.column(bwd.witness[1])
            return EquivalenceResult(
                False, "post", witness=tuple(u),
                detail="kernel of first map not inside kernel of second")
        l = _bicausal_left_factor(f1, f2)
        return EquivalenceResult(True, "post", post=l)
    if mode == "two_sided":
        if k1.indices != k2.indices:
            return EquivalenceResult(
                False, "two_sided",
                witness=(k1.indices, k2.indices),
                detail="latency index lists differ")
        l_pr = k1.generator * k2.generator.inverse()
        if not l_pr.classify().bicausal:
            raise InternalCheckError("index-matched generators gave a "
                                     "non-bicausal precompensator")
        # certifies l_po * (f1 * l_pr) == f2, the two-sided identity
        l_po = _bicausal_left_factor(f1 * l_pr, f2)
        return EquivalenceResult(True, "two_sided", post=l_po, pre=l_pr)
    raise ValueError(f"unknown mode {mode!r}; use post, pre or two_sided")
