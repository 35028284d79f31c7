"""Latency kernels of injective maps and the decisions they support.

The latency kernel of a map f collects the inputs whose response is
proper (free of z^+k terms).  For injective f it is a full, finitely
generated module over the power-series ring, written D*Omega^- with D an
ordered proper generator; membership of u is then the single causality
test "D^-1 u causal".  The kernel's column orders give the latency
indices, the exact obstruction to realizing precompensators as feedback.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from . import linalg
from .properbasis import (OrderChain, SmithAtInfinity, leading_data,
                          order_chain, smith_at_infinity)
from .rational import RatFun
from .transfer import InternalCheckError, SingularMatrixError, TransferMatrix


class KernelNotFinitelyGenerated(ValueError):
    """The map is not injective, so its latency kernel has no finite basis."""


@dataclass(frozen=True)
class LatencyKernel:
    """Ordered proper generator of ker pi^- f plus derived invariants.

    generator          m x m nonsingular, columns ordered by nondecreasing
                       order; generator^-1 is strictly causal for strictly
                       causal f.
    generator_inv      generator^-1, built on first read (factor never
                       reads it); certify_latency_kernel checks
                       generator * generator_inv == I.
    orders             column orders of generator (nondecreasing): -sigma
                       in the order perm.
    indices            latency indices nu_i = -order_i - 1, nonincreasing.
    strictly_causal_input  False flags the advisory case where f had
                       order <= 0 and indices may be negative.
    smith              the Smith form at infinity f = b1 * delta * b2 the
                       kernel was read from; b1^-1, b2 and delta * b2 are
                       built from its records when first read.
    perm               the column order: generator column k is column
                       perm[k] of raw = b2^-1 * diag(z^sigma).
                       raw * b1^-1[:m, :] is a left inverse of f, so
                       image_coordinates, rows perm of b1^-1[:m, :], has
                       image_coordinates * f == generator^-1.
    image_coordinates  that m x p matrix M, built on first read only (the
                       yes branch of causal_factor and equivalence read
                       it, through left_factor).
    poly_generator     strictly polynomial ordered proper generator of the
                       same module (entries in z*K[z]); None when f is not
                       strictly causal, where no such basis exists.  Built
                       on first read only, which factorization and
                       equivalence never make, by strictly_polynomial_basis,
                       which checks only its precondition.
    chain              order chain / latency chain of the module.  Built
                       on first read, as poly_generator is: only the
                       latency command reads it.
    """

    generator: TransferMatrix
    orders: tuple
    indices: tuple
    strictly_causal_input: bool
    smith: SmithAtInfinity
    perm: tuple

    @functools.cached_property
    def generator_inv(self) -> TransferMatrix:
        # diag(z^-sigma) * b2, its rows taken in the order perm
        rows = self.smith.delta_b2
        return TransferMatrix([rows[i] for i in self.perm])

    @functools.cached_property
    def poly_generator(self) -> TransferMatrix | None:
        if not self.strictly_causal_input:
            return None
        return strictly_polynomial_basis(self.generator, self.generator_inv)

    @functools.cached_property
    def chain(self) -> OrderChain:
        return order_chain(self.generator)

    @functools.cached_property
    def image_coordinates(self) -> TransferMatrix:
        e = self.smith.b1_inv.entries
        return TransferMatrix([e[i] for i in self.perm])

    def contains(self, u) -> bool:
        """Membership of the input vector u in the kernel module."""
        image = self.generator_inv.apply(u)
        return all(e.is_causal for e in image)

    def left_factor(self, hd: TransferMatrix,
                    on_complement: TransferMatrix | None = None
                    ) -> TransferMatrix:
        """The g with g * f == h that sends the image complement to C.

        hd is h * generator, the images of the generator columns under h.
        With d = generator and M = image_coordinates, M * f = d^-1, so d * M
        is a left inverse of f and g0 = hd * M has g0 * f = h.  When p > m,
        let E = b1^-1, let I be the unit columns that complete the image of
        f, the pivot columns of E[m:, :]'s constant term
        (SmithAtInfinity.image_complement), and C = on_complement (zero
        when None); then g = g0 - (g0[:, I] - C) * E[m:, I]^-1 * E[m:, :].
        E[m:, :] annihilates the image, so g * f = h, and g[:, I] = C.  The
        image and the columns I span the output space, so g is the only
        such map.
        An E[m:, I] without an inverse over Q(z) raises InternalCheckError;
        image_complement made only its constant term nonsingular, which
        suffices when E is causal.  Uncertified: each caller checks g * f
        == h and the causality it needs.
        """
        g = hd * self.image_coordinates
        e = self.smith.b1_inv.entries
        m = self.generator.cols
        if len(e) == m:
            return g
        cols = self.smith.image_complement()
        block = TransferMatrix([[row[i] for i in cols] for row in e[m:]])
        try:
            block_inv = block.inverse()
        except SingularMatrixError:
            raise InternalCheckError("image complement block of b1^-1 has "
                                     "no inverse over Q(z)") from None
        excess = TransferMatrix([[row[i] for i in cols] for row in g.entries])
        if on_complement is not None:
            excess = excess - on_complement
        return g - (excess * block_inv) * TransferMatrix(e[m:])


def build_latency_kernel(f: TransferMatrix) -> LatencyKernel:
    """The latency kernel of an injective map, uncertified.

    Route: Smith form at infinity f = b1 * delta * b2, so an input u has a
    proper response exactly when b2*u lands in diag(z^sigma) * Omega^-;
    the generator is therefore raw = b2^-1 * diag(z^sigma).  b2^-1 is
    bicausal, so column i of raw has order -sigma_i and its lead is column
    i of b2^-1's constant term: raw is already a proper basis, and the
    ordered generator d is raw with its columns sorted by (-sigma_i, i).
    The Smith form carries the record of b2, so d^-1 is diag(z^-sigma) *
    b2 with its rows sorted the same way, a product, not an inversion,
    built when LatencyKernel.generator_inv is first read.  A rank below
    m is refused only once the Smith form reassembles f; nothing else is
    checked here (certify_latency_kernel does).
    """
    m = f.cols
    smith = smith_at_infinity(f)
    sigma = smith.sigma
    if len(sigma) < m:
        if not smith.reassembles(f):
            raise InternalCheckError("Smith form does not reassemble the map")
        raise KernelNotFinitelyGenerated(
            "latency kernel is not finitely generated: map has rank "
            f"{len(sigma)} < {m} (not injective)")
    perm = tuple(sorted(range(m), key=lambda i: (-sigma[i], i)))
    # d = b2^-1 * diag(z^sigma), built by scaling columns, taken in the
    # order perm; a zero entry stays as it is.
    d = TransferMatrix([[row[i] * RatFun.zpow(sigma[i]) if row[i] else row[i]
                         for i in perm] for row in smith.b2_inv.entries])
    return LatencyKernel(
        generator=d,
        orders=tuple(-sigma[i] for i in perm),
        indices=tuple(sigma[i] - 1 for i in perm),
        strictly_causal_input=f.order() >= 1,
        smith=smith,
        perm=perm,
    )


def certify_latency_kernel(k: LatencyKernel,
                           f: TransferMatrix) -> LatencyKernel:
    """Return k = build_latency_kernel(f) once three checks hold, in order:
    d * d^-1 == I; d's leads at k.orders have rank m (d is a proper basis);
    and k's Smith form reassembles f."""
    if k.generator * k.generator_inv != TransferMatrix.identity(f.cols):
        raise InternalCheckError("kernel generator times its carried inverse "
                                 "is not the identity")
    orders, leads = leading_data(k.generator.columns())
    if tuple(orders) != k.orders or linalg.rank(leads) != f.cols:
        raise InternalCheckError("kernel generator is not a proper basis: "
                                 "b2^-1 is not bicausal")
    if not k.smith.reassembles(f):
        raise InternalCheckError("Smith form does not reassemble the map")
    return k


def latency_kernel(f: TransferMatrix) -> LatencyKernel:
    """build_latency_kernel(f), checked by certify_latency_kernel."""
    return certify_latency_kernel(build_latency_kernel(f), f)


def strictly_polynomial_basis(d: TransferMatrix,
                              d_inv: TransferMatrix) -> TransferMatrix:
    """Strictly polynomial generator of the module generated by d.

    Truncates every entry to its z^+k, k >= 1 terms.  Valid for ordered
    proper generators of latency kernels of strictly causal injective
    maps, where the truncation drops only a causal remainder.  d_inv must
    be d^-1; the one check is the stated precondition, d^-1 strictly
    causal.  The result is otherwise uncertified: with D = d - r, r the
    causal remainder, d^-1 * D = I - d^-1 * r is bicausal (same module
    both ways) whenever d * d_inv == I, which latency_kernel certified
    for every caller's d.
    """
    if d_inv.order() < 1:
        raise InternalCheckError("kernel generator inverse not strictly causal")
    out = []
    for row in d.entries:
        new_row = []
        for e in row:
            plus = e.plus_part()
            strict = plus - type(plus).const(plus.coeff(0))
            new_row.append(RatFun(strict))
        out.append(new_row)
    return TransferMatrix(out)


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
    bad = _improper_entry(r)
    if bad is not None:
        return ContainmentResult(False, False, None, bad)
    return ContainmentResult(True, r.classify().bicausal, r, None)


def _improper_entry(r: TransferMatrix) -> tuple | None:
    """(row, col, order) of r's first improper entry, row-major, or None
    when r is causal."""
    for i, row in enumerate(r.entries):
        for j, e in enumerate(row):
            if not e.is_causal:
                return i, j, e.order()
    return None


@dataclass(frozen=True)
class EquivalenceResult:
    equivalent: bool
    mode: str
    post: TransferMatrix | None = None
    pre: TransferMatrix | None = None
    witness: tuple | None = None
    detail: str = ""


def _kernel_of_injective(f: TransferMatrix, name: str) -> LatencyKernel:
    """build_latency_kernel(f), naming a map of deficient column rank."""
    if not f.is_zero:  # smith_at_infinity refuses the zero map on its own
        try:
            return build_latency_kernel(f)
        except KernelNotFinitelyGenerated:
            pass
    raise KernelNotFinitelyGenerated(
        f"{name} is not injective; equivalence via latency kernels "
        "requires full column rank")


def compensation_equivalence(f1: TransferMatrix, f2: TransferMatrix,
                             mode: str = "post") -> EquivalenceResult:
    """Decide bicausal equivalence of two injective maps and build compensators.

    post:      f2 = l * f1 for bicausal l  <=>  equal latency kernels.
    pre:       f2 = f1 * l, decided on the transposed maps.
    two_sided: f2 = l_po * f1 * l_pr      <=>  equal latency index lists;
               l_pr is the order-preserving module isomorphism d1 * d2^-1,
               l_po the induced left factor.

    Kernel containment and l_pr are products with the inverses the
    kernels carry, so no kernel generator is inverted here.  Post mode
    forms r = d1^-1 * d2 first.  A bicausal r has the causal inverse
    d2^-1 * d1, so the kernels are equal and the reverse ratio is not
    formed; it is formed only when r is causal but not bicausal, to find
    the witness of the reverse containment.  l and l_po are read off f1's
    Smith factors by LatencyKernel.left_factor: the unique map that takes
    f1 to f2 (post) or to f2 * l_pr^-1 (two_sided) and the unit columns
    completing f1's image to those completing f2's.  left_factor reads
    that target on f1's generator d1: f2 * d1 (post), or f2 * d2, since
    f2 * l_pr^-1 * d1 = f2 * d2 (two_sided).

    Kernels are built uncertified; each answer is certified instead: a yes
    by bicausal l (and l_pr) with l * f1 * l_pr == f2; a post no by its
    witness u, sent to a causal vector by one map and not by the other,
    which no bicausal l allows; a two-sided no by certifying both kernels.
    """
    if (f1.rows, f1.cols) != (f2.rows, f2.cols):
        raise ValueError("equivalence needs equal shapes")
    if mode == "pre":
        res = compensation_equivalence(f1.transpose(), f2.transpose(), "post")
        # post mode certified post * f1^T == f2^T, which is f1 * pre == f2
        # transposed exactly.
        pre = res.post.transpose() if res.post is not None else None
        detail = f"on the transposed maps: {res.detail}" if res.detail else ""
        return EquivalenceResult(res.equivalent, "pre", pre=pre,
                                 witness=res.witness, detail=detail)
    k1 = _kernel_of_injective(f1, "first map")
    k2 = _kernel_of_injective(f2, "second map")
    if mode == "post":
        for ka, kb, fa, fb, detail in (
                (k1, k2, f1, f2,
                 "kernel of second map not inside kernel of first"),
                (k2, k1, f2, f1,
                 "kernel of first map not inside kernel of second")):
            r = ka.generator_inv * kb.generator
            bad = _improper_entry(r)
            if bad is None:
                # kb's kernel lies in ka's.  A bicausal r has a causal
                # inverse, the reverse ratio, so the kernels are equal.
                if linalg.rank(r.markov(0)) == r.rows:
                    break
                continue
            u = tuple(kb.generator.column(bad[1]))
            if (not all(e.is_causal for e in fb.apply(u))
                    or all(e.is_causal for e in fa.apply(u))):
                raise InternalCheckError("equivalence witness does not "
                                         "separate the latency kernels")
            return EquivalenceResult(False, "post", witness=u, detail=detail)
        l_pr, source, target_d1 = None, f1, f2 * k1.generator
    elif mode == "two_sided":
        if k1.indices != k2.indices:
            certify_latency_kernel(k1, f1)
            certify_latency_kernel(k2, f2)
            return EquivalenceResult(
                False, "two_sided",
                witness=(k1.indices, k2.indices),
                detail="latency index lists differ")
        l_pr = k1.generator * k2.generator_inv
        if not l_pr.classify().bicausal:
            raise InternalCheckError("index-matched generators gave a "
                                     "non-bicausal precompensator")
        # l_po * f1 = f2 * l_pr^-1 with l_pr^-1 = d2 * d1^-1, which reads
        # f2 * d2 on f1's generator d1
        source = f1 * l_pr
        target_d1 = f2 * k2.generator
    else:
        raise ValueError(f"unknown mode {mode!r}; use post, pre or two_sided")
    # f2's image complement, as unit columns, is where l sends f1's
    cols = k2.smith.image_complement()
    units = (TransferMatrix([[1 if r == i else 0 for i in cols]
                             for r in range(f2.rows)]) if cols else None)
    l = k1.left_factor(target_d1, units)
    if not l.classify().bicausal:
        raise InternalCheckError("constructed left factor is not bicausal")
    if l * source != f2:
        raise InternalCheckError("constructed left factor does not map f1 to f2")
    return EquivalenceResult(True, mode, post=l, pre=l_pr)
