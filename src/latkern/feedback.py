"""Closed loops, feedback realizability, and precompensator remainders.

A bicausal precompensator l around a strictly causal plant f is realized
"as much as possible" by output feedback through a (v, g) pair with
l = (I + g f)^-1 v: the bicausal remainder v carries whatever dynamics
feedback cannot absorb.  The construction here bounds the remainder's
reachability indices by the plant's latency indices, and the worst-case
generator shows the bound is tight in the sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .factor import (constant_matrix, construct_causal_factor,
                     static_factor)
from .latency import (InternalCheckError, KernelNotFinitelyGenerated,
                      latency_kernel)
from .polymatrix import reachability_indices, right_coprime_fraction
from .rational import Poly, RatFun
from .transfer import TransferMatrix


class PreconditionError(ValueError):
    """An argument failed its causality classification."""


def _require(flag: bool, what: str):
    if not flag:
        raise PreconditionError(f"precondition failed: {what}")


def closed_loop(f: TransferMatrix, g: TransferMatrix,
                l_pr: TransferMatrix, l_po: TransferMatrix) -> TransferMatrix:
    """Compensated feedback composite l_po * f * (I + g f)^-1 * l_pr.

    The one inverse X = (I + g f)^-1 is certified by (I + g f) * X == I.
    The pushed-through form l_po * (I + f g)^-1 * f * l_pr is the same
    map, by (I + f g) * f == f * (I + g f), so it is not formed.
    """
    _require(f.order() >= 1, "plant must be strictly causal")
    _require(g.order() >= 0, "feedback compensator must be causal")
    _require(l_pr.classify().bicausal, "precompensator must be bicausal")
    _require(l_po.classify().bicausal, "postcompensator must be bicausal")
    eye = TransferMatrix.identity(f.cols)
    loop = eye + g * f
    x = loop.inverse()
    if loop * x != eye:
        raise InternalCheckError("closed-loop inverse is not the inverse "
                                 "of I + g f")
    return l_po * f * x * l_pr


@dataclass(frozen=True)
class StaticFeedbackResult:
    realizable: bool
    g: TransferMatrix | None = None
    static_part: tuple | None = None
    witness: tuple | None = None


def static_feedback_realizable(f: TransferMatrix,
                               l: TransferMatrix) -> StaticFeedbackResult:
    """Whether l^-1 = L + g*f for static L and causal g; construct or refute.

    The latency kernel of f, built once, is both the injectivity test (it
    refuses a map of deficient column rank) and the kernel
    construct_causal_factor reads.  l^-1 is L plus its strictly causal
    part exactly, so the one certificate L + g*f == l^-1 is the identity
    g*f == l^-1 - L that causal_factor would check: g*f is formed once.
    """
    _require(f.order() >= 1, "plant must be strictly causal")
    kernel = None
    if not f.is_zero:  # smith_at_infinity refuses the zero map on its own
        try:
            kernel = latency_kernel(f)
        except KernelNotFinitelyGenerated:
            pass
    _require(kernel is not None, "plant must be injective")
    _require(l.classify().bicausal, "precompensator must be bicausal")
    l_inv = l.inverse()
    static_part, strict = l_inv.static_strict_split()
    outcome = construct_causal_factor(f, strict, kernel=kernel)
    if not outcome.decision:
        return StaticFeedbackResult(False, witness=outcome.witness)
    g = outcome.g
    if TransferMatrix.from_constant(static_part) + g * f != l_inv:
        raise InternalCheckError("feedback reconstruction failed")
    return StaticFeedbackResult(True, g=g, static_part=static_part)


@dataclass(frozen=True)
class FeedbackRealization:
    """(v, g) representation of a precompensator: l = (I + g f)^-1 v."""

    v: TransferMatrix
    g: TransferMatrix
    rho: TransferMatrix
    sigma: tuple  # reachability indices of v, nonincreasing
    nu: tuple     # latency indices of f, nonincreasing


def _check_realization(loop: TransferMatrix, v: TransferMatrix,
                       l: TransferMatrix):
    """Certify l = loop^-1 v as loop l = v: loop = I + g f is bicausal
    (causal, constant term I), so the two are the same identity, and the
    check needs no inverse."""
    if loop * l != v:
        raise InternalCheckError("realization identity failed")


def vg_representation(f: TransferMatrix, l: TransferMatrix) -> FeedbackRealization:
    """Realize the precompensator l as feedback with a bicausal remainder.

    With D the strictly polynomial ordered proper kernel generator of f,
    split l^-1 * D into its proper part N and the rest; then phi = N * D^-1
    is a strictly causal map that factors causally over f as rho * f, and
    v^-1 = l^-1 - phi is bicausal with reachability indices bounded by the
    latency indices of f, componentwise after sorting.  g = v * rho.

    One certificate covers the construction: (I + g f) * l == v
    (_check_realization).  With g = v * rho and v^-1 = l^-1 - phi it is
    the identity rho * f == phi, so rho comes from construct_causal_factor
    and that product is not formed a second time.
    """
    _require(f.order() >= 1, "plant must be strictly causal")
    _require(l.classify().bicausal, "precompensator must be bicausal")
    kernel = latency_kernel(f)
    d = kernel.poly_generator
    l_inv = l.inverse()
    n = TransferMatrix([[e.split()[1] for e in row]
                        for row in (l_inv * d).entries])
    phi = n * d.inverse()
    v_inv = l_inv - phi
    v = v_inv.inverse()
    outcome = construct_causal_factor(f, phi, kernel=kernel)
    if not outcome.decision:
        raise InternalCheckError("kernel containment for the correction "
                                 "term failed")
    rho = outcome.g
    g = v * rho
    if g.order() < 0:
        raise InternalCheckError("feedback compensator is not causal")
    _check_realization(TransferMatrix.identity(f.cols) + g * f, v, l)
    sigma, _ = reachability_indices(v)
    nu = kernel.indices
    if any(s > nu_i for s, nu_i in zip(sigma, nu)):
        raise InternalCheckError(
            f"remainder indices {sigma} exceed latency indices {nu}")
    return FeedbackRealization(v=v, g=g, rho=rho, sigma=sigma, nu=nu)


def worst_case_precompensator(f: TransferMatrix) -> TransferMatrix:
    """A bicausal l whose every realization needs the full latency budget.

    Built from the strictly polynomial kernel generator D: with D1 = z^-1 D
    (polynomial, causal inverse), the map (L + D1^-1)^-1 is bicausal for
    L = I - A0(D1^-1), and any (v, g) representation of it satisfies
    sum(sigma) >= sum(nu); the construction of vg_representation then
    attains equality.
    """
    _require(f.order() >= 1, "plant must be strictly causal")
    kernel = latency_kernel(f)
    d1 = RatFun.zpow(-1) * kernel.poly_generator
    d1_inv = d1.inverse()
    if d1_inv.order() < 0:
        raise InternalCheckError("shifted kernel generator has a "
                                 "non-causal inverse")
    a0 = d1_inv.markov(0)
    n = f.cols
    l_static = tuple(tuple(Fraction(1 if i == j else 0) - a0[i][j]
                           for j in range(n)) for i in range(n))
    core = TransferMatrix.from_constant(l_static) + d1_inv
    l = core.inverse()
    if not l.classify().bicausal:
        raise InternalCheckError("worst-case precompensator is not bicausal")
    return l


@dataclass(frozen=True)
class StateSpace:
    """Constant realization data (A, B, C); C = None means state output."""

    a: tuple
    b: tuple
    c: tuple | None = None

    def __post_init__(self):
        n = len(self.a)
        if any(len(row) != n for row in self.a):
            raise ValueError("state matrix must be square")
        if len(self.b) != n:
            raise ValueError("input matrix row count mismatch")
        if self.c is not None and any(len(row) != n for row in self.c):
            raise ValueError("output matrix column count mismatch")

    @property
    def n(self) -> int:
        return len(self.a)

    @property
    def m(self) -> int:
        return len(self.b[0])


def from_state_space(ss: StateSpace) -> TransferMatrix:
    """Exact transfer matrix C (zI - A)^-1 B; strictly causal by construction."""
    n = ss.n
    zi_a = TransferMatrix(
        [[RatFun(Poly([-Fraction(ss.a[i][j]), 1]) if i == j
                 else Poly([-Fraction(ss.a[i][j])]))
          for j in range(n)] for i in range(n)])
    resolvent = zi_a.inverse()
    b = TransferMatrix.from_constant(ss.b)
    result = resolvent * b
    if ss.c is not None:
        result = TransferMatrix.from_constant(ss.c) * result
    return result


@dataclass(frozen=True)
class StateNonlatencyReport:
    injective: bool
    nonlatent: bool
    indices: tuple | None = None
    static_kernel: tuple | None = None  # basis vectors of ker B when not injective


def is_nonlatency_check(ss: StateSpace) -> StateNonlatencyReport:
    """Nonlatency of the state-output map (zI - A)^-1 B.

    For B with full column rank the map is injective, and nonlatent is
    read off the certified latency kernel's indices: all zero, which the
    paper proves for every such pair (acceptance criterion 7 checks it).
    Otherwise the kernel is static: spanned by constant inputs from ker
    B, each verified to be annihilated.
    """
    f = from_state_space(StateSpace(ss.a, ss.b))
    kernel_vecs = []
    while True:
        vec = linalg.nullspace_vector(_with_extra_constraints(ss.b, kernel_vecs))
        if vec is None:
            break
        kernel_vecs.append(vec)
    if not kernel_vecs:
        k = latency_kernel(f)
        return StateNonlatencyReport(True, not any(k.indices),
                                     indices=k.indices)
    for vec in kernel_vecs:
        image = f.apply([RatFun.const(c) for c in vec])
        if any(not e.is_zero for e in image):
            raise InternalCheckError("static kernel vector not annihilated")
    return StateNonlatencyReport(False, False,
                                 static_kernel=tuple(kernel_vecs))


def _with_extra_constraints(b, found):
    """Stack b with rows forcing independence from already found vectors."""
    rows = [tuple(Fraction(x) for x in row) for row in b]
    for vec in found:
        rows.append(tuple(vec))
    return tuple(rows)


@dataclass(frozen=True)
class StaticStateFeedbackResult:
    realizable: bool
    static_part: tuple | None = None
    gain: tuple | None = None
    detail: str = ""
    witness: tuple | None = None  # on no: u with l^-1 u not polynomial


def static_state_feedback_test(ss: StateSpace,
                               l: TransferMatrix) -> StaticStateFeedbackResult:
    """Whether l^-1 = L + G f for static L, G with f the state-output map.

    Decided by the polynomial image: yes exactly when l^-1 maps every
    generator of the polynomial kernel module of f (the polynomial inputs
    with polynomial state response) to polynomials.  On yes the static
    gain is recovered by exact linear solving and certified by
    static_factor's gain * f == strict; on no, the witness is the first
    generator u with l^-1 u not polynomial.
    """
    # f = (zI - A)^-1 B, and (zI - A)^-1 is invertible, so f is injective
    # exactly when B has full column rank over Q.
    f = from_state_space(StateSpace(ss.a, ss.b))
    b = [[Fraction(x) for x in row] for row in ss.b]
    _require(linalg.rank(b) == f.cols, "state-output map must be injective "
             "(B full column rank)")
    _require(l.classify().bicausal, "compensator must be bicausal")
    p_f = right_coprime_fraction(f).den
    l_inv = l.inverse()
    static_part, strict = l_inv.static_strict_split()

    escaping = [u for u in p_f.columns()
                if not all(e.is_polynomial for e in l_inv.apply(u))]
    if escaping:
        return StaticStateFeedbackResult(
            False, detail="compensator moves the restricted kernel out of "
                          "the polynomials", witness=escaping[0])
    # static_factor certifies gain * f == strict, and strict is
    # l^-1 - static_part exactly, so l^-1 == static_part + gain * f.
    gain = static_factor(f, strict)
    if not gain.decision:
        raise InternalCheckError("static factor missing despite a positive "
                                 "polynomial-image test")
    return StaticStateFeedbackResult(True, static_part=static_part,
                                     gain=constant_matrix(gain.g))
