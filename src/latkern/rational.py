"""Exact univariate polynomials and rational functions in z over the rationals.

Everything here is a value of the rational subfield of the Laurent series
field K((z^-1)) with K = Q.  The central quantity is the order of an
element: the index of the first nonzero coefficient of its expansion in
powers of z^-1 (larger order = more delay).  All arithmetic is exact;
there is no floating point anywhere in this package.

A `Poly` is stored as a rational content, kept as two coprime ints, times
a primitive integer polynomial, so its products, sums, divisions and gcds
run on Python ints alone; a `Fraction` is built only for a coefficient
read from outside.  Polynomial gcds try the heuristic GCDHEU first (Char,
Geddes and Gonnet, J. Symbolic Comput. 1989): one integer gcd of the two
polynomials evaluated at a large integer, whose candidate is accepted only
after exact trial division.  When a bounded number of tries fails they
fall back to a primitive remainder sequence, so every gcd is exact.  The
trial division yields the cofactors f/h and g/h, and `RatFun` reduces
with them instead of dividing again.  Delays make most operands on the
kernel path divisible by z, so each gcd first splits off the common and
the excess powers of z, which changes no result, and runs GCDHEU or the
remainder sequence only on parts with a nonzero constant term.

`RatFun` sums and products, `Poly` sums and the dot products of
`transfer` run on integer parts: a value in flight is (n, d, p, q),
meaning (n / d) p / q, with p and q coprime primitive integer tuples
and d > 0 (q = (1,) for a `Poly`).  `_mul_parts`
cancels each numerator against the other denominator; `_add_parts`
reduces only against gcd(q1, q2), which holds every common factor of
the sum's numerator and denominator.  Each result is in lowest terms,
and `_over_monic` builds the canonical `RatFun` once, at the end.
"""

from __future__ import annotations

import math
from fractions import Fraction

# Order of the zero element.  Finite orders are plain ints.
ORD_INF = math.inf

# GCDHEU evaluation points tried before the remainder-sequence fallback.
HEU_GCD_MAX = 6


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


class Poly:
    """Polynomial in z over Q: a rational content times a primitive part.

    `_p` holds integer coefficients ascending by power, with no trailing
    zero, gcd 1 and a positive leading coefficient.  The content is the
    reduced fraction `_n / _d` of two ints, with `_d > 0`.  The zero
    polynomial is `_n = 0`, `_d = 1` and `_p = ()`.  The form is unique, so
    equal values have equal fields.  Arithmetic builds no `Fraction`; one
    is built only where a coefficient leaves the class: `coeffs` (built
    once on first use), `coeff`, `lead` and `_top`.
    """

    __slots__ = ("_n", "_d", "_p", "_coeffs")

    def __init__(self, coeffs=()):
        cs = [_frac(c) for c in coeffs]
        den = math.lcm(*(c.denominator for c in cs))
        c, p = _primitive([c.numerator * (den // c.denominator) for c in cs])
        g = math.gcd(c, den)
        _set_n(self, c // g)
        _set_d(self, den // g)
        _set_p(self, p)
        _set_coeffs(self, None)

    @classmethod
    def _make(cls, n: int, d: int, p: tuple) -> Poly:
        """Trusted constructor: p is primitive with a positive lead, and n/d
        is a nonzero reduced fraction with d > 0."""
        self = object.__new__(cls)
        _set_n(self, n)
        _set_d(self, d)
        _set_p(self, p)
        _set_coeffs(self, None)
        return self

    @classmethod
    def _scaled(cls, ints: list, n: int, d: int) -> Poly:
        """(n / d) * ints for any integer list (trailing zeros allowed) and
        any n and d > 0: one gcd reduces the content."""
        c, p = _primitive(ints)
        if not p:
            return _ZERO
        n *= c
        g = math.gcd(n, d)
        return cls._make(n // g, d // g, p)

    @classmethod
    def _monic_of(cls, p: tuple) -> Poly:
        """The monic polynomial with primitive part p."""
        return _ONE if len(p) == 1 else cls._make(1, p[-1], p)

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @property
    def coeffs(self) -> tuple:
        cs = self._coeffs
        if cs is None:
            n, d = self._n, self._d
            cs = tuple(Fraction(n * x, d) for x in self._p)
            _set_coeffs(self, cs)
        return cs

    def int_coeffs(self) -> tuple[list[int], int]:
        """(ints, den) with self = sum ints[i] z^i / den and den > 0, the
        denominator of the content; no Fraction is built."""
        return [self._n * x for x in self._p], self._d

    @classmethod
    def zero(cls) -> Poly:
        return _ZERO

    @classmethod
    def one(cls) -> Poly:
        return _ONE

    @classmethod
    def const(cls, c) -> Poly:
        return cls((c,))

    @classmethod
    def z(cls, power: int = 1) -> Poly:
        if power < 0:
            raise ValueError("Poly.z needs a nonnegative power")
        return cls._make(1, 1, (0,) * power + (1,))

    @property
    def is_zero(self) -> bool:
        return not self._p

    @property
    def degree(self) -> int:
        """Degree, with the convention deg 0 = -1."""
        return len(self._p) - 1

    @property
    def lead(self) -> Fraction:
        if not self._p:
            raise ValueError("zero polynomial has no leading coefficient")
        return Fraction(self._n * self._p[-1], self._d)

    def coeff(self, i: int) -> Fraction:
        if 0 <= i < len(self._p):
            return self.coeffs[i]
        return Fraction(0)

    def _top(self, count: int):
        """The top `count` coefficients (all, if fewer), leading first.

        Only a part of them is built here; all of them come from `coeffs`,
        which caches them.
        """
        if count >= len(self._p):
            return self.coeffs[::-1]
        n, d = self._n, self._d
        return [Fraction(n * x, d) for x in self._p[:-count - 1:-1]]

    def monic(self) -> Poly:
        if not self._p:
            return self
        return Poly._monic_of(self._p)

    def shift(self, k: int) -> Poly:
        """Multiply by z^k, k >= 0."""
        if k < 0:
            raise ValueError("negative shift")
        if not self._p:
            return self
        return Poly._make(self._n, self._d, (0,) * k + self._p)

    def _add(self, other: Poly, n2: int) -> Poly:
        """self + (n2 / other._d) * (primitive part of other): one
        `_add_parts` over the denominator 1."""
        n, d, p, _ = _add_parts((self._n, self._d, self._p, (1,)),
                                (n2, other._d, other._p, (1,)))
        return Poly._make(n, d, p) if p else _ZERO

    def __add__(self, other: Poly) -> Poly:
        return self._add(other, other._n)

    def __sub__(self, other: Poly) -> Poly:
        return self._add(other, -other._n)

    def __neg__(self) -> Poly:
        if not self._p:
            return self
        return Poly._make(-self._n, self._d, self._p)

    def __mul__(self, other):
        if isinstance(other, Poly):
            if not self._p or not other._p:
                return _ZERO
            # Gauss's lemma: a product of primitive polynomials is primitive.
            n, d = _content_mul(self._n, self._d, other._n, other._d)
            return Poly._make(n, d, _int_mul(self._p, other._p))
        if isinstance(other, (int, Fraction)):
            if not other or not self._p:
                return _ZERO
            n, d = _content_mul(self._n, self._d,
                                other.numerator, other.denominator)
            return Poly._make(n, d, self._p)
        return NotImplemented

    def __rmul__(self, other):
        return self.__mul__(other)

    def _divide(self, other: Poly, want_rem: bool):
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        if len(self._p) < len(other._p):
            return _ZERO, self
        q, r, den = _int_divmod(self._p, other._p)
        # quotient content: (n1 / d1) / ((n2 / d2) * den), den > 0
        n, d = self._n * other._d, self._d * other._n * den
        if d < 0:
            n, d = -n, -d
        quo = Poly._scaled(q, n, d)
        return quo, (Poly._scaled(r, self._n, self._d * den)
                     if want_rem else None)

    def __divmod__(self, other: Poly):
        return self._divide(other, True)

    def __floordiv__(self, other: Poly) -> Poly:
        return self._divide(other, False)[0]

    def __mod__(self, other: Poly) -> Poly:
        return self._divide(other, True)[1]

    def __eq__(self, other) -> bool:
        return (isinstance(other, Poly) and self._p == other._p
                and self._n == other._n and self._d == other._d)

    def __hash__(self):
        return hash(("Poly", self._n, self._d, self._p))

    def __bool__(self) -> bool:
        return bool(self._p)

    def __str__(self) -> str:
        return poly_text([str(c) for c in self.coeffs])

    def __repr__(self) -> str:
        return f"Poly({list(self.coeffs)!r})"


def poly_text(coeffs: list[str]) -> str:
    """str(Poly) from the polynomial's ascending coefficient texts, each
    a reduced "a" or "a/b" as str(Fraction) writes it; matrix reports
    are printed from their JSON coefficient texts by it."""
    terms = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if c == "0":
            continue
        neg = c[0] == "-"
        if i:
            mag = c[1:] if neg else c
            zp = "z" if i == 1 else f"z^{i}"
            term = zp if mag == "1" else f"{mag}*{zp}"
        else:
            term = c
        if terms:
            term = ("- " if neg else "+ ") + term.lstrip("-")
        elif neg and i:
            term = "-" + term
        terms.append(term)
    return " ".join(terms) or "0"


def quotient_text(num: str, den: str) -> str:
    """str(RatFun) from the texts of its numerator and monic denominator."""
    if den == "1":
        return num
    return "/".join(f"({t})" if " " in t else t for t in (num, den))


_set_n = Poly._n.__set__
_set_d = Poly._d.__set__
_set_p = Poly._p.__set__
_set_coeffs = Poly._coeffs.__set__
_ZERO = Poly._make(0, 1, ())
_ONE = Poly._make(1, 1, (1,))


def _content_mul(n1: int, d1: int, n2: int, d2: int) -> tuple[int, int]:
    """(n1 / d1) * (n2 / d2) for reduced fractions, reduced by two
    cross gcds on the smaller factors."""
    g1, g2 = math.gcd(n1, d2), math.gcd(n2, d1)
    return (n1 // g1) * (n2 // g2), (d1 // g2) * (d2 // g1)


def _primitive(c: list[int]) -> tuple[int, tuple]:
    """(content, primitive part) of an ascending integer list, which loses
    its trailing zeros; the primitive part has a positive lead, and an
    all-zero list gives (0, ())."""
    while c and not c[-1]:
        c.pop()
    if not c:
        return 0, ()
    g = math.gcd(*c)
    if c[-1] < 0:
        g = -g
    if g != 1:
        c = [x // g for x in c]
    return g, tuple(c)


def _int_mul(a: tuple, b: tuple) -> tuple:
    """Product of integer coefficient tuples (ascending), schoolbook.

    An operand c z^k, common on the kernel path, shifts and scales the
    other one instead.
    """
    if len(a) < len(b):
        a, b = b, a
    if len(b) == 1:
        y = b[0]
        return a if y == 1 else tuple([y * x for x in a])
    if not b[0] and not any(b[1:-1]):  # the monomial goes first
        a, b = b, a
    if not a[0] and not any(a[1:-1]):
        y = a[-1]
        return (0,) * (len(a) - 1) + (b if y == 1 else
                                      tuple([y * x for x in b]))
    out = [0] * (len(a) + len(b) - 1)
    for i, y in enumerate(b):
        if y:
            for j, x in enumerate(a, i):
                out[j] += x * y
    return tuple(out)


def _int_divmod(a: tuple, b: tuple) -> tuple[list, list, int]:
    """(q, r, den) with den * a = q * b + r over the integers, deg r < deg b.

    Long division that multiplies the work by a factor of the divisor's
    lead only on a step that does not divide exactly, so an exact
    division of primitive polynomials never grows its numbers.
    """
    lead = b[-1]
    db = len(b) - 1
    r = list(a)
    q = [0] * (len(a) - db)
    den = 1
    for k in range(len(q) - 1, -1, -1):
        top = r.pop()
        if not top:
            continue
        c, m = divmod(top, lead)
        if m:
            s = lead // math.gcd(top, lead)
            r = [x * s for x in r]
            q = [x * s for x in q]
            den *= s
            c = top * s // lead
        q[k] = c
        for i in range(db):
            r[k + i] -= c * b[i]
    return q, r, den


def _int_exact_quo(a: tuple, b: tuple):
    """a / b for primitive integer polynomials when b divides a, else None.

    A primitive divisor leaves an integer quotient (Gauss's lemma), which
    the long division finds without scaling.
    """
    q, r, den = _int_divmod(a, b)
    return None if den != 1 or any(r) else tuple(q)


def _prs_gcd(x: tuple, y: tuple) -> tuple:
    """Primitive gcd of primitive integer polynomials, by a primitive
    remainder sequence: each remainder is a positive multiple of the one
    over Q, and only its primitive part is kept."""
    while y:
        if len(y) == 1:
            return (1,)
        x, y = y, _primitive(_int_divmod(x, y)[1])[1]
    return x


def _heu_gcd(f: tuple, g: tuple):
    """(h, f / h, g / h) for primitive integer polynomials by GCDHEU, or None.

    With xi >= 2 min(|f|, |g|) + 2 (max norms), the primitive part h of
    the symmetric xi-adic digits of gcd(f(xi), g(xi)) is gcd(f, g) exactly
    when h divides both f and g (Char, Geddes and Gonnet 1989), so a
    candidate that passes trial division is the gcd, and the trial
    division gives the two cofactors.  A constant candidate divides
    everything, so it needs no division; a gcd(f(xi), g(xi)) of at most
    xi/2 is one digit, that candidate, so it needs no digits either.  The
    first xi exceeds the bound by 27, as in sympy's heuristicgcd: on the
    kernel workload that lets 98% of calls succeed at the first xi instead
    of 70%.
    """
    xi = 2 * min(max(map(abs, f)), max(map(abs, g))) + 29
    for _ in range(HEU_GCD_MAX):
        fv = gv = 0
        for c in reversed(f):
            fv = fv * xi + c
        for c in reversed(g):
            gv = gv * xi + c
        if fv and gv:
            gam = math.gcd(fv, gv)
            half = xi // 2
            if gam <= half:  # one digit: the constant candidate
                return (1,), f, g
            digits = []
            while gam:
                d = gam % xi
                if d > half:
                    d -= xi
                digits.append(d)
                gam = (gam - d) // xi
            h = _primitive(digits)[1]
            if len(h) == 1:
                return h, f, g
            cf = _int_exact_quo(f, h)
            if cf is not None:
                cg = _int_exact_quo(g, h)
                if cg is not None:
                    return h, cf, cg
        xi = xi * 73794 * math.isqrt(math.isqrt(xi)) // 27011
    return None


def _gcd_cofactors(x: tuple, y: tuple) -> tuple[tuple, tuple, tuple]:
    """(h, x / h, y / h) with h the primitive gcd of the nonzero primitive
    integer polynomials x and y: GCDHEU, else a primitive PRS whose
    cofactors come from one exact division each.

    Powers of z are split off first.  z is prime in Z[z] and divides
    neither stripped part, so with x = z^vx x' and y = z^vy y',
    gcd(x, y) = z^min(vx, vy) gcd(x', y').  The primitive gcd with a
    positive lead is unique and the cofactors are exact quotients, so the
    result is the same as without the split; a monomial z^k leaves a
    constant part and needs no GCDHEU evaluation at all.
    """
    if len(x) == 1 or len(y) == 1:
        return (1,), x, y
    if x == y:
        return x, (1,), (1,)
    if not (x[0] and y[0]):
        vx = vy = 0
        while not x[vx]:
            vx += 1
        while not y[vy]:
            vy += 1
        v = min(vx, vy)
        h, cx, cy = _gcd_cofactors(x[vx:], y[vy:])
        return (0,) * v + h, (0,) * (vx - v) + cx, (0,) * (vy - v) + cy
    found = _heu_gcd(x, y)
    if found is not None:
        return found
    h = _prs_gcd(x, y)
    if len(h) == 1:
        return h, x, y
    return h, _int_exact_quo(x, h), _int_exact_quo(y, h)


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd: powers of z split off the primitive parts, then GCDHEU,
    else a primitive PRS."""
    if a.is_zero:
        return b.monic()
    if b.is_zero:
        return a.monic()
    return Poly._monic_of(_gcd_cofactors(a._p, b._p)[0])


def poly_lcm(a: Poly, b: Poly) -> Poly:
    if a.is_zero or b.is_zero:
        return _ZERO
    return Poly._monic_of(_int_mul(a._p, _gcd_cofactors(a._p, b._p)[2]))


class RatFun:
    """Rational function num/den in z, in canonical form.

    Canonical means gcd(num, den) = 1 and den monic, so equality of values
    is structural equality.  A RatFun is also read as an element of the
    Laurent field K((z^-1)); its order there is deg den - deg num.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if isinstance(num, (int, Fraction, str)):
            num = Poly((_frac(num),))
        if den is None:
            den = Poly.one()
        elif isinstance(den, (int, Fraction, str)):
            den = Poly((_frac(den),))
        if den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero:
            num, den = Poly.zero(), Poly.one()
        else:
            _, p, q = _gcd_cofactors(num._p, den._p)
            n, d, _, _ = _parts(num, den)
            num, den = _over_monic(n, d, p, q)
        _set_num(self, num)
        _set_den(self, den)

    def __setattr__(self, name, value):
        raise AttributeError("RatFun is immutable")

    @classmethod
    def _raw(cls, num: Poly, den: Poly) -> RatFun:
        """Trusted constructor: caller guarantees canonical form."""
        self = object.__new__(cls)
        _set_num(self, num)
        _set_den(self, den)
        return self

    @classmethod
    def zpow(cls, k: int) -> RatFun:
        """z^k for any integer k (order -k)."""
        if k >= 0:
            return cls._raw(Poly.z(k), Poly.one())
        return cls._raw(Poly.one(), Poly.z(-k))

    @classmethod
    def const(cls, c) -> RatFun:
        """The constant c over 1, which is canonical as it is."""
        if not isinstance(c, (int, Fraction)):
            c = _frac(c)
        if not c:
            return cls._raw(_ZERO, _ONE)
        return cls._raw(Poly._make(c.numerator, c.denominator, (1,)), _ONE)

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @property
    def is_polynomial(self) -> bool:
        return self.den.degree == 0

    def order(self):
        """Index of the first nonzero z^-t coefficient; ORD_INF for zero."""
        if self.is_zero:
            return ORD_INF
        return self.den.degree - self.num.degree

    @property
    def is_causal(self) -> bool:
        return self.is_zero or self.order() >= 0

    def leading_coeff(self) -> Fraction:
        if self.is_zero:
            raise ValueError("leading coefficient of zero undefined")
        # num.lead / den.lead, from the integer parts in one Fraction.
        num, den = self.num, self.den
        return Fraction(num._n * den._d * num._p[-1],
                        num._d * den._n * den._p[-1])

    def laurent_coeff(self, t: int) -> Fraction:
        """Coefficient of z^-t in the expansion."""
        return self.laurent_window(t, t)[0]

    def laurent_window(self, start: int, horizon: int) -> list[Fraction]:
        """Coefficients of z^-t for t = start..horizon, in one pass.

        Indices before the order, and every index of the zero function,
        give 0; the list is empty when start > horizon.
        """
        if horizon < start:
            return []
        t0 = self.order()
        if horizon < t0:  # also the zero function, of order ORD_INF
            return [Fraction(0)] * (horizon - start + 1)
        # Long division in descending powers of z; out[k] is at index t0+k.
        # It reads only the top horizon - t0 + 1 coefficients of num and
        # den, leading first: a[k] is the coefficient of z^(deg num - k).
        count = horizon - t0 + 1
        if count == 1:
            out = [self.leading_coeff()]
        else:
            a = self.num._top(count)
            b = self.den._top(count)
            m = len(b) - 1
            blead = b[0]
            out = []
            for k in range(count):
                acc = a[k] if k < len(a) else Fraction(0)
                for i in range(1, min(k, m) + 1):
                    acc -= b[i] * out[k - i]
                out.append(acc / blead)
        if start < t0:
            return [Fraction(0)] * (t0 - start) + out
        return out[start - t0:]

    def laurent_ints(self, start: int, horizon: int) -> tuple[list[int], int]:
        """laurent_window(start, horizon) as (ints, den): the coefficients
        over the least common denominator den, built without Fractions.

        The long division runs on the primitive parts of num and den, each
        coefficient kept as a reduced pair (M_k, D_k).  Step k works over
        the lcm L of the denominators it reads and reduces
        (a_k L - sum b_i M_(k-i) L/D_(k-i)) / (b_0 L) with one gcd; the
        content is applied once, at the end.  Carrying powers of b_0
        instead would skip the gcds, but large leads are common: at m = 5
        the b_0 of an entry of a realization's I + g f has over 400 bits,
        while the reduced D_k grow by about 100 bits a step.
        """
        if horizon < start:
            return [], 1
        t0 = self.order()
        if horizon < t0:  # also the zero function, of order ORD_INF
            return [0] * (horizon - start + 1), 1
        num, den = self.num, self.den
        count = horizon - t0 + 1
        a = num._p[:-count - 1:-1]
        b = den._p[:-count - 1:-1]
        b0 = b[0]
        taps = [(i, bi) for i, bi in enumerate(b) if i and bi]
        nums, dens = [], []
        for k in range(count):
            terms = [(bi, nums[k - i], dens[k - i]) for i, bi in taps
                     if i <= k and nums[k - i]]
            ak = a[k] if k < len(a) else 0
            if terms:
                scale = _lcm_chain(d for _, _, d in terms)
                acc = ak * scale - sum(bi * m * (scale // d)
                                       for bi, m, d in terms)
            else:
                scale, acc = 1, ak
            scale *= b0
            g = math.gcd(acc, scale)
            nums.append(acc // g)
            dens.append(scale // g)
        lo = max(start - t0, 0)
        nums, dens = nums[lo:], dens[lo:]
        # Over the lcm of the reduced pairs the ints have no common factor
        # with it; the content n/d (d > 0: den is monic) needs one more gcd.
        common = math.lcm(*dens)
        n, d = num._n * den._d, num._d * den._n
        ints = [n * m * (common // dk) for m, dk in zip(nums, dens)]
        common *= d
        g = math.gcd(common, *ints)
        pad = [0] * max(t0 - start, 0)
        return pad + [x // g for x in ints], common // g

    def plus_part(self) -> Poly:
        """Truncation to indices t <= 0: the polynomial part, constant included."""
        return self.num // self.den

    def split(self) -> tuple[Poly, RatFun]:
        """(plus, minus) truncations; plus + minus = self + (t=0 coefficient)."""
        q, r = divmod(self.num, self.den)
        return q, RatFun(r, self.den) + RatFun.const(q.coeff(0))

    def _add_reduced(self, other: RatFun, sign: int) -> RatFun:
        """Sum/difference of canonical operands: one `_add_parts`."""
        if not self.num._p:
            return other if sign > 0 else -other
        if not other.num._p:
            return self
        n, d, p, q = _parts(other.num, other.den)
        return RatFun._raw(*_over_monic(*_add_parts(
            _parts(self.num, self.den), (n if sign > 0 else -n, d, p, q))))

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self._add_reduced(other, +1)

    def __radd__(self, other):
        return self.__add__(other)

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self._add_reduced(other, -1)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other._add_reduced(self, -1)

    def __neg__(self) -> RatFun:
        return RatFun._raw(-self.num, self.den)

    def _mul_reduced(self, num2: Poly, den2: Poly) -> RatFun:
        """Product with num2 / den2, a coprime pair (den2 need not be
        monic): one `_mul_parts`."""
        if not self.num._p or not num2._p:
            return RatFun._raw(_ZERO, _ONE)
        return RatFun._raw(*_over_monic(*_mul_parts(
            _parts(self.num, self.den), _parts(num2, den2))))

    def __mul__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self._mul_reduced(other.num, other.den)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __truediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("division by the zero rational function")
        return self._mul_reduced(other.den, other.num)

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other.__truediv__(self)

    def inverse(self) -> RatFun:
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero")
        return RatFun._raw(*_over_monic(*_parts(self.den, self.num)))

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = RatFun.const(other)
        return (isinstance(other, RatFun)
                and self.num == other.num and self.den == other.den)

    def __hash__(self):
        return hash(("RatFun", self.num, self.den))

    def __bool__(self) -> bool:
        return not self.is_zero

    def __str__(self) -> str:
        return quotient_text(str(self.num), str(self.den))

    def __repr__(self) -> str:
        return f"RatFun({self.num!r}, {self.den!r})"


_set_num = RatFun.num.__set__
_set_den = RatFun.den.__set__


def _parts(num: Poly, den: Poly) -> tuple:
    """(n, d, p, q) with num / den = (n / d) p / q and d > 0.

    p and q are the primitive parts of num and den.  For a coprime pair
    this is the form of every value in flight in a sum or a product:
    coprime primitive integer tuples, q with a positive lead.  n / d need
    not be reduced; `_over_monic` reduces it once, at the end.
    """
    n, d = num._n * den._d, num._d * den._n
    if d < 0:
        n, d = -n, -d
    return n, d, num._p, den._p


def _mul_parts(x: tuple, y: tuple) -> tuple:
    """The product of two values in parts form, in parts form.

    Each numerator is cancelled against the other value's denominator by
    one gcd, so the two products are coprime and need no further gcd.
    """
    n1, d1, p1, q1 = x
    n2, d2, p2, q2 = y
    if not p1 or not p2:
        return 0, 1, (), (1,)
    if len(q2) > 1 and len(p1) > 1:
        _, p1, q2 = _gcd_cofactors(p1, q2)
    if len(q1) > 1 and len(p2) > 1:
        _, p2, q1 = _gcd_cofactors(p2, q1)
    return n1 * n2, d1 * d2, _int_mul(p1, p2), _int_mul(q1, q2)


def _add_parts(x: tuple, y: tuple) -> tuple:
    """The sum of two values in parts form, in parts form.

    With g = gcd(q1, q2), q1 = g e1 and q2 = g e2, the sum is
    (s1 p1 e2 + s2 p2 e1) / (g e1 e2) over the lcm of d1 and d2.  An
    irreducible factor of e1 divides q1, so neither p1 nor e2, hence not
    the numerator; the same holds for e2.  So any common factor of the
    numerator and g e1 e2 divides g, and one gcd against g brings the sum
    to lowest terms; none is needed when g = 1.
    """
    n1, d1, p1, q1 = x
    n2, d2, p2, q2 = y
    if not p1:
        return y
    if not p2:
        return x
    k = math.gcd(d1, d2)
    s1, s2, d = n1 * (d2 // k), n2 * (d1 // k), d1 // k * d2
    g, e1, e2 = _gcd_cofactors(q1, q2)
    a, b = _int_mul(p1, e2), _int_mul(p2, e1)
    if len(a) < len(b):
        a, b, s1, s2 = b, a, s2, s1
    out = [s1 * v for v in a]
    for i, v in enumerate(b):
        out[i] += s2 * v
    c, p = _primitive(out)
    if not p:
        return 0, 1, (), (1,)
    if len(g) > 1:
        _, p, g = _gcd_cofactors(p, g)
        q = _int_mul(_int_mul(g, e1), e2)
    else:  # q1 = e1
        q = _int_mul(q1, e2)
    k = math.gcd(c, d)
    return c // k, d // k, p, q


def _over_monic(n: int, d: int, p: tuple, q: tuple) -> tuple[Poly, Poly]:
    """(num, den) for the parts form (n / d) p / q, with den monic.

    p and q are coprime primitive parts, and d > 0.  The scale of the
    monic den, its lead, moves into the numerator's denominator, and one
    gcd reduces the numerator's content.  A zero p gives the canonical
    zero.
    """
    if not p:
        return _ZERO, _ONE
    lead = q[-1]
    if lead != 1:
        d *= lead
    g = math.gcd(n, d)
    return Poly._make(n // g, d // g, p), Poly._monic_of(q)


def _lcm_chain(ds) -> int:
    """lcm of positive ints, trying a remainder before each gcd.

    A remainder is cheaper than a gcd, and the denominators a long
    division reads, latest first, often divide the first one.
    """
    out = 1
    for d in ds:
        if out % d:
            out = out // math.gcd(out, d) * d
    return out


def _coerce(x) -> RatFun | None:
    if isinstance(x, RatFun):
        return x
    if isinstance(x, (int, Fraction)):
        return RatFun.const(x)
    if isinstance(x, Poly):
        return RatFun(x)
    return None
