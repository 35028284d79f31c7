"""Exact univariate polynomials and rational functions in z over the rationals.

Everything here is a value of the rational subfield of the Laurent series
field K((z^-1)) with K = Q.  The central quantity is the order of an
element: the index of the first nonzero coefficient of its expansion in
powers of z^-1 (larger order = more delay).  All arithmetic is exact;
there is no floating point anywhere in this package.
"""

from __future__ import annotations

import math
from fractions import Fraction

# Order of the zero element.  Finite orders are plain ints.
ORD_INF = math.inf


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


class Poly:
    """Polynomial in z with Fraction coefficients, stored ascending by power.

    Canonical form: no trailing zero coefficients, so the last stored
    coefficient is the leading one.  The zero polynomial stores ().
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [_frac(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @classmethod
    def zero(cls) -> Poly:
        return cls(())

    @classmethod
    def one(cls) -> Poly:
        return cls((1,))

    @classmethod
    def const(cls, c) -> Poly:
        return cls((c,))

    @classmethod
    def z(cls, power: int = 1) -> Poly:
        if power < 0:
            raise ValueError("Poly.z needs a nonnegative power")
        return cls((0,) * power + (1,))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree, with the convention deg 0 = -1."""
        return len(self.coeffs) - 1

    @property
    def lead(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, i: int) -> Fraction:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return Fraction(0)

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def monic(self) -> Poly:
        if self.is_zero:
            return self
        inv = 1 / self.coeffs[-1]
        return Poly(c * inv for c in self.coeffs)

    def shift(self, k: int) -> Poly:
        """Multiply by z^k, k >= 0."""
        if k < 0:
            raise ValueError("negative shift")
        if self.is_zero:
            return self
        return Poly((Fraction(0),) * k + self.coeffs)

    def __add__(self, other: Poly) -> Poly:
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    def __sub__(self, other: Poly) -> Poly:
        return self + (-other)

    def __neg__(self) -> Poly:
        return Poly(-c for c in self.coeffs)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Poly(c * other for c in self.coeffs)
        if not isinstance(other, Poly):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return Poly.zero()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return Poly(out)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __divmod__(self, other: Poly):
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dlead = other.lead
        ddeg = other.degree
        q = [Fraction(0)] * max(len(rem) - ddeg, 0)
        while len(rem) - 1 >= ddeg and rem:
            k = len(rem) - 1 - ddeg
            c = rem[-1] / dlead
            q[k] = c
            for i, b in enumerate(other.coeffs):
                rem[k + i] -= c * b
            while rem and rem[-1] == 0:
                rem.pop()
        return Poly(q), Poly(rem)

    def __floordiv__(self, other: Poly) -> Poly:
        return divmod(self, other)[0]

    def __mod__(self, other: Poly) -> Poly:
        return divmod(self, other)[1]

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(("Poly", self.coeffs))

    def __bool__(self) -> bool:
        return not self.is_zero

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        terms = []
        for i in range(self.degree, -1, -1):
            c = self.coeff(i)
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                mag = "" if abs(c) == 1 else f"{abs(c)}*"
                sign = "-" if c < 0 else ""
                zp = "z" if i == 1 else f"z^{i}"
                terms.append(f"{sign}{mag}{zp}" if not terms else f"{mag}{zp}")
            if len(terms) > 1:
                terms[-1] = ("- " if c < 0 else "+ ") + terms[-1].lstrip("-")
        return " ".join(terms)

    def __repr__(self) -> str:
        return f"Poly({list(self.coeffs)!r})"


def _int_coeffs(p: Poly) -> list[int]:
    scale = 1
    for c in p.coeffs:
        scale = scale * c.denominator // math.gcd(scale, c.denominator)
    return [int(c * scale) for c in p.coeffs]


def _int_primitive(c: list[int]) -> list[int]:
    g = 0
    for x in c:
        g = math.gcd(g, x)
        if g == 1:
            break
    if g > 1:
        c = [x // g for x in c]
    if c and c[-1] < 0:
        c = [-x for x in c]
    return c


def _int_pseudo_rem(a: list[int], b: list[int]) -> list[int]:
    """Pseudo-remainder of integer coefficient lists (ascending)."""
    r = list(a)
    db = len(b) - 1
    lead = b[-1]
    while len(r) - 1 >= db and r:
        k = len(r) - 1 - db
        top = r[-1]
        r = [x * lead for x in r]
        for i, bc in enumerate(b):
            r[k + i] -= top * bc
        while r and r[-1] == 0:
            r.pop()
    return r


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd via a primitive remainder sequence over the integers."""
    if a.is_zero:
        return b.monic()
    if b.is_zero:
        return a.monic()
    if a.degree == 0 or b.degree == 0:
        return Poly.one()
    x = _int_primitive(_int_coeffs(a))
    y = _int_primitive(_int_coeffs(b))
    while y:
        if len(y) == 1:
            return Poly.one()
        x, y = y, _int_primitive(_int_pseudo_rem(x, y))
    lead = Fraction(x[-1])
    return Poly(Fraction(c) / lead for c in x)


def poly_lcm(a: Poly, b: Poly) -> Poly:
    if a.is_zero or b.is_zero:
        return Poly.zero()
    g = poly_gcd(a, b)
    return ((a * b) // g).monic()


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
            g = poly_gcd(num, den)
            if g.degree > 0:
                num, den = num // g, den // g
            lead = den.lead
            if lead != 1:
                inv = 1 / lead
                num = num * inv
                den = den * inv
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RatFun is immutable")

    @classmethod
    def _raw(cls, num: Poly, den: Poly) -> RatFun:
        """Trusted constructor: caller guarantees canonical form."""
        self = object.__new__(cls)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        return self

    @classmethod
    def zpow(cls, k: int) -> RatFun:
        """z^k for any integer k (order -k)."""
        if k >= 0:
            return cls._raw(Poly.z(k), Poly.one())
        return cls._raw(Poly.one(), Poly.z(-k))

    @classmethod
    def const(cls, c) -> RatFun:
        return cls(Poly.const(c))

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

    @property
    def is_strictly_causal(self) -> bool:
        return self.is_zero or self.order() >= 1

    @property
    def is_unit(self) -> bool:
        """Unit of the power-series ring: order exactly zero."""
        return not self.is_zero and self.order() == 0

    def leading_coeff(self) -> Fraction:
        if self.is_zero:
            raise ValueError("leading coefficient of zero undefined")
        return self.num.lead / self.den.lead

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
        n = self.num.degree
        m = self.den.degree
        a = self.num.coeffs
        b = self.den.coeffs
        blead = b[-1]
        out: list[Fraction] = []
        for k in range(horizon - t0 + 1):
            acc = a[n - k] if k <= n else Fraction(0)
            for i in range(1, min(k, m) + 1):
                acc -= b[m - i] * out[k - i]
            out.append(acc / blead)
        if start < t0:
            return [Fraction(0)] * (t0 - start) + out
        return out[start - t0:]

    def expand(self, horizon: int) -> TruncatedSeries:
        """Truncated Laurent expansion up to index `horizon` inclusive."""
        if self.is_zero:
            return TruncatedSeries(horizon, (Fraction(0),), horizon)
        t0 = self.order()
        if horizon < t0:
            raise ValueError(f"horizon {horizon} precedes order {t0}")
        return TruncatedSeries(t0, self.laurent_window(t0, horizon), horizon)

    def plus_part(self) -> Poly:
        """Truncation to indices t <= 0: the polynomial part, constant included."""
        return self.num // self.den

    def split(self) -> tuple[Poly, RatFun]:
        """(plus, minus) truncations; plus + minus = self + (t=0 coefficient)."""
        q, r = divmod(self.num, self.den)
        return q, RatFun(r, self.den) + RatFun.const(q.coeff(0))

    def _add_reduced(self, other: RatFun, sign: int) -> RatFun:
        """Sum/difference of canonical operands, reduced without a full gcd.

        Any common factor of the combined numerator and the lcm denominator
        divides gcd(den1, den2), so one small gcd finishes the reduction.
        """
        if self.is_zero:
            return other if sign > 0 else -other
        if other.is_zero:
            return self
        onum = other.num if sign > 0 else -other.num
        if self.den.degree == 0 and other.den.degree == 0:
            return RatFun._raw(self.num + onum, Poly.one())
        g = poly_gcd(self.den, other.den)
        if g.degree == 0:
            num = self.num * other.den + onum * self.den
            if num.is_zero:
                return RatFun._raw(Poly.zero(), Poly.one())
            return RatFun._raw(num, self.den * other.den)
        num = self.num * (other.den // g) + onum * (self.den // g)
        if num.is_zero:
            return RatFun._raw(Poly.zero(), Poly.one())
        h = poly_gcd(num, g)
        if h.degree > 0:
            num = num // h
        den = (self.den // g) * (other.den // h)
        return RatFun._raw(num, den)

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
        """Product with cross-cancellation; operands must be canonical."""
        if self.is_zero or num2.is_zero:
            return RatFun._raw(Poly.zero(), Poly.one())
        num1, den1 = self.num, self.den
        if den2.degree > 0 and num1.degree > 0:
            g = poly_gcd(num1, den2)
            if g.degree > 0:
                num1, den2 = num1 // g, den2 // g
        if den1.degree > 0 and num2.degree > 0:
            g = poly_gcd(num2, den1)
            if g.degree > 0:
                num2, den1 = num2 // g, den1 // g
        num = num1 * num2
        den = den1 * den2
        lead = den.lead
        if lead != 1:
            inv = 1 / lead
            num, den = num * inv, den * inv
        return RatFun._raw(num, den)

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
        num, den = self.den, self.num
        lead = den.lead
        if lead != 1:
            inv = 1 / lead
            num, den = num * inv, den * inv
        return RatFun._raw(num, den)

    def __pow__(self, k: int) -> RatFun:
        if k < 0:
            return self.inverse() ** (-k)
        out = RatFun.const(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = RatFun.const(other)
        return (isinstance(other, RatFun)
                and self.num == other.num and self.den == other.den)

    def __hash__(self):
        return hash(("RatFun", self.num.coeffs, self.den.coeffs))

    def __bool__(self) -> bool:
        return not self.is_zero

    def __str__(self) -> str:
        if self.is_polynomial:
            return str(self.num)
        num = str(self.num)
        if " " in num:
            num = f"({num})"
        den = str(self.den)
        if " " in den:
            den = f"({den})"
        return f"{num}/{den}"

    def __repr__(self) -> str:
        return f"RatFun({self.num!r}, {self.den!r})"


def _coerce(x) -> RatFun | None:
    if isinstance(x, RatFun):
        return x
    if isinstance(x, (int, Fraction)):
        return RatFun.const(x)
    if isinstance(x, Poly):
        return RatFun(x)
    return None


class TruncatedSeries:
    """Finite window of a Laurent expansion in z^-1.

    Coefficients are indexed start_index, start_index+1, ..., horizon.
    Normalized so the first stored coefficient is nonzero, except that the
    zero-on-window series is stored as the single coefficient 0 at the
    horizon.  Nothing beyond the horizon is known.
    """

    __slots__ = ("start_index", "coeffs", "horizon")

    def __init__(self, start_index: int, coeffs, horizon: int):
        cs = [_frac(c) for c in coeffs]
        if len(cs) != horizon - start_index + 1:
            raise ValueError("coefficient count does not match window")
        while cs and cs[0] == 0 and len(cs) > 1:
            cs.pop(0)
            start_index += 1
        if not cs:
            cs = [Fraction(0)]
            start_index = horizon
        object.__setattr__(self, "start_index", start_index)
        object.__setattr__(self, "coeffs", tuple(cs))
        object.__setattr__(self, "horizon", horizon)

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedSeries is immutable")

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def coeff(self, t: int) -> Fraction:
        if t > self.horizon:
            raise ValueError(f"index {t} beyond horizon {self.horizon}")
        if t < self.start_index:
            return Fraction(0)
        return self.coeffs[t - self.start_index]

    def first_nonzero(self):
        """(index, coefficient) of the first nonzero term, or None."""
        for i, c in enumerate(self.coeffs):
            if c != 0:
                return self.start_index + i, c
        return None

    def __eq__(self, other) -> bool:
        return (isinstance(other, TruncatedSeries)
                and self.start_index == other.start_index
                and self.coeffs == other.coeffs
                and self.horizon == other.horizon)

    def __hash__(self):
        return hash((self.start_index, self.coeffs, self.horizon))

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            t = self.start_index + i
            if t == 0:
                terms.append(str(c))
            else:
                mag = "" if c == 1 else ("-" if c == -1 else f"{c}*")
                terms.append(f"{mag}z^{-t}")
        return " + ".join(terms) + f" + O(z^{-(self.horizon + 1)})"
