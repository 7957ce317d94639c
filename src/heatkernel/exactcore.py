"""Exact arithmetic kernel: rationals, polynomials, Laurent polynomials,
rational functions, and truncated Laurent expansions at the origin.

No floating point ever enters a computation here.  A `Poly` is integer
numerators over one positive denominator, so its ring operations run on ints
with one gcd per result, and a `LaurentPoly` is var^low times such a `Poly`,
so it has no arithmetic of its own; the `coeffs` and `terms` views and
`divmod` work in :class:`fractions.Fraction`.  All values are immutable
after construction and every operation is a pure function.

Polynomials are tagged with a variable name; binary operations require the
same variable on both sides.  ``poly_gcd`` runs the heuristic gcd of Char,
Geddes & Gonnet (J. Symb. Comput. 7, 1989) on primitive integer parts,
accepts its candidate only after exact trial division, and falls back to the
Euclidean algorithm (``poly_gcd_euclid``), which stays as the reference.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable

Rational = Fraction

#: degree reported for the zero polynomial
ZERO_DEGREE = -1


class ZeroDenominator(ZeroDivisionError):
    """Rational function with identically zero denominator."""


class OutOfRange(IndexError):
    """Coefficient index beyond the certified truncation of a series."""


class VariableMismatch(ValueError):
    """Binary operation between polynomials in different variables."""


class DivisionByZeroPolynomial(ZeroDivisionError):
    """divmod with a zero divisor polynomial."""


def rat(value) -> Fraction:
    """Coerce ints, Fractions and 'p/q' strings to an exact rational."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        text = value.strip()
        if "." in text or "e" in text or "E" in text:
            raise ValueError(f"not an exact rational: {value!r}")
        return Fraction(text)
    raise TypeError(f"cannot coerce {type(value).__name__} to Rational")


def _is_scalar(x) -> bool:
    return isinstance(x, (int, Fraction))


class Poly:
    """Dense univariate polynomial with a variable tag.

    Stored as integer numerators `num` (lowest degree first, no trailing
    zeros) over one positive integer `den`, with gcd(den, *num) = 1; the zero
    polynomial is ((), 1) and has degree ``ZERO_DEGREE``.  That form is
    canonical, so equality and hashing read it directly, and every ring
    operation runs on ints with one gcd to normalise its result.  `coeffs`
    is the Fraction view, built on each access and not stored.
    """

    __slots__ = ("var", "num", "den")

    def __init__(self, var: str, coeffs: Iterable = ()):
        cs = [c if type(c) in (int, Fraction) else Fraction(c) for c in coeffs]
        den = lcm(*(c.denominator for c in cs))
        self._set(var, [c.numerator * (den // c.denominator) for c in cs], den)

    def _set(self, var: str, num: list, den: int) -> "Poly":
        while num and not num[-1]:
            num.pop()
        if den < 0:
            num, den = [-c for c in num], -den
        g = gcd(den, *num)
        if g != 1:
            num, den = [c // g for c in num], den // g
        object.__setattr__(self, "var", var)
        object.__setattr__(self, "num", tuple(num))
        object.__setattr__(self, "den", den)
        return self

    @classmethod
    def from_ints(cls, var: str, num: Iterable[int], den: int = 1) -> "Poly":
        """The polynomial with coefficients num[i] / den, for integers num
        (lowest degree first) and a nonzero integer den."""
        return object.__new__(cls)._set(var, list(num), den)

    def __setattr__(self, *a):
        raise AttributeError("Poly is immutable")

    @classmethod
    def const(cls, var: str, c) -> "Poly":
        return cls(var, [c])

    @classmethod
    def variable(cls, var: str) -> "Poly":
        return cls(var, [0, 1])

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self.den) for c in self.num)

    @property
    def degree(self) -> int:
        return len(self.num) - 1 if self.num else ZERO_DEGREE

    def is_zero(self) -> bool:
        return not self.num

    def __bool__(self) -> bool:
        return bool(self.num)

    def coeff(self, k: int):
        if 0 <= k < len(self.num):
            return Fraction(self.num[k], self.den)
        return Fraction(0)

    @property
    def leading(self):
        return self.coeff(len(self.num) - 1)

    def _check(self, other: "Poly"):
        if self.var != other.var:
            raise VariableMismatch(f"{self.var!r} vs {other.var!r}")

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.var == other.var and self.num == other.num and self.den == other.den
        if _is_scalar(other):
            if other == 0:
                return not self.num
            return len(self.num) == 1 and Fraction(self.num[0], self.den) == other
        return NotImplemented

    def __hash__(self):
        return hash((self.var, self.num, self.den))

    def __add__(self, other):
        if _is_scalar(other):
            other = Poly.const(self.var, other)
        if not isinstance(other, Poly):
            return NotImplemented
        self._check(other)
        a, b, den = self.num, other.num, self.den
        if den != other.den:
            g = gcd(den, other.den)
            a = [c * (other.den // g) for c in a]
            b = [c * (den // g) for c in b]
            den = den // g * other.den
        if len(a) < len(b):
            a, b = b, a
        out = [x + y for x, y in zip(a, b)]
        out.extend(a[len(b):])
        return Poly.from_ints(self.var, out, den)

    __radd__ = __add__

    def __neg__(self):
        return Poly.from_ints(self.var, [-c for c in self.num], self.den)

    def __sub__(self, other):
        return self + (-other if isinstance(other, Poly) else -Fraction(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if _is_scalar(other):
            return self.scale(other)
        if not isinstance(other, Poly):
            return NotImplemented
        self._check(other)
        a, b = self.num, other.num
        if not a or not b:
            return Poly(self.var)
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    out[j] += x * y
        return Poly.from_ints(self.var, out, self.den * other.den)

    __rmul__ = __mul__

    def scale(self, c) -> "Poly":
        """Multiply every coefficient by a rational."""
        return Poly.from_ints(self.var, [a * c.numerator for a in self.num],
                              self.den * c.denominator)

    def __pow__(self, k: int) -> "Poly":
        if k < 0:
            raise ValueError("negative power of a polynomial")
        out = Poly.const(self.var, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __divmod__(self, other: "Poly"):
        """Exact division with remainder; requires field (Fraction) coefficients."""
        if not isinstance(other, Poly):
            raise TypeError("divmod expects a Poly divisor")
        self._check(other)
        if other.is_zero():
            raise DivisionByZeroPolynomial(f"division by zero polynomial in {self.var!r}")
        rem, div = list(self.coeffs), other.coeffs
        dq = len(rem) - len(div)
        if dq < 0:
            return Poly(self.var), self
        quot = [Fraction(0)] * (dq + 1)
        for i in range(dq, -1, -1):
            c = rem[i + len(div) - 1] / div[-1]
            quot[i] = c
            if c:
                for j, b in enumerate(div):
                    rem[i + j] -= c * b
        return Poly(self.var, quot), Poly(self.var, rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def derivative(self) -> "Poly":
        """Formal derivative with respect to the tagged variable."""
        return Poly.from_ints(self.var, [i * c for i, c in enumerate(self.num)][1:], self.den)

    def shift(self, a) -> "Poly":
        """Substitute var -> var + a for a scalar a = x/y.

        With d = deg p, s(w) = y^d p(w/y) has integer numerators; its Taylor
        shift s(w + x) by synthetic division, at w = y var, is y^d p(var + a).
        """
        a = Fraction(a)
        x, y = a.numerator, a.denominator
        if not self.num or not x:
            return self
        d = len(self.num) - 1
        s = [c * y ** (d - k) for k, c in enumerate(self.num)]
        for i in range(d):
            for k in range(d - 1, i - 1, -1):
                s[k] += x * s[k + 1]
        return Poly.from_ints(self.var, [c * y ** k for k, c in enumerate(s)],
                              self.den * y ** d)

    def subs(self, value):
        """Evaluate at `value` by Horner; value may be any ring element."""
        out = 0
        for c in reversed(self.coeffs):
            out = out * value + c
        return out

    __call__ = subs

    def to_strings(self) -> list[str]:
        return [str(c) for c in self.coeffs]

    def __repr__(self):
        if not self.num:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                parts.append(f"{c}")
            elif i == 1:
                parts.append(f"{c}*{self.var}")
            else:
                parts.append(f"{c}*{self.var}^{i}")
        return " + ".join(parts)


def primitive_coeffs(p: Poly) -> list[int]:
    """Integer coefficients of a nonzero p (lowest degree first), scaled by a
    rational constant to content 1."""
    content = gcd(*p.num)
    return [v // content for v in p.num]


def eval_int(coeffs: list[int], x: int) -> int:
    """Horner evaluation of an integer coefficient list (lowest degree first)."""
    out = 0
    for c in reversed(coeffs):
        out = out * x + c
    return out


def eval_homogeneous(coeffs: list[int], x: int, y: int) -> int:
    """y^d p(x/y) for p given by its integer coefficients (lowest degree
    first), d = len(coeffs) - 1: Horner evaluation of the homogenised form."""
    out, w = 0, 1
    for c in reversed(coeffs):
        out = out * x + c * w
        w *= y
    return out


def integer_roots(coeffs: list[int]) -> list[int]:
    """Sorted distinct integer zeros of a nonzero integer polynomial
    (coefficients lowest degree first).

    Every real zero lies strictly inside the Cauchy bound
    B = 1 + max_i ceil(|a_i| / |a_d|).  Between consecutive points of
    _brackets the polynomial is monotone or the points are adjacent integers,
    so each integer zero is one of those points.
    """
    while coeffs and not coeffs[-1]:
        coeffs = coeffs[:-1]
    if not coeffs:
        raise ValueError("the zero polynomial vanishes everywhere")
    if len(coeffs) == 1:
        return []
    lead = abs(coeffs[-1])
    bound = 1 + max(-(-abs(c) // lead) for c in coeffs[:-1])
    return [x for x in _brackets(coeffs, -bound, bound) if eval_int(coeffs, x) == 0]


def _brackets(coeffs: list[int], lo: int, hi: int) -> list[int]:
    """Sorted integers in [lo, hi], lo and hi among them, that include the
    floor and the ceiling of every real sign change of the polynomial there.

    The points of the derivative split [lo, hi] into stretches on which the
    polynomial is monotone; a stretch whose ends have opposite signs holds one
    sign change, found by bisection to integer resolution.
    """
    if len(coeffs) < 2:
        return [lo, hi]
    points = _brackets([i * c for i, c in enumerate(coeffs)][1:], lo, hi)
    found = []
    for a, b in zip(points, points[1:]):
        sa = eval_int(coeffs, a)
        if b - a < 2 or sa * eval_int(coeffs, b) >= 0:
            continue
        while b - a > 1:
            mid = (a + b) // 2
            v = eval_int(coeffs, mid)
            if not v:
                a = b = mid
            elif (v > 0) == (sa > 0):
                a = mid
            else:
                b = mid
        found += [a, b]
    return sorted(set(points + found))


def _divides(g: list[int], a: list[int]) -> bool:
    """Whether g divides a in Z[x], by trial division (lowest degree first)."""
    rem = list(a)
    dg, lead = len(g) - 1, g[-1]
    for i in range(len(rem) - 1, dg - 1, -1):
        q, r = divmod(rem[i], lead)
        if r:
            return False
        if q:
            for k in range(dg + 1):
                rem[i - dg + k] -= q * g[k]
    return not any(rem[:dg])


def _gcd_heuristic(a: list[int], b: list[int]) -> list[int] | None:
    """GCDHEU on primitive integer polynomials of positive degree.

    The symmetric base-xi digits of gcd(a(xi), b(xi)) are the coefficients of
    a candidate; with xi >= 2 min(|a|, |b|) + 2 its primitive part is the gcd
    as soon as it divides both inputs.  None when six points all fail.
    """
    xi = 2 * min(max(map(abs, a)), max(map(abs, b))) + 2
    for _ in range(6):
        gamma = gcd(eval_int(a, xi), eval_int(b, xi))
        digits = []
        while gamma:
            d = gamma % xi
            if 2 * d > xi:
                d -= xi
            digits.append(d)
            gamma = (gamma - d) // xi
        content = gcd(*digits)
        g = [d // content for d in digits]
        if _divides(g, a) and _divides(g, b):
            return g
        xi = xi * 73794 // 27011
    return None


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd over Fraction coefficients.

    Nonconstant inputs go through the heuristic gcd on their primitive
    integer parts; the Euclidean reference decides the rest and whatever the
    heuristic gives up on.
    """
    a._check(b)
    if a.degree > 0 and b.degree > 0:
        g = _gcd_heuristic(primitive_coeffs(a), primitive_coeffs(b))
        if g is not None:
            return Poly.from_ints(a.var, g, g[-1])
    return poly_gcd_euclid(a, b)


def poly_gcd_euclid(a: Poly, b: Poly) -> Poly:
    """Monic gcd over Fraction coefficients (Euclidean algorithm)."""
    a._check(b)
    while not b.is_zero():
        a, b = b, a % b
        if not b.is_zero():
            b = b.scale(1 / b.leading)
    if a.is_zero():
        return a
    return a.scale(1 / a.leading)


class LaurentPoly:
    """Finite Laurent polynomial var^low * poly.

    `poly` is an integer-numerator `Poly` whose constant term is nonzero (the
    zero Laurent polynomial has low = 0 and the zero poly), so the form is
    canonical and every ring operation is the `Poly` one on ints.  `terms`
    is the Fraction view {exponent: coefficient}, built on each access.
    """

    __slots__ = ("low", "poly")

    def __init__(self, var: str = "x", terms: dict | None = None):
        terms = {int(k): c for k, c in (terms or {}).items() if c}
        low, high = min(terms, default=0), max(terms, default=-1)
        self._set(low, Poly(var, [terms.get(k, 0) for k in range(low, high + 1)]))

    def _set(self, low: int, poly: Poly) -> "LaurentPoly":
        zeros = next((i for i, c in enumerate(poly.num) if c), 0)
        if zeros:
            poly = Poly.from_ints(poly.var, poly.num[zeros:], poly.den)
        object.__setattr__(self, "low", low + zeros if poly else 0)
        object.__setattr__(self, "poly", poly)
        return self

    @classmethod
    def from_poly(cls, poly: Poly, low: int = 0) -> "LaurentPoly":
        """var^low * poly, in the variable of poly."""
        return object.__new__(cls)._set(low, poly)

    def __setattr__(self, *a):
        raise AttributeError("LaurentPoly is immutable")

    @classmethod
    def term(cls, k: int, c=1, var: str = "x") -> "LaurentPoly":
        return cls(var, {k: c})

    @classmethod
    def const(cls, c, var: str = "x") -> "LaurentPoly":
        return cls(var, {0: c})

    @property
    def var(self) -> str:
        return self.poly.var

    @property
    def terms(self) -> dict[int, Fraction]:
        return {self.low + i: Fraction(c, self.poly.den) for i, c in enumerate(self.poly.num) if c}

    def is_zero(self) -> bool:
        return not self.poly

    def __bool__(self):
        return bool(self.poly)

    @property
    def min_exp(self) -> int:
        if not self.poly:
            raise ValueError("zero Laurent polynomial has no support")
        return self.low

    @property
    def max_exp(self) -> int:
        return self.min_exp + self.poly.degree

    def coeff(self, k: int) -> Fraction:
        return self.poly.coeff(k - self.low)

    def _check(self, other: "LaurentPoly"):
        self.poly._check(other.poly)

    def __eq__(self, other):
        if isinstance(other, LaurentPoly):
            return self.low == other.low and self.poly == other.poly
        if _is_scalar(other):
            return self.low == 0 and self.poly == other
        return NotImplemented

    def __hash__(self):
        return hash((self.low, self.poly))

    def _raised(self, low: int) -> Poly:
        """poly * var^(self.low - low), for low <= self.low."""
        p = self.poly
        return Poly.from_ints(p.var, (0,) * (self.low - low) + p.num, p.den)

    def __add__(self, other):
        if _is_scalar(other):
            other = LaurentPoly.const(other, self.var)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        self._check(other)
        low = min(self.low, other.low)
        return LaurentPoly.from_poly(self._raised(low) + other._raised(low), low)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly.from_poly(-self.poly, self.low)

    def __sub__(self, other):
        if _is_scalar(other):
            other = LaurentPoly.const(other, self.var)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if _is_scalar(other):
            return LaurentPoly.from_poly(self.poly.scale(other), self.low)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return LaurentPoly.from_poly(self.poly * other.poly, self.low + other.low)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "LaurentPoly":
        if k < 0:
            raise ValueError("negative power; use RationalFunc")
        return LaurentPoly.from_poly(self.poly ** k, self.low * k)

    def shift_exp(self, k: int) -> "LaurentPoly":
        """Multiply by var**k."""
        return LaurentPoly.from_poly(self.poly, self.low + k)

    def inverse_var(self) -> "LaurentPoly":
        """Substitute var -> 1/var."""
        p = self.poly
        return LaurentPoly.from_poly(Poly.from_ints(p.var, p.num[::-1], p.den),
                                     -self.low - p.degree)

    def subs(self, value):
        """Evaluate at a nonzero point (Fraction, float or complex)."""
        out = None
        for e, c in self.terms.items():
            term = (c if not isinstance(value, complex) else complex(c)) * value ** e
            out = term if out is None else out + term
        return out if out is not None else 0 * value

    __call__ = subs

    def __repr__(self):
        if not self.poly:
            return "0"
        return " + ".join(f"{c}" if e == 0 else f"{c}*{self.var}^{e}"
                          for e, c in self.terms.items())


class RationalFunc:
    """Quotient of two Laurent polynomials, kept in a reduced normal form.

    Normalization: the denominator is shifted to be a true polynomial with a
    nonzero constant term (the extracted power of the variable moves to the
    numerator), common factors of (x-1), (x+1) and x are cancelled, and the
    denominator's constant term is scaled to 1.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den: LaurentPoly):
        if isinstance(num, (int, Fraction)):
            num = LaurentPoly.const(num, den.var if isinstance(den, LaurentPoly) else "x")
        if isinstance(den, (int, Fraction)):
            den = LaurentPoly.const(den, num.var)
        num._check(den)
        if den.is_zero():
            raise ZeroDenominator("denominator is identically zero")
        # the power of x leaves the denominator; x cannot divide either poly
        low, n, d = num.low - den.low, num.poly, den.poly
        if not n:
            low, d = 0, Poly.const(n.var, 1)
        for root in (1, -1):
            linear = Poly.from_ints(n.var, (-root, 1))
            while eval_int(n.num, root) == 0 == eval_int(d.num, root):
                n, d = n // linear, d // linear
        c = Fraction(d.den, d.num[0])
        object.__setattr__(self, "num", LaurentPoly.from_poly(n.scale(c), low))
        object.__setattr__(self, "den", LaurentPoly.from_poly(d.scale(c)))

    def __setattr__(self, *a):
        raise AttributeError("RationalFunc is immutable")

    @classmethod
    def from_laurent(cls, p: LaurentPoly) -> "RationalFunc":
        return cls(p, LaurentPoly.const(1, p.var))

    @property
    def var(self) -> str:
        return self.num.var

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        if _is_scalar(other):
            other = RationalFunc(LaurentPoly.const(other, self.var),
                                 LaurentPoly.const(1, self.var))
        if not isinstance(other, RationalFunc):
            return NotImplemented
        return (self.num * other.den) == (other.num * self.den)

    def __add__(self, other):
        if _is_scalar(other):
            other = RationalFunc.from_laurent(LaurentPoly.const(other, self.var))
        elif isinstance(other, LaurentPoly):
            other = RationalFunc.from_laurent(other)
        if not isinstance(other, RationalFunc):
            return NotImplemented
        return RationalFunc(self.num * other.den + other.num * self.den,
                            self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RationalFunc(-self.num, self.den)

    def __sub__(self, other):
        if _is_scalar(other) or isinstance(other, LaurentPoly):
            return self + (-1 * other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if _is_scalar(other):
            return RationalFunc(self.num * other, self.den)
        if isinstance(other, LaurentPoly):
            other = RationalFunc.from_laurent(other)
        if not isinstance(other, RationalFunc):
            return NotImplemented
        return RationalFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if _is_scalar(other):
            other = RationalFunc.from_laurent(LaurentPoly.const(other, self.var))
        elif isinstance(other, LaurentPoly):
            other = RationalFunc.from_laurent(other)
        if not isinstance(other, RationalFunc):
            return NotImplemented
        if other.is_zero():
            raise ZeroDenominator("division by the zero rational function")
        return RationalFunc(self.num * other.den, self.den * other.num)

    def inverse_var(self) -> "RationalFunc":
        """Substitute x -> 1/x."""
        return RationalFunc(self.num.inverse_var(), self.den.inverse_var())

    def subs(self, value):
        """Numeric evaluation at a point where the denominator is nonzero."""
        n = self.num.subs(value)
        d = self.den.subs(value)
        return n / d

    __call__ = subs

    def __repr__(self):
        return f"({self.num!r}) / ({self.den!r})"


class SeriesSegment:
    """First `len(coeffs)` Laurent coefficients of a function at the origin.

    Represents sum of coeffs[i] * x**(first+i) with a certified remainder of
    order first+len(coeffs).  Coefficients below `first` are exactly zero.
    """

    __slots__ = ("first", "coeffs")

    def __init__(self, first: int, coeffs: Iterable[Fraction]):
        object.__setattr__(self, "first", int(first))
        object.__setattr__(self, "coeffs", tuple(Fraction(c) for c in coeffs))

    def __setattr__(self, *a):
        raise AttributeError("SeriesSegment is immutable")

    @property
    def truncation_order(self) -> int:
        return self.first + len(self.coeffs)

    def coefficient(self, k: int) -> Fraction:
        if k >= self.truncation_order:
            raise OutOfRange(f"coefficient {k} beyond certified order {self.truncation_order}")
        if k < self.first:
            return Fraction(0)
        return self.coeffs[k - self.first]

    def __eq__(self, other):
        if not isinstance(other, SeriesSegment):
            return NotImplemented
        return self.first == other.first and self.coeffs == other.coeffs

    def __repr__(self):
        return f"SeriesSegment(first={self.first}, coeffs={[str(c) for c in self.coeffs]})"


def series_at_zero(f: RationalFunc, count: int) -> SeriesSegment:
    """First `count` exact Laurent coefficients of f at x = 0.

    The leading exponent is f.num.low; the normal form of RationalFunc makes
    the denominator a polynomial with constant term 1, so power-series
    division needs no division.
    """
    if count <= 0:
        raise ValueError("count must be positive")
    a, b = f.num.poly.coeffs, f.den.poly.coeffs
    out: list[Fraction] = []
    for k in range(count):
        acc = a[k] if k < len(a) else Fraction(0)
        for i in range(1, min(k, len(b) - 1) + 1):
            acc -= b[i] * out[k - i]
        out.append(acc)
    return SeriesSegment(f.num.low, out)


class PolyFraction:
    """Rational function of a polynomial variable (e.g. the lattice site n).

    Stored as num/den, two Polys reduced by their monic gcd, den monic.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly | None = None):
        if _is_scalar(num):
            raise TypeError("PolyFraction needs a Poly numerator")
        if den is None:
            den = Poly.const(num.var, 1)
        num._check(den)
        if den.is_zero():
            raise ZeroDenominator(f"zero denominator in variable {num.var!r}")
        if num.is_zero():
            den = Poly.const(num.var, 1)
        else:
            g = poly_gcd(num, den)
            if g.degree > 0:
                num = num // g
                den = den // g
            lead = den.leading
            if lead != 1:
                num = num.scale(1 / lead)
                den = den.scale(1 / lead)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *a):
        raise AttributeError("PolyFraction is immutable")

    @classmethod
    def const(cls, var: str, c) -> "PolyFraction":
        return cls(Poly.const(var, c))

    @property
    def var(self) -> str:
        return self.num.var

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        if _is_scalar(other):
            return self.den.degree == 0 and self.num == Fraction(other) * self.den
        if not isinstance(other, PolyFraction):
            return NotImplemented
        return (self.num * other.den) == (other.num * self.den)

    def __hash__(self):
        return hash((self.num, self.den))

    def _coerce(self, other) -> "PolyFraction | None":
        if _is_scalar(other):
            return PolyFraction.const(self.var, other)
        if isinstance(other, Poly):
            return PolyFraction(other)
        if isinstance(other, PolyFraction):
            return other
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return PolyFraction(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        return PolyFraction(-self.num, self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return PolyFraction(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero():
            raise ZeroDenominator("division by zero rational function")
        return PolyFraction(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def shift(self, a) -> "PolyFraction":
        """Substitute var -> var + a."""
        return PolyFraction(self.num.shift(a), self.den.shift(a))

    def subs(self, value: Fraction) -> Fraction:
        """Exact value at a rational point, by integer Horner.

        With num = a(var)/A and den = b(var)/B for integer polynomials a, b
        and value = x/y, num/den = a^h(x, y) B y^deg(b) / (b^h(x, y) A
        y^deg(a)), where p^h(x, y) = y^deg(p) p(x/y).
        """
        value = Fraction(value)
        x, y = value.numerator, value.denominator
        a, A, b, B = self.num.num, self.num.den, self.den.num, self.den.den
        bottom = eval_homogeneous(b, x, y)
        if bottom == 0:
            raise ZeroDenominator(f"pole at {self.var} = {value}")
        top = eval_homogeneous(a, x, y) * B * y ** (len(b) - 1)
        return Fraction(top, bottom * A * y ** max(len(a) - 1, 0))

    __call__ = subs

    def float_at(self, x: int) -> float:
        """float(self.subs(x)) at an integer x: one correctly rounded int / int."""
        top = eval_int(self.num.num, x) * self.den.den
        return top / (eval_int(self.den.num, x) * self.num.den)

    def __repr__(self):
        if self.den.degree == 0:
            return repr(self.num)
        return f"({self.num!r}) / ({self.den!r})"
