"""Exact arithmetic kernel: rationals, polynomials, Laurent polynomials,
rational functions, and truncated Laurent expansions at the origin.

Everything is built on :class:`fractions.Fraction`; no floating point ever
enters a computation here.  All values are immutable after construction and
every operation is a pure function, so objects can be shared freely between
threads.

Polynomials are dense lists of ``Fraction`` coefficients tagged with a
variable name; binary operations require the same variable on both sides.
``poly_gcd`` runs the heuristic gcd of Char, Geddes & Gonnet (J. Symb.
Comput. 7, 1989) on primitive integer parts, accepts its candidate only after
exact trial division, and falls back to the Euclidean algorithm
(``poly_gcd_euclid``), which stays as the reference.
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


def rat_str(value: Fraction) -> str:
    """Serialize a rational as 'p/q', or just 'p' when q == 1."""
    return str(value)


def _is_scalar(x) -> bool:
    return isinstance(x, (int, Fraction))


class Poly:
    """Dense univariate polynomial with a variable tag.

    Coefficients are stored lowest degree first with no trailing zeros.
    The zero polynomial has an empty coefficient tuple and degree
    ``ZERO_DEGREE``.
    """

    __slots__ = ("var", "coeffs")

    def __init__(self, var: str, coeffs: Iterable = ()):
        cs = [Fraction(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        object.__setattr__(self, "var", var)
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, *a):
        raise AttributeError("Poly is immutable")

    @classmethod
    def const(cls, var: str, c) -> "Poly":
        return cls(var, [c])

    @classmethod
    def variable(cls, var: str) -> "Poly":
        return cls(var, [0, 1])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1 if self.coeffs else ZERO_DEGREE

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def coeff(self, k: int):
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Fraction(0)

    @property
    def leading(self):
        if not self.coeffs:
            return Fraction(0)
        return self.coeffs[-1]

    def _check(self, other: "Poly"):
        if self.var != other.var:
            raise VariableMismatch(f"{self.var!r} vs {other.var!r}")

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.var == other.var and self.coeffs == other.coeffs
        if _is_scalar(other):
            if other == 0:
                return not self.coeffs
            return len(self.coeffs) == 1 and self.coeffs[0] == other
        return NotImplemented

    def __hash__(self):
        return hash((self.var, self.coeffs))

    def __add__(self, other):
        if _is_scalar(other):
            other = Poly.const(self.var, other)
        if not isinstance(other, Poly):
            return NotImplemented
        self._check(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Poly(self.var, out)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.var, [-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other if isinstance(other, Poly) else -Fraction(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if _is_scalar(other):
            return self.scale(Fraction(other))
        if not isinstance(other, Poly):
            return NotImplemented
        self._check(other)
        if not self.coeffs or not other.coeffs:
            return Poly(self.var)
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    out[i + j] = out[i + j] + a * b
        return Poly(self.var, out)

    def __rmul__(self, other):
        return self.__mul__(other)

    def scale(self, c) -> "Poly":
        """Multiply every coefficient by a rational."""
        if not c:
            return Poly(self.var)
        return Poly(self.var, [a * c for a in self.coeffs])

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
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return Poly(self.var), self
        quot = [Fraction(0)] * (dq + 1)
        lead = other.coeffs[-1]
        for i in range(dq, -1, -1):
            c = rem[i + len(other.coeffs) - 1] / lead
            quot[i] = c
            if c:
                for j, b in enumerate(other.coeffs):
                    rem[i + j] -= c * b
        return Poly(self.var, quot), Poly(self.var, rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def derivative(self) -> "Poly":
        """Formal derivative with respect to the tagged variable."""
        return Poly(self.var, [i * c for i, c in enumerate(self.coeffs)][1:])

    def shift(self, a) -> "Poly":
        """Substitute var -> var + a for a scalar a (binomial expansion)."""
        a = Fraction(a)
        if not self.coeffs or a == 0:
            return self
        out = [Fraction(0)] * len(self.coeffs)
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            # c * (x + a)^k
            binom = Fraction(1)
            power = Fraction(1)
            for l in range(k, -1, -1):
                out[l] = out[l] + c * binom * power
                binom = binom * l / (k - l + 1)
                power = power * a
        return Poly(self.var, out)

    def subs(self, value):
        """Evaluate at `value` by Horner; value may be any ring element."""
        out = 0
        for c in reversed(self.coeffs):
            out = out * value + c
        return out

    __call__ = subs

    def to_strings(self) -> list[str]:
        return [rat_str(c) for c in self.coeffs]

    def __repr__(self):
        if not self.coeffs:
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
    den = lcm(*(c.denominator for c in p.coeffs))
    ints = [c.numerator * (den // c.denominator) for c in p.coeffs]
    content = gcd(*ints)
    return [v // content for v in ints]


def eval_int(coeffs: list[int], x: int) -> int:
    """Horner evaluation of an integer coefficient list (lowest degree first)."""
    out = 0
    for c in reversed(coeffs):
        out = out * x + c
    return out


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
            return Poly(a.var, [Fraction(c, g[-1]) for c in g])
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
    """Finite Laurent polynomial: sparse map exponent -> Fraction coefficient."""

    __slots__ = ("var", "terms")

    def __init__(self, var: str = "x", terms: dict | None = None):
        clean = {}
        if terms:
            for k, c in terms.items():
                c = Fraction(c) if _is_scalar(c) else c
                if c:
                    clean[int(k)] = c
        object.__setattr__(self, "var", var)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *a):
        raise AttributeError("LaurentPoly is immutable")

    @classmethod
    def term(cls, k: int, c=1, var: str = "x") -> "LaurentPoly":
        return cls(var, {k: c})

    @classmethod
    def const(cls, c, var: str = "x") -> "LaurentPoly":
        return cls(var, {0: c})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    @property
    def min_exp(self) -> int:
        if not self.terms:
            raise ValueError("zero Laurent polynomial has no support")
        return min(self.terms)

    @property
    def max_exp(self) -> int:
        if not self.terms:
            raise ValueError("zero Laurent polynomial has no support")
        return max(self.terms)

    def coeff(self, k: int) -> Fraction:
        return self.terms.get(k, Fraction(0))

    def _check(self, other: "LaurentPoly"):
        if self.var != other.var:
            raise VariableMismatch(f"{self.var!r} vs {other.var!r}")

    def __eq__(self, other):
        if isinstance(other, LaurentPoly):
            return self.var == other.var and self.terms == other.terms
        if _is_scalar(other):
            if other == 0:
                return not self.terms
            return self.terms == {0: Fraction(other)}
        return NotImplemented

    def __hash__(self):
        return hash((self.var, tuple(sorted(self.terms.items()))))

    def __add__(self, other):
        if _is_scalar(other):
            other = LaurentPoly.const(other, self.var)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        self._check(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, Fraction(0)) + c
        return LaurentPoly(self.var, out)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly(self.var, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        if _is_scalar(other):
            other = LaurentPoly.const(other, self.var)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if _is_scalar(other):
            c = Fraction(other)
            if not c:
                return LaurentPoly(self.var)
            return LaurentPoly(self.var, {k: a * c for k, a in self.terms.items()})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        self._check(other)
        out: dict[int, Fraction] = {}
        for i, a in self.terms.items():
            for j, b in other.terms.items():
                k = i + j
                out[k] = out.get(k, Fraction(0)) + a * b
        return LaurentPoly(self.var, out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "LaurentPoly":
        if k < 0:
            raise ValueError("negative power; use RationalFunc")
        out = LaurentPoly.const(1, self.var)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def shift_exp(self, k: int) -> "LaurentPoly":
        """Multiply by var**k."""
        return LaurentPoly(self.var, {e + k: c for e, c in self.terms.items()})

    def inverse_var(self) -> "LaurentPoly":
        """Substitute var -> 1/var."""
        return LaurentPoly(self.var, {-e: c for e, c in self.terms.items()})

    def subs(self, value):
        """Evaluate at a nonzero point (Fraction, float or complex)."""
        out = None
        for e, c in self.terms.items():
            term = (c if not isinstance(value, complex) else complex(c)) * value ** e
            out = term if out is None else out + term
        return out if out is not None else 0 * value

    __call__ = subs

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms):
            c = self.terms[e]
            if e == 0:
                parts.append(f"{c}")
            else:
                parts.append(f"{c}*{self.var}^{e}")
        return " + ".join(parts)


def _laurent_as_dense(p: LaurentPoly) -> tuple[int, list[Fraction]]:
    """(min exponent, dense coefficient list) of a nonzero Laurent polynomial."""
    lo, hi = p.min_exp, p.max_exp
    dense = [Fraction(0)] * (hi - lo + 1)
    for e, c in p.terms.items():
        dense[e - lo] = c
    return lo, dense


def _root_multiplicity(dense: list[Fraction], root: Fraction) -> tuple[int, list[Fraction]]:
    """Deflate a dense polynomial by (x - root) as long as it divides exactly."""
    mult = 0
    cur = dense
    while len(cur) > 1 or (cur and cur[0]):
        # synthetic division
        out = [Fraction(0)] * (len(cur) - 1)
        acc = Fraction(0)
        for i in range(len(cur) - 1, -1, -1):
            if i == 0:
                rem = cur[0] + acc * root
                break
            out[i - 1] = cur[i] + acc * root
            acc = out[i - 1]
        else:
            rem = cur[0]
        if rem != 0 or len(cur) == 1:
            break
        cur = out
        mult += 1
    return mult, cur


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
        if num.is_zero():
            object.__setattr__(self, "num", LaurentPoly(num.var))
            object.__setattr__(self, "den", LaurentPoly.const(1, num.var))
            return
        # pull the pure power of x out of the denominator
        shift = den.min_exp
        den = den.shift_exp(-shift)
        num = num.shift_exp(-shift)
        # cancel common (x-1), (x+1) factors; x itself cannot divide den now
        nlo, ndense = _laurent_as_dense(num)
        dlo, ddense = _laurent_as_dense(den)
        for root in (Fraction(1), Fraction(-1)):
            mn, ncand = _root_multiplicity(ndense, root)
            if mn == 0:
                continue
            md, dcand = _root_multiplicity(ddense, root)
            common = min(mn, md)
            if common:
                for _ in range(mn - common):
                    ncand = _mul_linear(ncand, root)
                for _ in range(md - common):
                    dcand = _mul_linear(dcand, root)
                ndense, ddense = ncand, dcand
        # scale so den's constant term is 1 (den still has nonzero constant)
        c0 = ddense[0]
        num = LaurentPoly(num.var, {nlo + i: c / c0 for i, c in enumerate(ndense)})
        den = LaurentPoly(den.var, {dlo + i: c / c0 for i, c in enumerate(ddense)})
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

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

    def series(self, count: int) -> "SeriesSegment":
        return series_at_zero(self, count)

    def __repr__(self):
        return f"({self.num!r}) / ({self.den!r})"


def _mul_linear(dense: list[Fraction], root: Fraction) -> list[Fraction]:
    """Multiply a dense polynomial back by (x - root)."""
    out = [Fraction(0)] * (len(dense) + 1)
    for i, c in enumerate(dense):
        out[i + 1] += c
        out[i] -= c * root
    return out


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

    The leading exponent equals ord_0(numerator) - ord_0(denominator); the
    normal form of RationalFunc guarantees the denominator has a nonzero
    constant term, so the expansion is plain power-series division.
    """
    if count <= 0:
        raise ValueError("count must be positive")
    if f.is_zero():
        return SeriesSegment(0, [Fraction(0)] * count)
    nlo, ndense = _laurent_as_dense(f.num)
    _, ddense = _laurent_as_dense(f.den)  # min exponent 0 by normalization
    d0 = ddense[0]
    out: list[Fraction] = []
    for k in range(count):
        acc = ndense[k] if k < len(ndense) else Fraction(0)
        for i in range(1, min(k, len(ddense) - 1) + 1):
            acc -= ddense[i] * out[k - i]
        out.append(acc / d0)
    return SeriesSegment(nlo, out)


def coefficient(f, k: int) -> Fraction:
    """Coefficient of x**k; works on both series segments and Laurent polynomials.

    For a SeriesSegment the index must lie below the certified truncation.
    coefficient(f, -1) is the residue of f dx at the origin.
    """
    if isinstance(f, SeriesSegment):
        return f.coefficient(k)
    if isinstance(f, LaurentPoly):
        return f.coeff(k)
    raise TypeError(f"no coefficients in {type(f).__name__}")


class PolyFraction:
    """Rational function of a polynomial variable (e.g. the lattice site n).

    Stored as num/den with Fraction coefficients, reduced by the monic gcd,
    denominator monic.
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

    def is_constant(self) -> bool:
        return self.num.degree <= 0 and self.den.degree == 0

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
        d = self.den.subs(Fraction(value))
        if d == 0:
            raise ZeroDenominator(f"pole at {self.var} = {value}")
        return self.num.subs(Fraction(value)) / d

    __call__ = subs

    def __repr__(self):
        if self.den.degree == 0:
            return repr(self.num)
        return f"({self.num!r}) / ({self.den!r})"
