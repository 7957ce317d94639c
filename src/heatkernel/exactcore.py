"""Exact arithmetic kernel: rationals, polynomials, rational functions, and
truncated Laurent expansions at the origin.

No floating point ever enters a computation here.  A `Poly` is integer
numerators over one positive denominator, so its ring operations run on ints
with one gcd per result, `divmod` is one integer pseudo-division and only the
`coeffs` view is :class:`fractions.Fraction`.  `PolyFraction`, gcd-reduced
with a monic denominator, is the one rational-function type: the operator
coefficients in n, the wave functions in x, and the Laurent polynomials,
which are those over a power of the variable (`PolyFraction.laurent` builds
one and `laurent_terms` reads its {exponent: coefficient} view).  All values
are immutable after construction and every operation is a pure function.

Polynomials are tagged with a variable name; binary operations require the
same variable on both sides.  ``poly_gcd`` runs the heuristic gcd of Char,
Geddes & Gonnet (J. Symb. Comput. 7, 1989) on primitive integer parts,
accepts its candidate only when both pseudo-remainders by it vanish, and
falls back to the Euclidean algorithm (``poly_gcd_euclid``), the reference.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable

Rational = Fraction

#: degree reported for the zero polynomial
ZERO_DEGREE = -1
#: the primes of integer_roots' no-zero scan, cheapest first
_SCAN_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


class ZeroDenominator(ZeroDivisionError):
    """Rational function with identically zero denominator."""


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

    def __reduce__(self):           # copy and pickle rebuild it, as __setattr__ refuses
        return Poly.from_ints, (self.var, self.num, self.den)

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
        # a constant equals its Fraction, so it hashes as one
        if len(self.num) < 2:
            return hash(Fraction(self.num[0], self.den) if self.num else 0)
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
        if not (isinstance(other, Poly) or _is_scalar(other)):
            return NotImplemented
        return self + (-other)

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
        """Quotient and remainder over Q: the pseudo-division s a = q b + r
        of the numerators gives a/A = (q B/(A s)) (b/B) + r/(A s)."""
        if not isinstance(other, Poly):
            raise TypeError("divmod expects a Poly divisor")
        self._check(other)
        if other.is_zero():
            raise DivisionByZeroPolynomial(f"division by zero polynomial in {self.var!r}")
        q, r, s = _pseudo_divmod(self.num, other.num)
        den = self.den * s
        return (Poly.from_ints(self.var, [c * other.den for c in q], den),
                Poly.from_ints(self.var, r, den))

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
        """str of each Fraction coefficient, from its numerator by one gcd."""
        d = self.den
        return [str(c // g) if (g := gcd(c, d)) == d else f"{c // g}/{d // g}" for c in self.num]

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

    Degree 1 is solved directly.  An integer zero x makes x mod q a zero of
    the polynomial mod q, for every prime q; so when the primitive part has
    no zero in F_q for some q in _SCAN_PRIMES, there is no integer zero.
    Otherwise every real zero lies strictly inside the Cauchy bound
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
    if len(coeffs) == 2:
        return [] if coeffs[0] % coeffs[1] else [-coeffs[0] // coeffs[1]]
    content = gcd(*coeffs)
    if not all(_has_zero_mod([c // content for c in coeffs], q) for q in _SCAN_PRIMES):
        return []
    lead = abs(coeffs[-1])
    bound = 1 + max(-(-abs(c) // lead) for c in coeffs[:-1])
    return [x for x in _brackets(coeffs, -bound, bound) if eval_int(coeffs, x) == 0]


def _has_zero_mod(coeffs: list[int], q: int) -> bool:
    """Whether the integer polynomial has a zero in F_q, tried at each residue."""
    small = [c % q for c in coeffs]
    return any(eval_int(small, x) % q == 0 for x in range(q))


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


def _pseudo_divmod(a, b) -> tuple[list[int], list[int], int]:
    """(q, r, s) with s a = q b + r, deg r < deg b, for integer coefficient
    sequences a and b != 0 (lowest degree first).  Each step scales in only
    the factor of |lead(b)| its leading coefficient lacks, so s > 0 divides a
    power of lead(b), and s = 1 whenever b divides a in Z[x]."""
    rem, n, lead, s = list(a), len(b) - 1, b[-1], 1
    quot = [0] * max(len(rem) - n, 0)
    for i in reversed(range(len(quot))):
        if c := rem[i + n]:
            if c % lead:
                f = abs(lead) // gcd(c, lead)
                rem, quot, s, c = [x * f for x in rem], [x * f for x in quot], s * f, c * f
            quot[i] = c = c // lead
            for j, y in enumerate(b):
                rem[i + j] -= c * y
    return quot, rem[:n], s


def _gcd_heuristic(a: list[int], b: list[int]) -> list[int] | None:
    """GCDHEU on primitive integer polynomials of positive degree.

    The symmetric base-xi digits of gcd(a(xi), b(xi)) are the coefficients of
    a candidate; with xi >= 2 min(|a|, |b|) + 2 its primitive part is the gcd
    as soon as it divides both inputs.  None when six points all fail.  xi
    starts at 31 or more (SymPy's start for unit-norm inputs): at a small xi,
    inputs such as (x-1)(x+1) share factors of their values by accident.
    """
    xi = max(2 * min(max(map(abs, a)), max(map(abs, b))) + 2, 31)
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
        if not any(_pseudo_divmod(a, g)[1]) and not any(_pseudo_divmod(b, g)[1]):
            return g
        xi = xi * 73794 // 27011
    return None


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd over Fraction coefficients.

    Nonconstant inputs go through the heuristic gcd on their primitive
    integer parts (candidate checked by pseudo-division, Gauss's lemma); the
    Euclidean reference decides the rest and whatever the heuristic gives up on.
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


def series_at_zero(f: PolyFraction, count: int) -> tuple[int, tuple[Fraction, ...]]:
    """(first, coeffs): the first `count` exact Laurent coefficients of f at
    x = 0, coeffs[i] multiplying x^(first+i); those below x^first vanish.

    With num = x^a u and den = x^b v, u(0) and v(0) nonzero, first = a - b
    and the coefficients are those of the power series u / v, each step
    dividing by v(0).
    """
    if count <= 0:
        raise ValueError("count must be positive")
    n, d = f.num.num, f.den.num
    a = next((i for i, c in enumerate(n) if c), 0)
    b = next(i for i, c in enumerate(d) if c)
    u, v, scale = n[a:], d[b:], Fraction(f.den.den, f.num.den)
    out: list[Fraction] = []
    for k in range(count):
        acc = scale * u[k] if k < len(u) else Fraction(0)
        for i in range(1, min(k, len(v) - 1) + 1):
            acc -= v[i] * out[k - i]
        out.append(acc / v[0])
    return a - b, tuple(out)


class PolyFraction:
    """Rational function of one variable: an operator coefficient in the
    site n, a wave function in x, a Laurent polynomial (den a power of the
    variable).  Stored as num/den, two Polys reduced by their monic gcd, den
    monic; a power of the variable sits in one of them.
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
        if not num.is_zero():
            g = poly_gcd(num, den)
            if g.degree > 0:
                num, den = num // g, den // g
        self._set(num, den)

    def _set(self, num: Poly, den: Poly) -> "PolyFraction":
        if num.is_zero():
            den = Poly.const(num.var, 1)
        elif den.num[-1] != den.den:             # den not monic
            num, den = num.scale(1 / den.leading), den.scale(1 / den.leading)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        return self

    @classmethod
    def coprime(cls, num: Poly, den: Poly) -> "PolyFraction":
        """num / den for a numerator and a nonzero denominator already known
        coprime: the denominator made monic, 0 as 0/1, and no gcd run."""
        return object.__new__(cls)._set(num, den)

    def __setattr__(self, *a):
        raise AttributeError("PolyFraction is immutable")

    def __reduce__(self):           # copy and pickle rebuild it, as __setattr__ refuses
        return PolyFraction, (self.num, self.den)

    @classmethod
    def const(cls, var: str, c) -> "PolyFraction":
        return cls(Poly.const(var, c))

    @classmethod
    def laurent(cls, var: str, terms: dict) -> "PolyFraction":
        """The Laurent polynomial sum of c var^e over terms {e: c}: its
        coefficients from the lowest exponent up, over var^-lowest."""
        terms = {int(e): c for e, c in terms.items() if c}
        low = min([0, *terms])
        num = Poly(var, [terms.get(e, 0) for e in range(low, max(terms, default=-1) + 1)])
        return cls(num, Poly.from_ints(var, [0] * -low + [1]))

    def laurent_terms(self) -> dict[int, Fraction]:
        """{exponent: coefficient} of a Laurent polynomial; ValueError when
        the denominator is not a power of the variable."""
        if any(self.den.num[:-1]):
            raise ValueError(f"not a Laurent polynomial in {self.var}: {self!r}")
        low = 1 - len(self.den.num)
        return {e: Fraction(c, self.num.den) for e, c in enumerate(self.num.num, low) if c}

    @property
    def var(self) -> str:
        return self.num.var

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        # the reduced form with a monic den is canonical; a Poly or a scalar
        # is that form over 1, as the arithmetic coerces it
        if isinstance(other, Poly) or _is_scalar(other):
            return self.den.degree == 0 and self.num == other
        if not isinstance(other, PolyFraction):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        # over 1 a PolyFraction equals its numerator, so it hashes as that
        return hash(self.num) if self.den.degree == 0 else hash((self.num, self.den))

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

    def __pow__(self, k: int) -> "PolyFraction":
        return PolyFraction(self.num ** k, self.den ** k)

    def shift(self, a) -> "PolyFraction":
        """Substitute var -> var + a."""
        return PolyFraction(self.num.shift(a), self.den.shift(a))

    def inverse_var(self) -> "PolyFraction":
        """Substitute var -> 1/var: num and den reversed, the shorter one
        first padded to the longer, so var^(deg den - deg num) moves over.
        Reversal keeps a reduced pair coprime, so no gcd runs."""
        size = max(len(self.num.num), len(self.den.num))
        return PolyFraction.coprime(*(Poly.from_ints(p.var, (p.num + (0,) * (size - len(p.num)))[::-1],
                                                     p.den) for p in (self.num, self.den)))

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
