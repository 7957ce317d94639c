"""Tau functions and Darboux-transformed second difference operators.

The discrete Laplacian  L0 = shift - 2 Id + shift^{-1}  admits lower-upper
factorizations at both ends of its spectrum; iterating them R times at one
end and S times at the other produces a tridiagonal operator whose
coefficients are rational functions of the site n, all encoded by a single
polynomial tau(n).  tau is a discrete Wronskian of Schur-like components
phi_j, psi_j; each psi column carries a factor (-1)^n c (c a constant
exponential in the parameters) which is pulled out of the determinant
column by column and cancels against the normalization, leaving a clean
polynomial.

All parameters are numeric.  At an integer site the Wronskian is a K x K
matrix of rationals (K = R + S), so one Gaussian elimination over dual
numbers (value, d/dr_1) gives tau(n) and its r_1-derivative together: the
r_1-derivative of every column is the same Taylor coefficient one index
lower.  The Q and P* coefficients at a site are the null vector of the
Wronskian with one more difference row, normalized to c_K = 1.  Polynomials
in n are Newton-interpolated from sites where the determinant does not
vanish, up to a degree bound read off the entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm, prod

from .exactcore import (
    LaurentPoly,
    Poly,
    PolyFraction,
    RationalFunc,
    ZeroDenominator,
    eval_int,
    primitive_coeffs,
    rat,
)

N = "n"

#: default half-width of the tau regularity window
REG_WINDOW = 512


class SingularTau(ArithmeticError):
    """tau vanishes at an integer site; the parameters are inadmissible there."""

    def __init__(self, site: int, message: str = ""):
        self.site = site
        super().__init__(message or f"tau vanishes at n = {site}")


@dataclass(frozen=True)
class ParamVector:
    """Darboux data: R steps at spectrum end 0, S steps at end -4, and the
    finitely many nonzero parameters r_1..r_M (all higher r_i are zero)."""

    R: int
    S: int
    r: tuple[Fraction, ...]

    def __init__(self, R: int, S: int, r=()):
        if R < 0 or S < 0:
            raise ValueError("R and S must be nonnegative")
        rs = [rat(v) for v in r]
        m = max(1, 2 * (R + S), len(rs))
        rs.extend([Fraction(0)] * (m - len(rs)))
        object.__setattr__(self, "R", int(R))
        object.__setattr__(self, "S", int(S))
        object.__setattr__(self, "r", tuple(rs))

    @classmethod
    def from_alpha_beta(cls, R: int, S: int, alpha, beta) -> "ParamVector":
        """Convenience reparametrization: r_1 = alpha, r_2 = -beta/4.

        beta is the combination sum_{i>=2} (-2)^{i-1} i r_i, reached with
        minimal support through r_2 alone.
        """
        return cls(R, S, (rat(alpha), -rat(beta) / 4))

    @property
    def M(self) -> int:
        return len(self.r)

    @property
    def order(self) -> int:
        return self.R + self.S

    def is_validated(self, window: int = REG_WINDOW) -> bool:
        return _VALIDATED.get(self) is not None and _VALIDATED[self] >= window

    def r_strings(self) -> list[str]:
        return [str(v) for v in self.r]


_VALIDATED: dict[ParamVector, int] = {}


@dataclass(frozen=True)
class SchurComponent:
    """Polynomial part of S^eps_j(n; r); `char` is set when a character
    factor (-1)^n c, c = exp(sum (-2)^i r_i), was extracted (eps = -1)."""

    poly: Poly
    char: bool = False


def _binomial_poly(k: int) -> Poly:
    """C(n, k) as a polynomial in n: n(n-1)...(n-k+1)/k!."""
    out = Poly.const(N, 1)
    for i in range(k):
        out = out * Poly(N, [-i, 1])
    return out.scale(Fraction(1, factorial(k)))


def _exp_series_coeffs(gs: list, count: int) -> list[Fraction]:
    """Coefficients of exp(sum_a g_a z^a) up to z^{count-1}.

    gs[a] is the coefficient of z^a (gs[0] ignored).  Uses
    E_l = (1/l) sum a g_a E_{l-a}.
    """
    E = [Fraction(1)]
    for l in range(1, count):
        acc = sum((a * gs[a] * E[l - a] for a in range(1, min(l, len(gs) - 1) + 1)),
                  Fraction(0))
        E.append(acc / l)
    return E


def schur_component(epsilon: int, j: int, params: ParamVector) -> SchurComponent:
    """Taylor coefficient S^eps_j(n; r): (1/j!) d^j/dz^j of
    (1+z)^n exp(sum r_i z^i) at z = eps - 1.

    For eps = -1 the character flag is set and the returned polynomial is
    the part left after extracting (-1)^n c.
    """
    if epsilon not in (1, -1):
        raise ValueError("epsilon must be +1 or -1")
    if j < 0:
        raise ValueError("j must be nonnegative")
    r = params.r
    if epsilon == 1:
        # expansion variable is z itself
        gs = [None, *r]
    else:
        # expand around z = -2 in s = z + 2:
        # (1+z)^n = (-1)^n (1-s)^n,  exp part contributes c * exp(g(s))
        gs = [None] + [sum(comb(i, a) * (-2) ** (i - a) * r[i - 1]
                           for i in range(a, len(r) + 1))
                       for a in range(1, len(r) + 1)]
    E = _exp_series_coeffs(gs, j + 1)
    total = Poly(N)
    for k in range(j + 1):
        if E[j - k]:
            total = total + _binomial_poly(k).scale(epsilon ** k * E[j - k])
    return SchurComponent(poly=total, char=(epsilon == -1))


@lru_cache(maxsize=64)
def _columns(params: ParamVector) -> tuple:
    """The Wronskian columns phi_1..phi_R, then the reduced psi_1..psi_S.

    phi_j(n) = S^1_{2j-1}(n + j - 1) and psi_j likewise with S^{-1}; the
    r_1-derivative of S^eps_j is S^eps_{j-1}, also for the reduced psi.  Each
    entry is (tilde, column, derivative, scale): integer coefficient lists
    (lowest degree first) of the column and its derivative times the common
    scale; tilde marks the psi columns, on which differences act through the
    (-1)^n factor.
    """
    out = []
    for eps, count in ((1, params.R), (-1, params.S)):
        for j in range(1, count + 1):
            f = schur_component(eps, 2 * j - 1, params).poly.shift(j - 1)
            df = schur_component(eps, 2 * j - 2, params).poly.shift(j - 1)
            scale = lcm(*(c.denominator for c in f.coeffs + df.coeffs))
            out.append((eps == -1,
                        tuple(c.numerator * (scale // c.denominator) for c in f.coeffs),
                        tuple(c.numerator * (scale // c.denominator) for c in df.coeffs),
                        scale))
    return tuple(out)


def _degree_bound(params: ParamVector) -> int:
    """Bound on the degree in n of tau, d tau/d r_1 and every K x K minor of
    the Wronskian with K + 1 rows.

    Row i of a phi column has degree at most deg phi - i, and the phi columns
    of each term of the determinant sit in distinct rows.
    """
    R = params.R
    return sum(max(len(f), len(df)) - 1 for _, f, df, _ in _columns(params)) \
        - R * (R - 1) // 2


def _wronskian(params: ParamVector, n: int, starred: bool = False,
               deriv: bool = False) -> list[list[int]]:
    """Rows 0..K of the Wronskian at site n, column by column.

    Entry [c][i] is step^i f_c(n) on the scaled column f_c (its r_1-derivative
    if deriv), with step = Delta or Delta~.  Starred columns are shifted by K
    sites and use the adjoint differences, which read the values backwards.
    """
    K = params.order
    sites = [n + K - l if starred else n + l for l in range(K + 1)]
    out = []
    for tilde, f, df, _ in _columns(params):
        vals = [eval_int(df if deriv else f, x) for x in sites]
        entries = []
        for _ in range(K + 1):
            entries.append(vals[0])
            vals = [-(b + a) if tilde else b - a for a, b in zip(vals, vals[1:])]
        out.append(entries)
    return out


def _dual_det(a: list, da: list):
    """(det a, derivative of det along da) for integer matrices, or None when
    det a = 0.

    Fraction-free (Bareiss) elimination over the dual integers a + eps da,
    eps^2 = 0, pivoting on the value part.  Every entry it forms is a minor,
    so each division is exact, also in the derivative part.
    """
    m = [list(zip(ra, rd)) for ra, rd in zip(a, da)]
    size = len(m)
    sign, prev, dprev = 1, 1, 0
    for col in range(size):
        piv = next((r for r in range(col, size) if m[r][col][0]), None)
        if piv is None:
            return None
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            sign = -sign
        head = m[col]
        p, dp = head[col]
        for row in m[col + 1:]:
            h, dh = row[col]
            for k in range(col + 1, size):
                (x, dx), (y, dy) = row[k], head[k]
                v = (p * x - h * y) // prev
                row[k] = (v, (p * dx + dp * x - h * dy - dh * y - v * dprev) // prev)
        prev, dprev = p, dp
    return sign * prev, sign * dprev


def _solve(a: list, b: list):
    """(det a, x) with a x = b over the rationals; None when det a = 0."""
    size = len(a)
    m = [[Fraction(v) for v in row] + [Fraction(rhs)] for row, rhs in zip(a, b)]
    det = Fraction(1)
    for col in range(size):
        piv = next((r for r in range(col, size) if m[r][col]), None)
        if piv is None:
            return None
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        head = m[col]
        det *= head[col]
        for row in m[col + 1:]:
            if row[col]:
                f = row[col] / head[col]
                for k in range(col + 1, size + 1):
                    row[k] -= f * head[k]
    x = [Fraction(0)] * size
    for r in reversed(range(size)):
        row = m[r]
        x[r] = (row[size] - sum(row[j] * x[j] for j in range(r + 1, size))) / row[r]
    return det, x


def _site_solve(params: ParamVector, n: int, starred: bool):
    """(det, (c_0..c_K)) at site n: sum_i c_i step^i annihilates every
    column there, c_K = 1, and det is the scaled K x K Wronskian; None where
    that Wronskian is singular."""
    K = params.order
    cols = _wronskian(params, n, starred)
    solved = _solve([c[:K] for c in cols], [-c[K] for c in cols])
    if solved is None:
        return None
    det, x = solved
    return det, (*x, Fraction(1))


@lru_cache(maxsize=4096)
def _delta_coeffs(params: ParamVector, n: int, starred: bool) -> tuple[Fraction, ...]:
    """Coefficients c_i(n) of Q = sum_i c_i(n) Delta^i, or of
    P* = sum_i c_i(n) (Delta*)^i when starred, at one site."""
    solved = _site_solve(params, n, starred)
    if solved is None:
        raise SingularTau(n)
    return solved[1]


def _sample(params: ParamVector, at) -> tuple[list[int], list]:
    """at(n) at the first _degree_bound + 1 sites n >= 0 where it is not None.

    A nonzero polynomial of degree <= bound vanishes at no more than bound
    sites, so 2 bound + 1 candidates suffice unless it is identically zero.
    """
    bound = _degree_bound(params)
    sites, values = [], []
    for n in range(2 * bound + 1):
        value = at(n)
        if value is not None:
            sites.append(n)
            values.append(value)
            if len(sites) > bound:
                return sites, values
    raise SingularTau(0, "tau is identically zero")


def _interpolate(xs: list[int], ys: list[Fraction]) -> Poly:
    """The polynomial in n of degree < len(xs) through (xs[k], ys[k]),
    by Newton's divided differences."""
    coef = [Fraction(y) for y in ys]
    for level in range(1, len(xs)):
        for k in range(len(xs) - 1, level - 1, -1):
            coef[k] = (coef[k] - coef[k - 1]) / (xs[k] - xs[k - level])
    out = Poly(N)
    for k in reversed(range(len(xs))):
        out = out * Poly(N, [-xs[k], 1]) + coef[k]
    return out


@dataclass(frozen=True)
class TauFunction:
    """The Wronskian tau, pure polynomial in n after character cancellation;
    `dpolyn` is its derivative in r_1 (the other r_i held fixed)."""

    params: ParamVector
    polyn: Poly
    dpolyn: Poly

    @property
    def degree(self) -> int:
        return self.polyn.degree

    def value(self, n: int) -> Fraction:
        return Fraction(self.polyn.subs(Fraction(n)))

    def ratio(self, a: int, b: int) -> Fraction:
        """tau(a)/tau(b); raises SingularTau at a vanishing denominator."""
        vb = self.value(b)
        if vb == 0:
            raise SingularTau(b)
        return self.value(a) / vb


@lru_cache(maxsize=None)
def tau_build(params: ParamVector) -> TauFunction:
    """Discrete Wronskian of (phi_1..phi_R, psi_1..psi_S), normalized.

    Each psi column's (-1)^n c factor is extracted before taking the
    determinant; the normalization (-1)^{nS} exp(-S sum (-2)^i r_i) cancels
    it exactly, so the result is a genuine polynomial in n.  One elimination
    per site over dual numbers gives tau and its r_1 derivative together.
    """
    K = params.order
    scale = prod(s for *_, s in _columns(params))

    def at(n):
        vals = _dual_det([c[:K] for c in _wronskian(params, n)],
                         [d[:K] for d in _wronskian(params, n, deriv=True)])
        if vals is None:
            return None
        return Fraction(vals[0], scale), Fraction(vals[1], scale)

    sites, values = _sample(params, at)
    return TauFunction(
        params=params,
        polyn=_interpolate(sites, [v for v, _ in values]),
        dpolyn=_interpolate(sites, [d for _, d in values]),
    )


def ensure_regular(params: ParamVector, window: int = REG_WINDOW) -> TauFunction:
    """Validate tau(n) != 0 for every integer |n| <= window.

    The admissible parameter region has no closed description; this window
    check is the pragmatic substitute.  The scan runs over tau's primitive
    integer form.  Successful validation is recorded on the parameter vector.
    """
    tau = tau_build(params)
    if params.is_validated(window):
        return tau
    coeffs = primitive_coeffs(tau.polyn)
    for n in range(-window, window + 1):
        if eval_int(coeffs, n) == 0:
            raise SingularTau(n)
    _VALIDATED[params] = max(window, _VALIDATED.get(params, 0))
    return tau


class BandOperator:
    """Finite band difference operator sum_j b_j(n) Lambda^j.

    Coefficients are exact rational functions of the site n; application to
    a sequence f follows (X f)(n) = sum_j b_j(n) f(n + j).
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict):
        clean = {}
        for j, c in coeffs.items():
            if isinstance(c, (int, Fraction)):
                c = PolyFraction.const(N, c)
            elif isinstance(c, Poly):
                c = PolyFraction(c)
            if not c.is_zero():
                clean[int(j)] = c
        object.__setattr__(self, "coeffs", clean)

    def __setattr__(self, *a):
        raise AttributeError("BandOperator is immutable")

    @classmethod
    def identity(cls) -> "BandOperator":
        return cls({0: 1})

    @classmethod
    def shift(cls, j: int = 1, coeff=1) -> "BandOperator":
        return cls({j: coeff})

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def support(self) -> tuple[int, int]:
        if not self.coeffs:
            raise ValueError("zero operator has empty support")
        return min(self.coeffs), max(self.coeffs)

    def coeff(self, j: int) -> PolyFraction:
        return self.coeffs.get(j, PolyFraction.const(N, 0))

    def __eq__(self, other):
        if not isinstance(other, BandOperator):
            return NotImplemented
        keys = set(self.coeffs) | set(other.coeffs)
        return all(self.coeff(j) == other.coeff(j) for j in keys)

    def __add__(self, other: "BandOperator") -> "BandOperator":
        out = dict(self.coeffs)
        for j, c in other.coeffs.items():
            out[j] = out.get(j, PolyFraction.const(N, 0)) + c
        return BandOperator(out)

    def __neg__(self) -> "BandOperator":
        return BandOperator({j: -c for j, c in self.coeffs.items()})

    def __sub__(self, other: "BandOperator") -> "BandOperator":
        return self + (-other)

    def __mul__(self, other):
        """Operator composition, or scalar scaling."""
        if isinstance(other, (int, Fraction, Poly, PolyFraction)):
            return BandOperator({j: c * other for j, c in self.coeffs.items()})
        if not isinstance(other, BandOperator):
            return NotImplemented
        out: dict = {}
        for j, b in self.coeffs.items():
            for k, c in other.coeffs.items():
                term = b * c.shift(j)
                key = j + k
                out[key] = out.get(key, PolyFraction.const(N, 0)) + term
        return BandOperator(out)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, Poly, PolyFraction)):
            return self.__mul__(other)
        return NotImplemented

    def __pow__(self, k: int) -> "BandOperator":
        if k < 0:
            raise ValueError("negative operator power")
        out = BandOperator.identity()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def adjoint(self) -> "BandOperator":
        """Formal adjoint: sum_j b_j(n) Lambda^j -> sum_j b_j(n-j) Lambda^{-j}."""
        return BandOperator({-j: c.shift(-j) for j, c in self.coeffs.items()})

    def coeff_at(self, j: int, n: int) -> Fraction:
        """b_j evaluated at the integer site n."""
        c = self.coeffs.get(j)
        if c is None:
            return Fraction(0)
        try:
            return c.subs(Fraction(n))
        except ZeroDenominator as exc:
            raise SingularTau(n, f"operator coefficient has a pole at n = {n}") from exc

    def symbol_at(self, n: int, var: str = "x") -> LaurentPoly:
        """The Laurent polynomial sum_j b_j(n) x^j at a fixed site."""
        return LaurentPoly(var, {j: self.coeff_at(j, n) for j in self.coeffs})

    def to_json(self) -> dict:
        m1, m2 = self.support
        return {
            "support": [m1, m2],
            "coeffs": [
                {
                    "shift": j,
                    "num": self.coeffs[j].num.to_strings(),
                    "den": self.coeffs[j].den.to_strings(),
                }
                for j in sorted(self.coeffs)
            ],
        }

    def __repr__(self):
        if not self.coeffs:
            return "BandOperator(0)"
        parts = [f"L^{j}: {c!r}" for j, c in sorted(self.coeffs.items())]
        return "BandOperator(" + "; ".join(parts) + ")"


def free_operator() -> BandOperator:
    """The plain second difference operator Lambda - 2 Id + Lambda^{-1}."""
    return BandOperator({1: 1, 0: -2, -1: 1})


@lru_cache(maxsize=None)
def operator_build(params: ParamVector, window: int = REG_WINDOW) -> BandOperator:
    """The tridiagonal operator carried by tau:

    Lambda + (-2 + d/dr1 log(tau(n+1)/tau(n))) Id
           + (tau(n-1) tau(n+1) / tau(n)^2) Lambda^{-1}.

    d/dr1 tau is TauFunction.dpolyn.
    """
    tau = ensure_regular(params, window)
    t0, d0 = tau.polyn, tau.dpolyn
    t_plus, d_plus = t0.shift(1), d0.shift(1)
    t_minus = t0.shift(-1)
    diag = PolyFraction.const(N, -2) \
        + PolyFraction(d_plus, t_plus) - PolyFraction(d0, t0)
    sub = PolyFraction(t_minus * t_plus, t0 * t0)
    return BandOperator({1: 1, 0: diag, -1: sub})


def _interpolated_coeffs(params: ParamVector, starred: bool) -> list[PolyFraction]:
    """c_i(n) as rational functions: c_i det and det are polynomials in n,
    interpolated from the site solves."""
    sites, solved = _sample(params, lambda n: _site_solve(params, n, starred))
    den = _interpolate(sites, [det for det, _ in solved])
    return [PolyFraction(_interpolate(sites, [det * cs[i] for det, cs in solved]), den)
            for i in range(params.order + 1)]


def qp_build(params: ParamVector, window: int = REG_WINDOW) -> tuple[BandOperator, BandOperator]:
    """The order R+S forward-difference factors Q and P.

    Q comes from the Wronskian ratio with one extra column, P as the formal
    adjoint of the starred ratio P*.  Their composition satisfies
    P Q = (Lambda - Id)^{2R} (Lambda + Id)^{2S} identically in n.
    """
    ensure_regular(params, window)
    factors = []
    for starred, step in ((False, BandOperator({1: 1, 0: -1})),
                          (True, BandOperator({-1: 1, 0: -1}))):
        out = BandOperator({})
        for i, c in enumerate(_interpolated_coeffs(params, starred)):
            out = out + BandOperator({0: c}) * (step ** i)
        factors.append(out)
    Q, Pstar = factors
    return Q, Pstar.adjoint()


def factorization_target(R: int, S: int) -> BandOperator:
    """(Lambda - Id)^{2R} (Lambda + Id)^{2S}."""
    return (BandOperator({1: 1, 0: -1}) ** (2 * R)) * (BandOperator({1: 1, 0: 1}) ** (2 * S))


@dataclass(frozen=True)
class WaveFunction:
    """p_n(x) (or its adjoint partner) as an exact rational function of x."""

    site: int
    value: RationalFunc


def _denominator_x(R: int, S: int) -> LaurentPoly:
    return (LaurentPoly("x", {1: 1, 0: -1}) ** R) * (LaurentPoly("x", {1: 1, 0: 1}) ** S)


def _wave(params: ParamVector, site: int, starred: bool, exp: int) -> RationalFunc:
    """x^exp sum_i c_i(site) (x-1)^i / ((x-1)^R (x+1)^S), with the Q (or P*)
    coefficients c_i at the site."""
    num = LaurentPoly("x")
    xm1 = LaurentPoly("x", {1: 1, 0: -1})
    for i, ci in enumerate(_delta_coeffs(params, site, starred)):
        if ci:
            num = num + (xm1 ** i) * ci
    return RationalFunc(num.shift_exp(exp), _denominator_x(params.R, params.S))


def wave_p(params: ParamVector, n: int, window: int = REG_WINDOW) -> WaveFunction:
    """p_n(x): Q applied to the sequence k -> x^k, taken at k = n, divided by
    (x-1)^R (x+1)^S.

    Delta^i acts on x-powers as multiplication by (x-1)^i, so the numerator
    is x^n sum_i c_i(n) (x-1)^i with the cached Q coefficients.
    """
    ensure_regular(params, window)
    return WaveFunction(site=n, value=_wave(params, n, False, n))


def wave_p_star(params: ParamVector, n: int, window: int = REG_WINDOW) -> WaveFunction:
    """p*_n(x) through the duality route: (tau(n-1)/tau(n)) x^{-1} p_{n-1}(1/x)."""
    tau = ensure_regular(params, window)
    factor = tau.ratio(n - 1, n)
    p = wave_p(params, n - 1, window).value
    value = p.inverse_var() * factor
    value = RationalFunc(value.num.shift_exp(-1), value.den)
    return WaveFunction(site=n, value=value)


def wave_p_star_via_adjoint(params: ParamVector, n: int, window: int = REG_WINDOW) -> WaveFunction:
    """p*_n(x) built independently from the starred Wronskian ratio P*.

    P*, with coefficients frozen at site n-1, is applied formally to x^{-n}:
    (Delta*)^i acts on inverse powers as multiplication by (x-1)^i.
    """
    ensure_regular(params, window)
    return WaveFunction(site=n, value=_wave(params, n - 1, True, -n))


def darboux_one_step(delta, window: int = REG_WINDOW) -> BandOperator:
    """One explicit Darboux step from the free operator, with tau_n = n + delta.

    Returns Q0 P0 for P0 = Id - (tau_{n-1}/tau_n) Lambda^{-1} and
    Q0 = Lambda - (tau_{n+1}/tau_n) Id; must agree with the tau route at
    R = 1, S = 0, r_1 = delta.
    """
    delta = rat(delta)
    if delta.denominator == 1 and abs(delta.numerator) <= window:
        raise SingularTau(int(-delta), "delta places a tau zero on the lattice")
    tau_n = Poly(N, [delta, 1])
    p0 = BandOperator({0: 1, -1: -PolyFraction(tau_n.shift(-1), tau_n)})
    q0 = BandOperator({1: 1, 0: -PolyFraction(tau_n.shift(1), tau_n)})
    return q0 * p0
