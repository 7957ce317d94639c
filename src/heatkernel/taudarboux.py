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

All parameters are numeric, and the Wronskian layer runs on Python ints.
Each column comes from the exponential series in integers, as
falling-factorial coefficients over one denominator, and is evaluated once
over a run of consecutive sites; its Delta (or Delta~) rows are one
difference table.  One fraction-free elimination over dual numbers (value,
d/dr_1) of the K x K Wronskian (K = R + S) gives tau(n) and its
r_1-derivative together: the r_1-derivative of every column is the same
Taylor coefficient one index lower.  The Q and P* coefficients at a site
are the null vector of the Wronskian with one more difference row,
normalized to c_K = 1.  Polynomials in n are interpolated by Newton forward
differences over a run of sites where the determinant does not vanish, up
to a degree bound read off the entries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, gcd, lcm, prod
from operator import index

from .exactcore import (
    LaurentPoly,
    Poly,
    PolyFraction,
    RationalFunc,
    ZeroDenominator,
    eval_int,
    integer_roots,
    rat,
)

N = "n"


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
        # every cache keyed on the vector hashes it; hash its Fractions once
        object.__setattr__(self, "_hash", hash((self.R, self.S, self.r)))

    def __hash__(self):
        return self._hash

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

    def r_strings(self) -> list[str]:
        return [str(v) for v in self.r]


def _series(epsilon: int, params: ParamVector, top: int) -> tuple[list[int], int]:
    """(F, d): E_l = F[l] / (l! d^l), l <= top, are the coefficients of
    exp(sum_a g_a s^a), g_a = r_a at end 1 and sum_i C(i, a) (-2)^(i-a) r_i
    at end -1 (s = z + 2).  With g_a = G_a / d, l E_l = sum_a a g_a E_{l-a}
    is F_l = sum_a a G_a d^(a-1) (l-1)!/(l-a)! F_{l-a}, all in integers."""
    r = params.r
    d = lcm(*(v.denominator for v in r))
    G = [v.numerator * (d // v.denominator) for v in r]
    if epsilon == -1:
        G = [sum(comb(i, a) * (-2) ** (i - a) * G[i - 1] for i in range(a, len(G) + 1))
             for a in range(1, len(G) + 1)]
    F = [1]
    for l in range(1, top + 1):
        acc, fall = 0, 1
        for a in range(1, min(l, len(G)) + 1):
            acc += a * G[a - 1] * d ** (a - 1) * fall * F[l - a]
            fall *= l - a
        F.append(acc)
    return F, d


def _falling(c: list[int], shift: int) -> list[int]:
    """Integer coefficients (lowest degree first) of sum_k c[k] (n + shift)_k,
    (x)_k = x (x-1) ... (x-k+1) the falling factorial, by Horner's rule."""
    out: list[int] = []
    for k in reversed(range(len(c))):
        a = shift - k
        out = [a * x + y for x, y in zip(out + [0], [0] + out)]
        out[0] += c[k]
    return out


def _component(epsilon: int, series: tuple[list[int], int], j: int, shift: int) -> Poly:
    """S^eps_j(n + shift) = sum_k eps^k C(n + shift, k) E_{j-k}, over the
    denominator j! d^j: the falling-factorial coefficients are the integers
    eps^k C(j, k) d^k F_{j-k}."""
    F, d = series
    c = [epsilon ** k * comb(j, k) * d ** k * F[j - k] for k in range(j + 1)]
    return Poly.from_ints(N, _falling(c, shift), factorial(j) * d ** j)


def schur_component(epsilon: int, j: int, params: ParamVector) -> Poly:
    """Taylor coefficient S^eps_j(n; r): (1/j!) d^j/dz^j of
    (1+z)^n exp(sum r_i z^i) at z = eps - 1, as a polynomial in n.

    For eps = -1 it is the part left after extracting the character factor
    (-1)^n c, c = exp(sum (-2)^i r_i).
    """
    if epsilon not in (1, -1):
        raise ValueError("epsilon must be +1 or -1")
    if j < 0:
        raise ValueError("j must be nonnegative")
    return _component(epsilon, _series(epsilon, params, j), j, 0)


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
        series = _series(eps, params, 2 * count - 1)
        for j in range(1, count + 1):
            f = _component(eps, series, 2 * j - 1, j - 1)
            df = _component(eps, series, 2 * j - 2, j - 1)
            g = gcd(f.den, df.den)
            out.append((eps == -1, tuple(c * (df.den // g) for c in f.num),
                        tuple(c * (f.den // g) for c in df.num), f.den // g * df.den))
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


def _wronskians(params: ParamVector, first: int, count: int, starred: bool = False,
                deriv: bool = False) -> list[list[list[int]]]:
    """Rows 0..K of the Wronskian, column by column, at the count sites n
    from first: entry [c][i] is step^i f_c(n) on the scaled column f_c (its
    r_1-derivative if deriv), step = Delta or Delta~, read off one difference
    table of f_c.  Starred columns are shifted by K sites and use the adjoint
    differences, which read the table backwards: (-1)^i Delta^i f_c(n + K - i),
    or Delta~^i f_c(n + K - i).
    """
    K = params.order
    tables = []
    for tilde, f, df, _ in _columns(params):
        vals = [eval_int(df if deriv else f, x) for x in range(first, first + count + K)]
        rows = [vals]
        for i in range(1, K + 1):
            vals = [-(b + a) if tilde else b - a for a, b in zip(vals, vals[1:])]
            rows.append([-v for v in vals] if starred and not tilde and i % 2 else vals)
        tables.append(rows)
    return [[[row[s + K - i if starred else s] for i, row in enumerate(rows)]
             for rows in tables] for s in range(count)]


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


def _solve(cols: list):
    """(det, [det c_0..det c_{K-1}]) for the Wronskian columns cols at a
    site: sum_i c_i step^i annihilates every column with c_K = 1, and det is
    the scaled K x K Wronskian; None where det = 0.

    Fraction-free (Bareiss) elimination on the augmented matrix [A | -b],
    whose rows are the columns, then back-substitution for det c, which is
    integral by Cramer's rule.
    """
    m = [list(c) for c in cols]
    size = len(m)
    sign, prev = 1, 1
    for col in range(size):
        piv = next((r for r in range(col, size) if m[r][col]), None)
        if piv is None:
            return None
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            sign = -sign
        head = m[col]
        p = head[col]
        for row in m[col + 1:]:
            h = row[col]
            for k in range(col + 1, size + 1):
                row[k] = (p * row[k] - h * head[k]) // prev
        prev = p
    xs = [0] * size
    for r in reversed(range(size)):
        row = m[r]
        xs[r] = (-prev * row[size] - sum(row[j] * xs[j] for j in range(r + 1, size))) // row[r]
    return sign * prev, [sign * x for x in xs]


def _site_solve(params: ParamVector, n: int, starred: bool):
    """(det, (c_0..c_K)) of _solve at site n, with c_K = 1; None where the
    K x K Wronskian is singular."""
    solved = _solve(_wronskians(params, n, 1, starred)[0])
    if solved is None:
        return None
    det, xs = solved
    return det, (*(Fraction(x, det) for x in xs), Fraction(1))


@lru_cache(maxsize=4096)
def _delta_coeffs(params: ParamVector, n: int, starred: bool) -> tuple[Fraction, ...]:
    """Coefficients c_i(n) of Q = sum_i c_i(n) Delta^i, or of
    P* = sum_i c_i(n) (Delta*)^i when starred, at one site."""
    solved = _site_solve(params, n, starred)
    if solved is None:
        raise SingularTau(n)
    return solved[1]


def _sample(params: ParamVector, at) -> tuple[int, list]:
    """(first, at(first, bound + 1)) for the least first >= 0 at which the
    bound + 1 values at the consecutive sites from first are not None.

    at(first, count) lists the values at count consecutive sites.  Each None
    is a zero of a polynomial of degree <= bound, moved past by the next try;
    bound + 1 of them make it identically zero.
    """
    bound = _degree_bound(params)
    first = 0
    for _ in range(bound + 1):
        values = at(first, bound + 1)
        miss = next((k for k, v in enumerate(values) if v is None), None)
        if miss is None:
            return first, values
        first += miss + 1
    raise SingularTau(0, "tau is identically zero")


def _interpolate(first: int, ys: list[int], den: int = 1) -> Poly:
    """The polynomial in n of degree < len(ys) through (first + k, ys[k] / den).

    By Newton's forward differences p(n) = sum_k Delta^k y(first) C(n - first,
    k); over (len(ys) - 1)! den its falling-factorial coefficients in
    n - first are integers.
    """
    top = len(ys) - 1
    c = []
    for k in range(top + 1):
        c.append(ys[0] * (factorial(top) // factorial(k)))
        ys = [b - a for a, b in zip(ys, ys[1:])]
    return Poly.from_ints(N, _falling(c, -first), factorial(top) * den)


@dataclass(frozen=True)
class TauFunction:
    """The Wronskian tau, pure polynomial in n after character cancellation;
    `dpolyn` is its derivative in r_1 (the other r_i held fixed).

    `zeros` are the integer sites where tau vanishes, ascending, found exactly
    once from the integer numerators of tau (also used for integer Horner at
    sites).  The parameters are admissible iff it is empty.
    """

    params: ParamVector
    polyn: Poly
    dpolyn: Poly
    zeros: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "zeros", tuple(integer_roots(self.polyn.num)))

    @property
    def degree(self) -> int:
        return self.polyn.degree

    def value(self, n: int) -> Fraction:
        return Fraction(eval_int(self.polyn.num, index(n)), self.polyn.den)

    def ratio(self, a: int, b: int) -> Fraction:
        """tau(a)/tau(b); raises SingularTau at a vanishing denominator."""
        vb = self.value(b)
        if vb == 0:
            raise SingularTau(b)
        return self.value(a) / vb


@lru_cache(maxsize=256)
def tau_build(params: ParamVector) -> TauFunction:
    """Discrete Wronskian of (phi_1..phi_R, psi_1..psi_S), normalized.

    Each psi column's (-1)^n c factor is extracted before taking the
    determinant; the normalization (-1)^{nS} exp(-S sum (-2)^i r_i) cancels
    it exactly, so the result is a genuine polynomial in n.  One elimination
    per site over dual numbers gives tau and its r_1 derivative together.
    """
    K = params.order
    scale = prod(s for *_, s in _columns(params))

    def at(first, count):
        return [_dual_det([c[:K] for c in w], [d[:K] for d in dw])
                for w, dw in zip(_wronskians(params, first, count),
                                 _wronskians(params, first, count, deriv=True))]

    first, values = _sample(params, at)
    return TauFunction(
        params=params,
        polyn=_interpolate(first, [v for v, _ in values], scale),
        dpolyn=_interpolate(first, [d for _, d in values], scale),
    )


def ensure_regular(params: ParamVector) -> TauFunction:
    """tau for admissible parameters: tau(n) != 0 at every integer n, so the
    operator exists on all of Z.

    The verdict is exact (TauFunction.zeros) and cached with tau; otherwise
    SingularTau names the smallest integer zero.
    """
    tau = tau_build(params)
    if tau.zeros:
        raise SingularTau(tau.zeros[0])
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


@lru_cache(maxsize=256)
def operator_build(params: ParamVector) -> BandOperator:
    """The tridiagonal operator carried by tau:

    Lambda + (-2 + d/dr1 log(tau(n+1)/tau(n))) Id
           + (tau(n-1) tau(n+1) / tau(n)^2) Lambda^{-1}.

    d/dr1 tau is TauFunction.dpolyn.
    """
    tau = ensure_regular(params)
    t0, d0 = tau.polyn, tau.dpolyn
    t_plus, d_plus = t0.shift(1), d0.shift(1)
    t_minus = t0.shift(-1)
    diag = PolyFraction.const(N, -2) \
        + PolyFraction(d_plus, t_plus) - PolyFraction(d0, t0)
    sub = PolyFraction(t_minus * t_plus, t0 * t0)
    return BandOperator({1: 1, 0: diag, -1: sub})


def qp_build(params: ParamVector) -> tuple[BandOperator, BandOperator]:
    """The order R+S forward-difference factors Q and P.

    Q comes from the Wronskian ratio with one extra column, P as the formal
    adjoint of the starred ratio P*.  Their composition satisfies
    P Q = (Lambda - Id)^{2R} (Lambda + Id)^{2S} identically in n.  The
    coefficients c_i(n) are rational functions: det c_i and det are
    polynomials in n, interpolated from the site solves.
    """
    ensure_regular(params)
    K = params.order
    factors = []
    for starred, step in ((False, BandOperator({1: 1, 0: -1})),
                          (True, BandOperator({-1: 1, 0: -1}))):
        first, solved = _sample(params, lambda first, count: [
            _solve(w) for w in _wronskians(params, first, count, starred)])
        den = _interpolate(first, [det for det, _ in solved])
        out = step ** K
        for i in range(K):
            c = PolyFraction(_interpolate(first, [xs[i] for _, xs in solved]), den)
            out = out + BandOperator({0: c}) * (step ** i)
        factors.append(out)
    Q, Pstar = factors
    return Q, Pstar.adjoint()


def factorization_target(R: int, S: int) -> BandOperator:
    """(Lambda - Id)^{2R} (Lambda + Id)^{2S}."""
    return (BandOperator({1: 1, 0: -1}) ** (2 * R)) * (BandOperator({1: 1, 0: 1}) ** (2 * S))


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


def wave_p(params: ParamVector, n: int) -> RationalFunc:
    """p_n(x): Q applied to the sequence k -> x^k, taken at k = n, divided by
    (x-1)^R (x+1)^S.

    Delta^i acts on x-powers as multiplication by (x-1)^i, so the numerator
    is x^n sum_i c_i(n) (x-1)^i with the cached Q coefficients.
    """
    ensure_regular(params)
    return _wave(params, n, False, n)


def wave_p_star(params: ParamVector, n: int) -> RationalFunc:
    """p*_n(x) through the duality route: (tau(n-1)/tau(n)) x^{-1} p_{n-1}(1/x)."""
    tau = ensure_regular(params)
    value = wave_p(params, n - 1).inverse_var() * tau.ratio(n - 1, n)
    return RationalFunc(value.num.shift_exp(-1), value.den)


def wave_p_star_via_adjoint(params: ParamVector, n: int) -> RationalFunc:
    """p*_n(x) built independently from the starred Wronskian ratio P*.

    P*, with coefficients frozen at site n-1, is applied formally to x^{-n}:
    (Delta*)^i acts on inverse powers as multiplication by (x-1)^i.
    """
    ensure_regular(params)
    return _wave(params, n - 1, True, -n)


def darboux_one_step(delta) -> BandOperator:
    """One explicit Darboux step from the free operator, with tau_n = n + delta.

    Returns Q0 P0 for P0 = Id - (tau_{n-1}/tau_n) Lambda^{-1} and
    Q0 = Lambda - (tau_{n+1}/tau_n) Id; must agree with the tau route at
    R = 1, S = 0, r_1 = delta.  An integer delta is always singular.
    """
    delta = rat(delta)
    if delta.denominator == 1:
        raise SingularTau(int(-delta), "delta places a tau zero on the lattice")
    tau_n = Poly(N, [delta, 1])
    p0 = BandOperator({0: 1, -1: -PolyFraction(tau_n.shift(-1), tau_n)})
    q0 = BandOperator({1: 1, 0: -PolyFraction(tau_n.shift(1), tau_n)})
    return q0 * p0
