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

All parameters are numeric, and the Wronskian layer runs on Python ints:
each column is integer falling-factorial coefficients from the exponential
series, evaluated once over a run of sites.  One fraction-free solve per
site of the Wronskian with one more row gives det, the scaled tau(n), and
det q_0 .. det q_{K-1} for Q = sum_k q_k Lambda^k (or P*, in Lambda^{-k}),
q_K = 1, K = R + S.  Newton forward differences over a run of sites where
det does not vanish make them integer polynomials in n, and tau, the
diagonal of L, Q, P* and the wave numerators are all read off these.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm, prod
from operator import index

from .exactcore import (
    Poly,
    PolyFraction,
    ZeroDenominator,
    eval_int,
    integer_roots,
    poly_gcd,
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

    phi_j(n) = S^1_{2j-1}(n + j - 1) and psi_j likewise with S^{-1}.  Each
    entry is (tilde, column, scale): the integer coefficient list (lowest
    degree first) of the column times its denominator scale; tilde marks the
    psi columns, on which differences act through the (-1)^n factor.
    """
    out = []
    for eps, count in ((1, params.R), (-1, params.S)):
        series = _series(eps, params, 2 * count - 1)
        for j in range(1, count + 1):
            f = _component(eps, series, 2 * j - 1, j - 1)
            out.append((eps == -1, f.num, f.den))
    return tuple(out)


def _degree_bound(params: ParamVector) -> int:
    """Bound on the degree in n of tau and of det q_k: the column degrees'
    sum less R(R-1)/2 and S(S-1)/2, which tau attains.

    Lemma: p_c(n + i) = sum_a i^a g_{c,a}(n), deg g_{c,a} <= deg p_c - a, so
    m columns with one base lambda^n (1 for phi, -1 for psi) are a matrix in
    i alone times G = (g_{c,a}); by Cauchy-Binet a minor on any rows sums
    minors of G on m distinct powers a, of degree <= sum deg p_c - m(m-1)/2.
    Laplace expansion of det and each det q_k over the phi and psi groups
    pairs one minor of each, so the two bounds add."""
    R, S = params.R, params.S
    return sum(len(f) - 1 for _, f, _ in _columns(params)) - R * (R - 1) // 2 - S * (S - 1) // 2


def _wronskians(params: ParamVector, first: int, count: int, starred: bool) -> list:
    """Rows 0..K of the Wronskian, column by column, at the count sites n
    from first: entry [c][i] is Lambda^i f_c(n) = f_c(n + i) on the scaled
    column f_c, times (-1)^i on the psi columns, whose (-1)^n factor is
    pulled out.  Starred columns are shifted by K sites and use
    Lambda^{-i}: f_c(n + K - i).  The difference rows Delta^i (or
    (Delta*)^i) are a unit triangular change of basis of these, with the
    same K x K determinant.
    """
    K = params.order
    tables = [(-1 if tilde else 1, [eval_int(f, x) for x in range(first, first + count + K)])
              for tilde, f, _ in _columns(params)]
    return [[[sign ** i * vals[s + K - i if starred else s + i] for i in range(K + 1)]
             for sign, vals in tables] for s in range(count)]


def _solve(cols: list):
    """(det, [det q_0..det q_{K-1}]) for the Wronskian columns cols at a
    site: sum_k q_k row_k annihilates every column with q_K = 1, and det is
    the scaled K x K Wronskian; None where det = 0.

    Fraction-free (Bareiss) elimination on the augmented matrix [A | -b],
    whose rows are the columns, then back-substitution for det q, which is
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


def _sample(params: ParamVector, starred: bool) -> tuple[int, list]:
    """(first, solves): _solve at the bound + 1 consecutive sites from the
    least first >= 0 at which none of them is None.

    Each None is a zero of det, a polynomial of degree <= bound, moved past
    by the next try; bound + 1 of them make it identically zero.
    """
    bound = _degree_bound(params)
    first = 0
    for _ in range(bound + 1):
        solves = [_solve(w) for w in _wronskians(params, first, bound + 1, starred)]
        miss = next((k for k, v in enumerate(solves) if v is None), None)
        if miss is None:
            return first, solves
        first += miss + 1
    raise SingularTau(0, "tau is identically zero")


def _newton(first: int, ys: list[int]) -> tuple[int, ...]:
    """Integer coefficients (lowest degree first), over (len(ys) - 1)!, of
    the polynomial in n of degree < len(ys) through (first + k, ys[k]): by
    Newton's forward differences p(n) = sum_k Delta^k y(first) C(n - first, k),
    whose falling-factorial coefficients over that factorial are integers."""
    top = len(ys) - 1
    c = []
    for k in range(top + 1):
        c.append(ys[0] * (factorial(top) // factorial(k)))
        ys = [b - a for a, b in zip(ys, ys[1:])]
    return tuple(_falling(c, -first))


@lru_cache(maxsize=512)
def _solution(params: ParamVector, starred: bool) -> tuple[tuple[int, ...], ...]:
    """det, det q_0, ..., det q_{K-1} of _solve as polynomials in n: integer
    coefficients (lowest degree first) over the common denominator bound!,
    bound = _degree_bound(params), interpolated from one run of site solves.
    q_k are the coefficients of Q = sum_k q_k Lambda^k, or of
    P* = sum_k q_k Lambda^{-k} when starred, with q_K = 1.
    """
    first, solves = _sample(params, starred)
    return tuple(_newton(first, list(ys)) for ys in zip(*((d, *xs) for d, xs in solves)))


@dataclass(frozen=True)
class TauFunction:
    """The Wronskian tau, pure polynomial in n after character cancellation.

    `zeros` are the integer sites where tau vanishes, ascending, found exactly
    once from the integer numerators of tau (also used for integer Horner at
    sites).  The parameters are admissible iff it is empty.
    """

    params: ParamVector
    polyn: Poly
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
    it exactly, so the result is a genuine polynomial in n: the det of
    _solution over bound! times the column scales.
    """
    den = factorial(_degree_bound(params)) * prod(s for *_, s in _columns(params))
    return TauFunction(params=params, polyn=Poly.from_ints(N, _solution(params, False)[0], den))


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

    def __reduce__(self):           # copy and pickle rebuild it, as __setattr__ refuses
        return BandOperator, (self.coeffs,)

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

    L comes from L0 by Darboux transformations, so Q = sum_k q_k Lambda^k
    intertwines them: L Q = Q L0.  Its Lambda^K terms give the diagonal
    -2 - (q_{K-1}(n+1) - q_{K-1}(n)), read off _solution (-2 at K = 0).

    Each coefficient is one fraction, as kernel._band_at forms it at a site:
    with q_{K-1} = a/b reduced by gcd(a, b) (b divides det, a multiple of
    tau), the diagonal is -2 - (a(n+1) b(n) - a(n) b(n+1)) / (b(n) b(n+1)).
    Lemma: if gcd(tau(n), tau(n+1)) = 1, both fractions are reduced.  Then
    b(n) and b(n+1) are coprime, so a prime factor of b(n) divides the
    numerator only if it divides a(n) b(n+1), and likewise for b(n+1); and
    tau(n) is coprime to tau(n+1) and tau(n-1).  Otherwise both fractions go
    through the reducing PolyFraction constructor.
    """
    t0 = ensure_regular(params).polyn
    b, *dq = (Poly.from_ints(N, c) for c in _solution(params, False))
    a = dq[-1] if dq else b
    g = poly_gcd(a, b)
    if g.degree > 0:
        a, b = a // g, b // g
    a1, b1 = a.shift(1), b.shift(1)
    bb = b * b1
    make = PolyFraction.coprime if poly_gcd(t0, t0.shift(1)).degree == 0 else PolyFraction
    diag = make(a * b1 - a1 * b - 2 * bb, bb)
    sub = make(t0.shift(-1) * t0.shift(1), t0 * t0)
    return BandOperator({1: 1, 0: diag, -1: sub})


def qp_build(params: ParamVector) -> tuple[BandOperator, BandOperator]:
    """The order R+S forward-difference factors Q and P.

    Q comes from the Wronskian ratio with one extra column, P as the formal
    adjoint of the starred ratio P*.  Their composition satisfies
    P Q = (Lambda - Id)^{2R} (Lambda + Id)^{2S} identically in n.  The
    coefficients q_k(n) are rational functions: det q_k and det are the
    polynomials in n of _solution.
    """
    ensure_regular(params)
    factors = []
    for starred, sign in ((False, 1), (True, -1)):
        det, *dq = (Poly.from_ints(N, c) for c in _solution(params, starred))
        coeffs = {sign * k: PolyFraction(q, det) for k, q in enumerate(dq)}
        factors.append(BandOperator({**coeffs, sign * params.order: 1}))
    Q, Pstar = factors
    return Q, Pstar.adjoint()


def factorization_target(R: int, S: int) -> BandOperator:
    """(Lambda - Id)^{2R} (Lambda + Id)^{2S}."""
    return (BandOperator({1: 1, 0: -1}) ** (2 * R)) * (BandOperator({1: 1, 0: 1}) ** (2 * S))


@lru_cache(maxsize=1024)
def wave_numerator(params: ParamVector, site: int, starred: bool = False) -> Poly:
    """A(x) = sum_k q_k(site) x^k for the Q (or, starred, the P*)
    coefficients q_k at the site: Lambda^k acts on x-powers (Lambda^{-k} on
    inverse powers) as multiplication by x^k, so
    p_n(x) = x^n A_n(x) / ((x-1)^R (x+1)^S).  Cached per site, as every
    gamma_series and wave function at the site reads the same one.  Raises
    SingularTau where det vanishes at the site."""
    det, *dq = (eval_int(c, site) for c in _solution(params, starred))
    if not det:
        raise SingularTau(site)
    return Poly.from_ints("x", [*dq, det], det)


def _wave(params: ParamVector, site: int, starred: bool, exp: int) -> PolyFraction:
    """x^exp A(x) / ((x-1)^R (x+1)^S) in x for the wave numerator A at the
    site: x^|exp| by zero-padding, in the denominator when exp < 0.  The
    denominator's factors x, x - 1, x + 1 are divided out of the numerator
    (synthetic division) while both hold them, leaving it reduced, no gcd."""
    A = wave_numerator(params, site, starred)
    num, den = [0] * max(exp, 0) + list(A.num), Poly.const("x", 1)
    for root, power in ((0, max(-exp, 0)), (1, params.R), (-1, params.S)):
        while power and eval_int(num, root) == 0:
            for k in range(len(num) - 2, 0, -1):
                num[k] += root * num[k + 1]
            num, power = num[1:], power - 1
        den = den * Poly.from_ints("x", [-root, 1]) ** power
    return PolyFraction.coprime(Poly.from_ints("x", num, A.den), den)


def wave_p(params: ParamVector, n: int) -> PolyFraction:
    """p_n(x): Q applied to the sequence k -> x^k, taken at k = n, divided by
    (x-1)^R (x+1)^S.

    The numerator is x^n A_n(x), A_n = wave_numerator(params, n).
    """
    ensure_regular(params)
    return _wave(params, n, False, n)


def wave_p_star(params: ParamVector, n: int) -> PolyFraction:
    """p*_n(x) through the duality route: (tau(n-1)/tau(n)) x^{-1} p_{n-1}(1/x)."""
    tau = ensure_regular(params)
    return wave_p(params, n - 1).inverse_var() * tau.ratio(n - 1, n) / Poly.variable("x")


def wave_p_star_via_adjoint(params: ParamVector, n: int) -> PolyFraction:
    """p*_n(x) built independently from the starred Wronskian ratio P*.

    P*, with coefficients frozen at site n-1, is applied formally to x^{-n}:
    Lambda^{-k} acts on inverse powers as multiplication by x^k.
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
