"""Assembly of exact closed-form heat kernels u(n,m,t) = e^{-2t} sum_j
beta_j(t) I_j(2t) for the Darboux-transformed lattice operators.

The construction follows the finite reduction of the spectral integral:

  * orders x^j with j >= 1-k pair to zero against the wave-function product
    (its expansion at the origin starts at x^{n-m});
  * the corrected high-order tail lies in the ring C[w, v] and integrates
    to zero by the band-support argument;
  * what survives is I_k(2t) x^{-k} plus, for each parity branch eps in
    {1, 2} and slot i < T, a resummed Bessel tail attached to
    x^{-(k+eps+2i)}, paired against the exact series coefficients gamma_d
    of x^{m-n} p_n(x) p_m(1/x) by taking a residue.

With the Q coefficients c_i at a site, p_n(x) = x^n A_n(x) / ((x-1)^R (x+1)^S)
for A_n(x) = sum_i c_i(n) (x-1)^i, so

  x^{m-n} p_n(x) p_m(1/x) = (-1)^R A_n(x) B_m(x) / ((1-x)^{2R} (1+x)^{2S}),
  B_m(x) = sum_l c_l(m) (1-x)^l x^{K-l} = x^K A_m(1/x),  K = R + S.

gamma_d is therefore a bilinear form in the (integer-scaled) coefficients at
n and m: a truncated product of two polynomials of degree K and the fixed
integer power series of the denominator.  The resummed tails depend only on
k = n - m and T, and are shared between sites.

beta_j are exact polynomials in t of degree <= 2T-1 (T = max(R,S)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache

from .bessel import bessel_row, tail_resum
from .exactcore import LaurentPoly, Poly, eval_homogeneous
from .taudarboux import (
    ParamVector,
    SingularTau,
    ensure_regular,
    operator_build,
    tau_build,
    wave_numerator,
)

T_VAR = "t"
J_VAR = "j"


class InternalInconsistency(AssertionError):
    """A postcondition guard tripped (e.g. beta degree above the bound)."""


class ZeroNode(ValueError):
    """Cardinal node k + eps + 2i is zero; the base index is inadmissible."""


@dataclass(frozen=True)
class GammaSeries:
    """Exact coefficients gamma_0..gamma_J of x^{m-n} p_n(x) p_m(1/x) at x=0."""

    n: int
    m: int
    gammas: tuple[Fraction, ...]

    def gamma(self, d: int) -> Fraction:
        return self.gammas[d]


def gamma_series(params: ParamVector, n: int, m: int, J: int) -> GammaSeries:
    """Series coefficients gamma_0..gamma_J of x^{m-n} p_n(x) p_m(1/x), for
    n - m >= 0.

    With a = D_n A_n and b = D_m B_m the integer numerators of A_n and B_m
    over their denominators D_n, D_m (B_m is A_m reversed; see the module
    docstring), gamma_d is (-1)^R / (D_n D_m) times the x^d coefficient
    of a(x) b(x) / ((1-x)^{2R} (1+x)^{2S}).  The truncated product a b is
    divided by each factor 1 -+ x in turn, one running sum per factor.

    gamma_0 always equals tau(n+1)/tau(n); that identity is asserted as a
    construction guard.  Raises SingularTau for inadmissible parameters.
    """
    if n - m < 0:
        raise ValueError("gamma_series expects n - m >= 0; transport the kernel instead")
    tau = ensure_regular(params)
    count = J + 1
    An, Am = wave_numerator(params, n), wave_numerator(params, m)
    a, b = An.num, Am.num[::-1]
    series = [0] * count
    for p, ap in enumerate(a[:count]):
        for q, bq in enumerate(b[:count - p]):
            series[p + q] += ap * bq
    for sign in (1,) * (2 * params.R) + (-1,) * (2 * params.S):
        for d in range(1, count):       # divide by 1 - sign x
            series[d] += sign * series[d - 1]
    scale = (-1) ** params.R * An.den * Am.den
    gammas = tuple(Fraction(c, scale) for c in series)
    if gammas[0] != tau.ratio(n + 1, n):
        raise InternalInconsistency(
            f"gamma_0 = {gammas[0]} != tau({n+1})/tau({n})")
    return GammaSeries(n=n, m=m, gammas=gammas)


def node_poly(k: int, eps: int, i: int, T: int) -> Poly:
    """Odd cardinal polynomial of degree 2T-1 on the node grid
    {k+eps+2l : l = 0..T-1}: value 1 at j = k+eps+2i, 0 at the other nodes.

    q(j) = (j / node_i) prod_{l != i} (j^2 - node_l^2)/(node_i^2 - node_l^2),
    so the tail decomposition's cross terms cancel exactly: this is also the
    weight ratio that matches the corrected tail bracket to the universal
    ring element built on the same nodes.
    """
    if eps not in (1, 2):
        raise ValueError("eps must be 1 or 2")
    if not (0 <= i <= T - 1):
        raise ValueError("slot i must lie in [0, T-1]")
    node = k + eps + 2 * i
    if node == 0:
        raise ZeroNode(f"node k+eps+2i = 0 for k={k}, eps={eps}, i={i}")
    q = Poly(J_VAR, [0, Fraction(1, node)])
    for l in range(T):
        if l == i:
            continue
        other = k + eps + 2 * l
        q = q * Poly(J_VAR, [-Fraction(other) ** 2, 0, 1])
        q = q.scale(1 / (Fraction(node) ** 2 - Fraction(other) ** 2))
    return q


@dataclass(frozen=True)
class KernelFormula:
    """u(n,m,t) = e^{-2t} sum_j beta_j(t) I_j(2t), finitely many j >= 0."""

    params: ParamVector
    n: int
    m: int
    terms: dict          # order j >= 0 -> Poly in t
    provenance: dict

    def beta(self, j: int) -> Poly:
        return self.terms.get(abs(j), Poly(T_VAR))

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self.terms))

    def max_degree(self) -> int:
        return max((p.degree for p in self.terms.values()), default=-1)

    def to_json(self) -> dict:
        return {
            "R": self.params.R,
            "S": self.params.S,
            "r": self.params.r_strings(),
            "n": self.n,
            "m": self.m,
            "terms": [
                {"order": j, "beta": self.terms[j].to_strings()}
                for j in self.support
            ],
            "prefactor": "exp(-2*t)",
            "bessel_arg": "2*t",
        }

    def to_text(self) -> str:
        if not self.terms:
            return "0"
        if len(self.terms) == 1:
            (j, p), = self.terms.items()
            if p == 1:
                return f"exp(-2t) * I_{j}(2t)"
        parts = [f"({_poly_text(self.terms[j])}) I_{j}(2t)" for j in self.support]
        return "exp(-2t) * [ " + " + ".join(parts) + " ]"

    def to_latex(self) -> str:
        if not self.terms:
            return "u(n,m,t) = 0"
        parts = [
            rf"\left({_poly_latex(self.terms[j])}\right) I_{{{j}}}(2t)"
            for j in self.support
        ]
        body = " + ".join(parts)
        return (
            rf"u({self.n},{self.m},t) = e^{{-2t}}\left[ {body} \right]"
        )


def _poly_text(p: Poly) -> str:
    if p.is_zero():
        return "0"
    parts = []
    for d, c in enumerate(p.coeffs):
        if not c:
            continue
        mag = abs(c)
        if d == 0:
            body = str(mag)
        else:
            var = "t" if d == 1 else f"t^{d}"
            body = var if mag == 1 else f"{mag} {var}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(("+ " if c > 0 else "- ") + body)
    return " ".join(parts)


def _frac_latex(c: Fraction) -> str:
    if c.denominator == 1:
        return str(c.numerator)
    sign = "-" if c < 0 else ""
    return rf"{sign}\tfrac{{{abs(c.numerator)}}}{{{c.denominator}}}"


def _poly_latex(p: Poly) -> str:
    if p.is_zero():
        return "0"
    parts = []
    for d, c in enumerate(p.coeffs):
        if not c:
            continue
        if d == 0:
            body = _frac_latex(c)
        else:
            var = "t" if d == 1 else f"t^{{{d}}}"
            coef = _frac_latex(c)
            if coef == "1":
                body = var
            elif coef == "-1":
                body = f"-{var}"
            else:
                body = f"{coef} {var}"
        parts.append(body)
    out = parts[0]
    for piece in parts[1:]:
        out += piece if piece.startswith("-") else "+" + piece
    return out


def _check_degrees(terms: dict, T: int):
    bound = max(2 * T - 1, 0)
    for j, p in terms.items():
        if p.degree > bound:
            raise InternalInconsistency(
                f"beta_{j} has degree {p.degree} above the bound {bound}")


@lru_cache(maxsize=1024)
def _tail(first: int, i: int, T: int) -> tuple:
    """The resummed tail attached to x^{-(first+2i)}, as (order, Poly in t)
    pairs, for first = k + eps.

    Its node grid {first + 2l : l < T} and its start order first + 2i - 1
    depend on k + eps only, so every site pair with the same offset shares
    it, and the eps = 2 branch at offset k is the eps = 1 branch at k + 1.
    """
    q = node_poly(first - 1, 1, i, T)
    return tuple(tail_resum(q, first + 2 * i - 1, arg="2t").terms.items())


def assemble_kernel(params: ParamVector, n: int, m: int) -> KernelFormula:
    """Exact closed form of the fundamental solution at sites (n, m).

    For n - m < 0 the kernel is assembled at the swapped pair and carried
    back by the tau-ratio symmetry.  Kernels are memoised; each call returns
    its own terms and provenance dicts, so a caller cannot change the memo.
    """
    f = _assemble(params, n, m)
    return replace(f, terms=dict(f.terms), provenance=dict(f.provenance))


@lru_cache(maxsize=1024)
def _assemble(params: ParamVector, n: int, m: int) -> KernelFormula:
    if n - m < 0:
        return symmetry_transport(params, n, m, assemble_kernel(params, m, n))
    k = n - m
    T = max(params.R, params.S)
    eps_branches = (1, 2) if T else ()
    J = k + 2 * T + 2 if T else 0
    gs = gamma_series(params, n, m, J)      # decides admissibility
    prefactor = tau_build(params).ratio(m, m + 1)
    g0 = gs.gamma(0) * prefactor
    parts = [(k, [(0, 1)], g0.numerator, g0.denominator)]
    for eps in eps_branches:
        for i in range(T):
            w = gs.gamma(eps + 2 * i) * prefactor
            if w:
                parts += [(j, enumerate(p.num), w.numerator, w.denominator * p.den)
                          for j, p in _tail(k + eps, i, T)]
    rows, D = _integer_rows(parts)
    terms = {j: p for j, row in rows.items()
             if (p := Poly.from_ints(T_VAR, [row.get(e, 0) for e in range(max(row) + 1)], D))}
    _check_degrees(terms, T)
    return KernelFormula(params=params, n=n, m=m, terms=terms,
                         provenance={"T": T, "eps": eps_branches, "J": J})


def symmetry_transport(params: ParamVector, n: int, m: int,
                       f: KernelFormula) -> KernelFormula:
    """Carry a kernel assembled at (m, n) over to (n, m).

    u(n,m,t) = [tau(m) tau(n+1) / (tau(m+1) tau(n))] u(m,n,t); the transport
    is an involution.
    """
    if (f.n, f.m) != (m, n):
        raise ValueError(f"formula is for sites {(f.n, f.m)}, expected {(m, n)}")
    tau = tau_build(params)
    den = tau.value(m + 1) * tau.value(n)
    if den == 0:
        raise SingularTau(m + 1 if tau.value(m + 1) == 0 else n)
    factor = tau.value(m) * tau.value(n + 1) / den
    terms = {j: p.scale(factor) for j, p in f.terms.items() if not p.is_zero()}
    return KernelFormula(params=params, n=n, m=m, terms=terms,
                         provenance=dict(f.provenance, transported=True))


def kernel_eval(f: KernelFormula, t: float) -> float:
    """Numeric value e^{-2t} sum_j beta_j(t) I_j(2t).

    Each beta_j(t) is exact (integer Horner at t = x/y), rounded once to
    float; the scaled Bessel values e^{-2t} I_j(2t) come from one vectorised
    scipy.special.ive call over the kernel's orders, so the product never
    overflows.  The rounding errors of the Bessel values are independent, so
    the relative error is about kappa eps for kappa = sum_j |beta_j(t)|
    e^{-2t} I_j(2t) / |u|.  t = 0 returns the exact delta limit.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    if t == 0:
        return 1.0 if f.n == f.m else 0.0
    if not f.terms:
        return 0.0
    from scipy.special import ive

    x, y = float(t).as_integer_ratio()
    scaled = ive(list(f.terms), 2.0 * t)
    parts = []
    for p, b in zip(f.terms.values(), scaled):
        parts.append(eval_homogeneous(p.num, x, y) / (p.den * y ** p.degree) * float(b))
    return math.fsum(parts)


# ---------------------------------------------------------------------------
# symbolic certification: reduce Bessel combinations to the (I_0, I_1) basis
# ---------------------------------------------------------------------------


def _integer_rows(parts: list) -> tuple[dict[int, dict[int, int]], int]:
    """(rows, D): the sum over parts (j, (e, c) pairs, a, b) of (a c / b) t^e
    in order j, all integers, as integer numerators rows[j][e] over D, the
    lcm of the b."""
    D = math.lcm(*(b for *_, b in parts))
    rows: dict[int, dict[int, int]] = {}
    for j, items, a, b in parts:
        row, f = rows.setdefault(j, {}), a * (D // b)
        for e, c in items:
            row[e] = row.get(e, 0) + c * f
    return rows, D


def combo_to_basis(terms) -> tuple[LaurentPoly, LaurentPoly]:
    """Collapse {order j -> coefficient in t} onto (I_0(2t), I_1(2t)).

    `terms` is that dict or a list of (j, coefficient) pairs, whose repeated
    orders add up.  Coefficients may be Poly or LaurentPoly in t; the result
    is the exact pair of Laurent polynomials multiplying the basis functions.
    Orders are folded by I_{-j} = I_j, then removed from the top down with the
    three-term relation I_j(2t) = I_{j-2}(2t) - ((j-1)/t) I_{j-1}(2t).
    The reduction runs on integer numerators over one common denominator D,
    the lcm of the coefficients' denominators; only the result holds Fractions.
    """
    parts = []
    for j, p in (terms.items() if isinstance(terms, dict) else terms):
        low, p = (0, p) if isinstance(p, Poly) else (p.low, p.poly)
        parts.append((abs(j), enumerate(p.num, low), 1, p.den))
    rows, D = _integer_rows(parts)
    for j in range(max(rows, default=0), 1, -1):
        row = rows.pop(j, {})
        lower = rows.setdefault(j - 2, {})
        mid = rows.setdefault(j - 1, {})
        for e, c in row.items():
            lower[e] = lower.get(e, 0) + c
            mid[e - 1] = mid.get(e - 1, 0) - (j - 1) * c
    return tuple(LaurentPoly(T_VAR, {e: Fraction(c, D) for e, c in rows.get(i, {}).items()})
                 for i in (0, 1))


def decomposition_residual(k: int, T: int, t: float) -> float:
    """Numeric self-check of the tail decomposition bookkeeping.

    Reassembles e^{t(x + 1/x)} at two points of the unit circle from its
    three pieces: the untouched orders j >= 1-k plus I_k(2t) x^{-k}, the
    ring-member brackets for j > k+2T (truncated at order 80), and the
    resummed parity tails.  Returns the maximum absolute reconstruction
    error over the two angles.
    """
    terms = 80
    if T < 1:
        raise ValueError("decomposition needs T >= 1")
    row = bessel_row(2.0 * t, terms + 2 * T + abs(k) + 4)
    tq = Fraction(t)
    tails = {eps + 2 * i: sum(float(p.subs(tq)) * row.unscaled(j)
                              for j, p in _tail(k + eps, i, T))
             for eps in (1, 2) for i in range(T)}
    worst = 0.0
    for theta in (math.pi / 7, math.pi / 3):
        x = complex(math.cos(theta), math.sin(theta))
        total = 0j
        for j in range(1 - k, terms + 1):
            total += row.unscaled(j) * x ** j
        total += row.unscaled(k) * x ** (-k)
        for j in range(k + 2 * T + 1, terms + 1):
            eps = 1 if (j - k) % 2 == 1 else 2
            bracket = x ** (-j)
            for i in range(T):
                node = k + eps + 2 * i
                bracket -= float(node_poly(k, eps, i, T).subs(Fraction(j))) * x ** (-node)
            total += row.unscaled(j) * bracket
        for d, value in tails.items():
            total += value * x ** (-(k + d))
        target = complex(math.e) ** (t * (x + 1 / x))
        worst = max(worst, abs(total - target))
    return worst


@dataclass(frozen=True)
class ExactZeroReport:
    """Outcome of the symbolic heat-equation check at one site pair."""

    params: ParamVector
    n: int
    m: int
    passed: bool
    residual_I0: str
    residual_I1: str


def pde_residual(f: KernelFormula) -> ExactZeroReport:
    """Certify d/dt u - (L u) = 0 symbolically for the assembled kernel.

    Kernels at the band sites n-1, n, n+1 are assembled, each beta I_j(2t)
    is differentiated through the Bessel recurrences, and the residual's
    terms go unsummed to the integer reduction onto the (I_0(2t), I_1(2t))
    basis over Laurent polynomials in t.  Pass means both basis coefficients
    vanish identically.
    """
    params, n, m = f.params, f.n, f.m
    L = operator_build(params)
    up = assemble_kernel(params, n + 1, m)
    um = assemble_kernel(params, n - 1, m)
    c0 = L.coeff_at(0, n)
    cm = L.coeff_at(-1, n)
    res = []
    for j, p in f.terms.items():
        res += [(j, p.derivative()), (j, p.scale(-2 - c0)),    # (e^{-2t} beta_j)' - c0 beta_j
                (j - 1, p), (j + 1, p)]                     # beta_j d/dt I_j(2t)
    res += [(j, -p) for j, p in up.terms.items()]
    res += [(j, p.scale(-cm)) for j, p in um.terms.items()]

    A, B = combo_to_basis(res)
    return ExactZeroReport(
        params=params, n=n, m=m,
        passed=A.is_zero() and B.is_zero(),
        residual_I0=repr(A), residual_I1=repr(B),
    )
