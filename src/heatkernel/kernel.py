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

With Q = sum_k q_k Lambda^k, p_n(x) = x^n A_n(x) / ((x-1)^R (x+1)^S) for
A_n(x) = sum_k q_k(n) x^k, so

  x^{m-n} p_n(x) p_m(1/x) = (-1)^R A_n(x) B_m(x) / ((1-x)^{2R} (1+x)^{2S}),
  B_m(x) = sum_k q_k(m) x^{K-k} = x^K A_m(1/x),  K = R + S.

gamma_d is therefore a bilinear form in the (integer-scaled) coefficients at
n and m: a truncated product of two polynomials of degree K and the fixed
integer power series of the denominator, up to gamma_{2T}.  The resummed
tails depend only on k = n - m and T: the (k, T) table holds I_k(2t) and
the 2T tails over one denominator, node-weighted sums of one integer
primitive, S_n(k') = sum_{j > k', j = k'+1 mod 2} j^{2n+1} I_j(2t), built
once per node grid.  A kernel is the site's 2T+1 integer weights
gamma_d tau(m) (over tau(m+1)), divided by their content, times that table,
all on integers.  An assembled kernel is one shared, read-only memo entry
that keeps its weights; its beta_j Polys are built from the table's rows on
first read.  Both consumers, pde_residual and kernel_eval, read one form,
u = e^{-2t} (A(t) I_k(2t) + B(t) I_{k+1}(2t)) with k = |n - m|: the weights
times the table folded onto (I_k, I_{k+1}) (`_basis_matrix`).  A
certificate builds neither the beta_j nor L: the band values at a site come
from tau and the wave numerators.

beta_j are exact polynomials in t of degree <= 2T-1 (T = max(R,S)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import mul

from .bessel import bessel_row, tail_resum
from .exactcore import Poly, PolyFraction, eval_homogeneous, eval_int
from .taudarboux import (
    ParamVector,
    SingularTau,
    ensure_regular,
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
    """Exact coefficients gamma_0..gamma_J of x^{m-n} p_n(x) p_m(1/x) at x=0,
    as integer numerators `num` over one nonzero integer `den`; `gammas` is
    the Fraction view, built on each access and not stored."""

    n: int
    m: int
    num: tuple[int, ...]
    den: int

    @property
    def gammas(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self.den) for c in self.num)

    def gamma(self, d: int) -> Fraction:
        return Fraction(self.num[d], self.den)


@lru_cache(maxsize=1024)
def _tau_at(params: ParamVector, n: int) -> int:
    """tau's integer numerator at site n (tau(n) times tau's denominator), once
    per (params, n): every ratio of tau values the kernels read is a ratio of these."""
    return eval_int(tau_build(params).polyn.num, n)


def gamma_series(params: ParamVector, n: int, m: int, J: int) -> GammaSeries:
    """Series coefficients gamma_0..gamma_J of x^{m-n} p_n(x) p_m(1/x), for
    n - m >= 0.  A kernel reads gamma_0..gamma_{2T}, so it asks for J = 2T.

    With a = D_n A_n and b = D_m B_m the integer numerators of A_n and B_m
    over their denominators D_n, D_m (B_m is A_m reversed; see the module
    docstring), gamma_d is (-1)^R / (D_n D_m) times the x^d coefficient
    of a(x) b(x) / ((1-x)^{2R} (1+x)^{2S}).  The truncated product a b is
    divided by each factor 1 -+ x in turn, one running sum per factor.

    The result keeps the numerators over (-1)^R D_n D_m.  gamma_0 always
    equals tau(n+1)/tau(n); that identity is asserted, cross-multiplied on
    integers, as a construction guard.  Raises SingularTau for inadmissible
    parameters.
    """
    if n - m < 0:
        raise ValueError("gamma_series expects n - m >= 0; transport the kernel instead")
    ensure_regular(params)
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
    if series[0] * _tau_at(params, n) != scale * _tau_at(params, n + 1):
        raise InternalInconsistency(
            f"gamma_0 = {Fraction(series[0], scale)} != tau({n+1})/tau({n})")
    return GammaSeries(n=n, m=m, num=tuple(series), den=scale)


def node_poly(first: int, i: int, T: int) -> Poly:
    """Odd cardinal polynomial of degree 2T-1 on the node grid
    {first+2l : l = 0..T-1}: value 1 at j = first+2i, 0 at the other nodes.

    The tail at offset k and parity branch eps in {1, 2} has first = k + eps.
    q(j) = (j / node_i) prod_{l != i} (j^2 - node_l^2)/(node_i^2 - node_l^2),
    so the tail decomposition's cross terms cancel exactly: this is also the
    weight ratio that matches the corrected tail bracket to the universal
    ring element built on the same nodes.
    """
    if not (0 <= i <= T - 1):
        raise ValueError("slot i must lie in [0, T-1]")
    node = first + 2 * i
    if node == 0:
        raise ZeroNode(f"node first+2i = 0 for first={first}, i={i}")
    q = Poly(J_VAR, [0, Fraction(1, node)])
    for l in range(T):
        if l == i:
            continue
        other = first + 2 * l
        q = q * Poly(J_VAR, [-Fraction(other) ** 2, 0, 1])
        q = q.scale(1 / (Fraction(node) ** 2 - Fraction(other) ** 2))
    return q


class _ReadOnly(dict):
    """A dict whose mutators raise TypeError: an assembled kernel's shared terms and provenance."""

    def _refuse(self, *args, **kwargs):
        raise TypeError("an assembled kernel is read-only; edit a dataclasses.replace copy")

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = _refuse

    def __reduce__(self):           # pickle and copy would refill it item by item
        return _ReadOnly, (dict(self),)


@dataclass(frozen=True)
class KernelFormula:
    """u(n,m,t) = e^{-2t} sum_j beta_j(t) I_j(2t), finitely many j >= 0.

    An assembled kernel is one memo entry, shared by every caller: its `terms`
    and `provenance` are read-only, it keeps its reduced weights (k, T, w, den),
    and it builds `terms` on first read (the table's D multiplied into den)
    and its form (low, A, B, D) on (I_k(2t), I_{k+1}(2t)) on first use (the
    basis matrix's D).  A kernel built by hand, or by `replace`, has no
    weights: its terms are folded on each call (`_form`)."""

    params: ParamVector
    n: int
    m: int
    terms: dict          # order j >= 0 -> Poly in t
    provenance: dict
    _weights: tuple | None = field(default=None, init=False, repr=False, compare=False)

    @cached_property
    def _basis(self) -> tuple:
        k, T, w, den = self._weights
        low, *rows, D = _basis_matrix(k, T)
        return (low, *(tuple(sum(map(mul, cell, w)) for cell in r) for r in rows), den * D)

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
        body = " + ".join(rf"\left({_poly_latex(self.terms[j])}\right) I_{{{j}}}(2t)"
                          for j in self.support)
        return rf"u({self.n},{self.m},t) = e^{{-2t}}\left[ {body} \right]"


def _assembled(params: ParamVector, n: int, m: int, provenance: dict, weights: tuple) -> KernelFormula:
    """The read-only kernel whose (k, T) tables times the integer weights w,
    over den times the table's own D, give its terms and its (I_k, I_{k+1}) form,
    for weights = (k, T, w, den), kept divided by gcd(den, *w): about half
    den's bits, more on transported kernels, that every certificate product
    would carry.  `terms` are normalised Polys, so they do not change."""
    k, T, w, den = weights
    g = math.gcd(den, *w)
    f = object.__new__(KernelFormula)
    vars(f).update(params=params, n=n, m=m, provenance=_ReadOnly(provenance),
                   _weights=(k, T, tuple(c // g for c in w), den // g))
    return f


def _weighted_rows(pairs, width: int) -> dict:
    """sum_c w_c col_c over (weight w_c, col_c) pairs, columns {order j:
    integer row of at most width entries}, as {order j: list of width
    entries}, orders as the columns first reach them, zero weights skipped."""
    acc: dict = {}
    for c, col in pairs:
        for j, row in col.items() if c else ():
            have = acc.setdefault(j, [0] * width)
            for e, x in enumerate(row):
                have[e] += c * x
    return acc


def _weighted_terms(f: KernelFormula) -> dict:
    k, T, w, den = f._weights
    cols, D = _table_columns(k, T, 0)
    return _ReadOnly({j: p for j, row in _weighted_rows(zip(w, cols), 2 * T + 1).items()
                      if (p := Poly.from_ints(T_VAR, row, den * D))})


# an assembled kernel builds its terms on first read, into its __dict__
KernelFormula.terms = cached_property(_weighted_terms)
KernelFormula.terms.__set_name__(KernelFormula, "terms")


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
    """InternalInconsistency unless every beta_j of terms {j: integer
    coefficients in t} has degree at most 2T - 1."""
    bound = max(2 * T - 1, 0)
    for j, cs in terms.items():
        if any(cs[bound + 1:]):
            raise InternalInconsistency(
                f"beta_{j} has degree {max(e for e, c in enumerate(cs) if c)} above the bound {bound}")


def _folded(rows: dict, base: int) -> dict:
    """`_fold` of sum_j P_j(t) I_j(2t), for rows {order j: integer coefficients
    of P_j}, as {exponent e: the numerators of t^e on (I_base(2t),
    I_{base+1}(2t))}, exponents where both are zero left out."""
    low, row0, row1 = _fold(rows.items(), base)
    return {e: pair for e, pair in enumerate(zip(row0, row1), low) if any(pair)}


@lru_cache(maxsize=1024)
def _power_sum(n: int, k: int) -> tuple:
    """(rows, D): S_n(k) = sum_{j > k, j = k+1 mod 2} j^{2n+1} I_j(2t), the
    one primitive of the (k, T) table, as integer rows per order over D:
    tail_resum of the monomial j^{2n+1}, orders in its sequence.  Its degree
    guard (at most 2n + 1) covers the table's rows and its fold, as neither a
    weighted sum nor the fold raises a degree."""
    terms = tail_resum(Poly.from_ints(J_VAR, [0] * (2 * n + 1) + [1]), k)
    D = math.lcm(*(p.den for p in terms.values()))
    rows = {j: [c * (D // p.den) for c in p.num] for j, p in terms.items()}
    _check_degrees(rows, n + 1)
    return rows, D


@lru_cache(maxsize=512)
def _grid_columns(f: int, T: int) -> tuple:
    """((den, col), ...): the T tail columns of the node grid {f + 2i : i < T},
    integer rows per order over each den; the second grid of (k, T) is the
    first of (k + 1, T).  Column i is sum_n c_n S_n(node - 1) / delta,
    node = f + 2i: node_poly(f, i, T) on integers is
    j prod_{l != i} (j^2 - o_l^2) = sum_n c_n j^{2n+1} over
    delta = node prod_{l != i} (node^2 - o_l^2), o_l the other nodes."""
    grid = range(f, f + 2 * T, 2)
    out = []
    for node in grid:
        c, delta = [1], node
        for other in grid:
            if other != node:           # times j^2 - other^2, a polynomial in j^2
                c = [b - other * other * a for a, b in zip(c + [0], [0] + c)]
                delta *= node * node - other * other
        sums = [(cn, _power_sum(n, node - 1)) for n, cn in enumerate(c) if cn]
        M = math.lcm(*(D for _, (_, D) in sums))
        acc = _weighted_rows(((cn * (M // D), S) for cn, (S, D) in sums), 2 * T)
        out.append((delta * M, {j: tuple(row) for j, row in acc.items() if any(row)}))
    return tuple(out)


def _table_columns(k: int, T: int, form: int) -> tuple:
    """(cols, D): the 2T+1 columns of the (k, T) table, each over the least
    common denominator D, as rows per order (form 0) or folded onto
    (I_k(2t), I_{k+1}(2t)) (form 1, `_folded`).

    Column 0 is I_k(2t); then come the tails of branch eps = 1, slots i < T,
    then those of eps = 2: the cached `_grid_columns` of the grids from k + 1
    and k + 2, so a table only joins, folds and normalises.  ZeroNode for k
    in [-2T, -1], where some node is 0; the fold's ValueError for k < -2T.
    """
    if -2 * T <= k <= -1:
        raise ZeroNode(f"a node k+eps+2i is 0 for k={k}, T={T}")
    cols = [(1, {k: [1]}), *_grid_columns(k + 1, T), *_grid_columns(k + 2, T)]
    if form:
        cols = [(d, _folded(col, k)) for d, col in cols]
    D = math.lcm(*(d for d, _ in cols))
    g = math.gcd(D, *(x * (D // d) for d, col in cols for row in col.values() for x in row))
    return [{key: [x * (D // d) // g for x in row] for key, row in col.items()} for d, col in cols], D // g


def assemble_kernel(params: ParamVector, n: int, m: int) -> KernelFormula:
    """Exact closed form of the fundamental solution at sites (n, m).

    For n - m < 0 the kernel is assembled at the swapped pair and carried
    back by the tau-ratio symmetry.  Kernels are memoised: every call at
    (params, n, m) returns the same read-only kernel.
    """
    return _assemble(params, n, m)


@lru_cache(maxsize=1024)
def _assemble(params: ParamVector, n: int, m: int) -> KernelFormula:
    if n - m < 0:
        return symmetry_transport(params, n, m, _assemble(params, m, n))
    k = n - m
    T = max(params.R, params.S)
    eps_branches = (1, 2) if T else ()
    J = 2 * T
    gs = gamma_series(params, n, m, J)      # decides admissibility
    # the weight of the column of I_k (d = 0) or of tail (eps, i) (d = eps + 2i)
    # is gamma_d tau(m); all are over gs.den tau(m+1)
    tm = _tau_at(params, m)
    w = tuple(gs.num[d] * tm for d in (0, *range(1, 2 * T, 2), *range(2, 2 * T + 1, 2)))
    return _assembled(params, n, m, {"T": T, "eps": eps_branches, "J": J},
                      (k, T, w, gs.den * _tau_at(params, m + 1)))


def symmetry_transport(params: ParamVector, n: int, m: int,
                       f: KernelFormula) -> KernelFormula:
    """Carry a kernel assembled at (m, n) over to (n, m).

    u(n,m,t) = [tau(m) tau(n+1) / (tau(m+1) tau(n))] u(m,n,t); the transport
    is an involution; it scales an assembled kernel's weights, not its terms.
    """
    if (f.n, f.m) != (m, n):
        raise ValueError(f"formula is for sites {(f.n, f.m)}, expected {(m, n)}")
    a, b = _tau_at(params, m) * _tau_at(params, n + 1), _tau_at(params, m + 1) * _tau_at(params, n)
    if b == 0:
        raise SingularTau(m + 1 if _tau_at(params, m + 1) == 0 else n)
    provenance = dict(f.provenance, transported=True)
    if f._weights is not None:
        k, T, w, den = f._weights
        return _assembled(params, n, m, provenance, (k, T, tuple(c * a for c in w), den * b))
    terms = {j: Poly.from_ints(T_VAR, [c * a for c in p.num], p.den * b)
             for j, p in f.terms.items() if not p.is_zero()}
    return KernelFormula(params=params, n=n, m=m, terms=terms, provenance=provenance)


@lru_cache(maxsize=1024)
def _bessel_values(x: float, K: int) -> tuple[float, ...]:
    """e^{-x} I_k(x), k = 0..K: one bessel_row, shared by every kernel at
    offset K - 1 evaluated at t = x/2."""
    return bessel_row(x, K).values


def kernel_eval(f: KernelFormula, t: float) -> float:
    """Numeric value u = e^{-2t} (A(t) I_k(2t) + B(t) I_{k+1}(2t)), k = |n - m|.

    A(t) and B(t) of the kernel's form (`_form`) are exact (integer Horner at
    t = x/y), each rounded once to float, times the last two values of one
    bessel_row at 2t to order k + 1 (cached on both).  Where A(t) or B(t)
    passes float range, the sum is taken again in exact rationals (each
    Bessel float read exactly) and rounded once.  Each Bessel value is within
    a few eps, so the relative error is about kappa_2 eps for kappa_2 =
    (|A(t)| e^{-2t} I_k(2t) + |B(t)| e^{-2t} I_{k+1}(2t)) / |u|, often far
    below the beta_j sum's at large t.  t = 0 returns the exact delta limit.
    ValueError for a t not finite and >= 0, or a u beyond float range.
    """
    if not 0 <= t < math.inf:
        raise ValueError(f"t must be finite and nonnegative, got {t!r}")
    if t == 0:
        return 1.0 if f.n == f.m else 0.0
    k, (low, A, B, D) = abs(f.n - f.m), _form(f)
    x, y = float(t).as_integer_ratio()
    den = D * x ** -low * y ** (low + len(A) - 1)      # t^e = x^e / y^e, e = low <= 0 .. top >= 0
    a, b = eval_homogeneous(A, x, y), eval_homogeneous(B, x, y)
    row = _bessel_values(2.0 * t, k + 1)
    try:
        return math.fsum((a / den * row[k], b / den * row[k + 1]))
    except OverflowError:
        exact = Fraction(a, den) * Fraction(row[k]) + Fraction(b, den) * Fraction(row[k + 1])
    try:
        return float(exact)
    except OverflowError:
        raise ValueError(f"kernel value at t = {t!r} lies beyond float range") from None


# ---------------------------------------------------------------------------
# symbolic certification: fold Bessel combinations onto two adjacent orders
# ---------------------------------------------------------------------------


def _fold(pairs, base: int = 0) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """(low, row0, row1): sum_j P_j(t) I_j(2t) over (order j, integer
    coefficients of P_j) pairs as dense rows on orders base and base + 1,
    entry i that of t^(low+i); folded by I_{-j} = I_j, from the top order down
    by I_j(2t) = I_{j-2}(2t) - ((j-1)/t) I_{j-1}(2t), and from the lowest up by
    I_j(2t) = I_{j+2}(2t) + ((j+1)/t) I_{j+1}(2t).  ValueError for base < 0."""
    if base < 0:
        raise ValueError(f"the fold's base order must be >= 0, got {base}")
    pairs = [(abs(j), cs) for j, cs in pairs]
    bottom = min((j for j, _ in pairs), default=base)
    top = max((j for j, _ in pairs), default=0)
    off = max(top - base - 1, base - bottom, 0)     # each fold step lowers the exponent by one
    width = off + max((len(cs) for _, cs in pairs), default=0)
    rows = {j: [0] * width for j in range(min(bottom, base), max(top, base + 1) + 1)}
    for j, cs in pairs:
        for x, c in enumerate(cs, off):
            rows[j][x] += c
    # (order, the order two steps towards the base, the one between, its factor times t)
    steps = [*((j, j - 2, j - 1, 1 - j) for j in range(top, base + 1, -1)),
             *((j, j + 2, j + 1, j + 1) for j in range(bottom, base))]
    for j, far, near, by in steps:
        for x, c in enumerate(rows[j]):
            if c:
                rows[far][x] += c
                rows[near][x - 1] += by * c
    return -off, tuple(rows[base]), tuple(rows[base + 1])


def _reduced_rows(pairs, base: int = 0) -> tuple[int, tuple[int, ...], tuple[int, ...], int]:
    """(low, row0, row1, D): `_fold` of (order j, Poly) pairs onto (I_base,
    I_{base+1}) over D, the lcm of their dens."""
    pairs = list(pairs)
    D = math.lcm(*(p.den for _, p in pairs))
    return (*_fold(((j, [c * (D // p.den) for c in p.num]) for j, p in pairs), base), D)


def _form(f: KernelFormula) -> tuple:
    """(low, A, B, D): u = e^{-2t} (A(t) I_k(2t) + B(t) I_{k+1}(2t)), k = |n - m|,
    A and B integer rows from t^low, low <= 0 <= low + len(A) - 1, over D: an
    assembled kernel's cached `_basis`, a hand-built kernel's terms folded."""
    return f._basis if f._weights is not None else _reduced_rows(f.terms.items(), abs(f.n - f.m))


@lru_cache(maxsize=256)
def _basis_matrix(k: int, T: int) -> tuple:
    """(low, rows0, rows1, D): the (k, T) table on (I_k(2t), I_{k+1}(2t)),
    `_table_columns`' fold form over its own least denominator D: rows0[x][c]
    (rows1[x][c]) is column c's numerator of t^(low+x) on I_k (I_{k+1}).
    Exponents at which every column is zero (the fold's padding) are left out.
    Observed, not assumed: low >= 0 and low + len(rows0) - 1 <= T at every
    (k, T) the tests cover.  ValueError for k < 0 (ZeroNode for k in [-2T, -1])."""
    cols, D = _table_columns(k, T, 1)
    exps = range(min(e for col in cols for e in col), max(e for col in cols for e in col) + 1)
    return (exps[0], *(tuple(tuple(col.get(e, (0, 0))[h] for col in cols) for e in exps) for h in (0, 1)), D)


def _laurent_pair(low: int, row0, row1, D: int) -> tuple[PolyFraction, PolyFraction]:
    """Dense rows from exponent low over D as Laurent polynomials in t."""
    return tuple(PolyFraction.laurent(T_VAR, {e: Fraction(c, D) for e, c in enumerate(row, low) if c})
                 for row in (row0, row1))


def combo_to_basis(pairs) -> tuple[PolyFraction, PolyFraction]:
    """Collapse sum_j p_j(t) I_j(2t) onto (I_0(2t), I_1(2t)).

    `pairs` is an iterable of (order j, Poly in t), whose repeated orders add
    up; the result is the exact pair of Laurent polynomials, as PolyFractions
    over a power of t, multiplying the basis functions.  The fold (`_fold`)
    runs on integer rows over one denominator; only the result holds Fractions.
    """
    return _laurent_pair(*_reduced_rows(pairs))


def _certify_power_sums(T: int) -> tuple[int, list[tuple[int, int]]]:
    """(checks, failures): certify on integers that `_power_sum(n, k)` is
    S_n(k) = sum_{j > k, j = k+1 mod 2} j^{2n+1} I_j(2t) for n < T and every
    integer k; failures are the (n, k) that fail, in the order checked.

    A check folds S_n(k) - S_n(k+2) - (k+1)^{2n+1} I_{k+1}(2t) onto (I_0, I_1)
    (`_fold`) and needs zero, which is zero on (I_k, I_{k+1}) as well: the
    change of basis is invertible over rational functions of t.  The 4T^2 + T
    sites k in [-4n-3, 4n+1] prove every k.  Premise: tail_resum reads alpha
    by s - k only.  For k >= 2n no order k-2n .. k+2n+2 folds through 0, so on
    (I_k, I_{k+1}) (at most 2n+1 recurrence steps, each a factor of degree one
    in k) every coefficient is a polynomial in k of degree <= 2n+1; one that
    vanishes at the 2n+2 integers 2n .. 4n+1 vanishes identically.  k <= -2n-2
    mirrors this by I_{-j} = I_j (sites -4n-3 .. -2n-2); the sites in between
    are checked one by one.  Summed upward, S_n(k) = sum_{i < M} (k+1+2i)^{2n+1}
    I_{k+1+2i}(2t) + S_n(k+2M), whose last term tends to 0, so the primitive is
    the Bessel tail at every k, as is each (k, T) table built on it.
    """
    failures, sites = [], [(n, k) for n in range(T) for k in range(-4 * n - 3, 4 * n + 2)]
    for n, k in sites:
        (S, D), (U, E) = _power_sum(n, k), _power_sum(n, k + 2)
        _, row0, row1 = _fold([*((j, [c * E for c in cs]) for j, cs in S.items()),
                               *((j, [-c * D for c in cs]) for j, cs in U.items()),
                               (k + 1, [-(k + 1) ** (2 * n + 1) * D * E])])
        if any(row0) or any(row1):
            failures.append((n, k))
    return len(sites), failures


@dataclass(frozen=True)
class ExactZeroReport:
    """Outcome of the symbolic heat-equation check at one site pair."""

    params: ParamVector
    n: int
    m: int
    passed: bool
    residual_I0: str
    residual_I1: str


@lru_cache(maxsize=1024)
def _band_at(params: ParamVector, n: int) -> tuple[Fraction, Fraction]:
    """(-2 - c_0(n), c_{-1}(n)) for L's coefficients at site n, shared by the
    certificates at every m, from site values without building L: by
    operator_build's formula, c_{-1}(n) = tau(n-1) tau(n+1) / tau(n)^2 and
    -2 - c_0(n) = q_{K-1}(n+1) - q_{K-1}(n), read from the wave numerators
    at n+1 and n (0 at K = 0).  SingularTau for inadmissible parameters."""
    ensure_regular(params)
    K, s = params.order, Fraction(0)
    if K:
        up, here = wave_numerator(params, n + 1), wave_numerator(params, n)
        s = Fraction(up.num[K - 1], up.den) - Fraction(here.num[K - 1], here.den)
    return s, Fraction(_tau_at(params, n - 1) * _tau_at(params, n + 1), _tau_at(params, n) ** 2)


def pde_residual(f: KernelFormula) -> ExactZeroReport:
    """Certify d/dt u - (L u) = 0 symbolically for the assembled kernel.

    The kernels at the band sites n-1, n, n+1 are read in their forms
    (`_form`), u = e^{-2t} (A I_k + B I_{k+1}), each I_j at 2t, k = |n - m|.
    By d/dt I_k = 2 I_{k+1} + (k/t) I_k and d/dt I_{k+1} = 2 I_k - ((k+1)/t) I_{k+1}
    the residual is e^{-2t} (R_k I_k + R_{k+1} I_{k+1}) with
      R_k = A' + (k/t)A + 2B - (2+c_0)A - (the I_k parts of u_{n+1} + c_{-1} u_{n-1}),
      R_{k+1} = B' + 2A - ((k+1)/t)B - (2+c_0)B - (their I_{k+1} parts).
    A neighbour at offset k+1 or k-1 comes over with its halves swapped and
    one 1/t term, by I_{k+2} = I_k - ((k+1)/t) I_{k+1} or I_{k-1} = I_{k+1} + (k/t) I_k.
    I_k and I_{k+1} are independent over rational functions of t, so pass
    means both Laurent polynomials vanish identically.  The integer rows span
    the forms' live exponents over one E, each form's factor to E taken once;
    a residual that does not vanish is folded onto (I_0, I_1) for the report.
    """
    params, n, m = f.params, f.n, f.m
    k = abs(n - m)
    s, cm = _band_at(params, n)
    ups, downs = _assemble(params, n + 1, m), _assemble(params, n - 1, m)
    (low, A, B, D), (lu, Au, Bu, Du), (lm, Am, Bm, Dm) = map(_form, (f, ups, downs))
    E = math.lcm(s.denominator * D, Du, cm.denominator * Dm)
    e = E // D
    twice, diag = 2 * e, s.numerator * (e // s.denominator)
    up, down = -(E // Du), -cm.numerator * (E // (cm.denominator * Dm))
    lo = min(low, lu, lm) - 1
    rows = [[0] * (max(low + len(A), lu + len(Au), lm + len(Am)) - lo) for _ in "01"]
    for row, X, Y, shift in ((rows[0], A, B, k), (rows[1], B, A, -k - 1)):
        for x, (c, y) in enumerate(zip(X, Y), low - lo):
            row[x - 1] += (x + lo + shift) * c * e      # A' + (k/t)A, or B' - ((k+1)/t)B
            row[x] += c * diag + y * twice
    for g, start, X, Y, a in ((ups, lu, Au, Bu, up), (downs, lm, Am, Bm, down)):
        # the 1/t term: -((k+1)/t) Y on I_{k+1} at offset k+1, (k/t) X on I_k at k-1
        i, src, by = (1, Y, -k - 1) if abs(g.n - g.m) > k else (0, X, k)
        for x, (c, y, z) in enumerate(zip(X, Y, src), start - lo):
            rows[1][x] += c * a
            rows[0][x] += y * a
            rows[i][x - 1] += by * z * a
    passed = not any(rows[0]) and not any(rows[1])
    R0 = R1 = "0"
    if not passed:                  # reported on (I_0, I_1); the rows start at t^lo
        low0, *pair = _fold([(k, rows[0]), (k + 1, rows[1])])
        R0, R1 = map(repr, _laurent_pair(low0 + lo, *pair, E))
    return ExactZeroReport(params=params, n=n, m=m, passed=passed,
                           residual_I0=R0, residual_I1=R1)
