"""Modified Bessel functions I_k and the exact tail-resummation calculus.

The numeric side computes exponentially scaled rows e^{-t} I_k(t) by Miller's
backward recurrence, normalized with e^{-t}(I_0 + 2 sum_k I_k) = 1.  The
scaled form is what the kernel evaluator needs (its closed forms carry a
global e^{-2t}) and it never overflows.

The symbolic side builds the polynomial table alpha^n_j(t) whose defining
recursion turns odd-monomial-weighted Bessel tails

    sum_{j > k, j = k+1 mod 2} j^{2n+1} I_j(t)

into finite combinations sum_s alpha^n_{s-k}(t) I_s(t); `tail_resum` applies
it monomial by monomial to an arbitrary odd polynomial weight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .exactcore import Poly

T = "t"

# rescale threshold for the backward recurrence
_BIG = 1e250


class NonpositiveArgument(ValueError):
    """Bessel row requested at t <= 0."""


class NotOddPolynomial(ValueError):
    """Tail resummation weight contains even-degree monomials."""


@dataclass(frozen=True)
class BesselRow:
    """Scaled values e^{-t} I_k(t) for k = 0..K at a fixed argument t > 0."""

    t: float
    values: tuple[float, ...]

    @property
    def K(self) -> int:
        return len(self.values) - 1

    def scaled(self, k: int) -> float:
        """e^{-t} I_k(t); negative orders by the reflection I_{-k} = I_k."""
        return self.values[abs(k)]

    def unscaled(self, k: int) -> float:
        return self.values[abs(k)] * math.exp(self.t)


def bessel_row(t: float, K: int) -> BesselRow:
    """Backward-recurrence row of e^{-t} I_k(t), k = 0..K.

    Starts the downward recurrence I_{k-1} = I_{k+1} + (2k/t) I_k at order
    K + 20 + ceil(t) and normalizes by the sum rule, which pins every value
    to about 1e-14 relative accuracy for moderate t.
    """
    if t <= 0:
        raise NonpositiveArgument(f"t must be positive, got {t}")
    if K < 0:
        raise ValueError("K must be >= 0")
    start = K + 20 + math.ceil(t)
    y = [0.0] * (start + 2)
    y[start + 1] = 0.0
    y[start] = 1e-280
    for k in range(start, 0, -1):
        y[k - 1] = y[k + 1] + (2.0 * k / t) * y[k]
        if y[k - 1] > _BIG:
            scale = 1.0 / y[k - 1]
            for i in range(k - 1, start + 2):
                y[i] *= scale
    total = y[0] + 2.0 * math.fsum(y[1:])
    inv = 1.0 / total
    return BesselRow(t=float(t), values=tuple(v * inv for v in y[: K + 1]))


def bessel_i_series(k: int, t: Fraction, terms: int = 30) -> Fraction:
    """Ascending-series value of I_k(t) summed in exact rationals.

    Independent oracle for the recurrence path: sum_j (t/2)^{k+2j} / (j! (j+k)!).
    """
    k = abs(k)
    half = Fraction(t) / 2
    acc = Fraction(0)
    term = half ** k / math.factorial(k)
    for j in range(terms):
        acc += term
        term = term * half * half / ((j + 1) * (j + 1 + k))
    return acc


@dataclass(frozen=True)
class AlphaTable:
    """Polynomials alpha^n_j(t) for 0 <= n <= depth, |j| <= 2n.

    alpha^n_j = alpha^n_{-j}; entries vanish for |j| > 2n; the edge values are
    t^{2n+1} / 2^{2n+1} and every entry has degree <= 2n+1.
    """

    depth: int
    entries: dict

    def get(self, n: int, j: int) -> Poly:
        if n < 0 or n > self.depth:
            raise KeyError(f"depth {n} outside table (max {self.depth})")
        return self.entries.get((n, abs(j)), Poly(T))


def _op_diag(p: Poly) -> Poly:
    # (t^2 d^2 + t d) multiplies the coefficient of t^d by d^2
    return Poly(T, [c * d * d for d, c in enumerate(p.coeffs)])


def _op_neighbor(p: Poly) -> Poly:
    # (t^2 d + t/2) sends c t^d to c (d + 1/2) t^{d+1}
    return Poly(T, [Fraction(0)] + [c * (Fraction(d) + Fraction(1, 2))
                                    for d, c in enumerate(p.coeffs)])


def _op_second(p: Poly) -> Poly:
    # (t^2 / 4) shift
    return Poly(T, [Fraction(0), Fraction(0)] + [c / 4 for c in p.coeffs])


@lru_cache(maxsize=None)
def alpha_table(N: int) -> AlphaTable:
    """Build the resummation polynomials down to depth N (exact, cached)."""
    if N < 0:
        raise ValueError("depth must be >= 0")
    entries: dict = {(0, 0): Poly(T, [0, Fraction(1, 2)])}

    def at(n, j):
        return entries.get((n, abs(j)), Poly(T))

    for n in range(N):
        for j in range(0, 2 * (n + 1) + 1):
            val = _op_diag(at(n, j)) \
                + _op_neighbor(at(n, j + 1) + at(n, j - 1)) \
                + _op_second(at(n, j + 2) - 2 * at(n, j) + at(n, j - 2))
            if not val.is_zero():
                entries[(n + 1, j)] = val
    return AlphaTable(depth=N, entries=entries)


@dataclass(frozen=True)
class BesselCombo:
    """Finite combination sum_j beta_j(t) I_j(arg), arg in {'t', '2t'}.

    Orders are canonical (j >= 0) via the reflection I_{-j} = I_j.
    """

    terms: dict
    arg: str

    def __post_init__(self):
        if self.arg not in ("t", "2t"):
            raise ValueError(f"Bessel argument must be 't' or '2t', got {self.arg!r}")

    def coeff(self, j: int) -> Poly:
        return self.terms.get(abs(j), Poly(T))

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self.terms))


def _fold(raw: dict) -> dict:
    out: dict = {}
    for j, p in raw.items():
        jj = abs(j)
        out[jj] = out.get(jj, Poly(T)) + p
    return {j: p for j, p in out.items() if not p.is_zero()}


def _poly_arg_2t(p: Poly) -> Poly:
    """p(theta) restated in t via theta = 2t."""
    return Poly(T, [c * (Fraction(2) ** d) for d, c in enumerate(p.coeffs)])


def identity_residuals(t: float, K: int = 20, h_deriv: float = 1e-5,
                       h_ode: float = 4.4e-4) -> dict:
    """Max residuals of the three-term relation, the derivative relation and
    the modified Bessel ODE (derivatives by central differences), plus the
    generating-function error at 8 sample angles.

    Recurrence residuals are measured on the scaled values; the ODE residual
    is relative to (t^2 + k^2) I_k(t).
    """
    row = bessel_row(t, K + 2)
    rec = max(abs(k * row.scaled(k) - (t / 2.0) * (row.scaled(k - 1) - row.scaled(k + 1)))
              for k in range(0, K + 1))
    rp, rm = bessel_row(t + h_deriv, K + 2), bessel_row(t - h_deriv, K + 2)
    deriv = max(
        abs((rp.unscaled(k) - rm.unscaled(k)) / (2 * h_deriv)
            - 0.5 * (row.unscaled(k - 1) + row.unscaled(k + 1)))
        for k in range(0, K + 1))
    ode = 0.0
    for k in range(0, K + 1):
        # I_k varies on the scale min(t/k, 1), so the step must shrink with
        # k to balance truncation against roundoff
        h = h_ode * min(t / max(k, 1), 1.0)
        rp2, rm2 = bessel_row(t + h, K + 2), bessel_row(t - h, K + 2)
        d1 = (rp2.unscaled(k) - rm2.unscaled(k)) / (2 * h)
        d2 = (rp2.unscaled(k) - 2 * row.unscaled(k) + rm2.unscaled(k)) / h ** 2
        res = t * t * d2 + t * d1 - (t * t + k * k) * row.unscaled(k)
        ode = max(ode, abs(res) / ((t * t + k * k) * row.unscaled(k)))
    gen = 0.0
    grow = bessel_row(t, 42)
    for a in range(8):
        theta = math.pi * (2 * a + 1) / 16.0
        x = complex(math.cos(theta), math.sin(theta))
        acc = complex(grow.scaled(0))
        for k in range(1, 41):
            acc += grow.scaled(k) * (x ** k + x ** (-k))
        target = complex(math.e) ** (t * (x + 1 / x) / 2.0 - t)
        gen = max(gen, abs(acc - target))
    return {"recurrence": rec, "derivative": deriv, "ode": ode, "generating": gen}


def tail_resum(q: Poly, k: int, arg: str = "t") -> BesselCombo:
    """Resummation of sum_{j > k, j = k+1 mod 2} q(j) I_j(theta).

    q must contain only odd-degree monomials.  The result is a finite
    BesselCombo supported in [k - 2N, k + 2N] (then folded to j >= 0) where
    deg q = 2N + 1; with arg='2t' the coefficient polynomials are expressed
    in t for theta = 2t.
    """
    if arg not in ("t", "2t"):
        raise ValueError("arg must be 't' or '2t'")
    if q.is_zero():
        return BesselCombo(terms={}, arg=arg)
    if any(c and d % 2 == 0 for d, c in enumerate(q.coeffs)):
        raise NotOddPolynomial(f"even-degree monomial in {q!r}")
    N = (q.degree - 1) // 2
    table = alpha_table(N)
    raw: dict = {}
    for d, c in enumerate(q.coeffs):
        if not c:
            continue
        n = (d - 1) // 2
        for s in range(k - 2 * n, k + 2 * n + 1):
            a = table.get(n, s - k)
            if not a.is_zero():
                raw[s] = raw.get(s, Poly(T)) + a.scale(c)
    terms = _fold(raw)
    if arg == "2t":
        terms = {j: _poly_arg_2t(p) for j, p in terms.items()}
    return BesselCombo(terms=terms, arg=arg)
