"""Modified Bessel functions I_k and the exact tail-resummation calculus.

The numeric side computes exponentially scaled rows e^{-t} I_k(t), the one
Bessel evaluator of the package: a downward recurrence started by Miller's
algorithm (normalized with e^{-t}(I_0 + 2 sum_k I_k) = 1) or, at large t, by
Hankel's expansion.  The scaled form is what the kernel evaluator needs (its
closed forms carry a global e^{-2t}) and it never overflows.

The symbolic side builds the polynomial table alpha^n_j(t) whose defining
recursion turns odd-monomial-weighted Bessel tails

    sum_{j > k, j = k+1 mod 2} j^{2n+1} I_j(t)

into finite combinations sum_s alpha^n_{s-k}(t) I_s(t); `tail_resum` applies
it monomial by monomial to an odd polynomial weight, at the kernel's
argument 2t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .exactcore import Poly

T = "t"

# rescale threshold for the backward recurrence
_BIG = 1e250

#: BesselRow.unscaled stays finite up to this t (e^709.78 is the largest float)
UNSCALED_T_MAX = 709.0


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


def series_orders(x: float) -> int:
    """Orders enough for sum_k e^{-x} I_k(x) at float precision: past
    x + 12 sqrt(x), e^{-x} I_k(x) < e^{-(k-x)^2/(2x)} < e^{-72}."""
    return math.ceil(x + 12 * math.sqrt(x) + 20)


def worst_of(values) -> float:
    """The largest of values, 0.0 for none, and NaN once any of them is NaN
    (max() alone can skip one), so a non-finite residual never passes a bound."""
    return max(values, key=lambda v: (math.isnan(v), v), default=0.0)


def _hankel(nu: int, x: float) -> float:
    """e^{-x} I_nu(x) by Hankel's expansion (2 pi x)^{-1/2} sum_k (-1)^k a_k(nu) / x^k,
    a_k(nu) = prod_{i <= k} (4 nu^2 - (2i-1)^2) / (k! 8^k) (Abramowitz & Stegun
    9.7.1), summed to the first term below 1e-17 of the sum or while terms shrink."""
    mu = 4.0 * nu * nu
    term = total = 1.0
    k = 1
    while abs(term) >= 1e-17 * total:
        nxt = term * ((2 * k - 1) ** 2 - mu) / (8.0 * k * x)
        if abs(nxt) >= abs(term):
            break
        total += nxt
        term, k = nxt, k + 1
    return total / math.sqrt(2 * math.pi) / math.sqrt(x)


def bessel_row(t: float, K: int) -> BesselRow:
    """Row of e^{-t} I_k(t), k = 0..K, by the downward recurrence
    I_{k-1} = I_{k+1} + (2k/t) I_k, which is stable for I.

    For t >= max(40, 2(K+2)^2) the recurrence starts from orders K+1 and K
    of Hankel's expansion, so the cost does not grow with t.  Below, Miller's
    algorithm starts it at order K + 20 + ceil(t) and normalizes by the sum
    rule.  For t < 1e-20, where one step of it would overflow, the values are
    e^{-t} (t/2)^k / k!, exact to 1e-40.  Every value is within a few eps.
    """
    if t <= 0:
        raise NonpositiveArgument(f"t must be positive, got {t}")
    if K < 0:
        raise ValueError("K must be >= 0")
    if t < 1e-20:
        y = [math.exp(-t)]
        for k in range(1, K + 1):
            y.append(y[-1] * t / (2 * k))
        return BesselRow(t=float(t), values=tuple(y))
    hankel = t >= max(40, 2 * (K + 2) ** 2)
    start = K if hankel else K + 20 + math.ceil(t)
    y = [0.0] * start + ([_hankel(K, t), _hankel(K + 1, t)] if hankel else [1e-280, 0.0])
    for k in range(start, 0, -1):
        y[k - 1] = y[k + 1] + (2.0 * k / t) * y[k]
        if y[k - 1] > _BIG:
            scale = 1.0 / y[k - 1]
            for i in range(k - 1, start + 2):
                y[i] *= scale
    inv = 1.0 if hankel else 1.0 / (y[0] + 2.0 * math.fsum(y[1:]))
    return BesselRow(t=float(t), values=tuple(v * inv for v in y[: K + 1]))


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
        return self.entries.get((n, abs(j))) or Poly(T)     # a stored entry is never zero


def _op_diag(p: Poly) -> Poly:
    # (t^2 d^2 + t d) multiplies the coefficient of t^d by d^2
    return Poly.from_ints(T, [c * d * d for d, c in enumerate(p.num)], p.den)


def _op_neighbor(p: Poly) -> Poly:
    # (t^2 d + t/2) sends c t^d to c (d + 1/2) t^{d+1}
    return Poly.from_ints(T, [0] + [c * (2 * d + 1) for d, c in enumerate(p.num)], 2 * p.den)


def _op_second(p: Poly) -> Poly:
    # (t^2 / 4) shift
    return Poly.from_ints(T, [0, 0, *p.num], 4 * p.den)


@lru_cache(maxsize=64)
def alpha_table(N: int) -> AlphaTable:
    """Build the resummation polynomials down to depth N (exact, cached)."""
    if N < 0:
        raise ValueError("depth must be >= 0")
    entries: dict = {(0, 0): Poly.from_ints(T, [0, 1], 2)}

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


#: identity_residuals' smallest t: below, its ODE finite differences miss their
#: limit on correct rows (2.9e-5 at t = 1e-8, 4.6e-3 at 1e-12; 1/0 at 1e-15)
IDENTITIES_T_MIN = 1e-5


def identity_residuals(t: float) -> dict:
    """Max residuals over the orders k <= 20 of the three-term relation, the
    derivative relation and the modified Bessel ODE (derivatives by central
    differences, steps min(1e-5, t/2) and 4.4e-4 scaled to the order), plus
    the generating-function error at 8 sample angles over series_orders(t).

    All values are scaled by e^{-t} (at t + h: e^h e^{-(t+h)} I_k(t+h)), and
    all residuals are absolute but the ODE one, relative to (t^2 + k^2) I_k(t).
    ValueError below IDENTITIES_T_MIN."""
    if not t >= IDENTITIES_T_MIN:
        raise ValueError(f"identity residuals need t >= {IDENTITIES_T_MIN:g}, got {t!r}: below, "
                         "the ODE finite differences miss their limit on correct Bessel rows")
    K, h_deriv, h_ode = 20, min(1e-5, t / 2), 4.4e-4
    row = bessel_row(t, K + 2)
    rec = worst_of(abs(k * row.scaled(k) - (t / 2.0) * (row.scaled(k - 1) - row.scaled(k + 1)))
                   for k in range(0, K + 1))
    rp, rm = bessel_row(t + h_deriv, K + 2), bessel_row(t - h_deriv, K + 2)
    deriv = worst_of(
        abs((math.exp(h_deriv) * rp.scaled(k) - math.exp(-h_deriv) * rm.scaled(k)) / (2 * h_deriv)
            - 0.5 * (row.scaled(k - 1) + row.scaled(k + 1)))
        for k in range(0, K + 1))
    ode = []
    for k in range(0, K + 1):
        # I_k varies on the scale min(t/k, 1), I_0 on the scale 1; t - h < 0
        # only at k = 0, where I_0(-s) = I_0(s) and I_0(0) = 1
        h = h_ode * min(t / k, 1.0) if k else h_ode
        plus, minus = (math.exp(abs(x) - t) * bessel_row(abs(x), K + 2).scaled(k) if x
                       else math.exp(-t) for x in (t + h, t - h))
        d1 = (plus - minus) / (2 * h)
        d2 = (plus - 2 * row.scaled(k) + minus) / h ** 2
        res = t * t * d2 + t * d1 - (t * t + k * k) * row.scaled(k)
        ode.append(abs(res) / ((t * t + k * k) * row.scaled(k)))
    gen = []
    orders = series_orders(t)
    grow = bessel_row(t, orders)
    for a in range(8):
        theta = math.pi * (2 * a + 1) / 16.0
        x = complex(math.cos(theta), math.sin(theta))
        acc = complex(grow.scaled(0))
        for k in range(1, orders + 1):
            acc += grow.scaled(k) * (x ** k + x ** (-k))
        target = complex(math.e) ** (t * (x + 1 / x) / 2.0 - t)
        gen.append(abs(acc - target))
    return {"recurrence": rec, "derivative": deriv, "ode": worst_of(ode),
            "generating": worst_of(gen)}


def tail_resum(q: Poly, k: int) -> dict:
    """Resummation of sum_{j > k, j = k+1 mod 2} q(j) I_j(2t), as the finite
    {order j >= 0: Poly in t} it equals.

    q must contain only odd-degree monomials; with deg q = 2N + 1 the alpha
    table gives orders in [k - 2N, k + 2N], folded to j >= 0 by I_{-j} = I_j,
    and each alpha(theta) is restated in t at theta = 2t.  The pieces are
    summed as integer rows over one denominator, one Poly per order.
    """
    if q.is_zero():
        return {}
    if any(c and d % 2 == 0 for d, c in enumerate(q.num)):
        raise NotOddPolynomial(f"even-degree monomial in {q!r}")
    table = alpha_table((q.degree - 1) // 2)
    pieces = [(abs(s), c, a) for d, c in enumerate(q.num) if c
              for s in range(k - d + 1, k + d) if (a := table.get((d - 1) // 2, s - k))]
    D = math.lcm(*(a.den for *_, a in pieces))
    rows: dict = {}
    for j, c, a in pieces:
        row, f = rows.setdefault(j, [0] * len(q.num)), c * (D // a.den)
        for e, x in enumerate(a.num):
            row[e] += x * f
    # theta = 2t multiplies the coefficient of t^e by 2^e
    return {j: p for j, row in rows.items()
            if (p := Poly.from_ints(T, [c << e for e, c in enumerate(row)], D * q.den))}
