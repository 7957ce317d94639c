"""Independent numerical ground truth for the closed-form kernels.

Two unrelated routes are provided:

  * truncated-lattice evolution: restrict the band operator to a finite
    window [-W, W] (rows at the boundary simply drop out-of-window
    couplings), held as one float array per band, and apply the matrix
    exponential to the source columns by Taylor steps on the bands (Al-Mohy
    & Higham, SIAM J. Sci. Comput. 33, 2011, algorithm 3.2);

  * contour quadrature on a circle around the origin for the spectral
    representation of the kernel and the wave-function orthogonality
    relation.

The quadrature contour must avoid x = +/-1, where the wave-function
products genuinely blow up; a circle of radius 1/2 is used (any radius
other than 0 and 1 gives the same integral because the residues at +/-1
vanish), on which the trapezoid rule converges geometrically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .bessel import bessel_row
from .kernel import kernel_eval
from .taudarboux import (
    BandOperator,
    ParamVector,
    ensure_regular,
    wave_p,
    wave_p_star_via_adjoint,
)


#: largest boundary-influence bound a lattice evolution may carry
TAIL_TOL = 1e-11


class WindowTooSmall(ValueError):
    """Boundary influence estimate exceeds the certification threshold."""


class NoConvergence(ArithmeticError):
    """Quadrature failed to settle below tolerance at the node limit."""


class GridMismatch(ValueError):
    """Closed-form and oracle value lists disagree in shape."""


#: theta_m (Al-Mohy & Higham 2011): s degree-m Taylor steps meet 2^-53 if ||t A||_1 <= s theta_m
_THETA = dict(zip([*range(1, 31), 35, 40, 45, 50, 55], [
    2.29e-16, 2.58e-8, 1.39e-5, 3.40e-4, 2.40e-3, 9.07e-3, 2.38e-2, 5.00e-2, 8.96e-2,
    1.44e-1, 2.14e-1, 3.00e-1, 4.00e-1, 5.14e-1, 6.41e-1, 7.81e-1, 9.31e-1, 1.09, 1.26,
    1.44, 1.62, 1.82, 2.01, 2.22, 2.43, 2.64, 2.86, 3.08, 3.31, 3.54, 4.7, 6.0, 7.2, 8.5, 9.9]))


def _slices(j: int, size: int) -> tuple[slice, slice]:
    """Rows i and i + j, over the rows i where both lie in [0, size)."""
    k = min(abs(j), size)
    return (slice(0, size - k), slice(k, size))[::1 if j >= 0 else -1]


def _band_apply(bands: dict, X: np.ndarray) -> np.ndarray:
    """The band matrix times the columns X."""
    out = np.zeros_like(X)
    for j, b in bands.items():
        rows, src = _slices(j, len(X))
        out[rows] += b[rows, None] * X[src]
    return out


@dataclass(frozen=True)
class LatticeWindow:
    """Restriction of a band operator to the sites [-W, W], held as bands:
    bands[j][i] couples site i - W to site i - W + j (0 outside the window)."""

    W: int
    bands: dict = field(repr=False)

    def index(self, n: int) -> int:
        if abs(n) > self.W:
            raise IndexError(f"site {n} outside window [-{self.W}, {self.W}]")
        return n + self.W

    @cached_property
    def shifted(self) -> tuple[float, dict, list]:
        """mu = trace / size, the bands of A = L_W - mu, and at index p = 1..9
        the exact d_p = ||A^p||_1^(1/p), from A^p built band by band."""
        A = {0: np.zeros(2 * self.W + 1), **self.bands}
        mu = float(A[0].mean())
        A[0] = A[0] - mu
        power, d = {0: np.ones_like(A[0])}, [0.0]
        for p in range(1, 10):
            previous, power, column_sums = power, {}, np.zeros_like(A[0])
            for j, a in previous.items():       # (A^(p-1) A)_{j+k}[i] = a_j[i] A_k[i + j]
                rows, src = _slices(j, len(a))
                for k, b in A.items():
                    power.setdefault(j + k, np.zeros_like(a))[rows] += a[rows] * b[src]
            for j, a in power.items():
                rows, src = _slices(j, len(a))
                column_sums[src] += np.abs(a[rows])
            d.append(column_sums.max() ** (1.0 / p))
        return mu, A, d


def lattice_window(L: BandOperator, W: int) -> LatticeWindow:
    """Evaluate the operator coefficients on the window (exactly, then float)."""
    return LatticeWindow(W=W, bands={
        j: np.array([c.float_at(n) if abs(n + j) <= W else 0.0 for n in range(-W, W + 1)])
        for j, c in L.coeffs.items()})


def boundary_influence(W: int, m: int, t: float) -> float:
    """Free-kernel proxy for the mass that can reach the window boundary:
    e^{-2t} I_{W-|m|}(2t) scaled back by e^{2t}."""
    k = W - abs(m)
    row = bessel_row(2.0 * t, k)
    return row.scaled(k) * math.exp(2.0 * t)


def expm(window: LatticeWindow, columns: np.ndarray, t: float) -> np.ndarray:
    """exp(t L_W) columns by Al-Mohy & Higham's algorithm 3.2: s steps of a
    degree-m* Taylor polynomial of t (L_W - mu) / s, (m*, s) from code
    fragment 3.1 (m_max = 55, p_max = 8, ell = 2), each step cut short once
    two successive terms fall below 2^-53 of the sum."""
    mu, A, d = window.shifted
    if t * d[1] <= 2 * 2 * 8 * 11 * _THETA[55] / (columns.shape[1] * 55):   # (3.13)
        plans = [(m, math.ceil(t * d[1] / theta)) for m, theta in _THETA.items()]
    else:                                                                   # (3.11)
        plans = [(m, math.ceil(t * max(d[p], d[p + 1]) / _THETA[m]))
                 for p in range(2, 9) for m in _THETA if m >= p * (p - 1) - 1]
    m_star, s = min(plans, key=lambda plan: plan[0] * plan[1])
    s = max(s, 1)
    eta = math.exp(t * mu / s)
    F = B = columns
    for _ in range(s):
        c1 = np.abs(B).sum(axis=1).max()
        for j in range(m_star):
            B = t / (s * (j + 1)) * _band_apply(A, B)
            c2 = np.abs(B).sum(axis=1).max()
            F = F + B
            if c1 + c2 <= 2.0 ** -53 * np.abs(F).sum(axis=1).max():
                break
            c1 = c2
        F = B = eta * F
    return F


def _propagate(window: LatticeWindow, sources, t: float) -> tuple[np.ndarray, float]:
    """The columns exp(t L_W) delta_m for the source sites m, in order, and
    the largest boundary-influence bound among them.

    Raises WindowTooSmall when a source lies beyond W/2 or a bound exceeds
    TAIL_TOL; t = 0 gives the exact delta columns.
    """
    W = window.W
    if t < 0:
        raise ValueError("t must be nonnegative")
    for m in sources:
        if abs(m) > W // 2:
            raise WindowTooSmall(f"source site {m} too close to the boundary of "
                                 f"the lattice window [-{W}, {W}]")
    columns = np.zeros((2 * W + 1, len(sources)))
    columns[[window.index(m) for m in sources], range(len(sources))] = 1.0
    if t == 0 or not sources:
        return columns, 0.0
    bound = max(boundary_influence(W, m, t) for m in sources)
    if bound > TAIL_TOL:
        raise WindowTooSmall(f"lattice window [-{W}, {W}] too small at t = {t!r}: "
                             f"tail bound {bound:.3e} exceeds {TAIL_TOL:.1e}")
    return expm(window, columns, t), bound


def lattice_evolve(L: BandOperator, W: int, m: int, t: float) -> dict:
    """exp(t L_W) delta_m on the window, with the boundary-influence bound.

    Returns {"sites": [-W..W], "values": array, "tail_bound": float}.
    Raises WindowTooSmall when the source lies beyond W/2 or the free-kernel
    tail bound exceeds TAIL_TOL.
    """
    values, bound = _propagate(lattice_window(L, W), [m], t)
    return {"sites": list(range(-W, W + 1)), "values": values[:, 0], "tail_bound": bound}


@dataclass(frozen=True)
class QuadratureSpec:
    """Unit-circle-family contour rule for the spectral integrands.

    radius must be finite with |radius| not 0 or 1, where the integrands have
    poles; midpoint angles additionally keep the nodes off the real axis
    crossings at theta = 0, pi.
    """

    integrand: str                 # 'orthogonality' | 'kernel' | 'kernel_adjoint'
    radius: float = 0.5
    n_start: int = 64
    n_max: int = 2 ** 16
    tol: float = 1e-12

    def __post_init__(self):
        if self.integrand not in ("orthogonality", "kernel", "kernel_adjoint"):
            raise ValueError(f"unknown integrand {self.integrand!r}")
        if not math.isfinite(self.radius) or abs(self.radius) in (0.0, 1.0):
            raise ValueError(f"radius must be finite with |radius| not 0 or 1: {self.radius!r}")


def _laurent_np(lp) -> callable:
    pairs = [(e, float(c)) for e, c in lp.terms.items()]

    def ev(z):
        out = np.zeros_like(z)
        for e, c in pairs:
            out = out + c * z ** e
        return out

    return ev


def _ratfunc_np(rf) -> callable:
    num, den = _laurent_np(rf.num), _laurent_np(rf.den)
    return lambda z: num(z) / den(z)


def circle_quadrature(spec: QuadratureSpec, params: ParamVector,
                      n: int, m: int, t: float | None = None) -> float:
    """Midpoint trapezoid value of the requested contour integral.

    Doubles the node count until two successive values differ by less than
    spec.tol; the imaginary part must sit below 1e-12 and is discarded.
    """
    tau = ensure_regular(params)
    pn = _ratfunc_np(wave_p(params, n))
    if spec.integrand == "kernel_adjoint":
        ps = _ratfunc_np(wave_p_star_via_adjoint(params, m + 1))
    else:
        pm_inv = _ratfunc_np(wave_p(params, m).inverse_var())

    if spec.integrand in ("kernel", "kernel_adjoint") and t is None:
        raise ValueError("kernel integrands need a time value")

    def value(N: int) -> complex:
        theta = 2.0 * np.pi * (np.arange(N) + 0.5) / N
        z = spec.radius * np.exp(1j * theta)
        if spec.integrand == "orthogonality":
            h = pn(z) * pm_inv(z)
        elif spec.integrand == "kernel":
            weight = np.exp(t * (z + 1.0 / z) - 2.0 * t)
            h = float(tau.ratio(m, m + 1)) * weight * pn(z) * pm_inv(z)
        else:
            weight = np.exp(t * (z + 1.0 / z) - 2.0 * t)
            h = weight * pn(z) * ps(z) * z
        return complex(np.mean(h))

    N = spec.n_start
    prev = value(N)
    while N <= spec.n_max // 2:
        N *= 2
        cur = value(N)
        if abs(cur - prev) < spec.tol:
            if abs(cur.imag) > 1e-12:
                raise NoConvergence(f"imaginary part {cur.imag:.3e} did not cancel")
            return cur.real
        prev = cur
    raise NoConvergence(f"no convergence up to N = {spec.n_max}")


def orthogonality_gram(params: ParamVector, size: int) -> np.ndarray:
    """Gram matrix of the wave functions over n, m in [0, size-1]."""
    spec = QuadratureSpec(integrand="orthogonality")
    G = np.zeros((size, size))
    for i in range(size):
        for j in range(size):
            G[i, j] = circle_quadrature(spec, params, i, j)
    return G


@dataclass(frozen=True)
class ComparisonReport:
    """Machine-readable closed-form vs oracle deviation summary."""

    grid: tuple
    closed: tuple
    oracle: tuple
    tolerance: float
    max_abs: float
    max_rel: float
    passed: bool

    def to_json(self) -> dict:
        return {
            "grid": [list(g) for g in self.grid],
            "max_abs": self.max_abs,
            "max_rel": self.max_rel,
            "tolerance": self.tolerance,
            "pass": self.passed,
        }

    def to_csv(self) -> str:
        lines = ["n,m,t,closed,oracle,diff"]
        for (n, m, t), c, o in zip(self.grid, self.closed, self.oracle):
            lines.append(f"{n},{m},{t!r},{c!r},{o!r},{c - o!r}")
        return "\n".join(lines) + "\n"


def compare_report(grid, closed_values, oracle_values, tolerance: float) -> ComparisonReport:
    """Max absolute/relative deviation over a shared evaluation grid."""
    grid = tuple(tuple(g) for g in grid)
    closed = tuple(float(v) for v in closed_values)
    oracle = tuple(float(v) for v in oracle_values)
    if not (len(grid) == len(closed) == len(oracle)):
        raise GridMismatch(
            f"lengths differ: grid {len(grid)}, closed {len(closed)}, oracle {len(oracle)}")
    max_abs = 0.0
    max_rel = 0.0
    for c, o in zip(closed, oracle):
        d = abs(c - o)
        max_abs = max(max_abs, d)
        max_rel = max(max_rel, d / max(abs(o), 1e-300))
    return ComparisonReport(
        grid=grid, closed=closed, oracle=oracle, tolerance=tolerance,
        max_abs=max_abs, max_rel=max_rel, passed=max_abs <= tolerance,
    )


def compare_kernel_to_lattice(params: ParamVector, operator: BandOperator,
                              pairs, ts, W: int = 200,
                              tolerance: float = 1e-10) -> ComparisonReport:
    """Closed-form kernels against the windowed lattice evolution.

    `pairs` is an iterable of (n, m).  The window is built once; for each t
    exp(t L_W) is applied to the distinct source columns m only, under the
    same guards as lattice_evolve (WindowTooSmall).
    """
    from .kernel import assemble_kernel

    pairs = list(pairs)
    formulas = {(n, m): assemble_kernel(params, n, m) for n, m in pairs}
    window = lattice_window(operator, W)
    sources = sorted({m for _, m in pairs})
    column = {m: i for i, m in enumerate(sources)}
    grid = []
    closed = []
    oracle = []
    for t in ts:
        t = float(t)
        P, _ = _propagate(window, sources, t)
        for (n, m) in pairs:
            grid.append((n, m, t))
            closed.append(kernel_eval(formulas[(n, m)], t))
            oracle.append(float(P[window.index(n), column[m]]))
    return compare_report(grid, closed, oracle, tolerance)
