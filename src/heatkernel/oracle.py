"""Independent numerical ground truth for the closed-form kernels.

Two unrelated routes are provided:

  * truncated-lattice evolution: restrict the band operator to a finite
    window [-W, W] (rows at the boundary simply drop out-of-window
    couplings) and apply the matrix exponential to the source columns
    (scipy.sparse.linalg.expm_multiply, Al-Mohy & Higham, SIAM J. Sci.
    Comput. 33, 2011);

  * contour quadrature on a circle around the origin for the spectral
    representation of the kernel and the wave-function orthogonality
    relation.

The quadrature contour must avoid x = +/-1, where the wave-function
products genuinely blow up; a circle of radius 1/2 is used (any radius
other than 0 and 1 gives the same integral because the residues at +/-1
vanish), on which the trapezoid rule converges geometrically.

scipy is imported on first use of the lattice route, not with the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class LatticeWindow:
    """Sparse (CSR) restriction of a band operator to the sites [-W, W]."""

    W: int
    matrix: object = field(repr=False)

    def index(self, n: int) -> int:
        if abs(n) > self.W:
            raise IndexError(f"site {n} outside window [-{self.W}, {self.W}]")
        return n + self.W


def lattice_window(L: BandOperator, W: int) -> LatticeWindow:
    """Evaluate the operator coefficients on the window (exactly, then float)."""
    from scipy.sparse import csr_matrix

    rows, cols, vals = [], [], []
    for n in range(-W, W + 1):
        for j in L.coeffs:
            if -W <= n + j <= W:
                rows.append(n + W)
                cols.append(n + j + W)
                vals.append(float(L.coeff_at(j, n)))
    size = 2 * W + 1
    return LatticeWindow(W=W, matrix=csr_matrix((vals, (rows, cols)), shape=(size, size)))


def boundary_influence(W: int, m: int, t: float) -> float:
    """Free-kernel proxy for the mass that can reach the window boundary:
    e^{-2t} I_{W-|m|}(2t) scaled back by e^{2t}."""
    k = W - abs(m)
    row = bessel_row(2.0 * t, k)
    return row.scaled(k) * math.exp(2.0 * t)


def expm(A, columns: np.ndarray) -> np.ndarray:
    """exp(A) columns, by the action of the matrix exponential on the
    columns alone (scipy.sparse.linalg.expm_multiply); A is never
    exponentiated densely."""
    from scipy.sparse.linalg import expm_multiply

    return expm_multiply(A, columns)


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
    return expm(t * window.matrix, columns), bound


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

    radius must avoid 0 and 1; midpoint angles additionally keep the nodes
    off the real axis crossings at theta = 0, pi.
    """

    integrand: str                 # 'orthogonality' | 'kernel' | 'kernel_adjoint'
    radius: float = 0.5
    n_start: int = 64
    n_max: int = 2 ** 16
    tol: float = 1e-12

    def __post_init__(self):
        if self.integrand not in ("orthogonality", "kernel", "kernel_adjoint"):
            raise ValueError(f"unknown integrand {self.integrand!r}")
        if self.radius in (0.0, 1.0):
            raise ValueError("radius must avoid 0 and 1")


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
