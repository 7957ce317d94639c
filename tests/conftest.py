"""Shared hand-transcribed reference formulas and small exact helpers.

Everything here is written directly from the closed-form displays, without
going through the package's own constructors, so the tests compare two
independent routes.
"""

import math
from fractions import Fraction as F

from heatkernel.exactcore import Poly, PolyFraction
from heatkernel.taudarboux import ParamVector

SEED = 20260810


def bessel_i_series(k: int, t: F, terms: int = 30) -> F:
    """Ascending-series value of I_k(t) summed in exact rationals.

    Independent oracle for the recurrence path: sum_j (t/2)^{k+2j} / (j! (j+k)!).
    """
    k = abs(k)
    half = F(t) / 2
    acc = F(0)
    term = half ** k / math.factorial(k)
    for j in range(terms):
        acc += term
        term = term * half * half / ((j + 1) * (j + 1 + k))
    return acc


# admissible generic parameter choices used across suites
PARAMS = {
    (0, 0): ParamVector(0, 0, [0]),
    (1, 0): ParamVector(1, 0, [F(1, 2)]),
    (0, 1): ParamVector(0, 1, [F(1, 2)]),
    (1, 1): ParamVector.from_alpha_beta(1, 1, F(1, 4), 1),
    (2, 0): ParamVector(2, 0, [F(1, 2), F(1, 3), F(1, 5), F(1, 7)]),
    (0, 2): ParamVector(0, 2, [F(1, 2), F(1, 3), F(1, 5), F(1, 7)]),
    (1, 2): ParamVector(1, 2, [F(1, 2), F(1, 3), F(1, 5), F(1, 7)]),
    (2, 1): ParamVector(2, 1, [F(1, 2), F(1, 3), F(1, 5), F(1, 7)]),
    (2, 2): ParamVector(2, 2, [F(1, 3), F(1, 7), F(2, 5), F(1, 11)]),
}


def one_step_kernel(delta: F, n: int, m: int) -> dict:
    """Closed form of the single-step kernel: coefficient map order -> poly in t.

    beta_{n-m}   = (tau_m tau_{n+1} - t) / (tau_{m+1} tau_n)
    beta_{n-m+1} = -t / (tau_{m+1} tau_n)          with tau_k = k + delta.
    """
    tau = lambda k: F(k) + delta
    den = tau(m + 1) * tau(n)
    return {
        n - m: Poly("t", [tau(m) * tau(n + 1) / den, -1 / den]),
        n - m + 1: Poly("t", [0, -1 / den]),
    }


def two_step_tau(alpha: F, beta: F, n: int) -> F:
    """2x2 determinant tau for the double-step construction."""
    return (F(n) + alpha) * (2 * F(n) + 1 - 2 * (alpha + beta)) - (-F(n) + alpha + beta)


def two_step_kernel(alpha: F, beta: F, n: int, m: int) -> dict:
    """Closed form of the double-step kernel, transcribed verbatim."""
    tau = lambda k: two_step_tau(alpha, beta, k)
    den = tau(m + 1) * tau(n)
    c_k = Poly("t", [tau(m) * tau(n + 1) / den,
                     4 * (beta + 2 * alpha) * (F(n) + m - beta + 2) / den])
    c_k1 = Poly("t", [0, -4 * (2 * F(m) * n - beta * n + 2 * n - beta * m + 2 * m
                               + beta ** 2 + 2 * alpha * beta - 2 * beta
                               + 2 * alpha ** 2 + 2) / den])
    return {n - m: c_k, n - m + 1: c_k1}


def two_step_gamma(alpha: F, beta: F, n: int, m: int, j: int) -> F:
    """Series coefficient gamma_j of the double-step wave-function product."""
    tau = lambda k: two_step_tau(alpha, beta, k)
    inner = (F(m) - alpha - beta + 1) * (F(n) - alpha - beta + 1) * (n - m + j) \
        + F(-1) ** j * (F(m) + alpha + 1) * (F(n) + alpha + 1) * (n - m + j)
    return -4 * inner / (tau(n) * tau(m))


def two_step_wave(alpha: F, beta: F, n: int) -> PolyFraction:
    """The 3x3 determinant form of p_n(x) for the double-step construction."""
    rows = [
        [F(n) + alpha, -F(n) + alpha + beta, Poly("x", [1])],
        [F(n + 1) + alpha, F(n + 1) - alpha - beta, Poly("x", [0, 1])],
        [F(n + 2) + alpha, -F(n + 2) + alpha + beta, Poly("x", [0, 0, 1])],
    ]
    det = Poly("x")
    # direct cofactor expansion along the last column
    m01 = rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    m02 = rows[0][0] * rows[2][1] - rows[0][1] * rows[2][0]
    m12 = rows[1][0] * rows[2][1] - rows[1][1] * rows[2][0]
    det = det + rows[0][2] * m12 - rows[1][2] * m02 + rows[2][2] * m01
    den = Poly("x", [-1, 0, 1]) * two_step_tau(alpha, beta, n)
    x_n = Poly("x", [0] * abs(n) + [1])
    return PolyFraction(det * x_n, den) if n >= 0 else PolyFraction(det, den * x_n)


def solve_exact(matrix: list[list[F]], rhs: list[F]) -> list[F]:
    """Gaussian elimination over Fractions (square, nonsingular)."""
    size = len(matrix)
    aug = [list(row) + [val] for row, val in zip(matrix, rhs)]
    for col in range(size):
        pivot = next(r for r in range(col, size) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(size):
            if r != col and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
    return [aug[r][size] for r in range(size)]
