import math
from fractions import Fraction as F

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.linalg import expm as dense_expm

from conftest import PARAMS
from heatkernel.bessel import UNSCALED_T_MAX, bessel_row
from heatkernel.kernel import assemble_kernel, kernel_eval
from heatkernel.oracle import (
    TAIL_TOL,
    GridMismatch,
    NoConvergence,
    QuadratureSpec,
    WindowTooSmall,
    boundary_influence,
    circle_quadrature,
    compare_kernel_to_lattice,
    compare_report,
    expm,
    lattice_evolve,
    lattice_window,
    orthogonality_gram,
)
from heatkernel.taudarboux import (
    ParamVector,
    free_operator,
    operator_build,
    tau_build,
    wave_p,
)
from test_float_layer import _reference
from test_taudarboux import _small_r


def dense(window):
    """The window as a dense matrix, written from its bands."""
    size = 2 * window.W + 1
    return sum(np.diag(b[:size - j] if j >= 0 else b[-j:], j) for j, b in window.bands.items())


def test_lattice_window_structure():
    win = lattice_window(free_operator(), 3)
    A = dense(win)
    assert A.shape == (7, 7)
    assert A[3, 3] == -2 and A[3, 4] == 1 and A[3, 2] == 1
    assert A[0, 1] == 1 and A[0, 0] == -2 and A[6, 5] == 1    # boundary rows truncated
    assert win.bands[1][6] == 0 and win.bands[-1][0] == 0     # out-of-window couplings
    assert np.count_nonzero(A) == 7 + 2 * 6


def test_lattice_window_floats_of_exact_coefficients():
    L = operator_build(PARAMS[(2, 2)])
    win = lattice_window(L, 30)
    for j, band in win.bands.items():
        for n in range(-30, 31):
            expect = float(L.coeff_at(j, n)) if abs(n + j) <= 30 else 0.0
            assert band[n + 30] == expect, (j, n)


def test_free_evolution_matches_bessel():
    res = lattice_evolve(free_operator(), 200, 0, 1.0)
    row = bessel_row(2.0, 30)
    for n in range(-20, 21):
        assert abs(res["values"][n + 200] - row.scaled(n)) < 1e-11
    assert res["tail_bound"] < 1e-11


def test_evolution_delta_limit():
    res = lattice_evolve(free_operator(), 50, 3, 0.0)
    assert res["values"][53] == 1.0
    assert np.abs(res["values"]).sum() == 1.0


def test_mass_conservation_free():
    res = lattice_evolve(free_operator(), 200, 0, 2.0)
    assert abs(res["values"].sum() - 1.0) < 1e-11


def test_one_step_evolution_matches_closed_form():
    params = ParamVector(1, 0, [F(1, 2)])
    L = operator_build(params)
    res = lattice_evolve(L, 200, 0, 1.0)
    for n in range(-6, 7):
        closed = kernel_eval(assemble_kernel(params, n, 0), 1.0)
        assert abs(res["values"][n + 200] - closed) < 1e-10, n


def test_window_too_small():
    with pytest.raises(WindowTooSmall):
        lattice_evolve(free_operator(), 10, 0, 2.0)


def test_lattice_evolution_past_the_unscaled_range_matches_closed_form():
    # 2t = 800 > UNSCALED_T_MAX: the series bound certifies W - |m| >= 1230
    # at t = 400 (the 40-digit threshold is 1226)
    params = ParamVector(1, 0, [F(1, 2)])
    res = lattice_evolve(operator_build(params), 1240, 0, 400.0)
    closed = kernel_eval(assemble_kernel(params, 1, 0), 400.0)
    assert res["tail_bound"] < TAIL_TOL
    assert abs(res["values"][1 + 1240] - closed) < 1e-10


def test_boundary_influence_bounds_the_bessel_value_on_both_sides_of_the_unscaled_range():
    with mpmath.workdps(40):
        for k, t in [(1226, 400.0), (1230, 400.0), (500, 360.0), (2000, 1000.0), (10, 400.0)]:
            assert 2 * t > UNSCALED_T_MAX
            assert boundary_influence(k, 0, t) >= mpmath.besseli(k, 2 * t), (k, t)
        for k, t in [(5, 1.0), (40, 20.0), (300, 300.0), (800, 354.0)]:
            bound = boundary_influence(k + 3, -3, t)
            assert bound == bessel_row(2 * t, k).scaled(k) * math.exp(2 * t), (k, t)
            assert abs(bound / mpmath.besseli(k, 2 * t) - 1) < 1e-12, (k, t)


def test_source_near_boundary_rejected():
    with pytest.raises(ValueError):
        lattice_evolve(free_operator(), 20, 15, 0.5)


def test_orthogonality_diagonal():
    params = ParamVector(1, 0, [F(1, 2)])
    tau = tau_build(params)
    spec = QuadratureSpec(integrand="orthogonality")
    for n in range(0, 4):
        value = circle_quadrature(spec, params, n, n)
        assert abs(value - float(tau.ratio(n + 1, n))) < 1e-10
    assert abs(circle_quadrature(spec, params, 2, 0)) < 1e-10
    assert abs(circle_quadrature(spec, params, 0, 3)) < 1e-10


def test_gram_matrix():
    params = PARAMS[(1, 1)]
    tau = tau_build(params)
    G = orthogonality_gram(params, 4)
    for i in range(4):
        for j in range(4):
            expect = float(tau.ratio(i + 1, i)) if i == j else 0.0
            assert abs(G[i, j] - expect) < 1e-10


def test_kernel_quadrature_free():
    spec = QuadratureSpec(integrand="kernel")
    value = circle_quadrature(spec, PARAMS[(0, 0)], 0, 0, t=1.0)
    assert abs(value - bessel_row(2.0, 0).scaled(0)) < 1e-12


def test_spectral_vs_adjoint_quadrature():
    params = PARAMS[(1, 1)]
    a = circle_quadrature(QuadratureSpec(integrand="kernel"), params, 1, 0, t=1.0)
    b = circle_quadrature(QuadratureSpec(integrand="kernel_adjoint"), params, 1, 0, t=1.0)
    assert abs(a - b) < 1e-12
    closed = kernel_eval(assemble_kernel(params, 1, 0), 1.0)
    assert abs(a - closed) < 1e-10


def test_quadrature_needs_time_for_kernel_mode():
    with pytest.raises(ValueError):
        circle_quadrature(QuadratureSpec(integrand="kernel"), PARAMS[(0, 0)], 0, 0)


def test_quadrature_rejects_unit_radius():
    # |radius| = 1 runs the contour through the poles at +-1; nan and inf give no circle
    for radius in (1.0, -1.0, 0.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            QuadratureSpec(integrand="kernel", radius=radius)


def test_quadrature_radius_independence():
    # residues at +/-1 vanish, so any radius away from 0 and 1 agrees
    params = PARAMS[(1, 1)]
    a = circle_quadrature(QuadratureSpec(integrand="kernel", radius=0.5),
                          params, 1, 0, t=1.0)
    b = circle_quadrature(QuadratureSpec(integrand="kernel", radius=2.0),
                          params, 1, 0, t=1.0)
    c = circle_quadrature(QuadratureSpec(integrand="kernel", radius=0.7),
                          params, 1, 0, t=1.0)
    assert abs(a - b) < 1e-11 and abs(a - c) < 1e-11


def test_quadrature_geometric_convergence():
    # midpoint-rule error halves (at least) with every node doubling
    params = ParamVector(1, 0, [F(1, 2)])
    pn = wave_p(params, 1)
    pm = wave_p(params, 1).inverse_var()

    def ev(p, z):
        return np.polyval([float(c) for c in reversed(p.coeffs)], z)

    def quad(N):
        theta = 2.0 * np.pi * (np.arange(N) + 0.5) / N
        z = 0.5 * np.exp(1j * theta)
        vals = ev(pn.num, z) / ev(pn.den, z) * ev(pm.num, z) / ev(pm.den, z)
        return complex(np.mean(vals)).real

    truth = quad(1 << 14)
    errs = [abs(quad(1 << p) - truth) for p in range(3, 10)]
    for a, b in zip(errs, errs[1:]):
        if a < 1e-13:
            break
        assert b < 0.5 * a, errs


def test_no_convergence_guard():
    spec = QuadratureSpec(integrand="orthogonality", n_start=2, n_max=4, tol=1e-30)
    with pytest.raises(NoConvergence):
        circle_quadrature(spec, PARAMS[(1, 0)], 1, 1)


def test_compare_report_identical():
    rep = compare_report([(0, 0, 1.0)], [0.5], [0.5], 1e-10)
    assert rep.passed and rep.max_abs == 0.0


def test_compare_report_corruption_localized():
    grid = [(0, 0, 1.0), (1, 0, 1.0)]
    rep = compare_report(grid, [0.5, 0.5 + 1e-6], [0.5, 0.5], 1e-10)
    assert not rep.passed
    assert abs(rep.max_abs - 1e-6) < 1e-12
    csv = rep.to_csv()
    assert csv.splitlines()[0] == "n,m,t,closed,oracle,diff"
    assert len(csv.splitlines()) == 3
    # max() would skip a NaN difference; NaN, and inf against inf, must fail
    for closed, oracle in (([0.5, 0.25], [0.5, math.nan]), ([0.5, math.nan], [0.5, 0.25]),
                           ([0.5, math.inf], [0.5, math.inf]), ([math.inf, 0.5], [0.5, 0.5])):
        rep = compare_report(grid, closed, oracle, 1e-10)
        assert not rep.passed and not rep.max_abs <= 1e-10, (closed, oracle)


def test_compare_report_grid_mismatch():
    with pytest.raises(GridMismatch):
        compare_report([(0, 0, 1.0)], [1.0, 2.0], [1.0], 1e-10)


def test_compare_kernel_to_lattice_one_step():
    params = ParamVector(1, 0, [F(1, 2)])
    pairs = [(n, m) for n in range(-3, 4) for m in range(-3, 4)]
    rep = compare_kernel_to_lattice(params, operator_build(params), pairs,
                                    [0.5, 1.0], W=200, tolerance=1e-10)
    assert rep.passed, (rep.max_abs, rep.max_rel)
    assert rep.to_json()["pass"] is True


@pytest.mark.parametrize("key", [(1, 0), (1, 1), (2, 2)])
def test_propagation_matches_dense_expm(key):
    # the dense exponential of the whole window stays here as the reference
    W = 200
    L = operator_build(PARAMS[key])
    A = dense(lattice_window(L, W))
    for t in (1.0, 4.0):
        P = dense_expm(t * A)
        for m in (-4, 0, 4):
            got = lattice_evolve(L, W, m, t)["values"]
            ref = P[:, m + W]
            assert np.max(np.abs(got - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref))), (t, m)


def test_lattice_agreement_large_values():
    # a draw whose kernels reach |u| ~ 4e5 at t = 4, where the dense
    # exponential of the window missed 1e-10 max(1, |u|) at 29 points
    params = ParamVector.from_alpha_beta(1, 1, F(4, 11), F(-2, 13))
    pairs = [(n, m) for n in range(-4, 5) for m in range(-4, 5)]
    rep = compare_kernel_to_lattice(params, operator_build(params), pairs,
                                    [0.5, 1.0, 2.0, 4.0], W=200)
    assert len(rep.grid) == 4 * len(pairs)
    for g, c, o in zip(rep.grid, rep.closed, rep.oracle):
        assert abs(c - o) <= 1e-10 * max(1.0, abs(c)), (g, c, o)


def test_compare_kernel_to_lattice_window_guard():
    params = ParamVector(1, 0, [F(1, 2)])
    pairs = [(n, m) for n in range(-2, 3) for m in range(-2, 3)]
    with pytest.raises(WindowTooSmall, match=r"\[-8, 8\]"):
        compare_kernel_to_lattice(params, operator_build(params), pairs, [4.0], W=8)
    with pytest.raises(WindowTooSmall):
        compare_kernel_to_lattice(params, operator_build(params), [(0, 5)], [0.5], W=8)


def test_lattice_evolve_free_centre_value():
    W = 100
    values = lattice_evolve(free_operator(), W, 0, 1.0)["values"]
    assert abs(values[W] - bessel_row(2.0, 0).scaled(0)) < 1e-12


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 2), st.integers(0, 2), st.lists(_small_r, min_size=1, max_size=4))
def test_expm_matches_dense_exponential(R, S, r):
    params = ParamVector(R, S, r)
    assume(tau_build(params).zeros == ())
    W, sources = 60, [56, 60, 64]                 # the sites -4, 0, 4
    window = lattice_window(operator_build(params), W)
    A = dense(window)
    # near a tau zero (||L_W||_1 ~ 1e3 and up) the dense Pade exponential
    # drifts from the exact kernel by more than 1e-12 max|u| (8e-11 at
    # max|u| = 30 for (1,1), r = 7/2, t = 4) while expm stays within it:
    # such windows are checked against the exact kernel in the next test
    assume(np.linalg.norm(A, 1) <= 100)
    columns = np.eye(2 * W + 1)[:, sources]
    for t in (0.5, 4.0):
        ref = dense_expm(t * A)[:, sources]
        got = expm(window, columns, t)
        assert np.max(np.abs(got - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref))), t


@pytest.mark.parametrize("params", [
    ParamVector.from_alpha_beta(1, 1, F(4, 11), F(-2, 13)),    # the benchmark's seed-103 draw
    ParamVector(1, 2, [F(2), F(0), F(-4), F(-4)]),
], ids=["seed103", "1,2"])
def test_expm_near_singular_window(params):
    # ||L_W||_1 ~ 8e5 and ~1e4, while ||L_W^p||_1^(1/p) falls below 10 by
    # p = 9: the step count must come from the powers.  The dense
    # exponential is off by up to 2.3e-7 here, so the reference is the
    # kernel from the exact beta_j at 80 digits, at the bound every float
    # oracle check uses, 1e-10 max(1, |u|)
    W, sources = 60, (-4, 0, 4)
    window = lattice_window(operator_build(params), W)
    columns = np.eye(2 * W + 1)[:, [W + m for m in sources]]
    for t in (0.5, 4.0):
        got = expm(window, columns, t)
        for i, m in enumerate(sources):
            for n in range(-4, 5):
                u = float(_reference(assemble_kernel(params, n, m), t)[0])
                assert abs(got[W + n, i] - u) <= 1e-10 * max(1.0, abs(u)), (t, n, m)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 2), st.integers(0, 2), st.lists(_small_r, min_size=1, max_size=4),
       st.integers(-4, 4), st.integers(-4, 4))
def test_lattice_agreement_at_random_admissible_draws(R, S, r, n, m):
    # the assembled kernel against exp(t L_W) on the window, t <= 4
    params = ParamVector(R, S, r)
    assume(tau_build(params).zeros == ())
    rep = compare_kernel_to_lattice(params, operator_build(params), [(n, m)],
                                    [0.5, 1.0, 2.0, 4.0], W=200)
    for g, c, o in zip(rep.grid, rep.closed, rep.oracle):
        assert abs(c - o) <= 1e-10 * max(1.0, abs(c)), (g, c, o)
