import copy
import importlib
import math
import pickle
import pkgutil
from dataclasses import replace
from fractions import Fraction as F
from functools import cached_property, lru_cache
from operator import mul

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import (
    PARAMS,
    bessel_i_series,
    one_step_kernel,
    two_step_gamma,
    two_step_kernel,
)
import heatkernel
from heatkernel import cli, kernel, taudarboux
from heatkernel.bessel import alpha_table, bessel_row, tail_resum
from heatkernel.exactcore import Poly, PolyFraction, series_at_zero
from heatkernel.kernel import (
    InternalInconsistency,
    ZeroNode,
    assemble_kernel,
    combo_to_basis,
    gamma_series,
    kernel_eval,
    node_poly,
    pde_residual,
    symmetry_transport,
    _check_degrees,
)
from heatkernel.oracle import QuadratureSpec, circle_quadrature
from heatkernel.taudarboux import (
    ParamVector,
    SingularTau,
    ensure_regular,
    operator_build,
    tau_build,
    wave_p,
)
from test_taudarboux import _small_r


def combos_equal(a: dict, b: dict) -> bool:
    """Exact equality of Bessel combinations modulo the recurrence relations."""
    diff = {j: Poly("t", p.coeffs) for j, p in a.items()}
    for j, p in b.items():
        jj = abs(j)
        diff[jj] = diff.get(jj, Poly("t")) - p
    A, B = combo_to_basis(diff.items())
    return A.is_zero() and B.is_zero()


def test_gamma_series_free():
    gs = gamma_series(PARAMS[(0, 0)], 2, 0, 4)
    assert gs.gammas == (F(1), F(0), F(0), F(0), F(0))


def test_gamma_series_one_step_direct_division():
    # direct series division of p_0(x) p_0(1/x) for delta = 1/2:
    # product = (3x^2 - 10x + 3)/(x - 1)^2, expanded by hand recurrence
    num = [F(3), F(-10), F(3)]
    den = [F(1), F(-2), F(1)]
    series = []
    for k in range(5):
        acc = num[k] if k < 3 else F(0)
        for i in range(1, min(k, 2) + 1):
            acc -= den[i] * series[k - i]
        series.append(acc / den[0])
    gs = gamma_series(ParamVector(1, 0, [F(1, 2)]), 0, 0, 4)
    assert list(gs.gammas) == series
    assert gs.gammas[0] == 3 and gs.gammas[1] == -4


def test_gamma_series_leading_is_tau_ratio():
    for key in [(1, 0), (1, 1), (2, 1), (2, 2)]:
        params = PARAMS[key]
        tau = tau_build(params)
        for (n, m) in [(0, 0), (2, 0), (3, -1)]:
            gs = gamma_series(params, n, m, 2 * max(params.R, params.S) + 2)
            assert gs.gammas[0] == tau.value(n + 1) / tau.value(n), (key, n, m)


def test_gamma_series_two_step_closed_form():
    alpha, beta = F(1, 4), F(1)
    params = ParamVector.from_alpha_beta(1, 1, alpha, beta)
    for (n, m) in [(0, 0), (1, 0), (2, 1), (3, -1), (-1, -2)]:
        gs = gamma_series(params, n, m, 6)
        for j in range(1, 6):
            assert gs.gammas[j] == two_step_gamma(alpha, beta, n, m, j), (n, m, j)


def wave_product_gammas(params, n, m, J):
    """gamma_0..gamma_J through the wave functions: the series at x = 0 of
    x^{m-n} p_n(x) p_m(1/x), built as a rational function of x."""
    prod = wave_p(params, n) * wave_p(params, m).inverse_var()
    first, coeffs = series_at_zero(prod / Poly.variable("x") ** (n - m), J + 1)
    assert first == 0
    return coeffs


def test_gamma_series_matches_wave_product_series():
    for key, params in PARAMS.items():
        T = max(params.R, params.S)
        if T < 1:
            continue
        for m in (-2, 0, 1):
            for k in range(2 * T + 5):
                n = m + k
                J = k + 2 * T + 2
                got = gamma_series(params, n, m, J).gammas
                assert got == wave_product_gammas(params, n, m, J), (key, n, m)


_rational = st.builds(F, st.integers(-9, 9), st.integers(2, 13))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 2), st.integers(0, 2), st.lists(_rational, min_size=4, max_size=4),
       st.integers(-3, 3), st.integers(0, 8))
def test_gamma_series_matches_wave_product_series_random(R, S, r, m, k):
    assume(R + S >= 1)
    params = ParamVector(R, S, r)
    try:
        ensure_regular(params)
    except SingularTau:
        assume(False)
    J = k + 2 * max(R, S) + 2
    got = gamma_series(params, m + k, m, J).gammas
    assert got == wave_product_gammas(params, m + k, m, J)


def test_gamma_series_guard_trips_on_a_corrupt_wave_numerator(monkeypatch):
    # gamma_0 = a_0 b_0 / scale: one coefficient of A_n off by one breaks
    # gamma_0 = tau(n+1)/tau(n), which the guard checks by cross-multiplying
    params = PARAMS[(2, 1)]
    assert gamma_series(params, 2, 0, 8).gammas     # the guard holds on intact data
    wave_numerator = kernel.wave_numerator

    def corrupt(params, site, starred=False):
        p = wave_numerator(params, site, starred)
        return Poly.from_ints("x", [p.num[0] + 1, *p.num[1:]], p.den) if site == 2 else p

    monkeypatch.setattr(kernel, "wave_numerator", corrupt)
    with pytest.raises(InternalInconsistency):
        gamma_series(params, 2, 0, 8)


def test_gamma_series_requires_ordered_sites():
    with pytest.raises(ValueError):
        gamma_series(PARAMS[(1, 0)], 0, 2, 4)


def test_node_poly_linear_cases():
    assert node_poly(1, 0, 1) == Poly("j", [0, 1])
    assert node_poly(2, 0, 1) == Poly("j", [0, F(1, 2)])
    assert node_poly(4, 0, 1) == Poly("j", [0, F(1, 4)])


def test_node_poly_cardinal_values():
    for (first, T) in [(2, 2), (2, 3), (3, 3)]:
        for i in range(T):
            q = node_poly(first, i, T)
            assert q.degree == 2 * T - 1
            for d, c in enumerate(q.coeffs):
                if c:
                    assert d % 2 == 1          # odd in j
            for l in range(T):
                expect = F(1) if l == i else F(0)
                assert q.subs(F(first + 2 * l)) == expect, (first, T, i, l)


def test_node_poly_zero_node_rejected():
    with pytest.raises(ZeroNode):
        node_poly(0, 0, 1)


def test_free_kernel_all_pairs():
    params = PARAMS[(0, 0)]
    for n in range(-10, 11):
        for m in range(-10, 11):
            f = assemble_kernel(params, n, m)
            assert f.terms == {abs(n - m): Poly("t", [1])}


def test_one_step_kernel_exact_coefficients():
    params = ParamVector(1, 0, [F(1, 2)])
    f = assemble_kernel(params, 0, 0)
    assert f.terms[0] == Poly("t", [1, F(-4, 3)])
    assert f.terms[1] == Poly("t", [0, F(-4, 3)])


def test_one_step_kernel_grid_matches_closed_form():
    for delta in (F(1, 2), F(3, 2), F(-5, 2)):
        params = ParamVector(1, 0, [delta])
        for n in range(-5, 6):
            for m in range(-5, 6):
                f = assemble_kernel(params, n, m)
                ref = one_step_kernel(delta, n, m)
                if n >= m:
                    expect = {abs(j): p for j, p in ref.items() if not p.is_zero()}
                    assert f.terms == expect, (delta, n, m)
                else:
                    assert combos_equal(f.terms, ref), (delta, n, m)


def test_two_step_kernel_pointwise():
    for (alpha, beta) in [(F(1, 4), F(1)), (F(1), F(3))]:
        params = ParamVector.from_alpha_beta(1, 1, alpha, beta)
        for n in range(-3, 4):
            for m in range(-3, 4):
                f = assemble_kernel(params, n, m)
                ref = two_step_kernel(alpha, beta, n, m)
                for t in (0.5, 1.0, 2.0):
                    row = bessel_row(2.0 * t, max(abs(j) for j in ref) + 1)
                    expect = sum(float(p.subs(F(t))) * row.scaled(j)
                                 for j, p in ref.items())
                    got = kernel_eval(f, t)
                    assert abs(got - expect) <= 1e-12 * max(1.0, abs(expect)), \
                        (alpha, beta, n, m, t)


def test_kernel_eval_against_series():
    f = assemble_kernel(PARAMS[(0, 0)], 0, 0)
    exact = float(bessel_i_series(0, F(2))) * math.exp(-2.0)
    assert abs(kernel_eval(f, 1.0) - exact) < 1e-14


def test_kernel_eval_delta_limit():
    assert kernel_eval(assemble_kernel(PARAMS[(1, 1)], 2, 2), 0.0) == 1.0
    assert kernel_eval(assemble_kernel(PARAMS[(1, 1)], 3, 1), 0.0) == 0.0
    with pytest.raises(ValueError):
        kernel_eval(assemble_kernel(PARAMS[(0, 0)], 0, 0), -1.0)


def test_kernel_eval_rejects_nonfinite_time_and_nan_value():
    f = assemble_kernel(ParamVector(1, 0, ["1/2"]), 0, 0)
    for t in (math.inf, math.nan):
        with pytest.raises(ValueError):
            kernel_eval(f, t)


def test_kernel_eval_one_step_value():
    f = assemble_kernel(ParamVector(1, 0, [F(1, 2)]), 0, 0)
    row = bessel_row(2.0, 2)
    expect = row.scaled(0) - (4.0 / 3.0) * (row.scaled(0) + row.scaled(1))
    assert abs(kernel_eval(f, 1.0) - expect) < 1e-14


def test_initial_condition_structure():
    for key in [(1, 0), (1, 1), (2, 1), (2, 2)]:
        params = PARAMS[key]
        for (n, m) in [(0, 0), (2, 2), (1, 0), (0, 1), (3, -2)]:
            f = assemble_kernel(params, n, m)
            assert f.beta(0).coeff(0) == (1 if n == m else 0), (key, n, m)
            if n == m:
                for j in f.support:
                    if j != 0:
                        assert f.terms[j].coeff(0) == 0


def test_degree_bound():
    for key in [(1, 0), (0, 1), (1, 1), (2, 1), (2, 2)]:
        params = PARAMS[key]
        T = max(params.R, params.S)
        for (n, m) in [(0, 0), (2, -1), (-3, 3)]:
            f = assemble_kernel(params, n, m)
            assert f.max_degree() <= 2 * T - 1, (key, n, m)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(st.integers(0, 2), st.integers(0, 2), st.lists(_small_r, min_size=1, max_size=4),
       st.integers(-3, 3), st.integers(-3, 3))
def test_kernel_properties_at_random_admissible_draws(R, S, r, n, m):
    params = ParamVector(R, S, r)
    assume(tau_build(params).zeros == ())
    f = assemble_kernel(params, n, m)
    assert f.beta(0).coeff(0) == (n == m)           # u(n, m, 0), as I_j(0) = delta_j0
    assert f.max_degree() <= max(2 * max(R, S) - 1, 0)
    back = symmetry_transport(params, n, m, symmetry_transport(params, m, n, f))
    assert back.terms == f.terms
    assert pde_residual(f).passed


def reference_kernel(params, n, m):
    """The kernel at n - m >= 0 summed through Fraction and Poly arithmetic:
    gamma_0 I_k(2t) plus gamma_{eps+2i} times each resummed tail, all times
    tau(m)/tau(m+1), zero weights skipped; orders as the pieces first reach
    them, which is the order the formula's repr shows."""
    k, T = n - m, max(params.R, params.S)
    gs, tau = gamma_series(params, n, m, 2 * T), tau_build(params)
    prefactor = tau.value(m) / tau.value(m + 1)
    terms = {k: Poly("t", [gs.gamma(0) * prefactor])}
    for eps in (1, 2):
        for i in range(T):
            if w := gs.gamma(eps + 2 * i) * prefactor:
                for j, p in tail_resum(node_poly(k + eps, i, T), k + eps + 2 * i - 1).items():
                    terms[j] = terms.get(j, Poly("t")) + p.scale(w)
    return {j: p for j, p in terms.items() if p}


def check_against_reference(params, n, m):
    f = assemble_kernel(params, n, m)
    if n >= m:
        assert list(f.terms.items()) == list(reference_kernel(params, n, m).items()), (n, m)
    else:
        tau = tau_build(params)
        factor = tau.value(m) * tau.value(n + 1) / (tau.value(m + 1) * tau.value(n))
        expect = {j: p.scale(factor) for j, p in reference_kernel(params, m, n).items()}
        assert list(f.terms.items()) == list(expect.items()), (n, m)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 3), st.integers(0, 3), st.lists(_small_r, min_size=1, max_size=6),
       st.integers(-4, 4), st.integers(-4, 4))
def test_assembly_matches_the_fraction_reference_at_random_admissible_draws(R, S, r, n, m):
    params = ParamVector(R, S, r)
    assume(tau_build(params).zeros == ())
    check_against_reference(params, n, m)


def test_assembly_matches_the_fraction_reference_at_4_4():
    params = ParamVector(4, 4, [F(1, 3), F(1, 7), F(2, 5), F(1, 11)])
    for n in range(-4, 5):
        for m in range(-4, 5):
            check_against_reference(params, n, m)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(0, 2), st.integers(0, 2), st.lists(_small_r, min_size=1, max_size=4),
       st.integers(-3, 3), st.integers(-3, 3))
def test_kernel_quadratures_at_random_admissible_draws(R, S, r, n, m):
    # the contour integrals over p_n p_m(1/x) and over p_n p*_{m+1} x, both
    # built from the wave functions, give the assembled kernel at t = 1
    params = ParamVector(R, S, r)
    assume(tau_build(params).zeros == ())
    u = kernel_eval(assemble_kernel(params, n, m), 1.0)
    for integrand in ("kernel", "kernel_adjoint"):
        value = circle_quadrature(QuadratureSpec(integrand=integrand), params, n, m, t=1.0)
        assert abs(value - u) <= 1e-10 * max(1.0, abs(u)), (integrand, value, u)


def test_degree_guard_trips_on_corrupt_formula():
    with pytest.raises(InternalInconsistency):
        _check_degrees({0: [0, 0, 0, 1]}, 1)


def test_symmetry_transport_factor():
    params = ParamVector(1, 0, [F(1, 2)])
    f10 = assemble_kernel(params, 1, 0)
    f01 = symmetry_transport(params, 0, 1, f10)
    assert f01.beta(1) == f10.beta(1).scale(F(9, 5))
    back = symmetry_transport(params, 1, 0, f01)
    assert back.terms == f10.terms


def test_symmetry_transport_free_is_identity():
    f = assemble_kernel(PARAMS[(0, 0)], 2, 0)
    g = symmetry_transport(PARAMS[(0, 0)], 0, 2, f)
    assert g.terms == f.terms


def test_symmetry_transport_against_quadrature():
    from heatkernel.oracle import QuadratureSpec, circle_quadrature
    params = ParamVector(1, 0, [F(1, 2)])
    spec = QuadratureSpec(integrand="kernel")
    v10 = circle_quadrature(spec, params, 1, 0, t=1.0)
    v01 = circle_quadrature(spec, params, 0, 1, t=1.0)
    assert abs(v01 - kernel_eval(assemble_kernel(params, 0, 1), 1.0)) < 1e-10
    assert abs(v01 - float(F(9, 5)) * v10) < 1e-10


def test_symmetry_transport_site_check():
    f = assemble_kernel(PARAMS[(1, 0)], 1, 0)
    with pytest.raises(ValueError):
        symmetry_transport(PARAMS[(1, 0)], 1, 0, f)


def test_singular_sites_rejected():
    with pytest.raises(SingularTau):
        assemble_kernel(ParamVector(1, 0, [F(5)]), 0, 0)


def test_pde_residual_free():
    assert pde_residual(assemble_kernel(PARAMS[(0, 0)], 2, -1)).passed


def test_pde_residual_one_step():
    rep = pde_residual(assemble_kernel(ParamVector(1, 0, [F(1, 2)]), 0, 0))
    assert rep.passed, (rep.residual_I0, rep.residual_I1)


def test_pde_residual_two_step():
    rep = pde_residual(assemble_kernel(PARAMS[(1, 1)], 2, 0))
    assert rep.passed


def test_pde_residual_remaining_small_orders():
    # completes the certification family below the (2,2) cap
    for key in [(2, 0), (0, 2), (1, 2)]:
        for (n, m) in [(0, 0), (1, -1), (-2, 2)]:
            rep = pde_residual(assemble_kernel(PARAMS[key], n, m))
            assert rep.passed, (key, n, m)


def test_pde_residual_detects_corruption():
    f = assemble_kernel(ParamVector(1, 0, [F(1, 2)]), 0, 0)
    bad = type(f)(params=f.params, n=f.n, m=f.m,
                  terms={**f.terms, 1: f.terms[1] + Poly("t", [0, F(1, 10 ** 6)])},
                  provenance=f.provenance)
    assert not pde_residual(bad).passed


def term_wise_residual(f):
    """Reference certificate: each beta_j I_j(2t) differentiated through
    d/dt I_j(2t) = I_{j-1}(2t) + I_{j+1}(2t), the neighbour kernels' terms
    appended, and the whole list reduced by combo_to_basis."""
    L = operator_build(f.params)
    c0, cm = L.coeff_at(0, f.n), L.coeff_at(-1, f.n)
    res = []
    for j, p in f.terms.items():
        res += [(j, p.derivative()), (j, p.scale(-2 - c0)), (j - 1, p), (j + 1, p)]
    res += [(j, -p) for j, p in assemble_kernel(f.params, f.n + 1, f.m).terms.items()]
    res += [(j, p.scale(-cm)) for j, p in assemble_kernel(f.params, f.n - 1, f.m).terms.items()]
    A, B = combo_to_basis(res)
    return A.is_zero() and B.is_zero(), repr(A), repr(B)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 3), st.integers(0, 3), st.lists(_small_r, min_size=1, max_size=6),
       st.integers(-4, 4), st.integers(-4, 4), st.data())
def test_pde_residual_matches_the_term_wise_reduction(R, S, r, n, m, data):
    params = ParamVector(R, S, r)
    assume(tau_build(params).zeros == ())
    f = assemble_kernel(params, max(n, m), min(n, m))
    transported = assemble_kernel(params, min(n, m), max(n, m))
    j = data.draw(st.integers(0, max(f.terms) + 1), label="perturbed order")
    cs = data.draw(st.lists(st.builds(F, st.integers(-9, 9), st.integers(1, 9)), max_size=3))
    delta = Poly("t", cs + [data.draw(st.sampled_from([-3, -1, F(1, 7), 2]))])
    # certified first, so a basis cache keyed on the sites would serve f's form
    # to the perturbed kernel
    perturbed = replace(f, terms={**f.terms, j: f.beta(j) + delta})
    empty = replace(f, terms={})
    for g, passes in ((f, True), (transported, True), (perturbed, False), (empty, None)):
        rep = pde_residual(g)
        assert (rep.passed, rep.residual_I0, rep.residual_I1) == term_wise_residual(g), (g.n, g.m)
        assert passes is None or rep.passed == passes, (g.n, g.m, g.terms)


def basis_table(max_order):
    """(A_j, B_j) with I_j(2t) = A_j I_0(2t) + B_j I_1(2t), built upwards by
    I_{j+1}(2t) = I_{j-1}(2t) - (j/t) I_j(2t)."""
    one, zero = PolyFraction.const("t", 1), PolyFraction.const("t", 0)
    reps = [(one, zero), (zero, one)]
    for j in range(1, max_order):
        inv_t = PolyFraction.laurent("t", {-1: j})
        reps.append((reps[j - 1][0] - inv_t * reps[j][0],
                     reps[j - 1][1] - inv_t * reps[j][1]))
    return reps


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.dictionaries(st.integers(-9, 9),
                       st.lists(st.builds(F, st.integers(-20, 20), st.integers(1, 9)),
                                max_size=5),
                       max_size=6))
def test_combo_to_basis_matches_basis_table(combo):
    terms = {j: Poly("t", cs) for j, cs in combo.items()}
    reps = basis_table(max([abs(j) for j in terms] + [1]))
    A, B = PolyFraction.const("t", 0), PolyFraction.const("t", 0)
    for j, p in terms.items():
        A, B = A + p * reps[abs(j)][0], B + p * reps[abs(j)][1]
    assert combo_to_basis(terms.items()) == (A, B)
    # repeated orders add up: each p split between orders j and -j
    split = [pair for j, p in terms.items()
             for pair in ((j, p - p.scale(F(1, 3))), (-j, p.scale(F(1, 3))))]
    assert combo_to_basis(split) == (A, B)


def test_combo_to_basis_recurrence():
    # t I_0(2t) - I_1(2t) - t I_2(2t) == 0
    A, B = combo_to_basis([(0, Poly("t", [0, 1])), (1, Poly("t", [-1])), (2, Poly("t", [0, -1]))])
    assert A.is_zero() and B.is_zero()


def test_decomposition_residual_small():
    # the tail decomposition's residual is exactly zero: every telescoping
    # identity S_n(k) - S_n(k+2) = (k+1)^{2n+1} I_{k+1}(2t), n < T, over the
    # 4T^2 + T offsets that prove every k, folds to zero on (I_0, I_1)
    for T in range(1, 7):
        assert kernel._certify_power_sums(T) == (4 * T * T + T, []), T


def test_power_sums_read_alpha_by_offset_only():
    # the premise of the certificate's degree lemma: where no order folds
    # through 0 (k >= 2n), or all do (k <= -2n-2), S_n(k) is S_n(2n) moved
    # to offset k, its order k + s given by s alone
    for n in range(4):
        q = Poly.from_ints("j", [0] * (2 * n + 1) + [1])
        base = {j - 2 * n: p for j, p in tail_resum(q, 2 * n).items()}
        for k in (2 * n + 1, 2 * n + 6, 41):
            assert tail_resum(q, k) == {k + s: p for s, p in base.items()}, (n, k)
        for k in (-2 * n - 2, -2 * n - 7, -40):
            assert tail_resum(q, k) == {-(k + s): p for s, p in base.items()}, (n, k)


def test_a_corrupted_alpha_entry_fails_the_power_sum_certificate(monkeypatch, capsys):
    # t^3 added to one resummation polynomial of depth 3 breaks S_3's
    # telescoping identity: the certificate and verify --mode decomp fail
    entries = alpha_table(3).entries
    try:
        with monkeypatch.context() as m:
            m.setitem(entries, (3, 2), entries[(3, 2)] + Poly.from_ints("t", [0, 0, 0, 1]))
            kernel._power_sum.cache_clear()
            checks, failures = kernel._certify_power_sums(4)
            code = cli.main(["verify", "--mode", "decomp", "--T", "4"])
    finally:
        kernel._power_sum.cache_clear()
    assert checks == 68 and len(failures) == 28 and {n for n, _ in failures} == {3}
    out = capsys.readouterr().out
    assert code == 1 and "verify mode=decomp: FAIL" in out
    assert "first_failure = (n=3, k'=-15)" in out
    assert kernel._certify_power_sums(4) == (68, [])


def test_a_primitive_wrong_between_the_polynomial_regions_fails(monkeypatch):
    # S_1(0) off by I_1(2t): offset 0 lies between the regions k >= 2n and
    # k <= -2n-2 where the identity is polynomial in k, so only its own
    # site-by-site checks, at k = -2 and 0, can see it
    power_sum = kernel._power_sum

    def corrupt(n, k):
        rows, D = power_sum(n, k)
        if (n, k) != (1, 0):
            return rows, D
        bumped = list(rows[1])
        bumped[0] += D
        return {**rows, 1: bumped}, D

    monkeypatch.setattr(kernel, "_power_sum", corrupt)
    assert kernel._certify_power_sums(2) == (18, [(1, -2), (1, 0)])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 3), st.integers(0, 3), st.lists(_small_r, min_size=1, max_size=6))
def test_band_values_from_sites_are_the_operator_coefficients(R, S, r):
    # (-2 - c_0(n), c_{-1}(n)) from tau and the wave numerators, without L
    params = ParamVector(R, S, r)
    assume(tau_build(params).zeros == ())
    L = operator_build(params)
    for n in range(-8, 9):
        assert kernel._band_at(params, n) == (-2 - L.coeff_at(0, n), L.coeff_at(-1, n)), (params, n)


def test_kernel_json_and_text():
    f = assemble_kernel(ParamVector(1, 0, [F(1, 2)]), 0, 0)
    blob = f.to_json()
    assert blob["prefactor"] == "exp(-2*t)" and blob["bessel_arg"] == "2*t"
    assert blob["terms"][0] == {"order": 0, "beta": ["1", "-4/3"]}
    assert blob["terms"][1] == {"order": 1, "beta": ["0", "-4/3"]}
    assert f.to_text() == "exp(-2t) * [ (1 - 4/3 t) I_0(2t) + (-4/3 t) I_1(2t) ]"
    free = assemble_kernel(PARAMS[(0, 0)], 3, 1)
    assert free.to_text() == "exp(-2t) * I_2(2t)"
    assert "e^{-2t}" in f.to_latex() and "I_{0}(2t)" in f.to_latex()


def test_provenance_recorded():
    f = assemble_kernel(PARAMS[(1, 1)], 2, 0)
    assert f.provenance["T"] == 1
    assert f.provenance["J"] == 2 * 1
    g = assemble_kernel(PARAMS[(1, 1)], 0, 2)
    assert g.provenance.get("transported")


def test_memoised_kernel_cannot_be_changed_by_a_caller():
    params = PARAMS[(2, 1)]
    for (n, m) in [(2, 0), (0, 2)]:
        first = assemble_kernel(params, n, m)
        expect = dict(first.terms)
        # every caller shares the memo entry, so each edit raises
        with pytest.raises(AttributeError):
            first.provenance["eps"].append(3)
        with pytest.raises(AttributeError):
            next(iter(first.terms.values())).coeffs = ()
        for d in (first.terms, first.provenance):
            key = next(iter(d))
            for edit in (d.clear, d.popitem, lambda: d.pop(key), lambda: d.__delitem__(key),
                         lambda: d.__setitem__(99, Poly("t", [1])), lambda: d.setdefault(99, 1),
                         lambda: d.update({key: -1}), lambda: d.__ior__({99: 1})):
                with pytest.raises(TypeError):
                    edit()
        again = assemble_kernel(params, n, m)
        assert again.terms == expect and 99 not in again.terms, (n, m)
        assert again.provenance["T"] == 2 and again.provenance["eps"] == (1, 2)
        assert pde_residual(again).passed


def test_assemble_kernel_returns_the_memo_entry():
    # direct and transported pairs: one shared object, no copy per call
    params = PARAMS[(2, 1)]
    for (n, m) in [(2, 0), (0, 0), (0, 2), (-1, 3)]:
        f = assemble_kernel(params, n, m)
        assert f is assemble_kernel(params, n, m) is kernel._assemble(params, n, m), (n, m)


def test_kernel_caches_are_bounded():
    # every lru_cache of the package, found by scanning its modules
    modules = [importlib.import_module(f"heatkernel.{info.name}")
               for info in pkgutil.iter_modules(heatkernel.__path__)]
    caches = {obj for module in [heatkernel, *modules] for obj in vars(module).values()
              if hasattr(obj, "cache_info")}
    assert {kernel._assemble, kernel._bessel_values, taudarboux.wave_numerator,
            cli.make_parser, alpha_table} <= caches
    for cache in caches:
        assert cache.cache_info().maxsize is not None, cache


@lru_cache(maxsize=None)
def resummed_tail(first, i, T):
    """The resummed tail attached to x^{-(first+2i)}, as (order, Poly in t)
    pairs, for first = k + eps: tail_resum of the Fraction cardinal
    polynomial node_poly, the reference the kernel's integer tables match."""
    return tuple(tail_resum(node_poly(first, i, T), first + 2 * i - 1).items())


def table_columns(k, T):
    """I_k(2t) and the 2T tails at offset k, in the tables' column order."""
    return [((k, Poly.const("t", 1)),)] + [resummed_tail(k + eps, i, T) for eps in (1, 2) for i in range(T)]


TABLE_OFFSETS = [(k, T) for T in range(6) for k in range(-12, 21) if not -2 * T <= k <= -1]


def unit_kernel(k, T, c):
    """A kernel whose weights select column c of the (k, T) table alone, at
    sites (k, 0)."""
    w = [0] * (2 * T + 1)
    w[c] = 1
    return kernel._assembled(PARAMS[(1, 0)], k, 0, {}, (k, T, tuple(w), 1))


def carried_to_01(form, k, reps):
    """A form (low, A, B, D) on (I_k(2t), I_{k+1}(2t)) as the Laurent pair on
    (I_0(2t), I_1(2t)), by the reference table built upwards."""
    A, B = kernel._laurent_pair(*form)
    return tuple(A * reps[k][h] + B * reps[k + 1][h] for h in (0, 1))


def test_table_columns_are_the_resummed_tails():
    # a kernel that weights one column alone has that column as its terms,
    # orders in tail_resum's sequence, equal to the Fraction reference
    for k, T in TABLE_OFFSETS:
        for c, col in enumerate(table_columns(k, T)):
            assert list(unit_kernel(k, T, c).terms.items()) == list(col), (k, T, c)


def test_basis_matrix_is_the_folded_tail_columns():
    # each column on (I_k, I_{k+1}), carried to (I_0, I_1), equals its tail
    # column reduced by combo_to_basis, and the columns summed with weights
    # 1..2T+1 equal the basis-table sum; each column is a polynomial in t of
    # degree <= T, with no negative power
    reps = basis_table(40)
    for k, T in TABLE_OFFSETS:
        if k < 0:
            continue
        low, rows0, rows1, D = kernel._basis_matrix(k, T)
        assert low >= 0 and low + len(rows0) - 1 <= T, (k, T)
        cols = table_columns(k, T)
        for c, col in enumerate(cols):
            form = (low, [r[c] for r in rows0], [r[c] for r in rows1], D)
            assert carried_to_01(form, k, reps) == combo_to_basis(col), (k, T, c)
        w = range(1, 2 * T + 2)
        summed = {}
        for c, col in zip(w, cols):
            for j, p in col:
                summed[abs(j)] = summed.get(abs(j), Poly("t")) + p.scale(c)
        A, B = PolyFraction.const("t", 0), PolyFraction.const("t", 0)
        for j, p in summed.items():
            A, B = A + p * reps[j][0], B + p * reps[j][1]
        form = (low, *([sum(map(mul, cell, w)) for cell in rows] for rows in (rows0, rows1)), D)
        assert carried_to_01(form, k, reps) == (A, B), (k, T)


def test_a_zero_node_is_refused_by_both_tables():
    # the rows a kernel's terms read and the fold its form reads
    for T in range(1, 5):
        for k in range(-2 * T, 0):
            for c in range(2 * T + 1):
                with pytest.raises(ZeroNode):
                    unit_kernel(k, T, c).terms
                with pytest.raises(ZeroNode):
                    kernel_eval(unit_kernel(k, T, c), 1.0)


def test_a_negative_base_is_refused_by_the_fold():
    # rows[base] would wrap round to the top orders; the fold and the basis
    # matrix refuse it instead.  t I_3 = -2 I_0 + (t + 2/t) I_1 = t I_3 on
    # (I_2, I_3), and I_0 = (1/t) I_1 + I_2 folded up
    assert kernel._fold([(3, [0, 1])], 0) == (-2, (0, 0, -2, 0), (0, 2, 0, 1))
    assert kernel._fold([(3, [0, 1])], 2) == (0, (0, 0), (0, 1))
    assert kernel._fold([(0, [1])], 1) == (-1, (1, 0), (0, 1))
    for base in (-1, -2, -7):
        with pytest.raises(ValueError, match="base"):
            kernel._fold([(3, [0, 1])], base)
    for T in range(0, 4):
        with pytest.raises(ValueError, match="base"):
            kernel._basis_matrix(-2 * T - 1, T)


def test_a_grids_columns_serve_both_tables_that_read_it():
    # the eps = 2 columns at offset k are the eps = 1 columns at k + 1, the
    # node grid from k + 2 read twice, as rows and, folded onto (I_k, I_{k+1})
    # and onto (I_{k+1}, I_{k+2}), as the same functions
    def over(D, col):
        return {key: tuple(F(x, D) for x in row) for key, row in col.items()}

    def refolded(col, k):           # a column on (I_k, I_{k+1}) folded onto (I_{k+1}, I_{k+2})
        top = max(col) + 1
        return kernel._folded({k: [col.get(e, (0, 0))[0] for e in range(top)],
                               k + 1: [col.get(e, (0, 0))[1] for e in range(top)]}, k + 1)

    for k, T in TABLE_OFFSETS:
        if T and (k + 1, T) in TABLE_OFFSETS:
            kernel._grid_columns.cache_clear()
            (cols, D), (nxt, Dn) = kernel._table_columns(k, T, 0), kernel._table_columns(k + 1, T, 0)
            assert [over(D, c) for c in cols[T + 1:]] == [over(Dn, c) for c in nxt[1:T + 1]], (k, T)
            if k >= 0:
                (cols, D), (nxt, Dn) = kernel._table_columns(k, T, 1), kernel._table_columns(k + 1, T, 1)
                assert [over(D, refolded(c, k)) for c in cols[T + 1:]] \
                    == [over(Dn, c) for c in nxt[1:T + 1]], (k, T)
            # three grids, each built once and read by both tables and forms
            info = kernel._grid_columns.cache_info()
            assert (info.misses, info.hits) == (3, 1 + 4 * (k >= 0)), (k, T)


def test_the_certificate_reads_the_resummed_tails_of_every_node(monkeypatch):
    # a resummation made wrong at one node, its degrees kept, fails the
    # certificate of a kernel whose tables read that node: the fold form is
    # the fold of the rows the printed beta_j come from
    resum = kernel.tail_resum

    def corrupt(q, k):
        terms = resum(q, k)
        if k != bad:
            return terms
        j = next(iter(terms))
        return {**terms, j: terms[j].scale(2)}

    params, bad = PARAMS[(1, 1)], 8
    caches = (kernel._assemble, kernel._basis_matrix, kernel._grid_columns, kernel._power_sum)
    for cache in caches:
        cache.cache_clear()
    monkeypatch.setattr(kernel, "tail_resum", corrupt)
    try:
        assert pde_residual(assemble_kernel(params, 1, 0)).passed      # nodes 2, 3
        assert not pde_residual(assemble_kernel(params, 7, 0)).passed  # nodes 8, 9
    finally:
        for cache in caches:
            cache.cache_clear()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 3), st.integers(0, 3), st.lists(_small_r, min_size=1, max_size=6),
       st.integers(-5, 5), st.integers(-5, 5))
def test_kernel_weights_are_divided_by_their_content(R, S, r, n, m):
    # an assembled or transported kernel keeps weights coprime to their
    # denominator; they are the unreduced ones, gamma_d tau(m) over
    # den(gamma) tau(m+1) (times the transport's tau pair), divided by their
    # gcd, and give the same terms
    params = ParamVector(R, S, r)
    assume(tau_build(params).zeros == ())
    f = assemble_kernel(params, n, m)
    k, T, w, den = f._weights
    assert math.gcd(den, *w) == 1, (n, m)
    hi, lo = max(n, m), min(n, m)
    gs, tau = gamma_series(params, hi, lo, 2 * T), lambda x: kernel._tau_at(params, x)
    raw = [gs.num[d] * tau(lo) for d in (0, *range(1, 2 * T, 2), *range(2, 2 * T + 1, 2))]
    raw_den = gs.den * tau(lo + 1)
    if n < m:
        a, b = tau(m) * tau(n + 1), tau(m + 1) * tau(n)
        raw, raw_den = [c * a for c in raw], raw_den * b
    assert [F(c, raw_den) for c in raw] == [F(c, den) for c in w], (n, m)
    expect = {}
    for c, col in zip(raw, table_columns(k, T)):
        for j, p in col:
            expect[j] = expect.get(j, Poly("t")) + p.scale(F(c, raw_den))
    assert f.terms == {j: p for j, p in expect.items() if not p.is_zero()}, (n, m)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 12), st.integers(0, 4), st.data())
def test_basis_matrix_times_weights_is_the_reduced_combination(k, T, data):
    # the fold of the parameter-free matrix, times any weights, is the
    # (I_k, I_{k+1}) form of the same combination of I_k and the tails:
    # reduced on its own terms, and, carried to (I_0, I_1), summed from the
    # basis table built upwards
    w = data.draw(st.lists(st.integers(-50, 50), min_size=2 * T + 1, max_size=2 * T + 1))
    low, rows0, rows1, D = kernel._basis_matrix(k, T)
    form = (low, *([sum(map(mul, cell, w)) for cell in rows] for rows in (rows0, rows1)), D)
    cols = table_columns(k, T)
    combo = [(j, p.scale(c)) for c, col in zip(w, cols) for j, p in col]
    assert kernel._laurent_pair(*form) == kernel._laurent_pair(*kernel._reduced_rows(combo, k))
    reps = basis_table(max([abs(j) for j, _ in combo] + [k + 1]))
    A, B = PolyFraction.const("t", 0), PolyFraction.const("t", 0)
    for j, p in combo:
        A, B = A + p * reps[abs(j)][0], B + p * reps[abs(j)][1]
    assert carried_to_01(form, k, reps) == (A, B)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 4), st.integers(0, 4), st.lists(_small_r, min_size=1, max_size=8),
       st.integers(-6, 6), st.integers(-6, 6))
def test_kernel_form_is_a_polynomial_pair_of_degree_at_most_T(R, S, r, n, m):
    # u = e^{-2t} (A I_k(2t) + B I_{k+1}(2t)), k = |n - m|, with A and B
    # polynomials in t of degree <= T = max(R, S) and no negative power, and
    # A(0) = 1 at k = 0 (u(n, n, 0) = 1); a hand-built copy folds its terms
    # to the same pair
    params = ParamVector(R, S, r)
    assume(tau_build(params).zeros == ())
    f = assemble_kernel(params, n, m)
    T, k = max(R, S), abs(n - m)
    low, A, B, D = f._basis
    assert low >= 0 and low + len(A) - 1 <= T, (n, m, low, len(A))
    if k == 0:
        assert low == 0 and A[0] == D, (n, m)
    hand = replace(f, terms=dict(f.terms))
    assert kernel._laurent_pair(*kernel._form(hand)) == kernel._laurent_pair(*f._basis), (n, m)


def test_a_perturbed_weight_fails_the_certificate():
    # the weighted path (weights times the basis matrix) is no tautology: one
    # weight raised by 1 leaves a residual at every site pair and offset sign
    for params in (PARAMS[(1, 0)], PARAMS[(1, 2)], PARAMS[(2, 2)],
                   ParamVector(3, 3, [F(1, 3), F(1, 7), F(2, 5), F(1, 11)])):
        for n, m in [(2, 0), (0, 0), (-1, 3), (4, -4)]:
            f = assemble_kernel(params, n, m)
            assert pde_residual(f).passed, (params, n, m)
            k, T, w, den = f._weights
            for c in range(len(w)):
                bumped = (k, T, (*w[:c], w[c] + 1, *w[c + 1:]), den)
                g = kernel._assembled(params, n, m, dict(f.provenance), bumped)
                assert not pde_residual(g).passed, (params, n, m, c)


def test_pde_certificates_build_no_term_polys(monkeypatch, capsys):
    # verify --mode pde reads each kernel's weights times the basis matrix;
    # the beta_j Polys are built only when someone reads a kernel's terms
    builds = []
    build = kernel.KernelFormula.terms.func
    counted = cached_property(lambda f: builds.append(f) or build(f))
    counted.__set_name__(kernel.KernelFormula, "terms")
    monkeypatch.setattr(kernel.KernelFormula, "terms", counted)
    # nor L: the band values come from tau and the wave numerators
    for cache in (kernel._assemble, kernel._band_at, kernel._basis_matrix, operator_build):
        cache.cache_clear()
    assert cli.main(["verify", "--mode", "pde", "--R", "2", "--S", "2",
                     "--r", "1/3,1/7,2/5,1/11", "--range", "2"]) == 0
    assert "PASS\n  pairs = 25\n  failures = 0" in capsys.readouterr().out
    assert builds == []
    assert operator_build.cache_info().misses == 0
    assert kernel._basis_matrix.cache_info().misses > 0
    f, g = (assemble_kernel(PARAMS[(2, 2)], 1, -1) for _ in range(2))
    assert f is g and f.terms == g.terms
    assert len(builds) == 1         # one build per memo entry


def test_assembled_kernel_terms_survive_a_memo_clear():
    # a kernel's terms equal the eager reference whether they are read before
    # or after the memo that built the kernel is cleared
    params = ParamVector(2, 2, [F(1, 3), F(1, 7), F(2, 5), F(1, 11)])
    for n, m in [(2, -1), (0, 0), (-1, 2)]:
        if n >= m:
            expect = reference_kernel(params, n, m)
        else:
            eager = replace(assemble_kernel(params, m, n), terms=reference_kernel(params, m, n))
            expect = symmetry_transport(params, n, m, eager).terms
        early, late = assemble_kernel(params, n, m), assemble_kernel(params, n, m)
        read_early = list(early.terms.items())
        kernel._assemble.cache_clear()
        for items in (read_early, list(late.terms.items()),
                      list(assemble_kernel(params, n, m).terms.items())):
            assert items == list(expect.items()), (n, m)


def test_degree_guard_reads_the_table_columns(monkeypatch):
    # a piece t^{2T} (I_j(2t) - I_{j+2}(2t)) in the primitive behind the (k, T)
    # table trips its guard on reading a kernel's terms, on its certificate
    # and on its evaluation, though the fold lowers it to (j + 1) t^{2T-1} I_{j+1}(2t)
    resum = kernel.tail_resum

    def corrupt(q, k):
        terms = resum(q, k)
        j, piece = next(iter(terms)), Poly.from_ints("t", [0] * 2 * T + [1])
        return {**terms, j: terms[j] + piece, j + 2: terms.get(j + 2, Poly("t")) - piece}

    params, T = PARAMS[(1, 1)], 1
    caches = (kernel._assemble, kernel._basis_matrix, kernel._grid_columns, kernel._power_sum)
    for cache in caches:
        cache.cache_clear()
    monkeypatch.setattr(kernel, "tail_resum", corrupt)
    try:
        with pytest.raises(InternalInconsistency):
            assemble_kernel(params, 2, 0).terms
        with pytest.raises(InternalInconsistency):
            pde_residual(assemble_kernel(params, 2, 0))
        with pytest.raises(InternalInconsistency):
            kernel_eval(assemble_kernel(params, 2, 0), 1.0)
    finally:
        for cache in caches:
            cache.cache_clear()


def test_terms_edited_in_place_are_certified_and_transported_as_edited():
    # a kernel built by replace has no weights: its owner's dict is certified
    # and transported as it stands at each call
    params = PARAMS[(1, 1)]
    f = replace(assemble_kernel(params, 2, 0), terms=dict(assemble_kernel(params, 2, 0).terms))
    assert pde_residual(f).passed
    j = max(f.terms)
    f.terms[j] = f.terms[j] + Poly("t", [0, F(1, 7)])
    assert not pde_residual(f).passed
    tau = tau_build(params)
    factor = tau.value(2) * tau.value(1) / (tau.value(3) * tau.value(0))
    assert symmetry_transport(params, 0, 2, f).terms[j] == f.terms[j].scale(factor)
    assert pde_residual(assemble_kernel(params, 2, 0)).passed


ROUND_TRIPS = {"copy": copy.copy, "deepcopy": copy.deepcopy,
               "pickle": lambda x: pickle.loads(pickle.dumps(x))}


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(PARAMS)), st.integers(-3, 3), st.integers(-3, 3),
       st.lists(st.builds(F, st.integers(-9, 9), st.integers(1, 9)), max_size=4))
def test_exact_values_survive_copy_and_pickle(key, n, m, cs):
    # the slotted values refuse setattr, so each is rebuilt by __reduce__; an
    # assembled kernel pickled before and after its terms are read still
    # certifies and evaluates as the memo entry does
    params = PARAMS[key]
    kernel._assemble.cache_clear()
    f = assemble_kernel(params, n, m)
    before = pickle.loads(pickle.dumps(f))
    assert "terms" not in vars(before)
    ts = (0.5, 3.0)
    values = [kernel_eval(f, t) for t in ts]
    assert pde_residual(f).passed
    after = pickle.loads(pickle.dumps(f))
    for g in (before, after):
        assert g == f and pde_residual(g).passed
        assert [kernel_eval(g, t) for t in ts] == values
    p = Poly("t", cs)
    for x in (p, PolyFraction(p, Poly("t", [1, F(1, 3), 1])), operator_build(params), tau_build(params),
              alpha_table(2), f, f.terms, f.provenance, replace(f, terms=dict(f.terms))):
        for name, trip in ROUND_TRIPS.items():
            y = trip(x)
            assert type(y) is type(x) and y == x, (name, x)
