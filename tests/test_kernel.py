import math
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import (
    PARAMS,
    bessel_i_series,
    one_step_kernel,
    two_step_gamma,
    two_step_kernel,
)
from heatkernel import kernel, taudarboux
from heatkernel.bessel import alpha_table, bessel_row
from heatkernel.exactcore import LaurentPoly, Poly, RationalFunc, series_at_zero
from heatkernel.kernel import (
    InternalInconsistency,
    ZeroNode,
    assemble_kernel,
    combo_to_basis,
    decomposition_residual,
    gamma_series,
    kernel_eval,
    node_poly,
    pde_residual,
    symmetry_transport,
    _check_degrees,
)
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
    A, B = combo_to_basis(diff)
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
    seg = series_at_zero(RationalFunc(prod.num.shift_exp(m - n), prod.den), J + 1)
    return tuple(seg.coefficient(d) for d in range(J + 1))


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


def test_gamma_series_requires_ordered_sites():
    with pytest.raises(ValueError):
        gamma_series(PARAMS[(1, 0)], 0, 2, 4)


def test_node_poly_linear_cases():
    assert node_poly(0, 1, 0, 1) == Poly("j", [0, 1])
    assert node_poly(0, 2, 0, 1) == Poly("j", [0, F(1, 2)])
    assert node_poly(3, 1, 0, 1) == Poly("j", [0, F(1, 4)])


def test_node_poly_cardinal_values():
    for (k, eps, T) in [(1, 1, 2), (0, 2, 3), (2, 1, 3)]:
        for i in range(T):
            q = node_poly(k, eps, i, T)
            assert q.degree == 2 * T - 1
            for d, c in enumerate(q.coeffs):
                if c:
                    assert d % 2 == 1          # odd in j
            for l in range(T):
                expect = F(1) if l == i else F(0)
                assert q.subs(F(k + eps + 2 * l)) == expect, (k, eps, T, i, l)


def test_node_poly_zero_node_rejected():
    with pytest.raises(ZeroNode):
        node_poly(-1, 1, 0, 1)


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


def test_degree_guard_trips_on_corrupt_formula():
    with pytest.raises(InternalInconsistency):
        _check_degrees({0: Poly("t", [0, 0, 0, 1])}, 1)


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


def basis_table(max_order):
    """(A_j, B_j) with I_j(2t) = A_j I_0(2t) + B_j I_1(2t), built upwards by
    I_{j+1}(2t) = I_{j-1}(2t) - (j/t) I_j(2t)."""
    one, zero = LaurentPoly("t", {0: 1}), LaurentPoly("t")
    reps = [(one, zero), (zero, one)]
    for j in range(1, max_order):
        inv_t = LaurentPoly("t", {-1: j})
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
    A, B = LaurentPoly("t"), LaurentPoly("t")
    for j, p in terms.items():
        lp = LaurentPoly("t", dict(enumerate(p.coeffs)))
        A, B = A + lp * reps[abs(j)][0], B + lp * reps[abs(j)][1]
    assert combo_to_basis(terms) == (A, B)


def test_combo_to_basis_recurrence():
    # t I_0(2t) - I_1(2t) - t I_2(2t) == 0
    combo = {0: LaurentPoly("t", {1: 1}), 1: LaurentPoly("t", {0: -1}),
             2: LaurentPoly("t", {1: -1})}
    A, B = combo_to_basis(combo)
    assert A.is_zero() and B.is_zero()


def test_decomposition_residual_small():
    for k in (0, 1, 2):
        for T in (1, 2):
            assert decomposition_residual(k, T, 1.0) < 1e-10


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
    assert f.provenance["J"] == 2 + 2 * 1 + 2
    g = assemble_kernel(PARAMS[(1, 1)], 0, 2)
    assert g.provenance.get("transported")


def test_memoised_kernel_cannot_be_changed_by_a_caller():
    params = PARAMS[(2, 1)]
    for (n, m) in [(2, 0), (0, 2)]:
        first = assemble_kernel(params, n, m)
        expect = dict(first.terms)
        # nested values are immutable, so only the top-level dicts are copied
        with pytest.raises(AttributeError):
            first.provenance["eps"].append(3)
        with pytest.raises(AttributeError):
            next(iter(first.terms.values())).coeffs = ()
        first.terms.clear()
        first.terms[99] = Poly("t", [1])
        first.provenance["T"] = -1
        again = assemble_kernel(params, n, m)
        assert again.terms == expect and 99 not in again.terms, (n, m)
        assert again.provenance["T"] == 2 and again.provenance["eps"] == (1, 2)
        assert pde_residual(again).passed


def test_kernel_caches_are_bounded():
    for cache in (kernel._assemble, kernel._tail, tau_build, operator_build, alpha_table,
                  taudarboux._columns, taudarboux._delta_coeffs):
        assert cache.cache_info().maxsize is not None, cache
