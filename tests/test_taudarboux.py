import random
from fractions import Fraction as F
from math import comb, factorial, gcd, prod

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import PARAMS, SEED, two_step_tau, two_step_wave
from heatkernel.exactcore import (
    LaurentPoly,
    Poly,
    PolyFraction,
    RationalFunc,
    eval_int,
    integer_roots,
)
from heatkernel import taudarboux
from heatkernel.taudarboux import (
    BandOperator,
    ParamVector,
    SingularTau,
    darboux_one_step,
    ensure_regular,
    factorization_target,
    free_operator,
    operator_build,
    qp_build,
    schur_component,
    tau_build,
    wave_p,
    wave_p_star,
    wave_p_star_via_adjoint,
)

def test_param_vector_padding_and_validation():
    pv = ParamVector(1, 1, [F(1, 4)])
    assert pv.M == 4 and pv.r[1] == 0
    pv2 = ParamVector.from_alpha_beta(1, 1, F(1, 4), 1)
    assert pv2.r[0] == F(1, 4) and pv2.r[1] == F(-1, 4)
    fresh = ParamVector(1, 0, [F(13, 37)])
    assert ensure_regular(fresh) is tau_build(fresh)
    far = ParamVector(1, 0, [600])
    with pytest.raises(SingularTau) as err:
        ensure_regular(far)
    assert err.value.site == -600 and tau_build(far).zeros == (-600,)


def test_schur_component_constant():
    assert schur_component(1, 0, PARAMS[(1, 1)]) == Poly("n") + 1


def test_schur_component_linear():
    # S^1_1(n; r) = n + r_1
    pv = PARAMS[(1, 1)]
    assert schur_component(1, 1, pv) == Poly("n", [pv.r[0], 1])


def test_schur_component_character_branch():
    # polynomial part -n + r1 + sum_{i>=2} (-2)^{i-1} i r_i
    pv = ParamVector(1, 1, [F(1, 4), F(-1, 4), F(1, 8)])
    beta = -4 * pv.r[1] + 12 * pv.r[2]
    assert schur_component(-1, 1, pv) == Poly("n", [pv.r[0] + beta, -1])


def test_schur_against_shifted_elementary_schur():
    # S^1_j(n; r) = S_j(r_1 + n, r_2 - n/2, r_3 + n/3, ...)
    pv = ParamVector(2, 0, [F(1, 3), F(1, 5), F(2, 7), F(1, 2)])
    rng = random.Random(SEED)
    for j in range(5):
        s = schur_component(1, j, pv)
        for _ in range(4):
            n = F(rng.randint(-8, 8))
            shifted = [pv.r[0] + n, pv.r[1] - n / 2, pv.r[2] + n / 3, pv.r[3] - n / 4]
            # elementary Schur recurrence: l E_l = sum_a a y_a E_{l-a}
            E = [F(1)]
            for l in range(1, j + 1):
                acc = F(0)
                for a in range(1, min(l, 4) + 1):
                    acc += a * shifted[a - 1] * E[l - a]
                E.append(acc / l)
            assert s.subs(n) == E[j], (j, n)


def test_tau_r1_derivative_matches_interpolation_in_r1():
    # tau(n) is a polynomial in r_1 of degree <= R^2 + S^2; rebuild it from
    # tau_build at other rational r_1 values and differentiate at r_1
    for key in [(1, 0), (0, 1), (1, 1), (2, 1), (2, 2)]:
        params = PARAMS[key]
        rest = params.r[1:]
        deg = params.R ** 2 + params.S ** 2
        r1s = [params.r[0] + F(k, 3) for k in range(-(deg // 2), deg - deg // 2 + 1)]
        taus = [tau_build(ParamVector(params.R, params.S, (r1, *rest))) for r1 in r1s]
        dtau = tau_build(params).dpolyn
        for n in range(-3, 4):
            # Lagrange interpolant of tau(n) in r_1, differentiated at r_1
            in_r1 = Poly("r")
            for a, (xa, t) in enumerate(zip(r1s, taus)):
                basis = Poly.const("r", t.value(n))
                for b, xb in enumerate(r1s):
                    if b != a:
                        basis = basis * Poly("r", [-xb, 1]).scale(1 / (xa - xb))
                in_r1 = in_r1 + basis
            assert dtau.subs(F(n)) == in_r1.derivative().subs(params.r[0]), (key, n)


def test_tau_trivial_and_one_step():
    assert tau_build(PARAMS[(0, 0)]).polyn == Poly("n", [1])
    t = tau_build(ParamVector(1, 0, [F(1, 2)]))
    assert t.polyn == Poly("n", [F(1, 2), 1])


def test_tau_two_step_determinant():
    a, b = F(1, 4), F(1)
    t = tau_build(ParamVector.from_alpha_beta(1, 1, a, b))
    hand = Poly("n", [a, 1]) * Poly("n", [1 - 2 * (a + b), 2]) - Poly("n", [a + b, -1])
    assert t.polyn == hand
    for n in range(-4, 5):
        assert t.value(n) == two_step_tau(a, b, n)


def test_tau_degenerate_parameters_flagged():
    t = tau_build(ParamVector.from_alpha_beta(1, 1, 0, 0))
    assert t.polyn == Poly("n", [0, 2, 2])        # 2n(n+1)
    with pytest.raises(SingularTau) as err:
        ensure_regular(ParamVector.from_alpha_beta(1, 1, 0, 0))
    assert err.value.site in (-1, 0)


def _root_bound(ints: list[int]) -> int:
    """2 max_i ceil(|a_{d-i} / a_d|^{1/i}) >= |z| for every complex zero z:
    a bound independent of the Cauchy bound that integer_roots uses."""
    d, lead = len(ints) - 1, abs(ints[-1])
    best = 0
    for i in range(1, d + 1):
        x = 0
        while x ** i * lead < abs(ints[d - i]):
            x += 1
        best = max(best, x)
    return 2 * best


_small_r = st.one_of(st.integers(-4, 4).map(F), st.builds(F, st.integers(-9, 9), st.integers(2, 5)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(0, 2), st.integers(0, 2), st.lists(_small_r, min_size=1, max_size=4))
def test_ensure_regular_matches_scan(R, S, r):
    params = ParamVector(R, S, r)
    tau = tau_build(params)
    ints = tau.polyn.num
    bound = _root_bound(ints)
    zeros = [n for n in range(-bound, bound + 1) if eval_int(ints, n) == 0]
    assert tau.zeros == tuple(zeros)
    if zeros:
        with pytest.raises(SingularTau) as err:
            ensure_regular(params)
        assert err.value.site == zeros[0]
    else:
        assert ensure_regular(params) is tau


def test_tau_degree_matches_interpolation():
    # tau is a true polynomial: values at consecutive integers determine it
    for key in [(1, 1), (2, 1), (2, 2)]:
        tau = tau_build(PARAMS[key])
        deg = tau.degree
        pts = [(F(i), tau.value(i)) for i in range(deg + 1)]
        # Newton forward differences reproduce the polynomial exactly
        diffs = [v for _, v in pts]
        coeffs = [diffs[0]]
        for level in range(1, deg + 1):
            diffs = [diffs[i + 1] - diffs[i] for i in range(len(diffs) - 1)]
            coeffs.append(diffs[0])
        binom = Poly.const("n", 1)
        rebuilt = Poly("n", [coeffs[0]])
        for level in range(1, deg + 1):
            binom = binom * Poly("n", [-(level - 1), 1])
            fact = 1
            for i in range(2, level + 1):
                fact *= i
            rebuilt = rebuilt + binom.scale(coeffs[level] / fact)
        assert rebuilt == tau.polyn, key


def test_operator_free():
    assert operator_build(PARAMS[(0, 0)]) == free_operator()


def test_operator_one_step_values():
    L = operator_build(ParamVector(1, 0, [F(1, 2)]))
    assert L.coeff_at(0, 0) == F(-10, 3)
    assert L.coeff_at(1, 7) == 1
    assert L.coeff_at(-1, 1) == F(5, 9)


def test_operator_against_intertwining_oracle():
    # rebuild the tridiagonal coefficients from Q alone via L Q = Q L0,
    # then require the full identity; no log-derivative of tau involved
    for key in [(1, 0), (0, 1), (1, 1), (2, 1), (2, 2)]:
        params = PARAMS[key]
        Q, _ = qp_build(params)
        L = operator_build(params)
        K = params.order
        q = {i: Q.coeff(i) for i in range(K + 1)}
        a = -2 + q[K - 1] - q[K - 1].shift(1)
        qm2 = q.get(K - 2, PolyFraction.const("n", 0))
        b = qm2 - 2 * q[K - 1] + 1 - qm2.shift(1) - a * q[K - 1]
        assert L.coeff(0) == a, key
        assert L.coeff(-1) == b, key
        assert L * Q == Q * free_operator(), key
        for n in range(-10, 11):
            assert L.coeff_at(0, n) == a.subs(F(n)), key


def test_operator_singular_parameters():
    with pytest.raises(SingularTau):
        operator_build(ParamVector(1, 0, [F(3)]))


def test_qp_trivial():
    Q, P = qp_build(PARAMS[(0, 0)])
    assert Q == BandOperator.identity() and P == BandOperator.identity()


def test_qp_factorization_one_step_symbolic():
    Q, P = qp_build(ParamVector(1, 0, [F(1, 2)]))
    assert P * Q == factorization_target(1, 0)


def test_qp_factorization_generic():
    for key in [(0, 1), (1, 1), (2, 0), (0, 2), (1, 2), (2, 1), (2, 2)]:
        params = PARAMS[key]
        Q, P = qp_build(params)
        assert P * Q == factorization_target(params.R, params.S), key


def test_adjoint_involution_and_reversal():
    rng = random.Random(SEED + 4)

    def rand_op():
        coeffs = {}
        for _ in range(3):
            num = Poly("n", [F(rng.randint(-5, 5)) for _ in range(3)])
            den = Poly("n", [F(rng.randint(1, 5)), F(rng.randint(1, 3))])
            coeffs[rng.randint(-2, 2)] = PolyFraction(num, den)
        return BandOperator(coeffs)

    for _ in range(15):
        X, Y = rand_op(), rand_op()
        assert X.adjoint().adjoint() == X
        assert (X * Y).adjoint() == Y.adjoint() * X.adjoint()


def test_band_operator_support_and_json():
    L = operator_build(ParamVector(1, 0, [F(1, 2)]))
    assert L.support == (-1, 1)
    blob = L.to_json()
    assert blob["support"] == [-1, 1]
    shifts = [entry["shift"] for entry in blob["coeffs"]]
    assert shifts == [-1, 0, 1]
    one = [entry for entry in blob["coeffs"] if entry["shift"] == 1][0]
    assert one["num"] == ["1"] and one["den"] == ["1"]


def test_wave_free():
    assert wave_p(PARAMS[(0, 0)], 3) == RationalFunc.from_laurent(LaurentPoly.term(3))
    assert wave_p(PARAMS[(0, 0)], -2) == RationalFunc.from_laurent(LaurentPoly.term(-2))


def test_wave_two_step_matches_determinant_form():
    a, b = F(1, 4), F(1)
    params = ParamVector.from_alpha_beta(1, 1, a, b)
    for n in (-2, 0, 1, 3):
        assert wave_p(params, n) == two_step_wave(a, b, n)


def test_wave_leading_behavior_at_infinity():
    # p_n(x) = x^n (1 + O(1/x)): the numerator leads the denominator by
    # exactly n with matching top coefficients
    for key in [(1, 0), (1, 1), (2, 1), (2, 2)]:
        params = PARAMS[key]
        for n in (-3, 0, 4):
            p = wave_p(params, n)
            assert p.num.max_exp - p.den.max_exp == n, (key, n)
            assert p.num.coeff(p.num.max_exp) == p.den.coeff(p.den.max_exp), (key, n)


def test_values_are_immutable():
    tau = tau_build(PARAMS[(1, 1)])
    with pytest.raises(AttributeError):
        tau.polyn = Poly("n")
    L = operator_build(PARAMS[(1, 1)])
    with pytest.raises(AttributeError):
        L.coeffs = {}
    p = wave_p(PARAMS[(1, 1)], 0)
    with pytest.raises(AttributeError):
        p.num = LaurentPoly("x")


def test_wave_eigen_relation():
    lam = RationalFunc(LaurentPoly("x", {1: 1, 0: -2, -1: 1}), LaurentPoly.const(1))
    for key in [(1, 0), (0, 1), (1, 1), (2, 1)]:
        params = PARAMS[key]
        L = operator_build(params)
        for n in (-3, 0, 2):
            lhs = RationalFunc(LaurentPoly("x"), LaurentPoly.const(1))
            for j in (-1, 0, 1):
                c = L.coeff_at(j, n)
                if c:
                    lhs = lhs + wave_p(params, n + j) * c
            assert lhs == lam * wave_p(params, n), (key, n)


def test_wave_denominator_structure():
    # p_n(x) (x-1)^R (x+1)^S clears every pole away from 0 and infinity
    params = PARAMS[(2, 1)]
    p = wave_p(params, 2)
    cleared = p * RationalFunc.from_laurent(
        (LaurentPoly("x", {1: 1, 0: -1}) ** 2) * LaurentPoly("x", {1: 1, 0: 1}))
    assert cleared.den.max_exp == cleared.den.min_exp == 0


def test_wave_p_star_free():
    assert wave_p_star(PARAMS[(0, 0)], 4) == \
        RationalFunc.from_laurent(LaurentPoly.term(-4))


def test_duality_between_routes():
    # p_n(1/x) tau(n) = tau(n+1) x p*_{n+1}(x), with p* from the starred ratio
    for key in [(1, 0), (0, 1), (1, 1), (2, 1)]:
        params = PARAMS[key]
        tau = tau_build(params)
        for n in (-2, 0, 2):
            lhs = wave_p(params, n).inverse_var() * tau.value(n)
            ps = wave_p_star_via_adjoint(params, n + 1)
            rhs = RationalFunc(ps.num.shift_exp(1), ps.den) * tau.value(n + 1)
            assert lhs == rhs, (key, n)


def test_wave_p_star_equals_adjoint_route():
    for key in [(1, 0), (1, 1), (2, 1)]:
        params = PARAMS[key]
        for n in (-1, 2):
            assert wave_p_star(params, n) == \
                wave_p_star_via_adjoint(params, n), (key, n)


def test_darboux_one_step_values():
    D = darboux_one_step(F(1, 2))
    assert D.coeff_at(-1, 1) == F(5, 9)       # tau_2 tau_0 / tau_1^2
    assert D.coeff(1) == PolyFraction.const("n", 1)


def test_darboux_one_step_agrees_with_tau_route():
    for delta in (F(1, 2), F(3, 2), F(-5, 2), F(1, 3)):
        D = darboux_one_step(delta)
        L = operator_build(ParamVector(1, 0, [delta]))
        assert D == L
        for n in range(-10, 11):
            assert D.coeff_at(0, n) == L.coeff_at(0, n)


def test_darboux_one_step_integer_delta_rejected():
    with pytest.raises(SingularTau):
        darboux_one_step(F(2))


def test_param_vector_hash_matches_equality():
    padded = ParamVector(1, 1, [F(1, 4), F(-1, 4), 0, 0])
    alpha_beta = ParamVector.from_alpha_beta(1, 1, F(1, 4), 1)
    strings = ParamVector(1, 1, ["1/4", "-1/4"])
    assert padded == alpha_beta == strings
    assert hash(padded) == hash(alpha_beta) == hash(strings)
    assert ParamVector(1, 1, [F(1, 4), F(-1, 4), 0, 0, 0]) != padded
    before = tau_build.cache_info()
    tau = tau_build(padded)
    assert tau_build(alpha_beta) is tau and tau_build(strings) is tau
    after = tau_build.cache_info()
    assert after.hits - before.hits >= 2 and after.misses - before.misses <= 1


# Reference for the integer Wronskian layer, over Fractions: Schur components
# from the exponential series, per-site Wronskians, Gaussian elimination and
# Newton's divided differences.  The integer layer must agree with it exactly.

def _ref_schur_component(epsilon, j, params):
    r = params.r
    if epsilon == 1:
        gs = [None, *r]
    else:
        gs = [None] + [sum(comb(i, a) * (-2) ** (i - a) * r[i - 1] for i in range(a, len(r) + 1))
                       for a in range(1, len(r) + 1)]
    E = [F(1)]
    for l in range(1, j + 1):
        E.append(sum((a * gs[a] * E[l - a] for a in range(1, min(l, len(gs) - 1) + 1)),
                     F(0)) / l)
    total = Poly("n")
    for k in range(j + 1):
        binom = Poly.const("n", 1)
        for i in range(k):
            binom = binom * Poly("n", [-i, 1])
        total = total + binom.scale(F(epsilon ** k, factorial(k)) * E[j - k])
    return total


def _ref_columns(params):
    out = []
    for eps, count in ((1, params.R), (-1, params.S)):
        for j in range(1, count + 1):
            f = _ref_schur_component(eps, 2 * j - 1, params).shift(j - 1)
            df = _ref_schur_component(eps, 2 * j - 2, params).shift(j - 1)
            g = gcd(f.den, df.den)
            out.append((eps == -1, tuple(c * (df.den // g) for c in f.num),
                        tuple(c * (f.den // g) for c in df.num), f.den // g * df.den))
    return tuple(out)


def _ref_wronskian(columns, K, n, starred=False, deriv=False):
    sites = [n + K - l if starred else n + l for l in range(K + 1)]
    out = []
    for tilde, f, df, _ in columns:
        vals = [eval_int(df if deriv else f, x) for x in sites]
        entries = []
        for _ in range(K + 1):
            entries.append(vals[0])
            vals = [-(b + a) if tilde else b - a for a, b in zip(vals, vals[1:])]
        out.append(entries)
    return out


def _ref_solve(a, b):
    size = len(a)
    m = [[F(v) for v in row] + [F(rhs)] for row, rhs in zip(a, b)]
    det = F(1)
    for col in range(size):
        piv = next((r for r in range(col, size) if m[r][col]), None)
        if piv is None:
            return None
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        head = m[col]
        det *= head[col]
        for row in m[col + 1:]:
            if row[col]:
                f = row[col] / head[col]
                for k in range(col + 1, size + 1):
                    row[k] -= f * head[k]
    x = [F(0)] * size
    for r in reversed(range(size)):
        row = m[r]
        x[r] = (row[size] - sum(row[j] * x[j] for j in range(r + 1, size))) / row[r]
    return det, x


def _ref_site_solve(columns, K, n, starred):
    cols = _ref_wronskian(columns, K, n, starred)
    solved = _ref_solve([c[:K] for c in cols], [-c[K] for c in cols])
    return None if solved is None else (solved[0], (*solved[1], F(1)))


def _ref_interpolate(xs, ys):
    coef = list(ys)
    for level in range(1, len(xs)):
        for k in range(len(xs) - 1, level - 1, -1):
            coef[k] = (coef[k] - coef[k - 1]) / (xs[k] - xs[k - level])
    out = Poly("n")
    for k in reversed(range(len(xs))):
        out = out * Poly("n", [-xs[k], 1]) + coef[k]
    return out


def _ref_tau(columns, K, bound):
    scale = prod(s for *_, s in columns)
    sites, values = [], []
    for n in range(2 * bound + 1):
        vals = taudarboux._dual_det([c[:K] for c in _ref_wronskian(columns, K, n)],
                                    [d[:K] for d in _ref_wronskian(columns, K, n, deriv=True)])
        if vals is not None:
            sites.append(n)
            values.append((F(vals[0], scale), F(vals[1], scale)))
            if len(sites) > bound:
                return (_ref_interpolate(sites, [v for v, _ in values]),
                        _ref_interpolate(sites, [d for _, d in values]))
    raise SingularTau(0, "tau is identically zero")


def test_reference_interpolation_is_newton_forward():
    # the reference interpolant matches the integer one on shifted runs
    nums = [5, -3, 0, 11, 2]
    for first in (-4, 0, 3):
        xs = list(range(first, first + 5))
        assert _ref_interpolate(xs, [F(v, 6) for v in nums]) == \
            taudarboux._interpolate(first, nums, 6), first


_integer_r = st.lists(st.integers(-4, 4).map(F), min_size=1, max_size=6)
_rational_r = st.lists(_small_r, min_size=1, max_size=6)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(0, 3), st.integers(0, 3),
       st.one_of(_rational_r, _rational_r, _rational_r, _integer_r))
def test_integer_wronskian_layer_matches_fraction_reference(R, S, r):
    # about a quarter of the draws take integer parameters only, which often
    # put zeros of tau (and singular site solves) on the lattice
    params = ParamVector(R, S, r)
    for eps in (1, -1):
        for j in range(4):
            assert schur_component(eps, j, params) == _ref_schur_component(eps, j, params)
    columns = _ref_columns(params)
    assert taudarboux._columns(params) == columns
    K, bound = params.order, taudarboux._degree_bound(params)
    polyn, dpolyn = _ref_tau(columns, K, bound)
    tau = tau_build(params)
    assert tau.polyn == polyn and tau.dpolyn == dpolyn
    assert tau.zeros == tuple(integer_roots(polyn.num))
    for n in range(-6, 7):
        for starred in (False, True):
            assert taudarboux._site_solve(params, n, starred) == \
                _ref_site_solve(columns, K, n, starred), (n, starred)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(st.integers(0, 2), st.integers(0, 2), st.lists(_small_r, min_size=1, max_size=4),
       st.integers(-4, 4))
def test_wave_properties_at_random_admissible_draws(R, S, r, n):
    # sum_j L_j(n) p_{n+j} = (x - 2 + 1/x) p_n, and both routes to p*_n agree
    params = ParamVector(R, S, r)
    assume(tau_build(params).zeros == ())
    L = operator_build(params)
    lhs = RationalFunc(LaurentPoly("x"), LaurentPoly.const(1))
    for j in (-1, 0, 1):
        lhs = lhs + wave_p(params, n + j) * L.coeff_at(j, n)
    lam = RationalFunc(LaurentPoly("x", {1: 1, 0: -2, -1: 1}), LaurentPoly.const(1))
    assert lhs == lam * wave_p(params, n)
    assert wave_p_star(params, n) == wave_p_star_via_adjoint(params, n)
