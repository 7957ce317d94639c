import math
import random
import sys
from fractions import Fraction as F

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from conftest import SEED, bessel_i_series
from heatkernel.bessel import (
    IDENTITIES_T_MIN,
    NonpositiveArgument,
    NotOddPolynomial,
    alpha_table,
    bessel_row,
    identity_residuals,
    tail_resum,
)
from heatkernel.exactcore import Poly


def test_scaled_value_against_series_oracle():
    row = bessel_row(2.0, 0)
    exact = float(bessel_i_series(0, F(2))) * math.exp(-2.0)
    assert abs(row.scaled(0) - exact) < 1e-14
    assert abs(row.scaled(0) - 0.3085083) < 5e-8


def test_row_against_series_many_orders():
    for t in (0.5, 1.0, 2.0, 4.0):
        row = bessel_row(t, 12)
        scale = math.exp(-t)
        for k in range(13):
            exact = float(bessel_i_series(k, F(t).limit_denominator(10**6), 40)) * scale
            assert abs(row.scaled(k) - exact) <= 1e-13 * max(exact, 1e-280), (t, k)


def test_row_monotone_in_order():
    for t in (0.5, 1.0, 2.0, 4.0):
        row = bessel_row(t, 30)
        assert all(row.scaled(k) <= row.scaled(0) for k in range(1, 31))
        start = max(0, math.floor(t)) + 1
        for k in range(start, 30):
            assert row.scaled(k) > row.scaled(k + 1)


def test_row_positive_and_bounded():
    row = bessel_row(3.0, 40)
    assert all(0.0 < v <= 1.0 for v in row.values)


def test_sum_rule_normalization():
    for t in (0.5, 1.0, 2.0, 4.0):
        row = bessel_row(t, 40)
        total = row.scaled(0) + 2.0 * sum(row.scaled(k) for k in range(1, 41))
        assert abs(total - 1.0) < 1e-14


def test_three_term_identity():
    row = bessel_row(1.0, 12)
    for k in range(1, 11):
        lhs = k * row.scaled(k)
        rhs = 0.5 * (row.scaled(k - 1) - row.scaled(k + 1))
        assert abs(lhs - rhs) < 1e-12


def _mp_scaled(k: int, x: float):
    with mpmath.workdps(40):
        return mpmath.besseli(k, x) * mpmath.exp(-mpmath.mpf(x))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.integers(0, 25), st.floats(-24, 16))
def test_row_against_mpmath_on_both_sides_of_the_hankel_threshold(K, u):
    # x >= max(40, 2(K+2)^2) starts the recurrence from Hankel's expansion,
    # below it from Miller's algorithm
    x = max(40, 2 * (K + 2) ** 2) * 2.0 ** u
    row = bessel_row(x, K)
    for k in range(K + 1):
        ref = _mp_scaled(k, x)
        assert abs(row.scaled(k) - ref) <= 16 * sys.float_info.epsilon * ref, (K, x, k)


def test_row_at_tiny_argument():
    # below 1e-20 a Miller step (2k/t) would overflow; values are (t/2)^k/k!,
    # and those below the float range round to 0
    for t in (1e-300, 1e-100, 1e-57, 1e-21, 1e-19):
        row = bessel_row(t, 3)
        for k in range(4):
            ref = _mp_scaled(k, t)
            assert abs(row.scaled(k) - ref) <= 16 * sys.float_info.epsilon * ref + math.ulp(0.0), \
                (t, k)


def test_reflection():
    row = bessel_row(2.0, 5)
    assert row.scaled(-3) == row.scaled(3)


def test_nonpositive_argument():
    with pytest.raises(NonpositiveArgument):
        bessel_row(0.0, 3)
    with pytest.raises(NonpositiveArgument):
        bessel_row(-1.0, 3)


def test_identity_residual_suite():
    # t = 10 .. 300 put e^t far above the limits, so the residuals must be
    # taken on scaled values; at the floor IDENTITIES_T_MIN they hold too
    for t in (IDENTITIES_T_MIN, 0.5, 1.0, 2.0, 4.0, 10.0, 50.0, 300.0):
        res = identity_residuals(t)
        assert res["recurrence"] < 1e-12
        assert res["derivative"] < 1e-8
        assert res["ode"] < 1e-7
        assert res["generating"] < 1e-12


def test_identity_residuals_refuse_t_below_floor():
    # below the floor the ODE finite differences miss their limit on correct
    # rows (4.6e-3 at 1e-12) or divide by an underflowed I_20 (1e-15)
    for t in (1e-15, 1e-12, 0.5 * IDENTITIES_T_MIN):
        with pytest.raises(ValueError, match="identity residuals need t"):
            identity_residuals(t)


def test_alpha_table_base_and_edges():
    tab = alpha_table(6)
    assert tab.get(0, 0) == Poly("t", [0, F(1, 2)])
    assert tab.get(1, 2) == Poly("t", [0, 0, 0, F(1, 8)])
    for n in range(7):
        edge = Poly("t", [0] * (2 * n + 1) + [F(1, 2 ** (2 * n + 1))])
        assert tab.get(n, 2 * n) == edge
        assert tab.get(n, -2 * n) == edge          # symmetry through reflection
        assert tab.get(n, 2 * n + 1).is_zero()     # support bound
        assert tab.get(n, 2 * n + 5).is_zero()
        for j in range(0, 2 * n + 1):
            assert tab.get(n, j).degree <= 2 * n + 1


def test_alpha_first_level_values():
    tab = alpha_table(1)
    assert tab.get(1, 1) == Poly("t", [0, 0, F(3, 4)])
    assert tab.get(1, 0) == Poly("t", [0, F(1, 2), 0, F(-1, 4)])


def test_resummation_identity_numeric():
    # sum_{j > k, parity} j^{2n+1} I_j(t) == sum_s alpha^n_{s-k}(t) I_s(t)
    t = 1.0
    row = bessel_row(t, 90)
    tab = alpha_table(3)
    for n in range(0, 4):
        for k in range(-3, 4):
            lhs = sum(j ** (2 * n + 1) * row.unscaled(j)
                      for j in range(k + 1, 86) if (j - k) % 2 == 1)
            rhs = sum(float(tab.get(n, s - k).subs(F(1))) * row.unscaled(s)
                      for s in range(k - 2 * n, k + 2 * n + 1))
            assert abs(lhs - rhs) < 1e-10, (n, k, lhs, rhs)


def test_tail_resum_linear_weight():
    # sum_{j > k, j = k+1 mod 2} j I_j(2t) = t I_k(2t)
    assert tail_resum(Poly("j", [0, 1]), 7) == {7: Poly("t", [0, 1])}
    assert tail_resum(Poly("j", [0, 1]), -2) == {2: Poly("t", [0, 1])}


def test_tail_resum_cubic_weight():
    terms = tail_resum(Poly("j", [0, 0, 0, 1]), 0)
    assert set(terms) <= {0, 1, 2}
    row = bessel_row(1.0, 90)            # theta = 2t at t = 1/2
    lhs = sum(j ** 3 * row.unscaled(j) for j in range(1, 86, 2))
    rhs = sum(float(p.subs(F(1, 2))) * row.unscaled(j) for j, p in terms.items())
    assert abs(lhs - rhs) < 1e-11


# weights c1 j + c3 j^3 + c5 j^5 + c7 j^7
_odd_weight = st.lists(st.builds(F, st.integers(-9, 9), st.integers(1, 5)),
                       min_size=4, max_size=4).map(
    lambda cs: Poly("j", [c for odd in cs for c in (0, odd)]))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_odd_weight, st.integers(-4, 6), st.sampled_from([0.25, 1.0, 3.0]))
def test_tail_resum_matches_the_direct_tail(q, k, t):
    # the finite combination at 2t against the tail summed order by order
    row = bessel_row(2.0 * t, 200)
    direct = [float(q.subs(F(j))) * row.scaled(j) for j in range(k + 1, 201, 2)]
    resummed = [float(p.subs(F(t))) * row.scaled(j) for j, p in tail_resum(q, k).items()]
    scale = math.fsum(abs(v) for v in direct + resummed)
    assert abs(math.fsum(direct) - math.fsum(resummed)) <= 1e-12 * scale, (q, k, t)


def test_tail_resum_support_bound():
    rng = random.Random(SEED)
    for _ in range(20):
        N = rng.randint(0, 3)
        coeffs = [F(0)] * (2 * N + 2)
        coeffs[2 * N + 1] = F(rng.randint(1, 5))
        for d in range(1, 2 * N + 1, 2):
            coeffs[d] = F(rng.randint(-5, 5))
        k = rng.randint(-4, 6)
        terms = tail_resum(Poly("j", coeffs), k)
        assert all(k - 2 * N <= j <= k + 2 * N or -(k - 2 * N) >= j
                   for j in terms)
        assert all(abs(j) <= abs(k) + 2 * N for j in terms)
        assert all(p.degree <= 2 * N + 1 for p in terms.values())


def test_tail_resum_rejects_even_weight():
    with pytest.raises(NotOddPolynomial):
        tail_resum(Poly("j", [0, 1, 1]), 0)
    with pytest.raises(NotOddPolynomial):
        tail_resum(Poly("j", [1]), 0)


def test_generating_function_partial_sums():
    # sum_{|k| <= K} I_k(t) x^k tracks e^{t(x+1/x)/2} on the unit circle
    for t in (1.0, 4.0):
        row = bessel_row(t, 40)
        for a in range(8):
            theta = math.pi * (2 * a + 1) / 16.0
            x = complex(math.cos(theta), math.sin(theta))
            acc = complex(row.scaled(0))
            for k in range(1, 41):
                acc += row.scaled(k) * (x ** k + x ** (-k))
            target = complex(math.e) ** (t * (x + 1 / x) / 2.0 - t)
            assert abs(acc - target) < 1e-12
