import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from conftest import SEED, solve_exact, two_step_gamma, two_step_tau, two_step_wave
from heatkernel import exactcore
from heatkernel.exactcore import (
    DivisionByZeroPolynomial,
    LaurentPoly,
    OutOfRange,
    Poly,
    PolyFraction,
    RationalFunc,
    SeriesSegment,
    VariableMismatch,
    ZERO_DEGREE,
    ZeroDenominator,
    coefficient,
    poly_gcd,
    poly_gcd_euclid,
    rat,
    rat_str,
    series_at_zero,
)


def test_rational_string_round_trip():
    assert rat("3/4") == F(3, 4)
    assert rat("-7") == F(-7)
    assert rat_str(F(3, 4)) == "3/4"
    assert rat_str(F(5)) == "5"
    with pytest.raises(ValueError):
        rat("0.5")


def test_zero_polynomial_degree_sentinel():
    assert Poly("t").degree == ZERO_DEGREE
    assert Poly("t", [0, 0]).degree == ZERO_DEGREE
    assert Poly("t", [1]).degree == 0


def test_derivative_of_half_t():
    assert Poly("t", [0, F(1, 2)]).derivative() == Poly("t", [F(1, 2)])


def test_divrem():
    q, r = divmod(Poly("w", [-1, 0, 1]), Poly("w", [-1, 1]))
    assert q == Poly("w", [1, 1]) and r.is_zero()
    q, r = divmod(Poly("w", [1, 1, 1]), Poly("w", [0, 1]))
    assert q == Poly("w", [1, 1]) and r == Poly("w", [1])
    with pytest.raises(DivisionByZeroPolynomial):
        divmod(Poly("w", [1]), Poly("w"))


def test_variable_mismatch():
    with pytest.raises(VariableMismatch):
        Poly("t", [1]) + Poly("w", [1])
    with pytest.raises(VariableMismatch):
        LaurentPoly("x", {0: 1}) + LaurentPoly("t", {0: 1})


def test_substitute_half_sum_into_chebyshev():
    # U_2(w) at w = (x + 1/x)/2 collapses to x^2 + 1 + x^-2
    U2 = Poly("w", [-1, 0, 4])
    wx = LaurentPoly("x", {1: F(1, 2), -1: F(1, 2)})
    assert U2.subs(wx) == LaurentPoly("x", {2: 1, 0: 1, -2: 1})
    rng = random.Random(SEED)
    for _ in range(5):
        x = F(rng.randint(1, 40), rng.randint(41, 90))
        w = (x + 1 / x) / 2
        assert U2.subs(w) == x ** 2 + 1 + x ** -2


def test_random_ring_identities_exact():
    rng = random.Random(SEED)

    def rand_poly():
        return Poly("t", [F(rng.randint(-9, 9), rng.randint(1, 9))
                          for _ in range(rng.randint(0, 6))])

    for _ in range(60):
        a, b, c = rand_poly(), rand_poly(), rand_poly()
        assert (a + b) * c == a * c + b * c
        assert a * (b * c) == (a * b) * c
        assert a + b == b + a
        if not c.is_zero():
            q, r = divmod(a * c + b, c)
            assert q * c + r == a * c + b
            assert r.degree < c.degree


def test_poly_shift_and_eval():
    p = Poly("n", [1, 2, 3])
    assert p.shift(2).subs(F(0)) == p.subs(F(2))
    assert p.shift(F(-1, 2)).subs(F(1, 2)) == p.subs(F(0))


def test_poly_gcd():
    a = Poly("w", [-1, 0, 1])           # (w-1)(w+1)
    b = Poly("w", [-1, 1]) * Poly("w", [2, 1])
    assert poly_gcd(a, b) == Poly("w", [-1, 1])


_coeff = st.builds(F, st.integers(-40, 40), st.integers(1, 12))
_poly = st.lists(_coeff, max_size=6).map(lambda cs: Poly("w", cs))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_poly, _poly, _poly, _coeff, _coeff)
def test_poly_gcd_matches_euclidean_reference(common, u, v, ca, cb):
    # a planted common factor under rational content; zero and constant
    # inputs come from the empty and one-term draws
    a, b = (common * u).scale(ca), (common * v).scale(cb)
    g = poly_gcd(a, b)
    assert g == poly_gcd_euclid(a, b)
    if not g.is_zero():
        assert g.leading == 1
        assert (a % g).is_zero() and (b % g).is_zero()


def test_poly_gcd_fallback_path(monkeypatch):
    cases = [(Poly("w", [-1, 0, 1]), Poly("w", [-1, 1]) * Poly("w", [2, 1])),
             (Poly("w", [F(1, 3), F(2, 5), 7]) * Poly("w", [1, 1]),
              Poly("w", [F(-4, 9), 0, 1]) * Poly("w", [1, 1]) ** 2)]
    expected = [poly_gcd(a, b) for a, b in cases]
    monkeypatch.setattr(exactcore, "_gcd_heuristic", lambda a, b: None)
    for (a, b), want in zip(cases, expected):
        assert poly_gcd(a, b) == want == poly_gcd_euclid(a, b)


def test_geometric_series():
    f = RationalFunc(LaurentPoly.const(1), LaurentPoly("x", {0: 1, 1: -1}))
    seg = series_at_zero(f, 3)
    assert seg.first == 0
    assert seg.coeffs == (F(1), F(1), F(1))


def test_series_with_laurent_prefactor():
    f = RationalFunc(LaurentPoly.term(3), LaurentPoly("x", {2: 1, 0: -1}))
    seg = series_at_zero(f, 2)
    assert seg.first == 3
    assert seg.coeffs == (F(-1), F(0))


def test_series_of_wave_product_against_sampled_reconstruction():
    # Reconstruct p_1(x) p_0(1/x) for the double-step example from exact
    # point samples of the determinant transcription, then expand; the
    # leading coefficients must match the published series values.
    alpha, beta = F(1, 4), F(1)
    p1 = two_step_wave(alpha, beta, 1)
    p0_inv = two_step_wave(alpha, beta, 0).inverse_var()
    samples = []
    points = [F(num, 101) for num in range(1, 51)]  # 50 points in (0, 1/2)
    for x in points:
        samples.append((x, p1.subs(x) * p0_inv.subs(x)))
    # model: f = (sum_{e=0}^{6} a_e x^e) / (x^2 - 1)^2
    den = LaurentPoly("x", {4: 1, 2: -2, 0: 1})
    rows = [[x ** e for e in range(7)] for x, _ in samples[:7]]
    rhs = [value * den.subs(x) for x, value in samples[:7]]
    coeffs = solve_exact(rows, rhs)
    num = LaurentPoly("x", dict(enumerate(coeffs)))
    fitted = RationalFunc(num, den)
    for x, value in samples[7:]:
        assert fitted.subs(x) == value
    seg = series_at_zero(fitted, 4)
    assert seg.first == 1
    assert seg.coefficient(1) == two_step_tau(alpha, beta, 2) / two_step_tau(alpha, beta, 1)
    assert seg.coefficient(2) == two_step_gamma(alpha, beta, 1, 0, 1)
    assert seg.coefficient(3) == two_step_gamma(alpha, beta, 1, 0, 2)


def test_coefficient_access():
    f = LaurentPoly("x", {-1: 1, 0: 2})
    assert coefficient(f, -1) == 1
    assert coefficient(f, 5) == 0
    g = (LaurentPoly("x", {0: 1, 1: 1})) ** 2
    assert coefficient(g, 1) == 2
    seg = series_at_zero(
        RationalFunc(LaurentPoly.const(1), LaurentPoly("x", {1: 1, 2: -1})), 5)
    assert coefficient(seg, -1) == 1          # residue of a simple pole
    assert coefficient(seg, -3) == 0          # certified zero below the order
    with pytest.raises(OutOfRange):
        coefficient(seg, 10)


def test_round_trip_laurent_series():
    f = LaurentPoly("x", {-2: F(3), 0: F(-1, 2), 5: F(7, 3)})
    seg = series_at_zero(RationalFunc.from_laurent(f), 9)
    for k in range(-2, 6):
        assert seg.coefficient(k) == f.coeff(k)


def test_residue_linearity():
    rng = random.Random(SEED + 1)
    for _ in range(20):
        f = LaurentPoly("x", {rng.randint(-4, 4): F(rng.randint(-5, 5)) for _ in range(4)})
        g = LaurentPoly("x", {rng.randint(-4, 4): F(rng.randint(-5, 5)) for _ in range(4)})
        assert coefficient(f + g, -1) == coefficient(f, -1) + coefficient(g, -1)


def test_rational_func_normalization():
    # common x, (x-1), (x+1) factors are cancelled
    num = LaurentPoly("x", {1: 1, 2: -1})          # x(1 - x)
    den = LaurentPoly("x", {0: -1, 1: 1})          # x - 1
    assert RationalFunc(num, den) == RationalFunc.from_laurent(LaurentPoly.term(1, -1))
    f = RationalFunc(LaurentPoly("x", {0: 1, 1: 2, 2: 1}),   # (x+1)^2
                     LaurentPoly("x", {0: 1, 1: 1}))         # x + 1
    assert f == RationalFunc.from_laurent(LaurentPoly("x", {0: 1, 1: 1}))


def test_zero_denominator():
    with pytest.raises(ZeroDenominator):
        RationalFunc(LaurentPoly.const(1), LaurentPoly("x"))
    with pytest.raises(ZeroDenominator):
        PolyFraction(Poly("n", [1]), Poly("n"))


def test_rational_func_arithmetic():
    one_minus = LaurentPoly("x", {0: 1, 1: -1})
    f = RationalFunc(LaurentPoly.const(1), one_minus)
    g = RationalFunc(LaurentPoly.term(1), one_minus)
    assert f + g == RationalFunc(LaurentPoly("x", {0: 1, 1: 1}), one_minus)
    assert (f - f).is_zero()
    assert f * g == RationalFunc(LaurentPoly.term(1), one_minus * one_minus)
    assert f / f == 1
    h = f.inverse_var()
    assert h == RationalFunc(LaurentPoly.term(1), LaurentPoly("x", {1: 1, 0: -1}))


def test_poly_fraction_basics():
    pf = PolyFraction(Poly("n", [0, 1]), Poly("n", [1, 1]))
    assert pf.shift(1) == PolyFraction(Poly("n", [1, 1]), Poly("n", [2, 1]))
    assert pf(F(1)) == F(1, 2)
    with pytest.raises(ZeroDenominator):
        pf(F(-1))
    prod = pf * PolyFraction(Poly("n", [1, 1]), Poly("n", [0, 1]))
    assert prod == 1
    assert (pf - pf).is_zero()


def test_series_segment_equality():
    assert SeriesSegment(0, [1, 2]) == SeriesSegment(0, [F(1), F(2)])
