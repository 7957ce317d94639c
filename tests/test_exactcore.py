import math
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
    eval_int,
    integer_roots,
    poly_gcd,
    poly_gcd_euclid,
    rat,
    series_at_zero,
)


def test_rational_string_round_trip():
    assert rat("3/4") == F(3, 4)
    assert rat("-7") == F(-7)
    assert str(rat("3/4")) == "3/4"
    assert str(rat("5")) == "5"
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


def _trim(cs):
    cs = list(cs)
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def _ref_mul(a, b):
    out = [F(0)] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim(out)


def _ref_divmod(a, b):
    rem, quot = list(a), [F(0)] * max(len(a) - len(b) + 1, 0)
    for i in reversed(range(len(quot))):
        quot[i] = rem[i + len(b) - 1] / b[-1]
        for j, y in enumerate(b):
            rem[i + j] -= quot[i] * y
    return _trim(quot), _trim(rem)


def _assert_canonical(p):
    assert all(type(c) is int for c in p.num) and type(p.den) is int
    assert p.den > 0 and math.gcd(p.den, *p.num) == 1
    assert not p.num or p.num[-1] != 0
    assert type(p.coeffs) is tuple and all(type(c) is F for c in p.coeffs)


_ref_poly = st.lists(_coeff, max_size=5).map(_trim)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_ref_poly, _ref_poly, _coeff, st.integers(0, 3))
def test_poly_matches_fraction_reference(a, b, c, k):
    # integer-numerator Poly against plain Fraction lists; the empty and
    # one-term draws give the zero polynomial and constants
    pa, pb = Poly("t", a), Poly("t", b)
    pad = max(len(a), len(b))
    a0, b0 = [*a, *[F(0)] * (pad - len(a))], [*b, *[F(0)] * (pad - len(b))]
    power = (F(1),)
    for _ in range(k):
        power = _ref_mul(power, a)
    shifted = [F(0)] * len(a)
    for d, x in enumerate(a):
        for l in range(d + 1):
            shifted[l] += x * math.comb(d, l) * c ** (d - l)
    cases = {
        "add": (pa + pb, _trim(x + y for x, y in zip(a0, b0))),
        "sub": (pa - pb, _trim(x - y for x, y in zip(a0, b0))),
        "mul": (pa * pb, _ref_mul(a, b)),
        "scale": (pa.scale(c), _trim(x * c for x in a)),
        "derivative": (pa.derivative(), _trim(d * x for d, x in enumerate(a))[1:]),
        "shift": (pa.shift(c), _trim(shifted)),
        "pow": (pa ** k, power),
    }
    if b:
        (q, r), (rq, rr) = divmod(pa, pb), _ref_divmod(a, b)
        cases.update(quot=(q, rq), rem=(r, rr))
    for name, (p, ref) in cases.items():
        _assert_canonical(p)
        assert p.coeffs == ref, name
        same = Poly("t", [*ref, 0])
        assert p == same and hash(p) == hash(same), name
    assert (pa + pb) == (pb + pa) and hash(pa * pb) == hash(pb * pa)


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
    assert f.coeff(-1) == 1
    assert f.coeff(5) == 0
    g = (LaurentPoly("x", {0: 1, 1: 1})) ** 2
    assert g.coeff(1) == 2
    seg = series_at_zero(
        RationalFunc(LaurentPoly.const(1), LaurentPoly("x", {1: 1, 2: -1})), 5)
    assert seg.coefficient(-1) == 1           # residue of a simple pole
    assert seg.coefficient(-3) == 0           # certified zero below the order
    with pytest.raises(OutOfRange):
        seg.coefficient(10)


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
        assert (f + g).coeff(-1) == f.coeff(-1) + g.coeff(-1)


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


# The dict-of-Fraction LaurentPoly and the synthetic-division normal form of
# RationalFunc that the var^low * Poly form replaced, kept as the reference.

def _lref(terms):
    return {int(k): F(c) for k, c in terms.items() if c}


def _lref_add(a, b):
    out = dict(a)
    for k, c in b.items():
        out[k] = out.get(k, F(0)) + c
    return _lref(out)


def _lref_mul(a, b):
    out = {}
    for i, x in a.items():
        for j, y in b.items():
            out[i + j] = out.get(i + j, F(0)) + x * y
    return _lref(out)


def _lref_pow(a, k):
    out = {0: F(1)}
    for _ in range(k):
        out = _lref_mul(out, a)
    return out


def _lref_repr(a, var="x"):
    if not a:
        return "0"
    return " + ".join(f"{a[e]}" if e == 0 else f"{a[e]}*{var}^{e}" for e in sorted(a))


def _laurent_as_dense(p):
    lo, hi = min(p), max(p)
    dense = [F(0)] * (hi - lo + 1)
    for e, c in p.items():
        dense[e - lo] = c
    return lo, dense


def _root_multiplicity(dense, root):
    """Deflate a dense polynomial by (x - root) as long as it divides exactly."""
    mult = 0
    cur = dense
    while len(cur) > 1 or (cur and cur[0]):
        out = [F(0)] * (len(cur) - 1)
        acc = F(0)
        for i in range(len(cur) - 1, -1, -1):
            if i == 0:
                rem = cur[0] + acc * root
                break
            out[i - 1] = cur[i] + acc * root
            acc = out[i - 1]
        else:
            rem = cur[0]
        if rem != 0 or len(cur) == 1:
            break
        cur = out
        mult += 1
    return mult, cur


def _mul_linear(dense, root):
    out = [F(0)] * (len(dense) + 1)
    for i, c in enumerate(dense):
        out[i + 1] += c
        out[i] -= c * root
    return out


def _ref_normal(num, den):
    """(num, den) terms of the reference RationalFunc normal form."""
    if not num:
        return {}, {0: F(1)}
    shift = min(den)
    num = {e - shift: c for e, c in num.items()}
    den = {e - shift: c for e, c in den.items()}
    nlo, ndense = _laurent_as_dense(num)
    dlo, ddense = _laurent_as_dense(den)
    for root in (F(1), F(-1)):
        mn, ncand = _root_multiplicity(ndense, root)
        if mn == 0:
            continue
        md, dcand = _root_multiplicity(ddense, root)
        common = min(mn, md)
        if common:
            for _ in range(mn - common):
                ncand = _mul_linear(ncand, root)
            for _ in range(md - common):
                dcand = _mul_linear(dcand, root)
            ndense, ddense = ncand, dcand
    c0 = ddense[0]
    return (_lref({nlo + i: c / c0 for i, c in enumerate(ndense)}),
            _lref({dlo + i: c / c0 for i, c in enumerate(ddense)}))


_laurent = st.dictionaries(st.integers(-4, 4), _coeff, max_size=4).map(_lref)


def _assert_laurent(p, ref, name):
    assert p.terms == ref and all(type(c) is F for c in p.terms.values()), name
    assert repr(p) == _lref_repr(ref), name
    same = LaurentPoly("x", {max(ref, default=0) + 1: 0, **ref})
    assert p == same and hash(p) == hash(same), name
    assert p.poly.num[:1] != (0,) and (p or p.low == 0), name
    for e in range(-20, 21):
        assert p.coeff(e) == ref.get(e, 0), (name, e)
    if ref:
        assert (p.min_exp, p.max_exp) == (min(ref), max(ref)), name


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_laurent, _laurent, _coeff, st.integers(0, 3), st.integers(-5, 5))
def test_laurent_matches_fraction_reference(a, b, c, k, s):
    pa, pb = LaurentPoly("x", a), LaurentPoly("x", b)
    cases = {
        "init": (pa, a),
        "add": (pa + pb, _lref_add(a, b)),
        "sub": (pa - pb, _lref_add(a, {e: -v for e, v in b.items()})),
        "mul": (pa * pb, _lref_mul(a, b)),
        "scale": (pa * c, _lref({e: v * c for e, v in a.items()})),
        "add_scalar": (pa + c, _lref_add(a, {0: c})),
        "pow": (pa ** k, _lref_pow(a, k)),
        "shift_exp": (pa.shift_exp(s), {e + s: v for e, v in a.items()}),
        "inverse_var": (pa.inverse_var(), {-e: v for e, v in a.items()}),
    }
    for name, (p, ref) in cases.items():
        _assert_laurent(p, ref, name)
    assert (pa * pb) == (pb * pa) and hash(pa + pb) == hash(pb + pa)


_X_MINUS_1, _X_PLUS_1 = {0: F(-1), 1: F(1)}, {0: F(1), 1: F(1)}


def _plant_factors(p, i, j, s):
    """x^s (x-1)^i (x+1)^j p, in reference terms."""
    p = _lref_mul(_lref_mul(p, _lref_pow(_X_MINUS_1, i)), _lref_pow(_X_PLUS_1, j))
    return {e + s: v for e, v in p.items()}


_planting = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(-3, 3))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_laurent, _laurent, _planting, _planting, _laurent, _planting)
def test_rational_func_matches_root_multiplicity_reference(u, v, pn, pd, w, pw):
    # (x -+ 1) factors planted in numerator and denominator, with the
    # normal forms of products, sums and 1/x against the reference
    num, den = _plant_factors(u, *pn), _plant_factors(v, *pd)
    if not den:
        with pytest.raises(ZeroDenominator):
            RationalFunc(LaurentPoly("x", num), LaurentPoly("x", den))
        return
    f = RationalFunc(LaurentPoly("x", num), LaurentPoly("x", den))
    g = RationalFunc(LaurentPoly("x", _plant_factors(w, *pw)), LaurentPoly("x", den))
    rf, rg = _ref_normal(num, den), _ref_normal(_plant_factors(w, *pw), den)
    cases = {
        "init": (f, rf),
        "mul": (f * g, _ref_normal(_lref_mul(rf[0], rg[0]), _lref_mul(rf[1], rg[1]))),
        "add": (f + g, _ref_normal(_lref_add(_lref_mul(rf[0], rg[1]), _lref_mul(rg[0], rf[1])),
                                   _lref_mul(rf[1], rg[1]))),
        "pow": (f * f * f, _ref_normal(_lref_pow(rf[0], 3), _lref_pow(rf[1], 3))),
        "inverse_var": (f.inverse_var(), _ref_normal({-e: c for e, c in rf[0].items()},
                                                     {-e: c for e, c in rf[1].items()})),
    }
    for name, (h, (rnum, rden)) in cases.items():
        _assert_laurent(h.num, rnum, name)
        _assert_laurent(h.den, rden, name)
        assert repr(h) == f"({_lref_repr(rnum)}) / ({_lref_repr(rden)})", name


def test_poly_fraction_basics():
    pf = PolyFraction(Poly("n", [0, 1]), Poly("n", [1, 1]))
    assert pf.shift(1) == PolyFraction(Poly("n", [1, 1]), Poly("n", [2, 1]))
    assert pf(F(1)) == F(1, 2)
    with pytest.raises(ZeroDenominator):
        pf(F(-1))
    prod = pf * PolyFraction(Poly("n", [1, 1]), Poly("n", [0, 1]))
    assert prod == 1
    assert (pf - pf).is_zero()


_small_fractions = st.builds(F, st.integers(-30, 30), st.integers(1, 12))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.lists(_small_fractions, min_size=1, max_size=6),
       st.lists(_small_fractions, min_size=1, max_size=6),
       _small_fractions)
def test_poly_fraction_subs_matches_fraction_horner(num, den, value):
    # integer Horner on the scaled parts gives exactly the Fraction Horner value
    if not any(den):
        den = [F(1)]
    pf = PolyFraction(Poly("n", num), Poly("n", den))
    d = pf.den.subs(value)
    if d == 0:
        with pytest.raises(ZeroDenominator):
            pf.subs(value)
    else:
        assert pf.subs(value) == pf.num.subs(value) / d
    for site in range(-5, 6):
        d = pf.den.subs(F(site))
        if d:
            assert pf.subs(site) == pf.num.subs(F(site)) / d


def test_poly_fraction_pole_at_a_site():
    from heatkernel.taudarboux import BandOperator, SingularTau

    pf = PolyFraction(Poly("n", [3, 1]), Poly("n", [2, -1, -1]))     # (n+3)/((1-n)(n+2))
    for pole in (1, -2):
        with pytest.raises(ZeroDenominator):
            pf.subs(pole)
    with pytest.raises(SingularTau):
        BandOperator({0: pf}).coeff_at(0, -2)
    assert pf.subs(F(1, 2)) == F(14, 5)


def test_series_segment_equality():
    assert SeriesSegment(0, [1, 2]) == SeriesSegment(0, [F(1), F(2)])


def _planted(roots, extra=(1,)):
    """Integer coefficients of extra(x) prod (x - root), lowest degree first."""
    out = list(extra)
    for root in roots:
        out = [a - root * b for a, b in zip([0, *out], [*out, 0])]
    return out


def test_integer_roots_planted():
    big = 10 ** 12 + 7
    cases = [
        ([], [1, 0, 1], []),                     # x^2 + 1: no real zero
        ([], [-1, 2], []),                       # 2x - 1: zero off the lattice
        ([0], [2, 0, 1], [0]),
        ([3, 3], (1,), [3]),                     # tangent double zero
        ([3, 3, -5], (1,), [-5, 3]),
        ([-1, -1, -1, 2, 2], (3,), [-1, 2]),
        ([7, -7, 2, -2], (1,), [-7, -2, 2, 7]),  # +- pairs, even polynomial
        ([big, -2], (1,), [-2, big]),
        ([-big], [5, -3, 2], [-big]),
        ([], (5,), []),                          # degree 0
    ]
    for roots, extra, expect in cases:
        coeffs = _planted(roots, extra)
        assert integer_roots(coeffs) == expect, (roots, extra)
        assert integer_roots([-c for c in coeffs] + [0]) == expect  # sign, zero lead
    with pytest.raises(ValueError):
        integer_roots([0, 0])


def test_integer_roots_match_scan():
    rng = random.Random(SEED + 2)
    for _ in range(300):
        roots = [rng.randint(-12, 12) for _ in range(rng.randint(0, 5))]
        extra = rng.choice([(1,), (-2,), (3, 0, 1), (1, -1, 4), (-1, 3)])
        coeffs = _planted(roots, extra)
        scan = [x for x in range(-40, 41) if eval_int(coeffs, x) == 0]
        assert integer_roots(coeffs) == scan, coeffs
