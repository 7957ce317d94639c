import random
from fractions import Fraction as F

import numpy as np
import pytest

from conftest import PARAMS, SEED
from heatkernel.chebring import (
    F_build,
    NodeCollision,
    NodeSet,
    NotMember,
    WVCertificate,
    av_membership,
    chebyshev_U,
    interp_Q,
    lagrange_vanishing_sum,
    reduce_to_wx,
    v_of_x,
    w_of_x,
)
from heatkernel.exactcore import Poly, PolyFraction
from heatkernel.taudarboux import wave_p


def test_chebyshev_base_cases():
    assert chebyshev_U(-1).is_zero()
    assert chebyshev_U(0) == Poly("w", [1])
    assert chebyshev_U(1) == Poly("w", [0, 2])
    assert chebyshev_U(2) == Poly("w", [-1, 0, 4])


def test_chebyshev_matches_hypergeometric_expansion():
    # (n+1) sum_k 2^k/(2k+1)! prod_{j<=k}((n+1)^2 - j^2) (w-1)^k
    for n in range(0, 11):
        expect = Poly("w")
        wm1 = Poly("w", [-1, 1])
        for k in range(n + 1):
            prod = F(1)
            for j in range(1, k + 1):
                prod *= F(n + 1) ** 2 - j * j
            fact = 1
            for i in range(2, 2 * k + 2):
                fact *= i
            expect = expect + (wm1 ** k).scale(F(2 ** k) * prod / fact)
        assert chebyshev_U(n) == expect.scale(F(n + 1)), n


def test_chebyshev_parity():
    for k in range(0, 12):
        u = chebyshev_U(k)
        for d, c in enumerate(u.coeffs):
            if c:
                assert d % 2 == k % 2


def test_reduce_to_wx_square():
    A, B = reduce_to_wx(PolyFraction.laurent("x", {2: 1}))
    assert A == Poly("w", [-1]) and B == Poly("w", [0, 2])


def test_reduce_to_wx_symmetric_sum():
    A, B = reduce_to_wx(PolyFraction.laurent("x", {1: 1, -1: 1}))
    assert A == Poly("w", [0, 2]) and B.is_zero()


def test_reduce_to_wx_negative_square():
    A, B = reduce_to_wx(PolyFraction.laurent("x", {-2: 1}))
    assert A == Poly("w", [-1, 0, 4]) and B == Poly("w", [0, -2])
    x = F(3, 2)
    w = (x + 1 / x) / 2
    assert A.subs(w) + B.subs(w) * x == x ** -2


def test_reduce_to_wx_random_round_trip():
    rng = random.Random(SEED)
    wx = w_of_x()
    for _ in range(25):
        f = PolyFraction.laurent("x", {rng.randint(-6, 6): F(rng.randint(-9, 9), rng.randint(1, 5))
                                       for _ in range(5)})
        A, B = reduce_to_wx(f)
        back = A.subs(wx) + B.subs(wx) * PolyFraction.laurent("x", {1: 1})
        assert back == f


def test_lagrange_vanishing_trivial():
    assert lagrange_vanishing_sum(Poly("n", [0, 1]), [1, 2]) == 0
    assert lagrange_vanishing_sum(Poly("n", [0, 0, 0, 1]), [1, 2, 3]) == 0


def test_lagrange_vanishing_degree_violation():
    # degree 2T+1 weight is outside the guaranteed-zero range
    assert lagrange_vanishing_sum(Poly("n", [0, 0, 0, 1]), [1, 2]) != 0


def test_lagrange_vanishing_random():
    rng = random.Random(SEED)
    for _ in range(200):
        T = rng.randint(1, 5)
        coeffs = [F(0)] * (2 * T)
        for d in range(1, 2 * T, 2):
            coeffs[d] = F(rng.randint(-30, 30), rng.randint(1, 9))
        q = Poly("n", coeffs)
        nodes = set()
        while len(nodes) < T + 1:
            nodes.add(F(rng.randint(1, 60), rng.randint(1, 6)))
        assert lagrange_vanishing_sum(q, sorted(nodes)) == 0


def test_lagrange_node_collision():
    with pytest.raises(NodeCollision):
        lagrange_vanishing_sum(Poly("n", [0, 1]), [1, 1])


def test_node_set_validation():
    with pytest.raises(NodeCollision):
        NodeSet([1, -1])
    with pytest.raises(NodeCollision):
        NodeSet([0, 2])
    with pytest.raises(NodeCollision):
        NodeSet([2, 2])
    assert NodeSet([1, 3]).same_parity
    assert not NodeSet([1, 2]).same_parity


def test_interp_Q_nodes_1_3():
    q = interp_Q(NodeSet([1, 3]))
    assert q == Poly("w", [F(-1, 6), 0, F(1, 6)])


def test_interp_Q_single_node():
    for s in (1, 2, 5):
        assert interp_Q(NodeSet([s])) == chebyshev_U(s - 1).scale(F(1, s))


def test_interp_Q_even_parity_divisibility():
    q = interp_Q(NodeSet([2, 4]))
    quot, rem = divmod(q, Poly("w", [-1, 0, 1]))
    assert rem.is_zero()


def test_interp_Q_parity_of_output():
    rng = random.Random(SEED + 2)
    for _ in range(50):
        T = rng.randint(1, 4)
        parity = rng.randint(0, 1)
        nodes = set()
        while len(nodes) < T + 1:
            nodes.add(2 * rng.randint(1, 20) - parity)
        q = interp_Q(NodeSet(sorted(nodes)))      # asserts both divisibilities
        s0 = sorted(nodes)[0]
        for d, c in enumerate(q.coeffs):
            if c:
                assert d % 2 == (s0 - 1) % 2


def test_F_build_values():
    assert F_build(NodeSet([1, 3])).laurent_terms() == {1: F(-1, 8), 3: F(1, 24)}
    assert F_build(NodeSet([5])).laurent_terms() == {5: F(1, 5)}
    assert F_build(NodeSet([-3, -5])).laurent_terms() == {-3: F(1, 48), -5: F(-1, 80)}


def test_F_build_parity_support():
    f = F_build(NodeSet([2, 4, 6]))
    assert all(e % 2 == 0 for e in f.laurent_terms())


def test_membership_certificate_example():
    cert = av_membership(F_build(NodeSet([1, 3])), 1, 1)
    assert isinstance(cert, WVCertificate)
    assert cert.A == Poly("w", [0, F(-1, 4), 0, F(1, 6)])
    assert cert.B == Poly("w", [F(1, 6)])
    # independent substitution check
    wx, vx = w_of_x(), v_of_x(1, 1)
    back = cert.A.subs(wx) + cert.B.subs(wx) * vx
    assert back == PolyFraction.laurent("x", {1: F(-1, 8), 3: F(1, 24)})


def test_certificate_json():
    cert = av_membership(F_build(NodeSet([1, 3])), 1, 1)
    blob = cert.to_json()
    assert blob == {"A": ["0", "-1/4", "0", "1/6"], "B": ["1/6"], "R": 1, "S": 1}


def test_membership_trivial_and_negative():
    cert = av_membership(PolyFraction.laurent("x", {1: 1, -1: 1}), 2, 1)
    assert cert.A == Poly("w", [0, 2]) and cert.B.is_zero()
    assert isinstance(av_membership(PolyFraction.laurent("x", {1: 1}), 1, 0), NotMember)


def test_membership_random_certificates():
    rng = random.Random(SEED + 3)
    done = 0
    while done < 50:
        R = rng.randint(0, 3)
        S = rng.randint(0, 3)
        T = max(R, S, 1) + rng.randint(0, 1)
        parity = rng.randint(0, 1)
        sign = rng.choice([1, -1])
        nodes = set()
        while len(nodes) < T + 1:
            nodes.add(sign * (2 * rng.randint(1, 15) - parity))
        f = F_build(NodeSet(sorted(nodes)))
        cert = av_membership(f, R, S)
        assert isinstance(cert, WVCertificate), (R, S, nodes)
        assert cert.substitute() == f
        done += 1


def test_curve_identity():
    for R in range(4):
        for S in range(4):
            w, v = w_of_x(), v_of_x(R, S)
            assert v * v == ((w - 1) ** (2 * R + 1)) * ((w + 1) ** (2 * S + 1))


def test_annihilation_against_wave_products():
    # ring members supported away from m-n integrate to zero against the
    # wave-function product on a contour around the origin
    params = PARAMS[(1, 1)]
    f = F_build(NodeSet([-2, -4, -6]))     # T = 2 >= max(R, S)
    for (n, m) in [(0, 0), (1, 0), (2, 1)]:
        # support of f is [-6, -2]; m - n = 0 or -1 lies outside it
        pn = wave_p(params, n)
        pm = wave_p(params, m).inverse_var()
        N = 4096
        theta = 2.0 * np.pi * (np.arange(N) + 0.5) / N
        z = 0.5 * np.exp(1j * theta)

        def ev(p, zz):
            return np.polyval([float(c) for c in reversed(p.coeffs)], zz)

        vals = ev(f.num, z) / ev(f.den, z) * ev(pn.num, z) / ev(pn.den, z) \
            * ev(pm.num, z) / ev(pm.den, z)
        integral = complex(np.mean(vals))
        assert abs(integral) < 1e-10, (n, m, integral)
