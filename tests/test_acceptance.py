"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report lines alongside the pytest verdicts.
"""

import math
import random
import time
from fractions import Fraction as F

from conftest import PARAMS, SEED, bessel_i_series, one_step_kernel, two_step_kernel
from heatkernel.bessel import (
    alpha_table,
    bessel_row,
    identity_residuals,
)
from heatkernel.chebring import (
    F_build,
    NodeSet,
    WVCertificate,
    av_membership,
    interp_Q,
    lagrange_vanishing_sum,
)
from heatkernel.exactcore import Poly
from heatkernel.kernel import (
    _certify_power_sums,
    assemble_kernel,
    combo_to_basis,
    kernel_eval,
    pde_residual,
)
from heatkernel.oracle import compare_kernel_to_lattice, orthogonality_gram
from heatkernel.taudarboux import (
    ParamVector,
    factorization_target,
    operator_build,
    qp_build,
    tau_build,
)

PDE_CONFIGS = [(1, 0), (0, 1), (1, 1), (2, 1), (2, 2), (3, 3), (4, 4)]

# the higher orders of the PDE grid, with the (2,2) entry's parameters
PDE_PARAMS = {
    **PARAMS,
    (3, 3): ParamVector(3, 3, [F(1, 3), F(1, 7), F(2, 5), F(1, 11)]),
    (4, 4): ParamVector(4, 4, [F(1, 3), F(1, 7), F(2, 5), F(1, 11)]),
}


def report(number: int, label: str, ok: bool, extra: str = ""):
    state = "PASS" if ok else "FAIL"
    suffix = f" ({extra})" if extra else ""
    print(f"ACCEPTANCE {number:2d} {label}: {state}{suffix}")
    assert ok, f"criterion {number} failed: {label} {suffix}"


def kernels_for_criteria_1_to_3():
    for n in range(-10, 11):
        for m in range(-10, 11):
            yield assemble_kernel(PARAMS[(0, 0)], n, m)
    for delta in (F(1, 2), F(3, 2), F(-5, 2)):
        params = ParamVector(1, 0, [delta])
        for n in range(-5, 6):
            for m in range(-5, 6):
                yield assemble_kernel(params, n, m)
    for (alpha, beta) in [(F(1, 4), F(1)), (F(1), F(3))]:
        params = ParamVector.from_alpha_beta(1, 1, alpha, beta)
        for n in range(-3, 4):
            for m in range(-3, 4):
                yield assemble_kernel(params, n, m)


def test_criterion_01_free_kernel():
    start = time.time()
    ok = True
    for n in range(-10, 11):
        for m in range(-10, 11):
            f = assemble_kernel(PARAMS[(0, 0)], n, m)
            ok = ok and f.terms == {abs(n - m): Poly("t", [1])}
    value = kernel_eval(assemble_kernel(PARAMS[(0, 0)], 0, 0), 1.0)
    series = float(bessel_i_series(0, F(2))) * math.exp(-2.0)
    ok = ok and abs(value - series) <= 1e-12
    elapsed = time.time() - start
    report(1, "free kernel", ok and elapsed < 1.0, f"{elapsed:.2f}s")


def test_criterion_02_one_step_kernel_exact():
    start = time.time()
    ok = True
    for delta in (F(1, 2), F(3, 2), F(-5, 2)):
        params = ParamVector(1, 0, [delta])
        for n in range(-5, 6):
            for m in range(-5, 6):
                f = assemble_kernel(params, n, m)
                ref = one_step_kernel(delta, n, m)
                if n >= m:
                    expect = {abs(j): p for j, p in ref.items() if not p.is_zero()}
                    ok = ok and f.terms == expect
                else:
                    diff = dict(f.terms)
                    for j, p in ref.items():
                        jj = abs(j)
                        diff[jj] = diff.get(jj, Poly("t")) - p
                    A, B = combo_to_basis(diff.items())
                    ok = ok and A.is_zero() and B.is_zero()
    elapsed = time.time() - start
    report(2, "one-step kernel exact", ok and elapsed < 10.0, f"{elapsed:.2f}s")


def test_criterion_03_two_step_kernel_pointwise():
    start = time.time()
    ok = True
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
                    ok = ok and abs(got - expect) <= 1e-12 * max(1.0, abs(expect))
    elapsed = time.time() - start
    report(3, "two-step kernel vs closed form", ok and elapsed < 30.0, f"{elapsed:.2f}s")


def test_criterion_04_degeneration_limit():
    reference = kernel_eval(assemble_kernel(ParamVector(1, 0, [F(1, 2)]), 1, 0), 1.0)
    errs = {}
    for beta in (10 ** 4, 10 ** 6):
        params = ParamVector.from_alpha_beta(1, 1, 0, beta)
        value = kernel_eval(assemble_kernel(params, 1, 0), 1.0)
        errs[beta] = abs(value - reference) / abs(reference)
    ratio = errs[10 ** 4] / errs[10 ** 6]
    ok = errs[10 ** 6] <= 1e-4 and 50.0 <= ratio <= 200.0
    report(4, "large-beta degeneration", ok,
           f"rel={errs[10**6]:.2e}, scaling ratio={ratio:.1f}")


def test_criterion_05_pde_certification():
    start = time.time()
    ok = True
    worst = None
    for key in PDE_CONFIGS:
        params = PDE_PARAMS[key]
        for n in range(-3, 4):
            for m in range(-3, 4):
                rep = pde_residual(assemble_kernel(params, n, m))
                if not rep.passed:
                    ok = False
                    worst = (key, n, m)
    elapsed = time.time() - start
    report(5, "symbolic heat-equation certification", ok and elapsed < 120.0,
           f"{len(PDE_CONFIGS) * 49} cases, {elapsed:.1f}s" +
           (f", first failure {worst}" if worst else ""))


def test_criterion_06_initial_condition():
    ok = True
    for f in kernels_for_criteria_1_to_3():
        delta = 1 if f.n == f.m else 0
        ok = ok and f.beta(0).coeff(0) == delta
        if f.n == f.m:
            for j in f.support:
                if j != 0:
                    ok = ok and f.terms[j].coeff(0) == 0
    report(6, "initial condition", ok)


def test_criterion_07_degree_bound():
    ok = True
    for key in PDE_CONFIGS:
        params = PDE_PARAMS[key]
        T = max(params.R, params.S)
        for n in range(-3, 4):
            for m in range(-3, 4):
                f = assemble_kernel(params, n, m)
                ok = ok and f.max_degree() <= 2 * T - 1
    report(7, "beta degree bound", ok)


def test_criterion_08_oracle_agreement():
    start = time.time()
    pairs = [(n, m) for n in range(-4, 5) for m in range(-4, 5)]
    ok = True
    detail = []
    for key in [(1, 0), (1, 1)]:
        params = PARAMS[key]
        rep = compare_kernel_to_lattice(params, operator_build(params), pairs,
                                        [0.5, 1.0, 2.0], W=200, tolerance=1e-10)
        ok = ok and rep.passed
        detail.append(f"{key}: {rep.max_abs:.1e}")
    elapsed = time.time() - start
    report(8, "lattice-evolution agreement", ok and elapsed < 60.0,
           "; ".join(detail) + f", {elapsed:.1f}s")


def test_criterion_09_orthogonality_gram():
    ok = True
    detail = []
    for key in [(1, 0), (1, 1), (2, 2)]:
        params = PARAMS[key]
        tau = tau_build(params)
        G = orthogonality_gram(params, 6)
        worst = 0.0
        for i in range(6):
            for j in range(6):
                expect = float(tau.ratio(i + 1, i)) if i == j else 0.0
                worst = max(worst, abs(G[i, j] - expect))
        ok = ok and worst < 1e-10
        detail.append(f"{key}: {worst:.1e}")
    report(9, "orthogonality relation", ok, "; ".join(detail))


def test_criterion_10_factorization():
    ok = True
    for R in range(3):
        for S in range(3):
            params = PARAMS[(R, S)]
            Q, P = qp_build(params)
            ok = ok and (P * Q == factorization_target(R, S))
    report(10, "wave-operator factorization", ok)


def test_criterion_11_ring_suite():
    rng = random.Random(SEED)
    ok = True
    for _ in range(200):
        T = rng.randint(1, 5)
        coeffs = [F(0)] * (2 * T)
        for d in range(1, 2 * T, 2):
            coeffs[d] = F(rng.randint(-30, 30), rng.randint(1, 9))
        nodes = set()
        while len(nodes) < T + 1:
            nodes.add(F(rng.randint(1, 60), rng.randint(1, 6)))
        ok = ok and lagrange_vanishing_sum(Poly("n", coeffs), sorted(nodes)) == 0
    for _ in range(50):
        T = rng.randint(1, 4)
        parity = rng.randint(0, 1)
        nodes = set()
        while len(nodes) < T + 1:
            nodes.add(2 * rng.randint(1, 20) - parity)
        q = interp_Q(NodeSet(sorted(nodes)))   # divisibility asserted inside
        quot, rem = divmod(q, Poly("w", [-1, 1]) ** T)
        ok = ok and rem.is_zero()
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
        ok = ok and isinstance(cert, WVCertificate) and cert.substitute() == f
        done += 1
    report(11, "interpolation-ring suite", ok)


def test_criterion_12_bessel_suite():
    tab = alpha_table(6)
    ok = True
    for n in range(7):
        edge = Poly("t", [0] * (2 * n + 1) + [F(1, 2 ** (2 * n + 1))])
        ok = ok and tab.get(n, 2 * n) == edge
        ok = ok and tab.get(n, 2 * n + 1).is_zero()
        for j in range(0, 2 * n + 1):
            ok = ok and tab.get(n, j) == tab.get(n, -j)
            ok = ok and tab.get(n, j).degree <= 2 * n + 1
    row = bessel_row(1.0, 90)
    for n in range(0, 4):
        for k in range(-3, 4):
            lhs = sum(j ** (2 * n + 1) * row.unscaled(j)
                      for j in range(k + 1, 86) if (j - k) % 2 == 1)
            rhs = sum(float(tab.get(n, s - k).subs(F(1))) * row.unscaled(s)
                      for s in range(k - 2 * n, k + 2 * n + 1))
            ok = ok and abs(lhs - rhs) < 1e-10
    for t in (0.5, 1.0, 2.0, 4.0):
        res = identity_residuals(t)
        ok = ok and res["recurrence"] < 1e-12 and res["derivative"] < 1e-8
        ok = ok and res["ode"] < 1e-7 and res["generating"] < 1e-12
    report(12, "Bessel identity suite", ok)


def test_criterion_13_decomposition_identity():
    # the tails of e^{t(x+1/x)} resum exactly: the power sums S_n, n <= 3,
    # behind the tables up to T = 4, certified on integers for every offset
    checks, failures = _certify_power_sums(4)
    report(13, "exponential decomposition identity", not failures,
           f"{checks} exact checks, {len(failures)} failed")
