"""The float layer: kernel_eval's accuracy against high-precision values of
the same exact beta_j, every runtime path running without scipy, the exact
paths running without numpy, and the package names that load the oracle on
first use."""

import shlex
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path
from types import ModuleType

import mpmath
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import heatkernel
from heatkernel import ParamVector, assemble_kernel, kernel_eval, tau_build
from test_cli import SUBPROCESS_ENV

HIGH_ORDER = [ParamVector(R, R, [F(1, 3), F(1, 7), F(2, 5), F(1, 11)]) for R in (2, 3, 4)]
# the one-step kernel too: its top orders are the lowest, so its rows switch to
# Hankel's expansion at the smallest t
PARAMS = [ParamVector(1, 0, [F(1, 2)]), *HIGH_ORDER]
R8 = [F(1, 3), F(1, 7), F(2, 5), F(1, 11), F(3, 13), F(1, 17), F(2, 19), F(1, 23)]
# |kernel_eval - u| <= 18 eps kappa_2 |u|: A(t) and B(t) are each rounded once
# (eps/2), the Bessel values are within bessel_row's tested 16 eps, and the two
# products and their sum are rounded once each (eps/2): (1 + eps/2)^3 (1 + 16 eps) - 1 < 18 eps
TWO_TERM_EPS = 18 * sys.float_info.epsilon


def _reference(f, t: float):
    """u(t) and sum_j |beta_j(t)| e^{-2t} I_j(2t), at 80 digits."""
    with mpmath.workdps(80):
        tm = mpmath.mpf(t)
        value = scale = mpmath.mpf(0)
        for j, p in f.terms.items():
            beta = p.subs(F(t))
            beta = mpmath.mpf(beta.numerator) / beta.denominator
            bessel = mpmath.besseli(j, 2 * tm) * mpmath.exp(-2 * tm)
            value += beta * bessel
            scale += abs(beta) * bessel
        return value, scale


@pytest.mark.parametrize("params", PARAMS, ids=lambda p: f"{p.R},{p.S}")
def test_kernel_eval_error_within_condition_number(params):
    # |error| <= 4 kappa eps |u| with kappa = sum_j |beta_j| e^{-2t} I_j(2t) / |u|
    for n, m in ((2, 0), (0, 0), (4, -4)):
        f = assemble_kernel(params, n, m)
        for t in (1e-30, 0.5, 1.0, 10.0, 1e2, 1e3, 1e4, 1e6, 6e8):
            value, scale = _reference(f, t)
            err = abs(mpmath.mpf(kernel_eval(f, t)) - value)
            assert err <= 4 * sys.float_info.epsilon * scale, (n, m, t, float(err), float(scale))


def _mp(q: F):
    return mpmath.mpf(q.numerator) / q.denominator


def _two_term(f, t: float) -> tuple[F, F]:
    """(A(t), B(t)), exact, with u = e^{-2t} (A(t) I_k(2t) + B(t) I_{k+1}(2t)),
    k = |n - m|: the exact beta_j(t) times I_j on (I_k, I_{k+1}) at this t,
    by the three-term recurrence upwards and downwards from k."""
    k, x = abs(f.n - f.m), F(t)
    reps = {k: (F(1), F(0)), k + 1: (F(0), F(1))}
    for j in range(k + 1, max([k + 1, *f.terms])):     # I_{j+1} = I_{j-1} - (j/t) I_j
        reps[j + 1] = tuple(a - j / x * b for a, b in zip(reps[j - 1], reps[j]))
    for j in range(k, 0, -1):                           # I_{j-1} = I_{j+1} + (j/t) I_j
        reps[j - 1] = tuple(a + j / x * b for a, b in zip(reps[j + 1], reps[j]))
    A = B = F(0)
    for j, p in f.terms.items():
        beta = p.subs(x)
        A, B = A + beta * reps[j][0], B + beta * reps[j][1]
    return A, B


def _referenced(f, t: float):
    """(u, kappa_beta, kappa_2 |u|): u = sum_j beta_j(t) e^{-2t} I_j(2t) at
    log10 kappa_beta + 40 digits or more, for kappa_beta = sum_j |beta_j(t)|
    e^{-2t} I_j(2t) / |u|, and kappa_2 |u| = |A(t)| e^{-2t} I_k(2t) +
    |B(t)| e^{-2t} I_{k+1}(2t).  Too few digits leave a u of about kappa_beta
    times 10^-dps, so the digits are raised until they suffice."""
    k, x = abs(f.n - f.m), F(t)
    betas = {j: p.subs(x) for j, p in f.terms.items()}
    dps = 50
    while True:
        assert dps < 2000, (f.n, f.m, t)
        with mpmath.workdps(dps):
            tm = mpmath.mpf(t)
            scaled = {j: mpmath.besseli(j, 2 * tm) * mpmath.exp(-2 * tm) for j in {*betas, k, k + 1}}
            value = mpmath.fsum(_mp(b) * scaled[j] for j, b in betas.items())
            scale = mpmath.fsum(abs(_mp(b)) * scaled[j] for j, b in betas.items())
            need = 40 + (mpmath.log10(scale / abs(value)) if value else dps)
            if dps >= need:
                A, B = _two_term(f, t)
                return value, scale / abs(value), abs(_mp(A)) * scaled[k] + abs(_mp(B)) * scaled[k + 1]
        dps = int(need) + 10


def test_kernel_eval_past_float_range_of_beta():
    # at t = 1e80 the (4,4) A(t) passes float range while u does not, so the
    # two-term sum is taken again in exact rationals
    f, t = assemble_kernel(ParamVector(4, 4, R8), 2, 0), 1e80
    assert abs(_two_term(f, t)[0]) > sys.float_info.max
    value, _, scale = _referenced(f, t)
    err = abs(mpmath.mpf(kernel_eval(f, t)) - value)
    assert err <= TWO_TERM_EPS * scale, (float(err), float(scale))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(0, 4), st.integers(0, 4),
       st.lists(st.builds(F, st.integers(-9, 9), st.integers(2, 13)), min_size=1, max_size=8),
       st.integers(-4, 4), st.integers(-4, 4), st.lists(st.integers(-12, 100), min_size=1, max_size=3))
@example(4, 4, R8, 2, 0, [8])           # t = 1e4, where the beta_j sum keeps about 5 digits
def test_kernel_eval_within_the_two_term_bound(R, S, r, n, m, half_decades):
    # log-spaced t from 1e-6 to 1e50: the error stays within 18 eps kappa_2 |u|
    # against a reference with log10 kappa_beta + 40 digits, though kappa_beta
    # reaches about 1e150 at t = 1e50
    params = ParamVector(R, S, r)
    assume(tau_build(params).zeros == ())
    f = assemble_kernel(params, n, m)
    for t in (10.0 ** (e / 2) for e in half_decades):
        value, kappa, scale = _referenced(f, t)
        err = abs(mpmath.mpf(kernel_eval(f, t)) - value)
        assert err <= TWO_TERM_EPS * scale, (n, m, t, float(err / abs(value)), float(kappa))


def test_kernel_eval_beyond_float_range_raises():
    f = assemble_kernel(HIGH_ORDER[0], 2, 0)
    with pytest.raises(ValueError, match=r"t = 1e\+300"):
        kernel_eval(f, 1e300)


def test_import_leaves_scipy_unloaded():
    code = ("import sys, heatkernel; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=SUBPROCESS_ENV, check=True)
    assert proc.stdout.strip() == "[]"


def test_lattice_route_leaves_scipy_sparse_unloaded():
    # the README oracle check, then lattice_evolve, with scipy importable
    code = ("import sys\n"
            "from fractions import Fraction\n"
            "from heatkernel import ParamVector, lattice_evolve, operator_build\n"
            "from heatkernel.cli import main\n"
            "code = main(['verify', '--mode', 'oracle', '--R', '1', '--S', '0', '--r', '1/2',\n"
            "             '--range', '4', '--t', '0.5,1,2'])\n"
            "lattice_evolve(operator_build(ParamVector(1, 0, [Fraction(1, 2)])), 200, 0, 1.0)\n"
            "print(code, sorted(m for m in sys.modules if m.startswith('scipy.sparse')))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=SUBPROCESS_ENV, check=True)
    assert "PASS" in proc.stdout
    assert proc.stdout.splitlines()[-1] == "0 []"


def test_runtime_paths_run_with_scipy_blocked():
    # scipy is a test dependency only: with every scipy import made to fail,
    # import, the README oracle check, kernel_eval, lattice_evolve, the bessel
    # row and the Bessel identity suite all run, and no scipy module loads
    code = ("import sys\n"
            "sys.modules['scipy'] = None\n"
            "from fractions import Fraction\n"
            "from heatkernel import ParamVector, assemble_kernel, kernel_eval, lattice_evolve, "
            "operator_build\n"
            "from heatkernel.cli import main\n"
            "params = ParamVector(1, 0, [Fraction(1, 2)])\n"
            "codes = [main(['verify', '--mode', 'oracle', '--R', '1', '--S', '0', '--r', '1/2',\n"
            "               '--range', '4', '--t', '0.5,1,2'])]\n"
            "kernel_eval(assemble_kernel(params, 2, 0), 1.0)\n"
            "lattice_evolve(operator_build(params), 200, 0, 1.0)\n"
            "codes += [main(['bessel', '--t', '2', '--kmax', '5']),\n"
            "          main(['verify', '--mode', 'identities'])]\n"
            "print(codes, sorted(m for m, mod in sys.modules.items()\n"
            "                    if m.split('.')[0] == 'scipy' and mod is not None))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=SUBPROCESS_ENV)
    assert proc.returncode == 0, proc.stderr
    assert "PASS" in proc.stdout
    assert proc.stdout.splitlines()[-1] == "[0, 0, 0] []"


ORACLE_NAMES = ["ComparisonReport", "QuadratureSpec", "circle_quadrature",
                "compare_kernel_to_lattice", "compare_report", "lattice_evolve"]
README = Path(__file__).resolve().parent.parent / "README.md"


def test_import_leaves_numpy_unloaded():
    # the oracle names are listed but load numpy only when first used
    code = ("import sys, heatkernel\n"
            f"print(set({ORACLE_NAMES!r}) <= set(dir(heatkernel)),\n"
            "      sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=SUBPROCESS_ENV, check=True)
    assert proc.stdout.strip() == "True []"


def test_exact_paths_run_with_numpy_blocked():
    # every README command but verify --mode oracle (orth included), and
    # kernel_eval, run with each numpy import made to fail, and no numpy module loads
    commands = [shlex.split(line)[1:] for line in README.read_text().splitlines()
                if line.startswith("heatkernel ")]
    exact = [argv for argv in commands if argv[:3] != ["verify", "--mode", "oracle"]]
    assert {argv[0] for argv in exact} == {"kernel", "tau", "operator", "bessel", "verify"}
    assert ["verify", "--mode", "orth"] in [argv[:3] for argv in exact]
    assert len(exact) == len(commands) - 1
    code = ("import sys\n"
            "sys.modules['numpy'] = None\n"
            "from fractions import Fraction\n"
            "import heatkernel, heatkernel.cli\n"
            "from heatkernel import ParamVector, assemble_kernel, kernel_eval\n"
            f"codes = [heatkernel.cli.main(argv) for argv in {exact!r}]\n"
            "kernel_eval(assemble_kernel(ParamVector(1, 0, [Fraction(1, 2)]), 2, 0), 1.0)\n"
            "print(codes, sorted(m for m, mod in sys.modules.items()\n"
            "                    if m.split('.')[0] == 'numpy' and mod is not None))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=SUBPROCESS_ENV)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == f"{[0] * len(exact)} []"


def test_public_names():
    for name in heatkernel.__all__:
        getattr(heatkernel, name)
    assert {name for name, value in vars(heatkernel).items()
            if not name.startswith("_") and not isinstance(value, ModuleType)} \
        <= set(heatkernel.__all__)
    assert set(ORACLE_NAMES) <= set(heatkernel.__all__) <= set(dir(heatkernel))
    assert "orthogonality_gram" not in dir(heatkernel)     # verify --mode orth is exact
    namespace = {}
    exec("from heatkernel import *", namespace)
    assert set(heatkernel.__all__) <= namespace.keys()
    assert heatkernel.QuadratureSpec is heatkernel.oracle.QuadratureSpec
    with pytest.raises(AttributeError, match="no_such_name"):
        heatkernel.no_such_name
