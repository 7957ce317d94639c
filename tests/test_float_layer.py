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

import heatkernel
from heatkernel import ParamVector, assemble_kernel, kernel_eval
from test_cli import SUBPROCESS_ENV

HIGH_ORDER = [ParamVector(R, R, [F(1, 3), F(1, 7), F(2, 5), F(1, 11)]) for R in (2, 3, 4)]
# the one-step kernel too: its top orders are the lowest, so its rows switch to
# Hankel's expansion at the smallest t
PARAMS = [ParamVector(1, 0, [F(1, 2)]), *HIGH_ORDER]


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


def test_kernel_eval_past_float_range_of_beta():
    # at t = 1e103 the (2,2) beta_j(t) pass float range while u does not
    f, t = assemble_kernel(HIGH_ORDER[0], 2, 0), 1e103
    assert max(abs(p.subs(F(t))) for p in f.terms.values()) > sys.float_info.max
    value, scale = _reference(f, t)
    err = abs(mpmath.mpf(kernel_eval(f, t)) - value)
    assert err <= 4 * sys.float_info.epsilon * scale, (float(err), float(scale))


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
                "compare_kernel_to_lattice", "compare_report", "lattice_evolve",
                "orthogonality_gram"]
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
    # every README command but verify --mode oracle|orth, and kernel_eval,
    # run with each numpy import made to fail, and no numpy module loads
    commands = [shlex.split(line)[1:] for line in README.read_text().splitlines()
                if line.startswith("heatkernel ")]
    exact = [argv for argv in commands if argv[:3] not in (["verify", "--mode", "oracle"],
                                                         ["verify", "--mode", "orth"])]
    assert {argv[0] for argv in exact} == {"kernel", "tau", "operator", "bessel", "verify"}
    assert len(exact) == len(commands) - 2
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
    namespace = {}
    exec("from heatkernel import *", namespace)
    assert set(heatkernel.__all__) <= namespace.keys()
    assert heatkernel.QuadratureSpec is heatkernel.oracle.QuadratureSpec
    with pytest.raises(AttributeError, match="no_such_name"):
        heatkernel.no_such_name
