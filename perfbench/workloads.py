"""The benchmark's workloads: seeded inputs, one round of timed work, checks.

A round runs a workload's fixed work once in a fresh interpreter.  `run`
times every op and the whole round; `check` then verifies every op's output
outside the timed region and returns one failure line per failed op, with the op's input.

Parameters are drawn from the seed as non-integer rationals of bounded
height: r_i = +-a / p_i with a in 1..9 and p_i the i-th prime from 11 on, so
that no draw puts a zero of an order-one tau on the lattice and every draw
carries denominators of the same size.  A draw that is singular anyway is
reported as failed ops, never redrawn.

heatkernel functions are looked up on their modules at call time, so that
the traced run sees the wrappers `tracing.install` binds there.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import mpmath
from heatkernel import cli, exactcore, kernel, oracle, taudarboux

ROOT = Path(__file__).resolve().parent.parent
PRIMES = (11, 13, 17, 19)

# ladder rungs (R, S) and the number of parameter vectors drawn at each: as
# many ops below (2,2) as above it, so the median op lies mid-way through the
# (2,2) latency band and the 90th percentile inside the (3,3) band
LADDER = ((1, 0, 3), (1, 1, 3), (2, 2, 9), (3, 3, 5), (4, 4, 1))
GRID = [(n, m) for n in range(-4, 5) for m in range(-4, 5)]
# two draws at (2,2) so that the median op lies inside one order's latency
# band, not in the gap between the (2,2) and the (3,3) bands
PDE_RUNGS = ((2, 2), (2, 2), (3, 3))
LATTICE_TS = (0.5, 1.0, 2.0, 4.0)
EVAL_TS = tuple(2.0 ** e for e in range(-1, 14))        # 0.5 .. 8192
QUAD_T = 1.0
QUAD_SITES = ((0, 0), (1, 0), (2, -1), (3, 3), (-2, 1), (4, -4))
LATTICE_W = 200
TOL = 1e-10
# the float-consumer error figures of a round that evaluates no floats
NO_FLOAT_ERRORS = {"oracle.max_abs_err": 0.0, "kernel.kernel_eval.max_rel_err": 0.0}


@dataclass
class Op:
    label: str
    ms: float
    output: object = None
    error: str | None = None


@dataclass
class Round:
    solve_s: float
    ops: list
    context: dict


def _conftest():
    """The hand-transcribed closed forms shared with the test suite."""
    spec = importlib.util.spec_from_file_location("heatkernel_conftest",
                                                  ROOT / "tests" / "conftest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _draw(rng: random.Random, prime: int) -> Fraction:
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), prime)


def draw_params(rng: random.Random, R: int, S: int) -> taudarboux.ParamVector:
    """(1,1) goes through alpha/beta so the two-step transcription applies;
    order one needs r_1 only; higher orders get r_1..r_4."""
    if (R, S) == (1, 1):
        return taudarboux.ParamVector.from_alpha_beta(1, 1, _draw(rng, PRIMES[0]),
                                                      _draw(rng, PRIMES[1]))
    count = 1 if R + S == 1 else len(PRIMES)
    return taudarboux.ParamVector(R, S, [_draw(rng, p) for p in PRIMES[:count]])


def _kernel_failures(f, params, n: int, m: int) -> list[str]:
    """u(n,m,0) = delta_nm and deg beta_j <= 2 max(R,S) - 1."""
    out = []
    if (f.params, f.n, f.m) != (params, n, m):
        out.append(f"kernel is for {(f.n, f.m)}")
    u0 = f.beta(0).subs(Fraction(0))
    if u0 != (1 if n == m else 0):
        out.append(f"u(n,m,0) = {u0}")
    bound = max(2 * max(params.R, params.S) - 1, 0)
    if f.max_degree() > bound:
        out.append(f"beta degree {f.max_degree()} > {bound}")
    return out


# ---------------------------------------------------------------------------
# ladder: `heatkernel kernel` then `heatkernel operator`, one fresh vector per op
# ---------------------------------------------------------------------------


def ladder_inputs(seed: int) -> list:
    rng = random.Random(seed)
    inputs = []
    for R, S, count in LADDER:
        for _ in range(count):
            params = draw_params(rng, R, S)
            if (R, S) == (1, 1):
                alpha, beta = params.r[0], -4 * params.r[1]
                flags = [f"--alpha={alpha}", f"--beta={beta}"]
            else:
                flags = ["--r=" + ",".join(params.r_strings())]
            inputs.append((params, ["--R", str(R), "--S", str(S), *flags]))
    return inputs


def _cli(argv: list) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def ladder_run(inputs) -> Round:
    ops = []
    start = perf_counter()
    for params, flags in inputs:
        label = "heatkernel {kernel|operator} " + " ".join(flags)
        outputs, error = [], None
        t0 = perf_counter()
        try:
            for argv in (["kernel", *flags, "--n", "2", "--m", "0", "--format", "json"],
                         ["operator", *flags, "--format", "json"]):
                code, text = _cli(argv)
                if code != 0:
                    error = f"{argv[0]} exited {code}"
                    break
                outputs.append(text)
        except Exception as exc:    # a failed op is reported, the run goes on
            error = repr(exc)
        ops.append(Op(label, (perf_counter() - t0) * 1e3, outputs, error))
    return Round(perf_counter() - start, ops, {})


def _parse_kernel(text: str, params):
    data = json.loads(text)
    terms = {e["order"]: exactcore.Poly(kernel.T_VAR, [Fraction(c) for c in e["beta"]])
             for e in data["terms"]}
    return kernel.KernelFormula(params=params, n=data["n"], m=data["m"],
                                terms=terms, provenance={})


def _ladder_op_failures(op: Op, params, closed_forms) -> list[str]:
    """The printed kernel is certified by pde_residual against the operator
    that operator_build returns, so the printed operator must be exactly that
    operator's JSON."""
    f = _parse_kernel(op.output[0], params)
    L = taudarboux.operator_build(params)
    out = _kernel_failures(f, params, 2, 0)
    if not kernel.pde_residual(f).passed:
        out.append("PDE certificate fails")
    if json.loads(op.output[1]) != L.to_json():
        out.append("printed operator differs from operator_build")
    R, S, r1 = params.R, params.S, params.r[0]
    if (R, S) == (1, 0):
        ref = closed_forms.one_step_kernel(r1, 2, 0)
        if f.terms != {j: p for j, p in ref.items() if not p.is_zero()}:
            out.append("kernel differs from the one-step closed form")
        if L != taudarboux.darboux_one_step(r1):
            out.append("operator differs from the explicit Darboux step")
    elif (R, S) == (1, 1):
        ref = closed_forms.two_step_kernel(r1, -4 * params.r[1], 2, 0)
        if f.terms != {j: p for j, p in ref.items() if not p.is_zero()}:
            out.append("kernel differs from the two-step closed form")
    return out


def ladder_check(inputs, rnd: Round) -> tuple[list[str], dict]:
    closed_forms = _conftest()
    failures = []
    for (params, _), op in zip(inputs, rnd.ops):
        problems = [op.error] if op.error else _ladder_op_failures(op, params, closed_forms)
        if problems:
            failures.append(f"{op.label}: {'; '.join(problems)}")
    return failures, dict(NO_FLOAT_ERRORS)


# ---------------------------------------------------------------------------
# pde_grid: symbolic certificates over [-4,4]^2, sharing tau and Q per draw
# ---------------------------------------------------------------------------


def pde_inputs(seed: int) -> list:
    rng = random.Random(seed)
    return [draw_params(rng, R, S) for R, S in PDE_RUNGS]


def pde_run(inputs) -> Round:
    ops = []
    start = perf_counter()
    for params in inputs:
        for n, m in GRID:
            output, error = None, None
            t0 = perf_counter()
            try:
                f = kernel.assemble_kernel(params, n, m)
                output = (f, kernel.pde_residual(f))
            except Exception as exc:    # a failed op is reported, the run goes on
                error = repr(exc)
            ops.append(Op(f"pde_residual(assemble_kernel({params}, {n}, {m}))",
                          (perf_counter() - t0) * 1e3, output, error))
    return Round(perf_counter() - start, ops, {})


def pde_check(inputs, rnd: Round) -> tuple[list[str], dict]:
    failures = []
    sites = [(params, n, m) for params in inputs for n, m in GRID]
    for (params, n, m), op in zip(sites, rnd.ops):
        if op.error:
            problems = [op.error]
        else:
            f, rep = op.output
            problems = _kernel_failures(f, params, n, m)
            if not rep.passed:
                problems.append("PDE certificate fails")
        if problems:
            failures.append(f"{op.label}: {'; '.join(problems)}")
    return failures, dict(NO_FLOAT_ERRORS)


# ---------------------------------------------------------------------------
# oracle_grid: each kernel assembled once and evaluated many times
# ---------------------------------------------------------------------------


def oracle_inputs(seed: int):
    return draw_params(random.Random(seed), 1, 1)


def oracle_run(params) -> Round:
    ops = []
    start = perf_counter()
    try:
        report = oracle.compare_kernel_to_lattice(
            params, taudarboux.operator_build(params), GRID, LATTICE_TS,
            W=LATTICE_W, tolerance=TOL)
        formulas = {pair: kernel.assemble_kernel(params, *pair) for pair in GRID}
        quadratures = {
            (n, m, integrand): oracle.circle_quadrature(
                oracle.QuadratureSpec(integrand=integrand), params, n, m, t=QUAD_T)
            for n, m in QUAD_SITES for integrand in ("kernel", "kernel_adjoint")}
    except Exception as exc:    # every planned op fails with the set-up error
        ops = [Op(f"kernel_eval({params}, {n}, {m}, t={t})", 0.0, error=repr(exc))
               for n, m in GRID for t in EVAL_TS]
        return Round(perf_counter() - start, ops, {})
    for (n, m), f in formulas.items():
        for t in EVAL_TS:
            output, error = None, None
            t0 = perf_counter()
            try:
                output = kernel.kernel_eval(f, t)
            except Exception as exc:    # a failed op is reported, the run goes on
                error = repr(exc)
            ops.append(Op(f"kernel_eval({params}, {n}, {m}, t={t})",
                          (perf_counter() - t0) * 1e3, output, error))
    context = {"report": report, "formulas": formulas, "quadratures": quadratures}
    return Round(perf_counter() - start, ops, context)


def _mp(value: Fraction):
    return mpmath.mpf(value.numerator) / value.denominator


def _mp_kernel(f, t: float):
    """e^{-2t} sum_j beta_j(t) I_j(2t) and sum_j |beta_j(t)| e^{-2t} I_j(2t),
    from the exact beta_j at 40 digits."""
    with mpmath.workdps(40):
        tm = mpmath.mpf(t)
        value = scale = mpmath.mpf(0)
        for j, p in f.terms.items():
            beta = _mp(p.subs(Fraction(t)))
            bessel = mpmath.besseli(j, 2 * tm) * mpmath.exp(-2 * tm)
            value += beta * bessel
            scale += abs(beta) * bessel
        return float(value), float(scale)


def oracle_check(params, rnd: Round) -> tuple[list[str], dict]:
    """Lattice agreement at t <= 4, 40-digit agreement above, quadrature at
    t = 1, all at 1e-10.  The float oracles' error grows with the value, so
    their bound is 1e-10 max(1, |u|); the 40-digit bound is relative to
    sum_j |beta_j(t)| e^{-2t} I_j(2t)."""
    if not rnd.context:
        return [f"{op.label}: {op.error}" for op in rnd.ops], dict(NO_FLOAT_ERRORS)
    report, formulas = rnd.context["report"], rnd.context["formulas"]
    quadratures = rnd.context["quadratures"]
    lattice = {g: o for g, o in zip(report.grid, report.oracle)}
    max_abs = max_rel = 0.0
    failures = []
    kernel_problems = {pair: _kernel_failures(f, params, *pair) for pair, f in formulas.items()}
    ops = iter(rnd.ops)
    for (n, m) in GRID:
        for t in EVAL_TS:
            op = next(ops)
            if op.error:
                failures.append(f"{op.label}: {op.error}")
                continue
            problems = list(kernel_problems[(n, m)])
            if (n, m, t) in lattice:
                err = abs(op.output - lattice[(n, m, t)])
                max_abs = max(max_abs, err)
                if err > TOL * max(1.0, abs(op.output)):
                    problems.append(f"lattice error {err:.3e}")
            else:
                ref, scale = _mp_kernel(formulas[(n, m)], t)
                err = abs(op.output - ref)
                max_rel = max(max_rel, err / abs(ref) if ref else err)
                if err > TOL * scale:
                    problems.append(f"40-digit error {err:.3e}")
            if t == QUAD_T and (n, m) in QUAD_SITES:
                for integrand in ("kernel", "kernel_adjoint"):
                    err = abs(op.output - quadratures[(n, m, integrand)])
                    max_abs = max(max_abs, err)
                    if err > TOL * max(1.0, abs(op.output)):
                        problems.append(f"{integrand} quadrature error {err:.3e}")
            if problems:
                failures.append(f"{op.label}: {'; '.join(problems)}")
    return failures, {"oracle.max_abs_err": max_abs, "kernel.kernel_eval.max_rel_err": max_rel}


WORKLOADS = {
    "ladder": (ladder_inputs, ladder_run, ladder_check),
    "pde_grid": (pde_inputs, pde_run, pde_check),
    "oracle_grid": (oracle_inputs, oracle_run, oracle_check),
}
