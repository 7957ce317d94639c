"""Command line surface: build kernels, dump tables, run verification suites.

Subcommands: kernel, tau, operator, bessel, verify.  Parameters are exact
rationals ("p/q" strings); floating-point parameter values are rejected so
the symbolic pipeline stays exact end to end.  Identical invocations produce
byte-identical output (text output carries one version header line).

Exit codes: 0 success, 1 failed verification, 2 singular tau,
3 internal-inconsistency guard, 64 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

from . import __version__
from .bessel import bessel_row, identity_residuals
from .exactcore import rat
from .kernel import (
    InternalInconsistency,
    assemble_kernel,
    decomposition_residual,
    pde_residual,
)
from .oracle import (
    QuadratureSpec,
    circle_quadrature,
    compare_kernel_to_lattice,
)
from .taudarboux import (
    ParamVector,
    SingularTau,
    ensure_regular,
    operator_build,
    tau_build,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_SINGULAR = 2
EXIT_INCONSISTENT = 3
EXIT_USAGE = 64

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(EXIT_USAGE)


def _parse_rational(text: str) -> Fraction:
    if not _RATIONAL_RE.match(text.strip()):
        raise UsageError(f"parameters must be exact rationals 'p/q', got {text!r}")
    return rat(text.strip())


def _parse_rational_list(text: str) -> list[Fraction]:
    return [_parse_rational(piece) for piece in text.split(",") if piece.strip()]


def _parse_float_list(text: str) -> list[float]:
    return [float(piece) for piece in text.split(",") if piece.strip()]


def worker_count() -> int:
    env = os.environ.get("HEATKERNEL_THREADS")
    if env:
        return max(1, int(env))
    return min(8, os.cpu_count() or 1)


def _pmap(fn, items):
    items = list(items)
    workers = worker_count()
    if workers == 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def build_params(args) -> ParamVector:
    has_r = getattr(args, "r", None) is not None
    has_ab = getattr(args, "alpha", None) is not None or getattr(args, "beta", None) is not None
    if has_r and has_ab:
        raise UsageError("give either --r or the --alpha/--beta pair, not both")
    if has_ab:
        if args.alpha is None or args.beta is None:
            raise UsageError("--alpha and --beta must be given together")
        return ParamVector.from_alpha_beta(args.R, args.S,
                                           _parse_rational(args.alpha),
                                           _parse_rational(args.beta))
    r = _parse_rational_list(args.r) if has_r else []
    return ParamVector(args.R, args.S, r)


def _emit(lines) -> None:
    sys.stdout.write("\n".join(lines) + "\n")


def _load_config(path: str) -> list[str]:
    tokens = []
    with open(path) as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise UsageError(f"malformed config line: {raw.rstrip()}")
            key, value = (part.strip() for part in line.split("=", 1))
            tokens.extend([f"--{key}", value])
    return tokens


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--config", help="flat key=value file mirroring the flags")
    p.add_argument("--R", type=int, default=0, help="Darboux steps at spectrum end 0")
    p.add_argument("--S", type=int, default=0, help="Darboux steps at spectrum end -4")
    p.add_argument("--r", help="comma list of rational parameters r_1,r_2,...")
    p.add_argument("--alpha", help="rational alpha (sets r_1)")
    p.add_argument("--beta", help="rational beta (sets r_2 = -beta/4)")
    p.add_argument("--window", type=int, default=512, help="tau regularity half-width")


def make_parser() -> _Parser:
    top = _Parser(prog="heatkernel",
                  description="exact lattice heat kernels for Darboux-transformed Laplacians")
    top.add_argument("--version", action="version", version=f"heatkernel {__version__}")
    sub = top.add_subparsers(dest="command", required=True)

    k = sub.add_parser("kernel", parents=[], help="assemble and print a closed-form kernel")
    _add_common(k)
    k.add_argument("--n", type=int, required=True)
    k.add_argument("--m", type=int, required=True)
    k.add_argument("--format", choices=["json", "latex", "csv", "text"], default="text")

    t = sub.add_parser("tau", help="tabulate tau(n)")
    _add_common(t)
    t.add_argument("--range", type=int, default=5, help="dump n in [-range, range]")
    t.add_argument("--format", choices=["json", "csv"], default="csv")

    o = sub.add_parser("operator", help="dump the band operator")
    _add_common(o)
    o.add_argument("--at", type=int, help="evaluate coefficients at this site")
    o.add_argument("--format", choices=["json", "csv"], default="csv")

    b = sub.add_parser("bessel", help="dump scaled Bessel rows e^{-t} I_k(t)")
    b.add_argument("--config", help="flat key=value file mirroring the flags")
    b.add_argument("--t", required=True, help="argument t > 0")
    b.add_argument("--kmax", type=int, default=10)
    b.add_argument("--format", choices=["json", "csv"], default="csv")

    v = sub.add_parser("verify", help="run a verification suite")
    _add_common(v)
    v.add_argument("--mode", choices=["pde", "oracle", "orth", "decomp", "identities"],
                   required=True)
    v.add_argument("--n", type=int, default=0)
    v.add_argument("--m", type=int, default=0)
    v.add_argument("--range", type=int, help="grid half-width (pde/oracle) or size (orth)")
    v.add_argument("--t", help="comma list of times", default="0.5,1,2")
    v.add_argument("--tol", type=float, help="tolerance override")
    v.add_argument("--W", type=int, default=200, help="lattice window half-width")
    v.add_argument("--k", type=int, default=0, help="offset k for decomp mode")
    v.add_argument("--T", type=int, default=1, help="interpolation size for decomp mode")
    v.add_argument("--seed", type=int, default=0,
                   help="seed recorded with the report (all modes are deterministic)")
    v.add_argument("--format", choices=["json", "text"], default="text")
    return top


def cmd_kernel(args) -> int:
    params = build_params(args)
    ensure_regular(params, args.window)
    formula = assemble_kernel(params, args.n, args.m)
    if args.format == "text":
        _emit([f"# heatkernel {__version__}", formula.to_text()])
    elif args.format == "latex":
        _emit([formula.to_latex()])
    elif args.format == "json":
        _emit([json.dumps(formula.to_json(), indent=2)])
    else:
        lines = ["order,beta"]
        for j in formula.support:
            lines.append(f"{j},\"{';'.join(formula.terms[j].to_strings())}\"")
        _emit(lines)
    return EXIT_OK


def cmd_tau(args) -> int:
    params = build_params(args)
    tau = tau_build(params)
    rows = []
    for n in range(-args.range, args.range + 1):
        value = tau.value(n)
        rows.append((n, value, value == 0))
    if args.format == "csv":
        lines = ["n,tau,flag"]
        for n, value, singular in rows:
            lines.append(f"{n},{value},{'SINGULAR' if singular else ''}")
        _emit(lines)
    else:
        _emit([json.dumps([
            {"n": n, "tau": str(value), "singular": singular}
            for n, value, singular in rows
        ], indent=2)])
    return EXIT_OK


def cmd_operator(args) -> int:
    params = build_params(args)
    L = operator_build(params, args.window)
    if args.at is not None:
        lines = ["shift,value"]
        for j in sorted(L.coeffs):
            lines.append(f"{j},{L.coeff_at(j, args.at)}")
        if args.format == "json":
            _emit([json.dumps({str(j): str(L.coeff_at(j, args.at))
                               for j in sorted(L.coeffs)}, indent=2)])
        else:
            _emit(lines)
    else:
        if args.format == "json":
            _emit([json.dumps(L.to_json(), indent=2)])
        else:
            lines = ["shift,num,den"]
            for entry in L.to_json()["coeffs"]:
                lines.append(f"{entry['shift']},\"{';'.join(entry['num'])}\","
                             f"\"{';'.join(entry['den'])}\"")
            _emit(lines)
    return EXIT_OK


def cmd_bessel(args) -> int:
    t = float(Fraction(args.t)) if _RATIONAL_RE.match(args.t) else float(args.t)
    if t <= 0:
        raise UsageError("--t must be positive")
    row = bessel_row(t, args.kmax)
    if args.format == "csv":
        lines = ["k,t,scaled"]
        for k in range(args.kmax + 1):
            lines.append(f"{k},{t!r},{row.scaled(k)!r}")
        _emit(lines)
    else:
        _emit([json.dumps({"t": t, "scaled": list(row.values)})])
    return EXIT_OK


def _verify_report(args, passed: bool, detail: dict) -> int:
    if args.format == "json":
        _emit([json.dumps(dict(detail, mode=args.mode, seed=args.seed,
                               **{"pass": passed}), indent=2, default=str)])
    else:
        lines = [f"# heatkernel {__version__}",
                 f"verify mode={args.mode}: {'PASS' if passed else 'FAIL'}"]
        for key, value in detail.items():
            lines.append(f"  {key} = {value}")
        _emit(lines)
    return EXIT_OK if passed else EXIT_FAIL


def cmd_verify(args) -> int:
    params = build_params(args)
    ts = _parse_float_list(args.t)

    if args.mode == "pde":
        ensure_regular(params, args.window)
        if args.range is not None:
            pairs = [(n, m) for n in range(-args.range, args.range + 1)
                     for m in range(-args.range, args.range + 1)]
        else:
            pairs = [(args.n, args.m)]

        def run(pair):
            rep = pde_residual(assemble_kernel(params, pair[0], pair[1]))
            return pair, rep

        failures = [(pair, rep) for pair, rep in _pmap(run, pairs) if not rep.passed]
        detail = {"pairs": len(pairs), "failures": len(failures)}
        if failures:
            (n, m), rep = failures[0]
            detail["first_failure"] = f"(n={n}, m={m}) I0: {rep.residual_I0} I1: {rep.residual_I1}"
        return _verify_report(args, not failures, detail)

    if args.mode == "oracle":
        half = args.range if args.range is not None else 4
        tol = args.tol if args.tol is not None else 1e-10
        pairs = [(n, m) for n in range(-half, half + 1) for m in range(-half, half + 1)]
        report = compare_kernel_to_lattice(params, operator_build(params, args.window),
                                           pairs, ts, W=args.W, tolerance=tol)
        detail = {"max_abs": report.max_abs, "max_rel": report.max_rel,
                  "tolerance": report.tolerance, "points": len(report.grid)}
        if not report.passed:
            worst = max(range(len(report.grid)),
                        key=lambda i: abs(report.closed[i] - report.oracle[i]))
            detail["first_failure"] = (f"grid={report.grid[worst]} closed={report.closed[worst]!r} "
                                       f"oracle={report.oracle[worst]!r}")
        return _verify_report(args, report.passed, detail)

    if args.mode == "orth":
        size = (args.range if args.range is not None else 5) + 1
        tol = args.tol if args.tol is not None else 1e-10
        tau = ensure_regular(params, args.window)
        spec = QuadratureSpec(integrand="orthogonality")

        def entry(pair):
            i, j = pair
            return circle_quadrature(spec, params, i, j)

        pairs = [(i, j) for i in range(size) for j in range(size)]
        values = _pmap(entry, pairs)
        worst = 0.0
        first = None
        for (i, j), value in zip(pairs, values):
            expect = float(tau.ratio(i + 1, i)) if i == j else 0.0
            err = abs(value - expect)
            if err > worst:
                worst, first = err, (i, j, value, expect)
        passed = worst <= tol
        detail = {"size": size, "max_err": worst, "tolerance": tol}
        if not passed:
            detail["first_failure"] = f"(n={first[0]}, m={first[1]}) value={first[2]!r} expect={first[3]!r}"
        return _verify_report(args, passed, detail)

    if args.mode == "decomp":
        tol = args.tol if args.tol is not None else 1e-10
        worst = max(decomposition_residual(args.k, args.T, t) for t in ts)
        detail = {"k": args.k, "T": args.T, "max_err": worst, "tolerance": tol}
        return _verify_report(args, worst <= tol, detail)

    if args.mode == "identities":
        worst: dict = {}
        for t in ts:
            for key, value in identity_residuals(t).items():
                worst[key] = max(worst.get(key, 0.0), value)
        limits = {"recurrence": 1e-12, "derivative": 1e-8, "ode": 1e-7,
                  "generating": 1e-12}
        passed = all(worst[key] <= limits[key] for key in limits)
        detail = dict(worst)
        detail["limits"] = limits
        return _verify_report(args, passed, detail)

    raise UsageError(f"unknown mode {args.mode!r}")


_COMMANDS = {
    "kernel": cmd_kernel,
    "tau": cmd_tau,
    "operator": cmd_operator,
    "bessel": cmd_bessel,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # config tokens go right after the subcommand so explicit flags win
    if "--config" in argv:
        at = argv.index("--config")
        try:
            tokens = _load_config(argv[at + 1])
        except (OSError, IndexError) as exc:
            print(f"heatkernel: cannot read config: {exc}", file=sys.stderr)
            return EXIT_USAGE
        except UsageError as exc:
            print(f"heatkernel: {exc}", file=sys.stderr)
            return EXIT_USAGE
        argv = argv[:1] + tokens + argv[1:]
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"heatkernel: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SingularTau as exc:
        print(f"heatkernel: singular tau: {exc}", file=sys.stderr)
        return EXIT_SINGULAR
    except InternalInconsistency as exc:
        print(f"heatkernel: internal inconsistency: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT


if __name__ == "__main__":
    sys.exit(main())
