"""Command line surface: build kernels, dump tables, run verification suites.

Subcommands: kernel, tau, operator, bessel, verify.  Parameters are exact
rationals ("p/q" strings); floating-point parameter values are rejected so
the symbolic pipeline stays exact end to end.  Identical invocations produce
byte-identical output (text output carries one version header line).

Exit codes: 0 success, 1 failed verification, 2 singular tau,
3 internal-inconsistency guard, 64 usage error (also a lattice window --W
too small for the sites and times asked of `verify --mode oracle`).
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from fractions import Fraction
from functools import lru_cache

from . import __version__
from .bessel import bessel_row, identity_residuals
from .exactcore import rat
from .kernel import (
    InternalInconsistency,
    assemble_kernel,
    decomposition_residual,
    pde_residual,
)
from .oracle import WindowTooSmall, compare_kernel_to_lattice, orthogonality_gram
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


def _parse_time(text: str, positive: bool = True) -> float:
    """One --t value: a finite number, above zero (or at least zero)."""
    try:
        t = float(Fraction(text)) if _RATIONAL_RE.match(text) else float(text)
    except (ValueError, ZeroDivisionError):
        t = math.nan
    if math.isinf(t) or not (t > 0 if positive else t >= 0):
        kind = "positive" if positive else "nonnegative"
        raise UsageError(f"--t must be a {kind} finite number, got {text!r}")
    return t


def _check_counts(args) -> None:
    """The integer flags --range, --kmax, --W and --T at or above their floor."""
    for flag, low in (("range", 0), ("kmax", 0), ("W", 0), ("T", 1)):
        value = getattr(args, flag, None)
        if value is not None and value < low:
            raise UsageError(f"--{flag} must be at least {low}, got {value}")


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


@lru_cache(maxsize=1)
def _config_parser() -> argparse.ArgumentParser:
    pre = argparse.ArgumentParser(add_help=False, exit_on_error=False)
    pre.add_argument("--config")
    return pre


def _config_path(argv: list[str]) -> str | None:
    """The --config value in argv as argparse reads it, also spelled
    --config=FILE or abbreviated; None when absent or given no value, which
    the full parser then reports."""
    try:
        return _config_parser().parse_known_args(argv)[0].config
    except argparse.ArgumentError:
        return None


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
    if _config_path(tokens) is not None:
        raise UsageError(f"a config file cannot name another: {path}")
    return tokens


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--config", help="flat key=value file mirroring the flags")
    p.add_argument("--R", type=int, default=0, help="Darboux steps at spectrum end 0")
    p.add_argument("--S", type=int, default=0, help="Darboux steps at spectrum end -4")
    p.add_argument("--r", help="comma list of rational parameters r_1,r_2,...")
    p.add_argument("--alpha", help="rational alpha (sets r_1)")
    p.add_argument("--beta", help="rational beta (sets r_2 = -beta/4)")


@lru_cache(maxsize=1)
def make_parser() -> _Parser:
    """Built on first use and reused; it prints to the sys.stdout/stderr of the moment."""
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
    v.add_argument("--format", choices=["json", "text"], default="text")
    return top


def cmd_kernel(args) -> int:
    formula = assemble_kernel(build_params(args), args.n, args.m)
    if args.format == "text":
        _emit([f"# heatkernel {__version__}", formula.to_text()])
    elif args.format == "latex":
        _emit([formula.to_latex()])
    elif args.format == "json":
        _emit([json.dumps(formula.to_json(), indent=2)])
    else:
        _emit(["order,beta", *(f"{j},\"{';'.join(formula.terms[j].to_strings())}\""
                               for j in formula.support)])
    return EXIT_OK


def cmd_tau(args) -> int:
    params = build_params(args)
    tau = tau_build(params)
    rows = [(n, tau.value(n)) for n in range(-args.range, args.range + 1)]
    if args.format == "csv":
        _emit(["n,tau,flag", *(f"{n},{value},{'SINGULAR' if value == 0 else ''}"
                               for n, value in rows)])
    else:
        _emit([json.dumps([{"n": n, "tau": str(value), "singular": value == 0}
                           for n, value in rows], indent=2)])
    return EXIT_OK


def cmd_operator(args) -> int:
    params = build_params(args)
    L = operator_build(params)
    if args.at is not None:
        values = [(j, L.coeff_at(j, args.at)) for j in sorted(L.coeffs)]
        if args.format == "json":
            _emit([json.dumps({str(j): str(v) for j, v in values}, indent=2)])
        else:
            _emit(["shift,value", *(f"{j},{v}" for j, v in values)])
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
    t = _parse_time(args.t)
    row = bessel_row(t, args.kmax)
    if args.format == "csv":
        _emit(["k,t,scaled", *(f"{k},{t!r},{row.scaled(k)!r}" for k in range(args.kmax + 1))])
    else:
        _emit([json.dumps({"t": t, "scaled": list(row.values)})])
    return EXIT_OK


def _verify_report(args, passed: bool, detail: dict) -> int:
    if args.format == "json":
        _emit([json.dumps(dict(detail, mode=args.mode,
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
    ts = [_parse_time(piece.strip(), positive=args.mode != "oracle")
          for piece in args.t.split(",") if piece.strip()]

    if args.mode == "pde":
        if args.range is not None:
            pairs = [(n, m) for n in range(-args.range, args.range + 1)
                     for m in range(-args.range, args.range + 1)]
        else:
            pairs = [(args.n, args.m)]
        reports = [(pair, pde_residual(assemble_kernel(params, *pair))) for pair in pairs]
        failures = [(pair, rep) for pair, rep in reports if not rep.passed]
        detail = {"pairs": len(pairs), "failures": len(failures)}
        if failures:
            (n, m), rep = failures[0]
            detail["first_failure"] = f"(n={n}, m={m}) I0: {rep.residual_I0} I1: {rep.residual_I1}"
        return _verify_report(args, not failures, detail)

    if args.mode == "oracle":
        half = args.range if args.range is not None else 4
        tol = args.tol if args.tol is not None else 1e-10
        pairs = [(n, m) for n in range(-half, half + 1) for m in range(-half, half + 1)]
        report = compare_kernel_to_lattice(params, operator_build(params),
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
        tau = ensure_regular(params)
        G = orthogonality_gram(params, size)
        worst, first = 0.0, None
        for i in range(size):
            for j in range(size):
                value = float(G[i, j])
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
    path = _config_path(argv[1:])
    if path is not None:
        try:
            tokens = _load_config(path)
        except OSError as exc:
            print(f"heatkernel: cannot read config: {exc}", file=sys.stderr)
            return EXIT_USAGE
        except UsageError as exc:
            print(f"heatkernel: {exc}", file=sys.stderr)
            return EXIT_USAGE
        argv = argv[:1] + tokens + argv[1:]
    args = make_parser().parse_args(argv)
    try:
        _check_counts(args)
        return _COMMANDS[args.command](args)
    except (UsageError, WindowTooSmall) as exc:
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
