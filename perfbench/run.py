"""Benchmark of the heatkernel exact pipeline, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workloads are `ladder`, `pde_grid` and
`oracle_grid` (see perfbench/README.md).  Every round of a workload runs in a
fresh single-threaded interpreter (perfbench/worker.py) and rounds repeat
until `--seconds` would be exceeded.  The first round and every traced round
check every op's output; each other round must give byte-identical outputs,
compared by digest, or all of its ops count as failed.  Before the rounds, a
few interpreters only import heatkernel, to sample set-up time.

With `--trace 0` the last line of standard output is one JSON object with
the end-to-end metrics named in BENCHMARK.json; with `--trace 1` rounds
alternate untraced and traced and the object holds the per-layer metrics,
including the tracing overhead.  The line before it holds context that is
not a metric: the host calibration time (`host.calib_ms`, a fixed pure
Fraction loop timed at the start and end of the run), `fail_ratio`, and the
round and sample counts.  Failed ops are listed on standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import monotonic, perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("ladder", "pde_grid", "oracle_grid")
SETUP_PROBES = 3
RUN_LIMIT_S = 170.0
# one process, one thread: no BLAS pool, no heatkernel verify threads
WORKER_ENV = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                  MKL_NUM_THREADS="1", HEATKERNEL_THREADS="1", PYTHONHASHSEED="0")


class BenchError(RuntimeError):
    pass


def calibrate_ms(reps: int = 5) -> float:
    """Median time of a fixed pure-Fraction loop; no heatkernel code."""
    times = []
    for _ in range(reps):
        start = perf_counter()
        acc = Fraction(0)
        for i in range(1, 4000):
            acc += Fraction(i % 7 - 3, i)
        times.append((perf_counter() - start) * 1e3)
    return statistics.median(times)


def worker(args: list, deadline: float) -> dict:
    """Run perfbench/worker.py; return its JSON and the set-up time."""
    timeout = deadline - monotonic()
    if timeout <= 0:
        raise BenchError("no time left for another round")
    started = monotonic()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                              cwd=ROOT, env=WORKER_ENV, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args} timed out") from exc
    ended = monotonic()
    if proc.returncode != 0:
        raise BenchError(f"worker {args} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["setup_s"] = result["imported"] - started
    result["wall_s"] = ended - started
    return result


def solve_s(rounds: list) -> float:
    """Median time of each op position across rounds, summed, plus the median
    time between ops: a slow spell of the host in one round is dropped."""
    per_op = [statistics.median(times) for times in zip(*(r["op_ms"] for r in rounds))]
    between = statistics.median(r["solve_s"] - sum(r["op_ms"]) / 1e3 for r in rounds)
    return sum(per_op) / 1e3 + between


def measure(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict, list]:
    start = monotonic()
    hard_deadline = start + RUN_LIMIT_S
    calib_start = calibrate_ms()
    worker(["--probe"], hard_deadline)      # writes bytecode caches; not sampled
    setups = [worker(["--probe"], hard_deadline)["setup_s"] for _ in range(SETUP_PROBES)]
    deadline = monotonic() + seconds
    # a traced run makes its rounds in pairs: untraced, then traced
    modes = (False, True) if trace else (False,)
    rounds = []
    while True:
        for traced in modes:
            args = ["--workload", workload, "--seed", str(seed)]
            checked = traced or not rounds
            result = worker(args + ["--check"] * checked + ["--traced"] * traced,
                            hard_deadline)
            result["traced"] = traced
            if not checked and result["digest"] == rounds[0]["digest"]:
                # same outputs as the checked first round, same verdicts
                result["failures"] = rounds[0]["failures"]
            elif not checked:
                result["failures"] = [f"round {len(rounds)}: output differs from round 0"] \
                    * len(result["op_ms"])
            rounds.append(result)
        if monotonic() + sum(r["wall_s"] for r in rounds[-len(modes):]) > deadline:
            break
    calib_end = calibrate_ms()

    plain = [r for r in rounds if not r["traced"]]
    traced_rounds = [r for r in rounds if r["traced"]]
    op_ms = [ms for r in plain for ms in r["op_ms"]]
    failures = [f for r in rounds for f in r["failures"]]
    attempted = sum(len(r["op_ms"]) for r in rounds)
    setups += [r["setup_s"] for r in rounds]
    solve = solve_s(plain)
    if trace:
        metrics = {name: statistics.median(r["layers"][name] for r in traced_rounds)
                   for name in traced_rounds[0]["layers"]}
        metrics["trace.overhead_s"] = solve_s(traced_rounds) - solve
    else:
        metrics = {
            "solve_s": solve,
            "op_p50_ms": statistics.median(op_ms),
            "op_p90_ms": statistics.quantiles(op_ms, n=10)[8],
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }
    context = {
        "host.calib_ms": {"start": calib_start, "end": calib_end},
        "fail_ratio": len(failures) / attempted,
        "rounds": len(rounds),
        "traced_rounds": len(traced_rounds),
        "op_samples": len(op_ms),
        "setup_samples": len(setups),
        "attempted": attempted,
        "failed": len(failures),
    }
    return metrics, context, failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1,
                        help="input seed (default 1; seed 7 is held out)")
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "heatkernel" / "__init__.py").is_file():
        print(f"perfbench: no heatkernel sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    try:
        measured, context, failures = measure(args.workload, args.seed, args.seconds,
                                              bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        print(f"perfbench: not measured: {missing}", file=sys.stderr)
        return 1
    for line in dict.fromkeys(failures):
        print(f"FAILED {line}", file=sys.stderr)
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, entry in metrics.items():
        print(f"{args.workload} {name} = {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({"context": context}))
    print(json.dumps({"correct": not failures, "attempted": context["attempted"],
                      "failed": context["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
