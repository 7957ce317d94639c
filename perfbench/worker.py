"""One benchmark round in a fresh interpreter, so every module-level cache
of heatkernel starts empty as it does for a CLI call.

    python3 perfbench/worker.py --workload NAME --seed N [--check] [--traced]
    python3 perfbench/worker.py --probe

Prints one JSON line: the monotonic clock reading right after
`import heatkernel` returned, and for a round its solve time, op latencies,
a digest of every op's output, peak resident memory before the checks and,
with `--check`, the failed ops and the error figures of the checks; when
traced, also the per-layer figures.  `--probe` stops after the import.
heatkernel is imported from the `src` directory next to this one.
"""

import os
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
sys.path.insert(0, SRC)

import heatkernel  # noqa: E402

IMPORTED = time.monotonic()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--check", action="store_true")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args()
    if not os.path.abspath(heatkernel.__file__).startswith(SRC + os.sep):
        print(f"heatkernel imported from {heatkernel.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.probe:
        print(json.dumps({"imported": IMPORTED}))
        return 0

    import tracing
    from workloads import WORKLOADS

    tracer = probe = None
    if args.traced:
        tracer, probe = tracing.Tracer(), tracing.LayerProbe()
        tracing.install(tracer, tracing.TARGETS, probe.observers())
    make_inputs, run, check = WORKLOADS[args.workload]
    inputs = make_inputs(args.seed)
    rnd = run(inputs)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.enabled = False
    failures, figures = check(inputs, rnd) if args.check else ([], {})
    digest = hashlib.sha256()
    for op in rnd.ops:
        digest.update(f"{op.output!r} {op.error!r}\n".encode())
    if tracer is not None:
        figures.update(tracing.layer_metrics(tracer, probe))
    print(json.dumps({
        "imported": IMPORTED,
        "solve_s": rnd.solve_s,
        "op_ms": [op.ms for op in rnd.ops],
        "digest": digest.hexdigest(),
        "failures": failures,
        "peak_rss_mb": peak_rss_mb,
        "layers": figures if tracer is not None else {},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
