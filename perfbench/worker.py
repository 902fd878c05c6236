"""One measuring process: set up a workload, then run and check its verdicts.

Started by run.py, which times set-up from process start to the READY line.
The worker then waits for "go" (measure) or "exit" (set-up timing only) on
stdin. With tracing it measures exactly one round, so counts repeat exactly
for a seed; otherwise it repeats whole rounds while the next one is expected
to end within --seconds and the run stays under forty verdicts. The last
stdout line is a JSON object for run.py.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
from time import perf_counter

MAX_VERDICTS = 39  # fewer than forty samples: the median is the only percentile reported


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {
            var: os.environ.get(var)
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "POSMAP_THREADS")
        },
    }


def measure(round_, seconds: float, tracer) -> dict:
    times, failed, wrong, faults = [], 0, [], set()
    rounds, wall = 0, 0.0
    while True:
        start = perf_counter()
        for v in round_:
            if tracer:
                tracer.active = True
            t0 = perf_counter()
            try:
                out, error = v.run(), None
            except Exception as exc:  # a verdict that raises is a failed verdict
                out, error = None, f"{type(exc).__name__}: {exc}"
            times.append(perf_counter() - t0)
            if tracer:
                tracer.active = False
            try:
                problems = [error] if error else v.check(out)
            except Exception as exc:  # so is one whose output the check cannot read
                problems = [f"check raised {type(exc).__name__}: {exc}"]
            if problems:
                failed += 1
                if v.known_fault:
                    faults.add(v.known_fault)
                else:
                    wrong.append({"verdict": v.label, "problems": problems})
        rounds += 1
        round_s = perf_counter() - start
        wall += round_s
        if tracer or wall + round_s > seconds or (rounds + 1) * len(round_) > MAX_VERDICTS:
            break
    return {
        "attempted": len(times),
        "failed": failed,
        "rounds": rounds,
        "wall_s": wall,
        "verdict_s": times,
        "wrong": wrong,
        "known_faults": sorted(faults),
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args()

    t0 = perf_counter()
    import posmap.cli  # noqa: F401  (the whole package, as every CLI process imports it)

    import_s = perf_counter() - t0
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.active = True
    import workloads

    os.makedirs(args.workdir)
    try:
        ctx = workloads.Context(seed=args.seed, workdir=args.workdir, trace=bool(args.trace))
        round_ = workloads.WORKLOADS[args.workload](ctx)
        if tracer:
            tracer.active = False
        print("READY", flush=True)
        if sys.stdin.readline().strip() != "go":
            return 0
        result = measure(round_, args.seconds, tracer)
        times = result["verdict_s"]
        is_cli = args.workload == "cli"
        usage = resource.getrusage(resource.RUSAGE_CHILDREN if is_cli else resource.RUSAGE_SELF)
        result["end_to_end"] = {
            "verdicts_per_s": len(times) / sum(times),
            "verdict_s_p50": statistics.median(times),
            "peak_rss_mib": usage.ru_maxrss / 1024.0,
        }
        if tracer:
            from tracer import layer_metrics, merge_totals

            own = tracer.raw_totals()
            if is_cli:
                totals = merge_totals([own] + ctx.child_totals)
            else:
                totals = dict(own, **{"cli.import_s": import_s})
            result["per_layer"] = layer_metrics(totals)
            if args.spans:
                tracer.write_spans(args.spans)
        result["env"] = environment()
        for w in result["wrong"]:
            print(f"verdict {w['verdict']} failed its check: {w['problems']}", file=sys.stderr)
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
