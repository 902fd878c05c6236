"""posmap benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The measured processes get one BLAS thread,
POSMAP_THREADS unset (the falsifier's restart pool at its default) and
PYTHONPATH=src. Set-up is timed in fresh processes, from process start to
the first timed verdict, five times; the median is setup_s, and the last
process goes on to measure. The last stdout line is the result:
{"correct", "attempted", "failed", "metrics"} with the end-to-end metrics
(--trace 0) or the per-layer metrics (--trace 1). The line before it
records the machine and thread settings. Results and traced spans are also
written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("kpos-search", "corner-family", "certify", "cli")
SETUP_REPS = 5
DEADLINE_S = 170.0
END_TO_END = ("setup_s", "verdicts_per_s", "verdict_s_p50", "peak_rss_mib")
UNITS = {"setup_s": "s", "verdicts_per_s": "1/s", "verdict_s_p50": "s", "peak_rss_mib": "MiB"}


def measured_env() -> dict:
    env = dict(os.environ)
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    env["MKL_NUM_THREADS"] = "1"
    env.pop("POSMAP_THREADS", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_worker(args, rep: int, final: bool, deadline: float) -> tuple[float, dict | None]:
    """Start a worker, time it to READY, then let it measure (final) or exit."""
    workdir = OUT / f"work-{args.workload}-{os.getpid()}-{rep}"
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", str(workdir),
    ]
    if args.trace:
        cmd += ["--spans", str(OUT / f"spans-{args.workload}.npz")]
    env = measured_env()
    t0 = perf_counter()
    # its own process group, so a kill also ends the CLI processes it started
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        text=True, start_new_session=True,
    )

    def kill():
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    watchdog = threading.Timer(max(1.0, deadline - perf_counter()), kill)
    watchdog.start()
    try:
        line = proc.stdout.readline()
        setup_s = perf_counter() - t0
        if line.strip() != "READY":
            raise RuntimeError(f"worker did not finish set-up: {line!r}")
        out, _ = proc.communicate("go\n" if final else "exit\n")
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited with {proc.returncode}")
        return setup_s, (json.loads(out.strip().splitlines()[-1]) if final else None)
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            kill()
        proc.wait()
        shutil.rmtree(workdir, ignore_errors=True)  # left behind when the worker was killed


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "posmap" / "__init__.py").is_file():
        print(f"error: no posmap sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # run the clean-up below

    deadline = perf_counter() + DEADLINE_S
    setups, result = [], None
    try:
        for rep in range(1 if args.trace else SETUP_REPS):
            final = rep == (0 if args.trace else SETUP_REPS - 1)
            setup_s, res = run_worker(args, rep, final, deadline)
            setups.append(setup_s)
            result = res if final else result
    except (RuntimeError, ValueError, OSError) as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        metrics = result["per_layer"]
    else:
        values = dict(result["end_to_end"], setup_s=statistics.median(setups))
        metrics = {name: {"value": values[name], "unit": UNITS[name]} for name in END_TO_END}
    line = {
        "correct": not result["wrong"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    record = dict(
        args=vars(args), setup_s_runs=setups,
        **{k: result[k] for k in ("env", "rounds", "wall_s", "verdict_s", "wrong", "known_faults")},
        **({"end_to_end": result["end_to_end"]} if args.trace else {}), result=line,
    )
    with open(OUT / f"result-{args.workload}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"env": result["env"], "known_faults": result["known_faults"]}))
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
