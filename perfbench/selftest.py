"""Self-test of the benchmark's checks: each must accept a genuine verdict
and reject a deliberately wrong one.

    python3 perfbench/selftest.py

Runs in a few seconds on small inputs; exits 1 if any check lets a wrong
answer through.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import posmap  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402

FAILURES = []


def expect(name: str, problems: list, wrong: bool, because: str = "") -> None:
    """A wrong answer must be rejected, for the named reason when one is given."""
    ok = bool(problems) == wrong and (not because or any(because in p for p in problems))
    if not ok:
        FAILURES.append(name)
    verdict = "rejected" if problems else "accepted"
    print(f"{'PASS' if ok else 'FAIL'} {name}: {verdict}" + (f" ({'; '.join(problems)})" if problems else ""))


def kpos() -> None:
    rng = np.random.default_rng(0)
    restarts = 8
    for side in ("above", "below"):
        choi, floor = workloads.near_threshold_case(rng, 3, 1, side, 1.0)
        alg = posmap.FiniteCStar((3,))
        phi = posmap.PMap.from_choi(alg, alg, [choi])
        case = SimpleNamespace(kind=side, k=1, choi=choi, floor=floor, psd=checks.is_psd(choi))
        v = posmap.k_positivity_falsify(phi, 1, restarts=restarts, seed=0)
        expect(f"kpos {side}: genuine {v.status}", checks.kpos_problems(case, v, restarts), False)
        expect(f"kpos {side}: CERTIFIED_POSITIVE on a non-PSD map",
               checks.kpos_problems(case, dataclasses.replace(v, status=checks.CERTIFIED_POSITIVE, witness=None), restarts), True)
        if side == "above":
            w = v.witness
            forged = dataclasses.replace(w, value=w.value + 1e-6)
            expect("kpos above: forged witness value",
                   checks.kpos_problems(case, dataclasses.replace(v, witness=forged, best_value=forged.value), restarts),
                   True, "disagrees")
            long = dataclasses.replace(w, factors_left=w.factors_left * 2, factors_right=w.factors_right * 2)
            expect("kpos above: witness with more than k factors",
                   checks.kpos_problems(case, dataclasses.replace(v, witness=long), restarts), True)
            scaled = dataclasses.replace(w, factors_left=tuple(1.01 * a for a in w.factors_left))
            expect("kpos above: witness not of unit norm",
                   checks.kpos_problems(case, dataclasses.replace(v, witness=scaled), restarts), True)
            expect("kpos above: UNFALSIFIED on a violated map",
                   checks.kpos_problems(case, dataclasses.replace(v, status="UNFALSIFIED", witness=None), restarts), True)
        else:
            expect("kpos below: best_value under the positive floor",
                   checks.kpos_problems(case, dataclasses.replace(v, best_value=floor * 0.5), restarts), True)


def family() -> None:
    p = SimpleNamespace(n=3, m=115, k=1, lam=1.4, eps=0.05, samples=1)
    r = posmap.verify_corner_family(p.n, p.m, p.k, p.lam, p.eps, seed=0, samples=1, restarts=8)
    expect("family m=115: genuine report", checks.family_problems(p, r), False)
    expect("family: lambda~ off by 1e-9",
           checks.family_problems(p, dataclasses.replace(r, mixing_parameter=r.mixing_parameter + 1e-9)), True,
           "lambda~")
    expect("family: crossing flag flipped",
           checks.family_problems(p, dataclasses.replace(r, exceeds_next_threshold=False)), True)
    expect("family: defect at 6 eps",
           checks.family_problems(p, dataclasses.replace(r, defect_max=6 * p.eps)), True)
    w = r.falsifier.witness
    forged = dataclasses.replace(r.falsifier, witness=dataclasses.replace(w, value=w.value * 0.9))
    expect("family: forged falsifier witness value",
           checks.family_problems(p, dataclasses.replace(r, falsifier=forged)), True, "disagrees")
    expect("family: crossing without a falsifier",
           checks.family_problems(p, dataclasses.replace(r, falsifier=None)), True)


def certify() -> None:
    rng = np.random.default_rng(0)
    reports = {}
    for kind, generator, legs in [("pass", "orderzero", 2), ("leg_scaled", "orderzero", 2),
                                  ("psi_scaled", "identity", 1), ("trace_leg", "orderzero", 2)]:
        cert, case = workloads.build_certificate(rng, 0, kind, generator, (2,), legs)
        rep = posmap.verify_certificate(cert, seed=0, samples=5)
        reports[kind] = (case, rep)
        expect(f"certify {kind}: genuine report", checks.certify_problems(case, rep), False)
        if kind != "pass":
            expect(f"certify {kind}: mutant reported as passing",
                   checks.certify_problems(case, dataclasses.replace(rep, overall=True)), True)
    case, rep = reports["pass"]
    expect("certify pass: sum_norm off by 1e-9",
           checks.certify_problems(case, dataclasses.replace(rep, sum_norm=rep.sum_norm + 1e-9)), True)
    expect("certify pass: caveat set", checks.certify_problems(case, dataclasses.replace(rep, caveat=True)), True)
    case, rep = reports["leg_scaled"]
    expect("certify leg_scaled: approximation also failing",
           checks.certify_problems(case, dataclasses.replace(rep, approx_failures=(0,))), True)
    case, rep = reports["psi_scaled"]
    errs = (rep.approx_errors[0] * 1.01,) + rep.approx_errors[1:]
    expect("certify psi_scaled: error not 0.01 |x|",
           checks.certify_problems(case, dataclasses.replace(rep, approx_errors=errs)), True)
    case, rep = reports["trace_leg"]
    legs = (dataclasses.replace(rep.legs[0], order_zero_ok=True),) + rep.legs[1:]
    expect("certify trace_leg: trace leg reported order zero",
           checks.certify_problems(case, dataclasses.replace(rep, legs=legs)), True)


def cli() -> None:
    os.environ["PYTHONPATH"] = str(ROOT / "src")  # for the CLI processes
    with tempfile.TemporaryDirectory() as wd:
        ctx = workloads.Context(seed=0, workdir=wd, trace=False)

        def fresh():  # verdicts that have not yet seen an earlier --json output
            return {v.label: v for v in workloads.cli(ctx)}

        def forged(out, edit, code=None):
            d = json.loads(out.stdout)
            edit(d)
            text = json.dumps(d, sort_keys=True, indent=2) + "\n"
            return subprocess.CompletedProcess(out.args, out.returncode if code is None else code, text.encode())

        verdicts = fresh()
        v = verdicts["tomiyama-threshold"]
        out = v.run()
        expect("cli tomiyama: genuine threshold", v.check(out), False)
        expect("cli tomiyama: wrong exit code",
               fresh()["tomiyama-threshold"].check(forged(out, lambda d: None, code=1)), True, "exit code")
        off = forged(out, lambda d: d.update(threshold=d["threshold"] + 1e-12))
        expect("cli tomiyama: threshold off by 1e-12",
               fresh()["tomiyama-threshold"].check(off), True, "threshold")

        v = verdicts["check-kpos"]
        out = v.run()
        expect("cli check-kpos: genuine witness", v.check(out), False)
        reformatted = subprocess.CompletedProcess(out.args, 1, json.dumps(json.loads(out.stdout)).encode())
        expect("cli check-kpos: repeated --json output differs",
               verdicts["check-kpos-again"].check(reformatted), True, "differs")
        bad = forged(out, lambda d: d["verdict"]["witness"].update(value=d["verdict"]["witness"]["value"] * 1.001))
        expect("cli check-kpos: forged witness value", fresh()["check-kpos"].check(bad), True, "disagrees")

        v = verdicts["repair"]
        out = v.run()
        expect("cli repair: genuine repaired map", v.check(out), False)
        os.replace(os.path.join(wd, "map.json"), os.path.join(wd, "rep.json"))
        expect("cli repair: written map not PSD", v.check(out), True)

        for label in ("probe-tol-nan", "probe-tol-negative", "probe-samples-zero"):
            v = verdicts[label]
            expect(f"cli {label}: exit 2 accepted", v.check(subprocess.CompletedProcess([], 2, b"")), False)
            expect(f"cli {label}: exit 0 rejected", v.check(subprocess.CompletedProcess([], 0, b"")), True)


def main() -> int:
    kpos()
    family()
    certify()
    cli()
    print(f"{len(FAILURES)} check(s) let a wrong answer through" if FAILURES else "all checks behave")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
