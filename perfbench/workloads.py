"""The four workloads: inputs built from the seed, one round of verdicts each.

A workload function does its set-up (builds, writes or loads inputs) and
returns the round: a list of Verdicts. The runner repeats whole rounds, so
every run attempts the same operations in the same proportions. Program
calls go through ``posmap.<name>`` at call time, so a tracer installed after
import sees them.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from types import SimpleNamespace
from typing import Any, Callable, Optional

import numpy as np
import posmap

import checks

HERE = os.path.dirname(os.path.abspath(__file__))
RESTARTS = 32


@dataclass
class Verdict:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], list]
    # a probe of a fault the program has today: it counts as failed until
    # the program is fixed, and does not make the run incorrect
    known_fault: Optional[str] = None


@dataclass
class Context:
    seed: int
    workdir: str
    trace: bool
    child_totals: list = field(default_factory=list)


def _haar(rng: np.random.Generator, n: int) -> np.ndarray:
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _hermitian_of_norm(rng: np.random.Generator, size: int, norm: float) -> np.ndarray:
    g = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
    h = checks.hermitian(g)
    return h * (norm / checks.spectral_norm(h))


def _away_from_psd_boundary(choi: np.ndarray) -> bool:
    return abs(checks.min_eig(choi)) > 1e-3 * checks.spectral_norm(choi)


# -- kpos-search -----------------------------------------------------------------

# (n, k, side, scale c): trace-mixing maps at lambda = threshold +- 5% of
# (threshold - 1), where every restart runs to the iteration cap
NEAR_THRESHOLD = [(6, 1, "above", 1.0), (6, 2, "below", 10.0), (6, 3, "above", 100.0)]
# (n, k, operator norm): random Hermitian Choi blocks with negative trace
RANDOM_BLOCKS = [(12, 1, 1.0), (8, 2, 100.0)]
MARGIN = 0.05


def near_threshold_case(rng, n: int, k: int, side: str, c: float):
    """c * (U(x)V) C_lambda (U(x)V)* + P with ||P|| half the value margin.

    Over unit vectors of Schmidt rank <= k the minimum of <x|C|x> lies within
    ||P|| of c (lambda/n + (1 - lambda) k), which is -margin above the
    threshold and +margin below it, so the answer is known on both sides.
    """
    thr = 1.0 + 1.0 / (n * k - 1)
    delta = MARGIN * (thr - 1.0)
    lam = thr + delta if side == "above" else thr - delta
    base = posmap.tomiyama_map(n, lam)  # built by PMap.from_action
    w = np.kron(_haar(rng, n), _haar(rng, n))
    gap = c * delta * (k - 1.0 / n)
    pert = _hermitian_of_norm(rng, n * n, gap / 2)
    choi = w @ (c * np.asarray(base.choi_blocks[0])) @ w.conj().T + pert
    floor = c * checks.trace_mixing_floor(n, k, lam) - gap / 2
    return choi, floor


def random_block_case(rng, n: int, norm: float):
    """Random Hermitian block shifted to a negative trace, so a product vector is negative."""
    h = _hermitian_of_norm(rng, n * n, 1.0)
    h = h - (np.trace(h).real / (n * n) + 0.05) * np.eye(n * n)
    h *= norm / checks.spectral_norm(h)
    if not np.trace(h).real < 0:
        raise RuntimeError("random block without a negative trace")
    return h, checks.min_eig(h)


def kpos_search(ctx: Context) -> list[Verdict]:
    rng = np.random.default_rng(ctx.seed)
    cases = []
    for n, k, side, c in NEAR_THRESHOLD:
        choi, floor = near_threshold_case(rng, n, k, side, c)
        cases.append((f"near-{side}-n{n}-k{k}", side, n, k, choi, floor))
    for n, k, norm in RANDOM_BLOCKS:
        choi, floor = random_block_case(rng, n, norm)
        cases.append((f"random-n{n}-k{k}-norm{norm:g}", "random", n, k, choi, floor))
    verdicts = []
    for i, (label, kind, n, k, choi, floor) in enumerate(cases):
        if not _away_from_psd_boundary(choi):
            raise RuntimeError(f"{label}: input too close to the PSD boundary")
        alg = posmap.FiniteCStar((n,))
        phi = posmap.PMap.from_choi(alg, alg, [choi])
        case = SimpleNamespace(kind=kind, k=k, choi=choi, floor=floor, psd=checks.is_psd(choi))
        seed = ctx.seed + i
        verdicts.append(
            Verdict(
                label,
                lambda phi=phi, k=k, seed=seed: posmap.k_positivity_falsify(
                    phi, k, restarts=RESTARTS, seed=seed
                ),
                lambda v, case=case: checks.kpos_problems(case, v, RESTARTS),
            )
        )
    return verdicts


# -- corner-family ------------------------------------------------------------------

# m on both sides of the crossing m > 114 (matrix sizes 3m = 150 .. 600)
CORNER_M = [50, 90, 114, 115, 140, 170, 200]
CORNER = dict(n=3, k=1, lam=1.4, eps=0.05, samples=5)


def corner_family(ctx: Context) -> list[Verdict]:
    verdicts = []
    for i, m in enumerate(CORNER_M):
        p = SimpleNamespace(m=m, **CORNER)
        seed = ctx.seed + i
        verdicts.append(
            Verdict(
                f"corner-m{m}",
                lambda p=p, seed=seed: posmap.verify_corner_family(
                    p.n, p.m, p.k, p.lam, p.eps, seed=seed, samples=p.samples, restarts=RESTARTS
                ),
                lambda r, p=p: checks.family_problems(p, r),
            )
        )
    return verdicts


# -- certify ------------------------------------------------------------------------

# (kind, generator, algebra, number of legs); mutants each fail one named sub-check
CERTIFICATES = [
    ("pass", "orderzero", (2, 3), 2),
    ("pass", "identity", (4,), 1),
    ("pass", "orderzero", (2, 2, 2), 3),
    ("pass", "identity", (3, 3), 1),
    ("leg_scaled", "orderzero", (4,), 2),
    ("psi_scaled", "identity", (2, 2, 2), 1),
    ("trace_leg", "orderzero", (2, 3), 2),
]
CERT_SAMPLES = 30


def _weights(rng, legs: int) -> list[float]:
    if legs == 1:
        return [1.0]
    raw = rng.uniform(0.3, 0.7, size=legs)
    w = [float(x) for x in raw / raw.sum()]
    w[-1] = 1.0 - sum(w[:-1])
    return w


def _test_set(algebra, seed: int):
    return (
        posmap.unit(algebra),
        posmap.random_positive_contraction(algebra, seed),
        posmap.random_contraction(algebra, seed + 1),
        posmap.random_contraction(algebra, seed + 2),
    )


def _trace_leg(summand, algebra, weight: float):
    """a -> weight * tr(a) / dim 1: positive and contractive, but not order zero."""
    size = summand.embed_dim
    one = posmap.unit(algebra)
    images = [
        (weight * sum(np.trace(b) for b in e.blocks).real / size) * one
        for e in posmap.matrix_units(summand)
    ]
    return posmap.PMap.from_action(summand, algebra, images)


def build_certificate(rng, seed: int, kind: str, generator: str, blocks, legs: int):
    algebra = posmap.FiniteCStar(blocks)
    weights = _weights(rng, legs)
    if generator == "orderzero":
        cert = posmap.orderzero_certificate(algebra, weights, seed=seed)
    else:
        cert = posmap.identity_certificate(algebra, test_set=_test_set(algebra, seed))
    if kind == "leg_scaled":
        # epsilon above the 0.2 w0 error the scaling causes, so only the sum fails
        phis = (cert.phis[0].scale(1.2),) + cert.phis[1:]
        cert = dataclasses.replace(cert, phis=phis, epsilon=0.5)
    elif kind == "psi_scaled":
        cert = dataclasses.replace(cert, psi=cert.psi.scale(0.99))
    elif kind == "trace_leg":
        leg = _trace_leg(cert.summands[0], algebra, weights[0])
        cert = dataclasses.replace(cert, phis=(leg,) + cert.phis[1:])
    test_norms = [max(checks.spectral_norm(b) for b in x.blocks) for x in cert.test_set]
    return cert, SimpleNamespace(kind=kind, weights=weights, test_norms=test_norms)


def certify(ctx: Context) -> list[Verdict]:
    rng = np.random.default_rng(ctx.seed)
    verdicts = []
    for i, (kind, generator, blocks, legs) in enumerate(CERTIFICATES):
        seed = ctx.seed + i
        cert, case = build_certificate(rng, seed, kind, generator, blocks, legs)
        label = f"{kind}-{generator}-{'x'.join(map(str, blocks))}"
        path = os.path.join(ctx.workdir, f"{label}.json")
        posmap.save_certificate(cert, path)

        def run(path=path, seed=seed):
            cert = posmap.load_certificate(path)
            return cert, posmap.verify_certificate(cert, seed=seed, samples=CERT_SAMPLES)

        def check(out, path=path, case=case):
            cert, report = out
            problems = checks.certify_problems(case, report)
            again = path + ".again"
            posmap.save_certificate(cert, again)
            with open(path, "rb") as a, open(again, "rb") as b:
                if a.read() != b.read():
                    problems.append("save -> load -> save is not byte-identical")
            return problems

        verdicts.append(Verdict(label, run, check))
    return verdicts


# -- cli ------------------------------------------------------------------------------

EXIT_OK, EXIT_FAILS, EXIT_USAGE = 0, 1, 2


def _payload(out) -> dict:
    return json.loads(out.stdout)


def _exit(code: int, want: int) -> list:
    return [] if code == want else [f"exit code {code}, expected {want}"]


def _kpos_witness_problems(verdict: dict, mapfile: str, k: int) -> list:
    if verdict["status"] != checks.VIOLATED or verdict["witness"] is None:
        return [f"falsifier reported {verdict['status']} on a map that is not {k}-positive"]
    w = verdict["witness"]
    (choi,) = checks.read_map_choi(mapfile)
    return checks.witness_problems(
        choi, k, checks.decode_vectors(w["factors_left"]), checks.decode_vectors(w["factors_right"]),
        w["value"],
    )


def _family_from_payload(d: dict):
    f = d["falsifier"]
    if f is not None:
        w = f["witness"]
        f = SimpleNamespace(
            status=f["status"],
            witness=None if w is None else SimpleNamespace(
                factors_left=checks.decode_vectors(w["factors_left"]),
                factors_right=checks.decode_vectors(w["factors_right"]),
                value=w["value"],
            ),
        )
    fields = ("mixing_parameter", "next_threshold", "exceeds_next_threshold",
              "defect_max", "samples", "all_ok")
    return SimpleNamespace(falsifier=f, **{k: d[k] for k in fields})


def cli(ctx: Context) -> list[Verdict]:
    rng = np.random.default_rng(ctx.seed)
    wd = ctx.workdir
    # a trace-mixing map past its 2-positivity threshold, conjugated by a product unitary
    n, lam = 3, 1.4
    w = np.kron(_haar(rng, n), _haar(rng, n))
    choi = w @ np.asarray(posmap.tomiyama_map(n, lam).choi_blocks[0]) @ w.conj().T
    alg = posmap.FiniteCStar((n,))
    posmap.save_map(posmap.PMap.from_choi(alg, alg, [choi]), os.path.join(wd, "map.json"))
    weights = _weights(rng, 2)
    gen_case = SimpleNamespace(kind="pass", weights=weights, test_norms=None)
    cert, cert_case = build_certificate(rng, ctx.seed, "pass", "orderzero", (2,), 2)
    posmap.save_certificate(cert, os.path.join(wd, "cert.json"))
    bad, bad_case = build_certificate(rng, ctx.seed, "psi_scaled", "identity", (2,), 1)
    posmap.save_certificate(bad, os.path.join(wd, "bad.json"))
    tn, tk = [(3, 2), (4, 1), (5, 2)][ctx.seed % 3]
    m_lo, m_hi = 20, 120
    corner = dict(n=3, k=1, lam=1.4, eps=0.05, samples=3)
    seen: dict = {}

    def fam(m):
        p = SimpleNamespace(m=m, **corner)
        return lambda d: checks.family_problems(p, _family_from_payload(d))

    def threshold_ok(d, n_, k_):
        exact = float(1 + Fraction(1, n_ * k_ - 1))
        return [] if d["threshold"] == exact else [f"threshold {d['threshold']!r} != {exact!r}"]

    def not_cp(d):
        psd = checks.is_psd(checks.read_map_choi(os.path.join(wd, "map.json"))[0])
        return [] if d["completely_positive"] is False and not psd else ["map.json reported CP"]

    def repaired(d):
        blocks = checks.read_map_choi(os.path.join(wd, "rep.json"))
        bad_blocks = [i for i, c in enumerate(blocks) if not checks.is_psd(c)]
        out = [] if d["repaired_is_cp"] else ["repaired_is_cp is false"]
        return out + [f"repaired Choi block {i} is not PSD" for i in bad_blocks]

    e4 = ["example4", "--n", "3", "--k", "1", "--lambda", "1.4", "--eps", "0.05"]
    # (label, argv, expected exit, payload check or None, known fault)
    commands = [
        ("tomiyama-threshold", ["tomiyama", "--n", str(tn), "--k", str(tk)], EXIT_OK,
         lambda d: threshold_ok(d, tn, tk), None),
        ("tomiyama-map", ["tomiyama", "--n", "3", "--k", "2", "--lambda", "1.4", "-o", "psi.json"],
         EXIT_FAILS,
         lambda d: threshold_ok(d, 3, 2)
         + ([] if d["k_positive_closed_form"] is False else ["1.4 > 1.2 reported 2-positive"])
         + _kpos_witness_problems(d["falsifier"], os.path.join(wd, "psi.json"), 2), None),
        ("check-cp", ["check-cp", "map.json"], EXIT_FAILS, not_cp, None),
        ("check-kpos", ["check-kpos", "map.json", "--k", "2"], EXIT_FAILS,
         lambda d: _kpos_witness_problems(d["verdict"], os.path.join(wd, "map.json"), 2), None),
        ("defect", ["defect", "map.json"], EXIT_OK,
         lambda d: [] if d["samples"] == 100 and all(
             _finite_nonneg(d[k]) for k in ("one_var_sup", "orth_pair_sup", "od_sup"))
         else ["defect report malformed"], None),
        ("decompose", ["decompose", "map.json"], EXIT_OK,
         lambda d: [] if abs(d["h_norm"] - 1.0) <= 1e-9 else [f"h_norm {d['h_norm']!r} of a unital map"],
         None),
        ("repair", ["repair", "map.json", "-o", "rep.json"], EXIT_OK, repaired, None),
        ("check-cp-repaired", ["check-cp", "rep.json"], EXIT_OK,
         lambda d: [] if d["completely_positive"] is True else ["repaired map reported not CP"], None),
        ("example4-below", e4 + ["--m", str(m_lo), "--samples", "3"], EXIT_OK, fam(m_lo), None),
        ("example4-above", e4 + ["--m", str(m_hi), "--samples", "3"], EXIT_OK, fam(m_hi), None),
        ("gen-cert", ["gen-cert", "--algebra", "2,3", "--weights", ",".join(map(repr, weights)),
                      "-o", "gen.json"], EXIT_OK,
         lambda d: [] if os.path.getsize(os.path.join(wd, "gen.json")) > 0 else ["no file written"],
         None),
        ("verify-cert-generated", ["verify-cert", "gen.json"], EXIT_OK,
         lambda d: checks.certify_problems(gen_case, _report_from_payload(d)), None),
        ("verify-cert", ["verify-cert", "cert.json"], EXIT_OK,
         lambda d: checks.certify_problems(cert_case, _report_from_payload(d)), None),
        ("verify-cert-rejected", ["verify-cert", "bad.json"], EXIT_FAILS,
         lambda d: checks.certify_problems(bad_case, _report_from_payload(d)), None),
        ("check-kpos-again", ["check-kpos", "map.json", "--k", "2"], EXIT_FAILS,
         lambda d: _kpos_witness_problems(d["verdict"], os.path.join(wd, "map.json"), 2), None),
        ("missing-file", ["check-cp", "missing.json"], EXIT_USAGE, None, None),
        ("probe-tol-nan", ["check-cp", "map.json", "--tol", "nan"], EXIT_USAGE, None,
         "check-cp --tol nan is not a usage error"),
        ("probe-tol-negative", ["check-cp", "map.json", "--tol", "-1"], EXIT_USAGE, None,
         "check-cp --tol -1 exits 1, not 2"),
        ("probe-samples-zero", e4 + ["--m", str(m_lo), "--samples", "0"], EXIT_USAGE, None,
         "example4 --samples 0 is a vacuous pass"),
    ]

    verdicts = []
    for label, argv, want, payload_check, fault in commands:
        argv = argv + (["--json"] if want != EXIT_USAGE else [])
        key = "check-kpos" if label == "check-kpos-again" else label

        def run(argv=argv, label=label):
            return run_cli(ctx, argv, label)

        def check(out, want=want, payload_check=payload_check, key=key):
            problems = _exit(out.returncode, want)
            if problems or payload_check is None:
                return problems
            if key in seen and seen[key] != out.stdout:
                problems.append("--json output differs from an earlier run of the same command")
            seen.setdefault(key, out.stdout)
            return problems + payload_check(_payload(out))

        verdicts.append(Verdict(label, run, check, fault))
    return verdicts


def _finite_nonneg(x) -> bool:
    return isinstance(x, float) and np.isfinite(x) and x >= 0


def _report_from_payload(d: dict):
    two = lambda t: SimpleNamespace(status=t["status"])
    legs = [
        SimpleNamespace(
            contraction_ok=leg["contraction_ok"],
            two_positive=two(leg["two_positive"]),
            order_zero_ok=leg["order_zero_ok"],
        )
        for leg in d["legs"]
    ]
    return SimpleNamespace(
        legs=legs,
        psi_contraction_ok=d["psi_contraction_ok"],
        psi_two_positive=two(d["psi_two_positive"]),
        sum_norm=d["sum_norm"],
        sum_contractive_ok=d["sum_contractive_ok"],
        approx_errors=d["approx_errors"],
        approx_failures=d["approx_failures"],
        overall=d["overall"],
        caveat=d["caveat"],
    )


def run_cli(ctx: Context, argv: list, label: str):
    """Run one subcommand in a fresh process; traced runs go through cli_child.py."""
    if ctx.trace:
        totals_path = os.path.join(ctx.workdir, f"totals-{label}.json")
        cmd = [sys.executable, os.path.join(HERE, "cli_child.py"), totals_path] + argv
    else:
        cmd = [sys.executable, "-m", "posmap.cli"] + argv
    out = subprocess.run(cmd, cwd=ctx.workdir, capture_output=True, timeout=120)
    if ctx.trace:
        with open(totals_path) as fh:
            ctx.child_totals.append(json.load(fh))
        os.remove(totals_path)
    return out


WORKLOADS = {
    "kpos-search": kpos_search,
    "corner-family": corner_family,
    "certify": certify,
    "cli": cli,
}
