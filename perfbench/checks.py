"""Independent checks of posmap verdicts.

Every check recomputes what it needs with its own numpy or exact
``Fraction`` arithmetic, from the closed forms the inputs were built from;
none calls back into posmap. Each returns a list of problems, empty when the
verdict agrees.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np

VIOLATED = "VIOLATED"
CERTIFIED_POSITIVE = "CERTIFIED_POSITIVE"

VALUE_RTOL = 1e-9  # recomputed <x|C|x> against the reported value
NORM_TOL = 1e-9  # unit norm of an assembled witness
PSD_RTOL = 1e-9  # min eig >= -PSD_RTOL * max(1, ||C||)
SUM_TOL = 1e-12  # certificate sum norms and approximation errors


# -- shared numerics ---------------------------------------------------------


def hermitian(c: np.ndarray) -> np.ndarray:
    return (c + c.conj().T) / 2


def min_eig(c: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(hermitian(c))[0])


def spectral_norm(c: np.ndarray) -> float:
    return float(np.linalg.svd(c, compute_uv=False)[0]) if c.size else 0.0


def is_psd(c: np.ndarray) -> bool:
    return min_eig(c) >= -PSD_RTOL * max(1.0, spectral_norm(c))


def trace_mixing_choi(n: int, lam: float) -> np.ndarray:
    """Choi matrix sum_ij e_ij (x) psi_lam(e_ij) of a -> lam tr(a) 1/n + (1-lam) a."""
    omega = np.eye(n).reshape(-1)
    return (lam / n) * np.eye(n * n) + (1.0 - lam) * np.outer(omega, omega)


def trace_mixing_floor(n: int, k: int, lam: float) -> float:
    """min <x|C|x> over unit x of Schmidt rank <= k, for lam >= 1.

    C = (lam/n) 1 + (1-lam) n |Omega><Omega| and |<Omega|x>|^2 <= k/n.
    """
    return lam / n + (1.0 - lam) * k


def witness_problems(choi, k, left, right, value, floor=None) -> list[str]:
    """Reassemble x = sum_r left[r] (x) right[r] and check <x|C|x> < 0 from scratch."""
    out = []
    if not (1 <= len(left) == len(right) <= k):
        return [f"witness has {len(left)}/{len(right)} factors, allowed 1..{k}"]
    x = sum(np.kron(np.asarray(a), np.asarray(b)) for a, b in zip(left, right))
    if x.shape != (choi.shape[0],):
        return [f"witness vector has shape {x.shape}, Choi matrix {choi.shape}"]
    nrm = float(np.linalg.norm(x))
    if abs(nrm - 1.0) > NORM_TOL:
        out.append(f"witness norm {nrm!r} is not 1")
    val = float(np.real(np.vdot(x, hermitian(choi) @ x)))
    if abs(val - value) > VALUE_RTOL * max(1.0, abs(val)):
        out.append(f"witness value {value!r} disagrees with recomputed {val!r}")
    if not val < 0:
        out.append(f"recomputed witness value {val!r} is not negative")
    if floor is not None and val < floor - VALUE_RTOL * max(1.0, spectral_norm(choi)):
        out.append(f"witness value {val!r} is below the closed-form floor {floor!r}")
    return out


# -- kpos-search ---------------------------------------------------------------


def kpos_problems(case, verdict, restarts: int) -> list[str]:
    """case: kind ('above', 'below' or 'random'), k, choi, floor, psd."""
    out = []
    if verdict.restarts_used != restarts:
        out.append(f"restarts_used {verdict.restarts_used} != {restarts}")
    if verdict.status == VIOLATED:
        w = verdict.witness
        if w is None:
            return out + ["VIOLATED without a witness"]
        if w.k != case.k:
            out.append(f"witness k {w.k} != {case.k}")
        out += witness_problems(case.choi, case.k, w.factors_left, w.factors_right, w.value, case.floor)
        if verdict.best_value != w.value:
            out.append(f"best_value {verdict.best_value!r} != witness value {w.value!r}")
    elif verdict.witness is not None:
        out.append(f"{verdict.status} carries a witness")
    if case.kind in ("above", "random") and verdict.status != VIOLATED:
        out.append(f"known violated map reported {verdict.status}")
    if case.kind == "below":
        if verdict.status == VIOLATED:
            out.append("map below the threshold reported VIOLATED")
        if not verdict.best_value >= case.floor:
            out.append(f"best_value {verdict.best_value!r} below the positive floor {case.floor!r}")
    if (verdict.status == CERTIFIED_POSITIVE) != case.psd:
        out.append(f"status {verdict.status} but own eigvalsh says PSD={case.psd}")
    return out


# -- corner-family ---------------------------------------------------------------


def mixing_parameter(m: int, eps: float, lam: float) -> Fraction:
    """lambda~ = m eps lambda / ((1 - eps) + m eps), exactly, from the float inputs."""
    e, l = Fraction(eps), Fraction(lam)
    return m * e * l / ((1 - e) + m * e)


def family_problems(p, report) -> list[str]:
    """p: n, m, k, lam, eps, samples; report: FamilyReport or the same fields."""
    out = []
    lt = mixing_parameter(p.m, p.eps, p.lam)
    nxt = 1 + Fraction(1, p.n * (p.k + 1) - 1)
    exceeds = lt > nxt
    if report.mixing_parameter != float(lt):
        out.append(f"lambda~ {report.mixing_parameter!r} != exact {float(lt)!r}")
    if report.next_threshold != float(nxt):
        out.append(f"next threshold {report.next_threshold!r} != exact {float(nxt)!r}")
    if report.exceeds_next_threshold != exceeds:
        out.append(f"exceeds_next_threshold {report.exceeds_next_threshold} != exact {exceeds}")
    if not 0 < report.defect_max < 6 * p.eps:
        out.append(f"defect_max {report.defect_max!r} outside (0, 6 eps)")
    if report.samples != p.samples:
        out.append(f"samples {report.samples} != {p.samples}")
    if not report.all_ok:
        out.append("all_ok is false")
    f = report.falsifier
    if not exceeds:
        if f is not None:
            out.append("falsifier ran below the crossing")
        return out
    if f is None or f.status != VIOLATED or f.witness is None:
        return out + ["crossing not confirmed by a VIOLATED witness"]
    # the compressed map is prefactor * psi_{lambda~} with prefactor eps lambda / lambda~
    pref = float(Fraction(p.eps) * Fraction(p.lam) / lt)
    choi = pref * trace_mixing_choi(p.n, float(lt))
    floor = pref * trace_mixing_floor(p.n, p.k + 1, float(lt))
    w = f.witness
    return out + witness_problems(choi, p.k + 1, w.factors_left, w.factors_right, w.value, floor)


# -- certify -----------------------------------------------------------------------


def certify_problems(case, report) -> list[str]:
    """case: kind ('pass', 'leg_scaled', 'psi_scaled', 'trace_leg'), weights, test_norms."""
    out = []
    w = case.weights
    if len(report.legs) != len(w):
        return [f"{len(report.legs)} legs reported, certificate has {len(w)}"]
    psi_ok = report.psi_contraction_ok and report.psi_two_positive.status != VIOLATED
    legs_ok = [
        leg.contraction_ok and leg.two_positive.status != VIOLATED and leg.order_zero_ok
        for leg in report.legs
    ]
    approx_ok = not report.approx_failures
    expect = {"psi": True, "legs": [True] * len(w), "sum": True, "approx": True}
    want_sum = math.fsum(w)
    if case.kind == "pass":
        pass
    elif case.kind == "leg_scaled":
        expect["sum"] = False
        want_sum = 1.0 + 0.2 * w[0]
    elif case.kind == "psi_scaled":
        expect["approx"] = False
        errs = report.approx_errors
        if len(errs) != len(case.test_norms):
            out.append(f"{len(errs)} approximation errors for {len(case.test_norms)} test elements")
        for i, (err, nrm) in enumerate(zip(errs, case.test_norms)):
            if abs(err - 0.01 * nrm) > SUM_TOL:
                out.append(f"approx error {i} is {err!r}, expected 0.01 * {nrm!r}")
        if tuple(report.approx_failures) != tuple(range(len(case.test_norms))):
            out.append(f"approx_failures {report.approx_failures} != every test element")
    elif case.kind == "trace_leg":
        expect["legs"][0] = False
        expect["approx"] = None  # a trace leg also spoils the approximation; not asserted
    else:
        raise ValueError(case.kind)
    if abs(report.sum_norm - want_sum) > SUM_TOL:
        out.append(f"sum_norm {report.sum_norm!r} != {want_sum!r}")
    if psi_ok != expect["psi"]:
        out.append(f"psi checks passed={psi_ok}, expected {expect['psi']}")
    if legs_ok != expect["legs"]:
        out.append(f"legs passed={legs_ok}, expected {expect['legs']}")
    if case.kind == "trace_leg" and report.legs[0].order_zero_ok:
        out.append("trace-map leg reported order zero")
    if report.sum_contractive_ok != expect["sum"]:
        out.append(f"sum_contractive_ok={report.sum_contractive_ok}, expected {expect['sum']}")
    if expect["approx"] is not None and approx_ok != expect["approx"]:
        out.append(f"approximation passed={approx_ok}, expected {expect['approx']}")
    if report.overall != (case.kind == "pass"):
        out.append(f"overall={report.overall} for a {case.kind} certificate")
    if report.caveat:
        out.append("caveat set although every map is completely positive")
    return out


# -- files written by the CLI --------------------------------------------------------


def read_map_choi(path) -> list[np.ndarray]:
    """Choi blocks of a map file, decoded from its JSON without posmap."""
    with open(path) as fh:
        doc = json.load(fh)
    sizes = doc["source"]["blocks"]
    d = sum(doc["target"]["blocks"])
    blocks = []
    for n, raw in zip(sizes, doc["map"]["choi_blocks"]):
        arr = np.array([complex(re, im) for re, im in raw], dtype=np.complex128)
        blocks.append(arr.reshape(n * d, n * d))
    return blocks


def decode_vectors(raw) -> list[np.ndarray]:
    return [np.array([complex(re, im) for re, im in v], dtype=np.complex128) for v in raw]
