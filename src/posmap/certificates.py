"""Finite-dimensional approximation certificates and their verifier.

A DrCertificate packages the data of one approximation step witnessing a
decomposition-rank bound d for an algebra A: finite-dimensional summands
F_0..F_d, a downward 2-positive contraction psi: A -> (+)F_i, upward
2-positive order-zero contractions phi_i: F_i -> A whose sum is
contractive, a finite test set of contractions, and the accuracy epsilon
that ||(sum phi_i)(psi(x)) - x|| must beat on every test element.

verify_certificate measures every condition and returns a structured
report; failures are data, not exceptions. 2-positivity is reported as
CERTIFIED (exact Choi PSD check), UNFALSIFIED (the seeded falsifier found
nothing; pass with caveat) or VIOLATED (with a re-verified witness).

Serialization is canonical JSON: sorted keys, two-space indent, complex
entries as [re, im] pairs row-major, floats in shortest round-trip
decimal. encode and dumps are the one encoder and the one writer of posmap
data as JSON, for map and certificate files and for the CLI's --json
reports. save/load round-trips are byte-identical.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .algebra import Element, FiniteCStar, check_image_budget, embed_stack, from_embedded
from .algebra import random_contraction, random_positive_contraction, unit, unit_stack
from .errors import (
    BadRangeError,
    BadWeightsError,
    ParseError,
    SchemaVersionMismatchError,
    StructurallyInvalidError,
)
from .linalg import DEFAULT_SAMPLES, check_samples, check_seed, check_tol
from .maps import PMap, pmap_norm
from .orderzero import order_zero_defect, oz_decompose
from .positivity import (
    CERTIFIED_POSITIVE,
    DEFAULT_RESTARTS,
    DEFAULT_TOL,
    UNFALSIFIED,
    VIOLATED,
    KposVerdict,
    check_restarts,
    is_cp,
    k_positivity_falsify,
)

SCHEMA_VERSION = 1


# -- data model ------------------------------------------------------------------


@dataclass(frozen=True)
class DrCertificate:
    algebra: FiniteCStar
    d: int
    summands: tuple[FiniteCStar, ...]
    psi: PMap
    phis: tuple[PMap, ...]
    test_set: tuple[Element, ...]
    epsilon: float


def direct_sum(summands) -> FiniteCStar:
    """The direct sum of FiniteCStar algebras: concatenated block sizes."""
    blocks: list[int] = []
    for s in summands:
        blocks.extend(s.block_sizes)
    return FiniteCStar(tuple(blocks))


def _epsilon_ok(epsilon) -> bool:
    """The one rule for a certificate's epsilon: a finite float > 0 (NaN and huge ints fail)."""
    return 0 < epsilon <= sys.float_info.max


def _check_structure(cert: DrCertificate) -> None:
    if cert.d + 1 != len(cert.summands) or cert.d + 1 != len(cert.phis):
        raise StructurallyInvalidError(
            f"need d+1 = {cert.d + 1} summands and maps, got "
            f"{len(cert.summands)} and {len(cert.phis)}"
        )
    if not _epsilon_ok(cert.epsilon):
        raise StructurallyInvalidError(f"epsilon must be finite and > 0, got {cert.epsilon!r}")
    total = direct_sum(cert.summands)
    if cert.psi.source != cert.algebra or cert.psi.target != total:
        raise StructurallyInvalidError("psi does not map A into the direct sum")
    for i, (phi, s) in enumerate(zip(cert.phis, cert.summands)):
        if phi.source != s or phi.target != cert.algebra:
            raise StructurallyInvalidError(f"phis[{i}] does not map F_{i} into A")
    for i, x in enumerate(cert.test_set):
        if x.algebra != cert.algebra:
            raise StructurallyInvalidError(f"test_set[{i}] is not an element of A")
        if x.norm() > 1 + 1e-9:
            raise StructurallyInvalidError(f"test_set[{i}] is not a contraction")


# -- verification -----------------------------------------------------------------


@dataclass(frozen=True)
class TwoPositiveCheck:
    status: str  # CERTIFIED_POSITIVE, UNFALSIFIED or VIOLATED
    verdict: Optional[KposVerdict]

    @property
    def passed(self) -> bool:
        return self.status != VIOLATED

    @property
    def caveat(self) -> bool:
        return self.status == UNFALSIFIED


@dataclass(frozen=True)
class LegReport:
    """Checks for one upward map phi_i."""

    contraction_norm: float
    contraction_ok: bool
    two_positive: TwoPositiveCheck
    mult_defect: float
    commute_defect: float
    reconstruct_defect: float
    one_var_sup: float  # the sampled order_zero_defect suprema
    orth_pair_sup: float
    od_sup: float
    order_zero_ok: bool

    @property
    def passed(self) -> bool:
        return self.contraction_ok and self.two_positive.passed and self.order_zero_ok


@dataclass(frozen=True)
class VerifyReport:
    psi_norm: float
    psi_contraction_ok: bool
    psi_two_positive: TwoPositiveCheck
    legs: tuple[LegReport, ...]
    sum_norm: float
    sum_contractive_ok: bool
    approx_errors: tuple[float, ...]
    approx_failures: tuple[int, ...]
    epsilon: float
    caveat: bool
    overall: bool


def _two_positive_check(
    phi: PMap, tol: float, seed: int, restarts: int
) -> TwoPositiveCheck:
    if is_cp(phi, tol):
        return TwoPositiveCheck(CERTIFIED_POSITIVE, None)
    verdict = k_positivity_falsify(phi, 2, restarts=restarts, seed=seed, tol=tol)
    return TwoPositiveCheck(verdict.status, verdict)


def _sum_apply(cert: DrCertificate, ys: np.ndarray) -> np.ndarray:
    """(sum phi_i)(y) on a (..., D, D) stack over (+)F_i: leg i reads its diagonal square."""
    ends = np.cumsum([0] + [s.embed_dim for s in cert.summands])
    return sum(phi.act(ys[..., a:b, a:b]) for phi, a, b in zip(cert.phis, ends, ends[1:]))


def verify_certificate(
    cert: DrCertificate,
    tol: float = DEFAULT_TOL,
    seed: int = 0,
    restarts: int = DEFAULT_RESTARTS,
    samples: int = DEFAULT_SAMPLES,
) -> VerifyReport:
    """Measure every certificate condition; returns a report, never raises on failure.

    Raises StructurallyInvalidError only when the data does not even fit
    together dimensionally.
    """
    check_tol(tol)
    check_seed(seed)
    check_restarts(restarts)
    check_samples(samples)
    _check_structure(cert)

    psi_norm = pmap_norm(cert.psi)
    psi_ok = psi_norm <= 1 + tol
    psi_two = _two_positive_check(cert.psi, tol, seed, restarts)

    legs = []
    for i, phi in enumerate(cert.phis):
        dec = oz_decompose(phi)
        nrm = dec.h.norm()  # h = phi(1)
        rep = order_zero_defect(phi, samples=samples, seed=seed + i)
        oz_ok = (
            dec.mult_defect <= tol
            and dec.commute_defect <= tol
            and dec.reconstruct_defect <= tol
            and rep.one_var_sup <= tol
            and rep.orth_pair_sup <= tol
            and rep.od_sup <= tol
        )
        legs.append(
            LegReport(
                contraction_norm=nrm,
                contraction_ok=nrm <= 1 + tol,
                two_positive=_two_positive_check(phi, tol, seed + i, restarts),
                mult_defect=dec.mult_defect,
                commute_defect=dec.commute_defect,
                reconstruct_defect=dec.reconstruct_defect,
                one_var_sup=rep.one_var_sup,
                orth_pair_sup=rep.orth_pair_sup,
                od_sup=rep.od_sup,
                order_zero_ok=oz_ok,
            )
        )

    total = _sum_apply(cert, unit(cert.psi.target).embedded())
    sum_norm = from_embedded(cert.algebra, total).norm()
    sum_ok = sum_norm <= 1 + tol

    xs = embed_stack(cert.algebra, cert.test_set)
    out = _sum_apply(cert, cert.psi.act(xs))
    errors = tuple(from_embedded(cert.algebra, e).norm() for e in out - xs)
    failures = tuple(i for i, err in enumerate(errors) if not err < cert.epsilon)

    overall = (
        psi_ok
        and psi_two.passed
        and all(leg.passed for leg in legs)
        and sum_ok
        and not failures
    )
    caveat = psi_two.caveat or any(leg.two_positive.caveat for leg in legs)
    return VerifyReport(
        psi_norm=psi_norm,
        psi_contraction_ok=psi_ok,
        psi_two_positive=psi_two,
        legs=tuple(legs),
        sum_norm=sum_norm,
        sum_contractive_ok=sum_ok,
        approx_errors=errors,
        approx_failures=failures,
        epsilon=cert.epsilon,
        overall=overall,
        caveat=caveat,
    )


# -- generators --------------------------------------------------------------------


def _default_test_set(algebra: FiniteCStar, seed: int) -> tuple[Element, ...]:
    return (
        unit(algebra),
        random_positive_contraction(algebra, seed),
        random_positive_contraction(algebra, seed + 1),
        random_contraction(algebra, seed + 2),
        random_contraction(algebra, seed + 3),
    )


def identity_certificate(
    algebra: FiniteCStar, test_set=None, epsilon: float = 1e-6
) -> DrCertificate:
    """d = 0, F_0 = A, psi = phi_0 = id: every algebra certifies rank 0."""
    return _partition_certificate(algebra, [1.0], 0, epsilon, test_set)


def orderzero_certificate(
    algebra: FiniteCStar, weights, seed: int = 0, epsilon: float = 1e-6
) -> DrCertificate:
    """Nontrivial passing certificate from a partition of unity.

    psi is the diagonal embedding x -> (+)_i x and phi_i = w_i * id, so
    (sum phi_i)(psi(x)) = (sum w_i) x = x exactly and each leg is a CP
    order-zero contraction.
    """
    check_seed(seed)
    return _partition_certificate(algebra, weights, seed, epsilon)


def _partition_certificate(
    algebra: FiniteCStar, weights, seed: int, epsilon: float, test_set=None
) -> DrCertificate:
    """The certificate of orderzero_certificate; the default test set is drawn after every check."""
    if not _epsilon_ok(epsilon):
        raise BadRangeError(f"epsilon must be finite and > 0, got {epsilon!r}")
    weights = [float(w) for w in weights]
    # written so that a NaN fails each rule
    if not weights or not all(w > 0 for w in weights):
        raise BadWeightsError(f"weights must be positive, got {weights}")
    if not abs(sum(weights) - 1.0) <= 1e-12:
        raise BadWeightsError(f"weights must sum to 1, got sum {sum(weights)}")
    check_image_budget(algebra.dim, len(weights) * algebra.embed_dim)  # psi's (d+1)-fold target
    test_set = _default_test_set(algebra, seed) if test_set is None else tuple(test_set)
    summands = tuple(algebra for _ in weights)
    # np.kron pads eye to the stack's rank: one diagonal copy of each unit per summand
    images = np.kron(np.eye(len(weights)), unit_stack(algebra))
    psi = PMap(algebra, direct_sum(summands), images)
    phis = tuple(w * PMap.identity(algebra) for w in weights)
    return DrCertificate(
        algebra=algebra,
        d=len(weights) - 1,
        summands=summands,
        psi=psi,
        phis=phis,
        test_set=test_set,
        epsilon=epsilon,
    )


# -- serialization ------------------------------------------------------------------


def encode(obj):
    """posmap data as JSON data: file forms, dataclasses by field, arrays as [re, im] pairs."""
    if isinstance(obj, FiniteCStar):  # before the dataclass case: FiniteCStar is one
        return {"blocks": list(obj.block_sizes)}
    if isinstance(obj, PMap):
        return {"choi_blocks": [encode(c) for c in obj.choi_blocks]}
    if isinstance(obj, Element):
        return {"blocks": [encode(b) for b in obj.blocks]}
    if dataclasses.is_dataclass(obj):
        return {f.name: encode(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, tuple):
        return [encode(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [[float(z.real), float(z.imag)] for z in obj.reshape(-1)]
    return obj


def dumps(doc) -> str:
    """Canonical JSON: sorted keys, two-space indent, no NaN or infinity."""
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False)


def _decode_matrix(data, size: int, where: str) -> np.ndarray:
    if not isinstance(data, list) or len(data) != size * size:
        raise ParseError(f"{where}: expected {size * size} [re, im] pairs")
    out = np.empty(size * size, dtype=np.complex128)
    for idx, pair in enumerate(data):
        if not (isinstance(pair, list) and len(pair) == 2):
            raise ParseError(f"{where}[{idx}]: expected a [re, im] pair")
        if not all(type(v) in (int, float) for v in pair):
            raise ParseError(f"{where}[{idx}]: entries must be JSON numbers")
        try:
            out[idx] = complex(*pair)
        except OverflowError as exc:
            raise ParseError(f"{where}[{idx}]: {exc}") from exc
    if not np.all(np.isfinite(out.real)) or not np.all(np.isfinite(out.imag)):
        raise ParseError(f"{where}: non-finite entry")
    return out.reshape(size, size)


def _decode_algebra(data, where: str) -> FiniteCStar:
    if not isinstance(data, dict) or "blocks" not in data:
        raise ParseError(f"{where}: expected an object with a 'blocks' list")
    blocks = data["blocks"]
    if not isinstance(blocks, list) or not blocks:
        raise ParseError(f"{where}.blocks: expected a non-empty list")
    if not all(type(b) is int for b in blocks):
        raise ParseError(f"{where}.blocks: block sizes must be integers")
    try:
        return FiniteCStar(tuple(blocks))
    except Exception as exc:
        raise ParseError(f"{where}.blocks: {exc}") from exc


def _decode_blocks(data, key: str, sizes, where: str) -> list[np.ndarray]:
    """The square matrices listed under data[key], one per entry of sizes."""
    if not isinstance(data, dict) or key not in data:
        raise ParseError(f"{where}: expected an object with '{key}'")
    raw = data[key]
    if not isinstance(raw, list) or len(raw) != len(sizes):
        raise ParseError(f"{where}.{key}: expected {len(sizes)} blocks")
    return [
        _decode_matrix(rb, n, f"{where}.{key}[{bi}]")
        for bi, (rb, n) in enumerate(zip(raw, sizes))
    ]


def _decode_pmap(data, source: FiniteCStar, target: FiniteCStar, where: str) -> PMap:
    sizes = [n * target.embed_dim for n in source.block_sizes]
    blocks = _decode_blocks(data, "choi_blocks", sizes, where)
    try:
        return PMap.from_choi(source, target, blocks)
    except Exception as exc:
        raise ParseError(f"{where}: {exc}") from exc


def _decode_element(data, algebra: FiniteCStar, where: str) -> Element:
    return Element(algebra, _decode_blocks(data, "blocks", algebra.block_sizes, where))


def _check_schema(doc: dict) -> None:
    if not isinstance(doc, dict):
        raise ParseError("top level: expected an object")
    version = doc.get("schema_version")
    if type(version) is not int or version != SCHEMA_VERSION:
        raise SchemaVersionMismatchError(
            f"schema_version: expected {SCHEMA_VERSION}, got {version}"
        )


def certificate_to_document(cert: DrCertificate) -> dict:
    # float: an int epsilon is still written as a JSON float
    return {"schema_version": SCHEMA_VERSION, **encode(cert), "epsilon": float(cert.epsilon)}


def certificate_from_document(doc: dict) -> DrCertificate:
    _check_schema(doc)
    for key in ("algebra", "d", "summands", "psi", "phis", "test_set", "epsilon"):
        if key not in doc:
            raise ParseError(f"{key}: missing field")
    algebra = _decode_algebra(doc["algebra"], "algebra")
    d = doc["d"]
    if type(d) is not int or d < 0:
        raise ParseError("d: expected a nonnegative integer")
    if not isinstance(doc["summands"], list):
        raise ParseError("summands: expected a list")
    summands = tuple(
        _decode_algebra(s, f"summands[{i}]") for i, s in enumerate(doc["summands"])
    )
    if len(summands) != d + 1:
        raise ParseError(f"summands: expected {d + 1} entries, got {len(summands)}")
    total = direct_sum(summands)
    psi = _decode_pmap(doc["psi"], algebra, total, "psi")
    if not isinstance(doc["phis"], list) or len(doc["phis"]) != d + 1:
        raise ParseError(f"phis: expected {d + 1} entries")
    phis = tuple(
        _decode_pmap(p, s, algebra, f"phis[{i}]")
        for i, (p, s) in enumerate(zip(doc["phis"], summands))
    )
    if not isinstance(doc["test_set"], list):
        raise ParseError("test_set: expected a list")
    test_set = tuple(
        _decode_element(x, algebra, f"test_set[{i}]")
        for i, x in enumerate(doc["test_set"])
    )
    epsilon = doc["epsilon"]
    if type(epsilon) not in (int, float) or not _epsilon_ok(epsilon):
        raise ParseError("epsilon: expected a finite positive number")
    return DrCertificate(
        algebra=algebra,
        d=d,
        summands=summands,
        psi=psi,
        phis=phis,
        test_set=test_set,
        epsilon=float(epsilon),
    )


def _write(doc: dict, path) -> None:
    """The canonical JSON of doc and a trailing newline."""
    text = dumps(doc) + "\n"
    with open(path, "w") as fh:
        fh.write(text)


def _read(path) -> dict:
    with open(path) as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:  # bad JSON, UTF-8 or integer; deep nesting
            raise ParseError(f"invalid JSON: {exc}") from exc


def save_certificate(cert: DrCertificate, path) -> None:
    _write(certificate_to_document(cert), path)


def load_certificate(path) -> DrCertificate:
    return certificate_from_document(_read(path))


# -- map files (same choi_blocks shape plus algebra headers) -------------------------


def map_to_document(phi: PMap) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "source": encode(phi.source),
        "target": encode(phi.target),
        "map": encode(phi),
    }


def map_from_document(doc: dict) -> PMap:
    _check_schema(doc)
    for key in ("source", "target", "map"):
        if key not in doc:
            raise ParseError(f"{key}: missing field")
    source = _decode_algebra(doc["source"], "source")
    target = _decode_algebra(doc["target"], "target")
    return _decode_pmap(doc["map"], source, target, "map")


def save_map(phi: PMap, path) -> None:
    _write(map_to_document(phi), path)


def load_map(path) -> PMap:
    return map_from_document(_read(path))
