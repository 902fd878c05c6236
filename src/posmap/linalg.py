"""Dense complex matrix substrate.

Hermitian eigendecompositions, operator norms, PSD tests, support
pseudo-inverses and polar decompositions, with the tolerance conventions
used by the rest of the package:

* a Hermitian matrix is accepted as PSD iff its smallest eigenvalue is
  >= -1e-9 * max(1, ||h||);
* support pseudo-inverses drop eigenvalues <= cutoff * ||b|| with a
  default cutoff of 1e-10.

All functions are pure and never mutate their arguments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DominanceViolatedError,
    NonSquareError,
    NotCommutingError,
    NotHermitianError,
    NumericalFailureError,
)

HERM_TOL = 1e-10
PSD_TOL = 1e-9
SUPPORT_CUTOFF = 1e-10


def as_complex(m) -> np.ndarray:
    """View input as a complex128 ndarray without copying when possible."""
    return np.asarray(m, dtype=np.complex128)


def require_square(m: np.ndarray) -> np.ndarray:
    m = as_complex(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NonSquareError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise NonSquareError("matrix contains non-finite entries")
    return m


def hermitian_part(m: np.ndarray) -> np.ndarray:
    return (m + m.conj().T) / 2


def _check_hermitian(h: np.ndarray, tol: float = HERM_TOL) -> np.ndarray:
    """Validate ||h - h*||_F <= tol * ||h||_F and return the symmetrized matrix."""
    h = require_square(h)
    dev = np.linalg.norm(h - h.conj().T)
    scale = max(np.linalg.norm(h), 1e-300)
    if dev > tol * max(1.0, scale):
        raise NotHermitianError(
            f"matrix is not Hermitian within tolerance (dev={dev:.3e}, scale={scale:.3e})"
        )
    return hermitian_part(h)


@dataclass(frozen=True)
class EigDecomp:
    """Eigendecomposition of a Hermitian matrix.

    eigenvalues are real and ascending; basis columns are the matching
    orthonormal eigenvectors, phase-fixed so the largest-modulus entry of
    each column is real nonnegative.
    """

    eigenvalues: np.ndarray
    basis: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return (self.basis * self.eigenvalues) @ self.basis.conj().T


def _canonical_phases(basis: np.ndarray) -> np.ndarray:
    out = basis.copy()
    for c in range(out.shape[1]):
        col = out[:, c]
        idx = int(np.argmax(np.abs(col)))
        pivot = col[idx]
        if abs(pivot) > 0:
            out[:, c] = col * (pivot.conjugate() / abs(pivot))
    return out


def eig_hermitian(h: np.ndarray, tol: float = HERM_TOL) -> EigDecomp:
    """Eigendecomposition of a Hermitian matrix, symmetrized internally."""
    hs = _check_hermitian(h, tol)
    try:
        vals, vecs = np.linalg.eigh(hs)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NumericalFailureError(str(exc)) from exc
    return EigDecomp(eigenvalues=vals, basis=_canonical_phases(vecs))


def op_norm(m) -> float:
    """Largest singular value; zero for the zero matrix."""
    m = as_complex(m)
    if m.size == 0:
        return 0.0
    return float(np.linalg.norm(m, 2))


def psd_min_eig(h: np.ndarray, tol: float = HERM_TOL) -> float:
    """Smallest eigenvalue of a Hermitian matrix.

    The caller decides positivity, typically by min_eig >= -tol * max(1, ||h||).
    """
    hs = _check_hermitian(h, tol)
    try:
        vals = np.linalg.eigvalsh(hs)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise NumericalFailureError(str(exc)) from exc
    return float(vals[0])


def support_projection(b: np.ndarray, cutoff: float = SUPPORT_CUTOFF) -> np.ndarray:
    """Spectral projection of a PSD matrix onto eigenvalues > cutoff * ||b||."""
    dec = eig_hermitian(b)
    thresh = cutoff * max(np.max(np.abs(dec.eigenvalues)), 0.0)
    keep = dec.eigenvalues > thresh
    v = dec.basis[:, keep]
    return v @ v.conj().T


def _spectral_apply(b: np.ndarray, fn, cutoff: float) -> np.ndarray:
    """Apply fn to eigenvalues above cutoff * ||b||; eigenvalues at or below map to 0."""
    dec = eig_hermitian(b)
    thresh = cutoff * max(np.max(np.abs(dec.eigenvalues), initial=0.0), 0.0)
    vals = np.where(dec.eigenvalues > thresh, dec.eigenvalues, 0.0)
    mapped = np.array([fn(v) if v > 0 else 0.0 for v in vals])
    return (dec.basis * mapped) @ dec.basis.conj().T


def psd_sqrt(a: np.ndarray) -> np.ndarray:
    """Square root of a PSD matrix; small negative eigenvalues are clipped to 0."""
    dec = eig_hermitian(a)
    vals = np.sqrt(np.clip(dec.eigenvalues, 0.0, None))
    return (dec.basis * vals) @ dec.basis.conj().T


def pinv_sqrt(b: np.ndarray, cutoff: float = SUPPORT_CUTOFF) -> np.ndarray:
    """b^{-1/2} on the support of b (eigenvalues <= cutoff * ||b|| are dropped)."""
    return _spectral_apply(b, lambda v: 1.0 / np.sqrt(v), cutoff)


def pinv_psd(b: np.ndarray, cutoff: float = SUPPORT_CUTOFF) -> np.ndarray:
    """b^{-1} on the support of b."""
    return _spectral_apply(b, lambda v: 1.0 / v, cutoff)


def _check_dominated(b: np.ndarray, a: np.ndarray) -> None:
    scale = max(1.0, op_norm(b))
    gap = psd_min_eig(hermitian_part(b - a))
    if gap < -PSD_TOL * scale:
        raise DominanceViolatedError(
            f"a <= b violated: min eig of b - a is {gap:.3e} at scale {scale:.3e}"
        )


def support_pinv_sqrt(b: np.ndarray, a: np.ndarray, cutoff: float = SUPPORT_CUTOFF) -> np.ndarray:
    """The contraction x = b^{-1/2} a^{1/2} with b^{1/2} x = a^{1/2} and p(b) x = x.

    Requires 0 <= a <= b within tolerance.
    """
    b = require_square(b)
    a = require_square(a)
    if a.shape != b.shape:
        raise DominanceViolatedError(f"shape mismatch {a.shape} vs {b.shape}")
    if psd_min_eig(a) < -PSD_TOL * max(1.0, op_norm(a)):
        raise DominanceViolatedError("a is not PSD within tolerance")
    _check_dominated(b, a)
    return pinv_sqrt(b, cutoff) @ psd_sqrt(a)


def support_pinv(b: np.ndarray, a: np.ndarray, cutoff: float = SUPPORT_CUTOFF) -> np.ndarray:
    """The element y = b^{-1} a for commuting PSD a, b with a^2 <= ||a||^2 b.

    Satisfies b y = a within tolerance and p(b) y = y.
    """
    b = require_square(b)
    a = require_square(a)
    if a.shape != b.shape:
        raise DominanceViolatedError(f"shape mismatch {a.shape} vs {b.shape}")
    na, nb = op_norm(a), op_norm(b)
    comm = op_norm(a @ b - b @ a)
    if comm > 1e-9 * max(na * nb, 1e-300):
        raise NotCommutingError(f"[a, b] has norm {comm:.3e}")
    if psd_min_eig(a) < -PSD_TOL * max(1.0, na):
        raise DominanceViolatedError("a is not PSD within tolerance")
    if na > 0:
        _check_dominated(na * na * b, a @ a)
    return pinv_psd(b, cutoff) @ a


def polar_unitary(y: np.ndarray) -> np.ndarray:
    """A unitary U with y = U |y|.

    On the support of |y| the action is forced; the kernel is completed
    isometrically from the SVD null-space bases, so the result is
    deterministic and U = I for y = 0.
    """
    y = require_square(y)
    if op_norm(y) == 0.0:
        return np.eye(y.shape[0], dtype=np.complex128)
    try:
        w, _, vh = np.linalg.svd(y)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise NumericalFailureError(str(exc)) from exc
    return w @ vh


def abs_polar(y: np.ndarray) -> np.ndarray:
    """|y| = (y* y)^{1/2}."""
    y = require_square(y)
    return psd_sqrt(y.conj().T @ y)
