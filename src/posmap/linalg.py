"""Dense complex matrix substrate: Hermitian eigendecompositions, operator
norms, PSD tests, support pseudo-inverses and polar decompositions.

One convention decides every Hermitian and PSD question in the package.
hermitian_kernel(h) makes one eigvalsh call on the Hermitian part
hs = (h + h*)/2 and returns herm_dev = ||h - h*||_F (an upper bound on the
operator-norm deviation, so tests on it err on the strict side), min_eig,
the smallest eigenvalue of hs, and scale = max(1, ||hs||). h is Hermitian
within tol iff herm_dev <= tol * scale, and PSD within tol (is_psd) iff
also min_eig >= -tol * scale. The functions that need eigenvectors share
one eigh path with the same Hermitian test at HERM_TOL. Support
pseudo-inverses drop eigenvalues <= cutoff * ||b||. A tolerance or cutoff
that is not finite and >= 0 raises BadRangeError. No function mutates its
arguments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    BadRangeError,
    DominanceViolatedError,
    NonSquareError,
    NotCommutingError,
    NotHermitianError,
    NumericalFailureError,
)

HERM_TOL = 1e-10
PSD_TOL = 1e-9
SUPPORT_CUTOFF = 1e-10


def check_tol(tol: float, what: str = "tolerance") -> None:
    """Raise BadRangeError unless tol is a finite number >= 0."""
    if not (np.isfinite(tol) and tol >= 0):
        raise BadRangeError(f"need a finite {what} >= 0, got {tol!r}")


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


class HermKernel(NamedTuple):
    """The three numbers every Hermitian/PSD decision is made from."""

    herm_dev: float
    min_eig: float
    scale: float

    def hermitian(self, tol: float) -> bool:
        check_tol(tol)
        return self.herm_dev <= tol * self.scale

    def psd(self, tol: float) -> bool:
        return self.hermitian(tol) and self.min_eig >= -tol * self.scale


def _spectrum(h: np.ndarray, vectors: bool, tol: float | None = None):
    """(kernel, eigenvalues, eigenvectors or None); with a tol, non-Hermitian h raises."""
    h = require_square(h)
    hs = hermitian_part(h)
    try:
        vals, vecs = np.linalg.eigh(hs) if vectors else (np.linalg.eigvalsh(hs), None)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NumericalFailureError(str(exc)) from exc
    dev = float(np.linalg.norm(h - h.conj().T))
    kernel = HermKernel(dev, float(vals[0]), max(1.0, float(-vals[0]), float(vals[-1])))
    if tol is not None and not kernel.hermitian(tol):
        raise NotHermitianError(f"matrix is not Hermitian within tolerance ({kernel})")
    return kernel, vals, vecs


def hermitian_kernel(h: np.ndarray) -> HermKernel:
    """herm_dev, min_eig and scale of a square matrix (see the module docstring)."""
    return _spectrum(h, vectors=False)[0]


def is_psd(h: np.ndarray, tol: float = PSD_TOL) -> bool:
    """Hermitian within tol and min_eig >= -tol * scale."""
    return hermitian_kernel(h).psd(tol)


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
    cols = np.arange(basis.shape[1])
    pivot = basis[np.argmax(np.abs(basis), axis=0), cols]
    size = np.abs(pivot)
    return basis * np.where(size > 0, pivot.conj() / np.where(size > 0, size, 1.0), 1.0)


def eig_hermitian(h: np.ndarray, tol: float = HERM_TOL) -> EigDecomp:
    """Eigendecomposition of a Hermitian matrix, symmetrized internally."""
    _, vals, vecs = _spectrum(h, vectors=True, tol=tol)
    return EigDecomp(eigenvalues=vals, basis=_canonical_phases(vecs))


def op_norm(m) -> float:
    """Largest singular value; zero for the zero matrix."""
    m = as_complex(m)
    if m.size == 0:
        return 0.0
    return float(np.linalg.norm(m, 2))


def psd_min_eig(h: np.ndarray, tol: float = HERM_TOL) -> float:
    """Smallest eigenvalue of a matrix that is Hermitian within tol (see is_psd)."""
    return _spectrum(h, vectors=False, tol=tol)[0].min_eig


def _spectral_apply(b: np.ndarray, fn, cutoff: float) -> np.ndarray:
    """Apply fn to eigenvalues above cutoff * ||b||; eigenvalues at or below map to 0."""
    check_tol(cutoff, "cutoff")
    _, vals, vecs = _spectrum(b, vectors=True, tol=HERM_TOL)
    keep = vals > cutoff * np.max(np.abs(vals))
    mapped = np.where(keep, fn(np.where(keep, vals, 1.0)), 0.0)
    return (vecs * mapped) @ vecs.conj().T


def support_projection(b: np.ndarray, cutoff: float = SUPPORT_CUTOFF) -> np.ndarray:
    """Spectral projection of a PSD matrix onto eigenvalues > cutoff * ||b||."""
    return _spectral_apply(b, np.ones_like, cutoff)


def psd_sqrt(a: np.ndarray) -> np.ndarray:
    """Square root of a PSD matrix; small negative eigenvalues are clipped to 0."""
    return _spectral_apply(a, np.sqrt, 0.0)


def pinv_sqrt(b: np.ndarray, cutoff: float = SUPPORT_CUTOFF) -> np.ndarray:
    """b^{-1/2} on the support of b (eigenvalues <= cutoff * ||b|| are dropped)."""
    return _spectral_apply(b, lambda v: 1.0 / np.sqrt(v), cutoff)


def pinv_psd(b: np.ndarray, cutoff: float = SUPPORT_CUTOFF) -> np.ndarray:
    """b^{-1} on the support of b."""
    return _spectral_apply(b, lambda v: 1.0 / v, cutoff)


def _require_psd(m: np.ndarray, what: str) -> None:
    kernel = hermitian_kernel(m)
    if not kernel.psd(PSD_TOL):
        raise DominanceViolatedError(f"{what} is not PSD within tolerance ({kernel})")


def _checked_pair(b, a, cutoff: float):
    """Square b and a of one shape with a PSD; the cutoff is range-checked first."""
    check_tol(cutoff, "cutoff")
    b, a = require_square(b), require_square(a)
    if a.shape != b.shape:
        raise DominanceViolatedError(f"shape mismatch {a.shape} vs {b.shape}")
    _require_psd(a, "a")
    return b, a


def support_pinv_sqrt(b: np.ndarray, a: np.ndarray, cutoff: float = SUPPORT_CUTOFF) -> np.ndarray:
    """The contraction x = b^{-1/2} a^{1/2} with b^{1/2} x = a^{1/2} and p(b) x = x.

    Requires 0 <= a <= b within tolerance.
    """
    b, a = _checked_pair(b, a, cutoff)
    _require_psd(b - a, "b - a")
    return pinv_sqrt(b, cutoff) @ psd_sqrt(a)


def support_pinv(b: np.ndarray, a: np.ndarray, cutoff: float = SUPPORT_CUTOFF) -> np.ndarray:
    """The element y = b^{-1} a for commuting PSD a, b with a^2 <= ||a||^2 b.

    Satisfies b y = a within tolerance and p(b) y = y.
    """
    b, a = _checked_pair(b, a, cutoff)
    na, nb = op_norm(a), op_norm(b)
    comm = op_norm(a @ b - b @ a)
    if comm > 1e-9 * max(na * nb, 1e-300):
        raise NotCommutingError(f"[a, b] has norm {comm:.3e}")
    if na > 0:
        _require_psd(na * na * b - a @ a, "||a||^2 b - a^2")
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
