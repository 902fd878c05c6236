"""Dense complex matrix substrate: the Hermitian/PSD kernel, operator norms,
spectral functions on the support, and the polar unitary.

One convention decides every Hermitian and PSD question in the package.
hermitian_kernel(h) makes one eigvalsh call on the Hermitian part
hs = (h + h*)/2 and returns herm_dev = ||h - h*||_F (an upper bound on the
operator-norm deviation, so tests on it err on the strict side), min_eig,
the smallest eigenvalue of hs, and scale = max(1, ||hs||). h is Hermitian
within tol iff herm_dev <= tol * scale, and PSD within tol (HermKernel.psd)
iff also min_eig >= -tol * scale. spectral_apply takes the support projection
and pseudo-inverses from one eigh call, with the same Hermitian test at
HERM_TOL, and drops eigenvalues <= SUPPORT_CUTOFF * ||b||. A tolerance that
is not finite and >= TOL_FLOOR (below it a verdict is the sign of a rounding
error), or a count check_count refuses, raises BadRangeError. op_norm takes a
matrix or a (..., N, N) stack. A LAPACK failure or an overflowed eigenvalue
or norm raises NumericalFailureError. No function mutates its arguments.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import (
    BadRangeError,
    NonSquareError,
    NotHermitianError,
    NumericalFailureError,
)

HERM_TOL = 1e-10
PSD_TOL = 1e-9
SUPPORT_CUTOFF = 1e-10
TOL_FLOOR = 1e-12  # above eigvalsh's backward error p*u = 2.2e-13 at the budget's p = 2025
DEFAULT_SAMPLES = 100


def check_tol(tol: float) -> None:
    """Raise BadRangeError unless tol is a finite number >= TOL_FLOOR."""
    if not (np.isfinite(tol) and tol >= TOL_FLOOR):
        raise BadRangeError(f"need a finite tolerance >= {TOL_FLOOR}, got {tol!r}")


def check_count(name: str, value, lo: int, hi: int | None = None) -> None:
    """Raise BadRangeError unless value is a Python or numpy integer (not a bool) in [lo, hi]."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise BadRangeError(f"{name} must be an integer, got {value!r}")
    if hi is not None and not lo <= value <= hi:
        raise BadRangeError(f"need {lo} <= {name} <= {hi}, got {value}")
    if value < lo:
        raise BadRangeError(f"need {name} >= {lo}, got {value}")


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
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(str(exc)) from exc
    dev = float(np.linalg.norm(h - h.conj().T))
    if not (np.all(np.isfinite(vals)) and np.isfinite(dev)):
        raise NumericalFailureError("spectrum or Hermitian deviation is not finite")
    kernel = HermKernel(dev, float(vals[0]), max(1.0, float(-vals[0]), float(vals[-1])))
    if tol is not None and not kernel.hermitian(tol):
        raise NotHermitianError(f"matrix is not Hermitian within tolerance ({kernel})")
    return kernel, vals, vecs


def hermitian_kernel(h: np.ndarray) -> HermKernel:
    """herm_dev, min_eig and scale of a square matrix (see the module docstring)."""
    return _spectrum(h, vectors=False)[0]


def op_norm(m):
    """Largest singular value of a matrix, or the array of them for a (..., N, N) stack."""
    m = as_complex(m)
    if m.size == 0:  # no singular values, and numpy < 2 cannot reduce over none
        return 0.0 if m.ndim == 2 else np.zeros(m.shape[:-2])
    try:
        norms = np.linalg.norm(m, 2, axis=(-2, -1))
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(str(exc)) from exc
    if not np.all(np.isfinite(norms)):
        raise NumericalFailureError("operator norm is not finite")
    return float(norms) if m.ndim == 2 else norms


def psd_min_eig(h: np.ndarray, tol: float = HERM_TOL) -> float:
    """Smallest eigenvalue of a matrix that is Hermitian within tol (see HermKernel.psd)."""
    return _spectrum(h, vectors=False, tol=tol)[0].min_eig


def spectral_apply(b: np.ndarray, *fns) -> list[np.ndarray]:
    """Each fn(b) from one eigh: fn maps eigenvalues > SUPPORT_CUTOFF * ||b||; the rest map to 0."""
    _, vals, vecs = _spectrum(b, vectors=True, tol=HERM_TOL)
    keep = vals > SUPPORT_CUTOFF * np.max(np.abs(vals))
    masked = np.where(keep, vals, 1.0)
    return [(vecs * np.where(keep, fn(masked), 0.0)) @ vecs.conj().T for fn in fns]


def polar_unitary(y: np.ndarray) -> np.ndarray:
    """A unitary U with y = U |y|.

    On the support of |y| the action is forced; the kernel is completed
    isometrically from the SVD null-space bases, so the result is
    deterministic and U = I for y = 0.
    """
    y = require_square(y)
    if not y.any():  # exact, and true for the empty matrix
        return np.eye(y.shape[0], dtype=np.complex128)
    try:
        w, _, vh = np.linalg.svd(y)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise NumericalFailureError(str(exc)) from exc
    return w @ vh

