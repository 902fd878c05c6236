"""Positivity hierarchy tests.

Complete positivity is decided exactly through PSD-ness of the Choi
blocks. k-positivity of a self-adjoint map is equivalent to
<x| C |x> >= 0 for all unit vectors x of Schmidt rank <= k, which is
falsified here by an alternating eigenvector descent over the rank-k
factors. A negative certificate (Witness) is always re-verified from
scratch; absence of a witness is reported as UNFALSIFIED, not as a proof.

The trace-mixing map psi_lambda(a) = lambda tr_n(a) 1 + (1 - lambda) a on M_n,
written once in trace_mixing_apply, is k-positive iff lambda <= 1 + 1/(nk - 1)
(Tomiyama's threshold): the exact oracle for the falsifier's test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .algebra import MAX_SIZE, FiniteCStar, _ginibre, unit_stack
from .errors import BadRangeError, DimensionMismatchError, NumericalFailureError
from .linalg import _spectrum, as_complex, check_count, check_tol, hermitian_kernel, hermitian_part
from .maps import PMap

CERTIFIED_POSITIVE = "CERTIFIED_POSITIVE"
UNFALSIFIED = "UNFALSIFIED"
VIOLATED = "VIOLATED"

DEFAULT_RESTARTS = 32
MAX_RESTARTS = 1024  # a usage bound; the see-saw runs in slices of MAX_SIZE**2 working entries
DEFAULT_TOL = 1e-8
_MAX_ITERS = 500  # a restart spends at most 2 * _MAX_ITERS half-step evaluations
_FTOL = 1e-12
_BETA_GROW, _BETA_CUT = 1.3, 0.5  # the extrapolation weight after an accepted, rejected trial
WITNESS_TOL = 1e-9  # a re-verified witness's slack on its norm and its recomputed value


def is_cp(phi: PMap, tol: float = DEFAULT_TOL) -> bool:
    """Choi criterion: completely positive iff every Choi block is PSD within tol."""
    return all(hermitian_kernel(c).psd(tol) for c in phi.choi_blocks)


def _threshold(n: int, k: int) -> Fraction:
    """1 + 1/(nk - 1), exactly; needs nk >= 2."""
    return 1 + Fraction(1, n * k - 1)


def tomiyama_threshold(n: int, k: int) -> float:
    """Largest lambda for which the trace-mixing map on M_n is k-positive."""
    check_count("n", n)
    check_count("k", k)
    if not (1 <= k <= n) or n * k < 2:  # so n >= 2 and k >= 1
        raise BadRangeError(f"need 1 <= k <= n and nk >= 2, got n={n}, k={k}")
    return float(_threshold(n, k))


def trace_mixing_apply(a: np.ndarray, lam: float) -> np.ndarray:
    """psi_lambda(a) = lambda tr_n(a) 1 + (1 - lambda) a on a matrix or a (..., n, n) stack."""
    a = as_complex(a)
    out = lam * a
    np.subtract(a, out, out=out)  # a - lam a, not (1 - lam) a: 1 - lam < 0 would sign the zeros
    d = np.arange(a.shape[-1])
    out[..., d, d] += (lam / len(d)) * np.trace(a, axis1=-2, axis2=-1)[..., None]
    return out


def tomiyama_map(n: int, lam: float) -> PMap:
    """The unital self-adjoint map psi_lambda on M_n, from its matrix-unit images."""
    check_count("n", n, 2)
    if not 0 <= lam < np.inf:
        raise BadRangeError(f"need a finite lambda >= 0, got {lam}")
    alg = FiniteCStar((n,))
    return PMap(alg, alg, trace_mixing_apply(unit_stack(alg), lam))


@dataclass(frozen=True)
class Witness:
    """A Schmidt-rank-bounded unit vector with negative Choi expectation.

    x = sum_r factors_left[r] (x) factors_right[r] refutes k-positivity of
    the map restricted to source block `block`.
    """

    k: int
    factors_left: tuple[np.ndarray, ...]
    factors_right: tuple[np.ndarray, ...]
    value: float
    vector_norm: float
    block: int = 0

    def assemble(self) -> np.ndarray:
        return _assemble(self.factors_left, self.factors_right)


def _assemble(left, right) -> np.ndarray:
    """The vector sum_r left[r] (x) right[r]."""
    return sum(np.kron(a, b) for a, b in zip(left, right))


@dataclass(frozen=True)
class KposVerdict:
    status: str
    best_value: float
    restarts_used: int
    restarts_capped: int  # restarts that spent their evaluation budget still moving
    witness: Optional[Witness]  # last, so a printed report shows the summary first


def _quadratic_value(c: np.ndarray, x: np.ndarray) -> float:
    return float(np.real(x.conj() @ (c @ x)))


def witness_verify(phi: PMap, w: Witness, tol: float = DEFAULT_TOL) -> bool:
    """Recompute the witness value from scratch and check every invariant."""
    check_tol(tol)
    if w.block < 0 or w.block >= phi.source.n_blocks:
        raise DimensionMismatchError(f"witness block {w.block} out of range")
    n = phi.source.block_sizes[w.block]
    d = phi.target.embed_dim
    if len(w.factors_left) != len(w.factors_right):
        return False
    if len(w.factors_left) > w.k or len(w.factors_left) == 0:
        return False
    for a, b in zip(w.factors_left, w.factors_right):
        if a.shape != (n,) or b.shape != (d,):
            raise DimensionMismatchError("witness factor dimensions do not match the map")
    x = w.assemble()
    nrm = float(np.linalg.norm(x))
    if not (1 - WITNESS_TOL <= nrm <= 1 + WITNESS_TOL):
        return False
    c = phi.choi_blocks[w.block]
    value = _quadratic_value(hermitian_part(c), x)
    if abs(value - w.value) > WITNESS_TOL * max(1.0, abs(value)):
        return False
    return value < -tol * hermitian_kernel(c).scale


def _schmidt_factors(wmat: np.ndarray, k: int):
    """Top-k Schmidt factors of the vector with coefficient matrix wmat.

    x[(i,s)] = wmat[i,s] = sum_r (u[:,r] s_r)[i] * vh[r,:][s], so the right
    factors are the rows of vh, not their conjugates.
    """
    u, s, vh = np.linalg.svd(wmat)
    k = min(k, len(s))
    left = tuple(u[:, r] * s[r] for r in range(k))
    right = tuple(vh[r, :] for r in range(k))
    return left, right


def _start_frames(seed: int, restarts: int, d: int, k: int) -> np.ndarray:
    """Orthonormal (d, k) start frames; restart r draws from default_rng([seed, r])."""
    g = [_ginibre(np.random.default_rng([seed, r]), (d, k)) for r in range(restarts)]
    return np.linalg.qr(np.array(g))[0]


def _compress(t_laid: np.ndarray, frames: np.ndarray, p: int) -> np.ndarray:
    """<x|C|x> as a form in the free factors, one (k p, k p) matrix per frame.

    t_laid[s, (i, j, t)]: s, t index the framed factor, i, j (size p) the
    free one; frames is (R, q, k). Entry [(r, i), (r', j)] pairs column r of
    the frame with free index i.
    """
    r_, q, k = frames.shape
    x = np.swapaxes(frames, 1, 2).conj().reshape(r_ * k, q) @ t_laid
    y = x.reshape(r_, k * p * p, q) @ frames  # [r, i, j, r']
    return y.reshape(r_, k, p, p, k).swapaxes(3, 4).reshape(r_, k * p, k * p)


def _still_moving(prev: np.ndarray, active: np.ndarray, value: np.ndarray) -> np.ndarray:
    """Stopping rule after an accepted half-step: a restart stops once it gains less than _FTOL."""
    moving = ~(prev[active] - value < _FTOL)
    prev[active] = value
    return active[moving]


def _bottom_pairs(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lowest eigenvalue and a unit eigenvector of each matrix of a Hermitian (R, p, p) stack.

    Two solves of inverse iteration on each matrix, scaled by a power of two to spectral
    radius in [1/2, 1) and shifted 64 eps below its eigvalsh minimum, from sin(1..p),
    which no vector with algebraic entries is orthogonal to (e^i is transcendental).
    """
    try:
        vals = np.linalg.eigvalsh(m)
        e = np.frexp(np.abs(vals[:, [0, -1]]).max(axis=1))[1]
        low = np.ldexp(vals[:, 0], -e) - 64 * np.finfo(float).eps
        half = (-e // 2)[:, None, None]  # two exact factors, so subnormal stacks scale exactly
        shifted = m * np.ldexp(1.0, half) * np.ldexp(1.0, -e[:, None, None] - half)
        diag = np.arange(m.shape[-1])
        shifted[:, diag, diag] -= low[:, None]
        v = np.sin(np.arange(1.0, m.shape[-1] + 1))[None, :, None]  # 3-D: a stack of matrices
        for _ in range(2):
            v = np.linalg.solve(shifted, v)
            v = v / np.abs(v).max(axis=1, keepdims=True)  # ||v||^2 stays in range
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"bottom eigenpair failed: {exc}") from exc
    return vals[:, 0], v[:, :, 0] / np.linalg.norm(v, axis=1)


def _free_factors(laid: np.ndarray, f: np.ndarray, p: int, k: int):
    """Exact half-step: each frame's minimum over the free factors, and those (R, p, k) factors."""
    vals, vecs = _bottom_pairs(_compress(laid, f, p))
    return vals, np.swapaxes(vecs.reshape(-1, k, p), 1, 2)


def _seesaw(
    c_herm: np.ndarray, n: int, d: int, k: int, frames: np.ndarray
) -> tuple[np.ndarray, np.ndarray, int]:
    """Alternating descent from every start frame, all restarts advanced together.

    A half-step holds one side to an orthonormal frame F and solves exactly
    for the k free factors X of the other side; QR of X is the next frame.
    From the third full step on, side 0 first tries the frame of the point
    W + beta (W - e^{i theta} W_prev) extrapolated from the last two full
    steps, and keeps it only where it lowers the value; elsewhere beta is
    halved and side 0 is redone from the QR frame. Returns each restart's
    value, its (n, d) coefficient matrix, and how many restarts spent their
    2 * _MAX_ITERS half-step evaluations still moving. A restart that stops
    is written out and leaves the working arrays, so it never depends on the others.
    """
    t = c_herm.reshape(n, d, n, d)  # t[i, s, j, t]
    # for _compress: [s, (i, j, t)] frees the left factors (side 0), [i, (s, t, j)] the right
    laid = t.transpose(1, 0, 2, 3).reshape(d, -1), t.transpose(0, 1, 3, 2).reshape(n, -1)
    wmat = np.empty((len(frames), n, d), dtype=np.complex128)
    rows = np.arange(len(frames))  # the restart of each working row
    prev = np.full(len(frames), np.inf)
    spent = np.zeros(len(frames), dtype=int)  # half-step evaluations, rejected trials included
    beta = np.ones(len(frames))
    w = w_prev = np.zeros_like(wmat)  # the coefficient matrices after the last two full steps
    f, capped = frames, 0
    for half in range(2 * _MAX_ITERS):  # each pass spends at least one evaluation per row
        side, p = half % 2, (n, d)[half % 2]
        vals, free = np.empty(len(rows)), np.empty((len(rows), p, k), dtype=np.complex128)
        ok = np.zeros(len(rows), dtype=bool)
        if half >= 4 and not side:  # from the third full step on, the extrapolated frame first
            phase = np.exp(1j * np.angle(np.sum(w_prev.conj() * w, axis=(1, 2))))[:, None, None]
            w_e = w + beta[:, None, None] * (w - phase * w_prev)
            trial = np.swapaxes(np.linalg.svd(w_e, full_matrices=False)[2][:, :k], 1, 2)
            vals, free = _free_factors(laid[0], trial, n, k)
            spent += 1
            ok = vals < prev
            beta *= np.where(ok, _BETA_GROW, _BETA_CUT)
            f = np.where(ok[:, None, None], trial, f)
        redo = ~ok & (spent < 2 * _MAX_ITERS)  # the QR frame: every row, or the rejected ones
        vals[redo], free[redo] = _free_factors(laid[side], f[redo], p, k)
        spent[redo] += 1
        ok |= redo  # not ok now: a rejected trial with no evaluation left, so still moving
        live = ~ok
        live[_still_moving(prev, np.flatnonzero(ok), vals[ok])] = True
        keep = live & (spent < 2 * _MAX_ITERS)
        capped += int(np.count_nonzero(live & ~keep))
        x = free @ np.swapaxes(f, 1, 2)  # x[(i,s)] = sum_r A[i,r] B[s,r], transposed on side 1
        now = np.swapaxes(x, 1, 2) if side else np.where(ok[:, None, None], x, w)
        wmat[rows[~keep]] = now[~keep]
        if not keep.any():
            break
        if side:
            w, w_prev = now, w
        rows, prev, spent, beta, free, w, w_prev = (
            a[keep] for a in (rows, prev, spent, beta, free, w, w_prev)
        )
        f = np.linalg.qr(free)[0]
    values = np.array([_quadratic_value(c_herm, w.reshape(-1)) for w in wmat])
    return values, wmat, capped


def k_positivity_falsify(
    phi: PMap,
    k: int,
    restarts: int = DEFAULT_RESTARTS,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
) -> KposVerdict:
    """Search for a Schmidt-rank-<=k vector with negative Choi expectation.

    Runs blockwise over the source. VIOLATED carries the re-verified Witness of
    the lowest block minimum below -tol times its own block's scale, as in is_cp
    and witness_verify, and best_value is its value; otherwise best_value is the
    minimum over all blocks, and the CP fast path upgrades a fruitless search to
    CERTIFIED_POSITIVE. Deterministic in (seed, restarts): restart r draws its
    start frame from np.random.default_rng([seed, r]), so distinct seeds run
    distinct searches. restarts_capped counts the restarts that spent their
    half-step budget still moving rather than stopping on tolerance.
    """
    check_count("k", k, 1)
    check_count("restarts", restarts, 1, MAX_RESTARTS)
    check_tol(tol)
    check_count("a seed", seed, 0)
    d = phi.target.embed_dim
    best_value = np.inf
    best = None  # (value, block, factors): the lowest value below its block's -tol * scale
    used = capped = 0
    kernels = []
    for bi, (c, n) in enumerate(zip(phi.choi_blocks, phi.source.block_sizes)):
        k_eff = min(k, n, d)
        exact = k_eff >= min(n, d)  # a vacuous Schmidt bound: the bottom eigenvector is the minimum
        kernel, vals, vecs = _spectrum(c, vectors=exact)  # raises before a search on overflow
        kernels.append(kernel)
        if exact:
            value, wmat = float(vals[0]), vecs[:, 0].reshape(n, d)
        else:
            frames = _start_frames(seed, restarts, d, k_eff)
            # a restart's _compress product holds k n d max(n, d) entries; restarts are independent
            h, step = hermitian_part(c), max(1, MAX_SIZE**2 // (k_eff * n * d * max(n, d)))
            runs = [_seesaw(h, n, d, k_eff, frames[i : i + step]) for i in range(0, restarts, step)]
            values, wmats, caps = zip(*runs)
            values, wmats = np.concatenate(values), np.concatenate(wmats)
            r = int(np.argmin(values))  # the lowest index wins ties
            value, wmat = float(values[r]), wmats[r]
            used += restarts
            capped += sum(caps)
        best_value = min(best_value, value)
        if value < -tol * kernel.scale and (best is None or value < best[0]):
            best = (value, bi, _schmidt_factors(wmat, k_eff))

    if best is not None:
        value, bi, (left, right) = best
        w = Witness(
            k=k,
            factors_left=left,
            factors_right=right,
            value=value,
            vector_norm=float(np.linalg.norm(_assemble(left, right))),
            block=bi,
        )
        if witness_verify(phi, w, tol):
            return KposVerdict(VIOLATED, value, used, capped, w)
    if all(kern.psd(tol) for kern in kernels):  # is_cp, from the kernels already in hand
        return KposVerdict(CERTIFIED_POSITIVE, float(best_value), used, capped, None)
    return KposVerdict(UNFALSIFIED, float(best_value), used, capped, None)
