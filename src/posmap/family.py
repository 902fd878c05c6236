"""A family of k-positive, almost disjointness-preserving maps.

On M_m (x) M_n, mixing the identity with a corner-fed trace-mixing map,

    phi(x) = (1 - eps) x + eps 1_m (x) psi_lambda(corner(x)),

where corner(x) is the n x n block cut out by e_00 (x) 1_n, produces a
unital map that is k-positive for lambda <= 1 + 1/(nk - 1) and whose
multiplicativity defect ||phi(x)^2 - phi(x^2)|| stays below 6 eps on all
contractions. Compressing with the normalized partial trace over the
first factor and the corner embedding gives back a trace-mixing map with
an effective parameter

    lambda~ = m eps lambda / ((1 - eps) + m eps),

which crosses the (k+1)-threshold for large m, so the big map cannot be
(k+1)-positive even though its defect is small.

The maps are formula appliers on dense matrices or stacks of them (psi_lambda
is positivity.trace_mixing_apply), so verification at large m never makes a
Choi matrix and holds at most three dense (mn) x (mn) matrices, about 192 MiB
at mn = 2046. The compressed map handed to the falsifier and
corner_mixture_map (small m) apply them to the stack of matrix units. Every
entry point first checks n >= 2, m >= 1, mn <= MAX_SIZE, eps in (0, 1) and a
finite lambda; the image budget of algebra.unit_stack adds mn <= 45 for
corner_mixture_map and n <= 45 for verify_corner_family.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .algebra import MAX_SIZE, FiniteCStar, _contraction, unit_stack
from .errors import BadRangeError
from .linalg import DEFAULT_SAMPLES, as_complex, check_count, op_norm
from .maps import PMap
from .positivity import DEFAULT_RESTARTS, MAX_RESTARTS, KposVerdict, _threshold
from .positivity import k_positivity_falsify, trace_mixing_apply

CLOSED_FORM_TOL = 1e-10


def _check_params(n: int, m: int, lam: float, eps: float) -> None:
    check_count("n", n, 2)
    check_count("m", m, 1)
    if m * n > MAX_SIZE:
        raise BadRangeError(f"need m * n <= {MAX_SIZE}, got {m * n}")
    if not (0.0 < eps < 1.0):
        raise BadRangeError(f"need eps in (0, 1), got {eps}")
    if not np.isfinite(lam):
        raise BadRangeError(f"need a finite lambda, got {lam}")


# -- formula-level actions on (..., N, N) stacks of dense matrices ---------------


def corner_mixture_apply(x: np.ndarray, n: int, m: int, lam: float, eps: float) -> np.ndarray:
    """Apply the corner-mixture map to (mn) x (mn) matrices."""
    _check_params(n, m, lam, eps)
    x = as_complex(x)
    corner = x[..., :n, :n]  # rows and columns with first tensor index 0
    out = (1.0 - eps) * x
    blocks = out.reshape(out.shape[:-2] + (m, n, m, n))  # a view: out is fresh and contiguous
    d = np.arange(m)  # 1_m (x) t adds t to the m diagonal n x n blocks, in place
    blocks[..., d, :, d, :] += eps * trace_mixing_apply(corner, lam)
    return out


def partial_trace_first_apply(x: np.ndarray, m: int, n: int) -> np.ndarray:
    """Normalized partial trace over the first factor of M_m (x) M_n."""
    x = as_complex(x)
    return np.einsum("...aiaj->...ij", x.reshape(x.shape[:-2] + (m, n, m, n))) / m


def corner_embed_apply(a: np.ndarray, m: int) -> np.ndarray:
    """a -> e_00 (x) a into M_m (x) M_n."""
    a = as_complex(a)
    n = a.shape[-1]
    out = np.zeros(a.shape[:-2] + (m * n, m * n), dtype=np.complex128)
    out[..., :n, :n] = a
    return out


# -- PMap builder (small m) ----------------------------------------------------


def corner_mixture_map(n: int, m: int, lam: float, eps: float) -> PMap:
    """The corner-mixture map as a PMap on the single block M_{mn}."""
    _check_params(n, m, lam, eps)
    alg = FiniteCStar((m * n,))
    stack = corner_mixture_apply(unit_stack(alg), n, m, lam, eps)
    return PMap(alg, alg, stack)


# -- effective mixing parameter -------------------------------------------------


def _mixing_parameter_fraction(m: int, eps: Fraction, lam: Fraction) -> Fraction:
    return (m * eps * lam) / ((1 - eps) + m * eps)


def composed_mixing_parameter(m: int, eps: float, lam: float) -> float:
    """lambda~ = m eps lambda / ((1 - eps) + m eps).

    Strictly increasing in m with limit lambda as m -> infinity.
    """
    check_count("m", m, 1)
    if not (0.0 < eps < 1.0):
        raise BadRangeError(f"need eps in (0, 1), got {eps}")
    if not 0 < lam < np.inf:
        raise BadRangeError(f"need a finite lambda > 0, got {lam}")
    return float(
        _mixing_parameter_fraction(m, Fraction(eps), Fraction(lam))
    )


# -- verification ----------------------------------------------------------------


@dataclass(frozen=True)
class FamilyReport:
    """Everything verify_corner_family measured for one parameter point."""

    n: int
    m: int
    k: int
    lam: float
    eps: float
    seed: int
    samples: int
    defect_max: float
    defect_bound: float
    defect_ok: bool
    closed_form_dev: float
    closed_form_ok: bool
    mixing_parameter: float
    next_threshold: float
    exceeds_next_threshold: bool
    falsifier: Optional[KposVerdict]

    @property
    def all_ok(self) -> bool:
        confirmed = (
            self.falsifier is None or self.falsifier.status == "VIOLATED"
        )
        return self.defect_ok and self.closed_form_ok and confirmed


def verify_corner_family(
    n: int,
    m: int,
    k: int,
    lam: float,
    eps: float,
    seed: int = 0,
    samples: int = DEFAULT_SAMPLES,
    restarts: int = DEFAULT_RESTARTS,
) -> FamilyReport:
    """Check the three claims about one member of the corner-mixture family.

    (a) the multiplicativity defect stays below 6 eps on sampled
        contractions of M_{mn};
    (b) compressing through the corner reproduces the trace-mixing map
        with parameter lambda~, within 1e-10 on matrix units;
    (c) lambda~ exceeds the (k+1)-threshold exactly when it should, and
        when it does, the falsifier confirms the violation on the
        compressed map.

    Requires the window 1/(n(k+1)-1) < lambda - 1 <= 1/(nk-1).
    """
    _check_params(n, m, lam, eps)
    alg_n = FiniteCStar((n,))
    units = unit_stack(alg_n)  # checks the image budget before anything is drawn, so n <= 45
    if not (1 <= k < n):
        raise BadRangeError(f"need 1 <= k < n, got k={k}, n={n}")
    check_count("k", k, 1)
    check_count("samples", samples, 1)
    check_count("a seed", seed, 0)
    check_count("restarts", restarts, 1, MAX_RESTARTS)
    lam_f = Fraction(lam)
    lo, hi = _threshold(n, k + 1), _threshold(n, k)  # the window for lambda
    if not (lo < lam_f <= hi):
        raise BadRangeError(
            f"lambda - 1 = {lam - 1} outside the window ({float(lo - 1)}, {float(hi - 1)}]"
        )

    size = m * n
    rng = np.random.default_rng(seed)
    defect_max = 0.0
    for _ in range(samples):
        x = _contraction(rng, size)
        fxx = corner_mixture_apply(x @ x, n, m, lam, eps)
        fx = corner_mixture_apply(x, n, m, lam, eps)
        del x  # ordered and dropped so that at most three (mn)^2 matrices are alive
        d = fx @ fx
        d -= fxx
        del fx, fxx
        defect_max = max(defect_max, op_norm(d))
        del d
    defect_bound = 6.0 * eps

    lam_tilde_f = _mixing_parameter_fraction(m, Fraction(eps), lam_f)
    lam_tilde = float(lam_tilde_f)
    prefactor = float(Fraction(eps) * lam_f / lam_tilde_f)

    # compress the actual pipeline through the corner and compare to the
    # closed-form trace-mixing map
    # unit by unit, so that one embedded (mn)^2 unit and its image are alive at a time
    composed = np.stack([
        partial_trace_first_apply(
            corner_mixture_apply(corner_embed_apply(u, m), n, m, lam, eps), m, n
        )
        for u in units
    ])
    closed_form_dev = float(
        op_norm(composed - prefactor * trace_mixing_apply(units, lam_tilde)).max()
    )

    exceeds = lam_tilde_f > lo  # lo is the (k+1)-threshold

    falsifier = None
    if exceeds:
        compressed = PMap(alg_n, alg_n, composed)
        falsifier = k_positivity_falsify(
            compressed, k + 1, restarts=restarts, seed=seed
        )

    return FamilyReport(
        n=n,
        m=m,
        k=k,
        lam=lam,
        eps=eps,
        seed=seed,
        samples=samples,
        defect_max=defect_max,
        defect_bound=defect_bound,
        defect_ok=defect_max < defect_bound,
        closed_form_dev=closed_form_dev,
        closed_form_ok=closed_form_dev < CLOSED_FORM_TOL,
        mixing_parameter=lam_tilde,
        next_threshold=float(lo),
        exceeds_next_threshold=exceeds,
        falsifier=falsifier,
    )
