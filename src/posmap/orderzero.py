"""Order-zero and almost-order-zero analysis for maps between
finite-dimensional C*-algebras.

A positive map phi has order zero when it preserves orthogonality of
positive elements: phi(a)phi(b) = 0 whenever a, b >= 0 and ab = 0. In the
unital finite-dimensional setting this is captured by three measurable
defects, all reported as plain numbers and never thresholded here:

* the one-variable defect ||phi(a)^2 - phi(a^2) phi(1)|| on positive
  contractions a (zero for every a exactly when phi has order zero, given
  2-positivity);
* the sampled orthogonal-pair defect ||phi(a)phi(b)|| over pairs with
  ab = 0 built from complementary spectral supports;
* the orthogonality-domain defect, the worst deviation in
  phi(a)phi(b) = phi(1)phi(ab) and phi(b)phi(a) = phi(ba)phi(1) over a
  matrix-unit basis of b's.

Order-zero maps factor as phi = h pi with h = phi(1) and pi a
*-homomorphism commuting with h; oz_decompose recovers (h, pi) and reports
how badly the factorization fails, and oz_construct builds maps from such
data. cp_repair measures the multiplicativity defect on a matrix-unit
column and adds the trace bump that restores complete positivity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (
    Element,
    FiniteCStar,
    _ginibre,
    _wishart,
    block_mask,
    embed_blocks,
    embed_stack,
    from_embedded,
    unit_stack,
)
from .errors import (
    BadRangeError,
    MultiBlockUnsupportedError,
    NotHermitianError,
    NotHomomorphismError,
    NotCommutingError,
    NotPositiveContractionError,
    NotUnitaryError,
    NumericalFailureError,
    PreconditionFailedError,
)
from .linalg import HERM_TOL, PSD_TOL, check_count, hermitian_kernel, hermitian_part
from .linalg import op_norm, polar_unitary, require_square, spectral_apply
from .maps import PMap


# -- defect functionals ------------------------------------------------------


def _check_positive_contraction(m: np.ndarray, what: str) -> None:
    """NotPositiveContractionError unless m is PSD within PSD_TOL and ||m|| <= 1 + PSD_TOL."""
    kernel = hermitian_kernel(m)
    # for a PSD m, scale = max(1, ||m||), so it exceeds 1 + PSD_TOL iff ||m|| does
    if not kernel.psd(PSD_TOL) or kernel.scale > 1 + PSD_TOL:
        raise NotPositiveContractionError(f"{what} must be a positive contraction")


def _check_unitary(m: np.ndarray, what: str) -> None:
    """NotUnitaryError unless ||m* m - 1|| <= PSD_TOL."""
    m = require_square(m)
    if op_norm(m.conj().T @ m - np.eye(m.shape[0])) > PSD_TOL:
        raise NotUnitaryError(f"{what} is not unitary")


def one_var_defect(phi: PMap, a: Element) -> float:
    """||phi(a)^2 - phi(a^2) phi(1)|| for a positive contraction a."""
    _check_positive_contraction(a.embedded(), "a")
    f1 = phi.act(np.eye(phi.source.embed_dim))
    probes = embed_stack(phi.source, [a])
    return _one_var(phi, probes, phi.act(probes), f1)


def _one_var(phi: PMap, probes: np.ndarray, fp: np.ndarray, f1: np.ndarray) -> float:
    """Worst ||phi(a)^2 - phi(a^2) phi(1)|| over a (p, Ds, Ds) probe stack with images fp."""
    return float(op_norm(fp @ fp - phi.act(probes @ probes) @ f1).max())


def _od_sup(
    phi: PMap, probes: np.ndarray, fp: np.ndarray,
    units: np.ndarray, unit_images: np.ndarray, f1: np.ndarray,
) -> float:
    """Worst OD-identity deviation over a probe stack with images fp and every matrix unit."""
    fa = fp[:, None]
    left = fa @ unit_images - f1 @ phi.act(probes[:, None] @ units)
    right = unit_images @ fa - phi.act(units @ probes[:, None]) @ f1
    return float(max(op_norm(left).max(), op_norm(right).max()))


def od_defect(phi: PMap, a: Element) -> float:
    """Worst deviation from the orthogonality-domain identities over a basis.

    max over matrix units b of ||phi(a)phi(b) - phi(1)phi(ab)|| and
    ||phi(b)phi(a) - phi(ba)phi(1)||; zero iff both identities hold for
    every b by linearity.
    """
    units = unit_stack(phi.source)
    f1 = phi.act(np.eye(phi.source.embed_dim))
    unit_images = phi.transfer.reshape(-1, *f1.shape)  # row u of T is phi(e_u)
    probes = embed_stack(phi.source, [a])
    return _od_sup(phi, probes, phi.act(probes), units, unit_images, f1)


def kadison_gap(phi: PMap, a: Element) -> float:
    """Smallest eigenvalue of phi(a* a) - phi(a)* phi(a), over all target blocks.

    Nonnegative (within noise) for 2-positive contractions; a genuinely
    negative value falsifies 2-positivity.
    """
    fa = phi(a)
    gap = phi(a.adj() * a) - fa.adj() * fa
    return min(hermitian_kernel(b).min_eig for b in gap.blocks)


def schwartz_gap(phi: PMap, a: Element, b: Element) -> float:
    """Smallest eigenvalue of phi(a*a) - X*X with X = phi(b*b)^{-1/2} phi(b*a).

    The pseudo-inverse square root is taken on the support of phi(b*b).
    Nonnegative (within noise) for 2-positive contractions.
    """
    h = phi(b.adj() * b)
    g = phi(b.adj() * a)
    faa = phi(a.adj() * a)
    worst = np.inf
    for hb, gb, fb in zip(h.blocks, g.blocks, faa.blocks):
        x = spectral_apply(hermitian_part(hb), lambda v: 1.0 / np.sqrt(v))[0] @ gb
        worst = min(worst, hermitian_kernel(fb - x.conj().T @ x).min_eig)
    return float(worst)


# -- sampled defect report ---------------------------------------------------


@dataclass(frozen=True)
class DefectReport:
    """Measured suprema of the order-zero defects over a seeded sample."""

    one_var_sup: float
    orth_pair_sup: float
    od_sup: float
    samples: int
    seed: int


# Samples are drawn in batches of dim chunks and evaluated chunk by chunk. Each OD stack
# of a chunk holds 2 * chunk * dim * D^2 complex entries, at most this bound (unless a
# chunk is one sample), and each (batch, D, D) stack of a batch holds half as many.
_CHUNK_ENTRIES = 2**13


def _sample_stacks(rng: np.random.Generator, algebra: FiniteCStar, count: int):
    """(w, a, b, p) for count samples, as embedded (count, D, D) stacks.

    Per sample: a Wishart Ginibre matrix g per block, the support masks (never
    all equal), then per block a Ginibre matrix for the eigenbasis v and the
    coefficients of a, b >= 0, whose supports in v are disjoint: ab = 0 up to
    the rounding of v. w = g*g / ||g*g|| and p is the support projection of a.
    """
    sizes = algebra.block_sizes
    draws = []
    for _ in range(count):
        gs = [_ginibre(rng, (n, n)) for n in sizes]
        masks = [rng.integers(0, 2, size=n).astype(bool) for n in sizes]
        flat = np.concatenate(masks)
        masks[0][0] |= not flat.any()
        masks[-1][-1] &= not flat.all()
        draws.append([
            (g, m, _ginibre(rng, (n, n)), rng.uniform(0.2, 1.0, n), rng.uniform(0.2, 1.0, n))
            for g, m, n in zip(gs, masks, sizes)
        ])
    d = algebra.embed_dim
    w, a, b, p = (np.zeros((count, d, d), dtype=np.complex128) for _ in range(4))
    for bi, (n, off) in enumerate(zip(sizes, np.cumsum((0,) + sizes))):
        g, mask, h, u_a, u_b = map(np.array, zip(*(sample[bi] for sample in draws)))
        at = np.s_[:, off : off + n, off : off + n]
        w[at] = _wishart(g)
        v = np.linalg.qr(h)[0]
        vh = np.swapaxes(v.conj(), -2, -1)
        a[at] = (v * np.where(mask, u_a, 0.0)[:, None]) @ vh
        b[at] = (v * np.where(mask, 0.0, u_b)[:, None]) @ vh
        p[at] = (v * mask[:, None]) @ vh
    return w, a, b, p


def order_zero_defect(phi: PMap, samples: int, seed: int) -> DefectReport:
    """Measure one-variable, orthogonal-pair and OD defects on seeded samples.

    Each sample probes a Wishart-normalized positive contraction together
    with a random spectral projection, and one orthogonal positive pair
    with exactly disjoint supports. The draws are made sample by sample, so
    a seed names the same probes however they are evaluated. The samples
    are evaluated as stacked chunks; the suprema are maxima, so the report
    is bit-identical to evaluating one sample at a time.
    """
    check_count("samples", samples, 1)
    check_count("a seed", seed, 0)
    rng = np.random.default_rng(seed)
    src = phi.source
    units = unit_stack(src)
    f1 = phi.act(np.eye(src.embed_dim))
    unit_images = phi.transfer.reshape(-1, *f1.shape)  # row u of T is phi(e_u)
    chunk = max(1, _CHUNK_ENTRIES // (2 * max(units.size, unit_images.size)))
    one_var = orth = od = 0.0
    for start in range(0, samples, chunk * src.dim):
        batch = _sample_stacks(rng, src, min(chunk * src.dim, samples - start))
        for at in range(0, len(batch[0]), chunk):
            w, a, b, p = (x[at : at + chunk] for x in batch)
            probes = np.concatenate([w, p])
            fp = phi.act(probes)
            one_var = max(one_var, _one_var(phi, probes, fp, f1))
            od = max(od, _od_sup(phi, probes, fp, units, unit_images, f1))
            fa, fb = phi.act(np.stack([a, b]))
            orth = max(orth, float(op_norm(fa @ fb).max()))
    return DefectReport(
        one_var_sup=one_var, orth_pair_sup=orth, od_sup=od, samples=samples, seed=seed
    )


# -- structure decomposition ---------------------------------------------------


@dataclass(frozen=True)
class OzDecomposition:
    """Candidate factorization phi = h pi with measured failure defects."""

    h: Element
    pi_images: tuple[Element, ...]
    mult_defect: float
    commute_defect: float
    reconstruct_defect: float


def oz_decompose(phi: PMap) -> OzDecomposition:
    """Recover h = phi(1) and pi(e) = h^{-1} phi(e) on the support of h.

    Reports how far pi is from a *-homomorphism commuting with h and how
    well h pi reconstructs phi; nothing is thresholded here. mult_defect is
    not continuous: where h has a dead summand, pi there is all perturbation,
    so on (1 - delta) phi + delta tau it can stay put as delta -> 0.
    """
    h = phi.unit_image()
    hm = h.embedded()
    unit_images = phi.transfer.reshape(-1, *hm.shape)
    # on the embedded h the cutoff is relative to the global ||h||: blocks may die
    hs = hermitian_part(hm)
    if not np.all(np.isfinite(hs)):
        raise NumericalFailureError("phi(1) or its Hermitian part is not finite")
    inverse, support = spectral_apply(hs, lambda v: 1.0 / v, np.ones_like)
    pis = inverse @ unit_images @ support
    mult, _, same = _relation_defects(phi.source, pis)
    return OzDecomposition(
        h=h,
        pi_images=tuple(from_embedded(phi.target, m) for m in pis),
        mult_defect=float(mult[same].max()),
        commute_defect=float(op_norm(hm @ pis - pis @ hm).max()),
        reconstruct_defect=float(op_norm(hm @ pis - unit_images).max()),
    )


def _unit_label(algebra: FiniteCStar, u: int) -> tuple[int, int, int]:
    """(block, i, j) of the u-th matrix unit."""
    sizes = np.array(algebra.block_sizes)
    bi = int(np.searchsorted(np.cumsum(sizes**2), u, side="right"))
    return (bi,) + divmod(u - int(np.sum(sizes[:bi] ** 2)), int(sizes[bi]))


def _relation_defects(algebra: FiniteCStar, pis: np.ndarray):
    """How far a (dim, D, D) stack of unit images is from a *-homomorphism.

    Returns the (dim, dim) defects ||pi(e_u) pi(e_v) - pi(e_u e_v)||, the
    (dim,) defects ||pi(e_u)* - pi(e_u*)|| and the (dim, dim) mask of unit
    pairs from one block. In embedded coordinates e_u e_v is the unit at
    (row of u, column of v) when the column of u is the row of v, and zero
    otherwise.
    """
    rows, cols = np.nonzero(block_mask(algebra))
    block = np.repeat(np.arange(algebra.n_blocks), algebra.block_sizes)[rows]
    index = np.zeros((algebra.embed_dim,) * 2, dtype=np.intp)
    index[rows, cols] = np.arange(algebra.dim)
    mult = np.empty((algebra.dim, algebra.dim))
    for u in range(algebra.dim):
        meets = (rows == cols[u])[:, None, None]
        mult[u] = op_norm(pis[u] @ pis - np.where(meets, pis[index[rows[u], cols]], 0.0))
    star = op_norm(np.swapaxes(pis, -2, -1).conj() - pis[index[cols, rows]])
    return mult, star, block[:, None] == block[None, :]


def oz_construct(source: FiniteCStar, pi_images: list[Element], h: Element) -> PMap:
    """Build the order-zero map phi(e) = h pi(e) from homomorphism data.

    pi_images are the images of matrix_units(source) under a
    *-homomorphism pi into the target; h must be a positive contraction
    commuting with every pi image.
    """
    if len(pi_images) != source.dim:
        raise NotHomomorphismError(
            f"expected {source.dim} images, got {len(pi_images)}"
        )
    hm = h.embedded()
    _check_positive_contraction(hm, "h")
    target = h.algebra
    pis = embed_stack(target, pi_images)
    mult, star, same = _relation_defects(source, pis)
    commute = op_norm(hm @ pis - pis @ hm)
    # report the first unit that fails, checking star, commutation, then products
    bad_mult = same & (mult > HERM_TOL)
    fails = (star > HERM_TOL) | (commute > HERM_TOL) | bad_mult.any(axis=1)
    if fails.any():
        u = int(np.argmax(fails))
        bi, i, j = _unit_label(source, u)
        if star[u] > HERM_TOL:
            raise NotHomomorphismError(f"pi(e_{i}{j})* != pi(e_{j}{i}) in block {bi}")
        if commute[u] > HERM_TOL:
            raise NotCommutingError(f"[h, pi(e_{i}{j})] exceeds tolerance in block {bi}")
        _, k, l = _unit_label(source, int(np.argmax(bad_mult[u])))
        raise NotHomomorphismError(
            f"multiplicativity fails on units ({i},{j}),({k},{l}) in block {bi}"
        )
    # units of distinct blocks multiply to zero; their images must too
    if (mult[~same] > HERM_TOL).any():
        raise NotHomomorphismError("cross-block images do not annihilate")
    return PMap(source, target, hm @ pis)


# -- repair and lifting --------------------------------------------------------


def cp_repair(phi: PMap) -> tuple[PMap, float]:
    """Measure the column multiplicativity defect and add the repairing trace term.

    For a self-adjoint map on M_n, eps = max_ij ||phi(e_i1)phi(e_1j) - phi(e_ij)||
    and the returned map is a -> phi(a) + n eps Tr(a) 1 (unnormalized trace),
    which is completely positive whenever the defect bound is honest.
    """
    if phi.source.n_blocks != 1:
        raise MultiBlockUnsupportedError("cp_repair needs a single-block source")
    if not phi.is_selfadjoint(PSD_TOL):
        raise NotHermitianError("cp_repair needs a self-adjoint map")
    n = phi.source.block_sizes[0]
    d = phi.target.embed_dim
    img = phi.transfer.reshape(n, n, d, d)
    eps = float(op_norm(img[:, :1] @ img[:1, :] - img).max())
    # the bump a -> n eps Tr(a) 1 has Choi matrix n eps 1
    bump = PMap.from_choi(phi.source, phi.target, [n * eps * np.eye(n * d)])
    return phi + bump, eps


def polar_lift(phi: PMap, x: Element, y: Element) -> tuple[Element, bool]:
    """Lift an approximate unitary preimage to a unitary one.

    Given unitary x with ||phi(y) - x|| = eps_in < 1 for a contraction y,
    returns U = blockwise polar unitary of y and whether the lifted error
    beats the 3 sqrt(eps_in) bound.
    """
    if x.algebra != phi.target:
        raise NotUnitaryError("x must live in the target algebra")
    _check_unitary(x.embedded(), "x")
    eps_in = (phi(y) - x).norm()
    u = from_embedded(y.algebra, embed_blocks(y.algebra, [polar_unitary(b) for b in y.blocks]))
    err = (phi(u) - x).norm()
    # an exact preimage measures eps_in ~ 0; floor the bound at float resolution
    bound_ok = err < max(3.0 * np.sqrt(eps_in), 1e-12)
    return u, bound_ok


# -- block-column bounds ---------------------------------------------------------


def _first_block_column(m: np.ndarray, d: int, eps: float) -> np.ndarray:
    """m's first block column m[:, :d], once d and the bound eps are valid."""
    check_count("a block size d", d, 1)
    if np.isnan(eps):
        raise BadRangeError("eps must be a number, got nan")
    big = m.shape[0]
    if big % d != 0:
        raise PreconditionFailedError(
            f"matrix size {big} is not a multiple of the block size {d}"
        )
    return m[:, :d]


def lemma31_positive_check(a: np.ndarray, d: int, eps: float) -> bool:
    """First-column bound for positive contractions.

    For a positive contraction a in L x L blocks of size d with
    ||a_{1,1}|| < eps, checks ||sum_i a_{i,1}* a_{i,1}|| < eps. True for
    every valid input; False signals an implementation bug.
    """
    a = np.asarray(a, dtype=np.complex128)
    _check_positive_contraction(a, "input")
    col = _first_block_column(a, d, eps)
    if op_norm(col[:d]) >= eps:
        raise PreconditionFailedError("||a_{1,1}|| < eps does not hold")
    return op_norm(col.conj().T @ col) < eps


def lemma31_unitary_check(u: np.ndarray, d: int, eps: float) -> bool:
    """First-column tail bound for unitaries.

    For a unitary u with ||u_{1,1}* u_{1,1} - 1|| < eps, checks
    ||sum_{i>=2} u_{i,1}* u_{i,1}|| < eps. True for every valid input.
    """
    u = np.asarray(u, dtype=np.complex128)
    _check_unitary(u, "input")
    col = _first_block_column(u, d, eps)
    if op_norm(col[:d].conj().T @ col[:d] - np.eye(d)) >= eps:
        raise PreconditionFailedError("||u_{1,1}* u_{1,1} - 1|| < eps does not hold")
    return op_norm(col[d:].conj().T @ col[d:]) < eps  # an empty tail gives the zero matrix
