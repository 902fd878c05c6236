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
    _positive_contraction_blocks,
    block_mask,
    embed_blocks,
    embed_stack,
    from_embedded,
    is_positive,
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
from .linalg import (
    hermitian_kernel,
    hermitian_part,
    op_norm,
    pinv_psd,
    pinv_sqrt,
    polar_unitary,
    support_projection,
)
from .maps import PMap


# -- defect functionals ------------------------------------------------------


def one_var_defect(phi: PMap, a: Element) -> float:
    """||phi(a)^2 - phi(a^2) phi(1)|| for a positive contraction a."""
    if not is_positive(a, 1e-9) or a.norm() > 1 + 1e-9:
        raise NotPositiveContractionError("a must be a positive contraction")
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
    unit_images = phi.act(units)
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
        x = pinv_sqrt(hermitian_part(hb)) @ gb
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


def _orthogonal_pair_blocks(rng: np.random.Generator, algebra: FiniteCStar):
    """Blocks of positive contractions (a, b, p) with ab = 0, in a common eigenbasis.

    p is the support projection of a. Products of the disjoint diagonal
    supports vanish exactly; the conjugating unitary contributes only
    rounding noise.
    """
    blocks_a, blocks_b, blocks_p = [], [], []
    masks = []
    for n in algebra.block_sizes:
        masks.append(rng.integers(0, 2, size=n).astype(bool))
    flat = np.concatenate(masks)
    if not flat.any():
        masks[0][0] = True
    if flat.all():
        masks[-1][-1] = False
    for n, mask in zip(algebra.block_sizes, masks):
        v = np.linalg.qr(_ginibre(rng, (n, n)))[0]
        coeff_a = np.where(mask, rng.uniform(0.2, 1.0, size=n), 0.0)
        coeff_b = np.where(mask, 0.0, rng.uniform(0.2, 1.0, size=n))
        blocks_a.append((v * coeff_a) @ v.conj().T)
        blocks_b.append((v * coeff_b) @ v.conj().T)
        blocks_p.append((v * mask.astype(float)) @ v.conj().T)
    return blocks_a, blocks_b, blocks_p


def _orthogonal_pair(rng: np.random.Generator, algebra: FiniteCStar):
    """The orthogonal pair (a, b, p) as Elements."""
    return tuple(Element(algebra, blocks) for blocks in _orthogonal_pair_blocks(rng, algebra))


def order_zero_defect(phi: PMap, samples: int, seed: int) -> DefectReport:
    """Measure one-variable, orthogonal-pair and OD defects on seeded samples.

    Each sample probes a Wishart-normalized positive contraction together
    with a random spectral projection, and one orthogonal positive pair
    with exactly disjoint supports.
    """
    if samples < 1:  # a check run on no samples is not a pass
        raise BadRangeError(f"need samples >= 1, got {samples}")
    rng = np.random.default_rng(seed)
    src = phi.source
    units = unit_stack(src)
    f1 = phi.act(np.eye(src.embed_dim))
    unit_images = phi.act(units)
    one_var = orth = od = 0.0
    for _ in range(samples):
        w = embed_blocks(src, _positive_contraction_blocks(rng, src.block_sizes))
        a, b, p = (embed_blocks(src, blocks) for blocks in _orthogonal_pair_blocks(rng, src))
        probes = np.stack([w, p])
        fp = phi.act(probes)
        one_var = max(one_var, _one_var(phi, probes, fp, f1))
        od = max(od, _od_sup(phi, probes, fp, units, unit_images, f1))
        fa, fb = phi.act(np.stack([a, b]))
        orth = max(orth, op_norm(fa @ fb))
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
    well h pi reconstructs phi; nothing is thresholded here.
    """
    h = phi.unit_image()
    hm = h.embedded()
    unit_images = phi.act(unit_stack(phi.source))
    # on the embedded h the cutoff is relative to the global ||h||: blocks may die
    hs = hermitian_part(hm)
    if not np.all(np.isfinite(hs)):
        raise NumericalFailureError("phi(1) or its Hermitian part is not finite")
    pis = pinv_psd(hs) @ unit_images @ support_projection(hs)
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
    if not is_positive(h, 1e-9) or h.norm() > 1 + 1e-9:
        raise NotPositiveContractionError("h must be a positive contraction")
    tol = 1e-10
    target = h.algebra
    pis = embed_stack(target, pi_images)
    hm = h.embedded()
    mult, star, same = _relation_defects(source, pis)
    commute = op_norm(hm @ pis - pis @ hm)
    # report the first unit that fails, checking star, commutation, then products
    bad_mult = same & (mult > tol)
    fails = (star > tol) | (commute > tol) | bad_mult.any(axis=1)
    if fails.any():
        u = int(np.argmax(fails))
        bi, i, j = _unit_label(source, u)
        if star[u] > tol:
            raise NotHomomorphismError(f"pi(e_{i}{j})* != pi(e_{j}{i}) in block {bi}")
        if commute[u] > tol:
            raise NotCommutingError(f"[h, pi(e_{i}{j})] exceeds tolerance in block {bi}")
        _, k, l = _unit_label(source, int(np.argmax(bad_mult[u])))
        raise NotHomomorphismError(
            f"multiplicativity fails on units ({i},{j}),({k},{l}) in block {bi}"
        )
    # units of distinct blocks multiply to zero; their images must too
    if (mult[~same] > tol).any():
        raise NotHomomorphismError("cross-block images do not annihilate")
    return PMap._from_unit_images(source, target, hm @ pis)


# -- repair and lifting --------------------------------------------------------


def cp_repair(phi: PMap) -> tuple[PMap, float]:
    """Measure the column multiplicativity defect and add the repairing trace term.

    For a self-adjoint map on M_n, eps = max_ij ||phi(e_i1)phi(e_1j) - phi(e_ij)||
    and the returned map is a -> phi(a) + n eps Tr(a) 1 (unnormalized trace),
    which is completely positive whenever the defect bound is honest.
    """
    if phi.source.n_blocks != 1:
        raise MultiBlockUnsupportedError("cp_repair needs a single-block source")
    if not phi.is_selfadjoint(1e-9):
        raise NotHermitianError("cp_repair needs a self-adjoint map")
    n = phi.source.block_sizes[0]
    d = phi.target.embed_dim
    img = phi.act(unit_stack(phi.source)).reshape(n, n, d, d)
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
    dev = max(
        op_norm(b.conj().T @ b - np.eye(b.shape[0])) for b in x.blocks
    )
    if dev > 1e-9:
        raise NotUnitaryError(f"x is not unitary (||x*x - 1|| = {dev:.3e})")
    eps_in = (phi(y) - x).norm()
    u = Element(y.algebra, [polar_unitary(b) for b in y.blocks])
    err = (phi(u) - x).norm()
    # an exact preimage measures eps_in ~ 0; floor the bound at float resolution
    bound_ok = err < max(3.0 * np.sqrt(eps_in), 1e-12)
    return u, bound_ok


# -- block-column bounds ---------------------------------------------------------


def _first_block_column(m: np.ndarray, d: int, eps: float) -> np.ndarray:
    """m's first block column m[:, :d], once d and the bound eps are valid."""
    if d < 1:
        raise BadRangeError(f"need a block size d >= 1, got {d}")
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
    kernel = hermitian_kernel(a)
    if not kernel.psd(1e-9):
        raise NotPositiveContractionError("input is not a positive matrix")
    # scale = max(1, ||a||) for a PSD a, so it exceeds 1 + 1e-9 iff ||a|| does
    if kernel.scale > 1 + 1e-9:
        raise NotPositiveContractionError("input is not a contraction")
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
    n = u.shape[0]
    if op_norm(u.conj().T @ u - np.eye(n)) > 1e-9:
        raise NotUnitaryError("input is not unitary")
    col = _first_block_column(u, d, eps)
    if op_norm(col[:d].conj().T @ col[:d] - np.eye(d)) >= eps:
        raise PreconditionFailedError("||u_{1,1}* u_{1,1} - 1|| < eps does not hold")
    return op_norm(col[d:].conj().T @ col[d:]) < eps  # an empty tail gives the zero matrix
