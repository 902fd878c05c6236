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
*-homomorphism commuting with h; oz_decompose recovers (h, pi), reports
how badly the factorization fails and bounds the three defects above from
that, and oz_construct builds maps from such data. cp_repair measures the
multiplicativity defect on a matrix-unit column and adds the trace bump
that restores complete positivity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (
    MAX_SIZE,
    Element,
    FiniteCStar,
    _wishart,
    block_mask,
    check_image_budget,
    embed_blocks,
    embed_stack,
    from_embedded,
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
from .linalg import _NORM_SLACK, HERM_TOL, PSD_TOL, _is_real, check_count, hermitian_kernel
from .linalg import hermitian_part, max_op_norm, norm_bounds, op_norm, polar_unitary
from .linalg import require_square, spectral_apply
from .maps import PMap, _block_runs


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
    return max_op_norm(fp @ fp - phi.act(probes @ probes) @ f1)


def _od_sup(phi: PMap, probes: np.ndarray, fp: np.ndarray, f1: np.ndarray) -> float:
    """Worst OD-identity deviation over a (p, Ds, Ds) probe stack with images fp and every unit.

    In a block, phi(a e_rc) = sum_i a_ir phi(e_ic) and phi(e_rc a) = sum_j a_cj phi(e_rj),
    the latter in (c, r) order. Each product is one GEMM per probe, of a shape free of p.
    """
    p, d, sizes = len(probes), len(f1), phi.source.block_sizes
    fl, fr, mirrored = [], [], []
    for n, at, t in zip(sizes, np.cumsum((0,) + sizes), _block_runs(phi.source, phi.transfer)):
        a = probes[:, at : at + n, at : at + n]
        t = t.reshape(n, n, d * d)  # [i, c] is phi(e_ic)
        m = t.swapaxes(0, 1).reshape(n, -1)  # [j, r] is phi(e_rj)
        fl.append((a.swapaxes(1, 2) @ t.reshape(n, -1)).reshape(p, -1, d, d))
        fr.append((a @ m).reshape(p, -1, d))
        mirrored.append(m.reshape(-1, d))
    fl = np.concatenate(fl, axis=1).swapaxes(1, 2).reshape(p, d, -1)  # [p, z, (u, y)]
    left = fp @ phi.transfer.reshape(-1, d, d).swapaxes(0, 1).reshape(d, -1) - f1 @ fl
    od = max_op_norm(left.reshape(p, d, -1, d).swapaxes(1, 2))
    del fl, left  # freed before the mirrored side is built
    right = np.concatenate(mirrored) @ fp - np.concatenate(fr, axis=1) @ f1  # [p, (u, x), y]
    return max(od, max_op_norm(right.reshape(p, -1, d, d)))


def od_defect(phi: PMap, a: Element) -> float:
    """Worst deviation from the orthogonality-domain identities over a basis.

    max over matrix units b of ||phi(a)phi(b) - phi(1)phi(ab)|| and
    ||phi(b)phi(a) - phi(ba)phi(1)||; zero iff both identities hold for
    every b by linearity.
    """
    check_image_budget(phi.source.dim, phi.source.embed_dim)  # as order_zero_defect's sources
    f1 = phi.act(np.eye(phi.source.embed_dim))
    probes = embed_stack(phi.source, [a])
    return _od_sup(phi, probes, phi.act(probes), f1)


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

    Per sample, one call each: the Wishart Ginibre matrices g of all blocks, the support
    masks (never all equal), then per block a Ginibre eigenbasis v and the coefficients of
    a, b >= 0, disjoint in v: ab = 0 up to the rounding of v. One draw of n values is n
    consecutive draws, bit for bit. w = g*g / ||g*g|| and p is the support projection of a.
    """
    sizes = algebra.block_sizes
    gs, masks, draws = [], [], []
    for _ in range(count):
        gs.append(rng.standard_normal(2 * algebra.dim))
        mask = rng.integers(0, 2, size=algebra.embed_dim).astype(bool)
        none, every = not mask.any(), mask.all()
        mask[0] |= none
        mask[-1] &= not every
        masks.append(mask)
        draws.append([(rng.standard_normal((2, n, n)), rng.uniform(0.2, 1, (2, n))) for n in sizes])
    gs, masks = np.array(gs), np.array(masks)
    d = algebra.embed_dim
    w, a, b, p = (np.zeros((count, d, d), dtype=np.complex128) for _ in range(4))
    runs = np.split(gs, 2 * np.cumsum([n * n for n in sizes])[:-1], axis=1)
    for bi, (n, off, g) in enumerate(zip(sizes, np.cumsum((0,) + sizes), runs)):
        g = g.reshape(count, 2, n, n)  # [:, 0] real, [:, 1] imaginary part
        h, u = map(np.array, zip(*(s[bi] for s in draws)))
        at, mask = np.s_[:, off : off + n, off : off + n], masks[:, off : off + n]
        w[at] = _wishart(g[:, 0] + 1j * g[:, 1])
        v = np.linalg.qr(h[:, 0] + 1j * h[:, 1])[0]
        vh = np.swapaxes(v.conj(), -2, -1)
        a[at] = (v * np.where(mask, u[:, 0], 0.0)[:, None]) @ vh
        b[at] = (v * np.where(mask, 0.0, u[:, 1])[:, None]) @ vh
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
    src = phi.source
    check_image_budget(src.dim, src.embed_dim)  # a batch draws dim samples of Ds^2 entries
    rng = np.random.default_rng(seed)
    f1 = phi.act(np.eye(src.embed_dim))
    chunk = max(1, _CHUNK_ENTRIES // (2 * src.dim * max(src.embed_dim, len(f1)) ** 2))
    one_var = orth = od = 0.0
    for start in range(0, samples, chunk * src.dim):
        batch = _sample_stacks(rng, src, min(chunk * src.dim, samples - start))
        for at in range(0, len(batch[0]), chunk):
            w, a, b, p = (x[at : at + chunk] for x in batch)
            probes = np.concatenate([w, p])
            fp = phi.act(probes)
            one_var = max(one_var, _one_var(phi, probes, fp, f1))
            od = max(od, _od_sup(phi, probes, fp, f1))
            fa, fb = phi.act(np.stack([a, b]))
            orth = max(orth, max_op_norm(fa @ fb))
    return DefectReport(
        one_var_sup=one_var, orth_pair_sup=orth, od_sup=od, samples=samples, seed=seed
    )


# -- structure decomposition ---------------------------------------------------


@dataclass(frozen=True)
class OzDecomposition:
    """Candidate factorization phi = h pi with measured failure defects and a bound."""

    h: Element
    pi_images: tuple[Element, ...]
    mult_defect: float
    commute_defect: float
    reconstruct_defect: float
    order_zero_bound: float | None  # None where the bound overflows


def oz_decompose(phi: PMap) -> OzDecomposition:
    """Recover h = phi(1) and pi(e) = h^{-1} phi(e) on the support of h.

    Reports how far pi is from a *-homomorphism commuting with h and how
    well h pi reconstructs phi; nothing is thresholded here. mult_defect is
    not continuous: where h has a dead summand, pi there is all perturbation,
    so on (1 - delta) phi + delta tau it can stay put as delta -> 0.

    order_zero_bound B bounds the one-variable, orthogonal-pair and OD suprema of
    order_zero_defect over all contractions. For any h and linear pi, with R = h pi - phi,
    K = h pi - pi h and M(a, b) = pi(a)pi(b) - pi(ab),
    phi(a)phi(b) = h^2 pi(ab) + h^2 M(a, b) - h K(a) pi(b) - R(a) h pi(b) - phi(a) R(b),
    and sum_u |a_u| <= c ||a||, c = sum_i n_i^{3/2}. So with mu the product defect over all
    pairs of units (across blocks too), kappa = commute_defect, r = reconstruct_defect,
    p = max ||pi(e_u)|| and f = max ||phi(e_u)||, B = c^2 (||h||^2 mu + ||h|| p (kappa + r)
    + f r) + c ||h|| (kappa + r), whose last term turns phi(a^2)phi(1), phi(1)phi(ab) and
    phi(ba)phi(1) into h^2 pi(.). Rounding: ||h||, p and f are norm_bounds, the rest SVD
    norms of one GEMM and one subtraction; each is raised by 1 + _NORM_SLACK, whose margin
    also covers B's own rounding, and mu, kappa and r by e = eps (D (D + 1) + Ds^2 sqrt(D))
    times the norms of their terms: a GEMM errs by gamma_{D+1} |X||Y| entrywise,
    || |X| || <= sqrt(D) ||X||, and r also takes the error of h, a sum of Ds images. A
    sampled pair's rounded ab adds ||h||^2 c p ||ab|| to its defect, below e's share of mu.
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
    mult = cross = 0.0
    for same, prod in _product_defects(phi.source, pis):
        mult, cross = max(mult, max_op_norm(prod[same])), max(cross, max_op_norm(prod[~same]))
    hp = hm @ pis  # h pi(e_u)
    commute, reconstruct = max_op_norm(hp - pis @ hm), max_op_norm(hp - unit_images)
    d, ds, slack = len(hm), phi.source.embed_dim, 1 + _NORM_SLACK
    e = float(np.finfo(float).eps) * (d * (d + 1) + ds * ds * d**0.5)  # floats: inf, no warning
    hn, p, f = (slack * float(norm_bounds(x).max()) for x in (hm, pis, unit_images))
    mu = slack * max(mult, cross) + e * p * (p + 1)
    kappa, r = slack * commute + e * 2 * hn * p, slack * reconstruct + e * (hn * p + f)
    c = sum(n**1.5 for n in phi.source.block_sizes)
    bound = c * c * (hn * (hn * mu) + hn * p * (kappa + r) + f * r) + c * hn * (kappa + r)
    return OzDecomposition(
        h=h,
        pi_images=tuple(from_embedded(phi.target, m) for m in pis),
        mult_defect=mult,
        commute_defect=commute,
        reconstruct_defect=reconstruct,
        order_zero_bound=bound if bound < np.inf else None,
    )


def _unit_index(algebra: FiniteCStar):
    """(rows, cols, index, block): each unit's embedded position and block; the unit at index."""
    rows, cols = np.nonzero(block_mask(algebra))
    index = np.zeros((algebra.embed_dim,) * 2, dtype=np.intp)
    index[rows, cols] = np.arange(algebra.dim)
    return rows, cols, index, np.repeat(np.arange(algebra.n_blocks), algebra.block_sizes)[rows]


def _product_defects(algebra: FiniteCStar, pis: np.ndarray):
    """Yield (same, pi(e_u) pi(e_v) - pi(e_u e_v)) for a chunk of units u and every unit v.

    same masks the pairs from one block. Each (chunk, dim, D, D) stack holds at most
    MAX_SIZE**2 entries unless one unit's row does. Embedded, e_u e_v is the unit at
    (row of u, column of v) when the column of u is the row of v, and zero otherwise.
    """
    rows, cols, index, block = _unit_index(algebra)
    step = max(1, MAX_SIZE**2 // pis[0].size // len(pis))
    for us in (np.s_[at : at + step] for at in range(0, len(pis), step)):
        prod = pis[us, None] @ pis
        meets = cols[us, None] == rows
        prod[meets] -= pis[index[rows[us, None], cols][meets]]
        yield block[us, None] == block, prod


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
    rows, cols, index, block = _unit_index(source)
    mult = np.concatenate([op_norm(prod) for _, prod in _product_defects(source, pis)])
    star = op_norm(np.swapaxes(pis, -2, -1).conj() - pis[index[cols, rows]])
    same = block[:, None] == block
    images = hm @ pis
    commute = op_norm(images - pis @ hm)
    # report the first unit that fails, checking star, commutation, then products
    bad_mult = same & (mult > HERM_TOL)
    fails = (star > HERM_TOL) | (commute > HERM_TOL) | bad_mult.any(axis=1)
    if fails.any():
        u = int(np.argmax(fails))
        # (i, j) within the block: the unit's embedded row and column less the block's first row
        ij = np.stack([rows, cols]) - np.cumsum((0,) + source.block_sizes)[block]
        bi, (i, j) = block[u], ij[:, u]
        if star[u] > HERM_TOL:
            raise NotHomomorphismError(f"pi(e_{i}{j})* != pi(e_{j}{i}) in block {bi}")
        if commute[u] > HERM_TOL:
            raise NotCommutingError(f"[h, pi(e_{i}{j})] exceeds tolerance in block {bi}")
        k, l = ij[:, np.argmax(bad_mult[u])]
        raise NotHomomorphismError(
            f"multiplicativity fails on units ({i},{j}),({k},{l}) in block {bi}"
        )
    # units of distinct blocks multiply to zero; their images must too
    if (mult[~same] > HERM_TOL).any():
        raise NotHomomorphismError("cross-block images do not annihilate")
    return PMap(source, target, images)


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
    eps = max_op_norm(img[:, :1] @ img[:1, :] - img)
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
    if not _is_real(eps) or np.isnan(eps):
        raise BadRangeError(f"eps must be a number, got {eps!r}")
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
