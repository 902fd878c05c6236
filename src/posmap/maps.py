"""Linear maps between finite-dimensional C*-algebras.

A PMap stores one array, its transfer matrix T: row u is vec(phi(e_u)), the
image of the u-th matrix unit of the source (in unit_stack order) embedded
block-diagonally into the matrix algebra of size D = target.embed_dim and
flattened row-major. So T is (sum n_i^2) x (D*D), vec(phi(x)) = x_in @ T
where x_in lists the in-block entries of the embedded x in that order, and
T's columns at target coordinates outside the diagonal blocks are zero.

The Choi matrix of a source block of size n, the (n*D) x (n*D) matrix
C = sum_ij e_ij (x) phi(e_ij) with (i,s),(j,t) entry phi(e_ij)[s,t], is
re-laid from T on each read. The constructor copies the unit-image stack
once and checks it once: shape, finite entries, and no image leaking
outside the target blocks (a leak below LEAK_TOL is zeroed in T).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .algebra import Element, FiniteCStar, block_mask, embed_stack, from_embedded, unit, unit_stack
from .errors import AlgebraMismatchError, CountMismatchError, DimensionMismatchError
from .linalg import HERM_TOL, as_complex, hermitian_kernel

LEAK_TOL = 1e-10


def _block_runs(source: FiniteCStar, rows: np.ndarray) -> list[np.ndarray]:
    """rows, one per matrix unit of source, split into each source block's run (views)."""
    return np.split(rows, np.cumsum([n * n for n in source.block_sizes])[:-1])


class PMap:
    """A map between FiniteCStar algebras, stored as its transfer matrix T only."""

    __slots__ = ("source", "target", "_transfer")

    def __init__(self, source: FiniteCStar, target: FiniteCStar, images):
        """images: the (source.dim, D, D) stack of embedded unit images, in unit_stack order."""
        d = target.embed_dim
        transfer = np.array(images, dtype=np.complex128)  # the one copy
        if transfer.shape != (source.dim, d, d):
            raise DimensionMismatchError(
                f"unit-image stack shape {transfer.shape} does not match {(source.dim, d, d)}"
            )
        if not np.all(np.isfinite(transfer)):
            raise DimensionMismatchError("unit images contain non-finite entries")
        transfer = transfer.reshape(source.dim, d * d)
        off = ~block_mask(target).reshape(-1)
        # images phi(e_ij) must lie in the embedded direct sum, up to each block's scale
        for bi, t in enumerate(_block_runs(source, transfer)):
            leak = float(np.max(np.abs(t[:, off]), initial=0.0))
            # the scale is at least 1, so |t| is needed only for a leak above LEAK_TOL
            if leak > LEAK_TOL and leak > LEAK_TOL * float(np.max(np.abs(t))):
                raise DimensionMismatchError(
                    f"Choi block {bi} leaks outside the embedded target blocks "
                    f"(max off-diagonal entry {leak:.3e})"
                )
        transfer[:, off] = 0.0
        transfer.setflags(write=False)
        self.source = source
        self.target = target
        self._transfer = transfer

    # -- construction ------------------------------------------------------

    @classmethod
    def from_action(
        cls, source: FiniteCStar, target: FiniteCStar, images: Sequence[Element]
    ) -> "PMap":
        """Build a map from its values on the matrix units of the source.

        images are ordered like matrix_units(source): block by block,
        row-major within each block.
        """
        if len(images) != source.dim:
            raise CountMismatchError(
                f"expected {source.dim} matrix-unit images, got {len(images)}"
            )
        return cls(source, target, embed_stack(target, images))

    @classmethod
    def from_choi(cls, source: FiniteCStar, target: FiniteCStar, choi_blocks) -> "PMap":
        """Build a map from one (n*D) x (n*D) Choi matrix per source block of size n."""
        blocks = [as_complex(c) for c in choi_blocks]
        if len(blocks) != source.n_blocks:
            raise DimensionMismatchError(
                f"expected {source.n_blocks} Choi blocks, got {len(blocks)}"
            )
        d = target.embed_dim
        images = np.empty((source.dim, d, d), dtype=np.complex128)
        for c, n, t in zip(blocks, source.block_sizes, _block_runs(source, images)):
            if c.shape != (n * d, n * d):
                raise DimensionMismatchError(
                    f"Choi block shape {c.shape} does not match {(n * d, n * d)}"
                )
            t.reshape(n, n, d, d)[...] = c.reshape(n, d, n, d).transpose(0, 2, 1, 3)
        return cls(source, target, images)

    @classmethod
    def identity(cls, algebra: FiniteCStar) -> "PMap":
        return cls(algebra, algebra, unit_stack(algebra))

    # -- action ------------------------------------------------------------

    @property
    def transfer(self) -> np.ndarray:
        """T, the read-only (dim, D*D) stack of matrix-unit images: row u is vec(phi(e_u))."""
        return self._transfer

    @property
    def choi_blocks(self) -> tuple[np.ndarray, ...]:
        """The read-only Choi matrix of each source block, re-laid from T on every read."""
        d = self.target.embed_dim
        out = []
        for t, n in zip(_block_runs(self.source, self._transfer), self.source.block_sizes):
            c = t.reshape(n, n, d, d).transpose(0, 2, 1, 3).reshape(n * d, n * d)
            c.setflags(write=False)  # a copy, or for n = 1 a view of T
            out.append(c)
        return tuple(out)

    def act(self, xs: np.ndarray) -> np.ndarray:
        """phi on a (..., Ds, Ds) stack of embedded elements: an in-block gather, then one GEMM."""
        d = self.target.embed_dim
        flat = xs.reshape(-1, xs.shape[-1] * xs.shape[-1])
        out = flat[:, block_mask(self.source).reshape(-1)] @ self.transfer
        return out.reshape(xs.shape[:-2] + (d, d))

    def apply(self, x: Element) -> Element:
        if x.algebra != self.source:
            raise AlgebraMismatchError("element does not belong to the source algebra")
        return from_embedded(self.target, self.act(x.embedded()))

    def __call__(self, x: Element) -> Element:
        return self.apply(x)

    def unit_image(self) -> Element:
        return self.apply(unit(self.source))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "PMap") -> "PMap":
        if self.source != other.source or self.target != other.target:
            raise AlgebraMismatchError("maps act between different algebras")
        d = self.target.embed_dim
        return PMap(self.source, self.target, (self.transfer + other.transfer).reshape(-1, d, d))

    def scale(self, c: complex) -> "PMap":
        d = self.target.embed_dim
        return PMap(self.source, self.target, (complex(c) * self.transfer).reshape(-1, d, d))

    __mul__ = __rmul__ = scale

    # -- properties --------------------------------------------------------

    def is_selfadjoint(self, tol: float = HERM_TOL) -> bool:
        """phi(x*) = phi(x)* iff every Choi block is Hermitian (here: within tol)."""
        return all(hermitian_kernel(c).hermitian(tol) for c in self.choi_blocks)

    def __repr__(self):
        return f"PMap({self.source} -> {self.target})"


def pmap_norm(phi: PMap) -> float:
    """||phi(1)||, the norm of a positive map on a unital algebra."""
    return phi.unit_image().norm()


def lstsq_preimage(phi: PMap, y: Element) -> Element:
    """Minimal-norm least-squares solution x of phi(x) = y."""
    if y.algebra != phi.target:
        raise AlgebraMismatchError("element does not belong to the target algebra")
    x, *_ = np.linalg.lstsq(phi.transfer.T, y.embedded().reshape(-1), rcond=None)
    ds = phi.source.embed_dim
    m = np.zeros((ds, ds), dtype=np.complex128)
    m[block_mask(phi.source)] = x
    return from_embedded(phi.source, m)
