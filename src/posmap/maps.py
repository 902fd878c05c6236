"""Linear maps between finite-dimensional C*-algebras.

A PMap stores, for each source block of size n, the unnormalized Choi
matrix C = sum_ij e_ij (x) phi(e_ij) of the restriction to that block,
with the target direct sum embedded block-diagonally into one matrix
algebra of size D = target.embed_dim. C is an (n*D) x (n*D) matrix whose
(i,s),(j,t) entry is phi(e_ij)[s,t].

The map acts through one transfer matrix T derived from the Choi blocks.
With elements embedded block-diagonally and flattened row-major,
vec(phi(x)) = vec(x) @ T, so T is (Ds*Ds) x (D*D) for a source of
embedding size Ds. Its rows at source coordinates outside the diagonal
blocks and its columns at such target coordinates are zero.
Every construction checks the block count and shapes, finite entries and
that no image leaks outside the embedded target blocks.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .algebra import (
    Element,
    FiniteCStar,
    _freeze,
    block_mask,
    embed_stack,
    from_embedded,
    unit,
    unit_stack,
)
from .errors import (
    AlgebraMismatchError,
    CountMismatchError,
    DimensionMismatchError,
)
from .linalg import as_complex, hermitian_kernel

LEAK_TOL = 1e-10


class PMap:
    """A linear map between FiniteCStar algebras, stored as per-block Choi matrices."""

    __slots__ = ("source", "target", "choi_blocks", "_transfer")

    def __init__(self, source: FiniteCStar, target: FiniteCStar, choi_blocks):
        blocks = [as_complex(c) for c in choi_blocks]
        if len(blocks) != source.n_blocks:
            raise DimensionMismatchError(
                f"expected {source.n_blocks} Choi blocks, got {len(blocks)}"
            )
        d = target.embed_dim
        mask = ~block_mask(target)
        for bi, (c, n) in enumerate(zip(blocks, source.block_sizes)):
            if c.shape != (n * d, n * d):
                raise DimensionMismatchError(
                    f"Choi block shape {c.shape} does not match {(n * d, n * d)}"
                )
            if not np.all(np.isfinite(c.real)) or not np.all(np.isfinite(c.imag)):
                raise DimensionMismatchError("Choi block contains non-finite entries")
            # images phi(e_ij) must lie in the embedded direct sum
            offd = c.reshape(n, d, n, d).transpose(0, 2, 1, 3)[:, :, mask]
            leak = float(np.max(np.abs(offd))) if offd.size else 0.0
            scale = max(1.0, float(np.max(np.abs(c))))
            if leak > LEAK_TOL * scale:
                raise DimensionMismatchError(
                    f"Choi block {bi} leaks outside the embedded target blocks "
                    f"(max off-diagonal entry {leak:.3e})"
                )
        self.source = source
        self.target = target
        self.choi_blocks = tuple(_freeze(c) for c in blocks)
        self._transfer = None

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
        return cls._from_unit_images(source, target, embed_stack(target, images))

    @classmethod
    def _from_unit_images(
        cls, source: FiniteCStar, target: FiniteCStar, stack: np.ndarray
    ) -> "PMap":
        """Build a map from the (dim, D, D) stack of embedded matrix-unit images."""
        d, sizes = target.embed_dim, source.block_sizes
        parts = np.split(stack, np.cumsum([n * n for n in sizes])[:-1])
        blocks = [
            t.reshape(n, n, d, d).transpose(0, 2, 1, 3).reshape(n * d, n * d)
            for t, n in zip(parts, sizes)
        ]
        return cls(source, target, blocks)

    @classmethod
    def from_choi(cls, source: FiniteCStar, target: FiniteCStar, choi_blocks) -> "PMap":
        return cls(source, target, choi_blocks)

    @classmethod
    def identity(cls, algebra: FiniteCStar) -> "PMap":
        return cls._from_unit_images(algebra, algebra, unit_stack(algebra))

    # -- action ------------------------------------------------------------

    @property
    def transfer(self) -> np.ndarray:
        """T with vec(phi(x)) = vec(x) @ T on row-major embedded coordinates.

        Built once from the Choi blocks. Columns at target coordinates
        outside the diagonal blocks are zero, so every image lies exactly
        in the embedded direct sum.
        """
        if self._transfer is None:
            ds, d = self.source.embed_dim, self.target.embed_dim
            images = [
                c.reshape(n, d, n, d).transpose(0, 2, 1, 3).reshape(n * n, d * d)
                for c, n in zip(self.choi_blocks, self.source.block_sizes)
            ]
            t = np.zeros((ds * ds, d * d), dtype=np.complex128)
            t[block_mask(self.source).reshape(-1)] = np.concatenate(images)
            t[:, ~block_mask(self.target).reshape(-1)] = 0.0
            t.setflags(write=False)
            self._transfer = t
        return self._transfer

    def act(self, xs: np.ndarray) -> np.ndarray:
        """phi on a (..., Ds, Ds) stack of embedded source elements, as one GEMM."""
        d = self.target.embed_dim
        out = xs.reshape(-1, xs.shape[-1] * xs.shape[-1]) @ self.transfer
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
        blocks = [a + b for a, b in zip(self.choi_blocks, other.choi_blocks)]
        return PMap(self.source, self.target, blocks)

    def scale(self, c: complex) -> "PMap":
        return PMap(self.source, self.target, [complex(c) * blk for blk in self.choi_blocks])

    __mul__ = __rmul__ = scale

    # -- properties --------------------------------------------------------

    def is_selfadjoint(self, tol: float = 1e-10) -> bool:
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
    # off-block source coordinates are zero columns of T.T, so the
    # minimal-norm solution stays block-diagonal
    x, *_ = np.linalg.lstsq(phi.transfer.T, y.embedded().reshape(-1), rcond=None)
    ds = phi.source.embed_dim
    return from_embedded(phi.source, x.reshape(ds, ds))
