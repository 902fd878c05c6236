"""Linear maps between finite-dimensional C*-algebras.

A PMap stores, for each source block of size n, the unnormalized Choi
matrix C = sum_ij e_ij (x) phi(e_ij) of the restriction to that block,
with the target direct sum embedded block-diagonally into one matrix
algebra of size D = target.embed_dim. C is an (n*D) x (n*D) matrix whose
(i,s),(j,t) entry is phi(e_ij)[s,t].

The map acts through one transfer matrix T, the Choi data re-laid: row u
is vec(phi(e_u)), the embedded image of the u-th matrix unit flattened
row-major, in the order of unit_stack. So T is (sum n_i^2) x (D*D), and
vec(phi(x)) = x_in @ T where x_in lists the in-block entries of the
embedded x in that order. Its columns at target coordinates outside the
diagonal blocks are zero.
The constructor builds T, read-only, and checks the Choi blocks once: count,
shapes, finite entries, and no image leaking outside the target blocks (a
leak below LEAK_TOL stays in choi_blocks and is zero in T).
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
    """A map between FiniteCStar algebras: per-block Choi matrices and the T built from them."""

    __slots__ = ("source", "target", "choi_blocks", "_transfer")

    def __init__(self, source: FiniteCStar, target: FiniteCStar, choi_blocks):
        blocks = [as_complex(c) for c in choi_blocks]
        if len(blocks) != source.n_blocks:
            raise DimensionMismatchError(
                f"expected {source.n_blocks} Choi blocks, got {len(blocks)}"
            )
        d = target.embed_dim
        off = ~block_mask(target).reshape(-1)
        rows = []
        for bi, (c, n) in enumerate(zip(blocks, source.block_sizes)):
            if c.shape != (n * d, n * d):
                raise DimensionMismatchError(
                    f"Choi block shape {c.shape} does not match {(n * d, n * d)}"
                )
            if not np.all(np.isfinite(c.real)) or not np.all(np.isfinite(c.imag)):
                raise DimensionMismatchError("Choi block contains non-finite entries")
            # the rows of T for this block; images phi(e_ij) must lie in the embedded direct sum
            t = c.reshape(n, d, n, d).transpose(0, 2, 1, 3).reshape(n * n, d * d)
            leak = float(np.max(np.abs(t[:, off]), initial=0.0))
            scale = max(1.0, float(np.max(np.abs(c))))
            if leak > LEAK_TOL * scale:
                raise DimensionMismatchError(
                    f"Choi block {bi} leaks outside the embedded target blocks "
                    f"(max off-diagonal entry {leak:.3e})"
                )
            rows.append(t)
        transfer = np.concatenate(rows)  # a copy, also where 1 x 1 blocks' rows are views
        transfer[:, off] = 0.0
        transfer.setflags(write=False)
        self.source = source
        self.target = target
        self.choi_blocks = tuple(_freeze(c) for c in blocks)
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
        """T, the read-only (dim, D*D) stack of matrix-unit images: row u is vec(phi(e_u))."""
        return self._transfer

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
    x, *_ = np.linalg.lstsq(phi.transfer.T, y.embedded().reshape(-1), rcond=None)
    ds = phi.source.embed_dim
    m = np.zeros((ds, ds), dtype=np.complex128)
    m[block_mask(phi.source)] = x
    return from_embedded(phi.source, m)
