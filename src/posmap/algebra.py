"""Finite-dimensional C*-algebras as direct sums of full matrix blocks.

A FiniteCStar is just its ordered tuple of block sizes; an Element carries
one square complex block per summand. Elements are immutable after
construction (blocks are copied and marked read-only), so maps, reports
and certificates can hold them without copying.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import AlgebraMismatchError, BadRangeError
from .linalg import as_complex, check_seed, is_psd, op_norm


@dataclass(frozen=True)
class FiniteCStar:
    """Direct sum of full matrix algebras, given by its block sizes."""

    block_sizes: tuple[int, ...]

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.block_sizes)
        if len(sizes) == 0:
            raise BadRangeError("an algebra needs at least one block")
        if any(s < 1 for s in sizes):
            raise BadRangeError(f"block sizes must be >= 1, got {sizes}")
        object.__setattr__(self, "block_sizes", sizes)

    @property
    def dim(self) -> int:
        """Linear dimension sum(n_i^2)."""
        return sum(s * s for s in self.block_sizes)

    @property
    def embed_dim(self) -> int:
        """Size sum(n_i) of the block-diagonal embedding into one matrix algebra."""
        return sum(self.block_sizes)

    @property
    def n_blocks(self) -> int:
        return len(self.block_sizes)

    def __repr__(self):
        return f"FiniteCStar{self.block_sizes}"


def _freeze(block: np.ndarray) -> np.ndarray:
    out = np.array(block, dtype=np.complex128, copy=True)
    out.setflags(write=False)
    return out


class Element:
    """An element of a FiniteCStar: one square complex matrix per block."""

    __slots__ = ("algebra", "blocks")

    def __init__(self, algebra: FiniteCStar, blocks: Sequence[np.ndarray]):
        blocks = [as_complex(b) for b in blocks]
        if len(blocks) != algebra.n_blocks:
            raise AlgebraMismatchError(
                f"expected {algebra.n_blocks} blocks, got {len(blocks)}"
            )
        for b, size in zip(blocks, algebra.block_sizes):
            if b.shape != (size, size):
                raise AlgebraMismatchError(
                    f"block of shape {b.shape} does not match size {size}"
                )
            if not np.all(np.isfinite(b.real)) or not np.all(np.isfinite(b.imag)):
                raise AlgebraMismatchError("block contains non-finite entries")
        self.algebra = algebra
        self.blocks = tuple(_freeze(b) for b in blocks)

    def _check_same(self, other: "Element") -> None:
        if self.algebra != other.algebra:
            raise AlgebraMismatchError(
                f"elements of {self.algebra} and {other.algebra} cannot be combined"
            )

    def __add__(self, other: "Element") -> "Element":
        self._check_same(other)
        return Element(self.algebra, [a + b for a, b in zip(self.blocks, other.blocks)])

    def __sub__(self, other: "Element") -> "Element":
        self._check_same(other)
        return Element(self.algebra, [a - b for a, b in zip(self.blocks, other.blocks)])

    def __mul__(self, other):
        if isinstance(other, Element):
            self._check_same(other)
            return Element(
                self.algebra, [a @ b for a, b in zip(self.blocks, other.blocks)]
            )
        return Element(self.algebra, [complex(other) * b for b in self.blocks])

    __rmul__ = __mul__  # only ever reached with a scalar on the left

    def adj(self) -> "Element":
        """Adjoint (conjugate transpose, blockwise)."""
        return Element(self.algebra, [b.conj().T for b in self.blocks])

    def norm(self) -> float:
        """C*-norm: max over blocks of the operator norm."""
        return max(op_norm(b) for b in self.blocks)

    def embedded(self) -> np.ndarray:
        """Block-diagonal embedding into one embed_dim x embed_dim matrix."""
        return embed_blocks(self.algebra, self.blocks)

    def __repr__(self):
        return f"Element({self.algebra}, norm={self.norm():.4g})"


def from_embedded(algebra: FiniteCStar, m: np.ndarray) -> Element:
    """Split the diagonal blocks of an embed_dim square matrix into an Element."""
    m = as_complex(m)
    d = algebra.embed_dim
    if m.shape != (d, d):
        raise AlgebraMismatchError(f"expected shape {(d, d)}, got {m.shape}")
    ends = np.cumsum(algebra.block_sizes)
    return Element(algebra, [m[e - n : e, e - n : e] for e, n in zip(ends, algebra.block_sizes)])


def embed_blocks(algebra: FiniteCStar, blocks: Sequence[np.ndarray]) -> np.ndarray:
    """One square block per summand, placed block-diagonally; no validation."""
    d = algebra.embed_dim
    out = np.zeros((d, d), dtype=np.complex128)
    # row-major over the mask runs block by block, row-major within each
    out[block_mask(algebra)] = np.concatenate([np.reshape(b, -1) for b in blocks])
    return out


def embed_stack(algebra: FiniteCStar, elements: Sequence[Element]) -> np.ndarray:
    """The elements embedded as one (len, D, D) stack; each must belong to algebra."""
    if any(x.algebra != algebra for x in elements):
        raise AlgebraMismatchError(f"an element does not belong to {algebra}")
    d = algebra.embed_dim
    return np.array([x.embedded() for x in elements], dtype=np.complex128).reshape(-1, d, d)


def unit(algebra: FiniteCStar) -> Element:
    return Element(algebra, [np.eye(s) for s in algebra.block_sizes])


def basis_element(algebra: FiniteCStar, block: int, i: int, j: int) -> Element:
    """The matrix unit e_ij of the given block, zero elsewhere."""
    blocks = [np.zeros((s, s)) for s in algebra.block_sizes]
    blocks[block][i, j] = 1.0
    return Element(algebra, blocks)


@lru_cache(maxsize=64)
def block_mask(algebra: FiniteCStar) -> np.ndarray:
    """Read-only boolean D x D mask of the in-block entries, built once per algebra."""
    owner = np.repeat(np.arange(algebra.n_blocks), algebra.block_sizes)
    mask = owner[:, None] == owner[None, :]
    mask.setflags(write=False)
    return mask


MAX_SIZE = 2048  # one dense complex MAX_SIZE x MAX_SIZE matrix is 64 MiB


def check_image_budget(source_dim: int, target_embed_dim: int) -> None:
    """Raise BadRangeError if a (source_dim, D, D) unit-image stack exceeds MAX_SIZE**2 entries."""
    entries = source_dim * target_embed_dim**2
    if entries > MAX_SIZE**2:
        raise BadRangeError(
            f"need at most MAX_SIZE^2 = {MAX_SIZE**2} unit-image entries, got "
            f"{source_dim} images of size {target_embed_dim}^2 = {entries}"
        )


def unit_stack(algebra: FiniteCStar) -> np.ndarray:
    """All matrix units embedded, as a (dim, D, D) stack with D = embed_dim.

    Ordered like the entries of block_mask: block by block, row-major.
    """
    d = algebra.embed_dim
    rows, cols = np.nonzero(block_mask(algebra))
    stack = np.zeros((algebra.dim, d, d), dtype=np.complex128)
    stack[np.arange(algebra.dim), rows, cols] = 1.0
    return stack


def matrix_units(algebra: FiniteCStar) -> list[Element]:
    """All matrix units, in the order of unit_stack."""
    return [from_embedded(algebra, e) for e in unit_stack(algebra)]


def is_positive(x: Element, tol: float = 1e-9) -> bool:
    """linalg.is_psd on the block-diagonal embedding: scale max(1, ||x||) over all blocks."""
    return is_psd(x.embedded(), tol)


def spanning_positive_contractions(algebra: FiniteCStar) -> list[Element]:
    """Positive contractions whose span is the whole algebra.

    Per block: the diagonal units e_ii and, for i < j, the rank-one
    projections onto (e_i + e_j)/sqrt(2) and (e_i + i e_j)/sqrt(2).
    """
    zeros = [np.zeros((s, s)) for s in algebra.block_sizes]
    out = []
    for b, size in enumerate(algebra.block_sizes):
        e = np.eye(size)
        iu, ju = np.triu_indices(size, 1)  # i < j, row-major
        # rows e_i + e_j and e_i + i e_j, pair by pair
        v = (e[iu, None] + np.array([1.0, 1.0j])[:, None] * e[ju, None]).reshape(-1, size)
        projections = v[:, :, None] * v.conj()[:, None, :] / 2.0  # a normalised v squares to 0.4999...
        for m in np.concatenate([e[:, :, None] * e[:, None, :], projections]):
            out.append(Element(algebra, zeros[:b] + [m] + zeros[b + 1 :]))
    return out


def _ginibre(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _contraction(rng: np.random.Generator, n: int) -> np.ndarray:
    g = _ginibre(rng, (n, n))
    return np.divide(g, op_norm(g), out=g)  # in place: g is a fresh draw


def _wishart(g: np.ndarray) -> np.ndarray:
    gg = np.swapaxes(g.conj(), -2, -1) @ g
    return gg / np.expand_dims(op_norm(gg), (-2, -1))


def random_positive_contraction(algebra: FiniteCStar, seed: int) -> Element:
    """Wishart-normalized positive contraction, deterministic in seed.

    Blockwise g*g / ||g*g|| with g complex standard normal, so every block
    has norm exactly 1.
    """
    check_seed(seed)
    rng = np.random.default_rng(seed)
    return Element(algebra, [_wishart(_ginibre(rng, (n, n))) for n in algebra.block_sizes])


def random_contraction(algebra: FiniteCStar, seed: int) -> Element:
    """Ginibre matrix normalized to operator norm 1, blockwise."""
    check_seed(seed)
    rng = np.random.default_rng(seed)
    return Element(algebra, [_contraction(rng, n) for n in algebra.block_sizes])

