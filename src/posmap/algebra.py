"""Finite-dimensional C*-algebras as direct sums of full matrix blocks.

A FiniteCStar is just its ordered tuple of block sizes. An Element stores
its block-diagonal embedding as one read-only array, and its blocks are
read-only views of it, so maps, reports and certificates hold elements
without copying. Element(algebra, blocks) checks caller and file blocks
(AlgebraMismatchError); every element the library builds comes from
from_embedded, checked once (an overflow: NumericalFailureError).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import AlgebraMismatchError, BadRangeError, NumericalFailureError
from .linalg import PSD_TOL, as_complex, check_count, hermitian_kernel, op_norm


@dataclass(frozen=True)
class FiniteCStar:
    """Direct sum of full matrix algebras, given by its block sizes."""

    block_sizes: tuple[int, ...]

    def __post_init__(self):
        sizes = tuple(self.block_sizes)
        if not all(isinstance(s, (int, np.integer)) and not isinstance(s, bool) for s in sizes):
            raise BadRangeError(f"block sizes must be integers, got {sizes}")
        if len(sizes) == 0:
            raise BadRangeError("an algebra needs at least one block")
        if any(s < 1 for s in sizes):
            raise BadRangeError(f"block sizes must be >= 1, got {tuple(map(int, sizes))}")
        object.__setattr__(self, "block_sizes", tuple(map(int, sizes)))

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


class Element:
    """An element of a FiniteCStar, stored as its read-only block-diagonal embedding."""

    __slots__ = ("algebra", "_m")

    def __init__(self, algebra: FiniteCStar, blocks: Sequence[np.ndarray]):
        blocks = [as_complex(b) for b in blocks]
        if len(blocks) != algebra.n_blocks:
            raise AlgebraMismatchError(f"expected {algebra.n_blocks} blocks, got {len(blocks)}")
        for b, size in zip(blocks, algebra.block_sizes):
            if b.shape != (size, size):
                raise AlgebraMismatchError(f"block of shape {b.shape} does not match size {size}")
            if not np.all(np.isfinite(b.real)) or not np.all(np.isfinite(b.imag)):
                raise AlgebraMismatchError("block contains non-finite entries")
        self.algebra = algebra
        self._m = embed_blocks(algebra, blocks)
        self._m.setflags(write=False)

    @property
    def blocks(self) -> tuple[np.ndarray, ...]:
        """One read-only square view per summand, into the stored embedding."""
        ends = np.cumsum(self.algebra.block_sizes)
        return tuple(self._m[e - n : e, e - n : e] for e, n in zip(ends, self.algebra.block_sizes))

    def _check_same(self, other: "Element") -> None:
        if self.algebra != other.algebra:
            raise AlgebraMismatchError(
                f"elements of {self.algebra} and {other.algebra} cannot be combined"
            )

    def __add__(self, other: "Element") -> "Element":
        self._check_same(other)
        return from_embedded(self.algebra, self._m + other._m)

    def __sub__(self, other: "Element") -> "Element":
        self._check_same(other)
        return from_embedded(self.algebra, self._m - other._m)

    def __mul__(self, other):
        if isinstance(other, Element):
            self._check_same(other)
            # per block: a product of whole embeddings rounds differently in the last bit
            products = [a @ b for a, b in zip(self.blocks, other.blocks)]
            return from_embedded(self.algebra, embed_blocks(self.algebra, products))
        return from_embedded(self.algebra, complex(other) * self._m)

    __rmul__ = __mul__  # only ever reached with a scalar on the left

    def adj(self) -> "Element":
        """Adjoint (conjugate transpose, blockwise)."""
        return from_embedded(self.algebra, self._m.conj().T)

    def norm(self) -> float:
        """C*-norm: max over blocks of the operator norm."""
        return max(op_norm(b) for b in self.blocks)

    def embedded(self) -> np.ndarray:
        """A fresh, writable copy of the embedding into one embed_dim x embed_dim matrix."""
        return self._m.copy()

    def __repr__(self):
        return f"Element({self.algebra}, norm={self.norm():.4g})"


def from_embedded(algebra: FiniteCStar, m: np.ndarray) -> Element:
    """The Element on the diagonal blocks of an embed_dim square matrix, for computed data."""
    m = as_complex(m)
    d = algebra.embed_dim
    if m.shape != (d, d):
        raise AlgebraMismatchError(f"expected shape {(d, d)}, got {m.shape}")
    if not np.all(np.isfinite(m)):  # computed, not caller data: an overflow
        raise NumericalFailureError("computed element contains non-finite entries")
    x = object.__new__(Element)  # checked here once, not again by Element.__init__
    x.algebra = algebra
    x._m = np.where(block_mask(algebra), m, 0)  # a copy, so the caller's m stays its own
    x._m.setflags(write=False)
    return x


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
    return np.array([x._m for x in elements], dtype=np.complex128).reshape(-1, d, d)


def unit(algebra: FiniteCStar) -> Element:
    return from_embedded(algebra, np.eye(algebra.embed_dim))


def basis_element(algebra: FiniteCStar, block: int, i: int, j: int) -> Element:
    """The matrix unit e_ij of the given block, zero elsewhere."""
    for name, index in (("block", block), ("i", i), ("j", j)):
        check_count(name, index)
    n = algebra.block_sizes[block] if 0 <= block < algebra.n_blocks else 0
    if not (0 <= i < n and 0 <= j < n):
        raise BadRangeError(f"no matrix unit e_{i},{j} in block {block} of {algebra}")
    blocks = [np.zeros((s, s)) for s in algebra.block_sizes]
    blocks[block][i, j] = 1.0
    return from_embedded(algebra, embed_blocks(algebra, blocks))


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

    Ordered like block_mask: block by block, row-major. Over budget, check_image_budget raises.
    """
    d = algebra.embed_dim
    check_image_budget(algebra.dim, d)
    rows, cols = np.nonzero(block_mask(algebra))
    stack = np.zeros((algebra.dim, d, d), dtype=np.complex128)
    stack[np.arange(algebra.dim), rows, cols] = 1.0
    return stack


def matrix_units(algebra: FiniteCStar) -> list[Element]:
    """All matrix units, in the order of unit_stack."""
    return [from_embedded(algebra, e) for e in unit_stack(algebra)]


def is_positive(x: Element, tol: float = PSD_TOL) -> bool:
    """HermKernel.psd on the block-diagonal embedding: scale max(1, ||x||) over all blocks."""
    return hermitian_kernel(x._m).psd(tol)


def spanning_positive_contractions(algebra: FiniteCStar) -> list[Element]:
    """Positive contractions whose span is the whole algebra.

    Per block, from its basis vectors e_i embedded in C^D: the units e_ii and,
    for i < j, the projections onto (e_i + e_j)/sqrt(2) and (e_i + i e_j)/sqrt(2).
    """
    check_image_budget(algebra.dim, algebra.embed_dim)
    out = []
    for e in np.split(np.eye(algebra.embed_dim), np.cumsum(algebra.block_sizes)[:-1]):
        iu, ju = np.triu_indices(len(e), 1)  # i < j, row-major
        # rows e_i + e_j and e_i + i e_j, pair by pair
        v = (e[iu, None] + np.array([1.0, 1.0j])[:, None] * e[ju, None]).reshape(-1, e.shape[1])
        projections = v[:, :, None] * v.conj()[:, None, :] / 2.0  # v/|v| gives 0.4999..., not 0.5
        units = e[:, :, None] * e[:, None, :]
        out += [from_embedded(algebra, m) for m in np.concatenate([units, projections])]
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
    check_count("a seed", seed, 0)
    rng = np.random.default_rng(seed)
    blocks = [_wishart(_ginibre(rng, (n, n))) for n in algebra.block_sizes]
    return from_embedded(algebra, embed_blocks(algebra, blocks))


def random_contraction(algebra: FiniteCStar, seed: int) -> Element:
    """Ginibre matrix normalized to operator norm 1, blockwise."""
    check_count("a seed", seed, 0)
    rng = np.random.default_rng(seed)
    blocks = [_contraction(rng, n) for n in algebra.block_sizes]
    return from_embedded(algebra, embed_blocks(algebra, blocks))

