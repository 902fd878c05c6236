import numpy as np


def ginibre(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def random_hermitian(rng, n):
    g = ginibre(rng, n)
    return (g + g.conj().T) / 2


def random_unitary(rng, n):
    q, r = np.linalg.qr(ginibre(rng, n))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_map(rng, source, target, cp=False):
    """A PMap with Gaussian Choi blocks, images kept inside the target blocks.

    With cp=True each Choi block is g g*/||g g*|| + 1/2, masked to the target
    blocks; the mask is a sum of compressions, so the map stays CP and
    phi(1) >= 1/2.
    """
    from posmap.maps import PMap

    d = target.embed_dim
    owner = np.repeat(np.arange(target.n_blocks), target.block_sizes)
    inside = owner[:, None] == owner[None, :]  # (s, t) in one target block
    blocks = []
    for n in source.block_sizes:
        g = ginibre(rng, n * d)
        if cp:
            g = g @ g.conj().T
            g = g / np.linalg.norm(g, 2) + 0.5 * np.eye(n * d)
        c = g.reshape(n, d, n, d) * inside[None, :, None, :]
        blocks.append(c.reshape(n * d, n * d))
    return PMap.from_choi(source, target, blocks)
