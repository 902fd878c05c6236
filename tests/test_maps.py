import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posmap import algebra
from posmap.algebra import Element, FiniteCStar, matrix_units, unit
from posmap.errors import (
    AlgebraMismatchError,
    BadRangeError,
    CountMismatchError,
    DimensionMismatchError,
)
from posmap.certificates import _partition_certificate
from posmap.family import (
    corner_embed_apply,
    corner_mixture_apply,
    corner_mixture_map,
    partial_trace_first_apply,
    verify_corner_family,
)
from posmap.maps import LEAK_TOL, PMap, lstsq_preimage, pmap_norm
from posmap.orderzero import cp_repair, oz_construct
from posmap.positivity import tomiyama_map

from conftest import ginibre, random_map

M2 = FiniteCStar((2,))
M3 = FiniteCStar((3,))
M4 = FiniteCStar((4,))


def transpose_map(n):
    alg = FiniteCStar((n,))
    images = []
    for i in range(n):
        for j in range(n):
            m = np.zeros((n, n))
            m[j, i] = 1.0
            images.append(Element(alg, [m]))
    return PMap.from_action(alg, alg, images)


def trace_map(n):
    """a -> tr_n(a) 1 (normalized trace)."""
    alg = FiniteCStar((n,))
    images = []
    for i in range(n):
        for j in range(n):
            images.append((1.0 / n if i == j else 0.0) * unit(alg))
    return PMap.from_action(alg, alg, images)


class TestFromAction:
    def test_identity(self):
        phi = PMap.from_action(M2, M2, matrix_units(M2))
        x = algebra.random_contraction(M2, 1)
        assert (phi(x) - x).norm() < 1e-12

    def test_transpose_on_units(self):
        phi = transpose_map(2)
        e12 = algebra.basis_element(M2, 0, 0, 1)
        e21 = algebra.basis_element(M2, 0, 1, 0)
        assert (phi(e12) - e21).norm() < 1e-15

    def test_zero_map(self):
        phi = PMap.from_action(M2, M2, [0.0 * unit(M2)] * 4)
        assert phi(unit(M2)).norm() == 0.0

    def test_count_mismatch(self):
        with pytest.raises(CountMismatchError):
            PMap.from_action(M2, M2, matrix_units(M2)[:3])

    def test_unit_images_match(self):
        phi = transpose_map(3)
        for e, img in zip(matrix_units(M3), [phi(e) for e in matrix_units(M3)]):
            assert (phi(e) - img).norm() < 1e-12


class TestApply:
    def test_trace_map_on_e11(self):
        phi = trace_map(2)
        e11 = algebra.basis_element(M2, 0, 0, 0)
        out = phi(e11)
        assert np.allclose(out.blocks[0], np.eye(2) / 2)

    def test_linear(self):
        phi = transpose_map(3)
        x = algebra.random_contraction(M3, 2)
        y = algebra.random_contraction(M3, 3)
        lhs = phi(x + (2.5 - 1j) * y)
        rhs = phi(x) + (2.5 - 1j) * phi(y)
        assert (lhs - rhs).norm() < 1e-12

    def test_algebra_mismatch(self):
        with pytest.raises(AlgebraMismatchError):
            transpose_map(2).apply(unit(M3))


class TestChoi:
    def test_identity_choi_spectrum(self):
        # oracle: C = 2 |Omega><Omega| for the identity on M_2
        phi = PMap.identity(M2)
        c = phi.choi_blocks[0]
        vals = np.linalg.eigvalsh(c)
        assert np.allclose(vals, [0, 0, 0, 2], atol=1e-12)
        assert np.trace(c).real == pytest.approx(2.0)

    def test_transpose_choi_is_swap(self):
        phi = transpose_map(2)
        swap = np.zeros((4, 4))
        for i in range(2):
            for j in range(2):
                swap[i * 2 + j, j * 2 + i] = 1.0
        assert np.allclose(phi.choi_blocks[0], swap)

    def test_trace_map_choi(self):
        phi = trace_map(3)
        assert np.allclose(phi.choi_blocks[0], np.eye(9) / 3)

    def test_round_trip(self):
        phi = transpose_map(3)
        psi = PMap.from_choi(M3, M3, phi.choi_blocks)
        assert all(
            np.array_equal(a, b) for a, b in zip(phi.choi_blocks, psi.choi_blocks)
        )

    def test_leakage_rejected(self):
        # a Choi block sending e_11 outside the embedded blocks of (1,1)
        alg = FiniteCStar((1, 1))
        c = np.zeros((2, 2), dtype=complex)
        c[0, 1] = 1.0
        with pytest.raises(DimensionMismatchError):
            PMap.from_choi(FiniteCStar((1,)), alg, [c])

    def test_unit_image_leakage_rejected(self):
        # the identity on (1,1) with e_00's image given an off-block entry;
        # unvalidated, transfer would zero it silently
        alg = FiniteCStar((1, 1))
        stack = algebra.unit_stack(alg)
        stack[0, 0, 1] = 1.0
        with pytest.raises(DimensionMismatchError, match="leaks"):
            PMap(alg, alg, stack)


class TestConstructorBoundary:
    @pytest.mark.parametrize(
        "blocks, field",
        [
            ([], "expected 1 Choi blocks, got 0"),
            ([np.eye(4), np.eye(4)], "expected 1 Choi blocks, got 2"),
            ([np.eye(3)], r"Choi block shape \(3, 3\) does not match \(4, 4\)"),
            ([np.diag([1.0, np.nan, 1.0, 1.0])], "non-finite"),
            ([np.diag([1.0, 1.0, 1j * np.inf, 1.0])], "non-finite"),
        ],
    )
    def test_rejected_with_exact_type(self, blocks, field):
        with pytest.raises(DimensionMismatchError, match=field) as info:
            PMap.from_choi(M2, M2, blocks)
        assert type(info.value) is DimensionMismatchError

    @pytest.mark.parametrize(
        "images, field",
        [
            (np.zeros((3, 2, 2)), r"stack shape \(3, 2, 2\) does not match \(4, 2, 2\)"),
            (np.zeros((4, 4)), r"stack shape \(4, 4\) does not match"),
            (np.full((4, 2, 2), np.nan), "non-finite"),
        ],
    )
    def test_unit_image_stack_rejected(self, images, field):
        with pytest.raises(DimensionMismatchError, match=field):
            PMap(M2, M2, images)


class TestTransferLayout:
    # three source blocks into a two-block target: sum n_i^2 = 14 rows, D^2 = 9 columns
    SOURCE = FiniteCStar((1, 2, 3))
    TARGET = FiniteCStar((2, 1))

    def _map(self, seed=7):
        return random_map(np.random.default_rng(seed), self.SOURCE, self.TARGET)

    def test_rows_are_unit_images(self):
        phi = self._map()
        assert phi.transfer.shape == (14, 9)
        d = self.TARGET.embed_dim
        rows = phi.transfer.reshape(-1, d, d)
        np.testing.assert_array_equal(rows, phi.act(algebra.unit_stack(self.SOURCE)))
        # and, independently, the (i, j) tile of the Choi block is phi(e_ij)
        u = 0
        for c, n in zip(phi.choi_blocks, self.SOURCE.block_sizes):
            for i in range(n):
                for j in range(n):
                    np.testing.assert_array_equal(rows[u], c[i * d:(i + 1) * d, j * d:(j + 1) * d])
                    u += 1

    def test_commutative_identity_has_no_padded_rows(self):
        # one row per matrix unit, so C^N costs N * N^2 entries, not N^2 * N^2
        t = PMap.identity(FiniteCStar((1,) * 50)).transfer
        assert t.shape == (50, 2500)
        assert not t.flags.writeable

    def test_act_ignores_off_block_source_entries(self):
        phi = self._map()
        rng = np.random.default_rng(3)
        x = random_element(rng, self.SOURCE)
        xs = x.embedded()
        xs[~algebra.block_mask(self.SOURCE)] = np.nan  # never read
        np.testing.assert_array_equal(phi.act(xs), phi(x).embedded())


class TestTransferBuiltAtConstruction:
    @pytest.mark.parametrize(
        "source, target",
        [
            (FiniteCStar((2, 1)), FiniteCStar((1, 2))),
            # 1 x 1 source blocks: each block's rows of T are a view of the input
            (FiniteCStar((1, 1, 1)), FiniteCStar((2, 1))),
        ],
    )
    def test_does_not_alias_the_input(self, source, target):
        ref = random_map(np.random.default_rng(5), source, target)
        d = target.embed_dim
        stack = ref.transfer.reshape(-1, d, d).copy()  # a writable copy
        blocks = [c.copy() for c in ref.choi_blocks]
        maps = [PMap(source, target, stack), PMap.from_choi(source, target, blocks)]
        stack[...] = 7.0 + 1j  # the caller reuses its arrays
        for c in blocks:
            c[...] = 7.0 + 1j
        for phi in maps:
            np.testing.assert_array_equal(phi.transfer, ref.transfer)
            for got, want in zip(phi.choi_blocks, ref.choi_blocks):
                np.testing.assert_array_equal(got, want)

    def test_leak_below_tolerance_is_zero_in_transfer(self):
        # accepted by the leak check and dropped from T, so also from the Choi block read from T
        alg = FiniteCStar((1, 1))
        stack = algebra.unit_stack(alg)
        stack[0, 0, 1] = 0.5 * LEAK_TOL
        phi = PMap(alg, alg, stack)
        assert phi.choi_blocks[0][0, 1] == 0.0
        assert phi.transfer[0, 1] == 0.0
        np.testing.assert_array_equal(phi.transfer, PMap.identity(alg).transfer)

    def test_leak_tolerance_scales_with_the_block(self):
        # LEAK_TOL is relative to the block's largest entry once that exceeds 1
        alg = FiniteCStar((1, 1))
        stack = 1e6 * algebra.unit_stack(alg)
        stack[0, 0, 1] = 1e-6
        assert PMap(alg, alg, stack).transfer[0, 1] == 0.0
        stack[0, 0, 1] = 1e-3
        with pytest.raises(DimensionMismatchError, match="leaks"):
            PMap(alg, alg, stack)

    def test_read_only_and_the_same_object(self):
        phi = random_map(np.random.default_rng(2), FiniteCStar((2, 1)), M3)
        t = phi.transfer
        assert phi.transfer is t
        assert not t.flags.writeable
        with pytest.raises(ValueError):
            t[0, 0] = 1.0


def _choi_to_transfer(source, target, blocks):
    """The earlier two-copy path's second half: Choi blocks -> T, off-block columns zeroed."""
    d, sizes = target.embed_dim, source.block_sizes
    rows = [c.reshape(n, d, n, d).transpose(0, 2, 1, 3).reshape(n * n, d * d)
            for c, n in zip(blocks, sizes)]
    transfer = np.concatenate(rows)
    transfer[:, ~algebra.block_mask(target).reshape(-1)] = 0.0
    return transfer, blocks


def _stack_to_transfer(source, target, stack):
    """The earlier two-copy path in full: unit-image stack -> Choi blocks -> T."""
    d, sizes = target.embed_dim, source.block_sizes
    parts = np.split(np.asarray(stack, dtype=np.complex128), np.cumsum([n * n for n in sizes])[:-1])
    blocks = [t.reshape(n, n, d, d).transpose(0, 2, 1, 3).reshape(n * d, n * d)
              for t, n in zip(parts, sizes)]
    return _choi_to_transfer(source, target, blocks)


def _identity():
    a21 = FiniteCStar((2, 1))
    return PMap.identity(a21), _stack_to_transfer(a21, a21, algebra.unit_stack(a21))


def _from_action():
    source, target = FiniteCStar((2, 1)), FiniteCStar((1, 2))
    images = [random_element(np.random.default_rng(u), target) for u in range(source.dim)]
    stack = algebra.embed_stack(target, images)
    return PMap.from_action(source, target, images), _stack_to_transfer(source, target, stack)


def _tomiyama():
    n, lam = 4, 1.3
    stack = algebra.unit_stack(M4)
    stack[stack != 0] = 1.0 - lam
    stack[:: n + 1] += (lam / n) * np.eye(n)
    return tomiyama_map(n, lam), _stack_to_transfer(M4, M4, stack)


def _corner_mixture():
    n, m, lam, eps = 2, 3, 1.4, 0.05
    alg = FiniteCStar((m * n,))
    stack = corner_mixture_apply(algebra.unit_stack(alg), n, m, lam, eps)
    return corner_mixture_map(n, m, lam, eps), _stack_to_transfer(alg, alg, stack)


def _compressed():
    seen = []
    n, m, lam, eps = 3, 115, 1.4, 0.05  # past the 2-threshold, so the compressed map is built
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("posmap.family.k_positivity_falsify", lambda phi, *a, **kw: seen.append(phi))
        verify_corner_family(n, m, 1, lam, eps, samples=1)
    units = corner_embed_apply(algebra.unit_stack(M3), m)
    composed = partial_trace_first_apply(corner_mixture_apply(units, n, m, lam, eps), m, n)
    return seen[0], _stack_to_transfer(M3, M3, composed)


def _oz_construct():
    target = FiniteCStar((2, 2))
    pis = [Element(target, [e.blocks[0], e.blocks[0]]) for e in matrix_units(M2)]
    h = Element(target, [0.3 * np.eye(2), 0.7 * np.eye(2)])
    stack = h.embedded() @ algebra.embed_stack(target, pis)
    return oz_construct(M2, pis, h), _stack_to_transfer(M2, target, stack)


def _certificate_psi():
    a21 = FiniteCStar((2, 1))
    psi = _partition_certificate(a21, [0.25, 0.75], 0, 1e-6).psi
    stack = np.kron(np.eye(2), algebra.unit_stack(a21))
    return psi, _stack_to_transfer(a21, psi.target, stack)


def _certificate_leg():
    # w * identity: the earlier path scaled the Choi blocks, this one scales T
    a21 = FiniteCStar((2, 1))
    leg = _partition_certificate(a21, [0.25, 0.75], 0, 1e-6).phis[1]
    _, blocks = _stack_to_transfer(a21, a21, algebra.unit_stack(a21))
    return leg, _choi_to_transfer(a21, a21, [complex(0.75) * c for c in blocks])


def _cp_repair():
    # phi + bump: the earlier path added the Choi blocks, this one adds T
    phi = transpose_map(2)
    repaired, eps = cp_repair(phi)
    return repaired, _choi_to_transfer(M2, M2, [phi.choi_blocks[0] + 2 * eps * np.eye(4)])


BUILDERS = {
    "identity": _identity,
    "from_action": _from_action,
    "tomiyama_map": _tomiyama,
    "corner_mixture_map": _corner_mixture,
    "verify_corner_family": _compressed,
    "oz_construct": _oz_construct,
    "certificate_psi": _certificate_psi,
    "certificate_leg": _certificate_leg,
    "cp_repair": _cp_repair,
}


class TestOneStoredArray:
    def test_holds_one_transfer_matrix(self):
        # the two-copy layout held 2.0 T.nbytes and peaked at 5.0 during the build
        tomiyama_map(20, 1.05)  # warm the per-algebra caches
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            phi = tomiyama_map(20, 1.05)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        nbytes = phi.transfer.nbytes
        assert held - base <= 1.1 * nbytes
        assert peak - base <= 3 * nbytes

    def test_from_choi_loads_into_one_stack(self):
        # per-block re-laid copies, then their concatenation, peaked at 3.5 T.nbytes
        alg = FiniteCStar((30,))
        blocks = tomiyama_map(30, 1.02).choi_blocks
        PMap.from_choi(alg, alg, blocks)  # warm the per-algebra caches
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            phi = PMap.from_choi(alg, alg, blocks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - base <= 2.6 * phi.transfer.nbytes

    def test_only_the_transfer_matrix_is_stored(self):
        assert PMap.__slots__ == ("source", "target", "_transfer")
        phi = tomiyama_map(3, 1.4)
        assert phi.choi_blocks[0] is not phi.choi_blocks[0]  # derived on each read

    @pytest.mark.parametrize("label", sorted(BUILDERS))
    def test_builders_match_the_two_copy_path_bytewise(self, label):
        phi, (transfer, blocks) = BUILDERS[label]()
        assert phi.transfer.tobytes() == transfer.tobytes()
        assert len(phi.choi_blocks) == len(blocks)
        for got, want in zip(phi.choi_blocks, blocks):
            assert got.shape == want.shape
            assert got.tobytes() == np.ascontiguousarray(want).tobytes()

    @pytest.mark.parametrize("source, target", [(FiniteCStar((1, 2, 1)), FiniteCStar((2, 1))), (M3, M3)])
    def test_choi_blocks_read_only_and_round_trip(self, source, target):
        phi = random_map(np.random.default_rng(4), source, target)
        for c in phi.choi_blocks:  # a view of T for 1 x 1 source blocks, a copy otherwise
            assert not c.flags.writeable
            with pytest.raises(ValueError):
                c[0, 0] = 1.0
        psi = PMap.from_choi(source, target, phi.choi_blocks)
        assert psi.transfer.tobytes() == phi.transfer.tobytes()
        for a, b in zip(psi.choi_blocks, phi.choi_blocks):
            assert a.tobytes() == b.tobytes()


class TestComposeAndArithmetic:
    def test_choi_linearity(self):
        phi = transpose_map(2)
        psi = trace_map(2)
        s = phi + psi
        assert np.allclose(s.choi_blocks[0], phi.choi_blocks[0] + psi.choi_blocks[0])
        assert np.allclose((0.5 * phi).choi_blocks[0], 0.5 * phi.choi_blocks[0])

    def test_hermiticity_preservation(self):
        phi = trace_map(3) + 0.3 * transpose_map(3)
        x = algebra.random_contraction(M3, 11)
        assert (phi(x.adj()) - phi(x).adj()).norm() < 1e-10


class TestPMapNorm:
    def test_identity(self):
        assert pmap_norm(PMap.identity(M3)) == pytest.approx(1.0)

    def test_scaled(self):
        assert pmap_norm(0.5 * PMap.identity(M3)) == pytest.approx(0.5)


class TestApplyChoiConsistency:
    def test_seeded_maps(self):
        # apply via the Choi pairing equals apply via stored images
        alg = FiniteCStar((2, 3))
        rng = np.random.default_rng(99)
        for trial in range(100):
            images = []
            for _ in range(alg.dim):
                blocks = [
                    rng.standard_normal((s, s)) + 1j * rng.standard_normal((s, s))
                    for s in alg.block_sizes
                ]
                images.append(Element(alg, blocks))
            phi = PMap.from_action(alg, alg, images)
            for e, img in zip(matrix_units(alg), images):
                assert (phi(e) - img).norm() < 1e-10


class TestLstsqPreimage:
    def test_invertible_map(self):
        phi = transpose_map(3)
        y = algebra.random_contraction(M3, 17)
        x = lstsq_preimage(phi, y)
        assert (phi(x) - y).norm() < 1e-10


# -- properties of the transfer-matrix core -------------------------------------

algebras = st.lists(st.integers(1, 3), min_size=1, max_size=3).map(
    lambda sizes: FiniteCStar(tuple(sizes))
)
seeds = st.integers(0, 2**32 - 1)
core = settings(max_examples=30, deadline=None)


def random_element(rng, alg):
    return Element(alg, [ginibre(rng, n) for n in alg.block_sizes])


@core
@given(algebras, algebras, seeds)
def test_apply_is_linear(source, target, seed):
    rng = np.random.default_rng(seed)
    phi = random_map(rng, source, target)
    x, y = random_element(rng, source), random_element(rng, source)
    c = complex(*rng.standard_normal(2))
    lhs = phi(x + c * y)
    rhs = phi(x) + c * phi(y)
    assert (lhs - rhs).norm() <= 1e-12 * max(1.0, rhs.norm())


@core
@given(algebras, algebras, seeds)
def test_stacked_apply_matches_per_element(source, target, seed):
    rng = np.random.default_rng(seed)
    phi = random_map(rng, source, target)
    xs = [random_element(rng, source) for _ in range(5)]
    stack = algebra.embed_stack(source, xs)[:, None]  # (5, 1, Ds, Ds)
    for x, out in zip(xs, phi.act(stack)[:, 0]):
        np.testing.assert_allclose(out, phi(x).embedded(), rtol=0, atol=1e-12)


@core
@given(algebras, algebras, seeds)
def test_choi_round_trip_through_unit_images_is_exact(source, target, seed):
    phi = random_map(np.random.default_rng(seed), source, target)
    psi = PMap.from_action(source, target, [phi(e) for e in matrix_units(source)])
    for a, b in zip(phi.choi_blocks, psi.choi_blocks):
        assert np.array_equal(a, b)


@core
@given(algebras, seeds)
def test_lstsq_preimage_inverts_invertible_map(alg, seed):
    rng = np.random.default_rng(seed)
    # identity plus a perturbation of operator norm <= 0.3 on coordinates
    noise = [random_element(rng, alg) for _ in range(alg.dim)]
    size = np.sqrt(sum(sum(np.sum(np.abs(b) ** 2) for b in g.blocks) for g in noise))
    images = [e + (0.3 / size) * g for e, g in zip(matrix_units(alg), noise)]
    phi = PMap.from_action(alg, alg, images)
    x = random_element(rng, alg)
    back = lstsq_preimage(phi, phi(x))
    assert (back - x).norm() <= 1e-12 * max(1.0, x.norm())


class TestIsSelfadjoint:
    def test_transpose_and_trace_selfadjoint(self):
        assert transpose_map(3).is_selfadjoint()
        assert trace_map(3).is_selfadjoint()

    def test_non_selfadjoint_map(self):
        # x -> e_01 x: phi(x*) != phi(x)*
        e01 = algebra.basis_element(M2, 0, 0, 1)
        phi = PMap.from_action(M2, M2, [e01 * e for e in matrix_units(M2)])
        assert not phi.is_selfadjoint()
        assert not phi.is_selfadjoint(1e-3)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1e-10])
    def test_bad_tolerance_rejected(self, tol):
        # a NaN tolerance called x -> e_01 x self-adjoint
        e01 = algebra.basis_element(M2, 0, 0, 1)
        phi = PMap.from_action(M2, M2, [e01 * e for e in matrix_units(M2)])
        with pytest.raises(BadRangeError):
            phi.is_selfadjoint(tol)
