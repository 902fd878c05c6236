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
from posmap.maps import PMap, lstsq_preimage, pmap_norm

from conftest import ginibre, random_map

M2 = FiniteCStar((2,))
M3 = FiniteCStar((3,))


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
            PMap._from_unit_images(alg, alg, stack)


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
