import numpy as np
import pytest

from posmap import algebra, linalg
from posmap.algebra import (
    Element,
    FiniteCStar,
    is_positive,
    matrix_units,
    random_positive_contraction,
    unit,
)
from posmap.errors import AlgebraMismatchError, BadRangeError, NumericalFailureError
from posmap.maps import PMap
from posmap.orderzero import od_defect, order_zero_defect, polar_lift

from conftest import ginibre
from test_maps import random_element

M2 = FiniteCStar((2,))
M23 = FiniteCStar((2, 3))


class TestFiniteCStar:
    def test_dims(self):
        assert M23.dim == 13
        assert M23.embed_dim == 5
        assert M23.n_blocks == 2

    def test_rejects_empty(self):
        with pytest.raises(BadRangeError):
            FiniteCStar(())

    def test_rejects_zero_block(self):
        with pytest.raises(BadRangeError):
            FiniteCStar((2, 0))

    @pytest.mark.parametrize("size", [2.5, "3", True, 2.0])
    def test_rejects_non_integer_block(self, size):
        # each was truncated or cast: 2.5 and 2.0 became M_2, "3" M_3 and True M_1
        with pytest.raises(BadRangeError, match="block sizes must be integers"):
            FiniteCStar((size,))

    def test_accepts_numpy_integer_block(self):
        alg = FiniteCStar((np.int64(2),))
        assert alg == M2
        assert type(alg.block_sizes[0]) is int


class TestArithmetic:
    def test_unit_is_neutral(self):
        x = random_positive_contraction(M23, 5)
        assert ((unit(M23) * x) - x).norm() < 1e-15

    def test_adj_involutive(self):
        x = algebra.random_contraction(M23, 6)
        assert (x.adj().adj() - x).norm() < 1e-15

    def test_matrix_unit_product(self):
        e12 = algebra.basis_element(M2, 0, 0, 1)
        e21 = algebra.basis_element(M2, 0, 1, 0)
        e11 = algebra.basis_element(M2, 0, 0, 0)
        assert ((e12 * e21) - e11).norm() < 1e-15

    def test_algebra_mismatch(self):
        with pytest.raises(AlgebraMismatchError):
            unit(M2) * unit(M23)

    def test_unit_norm(self):
        assert unit(M23).norm() == pytest.approx(1.0)
        assert unit(M23).blocks[0].shape == (2, 2)
        assert unit(M23).blocks[1].shape == (3, 3)


class TestElementBoundary:
    @pytest.mark.parametrize(
        "blocks, field",
        [
            ([np.eye(2)], "expected 2 blocks, got 1"),
            ([np.eye(2), np.eye(2)], r"block of shape \(2, 2\) does not match size 3"),
            ([np.eye(2), np.diag([1.0, np.nan, 1.0])], "non-finite"),
            ([np.eye(2), np.diag([1.0, 1j * np.inf, 1.0])], "non-finite"),
            ([np.full((2, 2), np.inf), np.eye(3)], "non-finite"),
        ],
    )
    def test_rejected_with_exact_type(self, blocks, field):
        with pytest.raises(AlgebraMismatchError, match=field) as info:
            Element(M23, blocks)
        assert type(info.value) is AlgebraMismatchError


class TestStoredForm:
    def test_blocks_are_read_only_views_of_one_array(self):
        x = algebra.random_contraction(M23, 1)
        base = x.blocks[0].base
        assert base is not None and base.shape == (5, 5)
        for b in x.blocks + x.adj().blocks:
            assert not b.flags.writeable
            with pytest.raises(ValueError):
                b[0, 0] = 1.0
        assert all(b.base is base for b in x.blocks)  # one stored array, not a copy per block

    def test_embedded_is_a_fresh_writable_copy(self):
        x = algebra.random_contraction(M23, 2)
        m = x.embedded()
        assert m.flags.writeable and m is not x.embedded()
        assert not np.shares_memory(m, x.blocks[0].base)
        before = x.embedded()
        m[0, 0] = 99.0
        assert x.embedded().tobytes() == before.tobytes()

    def test_from_embedded_zeroes_off_block_input(self):
        m = ginibre(np.random.default_rng(3), 5)
        kept = m.copy()
        x = algebra.from_embedded(M23, m)
        mask = algebra.block_mask(M23)
        np.testing.assert_array_equal(x.embedded()[~mask], 0.0)
        np.testing.assert_array_equal(x.embedded()[mask], m[mask])
        assert m.tobytes() == kept.tobytes()  # the caller's array is not touched
        m[0, 0] = 7.0
        assert x.blocks[0][0, 0] == kept[0, 0]  # nor aliased

    def test_computed_elements_skip_the_constructor(self, monkeypatch):
        rng = np.random.default_rng(4)
        x, y = random_element(rng, M23), random_element(rng, M23)
        calls = []
        init = Element.__init__
        monkeypatch.setattr(Element, "__init__", lambda *a: calls.append(1) or init(*a))
        for z in (x + y, x - y, x * y, 2.0 * x, x.adj(), algebra.from_embedded(M23, x.embedded())):
            assert type(z) is Element
        assert calls == []

    @pytest.mark.parametrize("sizes", [(2, 3), (1, 1, 2)])
    @pytest.mark.parametrize("seed", range(5))
    def test_arithmetic_is_bitwise_per_block_numpy(self, sizes, seed):
        alg = FiniteCStar(sizes)
        rng = np.random.default_rng(seed)
        x, y = random_element(rng, alg), random_element(rng, alg)
        c = complex(*rng.standard_normal(2))
        cases = [
            (x + y, [a + b for a, b in zip(x.blocks, y.blocks)]),
            (x - y, [a - b for a, b in zip(x.blocks, y.blocks)]),
            (c * x, [c * a for a in x.blocks]),
            (x * c, [c * a for a in x.blocks]),
            (x.adj(), [a.conj().T for a in x.blocks]),
            (x * y, [a.copy() @ b.copy() for a, b in zip(x.blocks, y.blocks)]),
        ]
        for z, want in cases:
            assert [b.tobytes() for b in z.blocks] == [np.asarray(w).tobytes() for w in want]
            assert z.embedded().tobytes() == algebra.embed_blocks(alg, want).tobytes()


def _polar_lift(y):
    return polar_lift(PMap.identity(y.algebra), unit(y.algebra), y)[0]


class TestLibraryElementsFromEmbedding:
    def test_no_caller_check(self, monkeypatch):
        # unit, matrix units, samplers, spanning set and polar lift used to re-check their own blocks
        y = algebra.random_contraction(M23, 1)
        calls = []
        init = Element.__init__
        monkeypatch.setattr(Element, "__init__", lambda *a: calls.append(1) or init(*a))
        built = [
            unit(M23),
            algebra.basis_element(M23, 1, 2, 0),
            random_positive_contraction(M23, 0),
            algebra.random_contraction(M23, 0),
            *algebra.spanning_positive_contractions(M23),
            _polar_lift(y),
        ]
        assert all(type(x) is Element for x in built)
        assert calls == []

    @pytest.mark.parametrize("sizes", [(1,), (2,), (3,), (2, 3), (1, 4, 2), (1, 1, 2)])
    @pytest.mark.parametrize("seed", range(3))
    def test_bytes_match_the_checked_constructor(self, sizes, seed):
        # each as it was built before, through Element(algebra, blocks); signed zeros included
        alg = FiniteCStar(sizes)
        y = algebra.random_contraction(alg, seed + 100)
        rng, rng2 = np.random.default_rng(seed), np.random.default_rng(seed)
        cases = [
            (unit(alg), [np.eye(n) for n in sizes]),
            (
                random_positive_contraction(alg, seed),
                [algebra._wishart(algebra._ginibre(rng, (n, n))) for n in sizes],
            ),
            (algebra.random_contraction(alg, seed), [algebra._contraction(rng2, n) for n in sizes]),
            (_polar_lift(y), [linalg.polar_unitary(b) for b in y.blocks]),
        ]
        for got, blocks in cases:
            assert got.embedded().tobytes() == Element(alg, blocks).embedded().tobytes()
            assert not any(b.flags.writeable for b in got.blocks)


class TestBasisElement:
    @pytest.mark.parametrize("block, i, j", [(0, 0, 1), (1, 2, 0), (1, 1, 1)])
    def test_matrix_unit(self, block, i, j):
        x = algebra.basis_element(M23, block, i, j)
        want = [np.zeros((2, 2)), np.zeros((3, 3))]
        want[block][i, j] = 1.0
        assert x.embedded().tobytes() == Element(M23, want).embedded().tobytes()

    # (-1, 0, 0) gave e_00 of block 1, (0, -1, 0) gave e_10, (0, 0, 2) an IndexError
    @pytest.mark.parametrize(
        "block, i, j",
        [(-1, 0, 0), (0, -1, 0), (0, 0, -1), (0, 0, 2), (0, 2, 0), (1, 3, 0), (2, 0, 0)],
    )
    def test_out_of_range_rejected(self, block, i, j):
        with pytest.raises(BadRangeError):
            algebra.basis_element(M23, block, i, j)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestArithmeticOverflow:
    # each raised AlgebraMismatchError: a computed element went through the caller check
    @pytest.mark.parametrize(
        "op",
        [
            lambda x: x * x,
            lambda x: x + x,
            lambda x: x - (-1.0 * x),
            lambda x: 1e300 * x,
            lambda x: x * 1e300,
        ],
    )
    def test_overflow_is_numerical_failure(self, op):
        with pytest.raises(NumericalFailureError, match="computed element contains non-finite"):
            op(1e308 * unit(M23))


class TestBlockMask:
    def test_built_once_per_algebra_and_read_only(self):
        mask = algebra.block_mask(FiniteCStar((1, 2)))
        assert algebra.block_mask(FiniteCStar((1, 2))) is mask
        assert not mask.flags.writeable
        np.testing.assert_array_equal(
            mask, [[True, False, False], [False, True, True], [False, True, True]]
        )


class TestImageBudget:
    # C^162: 162 images of size 162^2 is 4,251,528 entries, just past MAX_SIZE^2 = 2048^2
    # (161^3 is within); the order-zero analyses allocated such stacks unchecked
    SOURCE = FiniteCStar((1,) * 162)

    def test_source_past_budget_rejected(self):
        assert 161**3 <= algebra.MAX_SIZE**2 < 162**3
        phi = PMap(self.SOURCE, FiniteCStar((1,)), np.ones((162, 1, 1)))
        calls = [
            lambda: algebra.unit_stack(self.SOURCE),
            lambda: PMap.identity(self.SOURCE),
            lambda: matrix_units(self.SOURCE),
            lambda: od_defect(phi, unit(self.SOURCE)),
            lambda: order_zero_defect(phi, samples=1, seed=0),
        ]
        for call in calls:
            with pytest.raises(BadRangeError, match="unit-image entries"):
                call()


class TestMatrixUnits:
    def test_count(self):
        assert len(matrix_units(M23)) == 13

    def test_relations(self):
        units = matrix_units(M2)
        e11, e12, e21, e22 = units
        assert ((e11 * e12) - e12).norm() < 1e-15
        assert (e12.adj() - e21).norm() < 1e-15
        total = e11 + e22
        assert (total - unit(M2)).norm() < 1e-15

    def test_sum_is_unit_direct_sum(self):
        units = matrix_units(M23)
        diag = [u for u in units if any(np.trace(b) != 0 for b in u.blocks)]
        s = diag[0]
        for u in diag[1:]:
            s = s + u
        assert (s - unit(M23)).norm() < 1e-15


class TestIsPositive:
    def test_unit(self):
        assert is_positive(unit(M23), 1e-9)

    def test_offdiagonal_symmetric_not_positive(self):
        x = algebra.basis_element(M2, 0, 0, 1) + algebra.basis_element(M2, 0, 1, 0)
        assert not is_positive(x, 1e-9)  # eigenvalues are +-1

    def test_squares_positive(self):
        for seed in range(10):
            x = algebra.random_contraction(M23, seed)
            assert is_positive(x.adj() * x, 1e-9)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1e-9, True, None, "1e-9"])
    def test_bad_tolerance_rejected(self, tol):
        # a NaN tolerance called e_01 and e_01 + e_10 (eigenvalues +-1) positive, and so did True
        e01 = algebra.basis_element(M2, 0, 0, 1)
        for x in (e01, e01 + e01.adj()):
            with pytest.raises(BadRangeError):
                is_positive(x, tol)

    def test_non_hermitian_rejected(self):
        # 1 + 0.2 e_01 has a PSD Hermitian part but is not Hermitian
        x = unit(M2) + 0.2 * algebra.basis_element(M2, 0, 0, 1)
        assert not is_positive(x, 1e-9)


class TestRandomPositiveContraction:
    def test_deterministic(self):
        a = random_positive_contraction(M23, 42)
        b = random_positive_contraction(M23, 42)
        assert (a - b).norm() == 0.0

    def test_positive_and_normalized(self):
        for seed in range(100):
            x = random_positive_contraction(M23, seed)
            assert is_positive(x, 1e-9)
            assert x.norm() == pytest.approx(1.0, abs=1e-12)


class TestCStarProperties:
    def test_cstar_identity(self):
        # ||x* x|| = ||x||^2 on 200 seeded elements
        for seed in range(200):
            alg = FiniteCStar((2 + seed % 3,)) if seed % 2 else M23
            x = algebra.random_contraction(alg, seed)
            lhs = (x.adj() * x).norm()
            assert abs(lhs - x.norm() ** 2) < 1e-9

    def test_positivity_under_conjugation(self):
        for seed in range(20):
            x = random_positive_contraction(M23, seed)
            y = algebra.random_contraction(M23, seed + 1000)
            assert is_positive(y.adj() * x * y, 1e-9)

    def test_submultiplicative(self):
        for seed in range(50):
            x = algebra.random_contraction(M23, seed)
            y = algebra.random_contraction(M23, seed + 500)
            assert (x * y).norm() <= x.norm() * y.norm() + 1e-9


class TestSpanningPositiveContractions:
    def test_all_positive_contractions(self):
        for el in algebra.spanning_positive_contractions(M23):
            assert is_positive(el, 1e-12)
            assert el.norm() <= 1 + 1e-12

    def test_spans(self):
        els = algebra.spanning_positive_contractions(M23)
        vecs = np.array(
            [np.concatenate([b.reshape(-1) for b in e.blocks]) for e in els]
        )
        assert np.linalg.matrix_rank(vecs) == M23.dim

    @pytest.mark.parametrize("sizes", [(1,), (2,), (3,), (2, 3), (1, 4, 2), (5,)])
    def test_matches_the_unit_loop_bytewise(self, sizes):
        # the family was built by this triple loop over matrix units
        alg = FiniteCStar(sizes)
        want = []
        for b, size in enumerate(sizes):
            want += [algebra.basis_element(alg, b, i, i) for i in range(size)]
            for i in range(size):
                for j in range(i + 1, size):
                    for phase in (1.0, 1.0j):
                        blk = [np.zeros((s, s)) for s in sizes]
                        v = np.zeros(size, dtype=np.complex128)
                        v[i], v[j] = 1.0, phase
                        blk[b] = np.outer(v, v.conj()) / 2.0
                        want.append(Element(alg, blk))
        got = algebra.spanning_positive_contractions(alg)
        assert len(got) == len(want)
        for x, y in zip(got, want):
            assert [b.tobytes() for b in x.blocks] == [b.tobytes() for b in y.blocks]

    def test_over_the_image_budget_is_bad_range(self):
        # C^162 holds 162 elements of 162^2 entries, over MAX_SIZE^2 = 2048^2
        with pytest.raises(BadRangeError, match="unit-image entries"):
            algebra.spanning_positive_contractions(FiniteCStar((1,) * 162))
