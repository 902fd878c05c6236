import dataclasses
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from posmap import algebra
from posmap.algebra import FiniteCStar, matrix_units, unit, unit_stack
from posmap.errors import BadRangeError
from posmap.family import (
    MAX_SIZE,
    _mixing_parameter_fraction,
    composed_mixing_parameter,
    corner_embed_apply,
    corner_mixture_apply,
    corner_mixture_map,
    partial_trace_first_apply,
    trace_mixing_apply,
    verify_corner_family,
)
from posmap.linalg import op_norm
from posmap.maps import PMap
from posmap.positivity import (
    CERTIFIED_POSITIVE,
    MAX_RESTARTS,
    UNFALSIFIED,
    VIOLATED,
    _threshold,
    is_cp,
    k_positivity_falsify,
    tomiyama_map,
)


def _kron_formula(x, n, m, lam, eps):
    """The corner mixture as first written: np.kron pads eye(m) to the stack's rank."""
    return (1.0 - eps) * x + eps * np.kron(np.eye(m), trace_mixing_apply(x[..., :n, :n], lam))


class TestCornerMixtureMap:
    def test_lambda_zero_formula(self):
        # psi_0 = id: phi(x) = (1-eps) x + eps 1_m (x) corner(x), entrywise on units
        n, m, eps = 2, 2, 0.3
        alg = FiniteCStar((m * n,))
        phi = corner_mixture_map(n, m, 0.0, eps)
        for e in matrix_units(alg):
            blk = e.blocks[0]
            expected = (1 - eps) * blk + eps * np.kron(np.eye(m), blk[:n, :n])
            assert np.max(np.abs(phi(e).blocks[0] - expected)) < 1e-12

    def test_non_finite_lambda_named(self):
        # corner_mixture_apply returned NaN; corner_mixture_map blamed the Choi block
        with pytest.raises(BadRangeError, match="lambda"):
            corner_mixture_apply(np.eye(6), 3, 2, float("nan"), 0.1)
        with pytest.raises(BadRangeError, match="lambda"):
            corner_mixture_map(3, 1, float("inf"), 0.5)

    def test_unital(self):
        phi = corner_mixture_map(3, 2, 1.4, 0.05)
        alg = FiniteCStar((6,))
        assert (phi(unit(alg)) - unit(alg)).norm() < 1e-12

    def test_m_equals_one(self):
        # phi = (1-eps) id + eps psi_lambda on M_n
        n, lam, eps = 3, 1.4, 0.1
        phi = corner_mixture_map(n, 1, lam, eps)
        alg = FiniteCStar((n,))
        psi = tomiyama_map(n, lam)
        x = algebra.random_contraction(alg, 3)
        expected = (1 - eps) * x + eps * psi(x)
        assert (phi(x) - expected).norm() < 1e-12

    def test_matches_formula_applier(self):
        n, m, lam, eps = 2, 3, 1.3, 0.2
        phi = corner_mixture_map(n, m, lam, eps)
        alg = FiniteCStar((m * n,))
        x = algebra.random_contraction(alg, 4)
        direct = corner_mixture_apply(x.blocks[0], n, m, lam, eps)
        assert np.max(np.abs(phi(x).blocks[0] - direct)) < 1e-12

    def test_bad_range(self):
        with pytest.raises(BadRangeError):
            corner_mixture_map(1, 2, 1.0, 0.1)
        with pytest.raises(BadRangeError):
            corner_mixture_map(2, 2, 1.0, 0.0)

    def test_above_image_budget_rejected(self):
        # m n = 46 is within MAX_SIZE, but its unit-image stack is not
        assert MAX_SIZE is algebra.MAX_SIZE
        with pytest.raises(BadRangeError, match="unit-image entries"):
            corner_mixture_map(2, 23, 1.0, 0.1)

    @pytest.mark.parametrize("lead", [(), (4,), (2, 3)])
    def test_apply_bit_identical_to_kron(self, lead):
        # the in-place block-diagonal add does the kron formula's operations, entry by entry
        n, m, lam, eps = 3, 4, 1.4, 0.05
        rng = np.random.default_rng(7)
        x = algebra._ginibre(rng, lead + (m * n, m * n))
        before = x.copy()
        out = corner_mixture_apply(x, n, m, lam, eps)
        assert out.shape == x.shape
        assert np.array_equal(out, _kron_formula(x, n, m, lam, eps))
        assert np.array_equal(x, before)


def _as_pmap(apply, source, target):
    """The map that apply computes on dense matrices, built from its matrix-unit images."""
    return PMap(source, target, apply(unit_stack(source)))


class TestPartialTraceFirst:
    def test_m_one_identity(self):
        x = algebra.random_contraction(FiniteCStar((3,)), 5).blocks[0]
        assert op_norm(partial_trace_first_apply(x, 1, 3) - x) < 1e-12

    def test_is_cp(self):
        phi = _as_pmap(
            lambda xs: partial_trace_first_apply(xs, 2, 3), FiniteCStar((6,)), FiniteCStar((3,))
        )
        assert is_cp(phi)

    def test_unital(self):
        assert op_norm(partial_trace_first_apply(np.eye(6), 2, 3) - np.eye(3)) < 1e-12

    def test_product_units(self):
        # Phi(e^{(m)}_{ab} (x) e^{(n)}_{kl}) = (delta_ab / m) e_{kl}
        m, n = 2, 2
        for a in range(m):
            for b in range(m):
                for k in range(n):
                    for l in range(n):
                        em = np.zeros((m, m))
                        em[a, b] = 1.0
                        en = np.zeros((n, n))
                        en[k, l] = 1.0
                        out = partial_trace_first_apply(np.kron(em, en), m, n)
                        expected = (1.0 if a == b else 0.0) / m * en
                        assert np.max(np.abs(out - expected)) < 1e-12


class TestCornerEmbedding:
    def test_corner_position(self):
        e = algebra.basis_element(FiniteCStar((2,)), 0, 0, 1)
        big = corner_embed_apply(e.blocks[0], 3)
        assert big.shape == (6, 6)
        assert big[0, 1] == 1.0
        assert np.count_nonzero(big) == 1

    def test_embeds_isometrically(self):
        x = algebra.random_contraction(FiniteCStar((3,)), 6)
        assert op_norm(corner_embed_apply(x.blocks[0], 2)) == pytest.approx(x.norm(), abs=1e-12)

    def test_is_cp(self):
        phi = _as_pmap(
            lambda xs: corner_embed_apply(xs, 2), FiniteCStar((3,)), FiniteCStar((6,))
        )
        assert is_cp(phi)


class TestMixingParameter:
    def test_formula_value(self):
        # oracle: 10 * 0.1 * 1.4 / (0.9 + 1.0) = 1.4 / 1.9
        assert composed_mixing_parameter(10, 0.1, 1.4) == pytest.approx(
            1.4 / 1.9, abs=1e-15
        )

    def test_limit_large_m(self):
        # exact gap is 1.4 * 0.9 / (0.9 + 10**5) ~ 1.26e-5, shrinking like 1/m
        assert abs(composed_mixing_parameter(10**6, 0.1, 1.4) - 1.4) < 1.3e-5
        assert abs(composed_mixing_parameter(10**7, 0.1, 1.4) - 1.4) < 1.3e-6

    def test_eps_near_one(self):
        assert composed_mixing_parameter(7, 1 - 1e-9, 1.4) == pytest.approx(
            1.4, abs=1e-8
        )

    def test_monotone_in_m(self):
        prev = 0.0
        for m in range(1, 40):
            cur = composed_mixing_parameter(m, 0.07, 1.3)
            assert cur > prev
            prev = cur

    def test_bad_range(self):
        with pytest.raises(BadRangeError):
            composed_mixing_parameter(0, 0.1, 1.4)
        with pytest.raises(BadRangeError):
            composed_mixing_parameter(2, 0.1, -1.0)

    @pytest.mark.parametrize("lam", [float("nan"), float("inf")])
    def test_non_finite_lambda_rejected(self, lam):
        # Fraction(lam) raised ValueError (nan) or OverflowError (inf)
        with pytest.raises(BadRangeError):
            composed_mixing_parameter(2, 0.1, lam)


class TestVerifyCornerFamily:
    def test_window_enforced(self):
        # lambda = 1.4 needs 1/5 < 0.4 <= 1/2 at (n=3, k=1): ok
        # lambda = 1.1 fails the lower end
        with pytest.raises(BadRangeError):
            verify_corner_family(3, 2, 1, 1.1, 0.05, samples=1)

    @pytest.mark.parametrize("lam", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_lambda_rejected(self, lam):
        with pytest.raises(BadRangeError):
            verify_corner_family(3, 2, 1, lam, 0.05, samples=1)

    def test_size_above_bound_rejected(self):
        # m n = 2049, one above MAX_SIZE: rejected before anything is drawn
        assert 683 * 3 == MAX_SIZE + 1
        with pytest.raises(BadRangeError, match="m \\* n"):
            verify_corner_family(3, 683, 1, 1.4, 0.05, samples=1)

    @pytest.mark.parametrize("restarts", [0, MAX_RESTARTS + 1])
    def test_restarts_outside_range_rejected(self, restarts):
        # at m = 20 no falsifier runs, so the falsifier's own check never saw restarts = 0
        with pytest.raises(BadRangeError, match="restarts"):
            verify_corner_family(3, 20, 1, 1.4, 0.05, samples=1, restarts=restarts)

    def test_zero_samples_rejected(self):
        # a check run on no samples is not a pass: samples=0 reported all_ok=True
        with pytest.raises(BadRangeError, match="samples"):
            verify_corner_family(3, 2, 1, 1.4, 0.05, samples=0)

    def test_small_m_flag_false(self):
        # oracle arithmetic: lambda~ = 0.05*1.4/1.0 = 0.07 <= 1.2
        rep = verify_corner_family(3, 1, 1, 1.4, 0.05, seed=0, samples=20)
        assert rep.mixing_parameter == pytest.approx(0.07, abs=1e-12)
        assert not rep.exceeds_next_threshold
        assert rep.falsifier is None
        assert rep.closed_form_ok
        assert rep.defect_ok

    def test_m4_passes_defect_bound(self):
        # oracle bound: 6 * 0.05 = 0.3
        rep = verify_corner_family(3, 4, 1, 1.4, 0.05, seed=0, samples=200)
        assert rep.defect_bound == pytest.approx(0.3)
        assert rep.defect_max < 0.3
        assert rep.closed_form_ok

    def test_large_m_flag_true_with_witness(self):
        rep = verify_corner_family(3, 200, 1, 1.4, 0.05, seed=0, samples=5)
        # oracle arithmetic: lambda~ = 200*0.05*1.4 / (0.95 + 10) = 14/10.95
        assert rep.mixing_parameter == pytest.approx(14.0 / 10.95, abs=1e-12)
        assert rep.exceeds_next_threshold
        assert rep.falsifier is not None
        assert rep.falsifier.status == VIOLATED
        assert rep.closed_form_ok

    def test_image_budget_enforced(self):
        # the compressed map's n^4 unit-image entries: n = 46 allocated 14.6 TiB after the samples
        assert 45**4 <= MAX_SIZE**2 < 46**4
        with pytest.raises(BadRangeError, match="unit-image entries"):
            verify_corner_family(46, 1, 1, 1.02, 0.05, samples=1)
        rep = verify_corner_family(45, 1, 1, 1.02, 0.05, samples=1)
        assert rep.closed_form_ok

    def test_sample_loop_holds_three_matrices(self):
        # the loop kept seven (mn)^2 matrices alive at its peak, four of them temporaries
        n, m = 3, 100
        matrix_bytes = (m * n) ** 2 * 16
        tracemalloc.start()
        try:
            verify_corner_family(n, m, 1, 1.4, 0.05, samples=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * matrix_bytes, peak / matrix_bytes

    @pytest.mark.parametrize("m", [1, 4, 50])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_report_bit_identical_to_reference_loop(self, m, seed):
        # every float of the report, against the out-of-place loop and kron formula
        n, k, lam, eps, samples = 3, 1, 1.4, 0.05, 4
        rep = verify_corner_family(n, m, k, lam, eps, seed=seed, samples=samples)
        rng = np.random.default_rng(seed)
        defect_max = 0.0
        for _ in range(samples):
            g = algebra._ginibre(rng, (m * n, m * n))
            x = g / op_norm(g)
            fx = _kron_formula(x, n, m, lam, eps)
            fxx = _kron_formula(x @ x, n, m, lam, eps)
            defect_max = max(defect_max, op_norm(fx @ fx - fxx))
        lam_tilde_f = _mixing_parameter_fraction(m, Fraction(eps), Fraction(lam))
        prefactor = float(Fraction(eps) * Fraction(lam) / lam_tilde_f)
        closed_form_dev = 0.0
        for blk in unit_stack(FiniteCStar((n,))):
            composed = partial_trace_first_apply(
                _kron_formula(corner_embed_apply(blk, m), n, m, lam, eps), m, n
            )
            expected = prefactor * trace_mixing_apply(blk, float(lam_tilde_f))
            closed_form_dev = max(closed_form_dev, op_norm(composed - expected))
        reference = {
            "lam": lam,
            "eps": eps,
            "defect_max": defect_max,
            "defect_bound": 6.0 * eps,
            "closed_form_dev": closed_form_dev,
            "mixing_parameter": float(lam_tilde_f),
            "next_threshold": float(_threshold(n, k + 1)),
        }
        floats = {
            f.name: getattr(rep, f.name)
            for f in dataclasses.fields(rep)
            if isinstance(getattr(rep, f.name), float)
        }
        assert floats.keys() == reference.keys()
        assert {key: v.hex() for key, v in floats.items()} == {
            key: v.hex() for key, v in reference.items()
        }
        assert rep.falsifier is None  # lambda~ <= 1.2 for m <= 50

    def test_closed_form_tight(self):
        # 3x3 grid of in-window parameter points
        for m in (2, 5, 9):
            for lam, eps in ((1.45, 0.03), (1.35, 0.1), (1.21, 0.25)):
                rep = verify_corner_family(3, m, 1, lam, eps, seed=1, samples=5)
                assert rep.closed_form_dev < 1e-10, (m, lam, eps)


class TestFamilyKPositivity:
    @pytest.mark.parametrize(
        "n,k",
        [(2, 1), (3, 1), (3, 2)],
    )
    def test_in_window_maps_stay_k_positive(self, n, k):
        # falsifier finds nothing at level k for in-window lambda, m <= 3
        lam = 1.0 + 1.0 / (n * k - 1) - 1e-6  # just inside the window top
        for m in (1, 2, 3):
            phi = corner_mixture_map(n, m, lam, 0.1)
            v = k_positivity_falsify(phi, k, restarts=32, seed=0)
            assert v.status in (UNFALSIFIED, CERTIFIED_POSITIVE), (n, k, m, v.best_value)
