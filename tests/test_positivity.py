import dataclasses
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posmap import algebra
from posmap.algebra import Element, FiniteCStar, unit
from posmap.errors import BadRangeError, NumericalFailureError
from posmap.maps import PMap, pmap_norm
from posmap.positivity import (
    CERTIFIED_POSITIVE,
    MAX_RESTARTS,
    UNFALSIFIED,
    VIOLATED,
    Witness,
    is_cp,
    k_positivity_falsify,
    tomiyama_map,
    tomiyama_threshold,
    witness_verify,
)
from posmap.positivity import (
    _MAX_ITERS,
    _bottom_pairs,
    _compress,
    _quadratic_value,
    _seesaw,
    _start_frames,
    _still_moving,
)

from test_maps import trace_map, transpose_map

M2 = FiniteCStar((2,))
M3 = FiniteCStar((3,))


def _haar(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def kraus_map(n, seed, n_kraus=3):
    """a -> sum_r v_r* a v_r, completely positive by construction."""
    rng = np.random.default_rng(seed)
    alg = FiniteCStar((n,))
    vs = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for _ in range(n_kraus)]
    scale = sum(np.linalg.norm(v, 2) ** 2 for v in vs)
    vs = [v / np.sqrt(scale) for v in vs]
    images = []
    for i in range(n):
        for j in range(n):
            e = np.zeros((n, n))
            e[i, j] = 1.0
            images.append(Element(alg, [sum(v.conj().T @ e @ v for v in vs)]))
    return PMap.from_action(alg, alg, images)


def near_threshold_choi(n, k, rng):
    """Trace-mixing Choi block just past threshold(n, k), conjugated by a random
    product unitary, plus a small Hermitian perturbation: restarts run to the cap."""
    thr = tomiyama_threshold(n, k)
    delta = 0.05 * (thr - 1)
    w = np.kron(_haar(rng, n), _haar(rng, n))
    g = rng.standard_normal((n * n, n * n)) + 1j * rng.standard_normal((n * n, n * n))
    h = (g + g.conj().T) / 2
    pert = h * (delta * (k - 1 / n) / 2 / np.linalg.norm(h, 2))
    return w @ tomiyama_map(n, thr + delta).choi_blocks[0] @ w.conj().T + pert


class TestIsCp:
    def test_transpose_not_cp(self):
        assert not is_cp(transpose_map(2))

    def test_kraus_maps_cp(self):
        for seed in range(5):
            assert is_cp(kraus_map(3, seed))

    def test_boundary_psi(self):
        # oracle: Choi eigenvalues lambda/n (mult n^2-1) and lambda/n + n(1-lambda);
        # at n=2, lambda=4/3 the spectrum is {2/3, 0}
        phi = tomiyama_map(2, 4.0 / 3.0)
        vals = np.linalg.eigvalsh(phi.choi_blocks[0])
        assert vals[0] == pytest.approx(0.0, abs=1e-12)
        assert vals[-1] == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert is_cp(phi)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1e-8])
    def test_bad_tolerance_rejected(self, tol):
        # a NaN tolerance made is_cp pass this non-CP map, and a negative one
        # let witness_verify accept a positive value
        phi = tomiyama_map(3, 1.4)
        with pytest.raises(BadRangeError):
            is_cp(phi, tol)
        with pytest.raises(BadRangeError):
            k_positivity_falsify(phi, 2, tol=tol)
        witness = k_positivity_falsify(phi, 2, seed=0).witness
        with pytest.raises(BadRangeError):
            witness_verify(phi, witness, tol)


class TestTomiyamaThreshold:
    def test_values(self):
        assert tomiyama_threshold(3, 1) == pytest.approx(1.5)
        assert tomiyama_threshold(3, 2) == pytest.approx(1.2)
        assert tomiyama_threshold(2, 2) == pytest.approx(4.0 / 3.0)

    def test_bad_range(self):
        with pytest.raises(BadRangeError):
            tomiyama_threshold(3, 0)
        with pytest.raises(BadRangeError):
            tomiyama_threshold(3, 4)
        with pytest.raises(BadRangeError):
            tomiyama_threshold(1, 1)

    def test_cp_boundary_matches_k_equals_n(self):
        # CP threshold 1 + 1/(n^2-1) coincides with the k=n threshold
        for n in (2, 3, 4):
            assert tomiyama_threshold(n, n) == pytest.approx(1 + 1 / (n * n - 1))


class TestTomiyamaMap:
    def test_lambda_zero_is_identity(self):
        phi = tomiyama_map(3, 0.0)
        x = algebra.random_contraction(M3, 4)
        assert (phi(x) - x).norm() < 1e-12

    def test_lambda_one_is_trace(self):
        phi = tomiyama_map(2, 1.0)
        x = algebra.random_contraction(M2, 5)
        expected = trace_map(2)(x)
        assert (phi(x) - expected).norm() < 1e-12

    def test_unital(self):
        for lam in (0.0, 0.7, 1.0, 1.4):
            phi = tomiyama_map(3, lam)
            assert (phi(unit(M3)) - unit(M3)).norm() < 1e-12

    def test_matches_formula(self):
        lam = 1.3
        phi = tomiyama_map(3, lam)
        x = algebra.random_contraction(M3, 6)
        blk = x.blocks[0]
        expected = lam * np.trace(blk) / 3 * np.eye(3) + (1 - lam) * blk
        assert np.max(np.abs(phi(x).blocks[0] - expected)) < 1e-12

    def test_norm_unital(self):
        for lam in (0.3, 1.0, 1.45):
            assert pmap_norm(tomiyama_map(3, lam)) == pytest.approx(1.0)

    @pytest.mark.parametrize("lam", [-0.5, float("nan"), float("inf")])
    def test_bad_lambda_rejected(self, lam):
        # NaN and inf reached the Choi blocks and failed there as a dimension error
        with pytest.raises(BadRangeError):
            tomiyama_map(3, lam)


class TestFalsifier:
    def test_restarts_outside_range_rejected(self):
        # checked before the start frames are allocated; only the first value past the cap is tried
        phi = tomiyama_map(3, 1.4)
        for restarts in (0, MAX_RESTARTS + 1):
            with pytest.raises(BadRangeError, match="restarts"):
                k_positivity_falsify(phi, 2, restarts=restarts)

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_huge_map_is_numerical_failure(self, k):
        # the Hermitian part of 1.5e308 * id overflows; the search ended in a LinAlgError
        with pytest.raises(NumericalFailureError):
            k_positivity_falsify(1.5e308 * PMap.identity(M2), k)

    def test_psi_14_k1_unfalsified(self):
        # 1.4 <= 1.5 = threshold(3,1): positive, nothing to find
        v = k_positivity_falsify(tomiyama_map(3, 1.4), k=1, restarts=32, seed=0)
        assert v.status in (UNFALSIFIED, CERTIFIED_POSITIVE)
        assert v.witness is None
        assert v.best_value > -1e-8

    def test_psi_14_k2_violated(self):
        # oracle: threshold(3,2) = 1.2 < 1.4; optimal value is 2 - 1.4*5/3
        v = k_positivity_falsify(tomiyama_map(3, 1.4), k=2, restarts=32, seed=0)
        assert v.status == VIOLATED
        assert v.witness is not None
        assert v.best_value == pytest.approx(2 - 1.4 * 5 / 3, abs=1e-7)
        assert witness_verify(tomiyama_map(3, 1.4), v.witness)

    def test_cp_map_certified(self):
        for k in (1, 2, 3):
            v = k_positivity_falsify(kraus_map(3, 7), k=k, restarts=4, seed=0)
            assert v.status == CERTIFIED_POSITIVE

    @pytest.mark.parametrize("seed", range(4))
    def test_certified_exactly_when_cp(self, seed):
        # CERTIFIED_POSITIVE comes from the kernels the witness scale was read from
        from conftest import random_map

        rng = np.random.default_rng(seed)
        alg = FiniteCStar((1, 2, 3))
        for phi in (random_map(rng, alg, alg, cp=True), random_map(rng, alg, alg)):
            v = k_positivity_falsify(phi, k=2, restarts=3, seed=seed)
            assert (v.status == CERTIFIED_POSITIVE) == is_cp(phi)
            # the exact path runs on the blocks with n <= k; only the 3-block searches
            assert v.restarts_used == 3

    def test_determinism(self):
        a = k_positivity_falsify(tomiyama_map(3, 1.4), k=2, restarts=8, seed=3)
        b = k_positivity_falsify(tomiyama_map(3, 1.4), k=2, restarts=8, seed=3)
        assert a.best_value == b.best_value
        assert a.status == b.status
        assert np.array_equal(
            np.array(a.witness.factors_left), np.array(b.witness.factors_left)
        )

    def test_batched_restart_matches_solo_run(self):
        # a stopped restart leaves the active set, so the batch never mixes restarts
        n, k = 5, 2
        rng = np.random.default_rng(7)
        g = rng.standard_normal((n * n, n * n)) + 1j * rng.standard_normal((n * n, n * n))
        c = (g + g.conj().T) / 2
        frames = _start_frames(0, 16, n, k)
        values, wmats, _ = _seesaw(c, n, n, k, frames)
        assert len(set(np.round(values, 6))) > 1  # the restarts reach different minima
        for r in range(16):
            solo_values, solo_wmats, _ = _seesaw(c, n, n, k, frames[r : r + 1])
            assert abs(solo_values[0] - values[r]) <= 1e-12
            np.testing.assert_allclose(solo_wmats[0], wmats[r], rtol=0, atol=1e-12)

    def test_distinct_seeds_distinct_searches(self):
        phi = tomiyama_map(4, 1.2)
        a = k_positivity_falsify(phi, k=2, restarts=32, seed=0)
        b = k_positivity_falsify(phi, k=2, restarts=32, seed=1)
        assert a.status == b.status == VIOLATED
        assert witness_verify(phi, a.witness) and witness_verify(phi, b.witness)
        assert not np.allclose(
            np.array(a.witness.factors_left), np.array(b.witness.factors_left)
        )

    def test_converged_restarts_not_capped(self):
        v = k_positivity_falsify(tomiyama_map(3, 1.4), k=2, restarts=32, seed=0)
        assert v.restarts_capped == 0

    def test_near_threshold_restarts_capped(self):
        n, k, restarts = 3, 1, 4
        phi = PMap.from_choi(M3, M3, [near_threshold_choi(n, k, np.random.default_rng(0))])
        v = k_positivity_falsify(phi, k=k, restarts=restarts, seed=0)
        assert v.status == VIOLATED
        assert v.restarts_used == restarts
        assert v.restarts_capped == restarts


def reference_seesaw(c_herm, n, d, k, frames):
    """The see-saw with a full eigh per half-step and frames from the SVD of the
    current vector: the same minimiser and stopping rule as _seesaw."""
    t = c_herm.reshape(n, d, n, d)
    t_left = t.transpose(1, 0, 2, 3).reshape(d, n * n * d)
    t_right = t.transpose(0, 1, 3, 2).reshape(n, d * d * n)
    b_frames = frames.copy()
    wmat = np.empty((len(frames), n, d), dtype=np.complex128)
    prev = np.full(len(frames), np.inf)
    active = np.arange(len(frames))
    for _ in range(_MAX_ITERS):
        b = b_frames[active]
        vals, vecs = np.linalg.eigh(_compress(t_left, b, n))
        stacked = vecs[:, :, 0].reshape(-1, k, n)
        wmat[active] = np.swapaxes(stacked, 1, 2) @ np.swapaxes(b, 1, 2)
        active = _still_moving(prev, active, vals[:, 0])
        if not active.size:
            break
        a = np.linalg.svd(wmat[active], full_matrices=False)[0][:, :, :k]
        vals, vecs = np.linalg.eigh(_compress(t_right, a, d))
        wmat[active] = a @ vecs[:, :, 0].reshape(-1, k, d)
        active = _still_moving(prev, active, vals[:, 0])
        if not active.size:
            break
        vh = np.linalg.svd(wmat[active], full_matrices=False)[2]
        b_frames[active] = np.swapaxes(vh[:, :k, :], 1, 2)
    values = np.array([_quadratic_value(c_herm, w.reshape(-1)) for w in wmat])
    return values, wmat, int(active.size)


def _unconjugated_forms():
    """Compressions of the tomiyama_map(3, 1.4) Choi block: exactly degenerate spectra."""
    c = np.asarray(tomiyama_map(3, 1.4).choi_blocks[0], dtype=complex)
    t = c.reshape(3, 3, 3, 3)
    t_left = t.transpose(1, 0, 2, 3).reshape(3, 27)
    t_right = t.transpose(0, 1, 3, 2).reshape(3, 27)
    forms = []
    for frames in (_start_frames(0, 4, 3, 2), np.eye(3, dtype=complex)[None, :, :2]):
        forms += [_compress(t_left, frames, 3), _compress(t_right, frames, 3)]
    return forms


def _random_hermitian_stack(p, size, seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((6, p, p)) + 1j * rng.standard_normal((6, p, p))
    return size * (g + np.swapaxes(g, 1, 2).conj()) / 2


# (size p, operator-norm scale) of the random stacks
RANDOM_STACKS = [
    (1, 1.0), (2, 1e-6), (5, 1.0), (12, 1e3), (18, 100.0), (30, 1e6), (4, 1e250), (3, 1e-200),
    (3, 1e-310),  # subnormal entries
]
DEGENERATE_STACKS = [
    np.eye(4)[None],
    np.diag([3.0, 3.0, 3.0, 7.0])[None],
    np.diag([-1.0, -1.0, 2.0])[None],
    np.zeros((2, 3, 3)),
]


class TestBottomPairs:
    @pytest.mark.parametrize(
        "m",
        [_random_hermitian_stack(p, size, seed) for seed, (p, size) in enumerate(RANDOM_STACKS)]
        + DEGENERATE_STACKS
        + _unconjugated_forms(),
    )
    def test_matches_eigh(self, m):
        low, v = _bottom_pairs(m)
        vals = np.linalg.eigvalsh(m)
        assert np.array_equal(low, vals[:, 0])
        np.testing.assert_allclose(np.linalg.norm(v, axis=1), 1.0, rtol=0, atol=1e-14)
        # residual of each matrix scaled exactly by a power of two to spectral radius ~1,
        # so that subnormal stacks are not checked in subnormal arithmetic
        scale, e = np.abs(vals).max(axis=1), np.frexp(np.abs(vals).max(axis=1))[1]
        unit_m = np.ldexp(m.real, -e[:, None, None]) + 1j * np.ldexp(m.imag, -e[:, None, None])
        res = (unit_m @ v[:, :, None])[:, :, 0] - np.ldexp(low, -e)[:, None] * v
        assert np.all(np.linalg.norm(res, axis=1) <= 1e-12 * np.ldexp(scale, -e))

    def test_non_finite_is_numerical_failure(self):
        with pytest.raises(NumericalFailureError):
            _bottom_pairs(np.full((1, 3, 3), np.nan))


class TestSeesawReference:
    @pytest.mark.parametrize(
        "n, d, k, seed, near",
        [(5, 5, 2, 7, False), (3, 4, 2, 1, False), (4, 3, 1, 2, False),
         (3, 3, 1, 0, True), (3, 3, 2, 5, True), (4, 4, 2, 6, True)],
    )
    def test_matches_eigh_svd_reference(self, n, d, k, seed, near):
        rng = np.random.default_rng(seed)
        if near:
            c = near_threshold_choi(n, k, rng)
            c = (c + c.conj().T) / 2
        else:
            g = rng.standard_normal((n * d, n * d)) + 1j * rng.standard_normal((n * d, n * d))
            c = (g + g.conj().T) / 2
        frames = _start_frames(seed, 8, d, k)
        values, _, capped = _seesaw(c, n, d, k, frames)
        ref_values, _, ref_capped = reference_seesaw(c, n, d, k, frames)
        np.testing.assert_allclose(values, ref_values, rtol=1e-13, atol=0)
        assert capped == ref_capped
        assert (capped > 0) == near  # the near-threshold blocks reach the iteration cap

    def test_subnormal_block_moves(self):
        # entries of size 1e-310 carry about 44 bits, so agreement is to about 1e-11
        c = 1e-310 * np.asarray(tomiyama_map(3, 1.4).choi_blocks[0], dtype=complex)
        frames = _start_frames(0, 8, 3, 2)
        values, _, capped = _seesaw(c, 3, 3, 2, frames)
        ref_values, _, ref_capped = reference_seesaw(c, 3, 3, 2, frames)
        np.testing.assert_allclose(values, ref_values, rtol=1e-11, atol=0)
        assert capped == ref_capped
        assert values.min() / 1e-310 == pytest.approx(-1 / 3, rel=1e-11)


class TestWitnessVerify:
    def _violated(self):
        phi = tomiyama_map(3, 1.4)
        return phi, k_positivity_falsify(phi, k=2, restarts=16, seed=0).witness

    def test_pipeline_witness_passes(self):
        phi, w = self._violated()
        assert witness_verify(phi, w)

    def test_forged_value_rejected(self):
        phi, w = self._violated()
        forged = dataclasses.replace(w, value=+abs(w.value))
        assert not witness_verify(phi, forged)

    def test_too_many_factors_rejected(self):
        phi, w = self._violated()
        extra = dataclasses.replace(
            w,
            k=w.k,
            factors_left=w.factors_left + (w.factors_left[0],),
            factors_right=w.factors_right + (w.factors_right[0],),
        )
        # three factors against k=2 must be rejected regardless of value
        assert len(extra.factors_left) == w.k + 1
        assert not witness_verify(phi, extra)


class TestHierarchyProperties:
    def test_never_violated_below_threshold(self):
        # soundness on the exact family: no witness exists below the threshold
        for n in (2, 3, 4):
            top = 1 + 1 / (n - 1)
            lams = [round(0.05 * i, 2) for i in range(int(top / 0.05) + 1)]
            for k in range(1, n + 1):
                thr = tomiyama_threshold(n, k)
                for lam in lams:
                    if lam > thr - 0.01:
                        continue
                    v = k_positivity_falsify(
                        tomiyama_map(n, lam), k=k, restarts=32, seed=0
                    )
                    assert v.status != VIOLATED, (n, k, lam, v.best_value)

    def test_exact_at_k_equals_n(self):
        # CP <=> n-positivity for maps on M_n
        for n in (2, 3, 4):
            top = 1 + 1 / (n - 1)
            lams = [round(0.05 * i, 2) for i in range(int(top / 0.05) + 1)]
            for lam in lams:
                phi = tomiyama_map(n, lam)
                v = k_positivity_falsify(phi, k=n, restarts=4, seed=0)
                assert (v.status == VIOLATED) == (not is_cp(phi)), (n, lam)


# -- properties of the falsifier and the witness check ---------------------------

falsifier_cases = settings(max_examples=25, deadline=None)


def random_kraus_map(rng, n, d, n_kraus, size):
    """a -> sum_r v_r a v_r* from M_n to M_d, CP by construction.

    The Choi matrix is sum_r w_r w_r* with w_r[(i, s)] = v_r[s, i], so few
    Kraus operators give a PSD Choi matrix with a large kernel.
    """
    vs = rng.standard_normal((n_kraus, d, n)) + 1j * rng.standard_normal((n_kraus, d, n))
    w = np.swapaxes(vs, 1, 2).reshape(n_kraus, n * d) * size
    return PMap.from_choi(FiniteCStar((n,)), FiniteCStar((d,)), [w.T @ w.conj()])


@falsifier_cases
@given(
    st.integers(2, 4),
    st.integers(2, 4),
    st.integers(1, 3),
    st.integers(1, 4),
    st.sampled_from([1e-3, 1.0, 1e3]),
    st.integers(0, 2**32 - 1),
)
def test_cp_map_never_violated(n, d, n_kraus, k, size, seed):
    phi = random_kraus_map(np.random.default_rng(seed), n, d, n_kraus, size)
    assert is_cp(phi)
    verdict = k_positivity_falsify(phi, k, restarts=4, seed=seed)
    assert verdict.status != VIOLATED
    assert verdict.witness is None


def entangled_witness(n, k, lam, seed):
    """(U (x) conj U) applied to the rank-k maximally entangled vector.

    The trace-mixing Choi matrix lam/n 1 + (1 - lam)|Omega><Omega| is
    invariant under U (x) conj U, so the value is lam/n + (1 - lam) k.
    """
    u = _haar(np.random.default_rng(seed), n)
    left = tuple(u[:, r] / np.sqrt(k) for r in range(k))
    right = tuple(u[:, r].conj() for r in range(k))
    value = lam / n + (1 - lam) * k
    return Witness(k=k, factors_left=left, factors_right=right, value=value, vector_norm=1.0)


witness_params = st.integers(2, 4).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(1, n), st.integers(0, 2**32 - 1))
)


@falsifier_cases
@given(witness_params, st.sampled_from([-1.0, 1.0]), st.floats(1e-7, 1e-2))
def test_forged_witness_rejected(params, sign, size):
    n, k, seed = params
    lam = tomiyama_threshold(n, k) + 0.5
    phi = tomiyama_map(n, lam)
    w = entangled_witness(n, k, lam, seed)
    assert witness_verify(phi, w)  # the genuine witness passes
    assert not witness_verify(phi, dataclasses.replace(w, value=w.value * (1 + sign * size)))
    stretched = tuple(a * (1 + sign * size) for a in w.factors_left)
    assert not witness_verify(phi, dataclasses.replace(w, factors_left=stretched))
    zero = np.zeros(n, dtype=complex)
    padded = dataclasses.replace(
        w, factors_left=w.factors_left + (zero,), factors_right=w.factors_right + (zero,)
    )
    assert not witness_verify(phi, padded)  # the same vector, but k + 1 factors
    if k > 1:
        assert not witness_verify(phi, dataclasses.replace(w, k=k - 1))
