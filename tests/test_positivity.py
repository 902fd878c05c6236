import dataclasses
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posmap import algebra, family, positivity
from posmap.algebra import Element, FiniteCStar, unit
from posmap.errors import BadRangeError, DimensionMismatchError, NumericalFailureError
from posmap.linalg import TOL_FLOOR, hermitian_kernel
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
    _BETA_CUT,
    _BETA_GROW,
    _FTOL,
    _MAX_ITERS,
    _bottom_pairs,
    _compress,
    _quadratic_value,
    _seesaw,
    _start_frames,
    _still_moving,
)

from conftest import ginibre
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


def boundary_choi_map(rng, tol):
    """A map on M_3 with Choi matrix U diag(lambda) U*, lambda_min placed on -tol * scale."""
    u = _haar(rng, 9)
    lam = rng.uniform(0.1, 1.0, 9)
    lam[0] = -tol * hermitian_kernel((u * lam) @ u.conj().T).scale
    c = (u * lam) @ u.conj().T
    return PMap.from_choi(M3, M3, [(c + c.conj().T) / 2])


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

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1e-8, True, None, "1e-8"])
    def test_bad_tolerance_rejected(self, tol):
        # a NaN tolerance made is_cp pass this non-CP map, and a negative one
        # let witness_verify accept a positive value; True was read as 1.0
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

    def test_above_image_budget_rejected(self):
        # n = 46 is the first n past the budget: 46^4 > MAX_SIZE^2 entries. Unchecked,
        # n = 200 built a 25.6 GB stack and n = 10^6 ended in numpy's MemoryError
        with pytest.raises(BadRangeError, match="unit-image entries"):
            tomiyama_map(46, 1.0)


def _reference_tomiyama_stack(n, lam):
    """The unit-image stack of the former second psi_lambda formula, kept as the reference."""
    stack = algebra.unit_stack(FiniteCStar((n,)))
    stack[stack != 0] = 1.0 - lam  # assigned, not scaled: 1 - lam < 0 would sign the zeros
    stack[:: n + 1] += (lam / n) * np.eye(n)  # the diagonal units e_ii
    return stack


# every threshold 1 + 1/(nk - 1), and plain points on both sides of them
TRACE_MIXING_GRID = [
    (n, lam)
    for n in (2, 3, 4, 6, 12)
    for lam in sorted({0.0, 0.5, 1.0, 1.4, 2.0} | {1 + 1 / (n * k - 1) for k in range(1, n + 1)})
] + [(45, 1.02)]


class TestOneTraceMixingFormula:
    @pytest.mark.parametrize("n, lam", TRACE_MIXING_GRID)
    def test_tomiyama_map_is_the_applier_on_the_units(self, n, lam):
        # bytewise: the corner family's applier and the former formula differed in the last
        # bit at some (n, lam), and (1 - lam) * a would write -0.0 where lam > 1
        got = tomiyama_map(n, lam).transfer.tobytes()
        assert got == _reference_tomiyama_stack(n, lam).tobytes()
        units = algebra.unit_stack(FiniteCStar((n,)))
        assert got == family.trace_mixing_apply(units, lam).tobytes()

    def test_family_uses_the_one_applier(self):
        assert family.trace_mixing_apply is positivity.trace_mixing_apply


class TestTolFloor:
    def test_identity_is_cp_at_the_floor(self):
        # the identity's rank-one Choi matrix read not CP at tol = 0 for n = 3, 4 and 8
        assert is_cp(PMap.identity(FiniteCStar((3,))), TOL_FLOOR)

    @pytest.mark.parametrize("tol", [0.0, 1e-300, TOL_FLOOR / 2])
    def test_below_the_floor_rejected(self, tol):
        phi = PMap.identity(FiniteCStar((3,)))
        with pytest.raises(BadRangeError, match="tolerance"):
            is_cp(phi, tol)
        with pytest.raises(BadRangeError, match="tolerance"):
            k_positivity_falsify(phi, 2, tol=tol)


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

    def test_certified_exactly_when_cp_at_the_psd_boundary(self):
        # CERTIFIED_POSITIVE came from eigh on the exact path and is_cp from eigvalsh; with
        # lambda_min on -tol * scale they disagreed: check-kpos certified what check-cp refused
        rng = np.random.default_rng(1)
        statuses = []
        for _ in range(100):
            phi = boundary_choi_map(rng, positivity.DEFAULT_TOL)
            v = k_positivity_falsify(phi, k=3)
            statuses.append(v.status)
            if v.status != VIOLATED:
                assert (v.status == CERTIFIED_POSITIVE) == is_cp(phi)
        assert {CERTIFIED_POSITIVE, UNFALSIFIED} <= set(statuses)

    def test_search_path_certified_exactly_when_cp_at_the_psd_boundary(self):
        # a searched block decides CERTIFIED_POSITIVE from its own eigvalsh kernel, as is_cp does
        rng = np.random.default_rng(2)
        statuses = []
        for _ in range(30):
            phi = boundary_choi_map(rng, positivity.DEFAULT_TOL)
            v = k_positivity_falsify(phi, k=2, restarts=2)
            statuses.append(v.status)
            if v.status != VIOLATED:
                assert (v.status == CERTIFIED_POSITIVE) == is_cp(phi)
        assert {CERTIFIED_POSITIVE, UNFALSIFIED} <= set(statuses)

    def test_search_path_reads_each_block_once(self, monkeypatch):
        # the search's own kernel decides CERTIFIED_POSITIVE: no is_cp pass after it
        shapes, eigvalsh = [], np.linalg.eigvalsh

        def counted(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        v = k_positivity_falsify(tomiyama_map(3, 1.15), 2)  # 2-positive, not CP
        assert v.status == UNFALSIFIED
        assert shapes.count((9, 9)) == 1  # 2 when the falsifier ended in is_cp

    def test_exact_path_reads_each_block_once(self, monkeypatch):
        # the kernel pass gives the bottom eigenvector; the second call is witness_verify's
        shapes = []
        for name in ("eigh", "eigvalsh"):
            fn = getattr(np.linalg, name)

            def counted(a, *args, _fn=fn, **kwargs):
                shapes.append(np.shape(a))
                return _fn(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        v = k_positivity_falsify(tomiyama_map(4, 1.1), 4)
        assert v.status == VIOLATED
        assert v.restarts_used == 0
        assert shapes.count((16, 16)) == 2
        assert not hasattr(positivity, "_falsify_block")

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

    def test_near_threshold_restarts_capped(self, monkeypatch):
        n, k, restarts = 3, 1, 4
        phi = PMap.from_choi(M3, M3, [near_threshold_choi(n, k, np.random.default_rng(0))])
        # the extrapolated see-saw converges on this map; at the plain see-saw's pace a
        # budget of 5 iterations stops every restart while it is still moving
        assert k_positivity_falsify(phi, k=k, restarts=restarts, seed=0).restarts_capped == 0
        monkeypatch.setattr(positivity, "_MAX_ITERS", 5)
        v = k_positivity_falsify(phi, k=k, restarts=restarts, seed=0)
        assert v.status == VIOLATED
        assert v.restarts_used == restarts
        assert v.restarts_capped == restarts


def reference_seesaw(c_herm, n, d, k, frames):
    """The plain see-saw, without extrapolation, with a full eigh per half-step and
    frames from the SVD of the current vector: _seesaw's minimiser and stopping rule."""
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


def reference_extrapolated_seesaw(c_herm, n, d, k, frames):
    """The extrapolated see-saw one restart at a time, with a full eigh per half-step
    and every frame from an SVD: the same rule, budget and stopping rule as _seesaw."""
    t = c_herm.reshape(n, d, n, d)
    t_left = t.transpose(1, 0, 2, 3).reshape(d, n * n * d)
    t_right = t.transpose(0, 1, 3, 2).reshape(n, d * d * n)

    def side0(b):  # b: (d, k) frame of the right factors
        vals, vecs = np.linalg.eigh(_compress(t_left, b[None], n))
        return vals[0, 0], vecs[0, :, 0].reshape(k, n).T @ b.T

    def side1(a):  # a: (n, k) frame of the left factors
        vals, vecs = np.linalg.eigh(_compress(t_right, a[None], d))
        return vals[0, 0], a @ vecs[0, :, 0].reshape(k, d)

    budget = 2 * _MAX_ITERS
    values, wmats, capped = [], [], 0
    for b in frames:
        value, beta, spent = np.inf, 1.0, 0
        w = w_full = w_prev = None  # now, after the last full step, after the one before
        while True:
            v = None
            if w_prev is not None:
                phase = np.exp(1j * np.angle(np.vdot(w_prev, w_full)))
                v, x = side0(np.linalg.svd(w_full + beta * (w_full - phase * w_prev))[2][:k].T)
                spent += 1
                beta *= _BETA_GROW if v < value else _BETA_CUT
                v = v if v < value else None
            if v is None and spent < budget:
                v, x = side0(b if w is None else np.linalg.svd(w)[2][:k].T)
                spent += 1
            if v is not None:
                moving, value, w = not value - v < _FTOL, v, x
            if moving and spent < budget:
                v, w = side1(np.linalg.svd(w)[0][:, :k])
                spent += 1
                moving, value = not value - v < _FTOL, v
            if not moving or spent == budget:
                capped += moving
                break
            w_prev, w_full = w_full, w
        values.append(_quadratic_value(c_herm, w.reshape(-1)))
        wmats.append(w)
    return np.array(values), np.array(wmats), capped


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
        # the plain see-saw: every restart ends at least as low with extrapolation
        ref_values, _, ref_capped = reference_seesaw(c, n, d, k, frames)
        assert np.all(values <= ref_values + 1e-12 * max(1.0, np.linalg.norm(c, 2)))
        assert (ref_capped > 0) == near  # the near-threshold blocks reach the plain cap
        assert capped == 0
        ext_values, _, ext_capped = reference_extrapolated_seesaw(c, n, d, k, frames)
        np.testing.assert_allclose(values, ext_values, rtol=1e-13, atol=0)
        assert capped == ext_capped

    def test_subnormal_block_moves(self):
        # entries of size 1e-310 carry about 44 bits, so agreement is to about 1e-11
        c = 1e-310 * np.asarray(tomiyama_map(3, 1.4).choi_blocks[0], dtype=complex)
        frames = _start_frames(0, 8, 3, 2)
        values, _, capped = _seesaw(c, 3, 3, 2, frames)
        ref_values, _, ref_capped = reference_seesaw(c, 3, 3, 2, frames)
        np.testing.assert_allclose(values, ref_values, rtol=1e-11, atol=0)
        assert capped == ref_capped
        assert values.min() / 1e-310 == pytest.approx(-1 / 3, rel=1e-11)


NEAR_INPUTS = [(3, 1, 0), (3, 2, 5), (4, 2, 6)]  # (n, k, seed) of the near-threshold references


def _near_block(n, k, seed):
    c = near_threshold_choi(n, k, np.random.default_rng(seed))
    return (c + c.conj().T) / 2


def _count_rows(monkeypatch, name):
    """Count the matrices passed in stacks (3-D arrays) to np.linalg.<name>."""
    rows = [0]
    fn = getattr(np.linalg, name)

    def counted(a, *args, **kwargs):
        if np.ndim(a) == 3:
            rows[0] += len(a)
        return fn(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, counted)
    return rows


class TestSeesawBudget:
    @pytest.mark.parametrize("max_iters", [5, 40, _MAX_ITERS])
    def test_search_within_budget(self, monkeypatch, max_iters):
        # a restart spends at most 2 * _MAX_ITERS half-step eigensolves, rejected trials
        # included, and a capped restart has spent them all
        monkeypatch.setattr(positivity, "_MAX_ITERS", max_iters)
        rows = _count_rows(monkeypatch, "eigvalsh")
        rng = np.random.default_rng(3)
        restarts = 6
        for n, k in ((3, 1), (3, 2), (4, 2)):
            alg = FiniteCStar((n,))
            g = rng.standard_normal((n * n, n * n)) + 1j * rng.standard_normal((n * n, n * n))
            for choi in (near_threshold_choi(n, k, rng), (g + g.conj().T) / 2):
                rows[0] = 0
                v = k_positivity_falsify(PMap.from_choi(alg, alg, [choi]), k, restarts, seed=1)
                assert v.restarts_capped * 2 * max_iters <= rows[0] <= restarts * 2 * max_iters

    @pytest.mark.parametrize("n, k, seed", NEAR_INPUTS)
    def test_near_inputs_halve_the_eigensolves(self, monkeypatch, n, k, seed):
        # the plain see-saw runs (nearly) every restart of these blocks to the cap
        c, frames = _near_block(n, k, seed), _start_frames(seed, 8, n, k)
        plain = _count_rows(monkeypatch, "eigh")
        reference_seesaw(c, n, n, k, frames)
        rows = _count_rows(monkeypatch, "eigvalsh")
        _seesaw(c, n, n, k, frames)
        assert rows[0] <= plain[0] / 2

    @pytest.mark.parametrize("n, k, seed", NEAR_INPUTS + [(5, 2, 7)])
    def test_accepted_values_never_increase(self, monkeypatch, n, k, seed):
        # each restart alone, so every value _still_moving sees is that restart's
        if (n, k, seed) in NEAR_INPUTS:
            c = _near_block(n, k, seed)
        else:
            c = _random_hermitian_stack(n * n, 1.0, seed)[0]
        frames = _start_frames(seed, 8, n, k)
        seen = []
        still_moving = positivity._still_moving

        def recording(prev, active, value):
            seen.append(value.copy())
            return still_moving(prev, active, value)

        monkeypatch.setattr(positivity, "_still_moving", recording)
        for r in range(len(frames)):
            seen.clear()
            _seesaw(c, n, n, k, frames[r : r + 1])
            accepted = np.concatenate(seen)
            assert len(accepted) > 2 and np.all(np.diff(accepted) <= 0), r


    @pytest.mark.parametrize("n, lam, k", [(4, 1.1, 2), (5, 1.2, 3)])
    def test_restarts_sliced_to_the_working_budget(self, monkeypatch, n, lam, k):
        # one call held restarts * k n d max(n, d) entries: 61.2 GiB at n = 45, k = 44 and
        # 1024 restarts. A budget of 8^2 entries leaves one restart per call, and the
        # restarts are independent, so the verdict is the same to the bit.
        phi = tomiyama_map(n, lam)
        whole = k_positivity_falsify(phi, k, restarts=8)
        frames_per_call = []
        seesaw = positivity._seesaw

        def recording(c_herm, n, d, k, frames):
            frames_per_call.append(len(frames))
            return seesaw(c_herm, n, d, k, frames)

        monkeypatch.setattr(positivity, "_seesaw", recording)
        monkeypatch.setattr(positivity, "MAX_SIZE", 8, raising=False)
        sliced = k_positivity_falsify(phi, k, restarts=8)
        assert frames_per_call == [1] * 8
        assert (sliced.status, sliced.best_value, sliced.restarts_used, sliced.restarts_capped) == (
            whole.status, whole.best_value, whole.restarts_used, whole.restarts_capped
        )
        assert (sliced.witness is None) == (whole.witness is None)
        if whole.witness is not None:
            for f in dataclasses.fields(Witness):
                a, b = getattr(sliced.witness, f.name), getattr(whole.witness, f.name)
                if f.name.startswith("factors"):
                    assert len(a) == len(b) and all(map(np.array_equal, a, b))
                else:
                    assert a == b


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

    @pytest.mark.parametrize("left, right", [(0, 0), (2, 1), (1, 2)])  # empty, unequal
    def test_bad_factor_list_rejected(self, left, right):
        phi, w = self._violated()
        assert len(w.factors_left) == len(w.factors_right) == 2  # Schmidt rank k = 2 on M_3
        bad = dataclasses.replace(
            w, factors_left=w.factors_left[:left], factors_right=w.factors_right[:right]
        )
        assert not witness_verify(phi, bad)

    @pytest.mark.parametrize("block", [1, -1])
    def test_block_out_of_range_raises(self, block):
        phi, w = self._violated()
        with pytest.raises(DimensionMismatchError, match=f"witness block {block} out of range"):
            witness_verify(phi, dataclasses.replace(w, block=block))

    def test_factor_shape_raises(self):
        phi, w = self._violated()
        short = tuple(a[:2] for a in w.factors_left)
        with pytest.raises(DimensionMismatchError, match="witness factor dimensions"):
            witness_verify(phi, dataclasses.replace(w, factors_left=short))


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


# -- VIOLATED against each Choi block's own scale ------------------------------------

_BELL = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2)  # (e0 (x) e0 + e1 (x) e1) / sqrt(2)


class TestBlockScale:
    def test_small_block_violation_beside_a_large_block(self):
        # a 1000 * 1 block beside a block just below CP: the violation was compared
        # with the large block's scale and reported UNFALSIFIED at -1e-6
        small = np.eye(4) - (1 + 1e-6) * np.outer(_BELL, _BELL)
        phi = PMap.from_choi(FiniteCStar((1, 2)), M2, [1000 * np.eye(2), small])
        assert not is_cp(phi)
        v = k_positivity_falsify(phi, 2)
        assert v.status == VIOLATED
        assert v.witness.block == 1
        assert witness_verify(phi, v.witness)
        assert v.best_value == v.witness.value == pytest.approx(-1e-6, rel=1e-6)
        alone = k_positivity_falsify(PMap.from_choi(M2, M2, [small]), 2)
        assert alone.status == VIOLATED and alone.best_value == v.best_value

    def test_best_value_is_the_block_minimum_when_not_violated(self):
        # block 0's value -1e-9 is inside its own tolerance; block 1 is the identity
        tiny = np.eye(2) - (1 + 1e-9) * np.outer([1.0, 0.0], [1.0, 0.0])
        phi = PMap.from_choi(FiniteCStar((1, 1)), M2, [tiny, np.eye(2)])
        v = k_positivity_falsify(phi, 1)
        assert v.status == CERTIFIED_POSITIVE
        assert v.best_value == pytest.approx(-1e-9, rel=1e-6)

    @pytest.mark.parametrize("seed", range(40))
    def test_violated_iff_not_cp_on_multi_block_maps(self, seed):
        # self-adjoint maps whose Choi blocks have minimum +-0.1 of their own size, at
        # sizes 1e-4 to 1e4, so every block is far from the PSD boundary at its own scale;
        # k >= min(n_i, D) makes every block exact
        rng = np.random.default_rng(seed)
        source = FiniteCStar(tuple(rng.integers(1, 4, size=rng.integers(1, 4))))
        target = FiniteCStar(tuple(rng.integers(1, 4, size=rng.integers(1, 3))))
        d = target.embed_dim
        owner = np.repeat(np.arange(target.n_blocks), target.block_sizes)
        inside = owner[:, None] == owner[None, :]
        blocks = []
        for n in source.block_sizes:
            g = ginibre(rng, n * d)
            h = (g + g.conj().T).reshape(n, d, n, d)
            h = (h * inside[None, :, None, :]).reshape(n * d, n * d)
            h = h / np.linalg.norm(h, 2)
            low = np.linalg.eigvalsh(h)[0]
            shift = rng.choice([-0.1, 0.1]) - low
            blocks.append(rng.choice([1e-4, 1.0, 1e4]) * (h + shift * np.eye(n * d)))
        phi = PMap.from_choi(source, target, blocks)
        assert phi.is_selfadjoint(1e-9)
        k = max(min(n, d) for n in source.block_sizes) + int(rng.integers(0, 2))
        v = k_positivity_falsify(phi, k, restarts=2, seed=seed)
        assert (v.status == VIOLATED) == (not is_cp(phi)), (source, target, v.best_value)
        if v.status == VIOLATED:
            assert witness_verify(phi, v.witness)
            assert v.best_value == v.witness.value < 0


# -- the generalized Choi maps: a second exact oracle ---------------------------------


def generalized_choi_map(a: float, b: float, c: float) -> PMap:
    """Phi[a,b,c](X) = D(X) - X on M_3, D(X) = diag(a x11 + b x22 + c x33,
    c x11 + a x22 + b x33, b x11 + c x22 + a x33); Choi's map is Phi[2,0,1]."""
    weights = np.array([[a, b, c], [c, a, b], [b, c, a]])  # D(X)_kk = sum_i weights[k, i] x_ii
    images = -algebra.unit_stack(M3)
    for i in range(3):
        images[4 * i] += np.diag(weights[:, i])  # unit e_ii is row 3i + i
    return PMap(M3, M3, images)


def generalized_choi_positive(a: float, b: float, c: float) -> bool:
    """The positivity region of Cho, Kye and Lee (1992) for b, c >= 0, decided exactly."""
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    return a >= 1 and a + b + c >= 3 and (not 1 <= a <= 2 or b * c >= (2 - a) ** 2)


def _generalized_choi_points():
    points = []
    for a, b in [(1.2, 2.0), (1.5, 1.5), (1.8, 1.5), (1.0, 2.5)]:  # across bc = (2 - a)^2
        c_star = (2 - a) ** 2 / b
        points += [(a, b, c_star * (1 - delta)) for delta in (1e-2, 1e-3, 1e-4)]
        points += [(a, b, c_star * (1 + delta)) for delta in (1e-4, 1e-2)]
    for delta in (1e-2, 1e-3, 1e-4):
        points += [(1 + delta, 2.0, 2.0), (1 - delta, 2.0, 2.0)]  # across a = 1
        points += [(2.5, 0.25 + delta, 0.25), (2.5, 0.25 - delta, 0.25)]  # across a + b + c = 3
    return points


class TestGeneralizedChoiOracle:
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("a, b, c", _generalized_choi_points())
    def test_positive_iff_in_the_region(self, a, b, c, seed):
        phi = generalized_choi_map(a, b, c)
        assert not is_cp(phi)  # a < 3 on every point
        v = k_positivity_falsify(phi, 1, seed=seed)
        want = UNFALSIFIED if generalized_choi_positive(a, b, c) else VIOLATED
        assert v.status == want, (a, b, c, v.best_value)

    def test_the_oracle_region(self):
        assert generalized_choi_positive(2, 0, 1)  # Choi's map
        assert generalized_choi_positive(1, 1, 1)
        assert not generalized_choi_positive(1.5, 0.5, 0.49)
        assert generalized_choi_positive(3, 0, 0)

    def test_choi_map_positive_but_not_2_positive(self):
        phi = generalized_choi_map(2.0, 0.0, 1.0)
        assert k_positivity_falsify(phi, 1).status == UNFALSIFIED
        v = k_positivity_falsify(phi, 2)
        assert v.status == VIOLATED and witness_verify(phi, v.witness)
