import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posmap import linalg
from posmap.errors import (
    BadRangeError,
    DominanceViolatedError,
    NonSquareError,
    NotCommutingError,
    NotHermitianError,
)

from conftest import ginibre, random_hermitian, random_unitary


class TestEigHermitian:
    def test_identity(self):
        dec = linalg.eig_hermitian(np.eye(3))
        assert np.allclose(dec.eigenvalues, [1, 1, 1])

    def test_diagonal(self):
        dec = linalg.eig_hermitian(np.diag([2.0, -1.0]))
        assert np.allclose(dec.eigenvalues, [-1, 2])

    def test_known_spectrum_seed7(self):
        # oracle: build H = U D U* from a known spectrum, recover D
        rng = np.random.default_rng(7)
        d = np.array([-2.0, -0.5, 0.0, 1.25, 3.0])
        u = random_unitary(rng, 5)
        h = (u * d) @ u.conj().T
        dec = linalg.eig_hermitian(h)
        assert np.max(np.abs(dec.eigenvalues - d)) < 1e-9

    def test_rejects_non_square(self):
        with pytest.raises(NonSquareError):
            linalg.eig_hermitian(np.zeros((2, 3)))

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            linalg.eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_round_trip_invariant(self):
        # 200 seeded random Hermitian matrices, dims 2..12
        for trial in range(200):
            rng = np.random.default_rng(1000 + trial)
            n = int(rng.integers(2, 13))
            h = random_hermitian(rng, n)
            dec = linalg.eig_hermitian(h)
            scale = max(np.linalg.norm(h, 2), 1e-300)
            assert np.linalg.norm(dec.reconstruct() - h, 2) <= 1e-9 * scale
            assert (
                np.linalg.norm(dec.basis.conj().T @ dec.basis - np.eye(n)) <= 1e-10 * n
            )


class TestOpNorm:
    def test_identity(self):
        assert linalg.op_norm(np.eye(4)) == pytest.approx(1.0)

    def test_diagonal(self):
        assert linalg.op_norm(np.diag([3.0, -4.0])) == pytest.approx(4.0)

    def test_rank_one(self):
        # oracle: ||u v*|| = ||u|| ||v||
        rng = np.random.default_rng(3)
        u = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        u = 2.0 * u / np.linalg.norm(u)
        v = 2.0 * v / np.linalg.norm(v)
        assert linalg.op_norm(np.outer(u, v.conj())) == pytest.approx(4.0, abs=1e-10)

    def test_unitary_invariance(self):
        rng = np.random.default_rng(5)
        m = ginibre(rng, 5)
        u = random_unitary(rng, 5)
        w = random_unitary(rng, 5)
        ref = linalg.op_norm(m)
        assert abs(linalg.op_norm(m.conj().T) - ref) < 1e-10
        assert abs(linalg.op_norm(u @ m @ w) - ref) < 1e-10


class TestPsdMinEig:
    def test_identity(self):
        assert linalg.psd_min_eig(np.eye(3)) == pytest.approx(1.0)

    def test_diag_with_zero(self):
        assert linalg.psd_min_eig(np.diag([0.0, 5.0])) == pytest.approx(0.0, abs=1e-12)

    def test_swap_operator(self):
        # oracle: SWAP on C2 (x) C2 has eigenvalues (+1)^3, (-1) on the singlet
        swap = np.zeros((4, 4))
        for i in range(2):
            for j in range(2):
                swap[i * 2 + j, j * 2 + i] = 1.0
        assert linalg.psd_min_eig(swap) == pytest.approx(-1.0, abs=1e-12)


class TestSupportPinvSqrt:
    def test_a_equals_b(self):
        rng = np.random.default_rng(11)
        g = ginibre(rng, 4)
        b = g.conj().T @ g
        b = b / np.linalg.norm(b, 2)
        x = linalg.support_pinv_sqrt(b, b)
        p = linalg.support_projection(b)
        assert np.linalg.norm(x - p, 2) < 1e-8

    def test_a_zero(self):
        b = np.diag([1.0, 2.0])
        x = linalg.support_pinv_sqrt(b, np.zeros((2, 2)))
        assert np.linalg.norm(x, 2) < 1e-12

    def test_diagonal_case(self):
        # oracle: entrywise b^{-1/2} a^{1/2} on the support
        b = np.diag([1.0, 4.0, 0.0])
        a = np.diag([1.0, 1.0, 0.0])
        x = linalg.support_pinv_sqrt(b, a)
        assert np.allclose(x, np.diag([1.0, 0.5, 0.0]), atol=1e-10)

    def test_defining_properties(self):
        for trial in range(30):
            rng = np.random.default_rng(2000 + trial)
            n = int(rng.integers(2, 8))
            g = ginibre(rng, n)
            b = g.conj().T @ g
            b = b / np.linalg.norm(b, 2)
            # a = c* b c scaled into [0, b]: use a = b^{1/2} s b^{1/2} with 0 <= s <= 1
            s = random_hermitian(rng, n)
            s = s @ s.conj().T
            s = s / np.linalg.norm(s, 2)
            rb = linalg.psd_sqrt(b)
            a = rb @ s @ rb
            x = linalg.support_pinv_sqrt(b, a)
            assert np.linalg.norm(rb @ x - linalg.psd_sqrt(a), 2) <= 1e-8 * max(
                1.0, np.sqrt(np.linalg.norm(b, 2))
            )
            p = linalg.support_projection(b)
            assert np.linalg.norm(p @ x - x, 2) < 1e-9
            assert np.linalg.norm(x, 2) <= 1 + 1e-8

    def test_dominance_violated(self):
        with pytest.raises(DominanceViolatedError):
            linalg.support_pinv_sqrt(np.eye(2), 2.0 * np.eye(2))

    def test_basis_permutation_stability(self):
        # uniqueness: conjugating by a permutation and back changes x negligibly
        b = np.diag([0.5, 0.5, 2.0, 0.0])
        a = np.diag([0.25, 0.25, 1.0, 0.0])
        x = linalg.support_pinv_sqrt(b, a)
        perm = np.eye(4)[[2, 0, 3, 1]]
        xp = linalg.support_pinv_sqrt(perm @ b @ perm.T, perm @ a @ perm.T)
        assert np.linalg.norm(perm @ x @ perm.T - xp, 2) <= 1e-8


class TestSupportPinv:
    def test_a_equals_b(self):
        b = np.diag([2.0, 1.0, 0.0])
        y = linalg.support_pinv(b, b)
        assert np.allclose(y, np.diag([1.0, 1.0, 0.0]), atol=1e-10)

    def test_diagonal_division(self):
        b = np.diag([2.0, 1.0, 0.0])
        a = np.diag([1.0, 1.0, 0.0])
        y = linalg.support_pinv(b, a)
        assert np.allclose(y, np.diag([0.5, 1.0, 0.0]), atol=1e-10)
        assert np.linalg.norm(b @ y - a, 2) < 1e-8

    def test_a_zero(self):
        y = linalg.support_pinv(np.diag([1.0, 0.0]), np.zeros((2, 2)))
        assert np.linalg.norm(y, 2) < 1e-12

    def test_not_commuting(self):
        b = np.diag([2.0, 1.0])
        a = np.array([[1.0, 0.5], [0.5, 1.0]])
        with pytest.raises(NotCommutingError):
            linalg.support_pinv(b, a)


class TestPolarUnitary:
    def test_unitary_input(self):
        rng = np.random.default_rng(21)
        u = random_unitary(rng, 4)
        assert np.linalg.norm(linalg.polar_unitary(u) - u, 2) < 1e-10

    def test_zero_matrix(self):
        assert np.allclose(linalg.polar_unitary(np.zeros((3, 3))), np.eye(3))

    def test_diagonal_signs(self):
        u = linalg.polar_unitary(np.diag([2.0, -3.0]))
        assert np.allclose(u, np.diag([1.0, -1.0]), atol=1e-12)

    def test_polar_invariants(self):
        # 100 seeded random matrices: U unitary and U |y| = y
        for trial in range(100):
            rng = np.random.default_rng(3000 + trial)
            n = int(rng.integers(2, 9))
            y = ginibre(rng, n)
            if trial % 5 == 0:
                y[:, 0] = 0  # exercise singular input
            u = linalg.polar_unitary(y)
            assert np.linalg.norm(u.conj().T @ u - np.eye(n), 2) < 1e-9
            scale = max(np.linalg.norm(y, 2), 1e-300)
            assert np.linalg.norm(u @ linalg.abs_polar(y) - y, 2) <= 1e-8 * scale


# -- the Hermitian/PSD kernel ------------------------------------------------------

kernel_cases = settings(max_examples=60, deadline=None)
spectra = st.lists(
    st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False), min_size=1, max_size=12
)


@kernel_cases
@given(spectra, st.integers(0, 2**32 - 1))
def test_kernel_matches_known_spectrum(d, seed):
    d = np.array(d)
    u = random_unitary(np.random.default_rng(seed), len(d))
    kernel = linalg.hermitian_kernel((u * d) @ u.conj().T)
    scale = max(1.0, np.max(np.abs(d)))
    noise = 1e-13 * len(d) * scale
    assert abs(kernel.scale - scale) <= noise
    assert abs(kernel.min_eig - d.min()) <= noise
    assert kernel.herm_dev <= noise  # U diag(d) U* is Hermitian up to rounding
    if d.min() >= -1e-9 * scale + noise:
        assert kernel.psd(1e-9)
    if d.min() < -1e-9 * scale - noise:
        assert not kernel.psd(1e-9)


@kernel_cases
@given(
    st.integers(1, 10),
    st.integers(0, 2**32 - 1),
    st.floats(1e-10, 1e-3),
    st.floats(1.01, 10.0),
)
def test_kernel_rejects_hermitian_deviation_above_tol(n, seed, tol, factor):
    rng = np.random.default_rng(seed)
    g = ginibre(rng, n)
    p = linalg.hermitian_part(g @ g.conj().T) + np.eye(n)  # PSD with margin 1
    a = ginibre(rng, n)
    k = a - a.conj().T  # anti-Hermitian: p + c k has Hermitian part p, ||h - h*||_F = 2|c| ||k||_F
    unit_dev = k / (2 * np.linalg.norm(k))
    scale = linalg.hermitian_kernel(p).scale
    h_bad = p + (factor * tol * scale) * unit_dev
    h_ok = p + (tol * scale / factor) * unit_dev
    assert not linalg.hermitian_kernel(h_bad).hermitian(tol)
    assert not linalg.is_psd(h_bad, tol)
    assert linalg.hermitian_kernel(h_ok).hermitian(tol)
    assert linalg.is_psd(h_ok, tol)


def test_kernel_deviation_is_frobenius():
    # ||h - h*||_F = 2 for e_01; its operator norm is 1
    kernel = linalg.hermitian_kernel(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert kernel.herm_dev == pytest.approx(np.sqrt(2.0))
    assert kernel.min_eig == pytest.approx(-0.5)
    assert kernel.scale == 1.0


def test_psd_min_eig_uses_kernel_scale():
    # ||h - h*||_F = 3e-10 sqrt(2): within 1e-10 at scale 1000, not at scale 1
    for top, hermitian in ((1000.0, True), (1.0, False)):
        h = np.diag([top, -1.0]).astype(complex)
        h[0, 1] = 3e-10
        if hermitian:
            assert linalg.psd_min_eig(h) == pytest.approx(-1.0)
        else:
            with pytest.raises(NotHermitianError):
                linalg.psd_min_eig(h)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1e-10])
def test_bad_tolerance_or_cutoff_rejected(bad):
    b = np.diag([1.0, 0.5, 0.0])
    calls = [
        lambda: linalg.is_psd(b, bad),
        lambda: linalg.psd_min_eig(b, bad),
        lambda: linalg.eig_hermitian(b, bad),
        lambda: linalg.support_projection(b, bad),
        lambda: linalg.pinv_sqrt(b, bad),
        lambda: linalg.pinv_psd(b, bad),
        lambda: linalg.support_pinv_sqrt(b, b, bad),
        lambda: linalg.support_pinv(b, b, bad),
    ]
    for call in calls:
        with pytest.raises(BadRangeError):
            call()


def _loop_phases(basis):
    """Reference: column by column, the largest-modulus entry made real >= 0."""
    out = basis.copy()
    for c in range(out.shape[1]):
        pivot = out[np.argmax(np.abs(out[:, c])), c]
        if abs(pivot) > 0:
            out[:, c] = out[:, c] * (pivot.conjugate() / abs(pivot))
    return out


def test_canonical_phases_match_loop_reference():
    # same arithmetic; numpy's strided and contiguous complex loops may round differently
    rng = np.random.default_rng(17)
    for trial in range(50):
        n = int(rng.integers(1, 10))
        basis = ginibre(rng, n)
        if trial % 5 == 0:
            basis[:, 0] = 0
        got = linalg._canonical_phases(basis)
        atol = 4e-16 * np.abs(basis).max()
        np.testing.assert_allclose(got, _loop_phases(basis), rtol=0, atol=atol)
        pivots = got[np.argmax(np.abs(got), axis=0), np.arange(n)]
        assert np.all(np.abs(pivots.imag) <= 1e-15 * np.abs(pivots)) and np.all(pivots.real >= 0)


@pytest.mark.parametrize(
    "fn,apply",
    [
        (lambda v: 1.0 / np.sqrt(v), linalg.pinv_sqrt),
        (lambda v: 1.0 / v, linalg.pinv_psd),
        (lambda v: 1.0, linalg.support_projection),
    ],
)
def test_spectral_apply_matches_loop_reference(fn, apply):
    rng = np.random.default_rng(19)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        g = ginibre(rng, n)[:, : n - 1]
        b = linalg.hermitian_part(g @ g.conj().T)  # rank n - 1
        vals, vecs = np.linalg.eigh(b)
        thresh = 1e-10 * np.max(np.abs(vals))
        mapped = np.array([fn(v) if v > thresh else 0.0 for v in vals])
        assert np.array_equal(apply(b), (vecs * mapped) @ vecs.conj().T)
