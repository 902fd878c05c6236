import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posmap import linalg
from posmap.errors import (
    BadRangeError,
    NonSquareError,
    NotHermitianError,
    NumericalFailureError,
)

from conftest import ginibre, random_hermitian, random_unitary


def _eigh(h):
    """(eigenvalues, eigenvectors) from the one eigh path, Hermitian-checked at HERM_TOL."""
    _, vals, vecs = linalg._spectrum(h, vectors=True, tol=linalg.HERM_TOL)
    return vals, vecs


class TestEigHermitian:
    """The eigh path that support_projection, pinv_sqrt and pinv_psd share."""

    def test_identity(self):
        vals, _ = _eigh(np.eye(3))
        assert np.allclose(vals, [1, 1, 1])

    def test_diagonal(self):
        vals, _ = _eigh(np.diag([2.0, -1.0]))
        assert np.allclose(vals, [-1, 2])

    def test_known_spectrum_seed7(self):
        # oracle: build H = U D U* from a known spectrum, recover D
        rng = np.random.default_rng(7)
        d = np.array([-2.0, -0.5, 0.0, 1.25, 3.0])
        u = random_unitary(rng, 5)
        h = (u * d) @ u.conj().T
        vals, _ = _eigh(h)
        assert np.max(np.abs(vals - d)) < 1e-9

    def test_rejects_non_square(self):
        with pytest.raises(NonSquareError):
            _eigh(np.zeros((2, 3)))

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            _eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_round_trip_invariant(self):
        # 200 seeded random Hermitian matrices, dims 2..12
        for trial in range(200):
            rng = np.random.default_rng(1000 + trial)
            n = int(rng.integers(2, 13))
            h = random_hermitian(rng, n)
            vals, vecs = _eigh(h)
            scale = max(np.linalg.norm(h, 2), 1e-300)
            assert np.linalg.norm((vecs * vals) @ vecs.conj().T - h, 2) <= 1e-9 * scale
            assert np.linalg.norm(vecs.conj().T @ vecs - np.eye(n)) <= 1e-10 * n

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_spectrum_overflow_is_numerical_failure(self):
        # finite entries: an eigenvalue (2e308) or herm_dev (||h - h*||) overflows
        with pytest.raises(NumericalFailureError):
            linalg.hermitian_kernel(np.full((2, 2), 1e308))
        with pytest.raises(NumericalFailureError):
            linalg.hermitian_kernel(np.array([[0.0, 1.5e308], [-1.5e308, 0.0]]))


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

    def test_stack_matches_each_matrix(self):
        rng = np.random.default_rng(9)
        stack = np.array([ginibre(rng, 4) for _ in range(5)])
        norms = linalg.op_norm(stack)
        assert norms.shape == (5,)
        assert list(norms) == [linalg.op_norm(m) for m in stack]  # bit for bit

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflow_is_numerical_failure(self):
        huge = np.full((2, 2), 1e200)
        with pytest.raises(NumericalFailureError):
            linalg.op_norm(huge @ huge)  # inf entries
        with pytest.raises(NumericalFailureError):
            linalg.op_norm(np.array([[1.5e308, 1.5e308], [0.0, 0.0]]))  # finite, norm overflows


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
    """pinv_sqrt: b^{-1/2} on the support of b."""

    def test_a_equals_b(self):
        # b^{-1/2} b b^{-1/2} is the support projection
        rng = np.random.default_rng(11)
        g = ginibre(rng, 4)
        b = g.conj().T @ g
        b = b / np.linalg.norm(b, 2)
        x = linalg.pinv_sqrt(b)
        p = linalg.support_projection(b)
        assert np.linalg.norm(x @ b @ x - p, 2) < 1e-8

    def test_a_zero(self):
        # the zero matrix has empty support (oz_decompose of the zero map)
        assert np.array_equal(linalg.pinv_sqrt(np.zeros((2, 2))), np.zeros((2, 2)))

    def test_diagonal_case(self):
        # oracle: entrywise b^{-1/2} on the support
        x = linalg.pinv_sqrt(np.diag([1.0, 4.0, 0.0]))
        assert np.allclose(x, np.diag([1.0, 0.5, 0.0]), atol=1e-10)

    def test_defining_properties(self):
        for trial in range(30):
            rng = np.random.default_rng(2000 + trial)
            n = int(rng.integers(2, 8))
            g = ginibre(rng, n)[:, : n - 1]
            b = g @ g.conj().T  # rank n - 1
            b = b / np.linalg.norm(b, 2)
            x = linalg.pinv_sqrt(b)
            p = linalg.support_projection(b)
            assert np.linalg.norm(x - x.conj().T, 2) < 1e-9 * np.linalg.norm(x, 2)
            assert np.linalg.norm(x @ b @ x - p, 2) < 1e-8
            assert np.linalg.norm(p @ x - x, 2) < 1e-9 * np.linalg.norm(x, 2)
            assert np.linalg.norm(b @ x - x @ b, 2) < 1e-9 * np.linalg.norm(x, 2)

    def test_basis_permutation_stability(self):
        # conjugating by a permutation and back changes x negligibly
        b = np.diag([0.5, 0.5, 2.0, 0.0])
        x = linalg.pinv_sqrt(b)
        perm = np.eye(4)[[2, 0, 3, 1]]
        xp = linalg.pinv_sqrt(perm @ b @ perm.T)
        assert np.linalg.norm(perm @ x @ perm.T - xp, 2) <= 1e-8


class TestSupportPinv:
    """pinv_psd: b^{-1} on the support of b."""

    def test_a_equals_b(self):
        b = np.diag([2.0, 1.0, 0.0])
        y = linalg.pinv_psd(b) @ b
        assert np.allclose(y, np.diag([1.0, 1.0, 0.0]), atol=1e-10)

    def test_diagonal_division(self):
        b = np.diag([2.0, 1.0, 0.0])
        a = np.diag([1.0, 1.0, 0.0])
        y = linalg.pinv_psd(b) @ a
        assert np.allclose(y, np.diag([0.5, 1.0, 0.0]), atol=1e-10)
        assert np.linalg.norm(b @ y - a, 2) < 1e-8

    def test_a_zero(self):
        # the zero matrix has empty support (oz_decompose of the zero map)
        assert np.array_equal(linalg.pinv_psd(np.zeros((2, 2))), np.zeros((2, 2)))


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
            _, sv, vh = np.linalg.svd(y)
            abs_y = (vh.conj().T * sv) @ vh  # |y| = (y* y)^{1/2}
            scale = max(np.linalg.norm(y, 2), 1e-300)
            assert np.linalg.norm(u @ abs_y - y, 2) <= 1e-8 * scale


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
    ]
    for call in calls:
        with pytest.raises(BadRangeError):
            call()


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
