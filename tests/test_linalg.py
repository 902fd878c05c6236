import inspect
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import posmap
from posmap import linalg
from posmap.errors import (
    BadRangeError,
    NonSquareError,
    NotHermitianError,
    NumericalFailureError,
)

from conftest import ginibre, random_hermitian, random_unitary

# the eigenvalue functions of the support projection, the pseudo-inverse and its square root
ONE, INV, INV_SQRT = np.ones_like, (lambda v: 1.0 / v), (lambda v: 1.0 / np.sqrt(v))


def _eigh(h):
    """(eigenvalues, eigenvectors) from the one eigh path, Hermitian-checked at HERM_TOL."""
    _, vals, vecs = linalg._spectrum(h, vectors=True, tol=linalg.HERM_TOL)
    return vals, vecs


class TestEigHermitian:
    """The eigh path of spectral_apply."""

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
    """spectral_apply(b, INV_SQRT): b^{-1/2} on the support of b."""

    def test_a_equals_b(self):
        # b^{-1/2} b b^{-1/2} is the support projection
        rng = np.random.default_rng(11)
        g = ginibre(rng, 4)
        b = g.conj().T @ g
        b = b / np.linalg.norm(b, 2)
        x, p = linalg.spectral_apply(b, INV_SQRT, ONE)
        assert np.linalg.norm(x @ b @ x - p, 2) < 1e-8

    def test_a_zero(self):
        # the zero matrix has empty support (oz_decompose of the zero map)
        [x] = linalg.spectral_apply(np.zeros((2, 2)), INV_SQRT)
        assert np.array_equal(x, np.zeros((2, 2)))

    def test_diagonal_case(self):
        # oracle: entrywise b^{-1/2} on the support
        [x] = linalg.spectral_apply(np.diag([1.0, 4.0, 0.0]), INV_SQRT)
        assert np.allclose(x, np.diag([1.0, 0.5, 0.0]), atol=1e-10)

    def test_defining_properties(self):
        for trial in range(30):
            rng = np.random.default_rng(2000 + trial)
            n = int(rng.integers(2, 8))
            g = ginibre(rng, n)[:, : n - 1]
            b = g @ g.conj().T  # rank n - 1
            b = b / np.linalg.norm(b, 2)
            x, p = linalg.spectral_apply(b, INV_SQRT, ONE)
            assert np.linalg.norm(x - x.conj().T, 2) < 1e-9 * np.linalg.norm(x, 2)
            assert np.linalg.norm(x @ b @ x - p, 2) < 1e-8
            assert np.linalg.norm(p @ x - x, 2) < 1e-9 * np.linalg.norm(x, 2)
            assert np.linalg.norm(b @ x - x @ b, 2) < 1e-9 * np.linalg.norm(x, 2)

    def test_basis_permutation_stability(self):
        # conjugating by a permutation and back changes x negligibly
        b = np.diag([0.5, 0.5, 2.0, 0.0])
        [x] = linalg.spectral_apply(b, INV_SQRT)
        perm = np.eye(4)[[2, 0, 3, 1]]
        [xp] = linalg.spectral_apply(perm @ b @ perm.T, INV_SQRT)
        assert np.linalg.norm(perm @ x @ perm.T - xp, 2) <= 1e-8


class TestSupportPinv:
    """spectral_apply(b, INV): b^{-1} on the support of b."""

    def test_a_equals_b(self):
        b = np.diag([2.0, 1.0, 0.0])
        y = linalg.spectral_apply(b, INV)[0] @ b
        assert np.allclose(y, np.diag([1.0, 1.0, 0.0]), atol=1e-10)

    def test_diagonal_division(self):
        b = np.diag([2.0, 1.0, 0.0])
        a = np.diag([1.0, 1.0, 0.0])
        y = linalg.spectral_apply(b, INV)[0] @ a
        assert np.allclose(y, np.diag([0.5, 1.0, 0.0]), atol=1e-10)
        assert np.linalg.norm(b @ y - a, 2) < 1e-8

    def test_a_zero(self):
        # the zero matrix has empty support (oz_decompose of the zero map)
        [y] = linalg.spectral_apply(np.zeros((2, 2)), INV)
        assert np.array_equal(y, np.zeros((2, 2)))


class TestPolarUnitary:
    def test_unitary_input(self):
        rng = np.random.default_rng(21)
        u = random_unitary(rng, 4)
        assert np.linalg.norm(linalg.polar_unitary(u) - u, 2) < 1e-10

    def test_zero_matrix(self):
        assert np.allclose(linalg.polar_unitary(np.zeros((3, 3))), np.eye(3))

    def test_empty_matrix(self):
        u = linalg.polar_unitary(np.zeros((0, 0)))
        assert u.shape == (0, 0) and u.dtype == np.complex128

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
    assert not linalg.hermitian_kernel(h_bad).psd(tol)
    assert linalg.hermitian_kernel(h_ok).hermitian(tol)
    assert linalg.hermitian_kernel(h_ok).psd(tol)


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
        lambda: linalg.hermitian_kernel(b).psd(bad),
        lambda: linalg.psd_min_eig(b, bad),
    ]
    for call in calls:
        with pytest.raises(BadRangeError):
            call()


def test_tolerance_floor():
    linalg.check_tol(linalg.TOL_FLOOR)
    for tol in (0.0, 1e-300, linalg.TOL_FLOOR * (1 - 1e-15)):
        with pytest.raises(BadRangeError, match="finite tolerance >= 1e-12"):
            linalg.check_tol(tol)


def _tol_defaults():
    """Every default of a parameter named tol on the library surface, and the named defaults."""
    fns = [getattr(posmap, name) for name in posmap.__all__]
    fns += [m for m in vars(posmap.PMap).values() if inspect.isfunction(m)]
    fns += [f for f in vars(linalg).values() if inspect.isfunction(f)]
    out = {
        f"{fn.__qualname__}(tol=)": p.default
        for fn in fns if callable(fn) and not isinstance(fn, type)
        for name, p in inspect.signature(fn).parameters.items()
        if name == "tol" and isinstance(p.default, float)  # tol=None means no check
    }
    for name in ("HERM_TOL", "PSD_TOL"):
        out[name] = getattr(linalg, name)
    out["DEFAULT_TOL"] = posmap.positivity.DEFAULT_TOL
    out["WITNESS_TOL"] = posmap.positivity.WITNESS_TOL
    return out


def test_every_default_tolerance_is_above_the_floor():
    defaults = _tol_defaults()
    assert len(defaults) >= 8
    for where, tol in defaults.items():
        assert tol > linalg.TOL_FLOOR, where


NEGATIVE_SEED_CALLS = {
    "order_zero_defect": lambda: posmap.order_zero_defect(posmap.tomiyama_map(3, 1.2), 5, -1),
    "k_positivity_falsify": lambda: posmap.k_positivity_falsify(
        posmap.tomiyama_map(3, 1.2), 2, seed=-1
    ),
    "verify_corner_family": lambda: posmap.verify_corner_family(3, 2, 1, 1.4, 0.05, seed=-1),
    "verify_certificate": lambda: posmap.verify_certificate(
        posmap.identity_certificate(posmap.FiniteCStar((2,))), seed=-1
    ),
    "orderzero_certificate": lambda: posmap.orderzero_certificate(
        posmap.FiniteCStar((2,)), [0.5, 0.5], seed=-1
    ),
    "random_contraction": lambda: posmap.random_contraction(posmap.FiniteCStar((2, 1)), -3),
    "random_positive_contraction": lambda: posmap.random_positive_contraction(
        posmap.FiniteCStar((2, 1)), -1
    ),
}


@pytest.mark.parametrize("entry", sorted(NEGATIVE_SEED_CALLS))
def test_negative_seed_is_bad_range(entry):
    # numpy's generators reject a negative seed with a bare ValueError
    with pytest.raises(BadRangeError, match="need a seed >= 0, got -"):
        NEGATIVE_SEED_CALLS[entry]()


_PSI = posmap.tomiyama_map(3, 1.1)
_M2, _M3 = posmap.FiniteCStar((2,)), posmap.FiniteCStar((3,))
_ALWAYS = lambda v: True  # a site whose only range test is check_count's own

# each count argument of the public API: (call with the count v, does v pass the site's
# compound range test); a value that passes it must be refused as a non-integer
COUNT_CALLS = {
    "k_positivity_falsify.k": (lambda v: posmap.k_positivity_falsify(_PSI, v), _ALWAYS),
    "k_positivity_falsify.restarts": (
        lambda v: posmap.k_positivity_falsify(_PSI, 2, restarts=v), _ALWAYS
    ),
    "k_positivity_falsify.seed": (lambda v: posmap.k_positivity_falsify(_PSI, 2, seed=v), _ALWAYS),
    "tomiyama_map.n": (lambda v: posmap.tomiyama_map(v, 1.1), _ALWAYS),
    "tomiyama_threshold.n": (
        lambda v: posmap.tomiyama_threshold(v, 2), lambda v: 2 <= v and 2 * v >= 2
    ),
    "tomiyama_threshold.k": (
        lambda v: posmap.tomiyama_threshold(3, v), lambda v: 1 <= v <= 3 and 3 * v >= 2
    ),
    "random_contraction.seed": (lambda v: posmap.random_contraction(_M2, v), _ALWAYS),
    "random_positive_contraction.seed": (
        lambda v: posmap.random_positive_contraction(_M2, v), _ALWAYS
    ),
    "basis_element.block": (
        lambda v: posmap.algebra.basis_element(posmap.FiniteCStar((2, 2, 2)), v, 0, 0),
        lambda v: 0 <= v < 3,
    ),
    "basis_element.i": (lambda v: posmap.algebra.basis_element(_M3, 0, v, 0), lambda v: v < 3),
    "basis_element.j": (lambda v: posmap.algebra.basis_element(_M3, 0, 0, v), lambda v: v < 3),
    "order_zero_defect.samples": (lambda v: posmap.order_zero_defect(_PSI, v, 0), _ALWAYS),
    "order_zero_defect.seed": (lambda v: posmap.order_zero_defect(_PSI, 5, v), _ALWAYS),
    "lemma31_positive_check.d": (
        lambda v: posmap.lemma31_positive_check(0.1 * np.eye(4), v, 0.5), _ALWAYS
    ),
    "lemma31_unitary_check.d": (lambda v: posmap.lemma31_unitary_check(np.eye(4), v, 0.5), _ALWAYS),
    "corner_mixture_apply.n": (
        lambda v: posmap.family.corner_mixture_apply(np.eye(6), v, 2, 1.4, 0.05), _ALWAYS
    ),
    "corner_mixture_apply.m": (
        lambda v: posmap.family.corner_mixture_apply(np.eye(6), 3, v, 1.4, 0.05), _ALWAYS
    ),
    "corner_mixture_map.n": (lambda v: posmap.corner_mixture_map(v, 2, 1.4, 0.05), _ALWAYS),
    "corner_mixture_map.m": (lambda v: posmap.corner_mixture_map(3, v, 1.4, 0.05), _ALWAYS),
    "composed_mixing_parameter.m": (
        lambda v: posmap.composed_mixing_parameter(v, 0.05, 1.1), _ALWAYS
    ),
    "verify_corner_family.n": (
        lambda v: posmap.verify_corner_family(v, 2, 1, 1.3, 0.05), _ALWAYS
    ),
    "verify_corner_family.m": (
        lambda v: posmap.verify_corner_family(3, v, 1, 1.3, 0.05), _ALWAYS
    ),
    "verify_corner_family.k": (
        lambda v: posmap.verify_corner_family(3, 2, v, 1.3, 0.05), lambda v: 1 <= v < 3
    ),
    "verify_corner_family.samples": (
        lambda v: posmap.verify_corner_family(3, 2, 1, 1.3, 0.05, samples=v), _ALWAYS
    ),
    "verify_corner_family.seed": (
        lambda v: posmap.verify_corner_family(3, 2, 1, 1.3, 0.05, seed=v), _ALWAYS
    ),
    "verify_corner_family.restarts": (
        lambda v: posmap.verify_corner_family(3, 2, 1, 1.3, 0.05, restarts=v), _ALWAYS
    ),
    "verify_certificate.seed": (
        lambda v: posmap.verify_certificate(posmap.identity_certificate(_M2), seed=v), _ALWAYS
    ),
    "verify_certificate.restarts": (
        lambda v: posmap.verify_certificate(posmap.identity_certificate(_M2), restarts=v), _ALWAYS
    ),
    "verify_certificate.samples": (
        lambda v: posmap.verify_certificate(posmap.identity_certificate(_M2), samples=v), _ALWAYS
    ),
    "orderzero_certificate.seed": (
        lambda v: posmap.orderzero_certificate(_M2, [0.5, 0.5], seed=v), _ALWAYS
    ),
}


@pytest.mark.parametrize("value", [2.5, 2.0, True], ids=["2.5", "2.0", "True"])
@pytest.mark.parametrize("entry", sorted(COUNT_CALLS))
def test_non_integer_count_is_bad_range(entry, value):
    call, passes_range = COUNT_CALLS[entry]
    with pytest.raises(BadRangeError) as info:
        call(value)
    if passes_range(value):
        assert "must be an integer" in str(info.value)


@pytest.mark.parametrize(
    "value,hi,message",
    [
        (np.float64(2.0), None, "k must be an integer, got "),
        (np.bool_(True), None, "k must be an integer, got "),
        (None, None, "k must be an integer, got None"),
        ("2", None, "k must be an integer, got '2'"),
        (0, None, "need k >= 1, got 0"),
        (np.int64(0), None, "need k >= 1, got 0"),
        (0, 4, "need 1 <= k <= 4, got 0"),
        (5, 4, "need 1 <= k <= 4, got 5"),
    ],
)
def test_check_count_messages(value, hi, message):
    with pytest.raises(BadRangeError, match=re.escape(message)):
        linalg.check_count("k", value, 1, hi)


def test_check_count_accepts_python_and_numpy_integers():
    for value in (1, 4, np.int64(2), np.uint8(4), np.int32(1)):
        linalg.check_count("k", value, 1, 4)


def _same_fields(a, b):
    """Dataclass reports field by field, with arrays (also in tuples) compared exactly."""
    assert type(a) is type(b)
    for name in a.__dataclass_fields__:
        x, y = getattr(a, name), getattr(b, name)
        if hasattr(x, "__dataclass_fields__"):
            _same_fields(x, y)
        elif isinstance(x, tuple):
            assert len(x) == len(y) and all(map(np.array_equal, x, y)), name
        else:
            assert np.array_equal(x, y), name


def test_numpy_integer_counts_match_int_counts():
    phi = posmap.tomiyama_map(3, 1.3)  # above the 2-threshold 1.2: a witness to compare
    as_int = posmap.k_positivity_falsify(phi, 2, restarts=4, seed=3)
    as_np = posmap.k_positivity_falsify(phi, np.int64(2), restarts=np.int32(4), seed=np.int64(3))
    assert as_int.status == posmap.VIOLATED
    _same_fields(as_int, as_np)
    _same_fields(
        posmap.order_zero_defect(phi, 7, 2),
        posmap.order_zero_defect(phi, np.int64(7), np.uint8(2)),
    )


def _rank_deficient_psd(seed):
    """20 seeded PSD matrices of rank n - 1, n in 2..8."""
    rng = np.random.default_rng(seed)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        g = ginibre(rng, n)[:, : n - 1]
        yield linalg.hermitian_part(g @ g.conj().T)


@pytest.mark.parametrize(
    "ref,fn",
    [(lambda v: 1.0 / np.sqrt(v), INV_SQRT), (lambda v: 1.0 / v, INV), (lambda v: 1.0, ONE)],
    ids=["inv_sqrt", "inv", "support"],
)
def test_spectral_apply_matches_loop_reference(ref, fn):
    for b in _rank_deficient_psd(19):
        vals, vecs = np.linalg.eigh(b)
        thresh = 1e-10 * np.max(np.abs(vals))
        mapped = np.array([ref(v) if v > thresh else 0.0 for v in vals])
        assert np.array_equal(linalg.spectral_apply(b, fn)[0], (vecs * mapped) @ vecs.conj().T)


def test_spectral_apply_many_matches_one_at_a_time():
    # oz_decompose takes h^+ and the support of h from one call, bit for bit as from two
    for b in _rank_deficient_psd(23):
        inverse, support = linalg.spectral_apply(b, INV, ONE)
        assert np.array_equal(inverse, linalg.spectral_apply(b, INV)[0])
        assert np.array_equal(support, linalg.spectral_apply(b, ONE)[0])


def test_spectral_apply_rejects_non_hermitian():
    # the Hermitian test at HERM_TOL comes before any eigenvalue function
    with pytest.raises(NotHermitianError):
        linalg.spectral_apply(np.array([[0.0, 1.0], [0.0, 0.0]]), INV, ONE)
