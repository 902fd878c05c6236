import numpy as np
import pytest

from posmap import algebra
from posmap.algebra import (
    Element,
    FiniteCStar,
    matrix_units,
    spanning_positive_contractions,
    unit,
)
from posmap.certificates import identity_certificate, verify_certificate
from posmap.errors import (
    BadRangeError,
    MultiBlockUnsupportedError,
    NonSquareError,
    NotHomomorphismError,
    NumericalFailureError,
    NotCommutingError,
    NotPositiveContractionError,
    NotUnitaryError,
    PreconditionFailedError,
)
from posmap.family import verify_corner_family
from posmap.maps import PMap, lstsq_preimage
from posmap.orderzero import (
    cp_repair,
    kadison_gap,
    lemma31_positive_check,
    lemma31_unitary_check,
    od_defect,
    one_var_defect,
    order_zero_defect,
    oz_construct,
    oz_decompose,
    polar_lift,
    schwartz_gap,
)
from posmap.positivity import is_cp, tomiyama_map

from posmap import orderzero
from posmap.algebra import embed_blocks
from posmap.linalg import hermitian_part, op_norm
from posmap.orderzero import _one_var, _od_sup, _sample_stacks

from conftest import ginibre, random_hermitian, random_map, random_unitary
from test_maps import transpose_map
from test_positivity import kraus_map

M2 = FiniteCStar((2,))
M3 = FiniteCStar((3,))


def hom_map(n, seed, scale=1.0):
    """scale * (u* . u), a scaled unital *-homomorphism on M_n."""
    rng = np.random.default_rng(seed)
    u = random_unitary(rng, n)
    alg = FiniteCStar((n,))
    images = []
    for i in range(n):
        for j in range(n):
            e = np.zeros((n, n))
            e[i, j] = 1.0
            images.append(Element(alg, [scale * (u.conj().T @ e @ u)]))
    return PMap.from_action(alg, alg, images)


def copies_embedding(d, copies):
    """pi(a) = a (+) ... (+) a into M_{d*copies}."""
    source = FiniteCStar((d,))
    target = FiniteCStar((d * copies,))
    pi_images = []
    for e in matrix_units(source):
        big = np.zeros((d * copies, d * copies), dtype=np.complex128)
        for c in range(copies):
            big[c * d : (c + 1) * d, c * d : (c + 1) * d] = e.blocks[0]
        pi_images.append(Element(target, [big]))
    return source, target, pi_images


def copies_h(d, copies, scalars):
    big = np.zeros((d * copies, d * copies))
    for c, t in enumerate(scalars):
        big[c * d : (c + 1) * d, c * d : (c + 1) * d] = t * np.eye(d)
    return Element(FiniteCStar((d * copies,)), [big])


def seeded_oz_map(trial):
    """One of the 50 acceptance-style order-zero maps with mixed support."""
    rng = np.random.default_rng(5000 + trial)
    d, copies = (2, 3) if trial % 2 == 0 else (3, 3)
    scalars = rng.uniform(0.2, 1.0, size=copies)
    dead = rng.integers(0, copies)
    if trial % 3 != 0:  # two thirds have a dead copy (mixed support)
        scalars[dead] = 0.0
    source, target, pis = copies_embedding(d, copies)
    h = copies_h(d, copies, scalars)
    return oz_construct(source, pis, h), source, target, h


class TestOneVarDefect:
    def test_homomorphism_zero(self):
        phi = hom_map(3, 1)
        for a in spanning_positive_contractions(M3):
            assert one_var_defect(phi, a) < 1e-12

    def test_transpose_zero(self):
        phi = transpose_map(3)
        a = algebra.random_positive_contraction(M3, 2)
        assert one_var_defect(phi, a) < 1e-12

    def test_trace_map_on_e11(self):
        # oracle: ||(I/2)^2 - (I/2) I|| = 1/4
        phi = tomiyama_map(2, 1.0)
        e11 = algebra.basis_element(M2, 0, 0, 0)
        assert one_var_defect(phi, e11) == pytest.approx(0.25, abs=1e-12)

    def test_rejects_non_positive(self):
        phi = transpose_map(2)
        with pytest.raises(NotPositiveContractionError):
            one_var_defect(phi, algebra.basis_element(M2, 0, 0, 1))


class TestOrderZeroDefectReport:
    def test_homomorphism_all_zero(self):
        rep = order_zero_defect(hom_map(3, 3), samples=20, seed=0)
        assert rep.one_var_sup <= 1e-12
        assert rep.orth_pair_sup <= 1e-12
        assert rep.od_sup <= 1e-12

    def test_transpose(self):
        rep = order_zero_defect(transpose_map(3), samples=20, seed=0)
        assert rep.one_var_sup <= 1e-12
        assert rep.orth_pair_sup <= 1e-12

    def test_trace_map_found(self):
        rep = order_zero_defect(tomiyama_map(2, 1.0), samples=100, seed=0)
        assert rep.one_var_sup >= 0.2

    def test_deterministic(self):
        a = order_zero_defect(tomiyama_map(3, 1.2), samples=10, seed=4)
        b = order_zero_defect(tomiyama_map(3, 1.2), samples=10, seed=4)
        assert a == b

    @pytest.mark.parametrize("c", [1.5e308, 1e200])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_huge_map_is_numerical_failure(self, c):
        # phi(a)^2 overflows; the SVD of the inf stack ended in a LinAlgError
        with pytest.raises(NumericalFailureError):
            order_zero_defect(c * PMap.identity(M2), samples=1, seed=0)

    def test_probe_images_computed_once(self, monkeypatch):
        # the unit images are read from the transfer matrix and the OD products are
        # contractions of it, not acted out; the samples are acted on as stacked chunks
        calls = []
        act = PMap.act
        monkeypatch.setattr(PMap, "act", lambda self, xs: calls.append(1) or act(self, xs))
        phi = tomiyama_map(3, 1.2)
        assert chunk_size(phi) == 50
        order_zero_defect(phi, samples=10, seed=0)
        assert len(calls) == 4  # phi(1) once, then three per chunk
        order_zero_defect(phi, samples=51, seed=0)
        assert len(calls) == 4 + 7


class TestOdDefect:
    def test_multiplicative_domain(self):
        phi = hom_map(3, 5)
        x = algebra.random_contraction(M3, 6)
        assert od_defect(phi, x) < 1e-12

    def test_trace_map_on_e11(self):
        # oracle: brute force over the four matrix units gives 1/4
        phi = tomiyama_map(2, 1.0)
        e11 = algebra.basis_element(M2, 0, 0, 0)
        assert od_defect(phi, e11) == pytest.approx(0.25, abs=1e-12)
        assert od_defect(phi, e11) > 0.1

    def test_unit_in_od(self):
        phi = tomiyama_map(3, 1.3)
        assert od_defect(phi, unit(M3)) < 1e-12

    def test_star_symmetry(self):
        phi = transpose_map(2)
        e12 = algebra.basis_element(M2, 0, 0, 1)
        assert abs(od_defect(phi, e12) - od_defect(phi, e12.adj())) < 1e-12

    def test_star_symmetry_selfadjoint(self):
        phi = tomiyama_map(3, 1.2)
        h = random_hermitian(np.random.default_rng(7), 3)
        a = Element(M3, [h / op_norm(h)])
        assert od_defect(phi, a) == od_defect(phi, a.adj())

    def test_star_symmetry_random_two_positive(self):
        phi = tomiyama_map(3, 1.2)
        for seed in range(10):
            a = algebra.random_contraction(M3, seed)
            assert abs(od_defect(phi, a) - od_defect(phi, a.adj())) <= 1e-9


class TestKadisonGap:
    def test_identity_equality(self):
        phi = PMap.identity(M2)
        e12 = algebra.basis_element(M2, 0, 0, 1)
        assert kadison_gap(phi, e12) == pytest.approx(0.0, abs=1e-12)

    def test_two_positive_nonnegative(self):
        phi = tomiyama_map(3, 1.2)
        for seed in range(20):
            a = algebra.random_contraction(M3, seed)
            assert kadison_gap(phi, a) >= -1e-9

    def test_transpose_falsified(self):
        # oracle: phi(a*a) - phi(a)*phi(a) = e22 - e11, min eig -1
        phi = transpose_map(2)
        e12 = algebra.basis_element(M2, 0, 0, 1)
        assert kadison_gap(phi, e12) == pytest.approx(-1.0, abs=1e-12)
        assert kadison_gap(phi, e12) < -0.5


def _psi_1e154() -> PMap:
    """psi on M_2 with e_11, e_22 -> 1e154 * 1: psi(1) is finite, psi(1)^2 is not."""
    images = np.zeros((4, 2, 2))
    images[0] = images[3] = 1e154 * np.eye(2)
    return PMap(M2, M2, images)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestGapOverflow:
    # an overflowed Element product was reported as AlgebraMismatchError
    def test_kadison_gap(self):
        with pytest.raises(NumericalFailureError, match="computed element contains non-finite"):
            kadison_gap(_psi_1e154(), unit(M2))

    def test_schwartz_gap(self):
        # with a = b = 1 no step overflows: X = psi(1)^{-1/2} psi(1) is about 1.4e77, and
        # the gap is 0 up to rounding at psi(1)'s scale; a* a overflows for a = 1e200 * 1
        assert abs(schwartz_gap(_psi_1e154(), unit(M2), unit(M2))) <= 1e-12 * 2e154
        for a, b in [(1e200 * unit(M2), unit(M2)), (unit(M2), 1e200 * unit(M2))]:
            with pytest.raises(NumericalFailureError, match="computed element contains non-finite"):
                schwartz_gap(_psi_1e154(), a, b)


class TestSchwartzGap:
    def test_b_unit_reduces_to_kadison(self):
        phi = tomiyama_map(3, 1.2)
        a = algebra.random_contraction(M3, 9)
        assert schwartz_gap(phi, a, unit(M3)) == pytest.approx(
            kadison_gap(phi, a), abs=1e-9
        )

    def test_two_positive_bulk(self):
        phi = tomiyama_map(3, 1.2)
        for seed in range(30):
            a = algebra.random_contraction(M3, 2 * seed)
            b = algebra.random_contraction(M3, 2 * seed + 1)
            assert schwartz_gap(phi, a, b) >= -1e-8

    def test_a_equals_b(self):
        phi = tomiyama_map(3, 1.2)
        for seed in range(10):
            a = algebra.random_contraction(M3, seed)
            g = schwartz_gap(phi, a, a)
            assert g >= -1e-8
            assert g <= schwartz_gap(phi, a, unit(M3)) + 1e-8


class TestOzDecompose:
    def test_scaled_homomorphism(self):
        for c in (1.0, 0.5, 0.25):
            dec = oz_decompose(hom_map(3, 11, scale=c))
            assert dec.mult_defect <= 1e-10
            assert dec.commute_defect <= 1e-10
            assert dec.reconstruct_defect <= 1e-10
            assert (dec.h - c * unit(M3)).norm() <= 1e-10

    def test_round_trip_full_support(self):
        source, target, pis = copies_embedding(2, 3)
        h0 = copies_h(2, 3, [1.0, 0.7, 0.4])
        phi = oz_construct(source, pis, h0)
        dec = oz_decompose(phi)
        assert dec.mult_defect <= 1e-8
        assert dec.commute_defect <= 1e-8
        assert dec.reconstruct_defect <= 1e-8
        assert (dec.h - h0).norm() <= 1e-8

    def test_trace_map_fails_multiplicativity(self):
        # oracle: pi(e_ij) = delta_ij I/2, so pi(e_12)pi(e_21) - pi(e_11) = -I/2
        dec = oz_decompose(tomiyama_map(2, 1.0))
        assert dec.mult_defect == pytest.approx(0.5, abs=1e-12)
        assert dec.mult_defect > 0.1

    @pytest.mark.parametrize(
        "phi",
        [
            tomiyama_map(3, 1.2),
            random_map(
                np.random.default_rng(75), FiniteCStar((1, 2)), FiniteCStar((2, 1)), cp=True
            ),
        ],
        ids=["tomiyama", "two-block"],
    )
    def test_one_eigh_call(self, phi, monkeypatch):
        # h^+ and the support projection of h = phi(1) come from one spectral decomposition
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda h: calls.append(h.shape) or eigh(h))
        oz_decompose(phi)
        assert len(calls) == 1

    @pytest.mark.parametrize("budget,rows", [(13, 2), (8, 1)])
    def test_mult_defect_chunks_within_the_budget(self, budget, rows, monkeypatch):
        # dim = 5 units of size D = 4: one unit's row of products is 5 * 16 = 80 entries,
        # so MAX_SIZE = 13 (169 entries) gives chunks of two units, and 8 (64) of one
        source, target = FiniteCStar((2, 1)), FiniteCStar((2, 2))
        phi = random_map(np.random.default_rng(76), source, target, cp=True)
        want = oz_decompose(phi)
        pis = np.array([p.embedded() for p in want.pi_images])
        per_pair = lambda: [op_norm(p) for _, p in orderzero._product_defects(phi.source, pis)]
        full = np.concatenate(per_pair())
        sizes = []
        chunks = orderzero._product_defects

        def recorded(algebra_, pis_):
            for same, prod in chunks(algebra_, pis_):
                sizes.append((len(same), prod.size))
                yield same, prod

        monkeypatch.setattr(orderzero, "MAX_SIZE", budget)
        monkeypatch.setattr(orderzero, "_product_defects", recorded)
        got = oz_decompose(phi)
        for field in ("mult_defect", "commute_defect", "reconstruct_defect"):
            assert getattr(got, field).hex() == getattr(want, field).hex()
        assert all(size <= max(budget**2, 80) for _, size in sizes)  # one row is never split
        assert all(n == rows for n, _ in sizes[:-1])
        assert sum(n for n, _ in sizes) == 5
        sizes.clear()
        assert np.array_equal(np.concatenate(per_pair()), full)  # oz_construct's per-pair values
        assert len(sizes) == -(-5 // rows)


class TestOzConstruct:
    def test_half_identity(self):
        phi = oz_construct(M2, matrix_units(M2), 0.5 * unit(M2))
        x = algebra.random_contraction(M2, 13)
        assert (phi(x) - 0.5 * x).norm() < 1e-12
        assert is_cp(phi)

    def test_block_embedding_with_mixed_h(self):
        source, target, pis = copies_embedding(2, 2)
        for t in (0.0, 0.5, 1.0):
            h = copies_h(2, 2, [1.0, t])
            phi = oz_construct(source, pis, h)
            assert is_cp(phi)
            a = algebra.random_positive_contraction(source, 14)
            assert one_var_defect(phi, a) < 1e-12

    def test_h_zero_gives_zero_map(self):
        phi = oz_construct(M2, matrix_units(M2), 0.0 * unit(M2))
        assert phi.unit_image().norm() == 0.0

    def test_constructed_maps_are_order_zero(self):
        phi, *_ = seeded_oz_map(0)
        rep = order_zero_defect(phi, samples=20, seed=1)
        assert rep.one_var_sup <= 1e-8
        assert rep.orth_pair_sup <= 1e-8
        assert rep.od_sup <= 1e-8

    def test_rejects_non_homomorphism(self):
        bad = [1.0 * e for e in matrix_units(M2)]
        bad[1] = 2.0 * bad[1]  # breaks pi(e_12)* = pi(e_21)
        with pytest.raises(NotHomomorphismError):
            oz_construct(M2, bad, 0.5 * unit(M2))

    def test_rejects_non_commuting_h(self):
        h = Element(M2, [np.array([[0.6, 0.2], [0.2, 0.3]])])
        with pytest.raises(NotCommutingError):
            oz_construct(M2, matrix_units(M2), h)

    def test_rejects_bad_h(self):
        with pytest.raises(NotPositiveContractionError):
            oz_construct(M2, matrix_units(M2), 2.0 * unit(M2))


    def test_rejects_cross_block_overlap(self):
        # both blocks of C (+) C sent onto the same copy of C
        src, tgt = FiniteCStar((1, 1)), FiniteCStar((1,))
        one = unit(tgt)
        with pytest.raises(NotHomomorphismError, match="cross-block"):
            oz_construct(src, [one, one], 0.5 * one)

    def test_names_failing_unit_pair(self):
        # pi(e_ij) = e_ij except pi(e_11) = 0: first failure is pi(e_11) pi(e_12) != pi(e_12)
        pis = list(matrix_units(M2))
        pis[0] = 0.0 * pis[0]
        with pytest.raises(NotHomomorphismError, match=r"\(0,0\),\(0,1\) in block 0"):
            oz_construct(M2, pis, 0.5 * unit(M2))


class TestCpRepair:
    def test_homomorphism_untouched(self):
        phi = hom_map(3, 15)
        repaired, eps = cp_repair(phi)
        assert eps <= 1e-12
        x = algebra.random_contraction(M3, 16)
        assert (repaired(x) - phi(x)).norm() < 1e-10

    def test_transpose_oracle(self):
        # oracle: eps = 1, repaired Choi = SWAP + 2 I with min eig 1
        phi = transpose_map(2)
        repaired, eps = cp_repair(phi)
        assert eps == pytest.approx(1.0, abs=1e-12)
        vals = np.linalg.eigvalsh(repaired.choi_blocks[0])
        assert vals[0] == pytest.approx(1.0, abs=1e-9)
        assert is_cp(repaired)

    def test_trace_mixing_map(self):
        # oracle: hand computation gives eps = 0.4 for lambda = 1.2 on M_3
        repaired, eps = cp_repair(tomiyama_map(3, 1.2))
        assert eps == pytest.approx(0.4, abs=1e-12)
        assert is_cp(repaired)

    def test_two_block_source_rejected(self):
        phi = random_map(np.random.default_rng(76), FiniteCStar((1, 2)), M2)
        with pytest.raises(MultiBlockUnsupportedError, match="single-block source"):
            cp_repair(phi)


class TestPolarLift:
    def _near_unitary_target(self, phi, seed, target_eps):
        """Unitary x with a calibrated contraction preimage error near target_eps."""
        rng = np.random.default_rng(seed)
        h = random_hermitian(rng, 3)
        h = h / np.linalg.norm(h, 2)
        h = h - np.trace(h) / 3 * np.eye(3)
        theta = rng.uniform(0, 2 * np.pi)
        lo, hi = 0.0, 1.5
        for _ in range(60):
            s = (lo + hi) / 2
            vals, vecs = np.linalg.eigh(h)
            x = Element(M3, [np.exp(1j * theta) * ((vecs * np.exp(1j * s * vals)) @ vecs.conj().T)])
            y = lstsq_preimage(phi, x)
            y = (1.0 / max(1.0, y.norm())) * y
            eps_in = (phi(y) - x).norm()
            if eps_in > target_eps:
                hi = s
            else:
                lo = s
        return x, y, eps_in

    def test_unitary_preimage_trivial(self):
        phi = tomiyama_map(3, 1.2)
        rng = np.random.default_rng(17)
        y = Element(M3, [random_unitary(rng, 3)])
        x = phi(y)
        # phi(y) need not be unitary; use identity target with y unitary instead
        u, ok = polar_lift(PMap.identity(M3), y, y)
        assert (u - y).norm() < 1e-9
        assert ok

    def test_scaled_unitary(self):
        phi = PMap.identity(M3)
        rng = np.random.default_rng(18)
        x = Element(M3, [random_unitary(rng, 3)])
        u, ok = polar_lift(phi, x, 0.9 * x)
        assert (u - x).norm() < 1e-9
        assert ok

    @pytest.mark.parametrize("target_eps", [0.01, 0.04])
    def test_bound_holds(self, target_eps):
        phi = tomiyama_map(3, 1.2)
        for seed in range(5):
            x, y, eps_in = self._near_unitary_target(phi, 100 + seed, target_eps)
            assert eps_in < 1
            u, ok = polar_lift(phi, x, y)
            assert ok, (seed, eps_in)

    def test_rejects_non_unitary_x(self):
        phi = PMap.identity(M3)
        with pytest.raises(NotUnitaryError):
            polar_lift(phi, 0.5 * unit(M3), 0.5 * unit(M3))


def scaled_wishart_contraction(rng, L, d, eps):
    """Positive contraction with ||a_11|| <= eps/2 by construction."""
    n = L * d
    g = ginibre(rng, n)
    w = g.conj().T @ g
    w = w / np.linalg.norm(w, 2)
    t = np.eye(n)
    t[:d, :d] *= np.sqrt(eps / 2)
    a = t @ w @ t
    return a / max(1.0, np.linalg.norm(a, 2))


def near_block_unitary(rng, L, d, eps):
    """Unitary with ||u_11* u_11 - 1|| < eps, via a calibrated exponential."""
    n = L * d
    k = random_hermitian(rng, n)
    k = k / np.linalg.norm(k, 2)
    vals, vecs = np.linalg.eigh(k)

    def at(s):
        return (vecs * np.exp(1j * s * vals)) @ vecs.conj().T

    lo, hi = 0.0, 1.0
    for _ in range(40):
        s = (lo + hi) / 2
        u = at(s)
        dev = np.linalg.norm(u[:d, :d].conj().T @ u[:d, :d] - np.eye(d), 2)
        if dev < 0.8 * eps:
            lo = s
        else:
            hi = s
    return at(lo)


class TestLemma31:
    def test_zero_matrix(self):
        assert lemma31_positive_check(np.zeros((6, 6)), 2, 0.1)

    def test_projection_avoiding_corner(self):
        p = np.zeros((6, 6))
        p[4, 4] = 1.0
        assert lemma31_positive_check(p, 2, 0.1)

    def test_identity_unitary(self):
        assert lemma31_unitary_check(np.eye(6), 2, 0.05)

    def test_block_diagonal_unitary(self):
        rng = np.random.default_rng(31)
        u = np.zeros((6, 6), dtype=complex)
        for c in range(3):
            u[2 * c : 2 * c + 2, 2 * c : 2 * c + 2] = random_unitary(rng, 2)
        assert lemma31_unitary_check(u, 2, 0.05)

    @pytest.mark.parametrize("eps", [0.1, 0.01])
    def test_positive_bulk(self, eps):
        for trial in range(50):
            rng = np.random.default_rng(7000 + trial)
            a = scaled_wishart_contraction(rng, 3, 2, eps)
            assert lemma31_positive_check(a, 2, eps)

    def test_unitary_bulk(self):
        eps = 0.05
        for trial in range(50):
            rng = np.random.default_rng(8000 + trial)
            u = near_block_unitary(rng, 3, 2, eps)
            assert lemma31_unitary_check(u, 2, eps)

    def test_non_hermitian_rejected(self):
        # Hermitian part 0.5 (1 + e_05 + e_50) is PSD; the matrix is not Hermitian
        a = 0.5 * np.eye(6)
        a[0, 5] = 0.5
        with pytest.raises(NotPositiveContractionError):
            lemma31_positive_check(a, 2, 0.9)

    def test_non_contraction_rejected(self):
        with pytest.raises(NotPositiveContractionError):
            lemma31_positive_check(np.diag([0.0, 0.0, 1.0, 1.0, 1.0, 1.0 + 1e-6]), 2, 0.1)

    def test_precondition_enforced(self):
        with pytest.raises(PreconditionFailedError):
            lemma31_positive_check(np.eye(6) * 0.9, 2, 0.1)
        with pytest.raises(NotUnitaryError):
            lemma31_unitary_check(np.eye(6) * 0.5, 2, 0.1)

    def test_nan_eps_rejected(self):
        # a NaN bound made both checks answer False, their implementation-bug answer
        with pytest.raises(BadRangeError):
            lemma31_positive_check(np.zeros((6, 6)), 2, float("nan"))
        with pytest.raises(BadRangeError):
            lemma31_unitary_check(np.eye(6), 2, float("nan"))

    def test_single_block_column(self):
        # d is the matrix size: the column is the whole matrix, the unitary tail is empty
        assert lemma31_positive_check(0.05 * np.eye(4), 4, 0.1)
        assert lemma31_unitary_check(random_unitary(np.random.default_rng(4), 4), 4, 0.1)

    @pytest.mark.parametrize("check", [lemma31_positive_check, lemma31_unitary_check])
    @pytest.mark.parametrize("m", [np.zeros((4, 2)), np.full((4, 4), np.nan)], ids=["4x2", "nan"])
    def test_non_square_or_non_finite_rejected(self, check, m):
        # the unitary check raised numpy's broadcast ValueError and an SVD NumericalFailureError
        with pytest.raises(NonSquareError):
            check(m, 2, 0.1)

    @pytest.mark.parametrize("d", [0, -2])
    def test_bad_block_size_rejected(self, d):
        # d = 0 was a ZeroDivisionError
        with pytest.raises(BadRangeError):
            lemma31_positive_check(np.zeros((6, 6)), d, 0.1)
        with pytest.raises(BadRangeError):
            lemma31_unitary_check(np.eye(6), d, 0.1)


class TestExactOrderZeroCharacterization:
    def test_constructed_maps_satisfy_conclusion(self):
        # one-variable defect zero on a spanning family + 2-positivity
        # implies all sampled defects vanish
        for trial in range(6):
            phi, source, *_ = seeded_oz_map(trial)
            for a in spanning_positive_contractions(source):
                assert one_var_defect(phi, a) <= 1e-12
                assert od_defect(phi, a) <= 1e-12
            assert is_cp(phi)
            rep = order_zero_defect(phi, samples=25, seed=trial)
            assert rep.one_var_sup <= 1e-8
            assert rep.orth_pair_sup <= 1e-8
            assert rep.od_sup <= 1e-8



# -- Element-level oracle for the stacked order-zero analyses ---------------------


def oracle_od(phi, a):
    f1, fa = phi.unit_image(), phi(a)
    return max(
        max((fa * phi(e) - f1 * phi(a * e)).norm(), (phi(e) * fa - phi(e * a) * f1).norm())
        for e in matrix_units(phi.source)
    )


def oracle_order_zero_defect(phi, samples, seed):
    rng = np.random.default_rng(seed)
    src, f1 = phi.source, phi.unit_image()
    one_var = orth = od = 0.0
    for _ in range(samples):
        w = Element(src, wishart_blocks(rng, src.block_sizes))
        a, b, p = (Element(src, blocks) for blocks in orthogonal_pair_blocks(rng, src))
        for probe in (w, p):
            fp = phi(probe)
            one_var = max(one_var, (fp * fp - phi(probe * probe) * f1).norm())
            od = max(od, oracle_od(phi, probe))
        orth = max(orth, (phi(a) * phi(b)).norm())
    return one_var, orth, od


def oracle_oz_decompose(phi):
    h = phi.unit_image()
    # per block, drop eigenvalues <= 1e-10 ||h||: the cutoff is relative to the global ||h||
    pinv_blocks, proj_blocks = [], []
    for b in h.blocks:
        vals, vecs = np.linalg.eigh(hermitian_part(b))
        keep = vals > 1e-10 * h.norm()
        inv = np.where(keep, 1.0 / np.where(keep, vals, 1.0), 0.0)
        pinv_blocks.append((vecs * inv) @ vecs.conj().T)
        proj_blocks.append((vecs * keep) @ vecs.conj().T)
    pinv = Element(phi.target, pinv_blocks)
    proj = Element(phi.target, proj_blocks)
    units = matrix_units(phi.source)
    pis = [pinv * phi(e) * proj for e in units]
    commute = max((h * p - p * h).norm() for p in pis)
    reconstruct = max((h * p - phi(e)).norm() for e, p in zip(units, pis))
    mult = 0.0
    off = 0
    for n in phi.source.block_sizes:
        for i, j, k, l in np.ndindex(n, n, n, n):
            prod = pis[off + i * n + j] * pis[off + k * n + l]
            if j == k:
                prod = prod - pis[off + i * n + l]
            mult = max(mult, prod.norm())
        off += n * n
    return pis, mult, commute, reconstruct


def oracle_cp_repair_eps(phi):
    n = phi.source.block_sizes[0]
    img = [phi(e) for e in matrix_units(phi.source)]
    return max(
        (img[i * n] * img[j] - img[i * n + j]).norm() for i in range(n) for j in range(n)
    )


ORACLE_PAIRS = [
    (FiniteCStar((1, 2)), FiniteCStar((2, 1))),
    (FiniteCStar((2, 1, 2)), FiniteCStar((1, 1, 2))),
    (FiniteCStar((2, 2)), FiniteCStar((1, 2, 1))),
]


class TestStackedAnalysesMatchElementOracle:
    @pytest.mark.parametrize("source,target", ORACLE_PAIRS)
    def test_od_defect(self, source, target):
        phi = random_map(np.random.default_rng(71), source, target)
        for seed in range(3):
            a = algebra.random_positive_contraction(source, seed)
            assert od_defect(phi, a) == pytest.approx(oracle_od(phi, a), rel=0, abs=1e-12)

    @pytest.mark.parametrize("source,target", ORACLE_PAIRS)
    def test_order_zero_defect(self, source, target):
        phi = random_map(np.random.default_rng(72), source, target, cp=True)
        rep = order_zero_defect(phi, samples=4, seed=5)
        want = oracle_order_zero_defect(phi, samples=4, seed=5)
        got = (rep.one_var_sup, rep.orth_pair_sup, rep.od_sup)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("source,target", ORACLE_PAIRS)
    def test_oz_decompose(self, source, target):
        phi = random_map(np.random.default_rng(73), source, target, cp=True)
        dec = oz_decompose(phi)
        pis, mult, commute, reconstruct = oracle_oz_decompose(phi)
        got = (dec.mult_defect, dec.commute_defect, dec.reconstruct_defect)
        np.testing.assert_allclose(got, (mult, commute, reconstruct), rtol=0, atol=1e-12)
        for x, y in zip(dec.pi_images, pis):
            assert (x - y).norm() <= 1e-12

    @pytest.mark.parametrize("target", [FiniteCStar((2, 1)), FiniteCStar((1, 1, 2))])
    def test_cp_repair(self, target):
        source = FiniteCStar((3,))
        phi = random_map(np.random.default_rng(74), source, target, cp=True)
        repaired, eps = cp_repair(phi)
        want = oracle_cp_repair_eps(phi)
        assert eps == pytest.approx(want, rel=0, abs=1e-12)
        bump = 3 * want * np.eye(3 * target.embed_dim)
        np.testing.assert_allclose(
            repaired.choi_blocks[0], phi.choi_blocks[0] + bump, rtol=0, atol=1e-12
        )


def test_zero_samples_is_bad_range():
    # a check run on no samples is not a pass, and all three say so with one error type
    phi = tomiyama_map(3, 1.2)
    with pytest.raises(BadRangeError, match="samples"):
        order_zero_defect(phi, 0, 0)
    with pytest.raises(BadRangeError, match="samples"):
        verify_certificate(identity_certificate(M3), samples=0)
    with pytest.raises(BadRangeError, match="samples"):
        verify_corner_family(3, 2, 1, 1.4, 0.05, samples=0)


# -- the per-sample draw, the reference for the batched order_zero_defect ----------


def wishart_blocks(rng, sizes):
    """Per block g*g / ||g*g||, one Ginibre g drawn per block in order."""
    wishart = [g.conj().T @ g for g in (ginibre(rng, n) for n in sizes)]
    return [w / op_norm(w) for w in wishart]


def orthogonal_pair_blocks(rng, algebra_):
    """Blocks of positive contractions (a, b, p) with ab = 0, in a common eigenbasis.

    p is the support projection of a. Products of the disjoint diagonal
    supports vanish exactly; the conjugating unitary contributes only
    rounding noise.
    """
    blocks_a, blocks_b, blocks_p = [], [], []
    masks = []
    for n in algebra_.block_sizes:
        masks.append(rng.integers(0, 2, size=n).astype(bool))
    flat = np.concatenate(masks)
    if not flat.any():
        masks[0][0] = True
    if flat.all():
        masks[-1][-1] = False
    for n, mask in zip(algebra_.block_sizes, masks):
        v = np.linalg.qr(ginibre(rng, n))[0]
        coeff_a = np.where(mask, rng.uniform(0.2, 1.0, size=n), 0.0)
        coeff_b = np.where(mask, 0.0, rng.uniform(0.2, 1.0, size=n))
        blocks_a.append((v * coeff_a) @ v.conj().T)
        blocks_b.append((v * coeff_b) @ v.conj().T)
        blocks_p.append((v * mask.astype(float)) @ v.conj().T)
    return blocks_a, blocks_b, blocks_p


def reference_order_zero_defect(phi, samples, seed):
    """order_zero_defect one sample at a time: draw, act and take norms per sample."""
    rng = np.random.default_rng(seed)
    src = phi.source
    f1 = phi.act(np.eye(src.embed_dim))
    one_var = orth = od = 0.0
    for _ in range(samples):
        w = embed_blocks(src, wishart_blocks(rng, src.block_sizes))
        a, b, p = (embed_blocks(src, blocks) for blocks in orthogonal_pair_blocks(rng, src))
        probes = np.stack([w, p])
        fp = phi.act(probes)
        one_var = max(one_var, _one_var(phi, probes, fp, f1))
        od = max(od, _od_sup(phi, probes, fp, f1))
        fa, fb = phi.act(np.stack([a, b]))
        orth = max(orth, op_norm(fa @ fb))
    return one_var, orth, od


def reference_od_sup(phi, probes, fp, f1):
    """_od_sup on the dense (dim, Ds, Ds) unit stack: every a e_u and e_u a acted out."""
    units = algebra.unit_stack(phi.source)
    unit_images = phi.transfer.reshape(-1, *f1.shape)
    fa = fp[:, None]
    left = fa @ unit_images - f1 @ phi.act(probes[:, None] @ units)
    right = unit_images @ fa - phi.act(units @ probes[:, None]) @ f1
    return float(max(op_norm(left).max(), op_norm(right).max()))


OD_SOURCES = [
    FiniteCStar((2, 1, 2)), FiniteCStar((3,)), FiniteCStar((1, 3)), FiniteCStar((1, 1, 1))
]
OD_TARGETS = [FiniteCStar((1, 1, 2)), FiniteCStar((2, 3)), FiniteCStar((4,))]


@pytest.mark.parametrize("cp", [False, True])
@pytest.mark.parametrize("source", OD_SOURCES)
def test_od_sup_matches_the_dense_unit_stack(source, cp):
    # the contractions of T add the same products as the dense stack, less its zeros,
    # so they agree to rounding; exact order-zero maps stay exactly zero
    rng = np.random.default_rng(91)
    for target in OD_TARGETS:
        phi = random_map(rng, source, target, cp=cp)
        w, a, b, p = _sample_stacks(rng, source, 3)
        probes = np.concatenate([w, p, a, b])
        f1 = phi.act(np.eye(source.embed_dim))
        fp = phi.act(probes)
        want = reference_od_sup(phi, probes, fp, f1)
        assert _od_sup(phi, probes, fp, f1) == pytest.approx(want, rel=1e-15, abs=0)
        for at in np.s_[0:1], np.s_[5:6]:  # one probe, as od_defect evaluates it
            want = reference_od_sup(phi, probes[at], fp[at], f1)
            assert _od_sup(phi, probes[at], fp[at], f1) == pytest.approx(want, rel=1e-15, abs=0)
    # w id, as every leg of orderzero_certificate: each entry is one product on both paths
    hom = 0.37 * PMap.identity(source)
    probes = np.concatenate(_sample_stacks(rng, source, 2))
    f1 = hom.act(np.eye(source.embed_dim))
    assert _od_sup(hom, probes, hom.act(probes), f1) == 0.0
    assert reference_od_sup(hom, probes, hom.act(probes), f1) == 0.0


def chunk_size(phi):
    """Samples per evaluated chunk: the OD stacks stay within _CHUNK_ENTRIES."""
    size = max(phi.source.embed_dim, phi.target.embed_dim)
    return max(1, orderzero._CHUNK_ENTRIES // (2 * phi.source.dim * size * size))


@pytest.mark.parametrize("algebra_", [M3, FiniteCStar((1, 2, 3))])
def test_pair_blocks_are_the_pair_elements(algebra_):
    # the batched build embeds exactly the per-sample draws, in their order
    rng_a, rng_b = np.random.default_rng(9), np.random.default_rng(9)
    stacks = _sample_stacks(rng_a, algebra_, 5)
    for s in range(5):
        w = wishart_blocks(rng_b, algebra_.block_sizes)
        for stack, blocks in zip(stacks, [w, *orthogonal_pair_blocks(rng_b, algebra_)]):
            assert np.array_equal(stack[s], embed_blocks(algebra_, blocks))


BATCHED_MAPS = [
    (FiniteCStar((2, 1, 2)), FiniteCStar((1, 1, 2)), False),
    (FiniteCStar((1, 2)), FiniteCStar((2, 1, 1)), True),
    (FiniteCStar((1, 1, 1)), FiniteCStar((3,)), True),
]


@pytest.mark.parametrize("source,target,cp", BATCHED_MAPS)
def test_batched_report_is_bit_identical_to_per_sample(source, target, cp, monkeypatch):
    # counts around a chunk and across several; the last one also spans two draw batches
    phi = random_map(np.random.default_rng(81), source, target, cp=cp)
    chunk = chunk_size(phi)
    assert chunk >= 3
    acted = []
    act = PMap.act

    def counted(self, xs):
        acted.append(xs[..., 0, 0].size)
        return act(self, xs)

    monkeypatch.setattr(PMap, "act", counted)
    for samples in (1, 2, chunk - 1, chunk + 1, 3 * chunk + 1, chunk * source.dim + 1):
        acted.clear()
        rep = order_zero_defect(phi, samples=samples, seed=samples)
        # every sample once: phi(1), then w and p, their squares, a and b; the OD
        # products are contractions of T, not acted out
        assert sum(acted) == 1 + samples * 6
        got = (rep.one_var_sup, rep.orth_pair_sup, rep.od_sup)
        want = reference_order_zero_defect(phi, samples, samples)
        assert [x.hex() for x in got] == [float(x).hex() for x in want], samples
