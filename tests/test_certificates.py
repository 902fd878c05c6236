import contextlib
import copy
import dataclasses
import io
import json
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posmap import algebra, certificates as certificates_module, positivity
from posmap.algebra import Element, FiniteCStar, basis_element, unit
from posmap.certificates import (
    DrCertificate,
    _decode_matrix,
    certificate_from_document,
    certificate_to_document,
    direct_sum,
    identity_certificate,
    load_certificate,
    load_map,
    map_from_document,
    map_to_document,
    orderzero_certificate,
    save_certificate,
    save_map,
    verify_certificate,
)
from posmap.errors import (
    AlgebraMismatchError,
    BadRangeError,
    BadWeightsError,
    NumericalFailureError,
    ParseError,
    SchemaVersionMismatchError,
    StructurallyInvalidError,
)
from posmap.cli import main
from posmap.linalg import hermitian_part
from posmap.maps import PMap
from posmap.orderzero import kadison_gap
from posmap.positivity import UNFALSIFIED, tomiyama_map

from conftest import random_map

M2 = FiniteCStar((2,))
M3 = FiniteCStar((3,))
M23 = FiniteCStar((2, 3))
C1 = FiniteCStar((1,))

# the files of PMap.identity(C1) and of identity_certificate(C1, test_set=(unit(C1),))
GOLDEN_MAP = """\
{
  "map": {
    "choi_blocks": [
      [
        [
          1.0,
          0.0
        ]
      ]
    ]
  },
  "schema_version": 1,
  "source": {
    "blocks": [
      1
    ]
  },
  "target": {
    "blocks": [
      1
    ]
  }
}
"""
GOLDEN_CERTIFICATE = """\
{
  "algebra": {
    "blocks": [
      1
    ]
  },
  "d": 0,
  "epsilon": 1e-06,
  "phis": [
    {
      "choi_blocks": [
        [
          [
            1.0,
            0.0
          ]
        ]
      ]
    }
  ],
  "psi": {
    "choi_blocks": [
      [
        [
          1.0,
          0.0
        ]
      ]
    ]
  },
  "schema_version": 1,
  "summands": [
    {
      "blocks": [
        1
      ]
    }
  ],
  "test_set": [
    {
      "blocks": [
        [
          [
            1.0,
            0.0
          ]
        ]
      ]
    }
  ]
}
"""


class TestDirectSum:
    def test_concatenates_blocks(self):
        assert direct_sum((M2, M23)).block_sizes == (2, 2, 3)



class TestIdentityCertificate:
    def test_single_block_passes(self):
        rep = verify_certificate(identity_certificate(M3), tol=1e-10)
        assert rep.overall
        assert not rep.caveat
        assert max(rep.approx_errors) <= 1e-12
        assert rep.psi_two_positive.status == "CERTIFIED_POSITIVE"
        leg = rep.legs[0]
        assert leg.mult_defect <= 1e-12
        assert leg.commute_defect <= 1e-12
        assert leg.reconstruct_defect <= 1e-12

    @pytest.mark.parametrize("restarts", [0, 100000])
    def test_restarts_outside_range_rejected(self, restarts):
        # a CP certificate never reached the falsifier, so any count was accepted
        with pytest.raises(BadRangeError, match="restarts"):
            verify_certificate(identity_certificate(M2), restarts=restarts)

    def test_zero_samples_rejected_before_any_work(self, monkeypatch):
        # psi is not CP, so the 2-positivity check reached the falsifier before the defects
        calls = []
        falsify = positivity.k_positivity_falsify

        def counted(*args, **kwargs):
            calls.append(args)
            return falsify(*args, **kwargs)

        monkeypatch.setattr("posmap.certificates.k_positivity_falsify", counted)
        cert = dataclasses.replace(identity_certificate(M3), psi=tomiyama_map(3, 1.15))
        with pytest.raises(BadRangeError, match="samples"):
            verify_certificate(cert, samples=0)
        assert calls == []

    def test_direct_sum_passes(self):
        rep = verify_certificate(identity_certificate(M23), tol=1e-10)
        assert rep.overall

    def test_empty_test_set_passes_vacuously(self):
        rep = verify_certificate(identity_certificate(M2, test_set=()), tol=1e-10)
        assert rep.overall
        assert rep.approx_errors == ()

    def test_given_test_set_draws_no_default(self, monkeypatch):
        # the default random test set was drawn, normalised and thrown away
        def draw(*args):
            raise AssertionError("default test set drawn")

        monkeypatch.setattr("posmap.certificates._default_test_set", draw)
        cert = identity_certificate(M23, test_set=[unit(M23)])
        assert len(cert.test_set) == 1


class TestOrderzeroCertificate:
    def test_single_weight_reduces_to_identity(self):
        cert = orderzero_certificate(M2, [1.0])
        assert cert.d == 0
        rep = verify_certificate(cert, tol=1e-8)
        assert rep.overall

    def test_half_half_on_m2(self):
        cert = orderzero_certificate(M2, [0.5, 0.5])
        assert cert.d == 1
        rep = verify_certificate(cert, tol=1e-8)
        assert rep.overall
        assert rep.sum_norm == pytest.approx(1.0, abs=1e-12)

    def test_uneven_weights(self):
        rep = verify_certificate(orderzero_certificate(M3, [0.3, 0.7]), tol=1e-8)
        assert rep.overall

    def test_bad_weights(self):
        with pytest.raises(BadWeightsError):
            orderzero_certificate(M2, [0.5, 0.4])
        with pytest.raises(BadWeightsError):
            orderzero_certificate(M2, [1.5, -0.5])
        # w <= 0 and |sum - 1| > 1e-12 are both False for NaN, which then failed in PMap
        with pytest.raises(BadWeightsError, match="positive"):
            orderzero_certificate(M2, [float("nan")])
        with pytest.raises(BadWeightsError, match="positive"):
            orderzero_certificate(M2, [0.5, float("nan")])

    @pytest.mark.parametrize(
        "alg, weights",
        [
            (FiniteCStar((10**6,)), [1.0]),  # the algebra alone is past the budget
            (FiniteCStar((4,)), [1 / 256] * 256),  # psi's 256-fold target is past it
        ],
    )
    def test_above_image_budget_rejected(self, monkeypatch, alg, weights):
        # refused before the default test set is drawn; numpy's MemoryError came first
        def draw(*args):
            raise AssertionError("default test set drawn")

        monkeypatch.setattr("posmap.certificates._default_test_set", draw)
        with pytest.raises(BadRangeError, match="unit-image entries"):
            orderzero_certificate(alg, weights)
        with pytest.raises(BadRangeError, match="unit-image entries"):
            identity_certificate(FiniteCStar((46,)))

    @pytest.mark.parametrize("epsilon", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_epsilon_rejected(self, epsilon):
        # a NaN epsilon got as far as save_certificate and raised a raw ValueError there
        with pytest.raises(BadRangeError, match="epsilon"):
            orderzero_certificate(M2, [0.5, 0.5], epsilon=epsilon)
        with pytest.raises(BadRangeError, match="epsilon"):
            identity_certificate(M2, epsilon=epsilon)

    def test_identity_is_the_one_weight_certificate(self):
        ident = identity_certificate(M23, epsilon=2.5)
        one = orderzero_certificate(M23, [1.0], epsilon=2.5)
        assert certificate_to_document(ident) == certificate_to_document(one)
        test_set = (unit(M23), algebra.random_contraction(M23, 9))
        assert identity_certificate(M23, test_set=list(test_set)).test_set == test_set


def _reference_approximation(cert):
    """The Element-level approximation check: split psi(x) by summand, apply each phi_i, sum from zero."""
    errors = []
    for x in cert.test_set:
        y = cert.psi(x)
        out = 0.0 * unit(cert.algebra)
        off = 0
        for phi, s in zip(cert.phis, cert.summands):
            out = out + phi(Element(s, y.blocks[off : off + s.n_blocks]))
            off += s.n_blocks
        errors.append((out - x).norm())
    return tuple(errors), tuple(i for i, e in enumerate(errors) if not e < cert.epsilon)


class TestApproximationStep:
    """verify_certificate's stacked approximation step against the Element-level loop."""

    @pytest.mark.parametrize("seed", range(12))
    def test_random_certificates_match_reference(self, seed):
        rng = np.random.default_rng(seed)
        shapes = [(1, 2), (2, 2), (1, 1, 2), (2, 1)]
        alg = FiniteCStar(shapes[seed % 4])
        summands = tuple(
            FiniteCStar(shapes[int(i)]) for i in rng.integers(0, 4, size=2 + seed % 2)
        )
        cert = DrCertificate(
            algebra=alg,
            d=len(summands) - 1,
            summands=summands,
            psi=random_map(rng, alg, direct_sum(summands)),
            phis=tuple(random_map(rng, s, alg) for s in summands),
            test_set=tuple(algebra.random_contraction(alg, seed + i) for i in range(5)),
            epsilon=1.0,
        )
        ref_errors, _ = _reference_approximation(cert)
        # epsilon halfway between two errors, so a last-bit difference cannot move a failure
        mid = sorted(ref_errors)[1:3]
        cert = dataclasses.replace(cert, epsilon=(mid[0] + mid[1]) / 2)
        ref_errors, ref_failures = _reference_approximation(cert)
        rep = verify_certificate(cert, restarts=1, samples=1)
        assert len(rep.approx_errors) == len(ref_errors)
        for got, want in zip(rep.approx_errors, ref_errors):
            assert abs(got - want) <= 1e-13 * max(1.0, want)
        assert rep.approx_failures == ref_failures
        assert 0 < len(ref_failures) < len(ref_errors)

    @pytest.mark.parametrize("blocks", [(1,), (3,), (2, 3), (2, 2, 2), (1, 1, 1, 1)])
    def test_generated_certificates_match_reference_exactly(self, blocks):
        alg = FiniteCStar(blocks)
        certs = [
            identity_certificate(alg),
            orderzero_certificate(alg, [0.3, 0.7], seed=2),
            orderzero_certificate(alg, [0.2, 0.3, 0.5], seed=5),
        ]
        mutant = dataclasses.replace(certs[1], psi=0.99 * certs[1].psi)
        for cert in certs + [mutant]:
            rep = verify_certificate(cert, restarts=1, samples=1)
            assert (rep.approx_errors, rep.approx_failures) == _reference_approximation(cert)


class TestVerifierFailures:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_huge_leg_is_numerical_failure(self):
        # the leg's sampled defects overflow; the SVD ended in a LinAlgError
        cert = orderzero_certificate(M2, [0.5, 0.5])
        cert = dataclasses.replace(cert, phis=(1e200 * cert.phis[0],) + cert.phis[1:])
        with pytest.raises(NumericalFailureError):
            verify_certificate(cert)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowed_psi_is_numerical_failure(self):
        # psi(1) = 3e308 * 1 overflows; the computed element was reported as
        # AlgebraMismatchError: block contains non-finite entries
        images = np.zeros((4, 2, 2))
        images[0] = images[3] = 1.5e308 * np.eye(2)  # the diagonal units e_11 and e_22
        psi = PMap(M2, M2, images)
        cert = dataclasses.replace(identity_certificate(M2), psi=psi)
        with pytest.raises(NumericalFailureError, match="non-finite"):
            verify_certificate(cert)
        with pytest.raises(NumericalFailureError, match="non-finite"):
            kadison_gap(psi, unit(M2))
        with pytest.raises(AlgebraMismatchError):  # caller blocks keep their error
            Element(M2, [np.full((2, 2), np.inf)])

    def test_non_order_zero_leg(self):
        # replace phi_0 by the trace-mixing map at lambda = 1 (CP but not order
        # zero); epsilon loose so only the order-zero sub-check fails
        cert = identity_certificate(M2, epsilon=2.5)
        bad = dataclasses.replace(cert, phis=(tomiyama_map(2, 1.0),))
        rep = verify_certificate(bad, tol=1e-8)
        assert not rep.overall
        leg = rep.legs[0]
        assert not leg.order_zero_ok
        assert leg.mult_defect > 0.1
        assert leg.contraction_ok
        assert leg.two_positive.passed
        assert rep.sum_contractive_ok
        assert not rep.approx_failures

    def test_sum_not_contractive(self):
        # weights scaled to sum 1.1; epsilon loose so only the sum check fails
        cert = orderzero_certificate(M2, [0.5, 0.5], epsilon=0.2)
        phis = (1.2 * cert.phis[0], cert.phis[1])  # 0.6 id + 0.5 id
        bad = dataclasses.replace(cert, phis=phis)
        rep = verify_certificate(bad, tol=1e-8)
        assert not rep.overall
        assert rep.sum_norm == pytest.approx(1.1, abs=1e-12)
        assert not rep.sum_contractive_ok
        assert all(leg.passed for leg in rep.legs)
        assert not rep.approx_failures

    def test_approximation_failure_isolated(self):
        # psi shrunk by 1%: every other check passes, approximation misses by 0.01
        cert = identity_certificate(M3, epsilon=1e-6)
        bad = dataclasses.replace(cert, psi=0.99 * cert.psi)
        rep = verify_certificate(bad, tol=1e-8)
        assert not rep.overall
        assert rep.approx_failures
        assert rep.psi_contraction_ok
        assert rep.psi_two_positive.passed
        assert all(leg.passed for leg in rep.legs)
        assert rep.sum_contractive_ok
        assert max(rep.approx_errors) == pytest.approx(0.01, abs=1e-9)

    def test_non_two_positive_leg_carries_witness(self):
        # phi_0 = psi_{1.4} on M_3: positive but above the 2-positivity threshold
        from posmap.positivity import witness_verify

        cert = identity_certificate(M3, epsilon=2.5)
        bad = dataclasses.replace(cert, phis=(tomiyama_map(3, 1.4),))
        rep = verify_certificate(bad, tol=1e-8)
        assert not rep.overall
        check = rep.legs[0].two_positive
        assert check.status == "VIOLATED"
        assert check.verdict.witness is not None
        assert witness_verify(bad.phis[0], check.verdict.witness)

    def test_structural_mismatch_raises(self):
        cert = identity_certificate(M2)
        with pytest.raises(StructurallyInvalidError):
            verify_certificate(dataclasses.replace(cert, d=1))

    def test_infinite_epsilon_is_structural_error(self):
        cert = dataclasses.replace(orderzero_certificate(M2, [0.5, 0.5]), epsilon=float("inf"))
        with pytest.raises(StructurallyInvalidError, match="epsilon"):
            verify_certificate(cert)

    def test_nan_epsilon_is_structural_error(self):
        # a NaN epsilon turned an exact certificate into five approximation failures
        cert = dataclasses.replace(orderzero_certificate(M2, [0.5, 0.5]), epsilon=float("nan"))
        with pytest.raises(StructurallyInvalidError, match="epsilon"):
            verify_certificate(cert)

    def test_monotone_tolerance(self):
        cert = orderzero_certificate(M2, [0.5, 0.5])
        assert verify_certificate(cert, tol=1e-8).overall
        assert verify_certificate(cert, tol=1e-6).overall
        assert verify_certificate(cert, tol=1e-4).overall


class TestSerialization:
    def test_round_trip_identity(self, tmp_path):
        cert = identity_certificate(M2)
        path = tmp_path / "cert.json"
        save_certificate(cert, path)
        loaded = load_certificate(path)
        assert loaded.algebra == cert.algebra
        assert loaded.d == cert.d
        assert loaded.epsilon == cert.epsilon
        for a, b in zip(loaded.psi.choi_blocks, cert.psi.choi_blocks):
            assert np.array_equal(a, b)
        for x, y in zip(loaded.test_set, cert.test_set):
            assert all(np.array_equal(p, q) for p, q in zip(x.blocks, y.blocks))

    def test_byte_identical_round_trip(self, tmp_path):
        cert = orderzero_certificate(M23, [0.25, 0.75], seed=3)
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        save_certificate(cert, p1)
        save_certificate(load_certificate(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_golden_bytes(self, tmp_path):
        # literal bytes, which a save -> load -> save round trip would not pin
        path = tmp_path / "cert.json"
        save_certificate(identity_certificate(C1, test_set=(unit(C1),)), path)
        assert path.read_text() == GOLDEN_CERTIFICATE

    def test_mismatched_choi_dimension_names_field(self, tmp_path):
        cert = identity_certificate(M2)
        doc = certificate_to_document(cert)
        doc["psi"]["choi_blocks"][0] = doc["psi"]["choi_blocks"][0][:-1]
        with pytest.raises(ParseError, match="psi.choi_blocks"):
            certificate_from_document(doc)

    def test_schema_version_mismatch(self):
        doc = certificate_to_document(identity_certificate(M2))
        doc["schema_version"] = 99
        with pytest.raises(SchemaVersionMismatchError):
            certificate_from_document(doc)

    def test_missing_field_named(self):
        doc = certificate_to_document(identity_certificate(M2))
        del doc["epsilon"]
        with pytest.raises(ParseError, match="epsilon"):
            certificate_from_document(doc)

    def test_non_finite_rejected(self):
        doc = certificate_to_document(identity_certificate(M2))
        doc["test_set"][0]["blocks"][0][0] = [float("nan"), 0.0]
        with pytest.raises(ParseError, match="test_set"):
            certificate_from_document(doc)


class TestCanonicalLoaders:
    def test_bool_d_rejected(self):
        doc = certificate_to_document(identity_certificate(M2))
        doc["d"] = False
        with pytest.raises(ParseError, match="d:"):
            certificate_from_document(doc)

    @pytest.mark.parametrize("size", [2.7, 2.0, True])
    def test_non_integer_block_size_rejected(self, size):
        doc = map_to_document(tomiyama_map(2, 0.8))
        doc["source"]["blocks"] = [size]
        with pytest.raises(ParseError, match="source.blocks"):
            map_from_document(doc)

    def test_string_entries_rejected(self):
        doc = map_to_document(tomiyama_map(2, 0.8))
        doc["map"]["choi_blocks"][0][0] = ["1e0", "0"]
        with pytest.raises(ParseError, match="choi_blocks"):
            map_from_document(doc)

    def test_bool_entries_rejected(self):
        doc = certificate_to_document(identity_certificate(M2))
        doc["test_set"][0]["blocks"][0][0] = [True, False]
        with pytest.raises(ParseError, match="test_set"):
            certificate_from_document(doc)

    def test_oversized_integer_entry_rejected(self):
        doc = map_to_document(tomiyama_map(2, 0.8))
        doc["map"]["choi_blocks"][0][0] = [10**400, 0]
        with pytest.raises(ParseError, match="choi_blocks"):
            map_from_document(doc)

    def test_bool_epsilon_and_schema_version_rejected(self):
        doc = certificate_to_document(identity_certificate(M2))
        with pytest.raises(ParseError, match="epsilon"):
            certificate_from_document(dict(doc, epsilon=True))
        with pytest.raises(SchemaVersionMismatchError):
            certificate_from_document(dict(doc, schema_version=True))

    def test_oversized_integer_epsilon_rejected(self):
        # float(10**400) raised a raw OverflowError after the range check passed
        doc = certificate_to_document(identity_certificate(M2))
        with pytest.raises(ParseError, match="epsilon"):
            certificate_from_document(dict(doc, epsilon=10**400))
        assert certificate_from_document(dict(doc, epsilon=2)).epsilon == 2.0

    def test_integer_entries_accepted(self):
        doc = map_to_document(tomiyama_map(2, 0.8))
        doc["map"]["choi_blocks"][0] = [[int(re), int(im)] for re, im in doc["map"]["choi_blocks"][0]]
        assert map_from_document(doc).choi_blocks[0].shape == (4, 4)


class TestStructureChecks:
    """verify_certificate rejects data that does not fit together, naming the part."""

    CERT = orderzero_certificate(M2, [0.5, 0.5])  # d = 1, summands (M2, M2)

    @pytest.mark.parametrize(
        "changes, field",
        [
            (dict(psi=PMap.identity(FiniteCStar((2, 2)))), "psi"),  # wrong source
            (dict(psi=PMap.identity(M2)), "psi"),  # wrong target
            (dict(phis=(PMap.identity(M2), PMap.identity(M3))), "phis[1]"),
            (dict(test_set=(unit(M2), unit(M3))), "test_set[1] is not an element of A"),
            (dict(test_set=(unit(M2), 2.0 * unit(M2))), "test_set[1] is not a contraction"),
        ],
    )
    def test_rejected_with_exact_type(self, changes, field):
        with pytest.raises(StructurallyInvalidError, match=re.escape(field)) as info:
            verify_certificate(dataclasses.replace(self.CERT, **changes))
        assert type(info.value) is StructurallyInvalidError


def _broken_document(path, value):
    """The d = 1 certificate document with the entry at path replaced by value(entry)."""
    doc = certificate_to_document(orderzero_certificate(M2, [0.5, 0.5]))
    *parents, last = path
    node = doc
    for key in parents:
        node = node[key]
    node[last] = value(node[last])
    return doc


class TestLoaderChecks:
    @pytest.mark.parametrize(
        "path, value, field",
        [
            (("psi", "choi_blocks", 0, 3), lambda v: v[:1], "psi.choi_blocks[0][3]: expected"),
            (("phis", 1, "choi_blocks", 0, 0), lambda v: 1.0, "phis[1].choi_blocks[0][0]: "),
            (("summands",), lambda v: {"blocks": [2]}, "summands: expected a list"),
            (("summands",), lambda v: v[:1], "summands: expected 2 entries, got 1"),
            (("phis",), lambda v: v[:1], "phis: expected 2 entries"),
            (("phis",), lambda v: v + v, "phis: expected 2 entries"),
            (("test_set",), lambda v: {"blocks": []}, "test_set: expected a list"),
            (("summands", 1, "blocks"), lambda v: [], "summands[1].blocks: expected a non-empty"),
            (("algebra", "blocks"), lambda v: "2,3", "algebra.blocks: expected a non-empty list"),
        ],
    )
    def test_rejected_with_exact_type(self, path, value, field):
        with pytest.raises(ParseError, match=re.escape(field)) as info:
            certificate_from_document(_broken_document(path, value))
        assert type(info.value) is ParseError
        if "choi_blocks" in field:
            assert "[re, im] pair" in str(info.value)


class TestListReader:
    """Every list in a certificate file: a list, of the stated length, entry i read as K[i]."""

    @pytest.mark.parametrize(
        "path, value, message",
        [
            (("phis",), lambda v: v[:1], "phis: expected 2 entries, got 1"),
            (("phis",), lambda v: {}, "phis: expected a list"),
            # the count comes before a malformed entry
            (("summands",), lambda v: [{"size": 2}], "summands: expected 2 entries, got 1"),
            (("psi", "choi_blocks"), lambda v: {}, "psi.choi_blocks: expected a list"),
            (("psi", "choi_blocks"), lambda v: [], "psi.choi_blocks: expected 1 entries, got 0"),
            (
                ("phis", 1, "choi_blocks"),
                lambda v: v * 2,
                "phis[1].choi_blocks: expected 1 entries, got 2",
            ),
            (
                ("test_set", 0, "blocks"),
                lambda v: v * 2,
                "test_set[0].blocks: expected 1 entries, got 2",
            ),
            (("test_set", 2), lambda v: [], "test_set[2]: expected an object with 'blocks'"),
        ],
    )
    def test_message(self, path, value, message):
        with pytest.raises(ParseError) as info:
            certificate_from_document(_broken_document(path, value))
        assert type(info.value) is ParseError
        assert str(info.value) == message


class TestNumbersOnly:
    """A tolerance, an epsilon and a weight are real numbers: not a bool, None or a string."""

    @pytest.mark.parametrize("tol", [True, None, "1e-8"])
    def test_tolerance_not_a_number_rejected(self, tol):
        with pytest.raises(BadRangeError, match="tolerance"):
            verify_certificate(identity_certificate(M2), tol=tol)

    @pytest.mark.parametrize("epsilon", [True, None, "1e-6"])
    def test_epsilon_not_a_number_rejected(self, epsilon):
        # True was stored and verified as 1.0; None and a string raised a raw TypeError
        with pytest.raises(BadRangeError, match="epsilon"):
            identity_certificate(M2, epsilon=epsilon)
        with pytest.raises(BadRangeError, match="epsilon"):
            orderzero_certificate(M2, [0.5, 0.5], epsilon=epsilon)
        cert = dataclasses.replace(identity_certificate(M2), epsilon=epsilon)
        with pytest.raises(StructurallyInvalidError, match="epsilon") as info:
            verify_certificate(cert)
        assert type(info.value) is StructurallyInvalidError
        doc = certificate_to_document(identity_certificate(M2))
        with pytest.raises(ParseError, match="epsilon"):
            certificate_from_document(dict(doc, epsilon=epsilon))

    @pytest.mark.parametrize(
        "weights", [[True], [np.True_], ["1"], [None], [10**400], "ab", None, 1.0]
    )
    def test_weight_not_a_number_rejected(self, weights):
        # [True] and ["1"] were read as the weight 1.0; the rest raised a raw Python error
        with pytest.raises(BadWeightsError, match="weights must be a list of real numbers") as info:
            orderzero_certificate(M2, weights)
        assert type(info.value) is BadWeightsError

    def test_numpy_reals_accepted(self):
        cert = orderzero_certificate(M2, np.array([0.25, 0.75]), epsilon=np.float32(0.5))
        assert cert.epsilon == np.float32(0.5)
        assert verify_certificate(cert, tol=np.float64(1e-8)).overall
        assert verify_certificate(identity_certificate(M2, epsilon=1), tol=1).overall



def _trace_leg(summand, algebra_, weight):
    """a -> weight tr(a) / dim 1 from summand into algebra_: CP and contractive, not order zero."""
    traces = np.trace(algebra.unit_stack(summand), axis1=1, axis2=2).real
    images = weight * traces[:, None, None] / summand.embed_dim * np.eye(algebra_.embed_dim)
    return PMap(summand, algebra_, images)


GENERATED_ALGEBRAS = [
    FiniteCStar(blocks) for blocks in [(2,), (3,), (4,), (2, 3), (2, 2, 2), (3, 3), (1, 2, 3)]
]


class TestProvenOrderZero:
    """A leg whose order_zero_bound is <= tol is order zero by proof: nothing is sampled."""

    @pytest.fixture
    def sampled(self, monkeypatch):
        calls = []
        real = certificates_module.order_zero_defect
        monkeypatch.setattr(
            certificates_module,
            "order_zero_defect",
            lambda phi, **kw: calls.append(phi) or real(phi, **kw),
        )
        return calls

    def test_generated_legs_are_proven_without_samples(self, sampled):
        for alg in GENERATED_ALGEBRAS:
            weightings = ([0.5, 0.5], [0.2, 0.3, 0.5])
            certs = [orderzero_certificate(alg, w) for w in weightings]
            for cert in certs + [identity_certificate(alg)]:
                rep = verify_certificate(cert)
                assert rep.overall and not rep.caveat
                for leg in rep.legs:
                    assert 0 < leg.order_zero_bound <= positivity.DEFAULT_TOL
                    assert (leg.one_var_sup, leg.orth_pair_sup, leg.od_sup) == (None,) * 3
                    assert leg.order_zero_ok
        assert sampled == []

    def test_trace_leg_is_still_sampled(self, sampled):
        cert = orderzero_certificate(M23, [0.4, 0.6])
        leg = _trace_leg(cert.summands[0], M23, 0.4)
        rep = verify_certificate(dataclasses.replace(cert, phis=(leg,) + cert.phis[1:]))
        assert sampled == [leg]
        bad, good = rep.legs
        assert bad.order_zero_bound > 1 and bad.one_var_sup > 0.01 and not bad.order_zero_ok
        assert good.one_var_sup is None and good.order_zero_ok
        assert not rep.overall

    def test_non_order_zero_mutant_is_still_sampled(self, sampled):
        # criterion 10's mutant A: the trace-mixing map at lambda = 1 as the only leg
        bad = dataclasses.replace(
            identity_certificate(M2, epsilon=2.5), phis=(tomiyama_map(2, 1.0),)
        )
        leg = verify_certificate(bad, tol=1e-8).legs[0]
        assert sampled == [bad.phis[0]]
        assert leg.order_zero_bound > 1e-8 and leg.orth_pair_sup > 0.1
        assert not leg.order_zero_ok

    def test_bound_above_tol_samples(self, sampled):
        # the bound of w id is about 1e-12: a tolerance at the floor samples, and passes
        cert = orderzero_certificate(M23, [0.5, 0.5])
        rep = verify_certificate(cert, tol=1e-12)
        assert len(sampled) == 2
        assert all(leg.order_zero_bound > 1e-12 and leg.od_sup <= 1e-12 for leg in rep.legs)
        assert rep.overall

    def test_verify_cert_json_writes_null_suprema(self, capsys, tmp_path):
        path = str(tmp_path / "cert.json")
        save_certificate(orderzero_certificate(M23, [0.5, 0.5]), path)
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert main(["verify-cert", path, "--json"]) == 0
        for leg in json.loads(out.getvalue())["legs"]:
            assert leg["order_zero_bound"] <= 1e-8
            assert [leg[k] for k in ("one_var_sup", "orth_pair_sup", "od_sup")] == [None] * 3


def reference_decode_matrix(data, size, where):
    """The per-entry decoder: every entry checked, converted and named in its message."""
    if not isinstance(data, list) or len(data) != size * size:
        raise ParseError(f"{where}: expected {size * size} [re, im] pairs")
    out = np.empty(size * size, dtype=np.complex128)
    for idx, pair in enumerate(data):
        if not (isinstance(pair, list) and len(pair) == 2):
            raise ParseError(f"{where}[{idx}]: expected a [re, im] pair")
        if not all(type(v) in (int, float) for v in pair):
            raise ParseError(f"{where}[{idx}]: entries must be JSON numbers")
        try:
            out[idx] = complex(*pair)
        except OverflowError as exc:
            raise ParseError(f"{where}[{idx}]: {exc}") from exc
    if not np.all(np.isfinite(out.real)) or not np.all(np.isfinite(out.imag)):
        raise ParseError(f"{where}: non-finite entry")
    return out.reshape(size, size)


EXACT_ENTRIES = [
    [[-0.0, 0], [0, -0.0], [-0.0, -0.0], [1, -1]],
    [[2**53 + 1, 2**53 + 3], [-(2**64) - 1, 3**40], [10**300, -(10**308)], [7, 0]],
    [[1e308, -1e308], [5e-324, -5e-324], [0.1, 2.5e-310], [1.7976931348623157e308, 1]],
]
MALFORMED = [
    ("a string", "not a list"),
    ("one pair short", [[1, 0]] * 3),
    ("a bare number", [[1, 0], 2, [0, 0], [0, 0]]),
    ("three entries", [[1, 0], [0, 0, 0], [0, 0], [0, 0]]),
    ("an object", [[1, 0], [0, 0], {"re": 1, "im": 0}, [0, 0]]),
    ("a bool", [[1, 0], [0, 0], [0, True], [0, 0]]),
    ("a string entry", [[1, 0], [0, "0"], [0, 0], [0, 0]]),
    ("a null", [[1, 0], [0, 0], [0, 0], [None, 0]]),
    ("nan", [[1, 0], [float("nan"), 0], [0, 0], [0, 0]]),
    ("infinity", [[1, 0], [0, 0], [0, float("-inf")], [0, 0]]),
    ("an int past the float range", [[1, 0], [0, 0], [10**400, 0], [0, 0]]),
    ("a bool and a nan", [[True, 0], [float("nan"), 0], [0, 0], [0, 0]]),
    ("a nan and a huge int", [[float("nan"), 0], [0, -(10**400)], [0, 0], [0, 0]]),
]


class TestTwoPositiveReads:
    def test_non_cp_psi_reads_its_choi_block_twice(self, monkeypatch):
        # is_cp's pass, then the falsifier's search, whose kernel also decides the status
        psi = tomiyama_map(3, 1.15)  # 2-positive, not CP: UNFALSIFIED
        cert = dataclasses.replace(identity_certificate(M3), psi=psi)
        reads, eigvalsh = [], np.linalg.eigvalsh

        def counted(a, *args, **kwargs):
            reads.append(np.array(a))
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        assert verify_certificate(cert).psi_two_positive.status == UNFALSIFIED
        block = hermitian_part(psi.choi_blocks[0])
        assert sum(np.array_equal(a, block) for a in reads) == 2  # 3 with is_cp after the search
        assert sum(a.shape == (9, 9) for a in reads) == 3  # with phi_0 = id's one is_cp pass


class TestDecodeMatrix:
    @pytest.fixture
    def converted(self, monkeypatch):
        # a module global shadows the builtin: count the per-entry conversions
        calls = []
        monkeypatch.setattr(
            certificates_module, "complex", lambda *a: calls.append(a) or complex(*a),
            raising=False,
        )
        return calls

    @pytest.mark.parametrize("data", EXACT_ENTRIES)
    def test_bits_match_the_per_entry_decoder_in_one_conversion(self, data, converted):
        got = _decode_matrix(data, 2, "m")
        want = reference_decode_matrix(data, 2, "m")
        assert got.dtype == np.complex128 and got.shape == (2, 2)
        assert got.tobytes() == want.tobytes()  # -0.0 and rounded ints included
        assert converted == []

    @pytest.mark.parametrize("seed", range(5))
    def test_random_doubles_round_trip(self, seed, converted):
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 2**64, size=(9, 2), dtype=np.uint64).view(np.float64)
        bits[~np.isfinite(bits)] = -0.0
        assert _decode_matrix(bits.tolist(), 3, "m").tobytes() == bits.tobytes()
        assert converted == []

    @pytest.mark.parametrize("seed", range(5))
    def test_random_pair_lists_match_complex_bit_for_bit(self, seed):
        # signed zeros, ints (rounded as complex() rounds them) and doubles near the range end
        rng = np.random.default_rng(seed)
        pool = [-0.0, 0.0, 0, -3, 2**53 + 1, -(2**53) - 3, 10**300, 1e308, -1e308, 5e-324, 0.1]
        for size in (1, 2, 4):
            data = [[pool[i] for i in rng.integers(0, len(pool), 2)] for _ in range(size * size)]
            want = np.array([complex(*pair) for pair in data]).reshape(size, size)
            assert _decode_matrix(data, size, "m").tobytes() == want.tobytes()

    @pytest.mark.parametrize("label,data", MALFORMED, ids=[m[0] for m in MALFORMED])
    def test_malformed_input_keeps_its_message(self, label, data):
        with pytest.raises(ParseError) as want:
            reference_decode_matrix(data, 2, "phis[0].choi_blocks[1]")
        with pytest.raises(ParseError) as got:
            _decode_matrix(data, 2, "phis[0].choi_blocks[1]")
        assert str(got.value) == str(want.value)


class TestMapFiles:
    def test_round_trip(self, tmp_path):
        phi = tomiyama_map(3, 1.4)
        path = tmp_path / "map.json"
        save_map(phi, path)
        loaded = load_map(path)
        assert loaded.source == phi.source
        assert loaded.target == phi.target
        assert np.array_equal(loaded.choi_blocks[0], phi.choi_blocks[0])

    def test_byte_stable(self, tmp_path):
        phi = tomiyama_map(2, 0.8)
        p1, p2 = tmp_path / "m1.json", tmp_path / "m2.json"
        save_map(phi, p1)
        save_map(load_map(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_golden_bytes(self, tmp_path):
        path = tmp_path / "map.json"
        save_map(PMap.identity(C1), path)
        assert path.read_text() == GOLDEN_MAP

    def test_missing_field(self):
        with pytest.raises(ParseError, match="target"):
            map_from_document({"schema_version": 1, "source": {"blocks": [2]}, "map": {}})


# -- properties of the file formats ------------------------------------------------

formats = settings(max_examples=40, deadline=None)
small_algebras = st.lists(st.integers(1, 2), min_size=1, max_size=2).map(
    lambda sizes: FiniteCStar(tuple(sizes))
)
seeds = st.integers(0, 2**32 - 1)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)


@st.composite
def certificates(draw):
    rng = np.random.default_rng(draw(seeds))
    alg = draw(small_algebras)
    summands = tuple(draw(st.lists(small_algebras, min_size=1, max_size=3)))
    return DrCertificate(
        algebra=alg,
        d=len(summands) - 1,
        summands=summands,
        psi=random_map(rng, alg, direct_sum(summands)),
        phis=tuple(random_map(rng, s, alg) for s in summands),
        test_set=tuple(
            algebra.random_contraction(alg, int(rng.integers(2**31)))
            for _ in range(draw(st.integers(0, 3)))
        ),
        epsilon=draw(st.floats(1e-300, 1e300)),
    )


@st.composite
def mutated(draw, doc):
    """doc with one value replaced or one entry deleted, anywhere in the tree."""
    doc = copy.deepcopy(doc)
    parent, key, node = None, None, doc
    while isinstance(node, (dict, list)) and node and draw(st.integers(0, 3)):
        key = draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
        parent, node = node, node[key]
    if parent is None:
        return draw(json_values)
    if draw(st.booleans()):
        del parent[key]
    else:
        parent[key] = draw(json_values)
    return doc


def _check_document(load, command, text: bytes, cli_when_loaded: bool) -> None:
    """ParseError is the library's only failure, and then the CLI exits 2."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "wb") as fh:
            fh.write(text)
        try:
            load(path)
            loaded = True
        except ParseError:
            loaded = False
        if loaded and not cli_when_loaded:
            return
        code = _cli_exit([command, path])
        assert code in (0, 1) if loaded else code == 2


def _cli_exit(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@formats
@given(small_algebras, small_algebras, seeds)
def test_map_save_load_save_is_byte_identical(source, target, seed):
    phi = random_map(np.random.default_rng(seed), source, target)
    with tempfile.TemporaryDirectory() as tmp:
        p1, p2 = os.path.join(tmp, "a.json"), os.path.join(tmp, "b.json")
        save_map(phi, p1)
        save_map(load_map(p1), p2)
        with open(p1, "rb") as f1, open(p2, "rb") as f2:
            assert f1.read() == f2.read()


@formats
@given(certificates())
def test_certificate_save_load_save_is_byte_identical(cert):
    with tempfile.TemporaryDirectory() as tmp:
        p1, p2 = os.path.join(tmp, "a.json"), os.path.join(tmp, "b.json")
        save_certificate(cert, p1)
        save_certificate(load_certificate(p1), p2)
        with open(p1, "rb") as f1, open(p2, "rb") as f2:
            assert f1.read() == f2.read()


MAP_DOC = map_to_document(tomiyama_map(2, 1.4))
CERT_DOC = certificate_to_document(orderzero_certificate(FiniteCStar((1, 1)), [0.5, 0.5]))


@formats
@given(mutated(MAP_DOC))
def test_fuzzed_map_document(doc):
    _check_document(load_map, "check-cp", json.dumps(doc).encode(), cli_when_loaded=True)


@formats
@given(mutated(CERT_DOC))
def test_fuzzed_certificate_document(doc):
    # a mutated certificate that still loads is not verified here
    _check_document(
        load_certificate, "verify-cert", json.dumps(doc).encode(), cli_when_loaded=False
    )


@formats
@given(st.data())
def test_truncated_or_random_bytes(data):
    for doc, load, command in (
        (MAP_DOC, load_map, "check-cp"),
        (CERT_DOC, load_certificate, "verify-cert"),
    ):
        text = json.dumps(doc).encode()
        cut = text[: data.draw(st.integers(0, len(text) - 1))]
        for junk in (cut, data.draw(st.binary(max_size=64))):
            _check_document(load, command, junk, cli_when_loaded=False)


@pytest.mark.parametrize(
    "text",
    [b"[" * 100_000, b'{"schema_version": ' + b"9" * 5000 + b"}", b"\xff\xfe{}"],
    ids=["deep-nesting", "5000-digit-integer", "not-utf8"],
)
def test_unreadable_document_is_parse_error(text):
    for load, command in ((load_map, "check-cp"), (load_certificate, "verify-cert")):
        _check_document(load, command, text, cli_when_loaded=False)
