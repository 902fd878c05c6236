"""Numerical toolkit for positive linear maps between finite-dimensional
C*-algebras: positivity hierarchy tests, order-zero analysis and structure
decomposition, the corner-mixture example family, and verification of
decomposition-rank certificates.
"""

__version__ = "0.1.0"

from .algebra import (
    Element,
    FiniteCStar,
    is_positive,
    matrix_units,
    random_contraction,
    random_positive_contraction,
    spanning_positive_contractions,
    unit,
)
from .certificates import (
    DrCertificate,
    VerifyReport,
    identity_certificate,
    load_certificate,
    load_map,
    orderzero_certificate,
    save_certificate,
    save_map,
    verify_certificate,
)
from .family import (
    FamilyReport,
    composed_mixing_parameter,
    corner_mixture_map,
    verify_corner_family,
)
from .linalg import op_norm, polar_unitary
from .maps import PMap, lstsq_preimage, pmap_norm
from .orderzero import (
    DefectReport,
    OzDecomposition,
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
from .positivity import (
    CERTIFIED_POSITIVE,
    UNFALSIFIED,
    VIOLATED,
    KposVerdict,
    Witness,
    is_cp,
    k_positivity_falsify,
    tomiyama_map,
    tomiyama_threshold,
    witness_verify,
)

__all__ = [
    "CERTIFIED_POSITIVE",
    "DefectReport",
    "DrCertificate",
    "Element",
    "FamilyReport",
    "FiniteCStar",
    "KposVerdict",
    "OzDecomposition",
    "PMap",
    "UNFALSIFIED",
    "VIOLATED",
    "VerifyReport",
    "Witness",
    "composed_mixing_parameter",
    "corner_mixture_map",
    "cp_repair",
    "identity_certificate",
    "is_cp",
    "is_positive",
    "k_positivity_falsify",
    "kadison_gap",
    "lemma31_positive_check",
    "lemma31_unitary_check",
    "load_certificate",
    "load_map",
    "lstsq_preimage",
    "matrix_units",
    "od_defect",
    "one_var_defect",
    "op_norm",
    "order_zero_defect",
    "orderzero_certificate",
    "oz_construct",
    "oz_decompose",
    "pmap_norm",
    "polar_lift",
    "polar_unitary",
    "random_contraction",
    "random_positive_contraction",
    "save_certificate",
    "save_map",
    "schwartz_gap",
    "spanning_positive_contractions",
    "tomiyama_map",
    "tomiyama_threshold",
    "unit",
    "verify_certificate",
    "verify_corner_family",
    "witness_verify",
]
