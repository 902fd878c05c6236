"""The library surface, pinned: any new parameter, method or export is a one-line diff here."""

import inspect

import posmap
from posmap import Element, PMap

CONSTANTS = {"CERTIFIED_POSITIVE", "UNFALSIFIED", "VIOLATED"}

# sorted parameter names of every callable in posmap.__all__
CALLABLES = {
    "DefectReport": ["od_sup", "one_var_sup", "orth_pair_sup", "samples", "seed"],
    "DrCertificate": ["algebra", "d", "epsilon", "phis", "psi", "summands", "test_set"],
    "Element": ["algebra", "blocks"],
    "FamilyReport": [
        "closed_form_dev", "closed_form_ok", "defect_bound", "defect_max", "defect_ok", "eps",
        "exceeds_next_threshold", "falsifier", "k", "lam", "m", "mixing_parameter", "n",
        "next_threshold", "samples", "seed",
    ],
    "FiniteCStar": ["block_sizes"],
    "KposVerdict": ["best_value", "restarts_capped", "restarts_used", "status", "witness"],
    "OzDecomposition": [
        "commute_defect", "h", "mult_defect", "order_zero_bound", "pi_images",
        "reconstruct_defect",
    ],
    "PMap": ["images", "source", "target"],
    "VerifyReport": [
        "approx_errors", "approx_failures", "caveat", "epsilon", "legs", "overall",
        "psi_contraction_ok", "psi_norm", "psi_two_positive", "sum_contractive_ok", "sum_norm",
    ],
    "Witness": ["block", "factors_left", "factors_right", "k", "value", "vector_norm"],
    "composed_mixing_parameter": ["eps", "lam", "m"],
    "corner_mixture_map": ["eps", "lam", "m", "n"],
    "cp_repair": ["phi"],
    "identity_certificate": ["algebra", "epsilon", "test_set"],
    "is_cp": ["phi", "tol"],
    "is_positive": ["tol", "x"],
    "k_positivity_falsify": ["k", "phi", "restarts", "seed", "tol"],
    "kadison_gap": ["a", "phi"],
    "lemma31_positive_check": ["a", "d", "eps"],
    "lemma31_unitary_check": ["d", "eps", "u"],
    "load_certificate": ["path"],
    "load_map": ["path"],
    "lstsq_preimage": ["phi", "y"],
    "matrix_units": ["algebra"],
    "od_defect": ["a", "phi"],
    "one_var_defect": ["a", "phi"],
    "op_norm": ["m"],
    "order_zero_defect": ["phi", "samples", "seed"],
    "orderzero_certificate": ["algebra", "epsilon", "seed", "weights"],
    "oz_construct": ["h", "pi_images", "source"],
    "oz_decompose": ["phi"],
    "pmap_norm": ["phi"],
    "polar_lift": ["phi", "x", "y"],
    "polar_unitary": ["y"],
    "random_contraction": ["algebra", "seed"],
    "random_positive_contraction": ["algebra", "seed"],
    "save_certificate": ["cert", "path"],
    "save_map": ["path", "phi"],
    "schwartz_gap": ["a", "b", "phi"],
    "spanning_positive_contractions": ["algebra"],
    "tomiyama_map": ["lam", "n"],
    "tomiyama_threshold": ["k", "n"],
    "unit": ["algebra"],
    "verify_certificate": ["cert", "restarts", "samples", "seed", "tol"],
    "verify_corner_family": ["eps", "k", "lam", "m", "n", "restarts", "samples", "seed"],
    "witness_verify": ["phi", "tol", "w"],
}

# sorted parameter names, besides self, of the methods, properties and operators a caller reaches
METHODS = {
    PMap: {
        "__add__": ["other"],
        "__call__": ["x"],
        "__mul__": ["c"],
        "__rmul__": ["c"],
        "act": ["xs"],
        "apply": ["x"],
        "choi_blocks": [],
        "from_action": ["images", "source", "target"],
        "from_choi": ["choi_blocks", "source", "target"],
        "identity": ["algebra"],
        "is_selfadjoint": ["tol"],
        "scale": ["c"],
        "transfer": [],
        "unit_image": [],
    },
    Element: {
        "__add__": ["other"],
        "__mul__": ["other"],
        "__rmul__": ["other"],
        "__sub__": ["other"],
        "adj": [],
        "blocks": [],
        "embedded": [],
        "norm": [],
    },
}


def _params(fn) -> list[str]:
    return sorted(inspect.signature(fn).parameters)


def _methods(cls) -> dict[str, list[str]]:
    """Every public method, property and operator defined on cls, with its parameters."""
    out = {}
    for name, attr in vars(cls).items():
        private = name.startswith("_") and not name.endswith("__")
        if private or name in ("__init__", "__repr__"):
            continue
        fn = attr.fget if isinstance(attr, property) else getattr(cls, name)
        if callable(fn):
            out[name] = [p for p in _params(fn) if p != "self"]
    return out


def test_exports_are_pinned():
    assert set(posmap.__all__) == CONSTANTS | set(CALLABLES)
    got = {name: _params(getattr(posmap, name)) for name in posmap.__all__ if name not in CONSTANTS}
    assert got == CALLABLES


def test_methods_are_pinned():
    for cls, methods in METHODS.items():
        assert _methods(cls) == methods, cls.__name__
