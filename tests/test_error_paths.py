"""Raises that no other test reaches: each one's exact exception type and the field it names."""

import re

import numpy as np
import pytest

from posmap.algebra import (
    FiniteCStar,
    basis_element,
    embed_stack,
    from_embedded,
    matrix_units,
    unit,
)
from posmap.certificates import map_from_document, map_to_document
from posmap.errors import (
    AlgebraMismatchError,
    BadRangeError,
    NotHermitianError,
    NotHomomorphismError,
    NotUnitaryError,
    ParseError,
    PreconditionFailedError,
)
from posmap.family import composed_mixing_parameter, verify_corner_family
from posmap.maps import PMap, lstsq_preimage
from posmap.orderzero import (
    cp_repair,
    lemma31_positive_check,
    lemma31_unitary_check,
    oz_construct,
    polar_lift,
)

C1 = FiniteCStar((1,))
M2 = FiniteCStar((2,))
M3 = FiniteCStar((3,))


def _leaking_map_doc():
    """A C -> C (+) C map file whose one Choi block has entries off the target's diagonal blocks."""
    doc = map_to_document(PMap(C1, FiniteCStar((1, 1)), np.eye(2)[None]))
    doc["map"]["choi_blocks"][0] = [[1.0, 0.0]] * 4
    return doc


def _left_multiplication_by_e01():
    """x -> e_01 x on M_2: phi(x*) != phi(x)*, so the map is not self-adjoint."""
    e01 = basis_element(M2, 0, 0, 1)
    return PMap.from_action(M2, M2, [e01 * e for e in matrix_units(M2)])


def _swap_unitary():
    """[[0, 1], [1, 0]] in 2 x 2 blocks of size 2: the (1, 1) block is 0, not unitary."""
    return np.kron(np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(2))


ERROR_PATHS = [
    # a map file: a from_choi error names the map (the list counts are in TestListReader)
    (
        "from_choi error in a file",
        lambda: map_from_document(_leaking_map_doc()),
        ParseError,
        "map: Choi block 0 leaks outside the embedded target blocks",
    ),
    # maps
    (
        "sum across algebras",
        lambda: PMap.identity(M2) + PMap.identity(M3),
        AlgebraMismatchError,
        "maps act between different algebras",
    ),
    (
        "preimage of a foreign element",
        lambda: lstsq_preimage(PMap.identity(M2), unit(M3)),
        AlgebraMismatchError,
        "element does not belong to the target algebra",
    ),
    # order zero
    (
        "oz_construct image count",
        lambda: oz_construct(M2, matrix_units(M2)[:3], unit(M2)),
        NotHomomorphismError,
        "expected 4 images, got 3",
    ),
    (
        "cp_repair on a map that is not self-adjoint",
        lambda: cp_repair(_left_multiplication_by_e01()),
        NotHermitianError,
        "cp_repair needs a self-adjoint map",
    ),
    (
        "polar_lift with x outside the target",
        lambda: polar_lift(PMap.identity(M2), unit(M3), unit(M2)),
        NotUnitaryError,
        "x must live in the target algebra",
    ),
    (
        "block size not dividing the size",
        lambda: lemma31_positive_check(np.eye(3) / 2, 2, 0.1),
        PreconditionFailedError,
        "matrix size 3 is not a multiple of the block size 2",
    ),
    (
        "lemma 3.1 unitary precondition",
        lambda: lemma31_unitary_check(_swap_unitary(), 2, 0.1),
        PreconditionFailedError,
        "||u_{1,1}* u_{1,1} - 1|| < eps does not hold",
    ),
    # the corner family
    (
        "composed mixing parameter eps",
        lambda: composed_mixing_parameter(3, 1.0, 1.4),
        BadRangeError,
        "need eps in (0, 1), got 1.0",
    ),
    (
        "corner family with k >= n",
        lambda: verify_corner_family(3, 1, 3, 1.4, 0.05),
        BadRangeError,
        "need 1 <= k < n, got k=3, n=3",
    ),
    # algebra
    (
        "from_embedded shape",
        lambda: from_embedded(M2, np.eye(3)),
        AlgebraMismatchError,
        "expected shape (2, 2), got (3, 3)",
    ),
    (
        "embed_stack with a foreign element",
        lambda: embed_stack(M2, [unit(M2), unit(M3)]),
        AlgebraMismatchError,
        "an element does not belong to",
    ),
]


@pytest.mark.parametrize(
    "call, error, field", [p[1:] for p in ERROR_PATHS], ids=[p[0] for p in ERROR_PATHS]
)
def test_raises_exact_type_naming_the_field(call, error, field):
    with pytest.raises(error, match=re.escape(field)) as info:
        call()
    assert type(info.value) is error

