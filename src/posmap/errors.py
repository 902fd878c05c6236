"""Exception types shared across the package."""


class PosmapError(Exception):
    """Base class for all package-specific errors."""


class NonSquareError(PosmapError, ValueError):
    pass


class NotHermitianError(PosmapError, ValueError):
    pass


class NumericalFailureError(PosmapError, RuntimeError):
    """An underlying numerical routine failed to converge."""


class NotCommutingError(PosmapError, ValueError):
    pass


class AlgebraMismatchError(PosmapError, ValueError):
    """Operands belong to different finite-dimensional C*-algebras."""


class CountMismatchError(PosmapError, ValueError):
    pass


class DimensionMismatchError(PosmapError, ValueError):
    pass


class MultiBlockUnsupportedError(PosmapError, ValueError):
    """Operation restricted to single-block (full matrix algebra) operands."""


class BadRangeError(PosmapError, ValueError):
    pass


class NotPositiveContractionError(PosmapError, ValueError):
    pass


class NotHomomorphismError(PosmapError, ValueError):
    pass


class NotUnitaryError(PosmapError, ValueError):
    pass


class PreconditionFailedError(PosmapError, ValueError):
    pass


class BadWeightsError(PosmapError, ValueError):
    pass


class StructurallyInvalidError(PosmapError, ValueError):
    """Certificate data is internally inconsistent (dimension or count mismatch)."""


class ParseError(PosmapError, ValueError):
    """A serialized document could not be decoded; the message names the field."""


class SchemaVersionMismatchError(ParseError):
    pass
