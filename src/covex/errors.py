"""Exception types shared across the package."""


class CovexError(Exception):
    """Base class for all package-specific errors."""


class FieldError(CovexError, ValueError):
    """Operation requested over an unsupported field."""


class DimensionMismatchError(CovexError, ValueError):
    """Operands have incompatible shapes or ambient dimensions."""


class SingularMatrixError(CovexError, ValueError):
    """A matrix that must be invertible is singular."""


class NotCovexillaryError(CovexError, ValueError):
    """The essential set of a partial permutation is not a chain.

    Carries the two essential boxes witnessing the violation.
    """

    def __init__(self, first: tuple, second: tuple):
        self.first = first
        self.second = second
        super().__init__(
            f"essential boxes {first} and {second} are not chained "
            "(rows and columns must both be weakly increasing)"
        )


class EssentialDataError(CovexError, ValueError):
    """Essential-set data does not come from any partial permutation."""


class CellMembershipError(CovexError, ValueError):
    """A point required to lie in a specific open cell does not."""


class InvariantError(CovexError, ValueError):
    """A constructed point violates a structural invariant."""


class InputError(CovexError, ValueError):
    """Malformed or inconsistent user-supplied input (file or CLI)."""


class FrozenInstanceError(AttributeError):
    """Assignment to, or deletion of, a field of a frozen value."""
