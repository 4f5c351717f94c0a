"""Exception types shared across the package."""


class QtcharError(Exception):
    """Base class for all package errors."""


class OddCycleError(QtcharError):
    """The diagram has no 2-coloring (an odd cycle exists)."""


class NonDominantError(QtcharError):
    """A dominant weight was required."""


class MixedBaseError(QtcharError):
    """An operation required all spectral parameters to share one base."""


class NotIDominantError(QtcharError):
    """The monomial has a negative exponent in the requested direction."""


class NotLDominantError(QtcharError):
    """The monomial has a negative exponent somewhere."""


class NotComparableError(QtcharError):
    """The two monomials are not related by the root-monomial order."""


class NotDecomposableError(QtcharError):
    """The character is not a combination of rank-one blocks in this direction."""


class NotInParitySetError(QtcharError):
    """The monomial violates the parity condition of the crystal subring."""


class CapExceededError(QtcharError):
    """An enumeration exceeded its configured size cap."""


class InconsistentCharacterError(QtcharError):
    """The defining axioms forced conflicting coefficients."""


class LDominantEncounteredError(QtcharError):
    """A lower dominant monomial appeared, so induction underdetermines the result."""


class OutOfRangeError(QtcharError):
    """An index was outside the valid range for the given rank."""
