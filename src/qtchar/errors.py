"""Exception types shared across the package, and the one parser of the
size caps' environment overrides."""

import os

# The default of every size cap: far above any test or benchmark case
DEFAULT_CAP = 10**6


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


def env_cap() -> int:
    """The size cap read from the environment variable QCHAR_MAX_TERMS,
    DEFAULT_CAP when unset; anything but a positive integer is refused."""
    text = os.environ.get("QCHAR_MAX_TERMS")
    if text is None:
        return DEFAULT_CAP
    try:
        cap = int(text)
        if cap >= 1:
            return cap
    except ValueError:
        pass
    raise QtcharError(f"QCHAR_MAX_TERMS must be a positive integer, got {text!r}")


def _check_pairs(left: int, right: int, cap: int) -> None:
    """Refuse a product step of left x right term pairs over cap, before it is formed."""
    pairs = left * right
    if pairs > cap:
        raise CapExceededError(f"product step exceeded {cap} term pairs: {pairs}")


class InconsistentCharacterError(QtcharError):
    """The defining axioms forced conflicting coefficients."""


class LDominantEncounteredError(QtcharError):
    """A lower dominant monomial appeared, so induction underdetermines the result."""


class OutOfRangeError(QtcharError):
    """An index was outside the valid range for the given rank."""
