"""Exception types shared across the package, the one check of a requested
tolerance and of an integer parameter, and the one refusal of a job past its cap."""

import operator
import sys


class LltLabError(Exception):
    """Base class for all package errors."""


class InvalidParameterError(LltLabError, ValueError):
    """A caller-supplied parameter is out of range or malformed."""


class UnsupportedError(LltLabError):
    """A mathematically meaningful rejection: the operation's hypotheses
    are not satisfied by the given input (infinite moment, discontinuous
    density, non-decaying tail, ...).  This is a signal, not a crash."""


class InconsistentCfError(LltLabError):
    """A characteristic-function evaluation is not Hermitian: the inverse
    transform produced an imaginary part too large to be roundoff."""


class UnknownDistributionError(InvalidParameterError):
    """A distribution spec string could not be resolved."""


def require_tol(tol) -> None:
    """Refuse a requested tolerance that is not positive (NaN included)."""
    if not tol > 0:
        raise InvalidParameterError(f"tol must be positive, got {tol!r}")


def require_integer(value, low: int, name: str) -> int:
    """``value`` as an int, refused unless it is an integer (not a float,
    even a whole one) of at least ``low`` that a float can hold."""
    try:
        v = operator.index(value)
    except TypeError:
        raise InvalidParameterError(f"{name} must be an integer, got {value!r}") from None
    if abs(v) > sys.float_info.max:     # str(v) and f"{v:e}" may fail: count its bits
        raise InvalidParameterError(f"{name} must be within the largest float, got an "
                                    f"integer of {v.bit_length()} bits")
    if v < low:
        raise InvalidParameterError(f"{name} must be an integer >= {low}, got {v}")
    return v


_MAX_TABLE = 2 ** 22  # most entries of a table over the points of a grid
_SHORT_TAIL = 2.0 ** -64  # truncation bound of a decaying side


def require_at_most(what: str, count, cap: int, unit: str) -> None:
    """Refuse a job of more than ``cap`` ``unit`` (or of a NaN count),
    before any of them is formed."""
    if not count <= cap:
        raise UnsupportedError(f"{what} needs more than {cap} {unit}")
