"""Exception hierarchy for the solver package, and the integer and real
number checks that raise one of its errors."""

import math
import operator


class SolverError(Exception):
    """Base class for all errors raised by this package."""


class MalformedRow(SolverError):
    """A CSV row could not be parsed (wrong column count or a bad number)."""


class DuplicateId(SolverError):
    """Two generator rows share the same unit id."""


class InvariantViolation(SolverError):
    """Input data violates a structural invariant (bounds, ids, signs)."""


class LengthMismatch(SolverError):
    """Sequences that must share the instance length do not."""


class InfeasibleCommitment(SolverError):
    """The load cannot be served by the committed units."""


class Infeasible(SolverError):
    """No commitment at all can serve the load."""


class TooLarge(SolverError):
    """Problem exceeds the exhaustive-enumeration guard."""


class InfeasibleRelaxation(SolverError):
    """The relaxed first block is infeasible, hence so is the full problem."""


class TooManyQubits(SolverError):
    """A 2**n amplitude table would exceed its size guard."""


def require_integer(name: str, value: object) -> None:
    """Raise InvariantViolation naming ``name`` unless ``value`` is an
    integer, that is, unless :func:`operator.index` accepts it."""
    try:
        operator.index(value)
    except TypeError:
        raise InvariantViolation(f"{name}={value!r} is not an integer") from None


def require_real(name: str, value: object) -> None:
    """Raise InvariantViolation naming ``name`` unless ``value`` is a real
    number, that is, unless :func:`math.isfinite` accepts it."""
    try:
        math.isfinite(value)
    except TypeError:
        raise InvariantViolation(f"{name}={value!r} is not a real number") from None
