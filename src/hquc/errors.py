"""Exception hierarchy for the solver package, and the input rules that
raise one of its errors: :func:`require_integer`, :func:`require_finite`,
:func:`require_float` and :func:`require_length`.  Each rule is written
here once; the constructors and entry points that check their inputs call
it rather than a copy of their own.  The helpers of the ADMM loop check
nothing: their one caller, :func:`~hquc.admm.admm_steps`, passes them
what :class:`~hquc.admm.AdmmConfig` and :class:`~hquc.ucmodel.UCInstance`
have checked already."""

import math
import operator
from typing import Sized


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


class InfeasibleRelaxation(Infeasible):
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


def require_finite(name: str, value: object) -> None:
    """Raise InvariantViolation naming ``name`` unless ``value`` is a finite
    real number: one that :func:`math.isfinite` accepts and finds finite.
    An ``int`` past the float range is refused without printing its digits."""
    try:
        if math.isfinite(value):
            return
    except TypeError:
        raise InvariantViolation(f"{name}={value!r} is not a real number") from None
    except OverflowError:
        raise InvariantViolation(f"{name} is past the float range") from None
    raise InvariantViolation(f"{name}={value} is not finite")


def require_float(name: str, value: object) -> float:
    """``float(value)``, raising InvariantViolation naming ``name`` where
    :func:`float` refuses ``value``.  NaN and infinities pass."""
    try:
        return float(value)
    except (TypeError, ValueError):
        raise InvariantViolation(f"{name}={value!r} is not a real number") from None
    except OverflowError:
        raise InvariantViolation(f"{name} is past the float range") from None


def require_length(name: str, seq: Sized, n: int) -> None:
    """Raise LengthMismatch naming ``name`` unless ``seq`` has length ``n``."""
    if len(seq) != n:
        raise LengthMismatch(f"{name} has length {len(seq)}, expected {n}")
