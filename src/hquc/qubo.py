"""Second ADMM block: binary quadratic objective over the auxiliary bits.

With the continuous variables frozen, the augmented Lagrangian terms that
depend on the binary vector ``z`` are, per component (writing ``a = y + r``):

    lam * (a - z) + (rho / 2) * (a - z)**2

Using ``z**2 == z`` for binary ``z`` this collapses to a purely diagonal
QUBO: ``energy(z) = sum_i q_i z_i + constant`` with

    q_i      = -lam_i + rho * (1/2 - a_i)
    constant = sum_i (lam_i * a_i + (rho / 2) * a_i**2)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import InvariantViolation, LengthMismatch, TooLarge

#: Exhaustive QUBO solve guard (2**24 assignments).
EXACT_SOLVE_LIMIT = 24


@dataclass(frozen=True)
class QuboProblem:
    """Diagonal binary quadratic objective: ``sum_i linear[i] * z_i + constant``."""

    linear: tuple[float, ...]
    constant: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "linear", tuple(float(q) for q in self.linear))

    @property
    def n(self) -> int:
        return len(self.linear)

    def energy(self, bits: Sequence[int]) -> float:
        if len(bits) != self.n:
            raise LengthMismatch(f"got {len(bits)} bits, expected {self.n}")
        e = 0.0
        for q, z in zip(self.linear, bits):
            if z:
                e += q
        return e + self.constant

    # Read-only arrays for the QAOA kernel, each built once per problem, since
    # the angle search runs the circuit on one problem about a hundred times.

    @cached_property
    def linear_array(self) -> np.ndarray:
        """``linear`` as a read-only float array."""
        return _read_only(np.asarray(self.linear))

    @cached_property
    def phase_slopes(self) -> np.ndarray:
        """``linear / phase_scale(self)``, read-only: the per-qubit slopes the
        QAOA cost layer turns into phases."""
        return _read_only(self.linear_array / phase_scale(self))

    @cached_property
    def phase_rows(self) -> np.ndarray:
        """Read-only complex ``(2, n)``, zeros over :attr:`phase_slopes`: the
        cost step's ``zh`` in :func:`hquc.qaoa.run_circuit`, which owns its
        layout.  Stored complex so that the cost step does not cast it."""
        rows = np.stack((np.zeros(self.n), self.phase_slopes))
        return _read_only(rows.astype(complex))

    def energies(self) -> np.ndarray:
        """Energy of every assignment, indexed by the bits-as-integer value."""
        if self.n > EXACT_SOLVE_LIMIT:
            raise TooLarge(f"n={self.n} exceeds limit {EXACT_SOLVE_LIMIT}")
        idx = np.arange(1 << self.n)
        e = np.zeros(1 << self.n)
        for i, q in enumerate(self.linear):
            e += q * ((idx >> i) & 1)
        return e + self.constant


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def phase_scale(qubo: QuboProblem) -> float:
    """Coefficient normalizer: ``max_i |q_i|``, or 1 for an all-zero objective."""
    if qubo.n == 0:
        return 1.0
    biggest = max(abs(q) for q in qubo.linear)
    return biggest if biggest > 0.0 else 1.0


def build_qubo(
    y: Sequence[float],
    r: Sequence[float],
    lam: Sequence[float],
    rho: float,
) -> QuboProblem:
    """Assemble the second-block QUBO from the frozen iterates."""
    if not (len(y) == len(r) == len(lam)):
        raise LengthMismatch(
            f"y, r, lam lengths differ: {len(y)}, {len(r)}, {len(lam)}"
        )
    if rho <= 0.0:
        raise InvariantViolation(f"rho {rho} <= 0")
    a = [yi + ri for yi, ri in zip(y, r)]
    linear = tuple(-li + rho * (0.5 - ai) for li, ai in zip(lam, a))
    constant = math.fsum(li * ai + (rho / 2.0) * ai * ai for li, ai in zip(lam, a))
    return QuboProblem(linear, constant)


def solve_qubo_exact(qubo: QuboProblem) -> tuple[tuple[int, ...], float]:
    """Global minimum by exhaustive enumeration.

    Ties break toward bit value 0 scanning from unit 1 upward, i.e. toward the
    lexicographically smallest bits tuple.
    """
    n = qubo.n
    if n == 0:
        return (), qubo.constant
    energies = qubo.energies()
    emin = float(energies.min())
    best = min(
        tuple(int(m >> i) & 1 for i in range(n))
        for m in np.flatnonzero(energies == emin)
    )
    return best, qubo.energy(best)


def solve_qubo_perbit(qubo: QuboProblem) -> tuple[tuple[int, ...], float]:
    """Fast path exploiting separability: bit i is on iff its slope is negative.

    Matches :func:`solve_qubo_exact` bit-for-bit including the tie rule.
    """
    bits = tuple(1 if q < 0.0 else 0 for q in qubo.linear)
    return bits, qubo.energy(bits)
