"""Second ADMM block: binary quadratic objective over the auxiliary bits.

With the continuous variables frozen, the augmented Lagrangian terms that
depend on the binary vector ``z`` are, per component (writing ``a = y + r``):

    lam * (a - z) + (rho / 2) * (a - z)**2

Using ``z**2 == z`` for binary ``z`` this collapses to a purely diagonal
QUBO: ``energy(z) = sum_i q_i z_i + constant`` with

    q_i      = -lam_i + rho * (1/2 - a_i)
    constant = sum_i (lam_i * a_i + (rho / 2) * a_i**2)

The problem is pure Python, and so are the phase slopes
(:attr:`QuboProblem.slopes`) and the ``(q_i, h_i)`` pairs
(:attr:`QuboProblem.terms`) that the QAOA kernel reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .errors import InvariantViolation, LengthMismatch


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

    @cached_property
    def slopes(self) -> tuple[float, ...]:
        """The slopes ``linear / phase_scale(self)`` that the QAOA cost layer
        turns into phases, built once: the angle search evaluates one
        problem about a hundred times."""
        scale = phase_scale(self)
        return tuple(q / scale for q in self.linear)

    @cached_property
    def terms(self) -> tuple[tuple[float, float], ...]:
        """Each qubit's ``(linear[i], slopes[i])``, the pairs the QAOA
        kernel loops over, built once per problem."""
        return tuple(zip(self.linear, self.slopes))


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


def solve_qubo_perbit(qubo: QuboProblem) -> tuple[tuple[int, ...], float]:
    """Exact minimum by separability: bit i is on iff its slope is negative.

    A zero slope ties and goes to 0, so the bits are the lexicographically
    smallest minimizer; the tests check this against exhaustive enumeration.
    """
    bits = tuple(1 if q < 0.0 else 0 for q in qubo.linear)
    return bits, qubo.energy(bits)
