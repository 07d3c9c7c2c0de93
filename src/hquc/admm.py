"""Three-block ADMM coordinator for the decomposed unit commitment problem.

Each iteration solves, in order:

1. the convex QP over the relaxed commitments and outputs (``qpblock``),
2. the diagonal QUBO over the auxiliary bits ``z``: the per-bit solve
   always runs, since it gives the QUBO's minimum, and the qaoa backend
   replaces its bits by those of a QAOA solve simulated as a product state,
   optionally warm started with the previous iteration's angles,
3. the unconstrained quadratic over the slack ``r``, which has the closed
   form ``r = -(lam + rho (y - z)) / (beta + rho)``,

then takes the dual step ``lam += (rho / 2) (y - z + r)``.

:func:`admm_steps` runs this iteration without end and yields one
:class:`AdmmStep` per iteration: its :class:`TraceRow`, its block-2 bits
and the qaoa backend's outcome.  :func:`run_admm` is its consumer: it stops
once the L1 consensus residual ``sum_i |y_i - z_i + r_i|`` falls below the
tolerance (the residual test of Boyd et al., 2011, section 3.3.1) or at
``max_iters``, and builds the report from the steps.  The same L1 quantity
drives both the stopping rule and the reported trace so the two can never
disagree.

Convergence of this splitting is heuristic (the middle block is binary); the
penalties must satisfy ``rho > beta > 0`` and are load-dependent in practice,
see :func:`preset_penalties`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from itertools import count
from typing import Iterator, Sequence

from .errors import InvariantViolation, require_finite, require_integer, require_length
from .qaoa import QaoaConfig, QaoaOutcome, solve_qubo_qaoa
from .qpblock import Block1Problem, augmented_lagrangian, solve_block1
from .qubo import build_qubo, solve_qubo_perbit
from .ucmodel import Commitment, UCInstance, UCSolution, polish

BACKEND_CLASSICAL = "classical"
BACKEND_QAOA = "qaoa"


def preset_penalties(load: float) -> tuple[float, float]:
    """Load-keyed (rho, beta) presets.

    Small systems want penalties around 1e6 with rho just above beta; mid
    loads use 1001/1000 and heavier loads 4000/1000.
    """
    if load < 100.0:
        return 1_000_001.0, 1_000_000.0
    if load <= 200.0:
        return 1001.0, 1000.0
    return 4000.0, 1000.0


@dataclass(frozen=True)
class AdmmConfig:
    rho: float
    beta: float
    epsilon: float = 1e-6
    max_iters: int = 1000
    backend: str = BACKEND_CLASSICAL
    qaoa: QaoaConfig = field(default_factory=QaoaConfig)
    warm_start: bool = True
    initial_z: tuple[float, ...] | None = None
    initial_r: tuple[float, ...] | None = None
    initial_lambda: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        require_integer("max_iters", self.max_iters)
        for name in ("rho", "beta", "epsilon"):
            require_finite(name, getattr(self, name))
        for name in ("initial_z", "initial_r", "initial_lambda"):
            value = getattr(self, name)
            for i, v in enumerate(() if value is None else value):
                require_finite(f"{name}[{i}]", v)
        if not (self.rho > self.beta > 0.0):
            raise InvariantViolation(
                f"need rho > beta > 0, got rho={self.rho}, beta={self.beta}"
            )
        if self.epsilon <= 0.0:
            raise InvariantViolation(f"epsilon {self.epsilon} <= 0")
        if self.max_iters < 1:
            raise InvariantViolation(f"max_iters {self.max_iters} < 1")
        if self.backend not in (BACKEND_CLASSICAL, BACKEND_QAOA):
            raise InvariantViolation(f"unknown backend {self.backend!r}")


def default_config(load: float, backend: str = BACKEND_CLASSICAL, **overrides) -> AdmmConfig:
    """Config with the load-keyed penalty presets filled in."""
    rho, beta = preset_penalties(load)
    base = AdmmConfig(rho=rho, beta=beta, backend=backend)
    return replace(base, **overrides) if overrides else base


@dataclass(frozen=True)
class TraceRow:
    """One ADMM iteration.  ``block2_gap`` is ``block2_energy`` minus the
    QUBO's exact minimum (:func:`~hquc.qubo.solve_qubo_perbit`): 0.0 for
    the classical backend, and how far the QAOA bits fell short for qaoa."""

    iter: int
    residual: float
    objective: float
    block1_objective: float
    block1_kkt: float
    block2_energy: float
    block2_gap: float


@dataclass(frozen=True)
class SolveReport:
    """Result of :func:`run_admm`.

    ``terminal_commitment`` is the last iteration's block-2 bits, before the
    polish that makes ``final``; ``commitment_fixed_at`` is the last
    iteration whose block-2 bits differ from the previous iteration's, 1
    when they never change; ``qaoa_diagnostics`` holds the qaoa backend's
    outcome of every iteration, in order, and is empty for the classical
    backend.
    """

    converged: bool
    iterations: int
    terminal_commitment: Commitment
    commitment_fixed_at: int
    final: UCSolution | None
    trace: tuple[TraceRow, ...]
    qaoa_diagnostics: tuple[QaoaOutcome, ...]


@dataclass(frozen=True)
class AdmmStep:
    """One iteration of :func:`admm_steps`: its trace row, its block-2 bits,
    and the qaoa backend's outcome (``None`` for the classical backend)."""

    row: TraceRow
    bits: tuple[int, ...]
    outcome: QaoaOutcome | None


def update_r(
    y: Sequence[float],
    z: Sequence[float],
    lam: Sequence[float],
    rho: float,
    beta: float,
) -> tuple[float, ...]:
    """Closed-form third-block minimizer ``r = -(lam + rho (y - z)) / (beta + rho)``.

    Returns a tuple of floats.
    """
    return tuple(
        -(li + rho * (yi - zi)) / (beta + rho) for yi, zi, li in zip(y, z, lam)
    )


def update_dual(
    lam: Sequence[float],
    y: Sequence[float],
    z: Sequence[float],
    r: Sequence[float],
    rho: float,
) -> tuple[float, ...]:
    """Dual ascent with the half step: ``lam + (rho / 2) (y - z + r)``.

    Returns a tuple of floats.
    """
    return tuple(
        li + (rho / 2.0) * (yi - zi + ri) for li, yi, zi, ri in zip(lam, y, z, r)
    )


def residual(
    y: Sequence[float], z: Sequence[float], r: Sequence[float]
) -> float:
    """L1 consensus gap ``sum_i |y_i - z_i + r_i|``."""
    return math.fsum(abs(yi - zi + ri) for yi, zi, ri in zip(y, z, r))


def _initial_vector(
    value: tuple[float, ...] | None, n: int, name: str
) -> tuple[float, ...]:
    if value is None:
        return (0.0,) * n
    require_length(name, value, n)
    return tuple(float(v) for v in value)


def admm_steps(instance: UCInstance, config: AdmmConfig) -> Iterator[AdmmStep]:
    """The three-block iteration, without end: one :class:`AdmmStep` each.

    Each iteration starts block 1's price search at the previous clearing price,
    and a warm-started QAOA solve at the previous outcome's angles.  There
    is no stop test here; :func:`run_admm` applies one.
    InfeasibleRelaxation from the first block propagates, since it proves
    the original problem infeasible.
    """
    n = instance.n
    z = _initial_vector(config.initial_z, n, "initial_z")
    r = _initial_vector(config.initial_r, n, "initial_r")
    lam = _initial_vector(config.initial_lambda, n, "initial_lambda")
    price = warm = None

    for it in count(1):
        block1 = solve_block1(
            Block1Problem(instance, z, r, lam, rho=config.rho, beta=config.beta), price
        )
        y, p, price = block1.y, block1.p, block1.price

        qubo = build_qubo(y, r, lam, config.rho)
        bits, least = solve_qubo_perbit(qubo)
        energy, outcome = least, None
        if config.backend == BACKEND_QAOA:
            outcome = solve_qubo_qaoa(qubo, config.qaoa, warm=warm, iteration=it)
            bits, energy = outcome.bits, qubo.energy(outcome.bits)
            if config.warm_start:
                warm = outcome.params
        z = tuple(float(b) for b in bits)

        r = update_r(y, z, lam, config.rho, config.beta)
        res = residual(y, z, r)
        objective = augmented_lagrangian(
            instance.generators, y, p, z, r, lam, config.rho, config.beta
        )
        lam = update_dual(lam, y, z, r, config.rho)
        row = TraceRow(
            it, res, objective, block1.objective, block1.kkt_residual,
            energy, energy - least,
        )
        yield AdmmStep(row, bits, outcome)


def run_admm(instance: UCInstance, config: AdmmConfig) -> SolveReport:
    """Take :func:`admm_steps` until the residual is at most ``epsilon`` or
    ``max_iters`` steps are taken; their errors, InfeasibleRelaxation among
    them, propagate.

    The relaxed ``y`` does not satisfy the original problem, so the
    report's final solution is :func:`~hquc.ucmodel.polish` of the terminal
    binary commitment: the cheapest commitment among it and its one-flip
    neighbours that can serve the load, with its exact dispatch, else
    ``None``.  This runs after the last step: the trace and the iteration
    count are those of the steps, and the report's ``terminal_commitment``
    is the last step's block-2 answer.
    """
    steps: list[AdmmStep] = []
    for step in admm_steps(instance, config):
        steps.append(step)
        if step.row.residual <= config.epsilon or len(steps) == config.max_iters:
            break

    terminal = Commitment(steps[-1].bits)
    return SolveReport(
        converged=steps[-1].row.residual <= config.epsilon,
        iterations=len(steps),
        terminal_commitment=terminal,
        commitment_fixed_at=max(
            (b.row.iter for a, b in zip(steps, steps[1:]) if a.bits != b.bits),
            default=1,
        ),
        final=polish(instance, terminal.bits),
        trace=tuple(step.row for step in steps),
        qaoa_diagnostics=tuple(s.outcome for s in steps if s.outcome is not None),
    )
