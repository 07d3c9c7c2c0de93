"""Three-block ADMM coordinator for the decomposed unit commitment problem.

Each iteration solves, in order:

1. the convex QP over the relaxed commitments and outputs (``qpblock``),
2. the diagonal QUBO over the auxiliary bits ``z`` (classical per-bit solve
   or a QAOA solve simulated as a product state, optionally warm started
   with the previous iteration's angles),
3. the unconstrained quadratic over the slack ``r``, which has the closed
   form ``r = -(lam + rho (y - z)) / (beta + rho)``,

then takes the dual step ``lam += (rho / 2) (y - z + r)`` and stops once the
L1 consensus residual ``sum_i |y_i - z_i + r_i|`` falls below the tolerance.
The same L1 quantity drives both the stopping rule and the reported trace so
the two can never disagree.

Convergence of this splitting is heuristic (the middle block is binary); the
penalties must satisfy ``rho > beta > 0`` and are load-dependent in practice,
see :func:`preset_penalties`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Sequence

from .errors import InstanceMismatch, InvariantViolation, LengthMismatch
from .qaoa import QaoaConfig, QaoaOutcome, QaoaParams, solve_qubo_qaoa
from .qpblock import Block1Problem, block1_objective, solve_block1
from .qubo import build_qubo, solve_qubo_perbit
from .ucmodel import Commitment, UCInstance, UCSolution, cheapest_servable

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
        for name in ("rho", "beta", "epsilon"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise InvariantViolation(f"{name}={value} is not finite")
        for name in ("initial_z", "initial_r", "initial_lambda"):
            value = getattr(self, name)
            if value is not None and not all(math.isfinite(v) for v in value):
                raise InvariantViolation(f"{name}={value} has a non-finite entry")
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
    iter: int
    residual: float
    objective: float
    block1_objective: float
    block1_kkt: float
    block2_energy: float


@dataclass(frozen=True)
class SolveReport:
    """Result of :func:`run_admm`.

    ``terminal_commitment`` is the last iteration's block-2 bits, before the
    polish that makes ``final``; ``qaoa_diagnostics`` holds the qaoa
    backend's outcome of every iteration, in order, and is empty for the
    classical backend.
    """

    instance: UCInstance
    converged: bool
    iterations: int
    terminal_commitment: Commitment
    final: UCSolution | None
    trace: tuple[TraceRow, ...]
    qaoa_diagnostics: tuple[QaoaOutcome, ...]


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
    if rho + beta <= 0.0:
        raise InvariantViolation(f"rho + beta = {rho + beta} <= 0")
    if not (len(y) == len(z) == len(lam)):
        raise LengthMismatch("y, z, lam lengths differ")
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
    if not (len(lam) == len(y) == len(z) == len(r)):
        raise LengthMismatch("lam, y, z, r lengths differ")
    return tuple(
        li + (rho / 2.0) * (yi - zi + ri) for li, yi, zi, ri in zip(lam, y, z, r)
    )


def residual(
    y: Sequence[float], z: Sequence[float], r: Sequence[float]
) -> float:
    """L1 consensus gap ``sum_i |y_i - z_i + r_i|``."""
    if not (len(y) == len(z) == len(r)):
        raise LengthMismatch("y, z, r lengths differ")
    return math.fsum(abs(yi - zi + ri) for yi, zi, ri in zip(y, z, r))


def _initial_vector(
    value: tuple[float, ...] | None, n: int, name: str
) -> tuple[float, ...]:
    if value is None:
        return (0.0,) * n
    if len(value) != n:
        raise LengthMismatch(f"{name} has length {len(value)}, expected {n}")
    return tuple(float(v) for v in value)


def _polish(instance: UCInstance, terminal: Commitment) -> UCSolution | None:
    """Fix the binaries and re-dispatch, repairing by one bit flip if needed.

    Returns the exact dispatch of ``terminal`` when it can serve the load.
    Otherwise returns the cheapest commitment one bit flip away that can,
    with ties broken as in :func:`~hquc.ucmodel.enumerate_uc`, or ``None``
    when no such neighbour exists.  This is the polish step of
    relax-round-polish (Takapoui, Moehle, Boyd and Bemporad,
    arXiv:1509.08416) with its search limited to the 1-flip neighbourhood.
    """
    served = cheapest_servable(instance, (terminal.bits,))
    if served is not None:
        return served
    neighbours = []
    for i in range(len(terminal)):
        bits = list(terminal.bits)
        bits[i] ^= 1
        neighbours.append(tuple(bits))
    return cheapest_servable(instance, neighbours)


def run_admm(instance: UCInstance, config: AdmmConfig) -> SolveReport:
    """Run the three-block loop until the residual closes or the cap is hit.

    The report's final solution is the terminal binary commitment's exact
    re-dispatch when it can serve the load (the relaxed ``y`` does not
    satisfy the original problem), else the cheapest servable commitment one
    bit flip away, else ``None``; see :func:`_polish`.  This runs after the
    loop: the trace and the iteration count are those of the loop, and the
    report's ``terminal_commitment`` is the loop's last block-2 answer.
    InfeasibleRelaxation from the first block propagates, since it proves
    the original problem infeasible.
    """
    n = instance.n
    z = _initial_vector(config.initial_z, n, "initial_z")
    r = _initial_vector(config.initial_r, n, "initial_r")
    lam = _initial_vector(config.initial_lambda, n, "initial_lambda")

    qaoa_params: QaoaParams | None = None
    trace: list[TraceRow] = []
    diagnostics: list[QaoaOutcome] = []
    converged = False
    iterations = 0

    for it in range(1, config.max_iters + 1):
        iterations = it
        block1 = solve_block1(
            Block1Problem(instance, z, r, lam, rho=config.rho, beta=config.beta)
        )
        y, p = block1.y, block1.p

        qubo = build_qubo(y, r, lam, config.rho)
        if config.backend == BACKEND_CLASSICAL:
            bits, block2_energy = solve_qubo_perbit(qubo)
        else:
            warm = qaoa_params if config.warm_start else None
            outcome = solve_qubo_qaoa(qubo, config.qaoa, warm=warm)
            bits = outcome.bits
            block2_energy = qubo.energy(bits)
            qaoa_params = outcome.params
            diagnostics.append(outcome)
        z = tuple(float(b) for b in bits)

        r = update_r(y, z, lam, config.rho, config.beta)
        res = residual(y, z, r)
        objective = block1_objective(
            Block1Problem(instance, z, r, lam, config.rho, config.beta), y, p
        )
        lam = update_dual(lam, y, z, r, config.rho)
        trace.append(
            TraceRow(
                it, res, objective,
                block1.objective, block1.kkt_residual, block2_energy,
            )
        )
        if res <= config.epsilon:
            converged = True
            break

    # max_iters >= 1, so block 2 ran and ``bits`` is bound.
    terminal = Commitment(bits)
    return SolveReport(
        instance=instance,
        converged=converged,
        iterations=iterations,
        terminal_commitment=terminal,
        final=_polish(instance, terminal),
        trace=tuple(trace),
        qaoa_diagnostics=tuple(diagnostics),
    )


@dataclass(frozen=True)
class ComparisonReport:
    """Differences between two solve reports over the same instance."""

    commitments_equal: bool
    cost_delta: float | None
    iterations: tuple[int, int]
    converged: tuple[bool, bool]
    residual_ratios: tuple[tuple[int, float, float, float], ...]

    def format(self) -> str:
        lines = [
            f"commitments_equal: {self.commitments_equal}",
            f"cost_delta: {self.cost_delta}",
            f"iterations: {self.iterations[0]} vs {self.iterations[1]}",
            f"converged: {self.converged[0]} vs {self.converged[1]}",
            "iter,residual_a,residual_b,ratio",
        ]
        for it, ra, rb, ratio in self.residual_ratios:
            lines.append(f"{it},{ra!r},{rb!r},{ratio!r}")
        return "\n".join(lines) + "\n"


def compare(report_a: SolveReport, report_b: SolveReport) -> ComparisonReport:
    """Diff two reports; raises InstanceMismatch for different instances."""
    if report_a.instance != report_b.instance:
        raise InstanceMismatch("reports were produced on different instances")
    a_final, b_final = report_a.final, report_b.final
    equal = (
        a_final is not None
        and b_final is not None
        and a_final.commitment == b_final.commitment
    )
    delta = (
        b_final.cost - a_final.cost
        if (a_final is not None and b_final is not None)
        else None
    )
    ratios = []
    for ra, rb in zip(report_a.trace, report_b.trace):
        ratio = rb.residual / ra.residual if ra.residual != 0.0 else float("inf")
        ratios.append((ra.iter, ra.residual, rb.residual, ratio))
    return ComparisonReport(
        commitments_equal=equal,
        cost_delta=delta,
        iterations=(report_a.iterations, report_b.iterations),
        converged=(report_a.converged, report_b.converged),
        residual_ratios=tuple(ratios),
    )
