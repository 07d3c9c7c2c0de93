"""QAOA for diagonal QUBO objectives, simulated as a product state.

The circuit follows the usual alternating structure at depth P:

    |gamma, beta> = U(beta_P, B) U(gamma_P, C) ... U(beta_1, B) U(gamma_1, C) H^n |0>

with the diagonal cost unitary ``U(gamma, C) = exp(i pi gamma C / 2)`` acting
as a per-basis-state phase, and the transverse-field mixer
``U(beta, B) = exp(i pi beta B / 2)`` with ``B = sum_i X_i``, i.e. the
single-qubit rotation ``cos(pi beta / 2) I + i sin(pi beta / 2) X`` applied to
every qubit.  Note the pi/2 factor inside both exponents; the variational
angles are dimensionless.

Product form: the block-2 QUBO has no couplings, ``C = sum_i h_i z_i``, so
``exp(i pi gamma C / 2)`` is the tensor product of the single-qubit phases
``diag(1, exp(i pi gamma h_i / 2))``.  The mixer is a tensor product of
single-qubit rotations too, and so is ``H^n |0>``.  A product of single-qubit
gates keeps a product state a product state, so the QAOA state is one
amplitude pair ``(a0_i, a1_i)`` per qubit at every depth, exactly: no
approximation is made.  :func:`run_circuit` evolves the n pairs, which costs
O(n P) per circuit instead of O(n 2^n P), and returns a :class:`ProductState`.
The expectation is ``sum_i q_i P_i(1) + constant`` from the per-qubit
marginals, and the most probable bitstring takes each bit from its own qubit.
An argmax solve has no size limit; the 2^n amplitudes are built (by Kronecker
product) only for ``sample`` extraction and the probability map, up to 16 qubits.

Dense oracle: :class:`Statevector`, :func:`init_uniform`,
:func:`apply_cost_layer` and :func:`apply_mixer_layer` simulate the same
circuit on the full 2^n statevector, layer by layer.  No solver path uses
them; the tests compare the product kernel against them.  Both state classes
offer the same read methods, so :func:`expectation` and
:func:`extract_solution` accept either.

Bit convention: variable ``i`` (1-based) lives on qubit ``i - 1``, the least
significant bit of the basis index, and bitstrings render most significant
qubit first, so basis index 11 on four qubits is '1011'.

Phase scaling: penalty-sized QUBO coefficients (thousands and up) would wrap
the cost phases many times over and shred the parameter landscape, so
:func:`run_circuit` divides the linear coefficients by ``max_i |q_i|`` before
phase construction (:attr:`QuboProblem.phase_slopes`, built once per QUBO).
Positive rescaling never changes the argmin over bitstrings, and expectation
values are always reported in original units with the constant offset
restored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy.optimize import minimize

from .errors import DimensionMismatch, InvariantViolation, TooManyQubits
from .qubo import QuboProblem

#: Dense simulation guard: 2**16 amplitudes.
MAX_QUBITS = 16


def check_dense_size(n: int) -> None:
    """Raise TooManyQubits if a 2**n amplitude table passes the guard."""
    if n > MAX_QUBITS:
        raise TooManyQubits(f"n={n} exceeds simulation guard {MAX_QUBITS}")


@dataclass(frozen=True, eq=False)
class Statevector:
    """Complex amplitudes over the 2**n computational basis states."""

    amplitudes: np.ndarray
    n: int

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    def norm_error(self) -> float:
        """Deviation of the total probability from one."""
        return abs(float(np.sum(self.probabilities())) - 1.0)

    def marginals(self) -> np.ndarray:
        """Per-qubit probability of reading 1, ``P_i(1)``."""
        probs = self.probabilities()
        return np.array(
            [probs.reshape(-1, 2, 1 << i)[:, 1, :].sum() for i in range(self.n)]
        )

    def most_probable_bits(self) -> tuple[int, ...]:
        """Bits of the most probable basis state; ties go to the smallest index."""
        index = int(np.argmax(self.probabilities()))
        return tuple((index >> i) & 1 for i in range(self.n))


@dataclass(frozen=True, eq=False)
class ProductState:
    """Unentangled n-qubit state: row ``i`` of ``pairs`` is ``(a0_i, a1_i)``."""

    pairs: np.ndarray

    @property
    def n(self) -> int:
        return len(self.pairs)

    @property
    def amplitudes(self) -> np.ndarray:
        """The 2**n amplitudes, qubit 0 as the least significant bit."""
        check_dense_size(self.n)
        amps = np.ones(1, dtype=complex)
        for pair in self.pairs:
            amps = np.kron(pair, amps)
        return amps

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    def norm_error(self) -> float:
        """Deviation of the total probability from one."""
        return abs(float(np.prod(np.sum(np.abs(self.pairs) ** 2, axis=1))) - 1.0)

    def marginals(self) -> np.ndarray:
        """Per-qubit probability of reading 1, ``P_i(1)``."""
        return np.abs(self.pairs[:, 1]) ** 2

    def most_probable_bits(self) -> tuple[int, ...]:
        """Each bit is 1 iff ``P_i(1) > P_i(0)``; ties go to 0.

        For a product state this is the argmax over basis states with the
        smallest-index tie rule of :meth:`Statevector.most_probable_bits`.
        """
        probs = np.abs(self.pairs) ** 2
        return tuple(int(p1 > p0) for p0, p1 in probs)


@dataclass(frozen=True)
class QaoaParams:
    """Variational angles, one (gamma, beta) pair per layer."""

    gammas: tuple[float, ...]
    betas: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "gammas", tuple(float(g) for g in self.gammas))
        object.__setattr__(self, "betas", tuple(float(b) for b in self.betas))
        if len(self.gammas) != len(self.betas) or not self.gammas:
            raise InvariantViolation(
                f"need equal-length nonempty angle lists, got "
                f"{len(self.gammas)} gammas and {len(self.betas)} betas"
            )

    @property
    def depth(self) -> int:
        return len(self.gammas)


@dataclass(frozen=True)
class QaoaConfig:
    depth: int = 2
    optimizer_budget: int = 100
    extraction: str = "argmax"
    sample_seed: int = 0

    def __post_init__(self) -> None:
        if self.depth < 1:
            raise InvariantViolation(f"depth {self.depth} < 1")
        if self.optimizer_budget < 1:
            raise InvariantViolation(f"budget {self.optimizer_budget} < 1")
        if self.extraction not in ("argmax", "sample"):
            raise InvariantViolation(f"unknown extraction mode {self.extraction!r}")
        if self.sample_seed < 0:
            raise InvariantViolation(f"sample seed {self.sample_seed} < 0")


@dataclass(frozen=True)
class QaoaOutcome:
    """One QAOA solve: its QUBO, bits, optimized angles, expectation and state."""

    qubo: QuboProblem
    bits: tuple[int, ...]
    params: QaoaParams
    expectation: float
    state: ProductState = field(compare=False)

    @property
    def probabilities(self) -> dict[str, float]:
        """Probability of every bitstring, built from the 2**n amplitudes on read."""
        probs = self.state.probabilities()
        return {format(i, f"0{self.state.n}b"): float(p) for i, p in enumerate(probs)}


def bits_to_string(bits: Sequence[int]) -> str:
    """Render variable bits (unit 1 first) as a most-significant-first string."""
    return "".join(str(int(b)) for b in reversed(list(bits)))


def init_uniform(n: int) -> Statevector:
    """Equal superposition H^n |0>: every amplitude is 2**(-n/2)."""
    if n < 1:
        raise InvariantViolation(f"need at least one qubit, got {n}")
    check_dense_size(n)
    amp = np.full(1 << n, 2.0 ** (-n / 2.0), dtype=complex)
    return Statevector(amp, n)


def _phase_energies(qubo: QuboProblem, scale: float | None) -> np.ndarray:
    """Offset-free QUBO energies for phase construction, optionally rescaled."""
    e = QuboProblem(qubo.linear).energies()
    if scale is not None:
        e = e / scale
    return e


def apply_cost_layer(
    state: Statevector,
    qubo: QuboProblem,
    gamma: float,
    scale: float | None = None,
) -> Statevector:
    """Diagonal phase layer: amplitude of ``|x>`` gains ``exp(i pi gamma E(x) / 2)``.

    ``E(x)`` is the offset-dropped (and, when ``scale`` is given, rescaled)
    QUBO energy of ``x``.  Per-basis probabilities are untouched.
    """
    if qubo.n != state.n:
        raise DimensionMismatch(f"qubo n={qubo.n} but state n={state.n}")
    phases = np.exp(1j * math.pi * gamma * _phase_energies(qubo, scale) / 2.0)
    return Statevector(state.amplitudes * phases, state.n)


def apply_mixer_layer(state: Statevector, beta: float) -> Statevector:
    """Rotate every qubit by ``exp(i pi beta X / 2)``; preserves the norm."""
    c = math.cos(math.pi * beta / 2.0)
    s = 1j * math.sin(math.pi * beta / 2.0)
    amps = state.amplitudes
    for qubit in range(state.n):
        view = amps.reshape(-1, 2, 1 << qubit)
        a0 = view[:, 0, :]
        a1 = view[:, 1, :]
        amps = np.stack((c * a0 + s * a1, s * a0 + c * a1), axis=1).reshape(-1)
    return Statevector(amps, state.n)


def run_circuit(qubo: QuboProblem, params: QaoaParams) -> ProductState:
    """Prepare the uniform state, then apply P (cost, mixer) layer pairs.

    Each qubit evolves on its own: the cost step multiplies ``a1_i`` by
    ``exp(i pi gamma h_i / 2)``, with ``h = q / phase_scale(qubo)``, and the
    mixer step rotates the pair, so the result equals the dense
    layer-by-layer composition at ``scale=phase_scale(qubo)`` up to rounding.
    """
    if qubo.n < 1:
        raise InvariantViolation(f"need at least one qubit, got {qubo.n}")
    h = qubo.phase_slopes
    a0 = np.full(qubo.n, 2.0 ** -0.5, dtype=complex)
    a1 = a0.copy()
    for gamma, beta in zip(params.gammas, params.betas):
        a1 = a1 * np.exp(1j * math.pi * gamma * h / 2.0)
        c = math.cos(math.pi * beta / 2.0)
        s = 1j * math.sin(math.pi * beta / 2.0)
        a0, a1 = c * a0 + s * a1, s * a0 + c * a1
    return ProductState(np.stack((a0, a1), axis=1))


def expectation(state: Statevector | ProductState, qubo: QuboProblem) -> float:
    """Expected full QUBO energy (constant restored, original units).

    For a diagonal QUBO this is ``sum_i q_i P_i(1) + constant`` for any state.
    """
    if qubo.n != state.n:
        raise DimensionMismatch(f"qubo n={qubo.n} but state n={state.n}")
    return float(state.marginals() @ np.asarray(qubo.linear)) + qubo.constant


class _BudgetExhausted(Exception):
    pass


def optimize_params(
    qubo: QuboProblem, config: QaoaConfig, start: QaoaParams | None = None
) -> tuple[QaoaParams, float]:
    """Derivative-free (Nelder-Mead) search over the angles.

    Starts from ``start``, whose depth sets the number of angles, or from
    ``(0.1,) * config.depth`` when it is ``None``: small nonzero angles avoid
    the flat-gradient point at exactly zero.  Spends at most
    ``config.optimizer_budget`` expectation evaluations and returns the best
    parameters seen, so the result is never worse than the starting point.
    """
    if start is None:
        start = QaoaParams((0.1,) * config.depth, (0.1,) * config.depth)
    x0 = np.array(start.gammas + start.betas, dtype=float)
    depth = start.depth
    budget = config.optimizer_budget
    evals = 0
    best_x = x0.copy()
    best_val = math.inf

    def objective(x: np.ndarray) -> float:
        nonlocal evals, best_x, best_val
        if evals >= budget:
            raise _BudgetExhausted
        evals += 1
        params = QaoaParams(tuple(x[:depth]), tuple(x[depth:]))
        val = expectation(run_circuit(qubo, params), qubo)
        if val < best_val:
            best_val = val
            best_x = np.array(x, dtype=float)
        return val

    try:
        objective(x0)
        minimize(
            objective,
            x0,
            method="Nelder-Mead",
            options={"maxfev": budget, "xatol": 1e-6, "fatol": 1e-10},
        )
    except _BudgetExhausted:
        pass
    return QaoaParams(tuple(best_x[:depth]), tuple(best_x[depth:])), best_val


def extract_solution(
    state: Statevector | ProductState, config: QaoaConfig
) -> tuple[int, ...]:
    """Read a bit assignment out of the final state.

    argmax mode returns the most probable basis state, ties resolved toward
    the smallest basis index; sample mode draws once from the distribution
    seeded by ``config.sample_seed`` over all 2**n, so up to 16 qubits.
    """
    if config.extraction == "argmax":
        return state.most_probable_bits()
    probs = state.probabilities()
    rng = np.random.default_rng(config.sample_seed)
    index = int(rng.choice(len(probs), p=probs / probs.sum()))
    return tuple((index >> i) & 1 for i in range(state.n))


def solve_qubo_qaoa(
    qubo: QuboProblem,
    config: QaoaConfig | None = None,
    warm: QaoaParams | None = None,
) -> QaoaOutcome:
    """Optimize the angles, run the circuit at the optimum, extract bits.

    ``warm`` is the starting point of the angle search (see
    :func:`optimize_params`); passing the previous solve's optimum implements
    warm starting across outer iterations.
    """
    config = config or QaoaConfig()
    params, value = optimize_params(qubo, config, warm)
    state = run_circuit(qubo, params)
    return QaoaOutcome(qubo, extract_solution(state, config), params, value, state)


def probabilities_to_csv(probabilities: dict[str, float]) -> str:
    """Render a probability map as ``bitstring,probability`` rows."""
    lines = ["bitstring,probability"]
    for key in sorted(probabilities):
        lines.append(f"{key},{probabilities[key]!r}")
    return "\n".join(lines) + "\n"
