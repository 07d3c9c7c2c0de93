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
approximation is made (Farhi, Goldstone and Gutmann, arXiv:1411.4028).  That
is O(n P) per circuit instead of O(n 2^n P).

One kernel, :func:`_energy`, carries each qubit's four amplitude parts
through the layers in Python floats and sums ``q_i P_i(1)``, reading each
qubit's ``(q_i, h_i)`` from a tuple built once per QUBO
(:attr:`QuboProblem.terms`).  It does no arithmetic whose result is
known: the first cost step starts from the uniform state's zeros, and the
first mixer from that step's ``(amp, 0, x, y)``.  The angle search, the
in-package Nelder-Mead :func:`_nelder_mead`, calls it about a hundred times
per QUBO for the expectation alone.  At a few qubits the search's own
bookkeeping costs about a third as much as the kernel, so it re-ranks its
simplex by one insertion after every step but a shrink, tests the value
spread before the vertex spread, and sums the centroid in one fold over
the vertex rows.  :func:`run_circuit` calls the kernel once more, at the
optimum, and keeps each qubit's pair as a :class:`ProductState`.  The most
probable bitstring takes each bit from its own qubit, and sample
extraction draws each bit from its own marginal.  No solve has a size
limit; the 2^n amplitudes are built (as a Kronecker product, in pure
Python) only for the probability map, up to 16 qubits.  The package needs
no numpy.

Oracle: the tests simulate the same circuit on the full 2^n statevector,
layer by layer, and ground that simulation in the full-matrix product at
small n.  :func:`extract_solution` takes a :class:`ProductState`, for which
the per-qubit draw of sample mode is a true sample of the circuit's output.

Bit convention: variable ``i`` (1-based) lives on qubit ``i - 1``, the least
significant bit of the basis index, and bitstrings render most significant
qubit first, so basis index 11 on four qubits is '1011'.

Phase scaling: penalty-sized QUBO coefficients (thousands and up) would wrap
the cost phases many times over and shred the parameter landscape, so the
cost layer reads the coefficients divided by ``max_i |q_i|``
(:attr:`QuboProblem.slopes`, built once per QUBO).  Positive rescaling never
changes the argmin over bitstrings, and expectation values are always
reported in original units with the constant offset restored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import add
from random import Random
from typing import Callable, Sequence

from .errors import InvariantViolation, TooManyQubits
from .qubo import QuboProblem

#: Guard on 2**n amplitude tables (histograms): 2**16 amplitudes.
MAX_QUBITS = 16


def check_dense_size(n: int) -> None:
    """Raise TooManyQubits if a 2**n amplitude table passes the guard."""
    if n > MAX_QUBITS:
        raise TooManyQubits(f"n={n} exceeds simulation guard {MAX_QUBITS}")


def _prob(a: complex) -> float:
    """``|a|^2`` as ``re^2 + im^2``, the kernel's own arithmetic."""
    return a.real * a.real + a.imag * a.imag


@dataclass(frozen=True, eq=False)
class ProductState:
    """Unentangled n-qubit state: ``pairs[i]`` is qubit i's ``(a0_i, a1_i)``."""

    pairs: tuple[tuple[complex, complex], ...]

    @property
    def n(self) -> int:
        return len(self.pairs)

    @property
    def amplitudes(self) -> list[complex]:
        """The 2**n amplitudes, qubit 0 as the least significant bit."""
        check_dense_size(self.n)
        amps = [1.0 + 0.0j]
        for a0, a1 in self.pairs:
            amps = [a0 * x for x in amps] + [a1 * x for x in amps]
        return amps

    def probabilities(self) -> list[float]:
        return [_prob(a) for a in self.amplitudes]

    def norm_error(self) -> float:
        """Deviation of the total probability from one."""
        return abs(math.prod(_prob(a0) + _prob(a1) for a0, a1 in self.pairs) - 1.0)

    def marginals(self) -> list[float]:
        """Per-qubit probability of reading 1, ``P_i(1)``."""
        return [_prob(a1) for _, a1 in self.pairs]

    def most_probable_bits(self) -> tuple[int, ...]:
        """Each bit is 1 iff ``P_i(1) > P_i(0)``; ties go to 0.

        For a product state this is the argmax over basis states, ties going
        to the smallest basis index.
        """
        return tuple(int(_prob(a1) > _prob(a0)) for a0, a1 in self.pairs)


@dataclass(frozen=True)
class QaoaParams:
    """Variational angles, one (gamma, beta) pair per layer."""

    gammas: tuple[float, ...]
    betas: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "gammas", tuple(map(float, self.gammas)))
        object.__setattr__(self, "betas", tuple(map(float, self.betas)))
        if len(self.gammas) != len(self.betas) or not self.gammas:
            raise InvariantViolation(
                f"need equal-length nonempty angle lists, got "
                f"{len(self.gammas)} gammas and {len(self.betas)} betas"
            )
        # The kernel's phase pi * angle / 2: it is not finite for a NaN or
        # infinite angle, nor for a finite one above about 5.7e307.
        if not all(math.isfinite(math.pi * a / 2.0) for a in self.gammas + self.betas):
            raise InvariantViolation(
                f"angles and their phases pi * angle / 2 must be finite, got "
                f"gammas {self.gammas} and betas {self.betas}"
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


def _energy(
    qubo: QuboProblem,
    gammas: Sequence[float],
    betas: Sequence[float],
    pairs: list[tuple[complex, complex]] | None = None,
) -> float:
    """The expectation at the angles ``(gammas, betas)``: the QAOA kernel.

    A loop over :attr:`QuboProblem.terms`, each qubit's ``(q_i, h_i)``,
    carrying the qubit's four amplitude parts in Python floats, with the
    per-layer constants built once; it returns ``sum_i q_i P_i(1)`` plus the
    constant.  Given ``pairs``, it also appends each qubit's final
    ``(a0_i, a1_i)`` there.  An angle whose phase ``pi * angle / 2`` is not
    finite prices as NaN, which the search ranks last.

    The first layer skips the arithmetic whose result is known: its cost
    step acts on the uniform state ``(amp, 0, amp, 0)``, so it is two
    products, and its mixer on ``(amp, 0, x, y)``, so it reads ``c amp`` and
    ``s amp``, taken once per call, and drops the products with the zero
    part.  Every value it returns is the full 2x2 update's to the bit; an
    amplitude part that is zero may differ in its sign, which no
    probability reads.
    """
    layers = []
    for gamma, beta in zip(gammas, betas):
        t = math.pi * gamma / 2.0
        m = math.pi * beta / 2.0
        if not (math.isfinite(t) and math.isfinite(m)):
            return math.nan
        layers.append((t, math.cos(m), math.sin(m)))
    # Layer 1 runs before the inner loop, which runs the others.
    t0, c0, s0 = layers[0]
    del layers[0]
    cos, sin = math.cos, math.sin
    amp = 2.0**-0.5
    ca = c0 * amp
    sa = s0 * amp
    total = 0.0
    for q, h in qubo.terms:
        # Cost: |1> picks up exp(i t h), giving (x, y).  Mixer: each
        # amplitude becomes c times itself plus i s times the other one.
        th = t0 * h
        x = amp * cos(th)
        y = amp * sin(th)
        a1r = c0 * x
        a1i = c0 * y + sa
        a0r = ca - s0 * y
        a0i = s0 * x
        for t, c, s in layers:
            th = t * h
            er = cos(th)
            ei = sin(th)
            x = a1r * er - a1i * ei
            y = a1r * ei + a1i * er
            a1r = c * x - s * a0i
            a1i = c * y + s * a0r
            a0r = c * a0r - s * y
            a0i = c * a0i + s * x
        total += q * (a1r * a1r + a1i * a1i)
        if pairs is not None:
            pairs.append((complex(a0r, a0i), complex(a1r, a1i)))
    return total + qubo.constant


def run_circuit(qubo: QuboProblem, params: QaoaParams) -> ProductState:
    """Prepare the uniform state, then apply P (cost, mixer) layer pairs.

    Runs :func:`_energy`'s loop once and keeps each qubit's amplitude pair.
    The result equals the full 2^n-amplitude circuit up to rounding.
    """
    if qubo.n < 1:
        raise InvariantViolation(f"need at least one qubit, got {qubo.n}")
    pairs: list[tuple[complex, complex]] = []
    _energy(qubo, params.gammas, params.betas, pairs)
    return ProductState(tuple(pairs))


class _BudgetExhausted(Exception):
    pass


def _nelder_mead(func: Callable[[list[float]], float], x0: list[float]) -> None:
    """Nelder-Mead from ``x0``, run until the simplex converges.

    Visits the trial points of ``scipy.optimize.minimize(func, x0,
    method="Nelder-Mead", options={"xatol": 1e-6, "fatol": 1e-10})`` (scipy
    1.17.1, no bounds, ``adaptive=False``): the same initial simplex, step
    arithmetic, comparisons and stopping test.  The vertices are ranked by a
    stable sort that puts NaN last, so tied vertices keep their places;
    scipy's ``np.argsort`` may move them, and then the two searches part.
    The full sort runs on the initial simplex and after a shrink.  A reflect,
    expand or contract step changes only the worst vertex, so the new one is
    inserted where that sort would put it: after every non-NaN vertex whose
    value is at most its own (it is never NaN).  Vertices are lists of
    floats, and each is built only when it is evaluated.  There is no
    evaluation limit; ``func`` ends the search early by raising.

    The stopping test reads the value spread first and the vertex spread
    only when that passes; both are pure, so the search stops at scipy's
    step.  As the values stay ranked, ascending with NaN last, the spread
    is ``fsim[-1] - fsim[0]``: rounding is monotone, so no ``|fsim[0] - f|``
    exceeds it, and a NaN or an infinity fails it as it fails scipy's test.
    The centroid folds the vertex rows into one running row from zeros,
    which sums each column in order from +0.0 as numpy does.
    """
    n = len(x0)
    sim = [x0]
    fsim = [func(x0)]
    for k in range(n):
        vertex = list(x0)
        vertex[k] = 1.05 * x0[k] if x0[k] != 0 else 0.00025
        sim.append(vertex)
        fsim.append(func(vertex))

    def sort() -> None:
        order = sorted(range(n + 1), key=lambda i: (math.isnan(fsim[i]), fsim[i]))
        sim[:] = [sim[i] for i in order]
        fsim[:] = [fsim[i] for i in order]

    sort()
    zeros = (0.0,) * n
    while not (
        fsim[-1] - fsim[0] <= 1e-10
        and all(abs(v - v0) <= 1e-6 for x in sim[1:] for v, v0 in zip(x, sim[0]))
    ):
        # Each column of the n best vertices summed in order from +0.0, as
        # numpy sums it; sum() may compensate and math.fsum rounds once.
        total = zeros
        for x in sim[:-1]:
            total = map(add, total, x)
        xbar = [t / n for t in total]
        worst = sim[-1]
        xr = [2.0 * b - w for b, w in zip(xbar, worst)]
        fxr = func(xr)
        if fxr < fsim[0]:
            xe = [3.0 * b - 2.0 * w for b, w in zip(xbar, worst)]
            fxe = func(xe)
            x, f = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            x, f = xr, fxr
        else:
            if fxr < fsim[-1]:
                x = [1.5 * b - 0.5 * w for b, w in zip(xbar, worst)]
                f = func(x)
                accept = f <= fxr
            else:
                x = [0.5 * b + 0.5 * w for b, w in zip(xbar, worst)]
                f = func(x)
                accept = f < fsim[-1]
            if not accept:
                best = sim[0]
                for j in range(1, n + 1):
                    sim[j] = [b + 0.5 * (v - b) for b, v in zip(best, sim[j])]
                    fsim[j] = func(sim[j])
                sort()
                continue
        # Only the worst vertex changed: insert the new one where the
        # stable sort would put it, after every non-NaN vertex not above it.
        # Every acceptance test above is a comparison that NaN fails, so f
        # is never NaN.
        j = n
        while j and not fsim[j - 1] <= f:
            j -= 1
        sim.pop()
        fsim.pop()
        sim.insert(j, x)
        fsim.insert(j, f)

def optimize_params(
    qubo: QuboProblem, config: QaoaConfig, start: QaoaParams | None = None
) -> tuple[QaoaParams, float]:
    """Derivative-free (Nelder-Mead) search over the angles.

    Starts from ``start``, whose depth sets the number of angles, or from
    ``(0.1,) * config.depth`` when it is ``None``: small nonzero angles avoid
    the flat-gradient point at exactly zero.  Spends at most
    ``config.optimizer_budget`` evaluations of :func:`_energy` and returns
    the best parameters seen with their value, so the result is never worse
    than the starting point; the first of equal best values wins, and NaN
    never does.  The search is the in-package :func:`_nelder_mead`, which
    visits the same angles as scipy's Nelder-Mead with ``maxfev`` set to the
    budget wherever no two vertices tie.  Each evaluation is one call of the
    module's ``_energy(qubo, gammas, betas)``, looked up at call time, on
    the two halves of the search's vertex: the only work the objective adds
    is those slices, the budget count and the best-so-far.
    """
    if start is None:
        start = QaoaParams((0.1,) * config.depth, (0.1,) * config.depth)
    x0 = list(start.gammas + start.betas)
    depth = start.depth
    budget = config.optimizer_budget
    evals = 0
    best_x = x0
    best_val = math.inf

    def objective(x: list[float]) -> float:
        nonlocal evals, best_x, best_val
        if evals >= budget:
            raise _BudgetExhausted
        evals += 1
        val = _energy(qubo, x[:depth], x[depth:])
        if val < best_val:
            best_val = val
            best_x = x
        return val

    try:
        # Nelder-Mead evaluates x0 first, so even a budget of one sees it.
        _nelder_mead(objective, x0)
    except _BudgetExhausted:
        pass
    return QaoaParams(tuple(best_x[:depth]), tuple(best_x[depth:])), best_val


def extract_solution(
    state: ProductState, config: QaoaConfig, iteration: int = 0
) -> tuple[int, ...]:
    """Read a bit assignment out of the final state.

    argmax mode returns the most probable basis state, ties resolved toward
    the smallest basis index.  sample mode sets bit i to 1 iff ``u_i < P_i(1)``
    with ``u`` drawn uniform from ``Random(f"{config.sample_seed}:{iteration}")``:
    one draw per qubit, which for a product state has the distribution of one
    draw over all 2**n basis states, at O(n) cost.  A string seed is hashed
    the same way in every process.  Each outer ADMM iteration passes its own
    number, so each draws fresh uniforms, and a rerun with the same seed
    draws the same ones.
    """
    if config.extraction == "argmax":
        return state.most_probable_bits()
    rng = Random(f"{config.sample_seed}:{iteration}")
    return tuple(int(rng.random() < p) for p in state.marginals())


def solve_qubo_qaoa(
    qubo: QuboProblem,
    config: QaoaConfig | None = None,
    warm: QaoaParams | None = None,
    iteration: int = 0,
) -> QaoaOutcome:
    """Optimize the angles, run the circuit at the optimum, extract bits.

    ``warm`` is the starting point of the angle search (see
    :func:`optimize_params`); passing the previous solve's optimum implements
    warm starting across outer iterations.  ``iteration`` selects the sample
    stream (see :func:`extract_solution`).
    """
    config = config or QaoaConfig()
    params, value = optimize_params(qubo, config, warm)
    state = run_circuit(qubo, params)
    bits = extract_solution(state, config, iteration)
    return QaoaOutcome(qubo, bits, params, value, state)


def probabilities_to_csv(probabilities: dict[str, float]) -> str:
    """Render a probability map as ``bitstring,probability`` rows."""
    lines = ["bitstring,probability"]
    for key in sorted(probabilities):
        lines.append(f"{key},{probabilities[key]!r}")
    return "\n".join(lines) + "\n"
