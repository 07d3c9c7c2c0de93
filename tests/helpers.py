"""Shared test utilities: random instance generation and brute-force oracles."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np
from scipy.linalg import expm

from hquc import (
    Commitment,
    GeneratorParams,
    Infeasible,
    InvariantViolation,
    ProductState,
    QaoaParams,
    QuboProblem,
    UCInstance,
    UCSolution,
    evaluate_cost,
    phase_scale,
)
from hquc.qaoa import check_dense_size
from hquc.ucmodel import (
    _PRUNE_RTOL,
    _dual_bound,
    _outputs,
    _phis,
    bisect_price,
    lagrangian_commitment,
    one_flips,
    price_past,
    settle_bracket,
)


def _step_output(b: float, c: float, lo: float, hi: float, mu: float) -> float:
    """Single-unit response to price mu: argmin of b*p + c*p^2 - mu*p on [lo, hi]."""
    if c > 0.0:
        return min(max((mu - b) / (2.0 * c), lo), hi)
    return hi if mu > b else lo


def _dual_term(g: GeneratorParams, mu: float) -> tuple[float, float]:
    """``phi(mu) = a + min over p in [p_min, p_max] of (b p + c p^2 - mu p)``
    for unit ``g``, with the minimizing output ``p``."""
    p = _step_output(g.b, g.c, g.p_min, g.p_max, mu)
    return g.a + g.b * p + g.c * p * p - mu * p, p


def random_generators(rng, n, allow_zero_c=False):
    gens = []
    for i in range(n):
        p_min = float(rng.uniform(0.0, 50.0))
        p_max = p_min + float(rng.uniform(1.0, 200.0))
        c = 0.0 if (allow_zero_c and rng.random() < 0.2) else float(rng.uniform(1e-4, 0.01))
        gens.append(
            GeneratorParams(
                id=i + 1,
                a=float(rng.uniform(0.0, 1000.0)),
                b=float(rng.uniform(5.0, 40.0)),
                c=c,
                p_min=p_min,
                p_max=p_max,
            )
        )
    return tuple(gens)


def random_instance(rng, n=None, allow_zero_c=False, load_frac=None):
    if n is None:
        n = int(rng.integers(1, 7))
    gens = random_generators(rng, n, allow_zero_c=allow_zero_c)
    cap = sum(g.p_max for g in gens)
    frac = float(rng.uniform(0.0, 1.0)) if load_frac is None else load_frac
    return UCInstance(gens, frac * cap)


def sweep_instance(rng, n):
    """A random fleet in which some units copy, or nearly copy, another.

    An exact copy makes two commitments cost the same float, which only the
    tie rule can order.  A copy whose commitment cost differs by 1e-7 makes
    a near tie that a bound pruning without its margin, or an over-estimated
    bound, would get wrong.
    """
    gens = list(random_generators(rng, n, allow_zero_c=True))
    for i in range(1, n):
        if rng.random() < 0.25:
            src = gens[int(rng.integers(0, i))]
            nudge = float(rng.choice((0.0, -1e-7, 1e-7)))
            gens[i] = GeneratorParams(
                i + 1, src.a + nudge, src.b, src.c, src.p_min, src.p_max
            )
    cap = sum(g.p_max for g in gens)
    return UCInstance(tuple(gens), float(rng.uniform(0.0, 1.05)) * cap)


#: The smallest zero-start run known whose block-2 bits change after
#: iteration 1: under the preset penalties they last change at iteration 3,
#: and the loop ends costlier than the polish of iteration 1's bits.
THREE_UNIT_LATE_MOVER = UCInstance(
    (
        GeneratorParams(
            1, 958.8179384514074, 29.45685087481652, 0.004680897819254569,
            21.615050148008123, 62.96447617927291,
        ),
        GeneratorParams(
            2, 177.06939593091175, 27.048217174424416, 0.0018295546588110475,
            9.17296590545602, 126.58810443488481,
        ),
        GeneratorParams(
            3, 702.4874536412506, 26.577892023335536, 0.0019104036117088266,
            40.6928109665401, 200.6283723538267,
        ),
    ),
    174.1236783066871,
)

def reference_bisect(supply, load, lo, hi):
    """Plain price bisection, the oracle of :func:`hquc.ucmodel.bisect_price`.

    Halves the bracket at its midpoint, keeping ``supply(lo) <= load``, until
    no float lies strictly inside; where ``lo + hi`` overflows the midpoint
    is ``0.5 lo + 0.5 hi``.  For a nondecreasing ``supply`` the final bracket
    is unique, so the kernel must return exactly this ``(lo, hi)``.
    """
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            mid = 0.5 * lo + 0.5 * hi
            if not lo < mid < hi:
                break
        if supply(mid) <= load:
            lo = mid
        else:
            hi = mid
    return lo, hi


def reference_dispatch(instance, bits):
    """The exact dispatch by :func:`hquc.ucmodel.bisect_price` over the
    whole price range, with no breakpoint search: the oracle of
    :func:`hquc.ucmodel._dispatch`, which must match it bit for bit.
    ``None`` when the load is outside the committed capacity range."""
    on = [g for g, y in zip(instance.generators, bits) if y]
    load = instance.load
    p_min_sum = math.fsum(g.p_min for g in on)
    p_max_sum = math.fsum(g.p_max for g in on)
    if not (p_min_sum <= load <= p_max_sum):
        return None
    if load == p_min_sum:
        on_p = [g.p_min for g in on]
    elif load == p_max_sum:
        on_p = [g.p_max for g in on]
    else:
        units = [g.price_constants for g in on]
        lo, hi = bisect_price(
            lambda mu: math.fsum(_outputs(units, mu)),
            load,
            price_past(min(g.b + 2.0 * g.c * g.p_min for g in on), -1.0),
            price_past(max(g.b + 2.0 * g.c * g.p_max for g in on), 1.0),
        )
        on_p = settle_bracket(_outputs(units, lo), _outputs(units, hi), load)
    dispatch = [0.0] * instance.n
    for g, p in zip(on, on_p):
        dispatch[g.id - 1] = p
    return dispatch


def reference_cheapest(instance, candidates, best=None):
    """:func:`hquc.ucmodel.cheapest_servable` over :func:`reference_dispatch`."""
    for bits in candidates:
        dispatch = reference_dispatch(instance, bits)
        if dispatch is None:
            continue
        cost = evaluate_cost(instance, Commitment(bits), dispatch)
        if best is None or (cost, bits) < (best.cost, best.commitment.bits):
            best = UCSolution(Commitment(bits), tuple(dispatch), cost)
    return best


def reference_solve_uc_exact(instance):
    """The branch and bound without its cuts: the oracle of
    :func:`hquc.ucmodel.solve_uc_exact`, which must match it bit for bit.

    Its first incumbent is the cheapest of the Lagrangian commitment and
    all of its one-flip neighbours, and every node that survives its floor
    and capacity tests takes its own :func:`hquc.ucmodel._dual_bound`.
    Leaves are priced by :func:`reference_dispatch`.
    """
    gens = instance.generators
    load = instance.load
    seed = lagrangian_commitment(gens, load).bits
    best = reference_cheapest(instance, (seed, *one_flips(seed)))

    def pruned(bound):
        return best is not None and bound > best.cost + _PRUNE_RTOL * abs(best.cost)

    stack = [((), -math.inf)]
    while stack:
        bits, floor = stack.pop()
        if pruned(floor):
            continue
        k = len(bits)
        if k == instance.n:
            best = reference_cheapest(instance, (bits,), best)
            continue
        on = [g for g, y in zip(gens, bits) if y]
        free = gens[k:]
        if math.fsum(g.p_min for g in on) > load:
            continue
        if math.fsum(g.p_max for g in (*on, *free)) < load:
            continue
        floor_off = floor_on = -math.inf
        if best is not None:
            mu, bound = _dual_bound(on, free, load)
            if pruned(bound):
                continue
            (phi,) = _phis((gens[k].price_constants,), mu)
            floor_off = bound - min(0.0, phi)
            floor_on = bound + max(0.0, phi)
        stack.append((bits + (1,), floor_on))
        stack.append((bits + (0,), floor_off))
    if best is None:
        raise Infeasible(f"no commitment can serve load {load}")
    return best


def reference_unit_response(
    g_lin: float,
    b: float,
    c: float,
    pmin: float,
    pmax: float,
    rho: float,
    mu: float,
) -> tuple[float, float]:
    """Minimize ``c p^2 + (b - mu) p + (rho/2) y^2 + g_lin y`` over the triangle.

    Returns the minimizing ``(y, p)``; when the minimum in ``p`` is a flat
    segment (c == 0 at its price step) the low end is returned.  The oracle
    of :func:`hquc.qpblock._profile`, which must match it bit for bit.

    A c == 0 unit's minimum lies on the edge ``p = e y`` that the price
    favours, ``e = pmax`` above ``b`` and ``pmin`` at or below it, so only
    that edge is priced.  :func:`three_edge_unit_response` compares all
    three edges' rounded values instead, and where they tie within
    rounding it can pick the other one, which makes the supply dip.
    """
    if c == 0.0:
        edge = pmax if mu > b else pmin
        # (b - mu) * 0 is NaN where b - mu overflows; the term is 0.
        lin = (b - mu) * edge + g_lin if edge else g_lin
        ye = min(max(-lin / (2.0 * (rho / 2.0)), 0.0), 1.0)
        return ye, edge * ye
    return three_edge_unit_response(g_lin, b, c, pmin, pmax, rho, mu)


def three_edge_unit_response(g_lin, b, c, pmin, pmax, rho, mu):
    """The stationary point (c > 0), else the best of the edges ``y = 1``,
    ``p = pmin y`` and ``p = pmax y`` by their rounded values, the earliest
    on a tie.  For c == 0 this is block 1's rule before the edge rule of
    :func:`reference_unit_response`, kept to bound what that rule moved.
    """
    if c > 0.0:
        y0 = -g_lin / rho
        p0 = (mu - b) / (2.0 * c)
        if 0.0 <= y0 <= 1.0 and pmin * y0 <= p0 <= pmax * y0:
            return y0, p0

    # Edge y = 1.
    p1 = _step_output(b, c, pmin, pmax, mu)
    best_y, best_p = 1.0, p1
    best_val = c * p1 * p1 + (b - mu) * p1 + rho / 2.0 + g_lin

    # Edges p = pmin * y and p = pmax * y (cover the apex (0, 0) via clamping).
    for edge in (pmin, pmax):
        quad = c * edge * edge + rho / 2.0
        lin = (b - mu) * edge + g_lin
        ye = min(max(-lin / (2.0 * quad), 0.0), 1.0)
        pe = edge * ye
        val = quad * ye * ye + lin * ye
        if val < best_val:
            best_y, best_p, best_val = ye, pe, val
    return best_y, best_p


def reference_kkt_residual(problem, y, p, g_lin, mu):
    """Block 1's KKT residual with every pair and ray of every unit tested:
    the oracle of :func:`hquc.qpblock._kkt_residual`, which must match it
    bit for bit.

    Per unit, the distance of the negative gradient ``w`` from the cone of
    the active constraint normals: 0 when two normals combine
    nonnegatively to ``w``, else the distance to the nearest ray
    ``|w x n| / |n|`` (or ``|w|``); the largest of these, or the balance
    gap if larger.
    """
    gens = problem.instance.generators
    rho = problem.rho
    worst = 0.0
    for i, g in enumerate(gens):
        scale = 1e-9 * max(1.0, g.p_max)
        normals = []
        if abs(g.p_min * y[i] - p[i]) <= scale:
            normals.append((g.p_min, -1.0))
        if abs(p[i] - g.p_max * y[i]) <= scale:
            normals.append((-g.p_max, 1.0))
        if y[i] <= 1e-12:
            normals.append((-1.0, 0.0))
        if y[i] >= 1.0 - 1e-12:
            normals.append((1.0, 0.0))
        wy, wp = -(rho * y[i] + g_lin[i]), -(2.0 * g.c * p[i] + g.b - mu)
        res = math.hypot(wy, wp)
        for (ay, ap), (by, bp) in combinations(normals, 2):
            det = ay * bp - ap * by
            if det != 0.0:
                s, t = (wy * bp - wp * by) / det, (ay * wp - ap * wy) / det
                if s >= 0.0 and t >= 0.0:
                    res = 0.0
        for u, v in normals:
            if wy * u + wp * v > 0.0:
                res = min(res, abs(wy * v - wp * u) / math.hypot(u, v))
        worst = max(worst, res)
    balance = abs(math.fsum(p) - problem.instance.load)
    return max(worst, balance)


def grid_min_two_unit(instance, z, r, lam, rho, beta, step=1e-3):
    """Fine-grid oracle for the two-unit first block.

    Scans relaxed commitments (y1, y2) on a regular grid; for each feasible
    pair the balance eliminates p2 and the remaining one-dimensional convex
    dispatch is solved in closed form.  Returns the smallest full augmented
    Lagrangian value over the grid (infinity if no grid point is feasible).
    """
    g1, g2 = instance.generators
    load = instance.load
    ticks = np.arange(0.0, 1.0 + step / 2, step)
    y1, y2 = np.meshgrid(ticks, ticks, indexing="ij")

    lo = np.maximum(g1.p_min * y1, load - g2.p_max * y2)
    hi = np.minimum(g1.p_max * y1, load - g2.p_min * y2)
    feasible = lo <= hi

    csum = g1.c + g2.c
    if csum > 0.0:
        p1 = (2.0 * g2.c * load + g2.b - g1.b) / (2.0 * csum)
    else:
        p1 = np.where(g1.b <= g2.b, np.inf, -np.inf)
    p1 = np.clip(p1, lo, hi)
    p2 = load - p1

    obj = (
        g1.a * y1 + g1.b * p1 + g1.c * p1 * p1
        + g2.a * y2 + g2.b * p2 + g2.c * p2 * p2
        + (beta / 2.0) * (r[0] ** 2 + r[1] ** 2)
        + lam[0] * (y1 - z[0] + r[0])
        + lam[1] * (y2 - z[1] + r[1])
        + (rho / 2.0) * (y1 - z[0] + r[0]) ** 2
        + (rho / 2.0) * (y2 - z[1] + r[1]) ** 2
    )
    obj = np.where(feasible, obj, np.inf)
    return float(obj.min())


def energy_table(qubo):
    """Energy of every assignment, constant included, indexed by the
    bits-as-integer value (unit 1 the least significant bit)."""
    idx = np.arange(1 << qubo.n)
    e = np.zeros(1 << qubo.n)
    for i, q in enumerate(qubo.linear):
        e += q * ((idx >> i) & 1)
    return e + qubo.constant


def solve_qubo_exact(qubo):
    """Global minimum over the energy table; ties go to the lexicographically
    smallest bits tuple (bit value 0 first, scanning from unit 1 upward)."""
    n = qubo.n
    if n == 0:
        return (), qubo.constant
    energies = energy_table(qubo)
    emin = float(energies.min())
    best = min(
        tuple(int(m >> i) & 1 for i in range(n))
        for m in np.flatnonzero(energies == emin)
    )
    return best, qubo.energy(best)


@dataclass(frozen=True, eq=False)
class DenseState:
    """Complex amplitudes over the 2**n computational basis states.

    It has the read methods that :func:`hquc.qaoa.extract_solution` and the
    QAOA outcome's probability map call, so :func:`dense_run_circuit` can
    stand in for the product kernel.
    """

    amplitudes: np.ndarray
    n: int

    def probabilities(self):
        return np.abs(self.amplitudes) ** 2

    def norm_error(self):
        """Deviation of the total probability from one."""
        return abs(float(np.sum(self.probabilities())) - 1.0)

    def marginals(self):
        """Per-qubit probability of reading 1, ``P_i(1)``."""
        probs = self.probabilities()
        return np.array(
            [probs.reshape(-1, 2, 1 << i)[:, 1, :].sum() for i in range(self.n)]
        )

    def most_probable_bits(self):
        """Bits of the most probable basis state; ties go to the smallest index."""
        index = int(np.argmax(self.probabilities()))
        return tuple((index >> i) & 1 for i in range(self.n))


def dense_uniform(n):
    """Equal superposition H^n |0>: every amplitude is 2**(-n/2)."""
    check_dense_size(n)
    return DenseState(np.full(1 << n, 2.0 ** (-n / 2.0), dtype=complex), n)


def dense_cost_layer(state, qubo, gamma, scale=None):
    """Diagonal phase layer: amplitude of ``|x>`` gains ``exp(i pi gamma E(x) / 2)``.

    ``E(x)`` is the offset-dropped (and, when ``scale`` is given, rescaled)
    QUBO energy of ``x``.
    """
    e = energy_table(QuboProblem(qubo.linear))
    if scale is not None:
        e = e / scale
    phases = np.exp(1j * math.pi * gamma * e / 2.0)
    return DenseState(state.amplitudes * phases, state.n)


def dense_mixer_layer(state, beta):
    """Rotate every qubit by ``exp(i pi beta X / 2)``, one qubit at a time."""
    c = math.cos(math.pi * beta / 2.0)
    s = 1j * math.sin(math.pi * beta / 2.0)
    amps = state.amplitudes
    for qubit in range(state.n):
        view = amps.reshape(-1, 2, 1 << qubit)
        a0 = view[:, 0, :]
        a1 = view[:, 1, :]
        amps = np.stack((c * a0 + s * a1, s * a0 + c * a1), axis=1).reshape(-1)
    return DenseState(amps, state.n)


def dense_run_circuit(qubo, params):
    """The QAOA circuit on the full 2^n statevector, one dense layer at a time.

    Same signature as :func:`hquc.qaoa.run_circuit`, and its state has the
    read methods the solver calls, so it can stand in for the product-state
    kernel as its oracle.
    """
    state = dense_uniform(qubo.n)
    for gamma, beta in zip(params.gammas, params.betas):
        state = dense_cost_layer(state, qubo, gamma, scale=phase_scale(qubo))
        state = dense_mixer_layer(state, beta)
    return state


def dense_energy(qubo, gammas, betas):
    """The circuit's expected energy, its 2^n probabilities over the energy
    table: the dense oracle of :func:`hquc.qaoa._energy`, with its
    signature."""
    state = dense_run_circuit(qubo, QaoaParams(tuple(gammas), tuple(betas)))
    return float(state.probabilities() @ energy_table(qubo))


_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def matrix_cost(qubo, gamma, scale):
    """The cost unitary as the 2^n x 2^n matrix ``expm(i pi gamma diag(E) / 2)``,
    ``E`` the offset-dropped energy table divided by ``scale``."""
    e = energy_table(QuboProblem(qubo.linear)) / scale
    return expm(1j * np.pi * gamma / 2.0 * np.diag(e))


def matrix_mixer(n, beta):
    """The mixer as the Kronecker product of n copies of ``expm(i pi beta X / 2)``."""
    single = expm(1j * np.pi * beta / 2.0 * _X)
    mixer = np.array([[1.0]], dtype=complex)
    for _ in range(n):
        mixer = np.kron(mixer, single)
    return mixer


def matrix_circuit(qubo, params):
    """The QAOA circuit's 2^n amplitudes as a product of full matrices built
    with ``expm`` and ``kron``, independently of the layered oracle; costly,
    so for small n only."""
    n = qubo.n
    state = np.full(1 << n, 2.0 ** (-n / 2.0), dtype=complex)
    for gamma, beta in zip(params.gammas, params.betas):
        cost = matrix_cost(qubo, gamma, phase_scale(qubo))
        state = matrix_mixer(n, beta) @ (cost @ state)
    return state


def reference_run_circuit(qubo, params):
    """The product-state circuit as two ``(n,)`` numpy amplitude arrays, one
    per basis value: the array oracle of :func:`hquc.qaoa.run_circuit`, which
    it agrees with to 1e-12, not to the bit."""
    if qubo.n < 1:
        raise InvariantViolation(f"need at least one qubit, got {qubo.n}")
    h = np.asarray(qubo.linear) / phase_scale(qubo)
    a0 = np.full(qubo.n, 2.0 ** -0.5, dtype=complex)
    a1 = a0.copy()
    for gamma, beta in zip(params.gammas, params.betas):
        a1 = a1 * np.exp(1j * math.pi * gamma * h / 2.0)
        c = math.cos(math.pi * beta / 2.0)
        s = 1j * math.sin(math.pi * beta / 2.0)
        a0, a1 = c * a0 + s * a1, s * a0 + c * a1
    return ProductState(tuple(zip(a0.tolist(), a1.tolist())))


def reference_expectation(state, qubo):
    """``sum_i q_i P_i(1) + constant`` as a numpy dot product: the array
    oracle of :func:`hquc.qaoa._energy`, read off a state's marginals."""
    return float(np.asarray(state.marginals()) @ np.asarray(qubo.linear)) + qubo.constant


def reference_energy(qubo, gammas, betas, pairs=None):
    """Every layer's full 2x2 update on each qubit's four amplitude parts:
    the bit-for-bit oracle of :func:`hquc.qaoa._energy`, with its signature.

    Each returned value must match the kernel's by ``float.hex()``.  The
    kernel skips the first cost step's products with the uniform state's
    zeros, so a zero amplitude part in ``pairs`` may differ in its sign.
    """
    layers = []
    for gamma, beta in zip(gammas, betas):
        t = math.pi * gamma / 2.0
        m = math.pi * beta / 2.0
        if not (math.isfinite(t) and math.isfinite(m)):
            return math.nan
        layers.append((t, math.cos(m), math.sin(m)))
    amp = 2.0**-0.5
    total = 0.0
    for q, h in zip(qubo.linear, qubo.slopes):
        a0r = a1r = amp
        a0i = a1i = 0.0
        for t, c, s in layers:
            th = t * h
            er = math.cos(th)
            ei = math.sin(th)
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


def reference_nelder_mead(func, x0):
    """Nelder-Mead that re-ranks the whole simplex with a stable sort, NaN
    last, after every step: the oracle of :func:`hquc.qaoa._nelder_mead`,
    which must call ``func`` at exactly these points, in this order."""
    n = len(x0)
    sim = [x0]
    fsim = [func(x0)]
    for k in range(n):
        vertex = list(x0)
        vertex[k] = 1.05 * x0[k] if x0[k] != 0 else 0.00025
        sim.append(vertex)
        fsim.append(func(vertex))

    def sort():
        order = sorted(range(n + 1), key=lambda i: (math.isnan(fsim[i]), fsim[i]))
        sim[:] = [sim[i] for i in order]
        fsim[:] = [fsim[i] for i in order]

    sort()
    while not (
        all(abs(v - v0) <= 1e-6 for x in sim[1:] for v, v0 in zip(x, sim[0]))
        and all(abs(fsim[0] - f) <= 1e-10 for f in fsim[1:])
    ):
        # numpy's column sums over the vertices: in order, from +0.0.
        total = [0.0] * n
        for x in sim[:-1]:
            total = [t + v for t, v in zip(total, x)]
        xbar = [t / n for t in total]
        worst = sim[-1]
        xr = [2 * b - w for b, w in zip(xbar, worst)]
        fxr = func(xr)
        if fxr < fsim[0]:
            xe = [3 * b - 2 * w for b, w in zip(xbar, worst)]
            fxe = func(xe)
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            if fxr < fsim[-1]:
                xc = [1.5 * b - 0.5 * w for b, w in zip(xbar, worst)]
                fxc = func(xc)
                accept = fxc <= fxr
            else:
                xc = [0.5 * b + 0.5 * w for b, w in zip(xbar, worst)]
                fxc = func(xc)
                accept = fxc < fsim[-1]
            if accept:
                sim[-1], fsim[-1] = xc, fxc
            else:
                best = sim[0]
                for j in range(1, n + 1):
                    sim[j] = [b + 0.5 * (v - b) for b, v in zip(best, sim[j])]
                    fsim[j] = func(sim[j])
        sort()
