"""Shared test utilities: random instance generation and brute-force oracles."""

from __future__ import annotations

import math

import numpy as np

from hquc import (
    GeneratorParams,
    InvariantViolation,
    ProductState,
    UCInstance,
    apply_cost_layer,
    apply_mixer_layer,
    init_uniform,
    phase_scale,
)


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


def reference_bisect(supply, load, lo, hi):
    """Plain price bisection, the oracle of :func:`hquc.ucmodel.bisect_price`.

    Halves the bracket at its midpoint, keeping ``supply(lo) <= load``, until
    no float lies strictly inside; a NaN or infinite midpoint ends the loop.
    For a nondecreasing ``supply`` the final bracket is unique, so the kernel
    must return exactly this ``(lo, hi)``.
    """
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if supply(mid) <= load:
            lo = mid
        else:
            hi = mid
    return lo, hi


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


def dense_run_circuit(qubo, params):
    """The QAOA circuit on the full 2^n statevector, one dense layer at a time.

    Same signature and result API as :func:`hquc.qaoa.run_circuit`, so it can
    stand in for the product-state kernel as its oracle.
    """
    state = init_uniform(qubo.n)
    for gamma, beta in zip(params.gammas, params.betas):
        state = apply_cost_layer(state, qubo, gamma, scale=phase_scale(qubo))
        state = apply_mixer_layer(state, beta)
    return state


def reference_run_circuit(qubo, params):
    """The product-state kernel as two ``(n,)`` amplitude arrays, one per basis
    value, the bit-for-bit oracle of :func:`hquc.qaoa.run_circuit`."""
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


def reference_expectation(state, qubo):
    """``sum_i q_i P_i(1) + constant`` with the coefficients converted on each
    call, the bit-for-bit oracle of :func:`hquc.qaoa.expectation`."""
    return float(state.marginals() @ np.asarray(qubo.linear)) + qubo.constant
