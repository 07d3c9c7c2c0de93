"""Bit-identity pins: the solver paths return the floats they returned when
the pins were recorded.

ROADMAP aim 2 asks that ADMM trajectories stay bit-identical while the maths
is unchanged, so a change that moves any float here changed an answer; one
that does so on purpose records new digests and states its tolerance.  Each
pin hashes ``float.hex()`` of explicit value tuples rather than dataclass
reprs, so a field added to a result type leaves it alone.

The s2 pin hashes only the pure-Python values that follow from each
iteration's QAOA bits: the trace, the bits and the polished answer.  It
leaves out the angles and the QAOA expectation, which read libm's ``sin``
and ``cos`` and may move by ulps across machines or C libraries.  Each bit
compares its qubit's two probabilities, which such ulps move only at a near
tie.
"""

import hashlib
import math

import numpy as np

from helpers import _step_output, random_generators, random_instance, sweep_instance

from hquc import (
    AdmmConfig,
    Infeasible,
    Commitment,
    GeneratorParams,
    InfeasibleCommitment,
    UCInstance,
    default_config,
    economic_dispatch,
    run_admm,
    solve_uc_exact,
)
from hquc.ucmodel import _dual_bound

#: sha256 over the s1 runs on the ten-unit system at 50, 100, ..., 1600 MW.
S1_DIGEST = "c232986c56cb617f106f57a3902c3c18c67012ecc8cbfbf304de808a26e5ee0f"
#: sha256 over s1 on 20 seeded random fleets, some units with c = 0, at two
#: penalty pairs.
S1_RANDOM_DIGEST = "fd6912444476878e6c443824459145cf0667fec4c7b5c0ff77fc31a46fb46593"
#: sha256 over s2 on the first 4, 7 and 10 ten-unit rows at 20%, 50% and 80%
#: of their capacity, with each iteration's QAOA bits.
S2_DIGEST = "0d4809b8409d1a068edad381a42f0bcc774f380788d2bb120e3e264e18a68af2"
#: sha256 over the exact baseline on 20 seeded random fleets.
BASELINE_DIGEST = "35db172a1b1831dfe17bc7a241e8095455c343acdd4f9d5e7101277f722d6c4a"
#: sha256 over the Lagrangian bound's (mu, bound) on the same 20 fleets, at
#: the root and at three (on, free) prefixes per fleet.
DUAL_BOUND_DIGEST = "36166514ffd17272346e325cde793c90316a044b6b9d94cdbcebfab29645f558"
#: sha256 over the exact baseline on 48 seeded fleets of 10-60 units, with
#: c = 0 units and copied or nearly copied units.
BASELINE_LARGE_DIGEST = "bd455930b26c3da0d11f237cb72925195acc9bdb819ce2c837ab5f7822aefb00"
#: sha256 over the economic dispatch of seeded commitments at loads spread
#: over their capacity range, at both ends of it and at c = 0 price steps.
DISPATCH_DIGEST = "33bd5d104680b67b96846066aa6925c266fa2761f50885e2cac7ff6ecda4dac3"


def _digest(rows):
    h = hashlib.sha256()
    for row in rows:
        fields = (v.hex() if isinstance(v, float) else repr(v) for v in row)
        h.update((" ".join(fields) + "\n").encode())
    return h.hexdigest()


def _solution_row(tag, solution):
    if solution is None:
        return (tag, None)
    return (tag, *solution.commitment.bits, *solution.dispatch, solution.cost)


def _report_rows(tag, report):
    yield (tag, report.iterations, report.converged)
    for t in report.trace:
        yield (t.iter, t.residual, t.objective, t.block1_objective, t.block1_kkt,
               t.block2_energy)
    yield ("terminal", *report.terminal_commitment.bits)
    yield _solution_row("final", report.final)


def test_s1_trajectories_are_pinned(ten_unit):
    rows, fixed_at = [], set()
    for load in range(50, 1601, 50):
        report = run_admm(ten_unit(float(load)), default_config(float(load)))
        rows.extend(_report_rows(load, report))
        fixed_at.add(report.commitment_fixed_at)
    assert _digest(rows) == S1_DIGEST
    # From the zero start the block-2 bits never change after iteration 1.
    assert fixed_at == {1}


def test_s1_on_random_fleets_is_pinned():
    # The ten-unit system has c > 0 everywhere and runs only the preset
    # penalties; these fleets reach block 1's c = 0 price steps.
    rows, fixed_at = [], set()
    for seed in range(20):
        instance = random_instance(np.random.default_rng(seed), allow_zero_c=True)
        for rho, beta in ((4000.0, 1000.0), (40.0, 10.0)):
            report = run_admm(instance, AdmmConfig(rho=rho, beta=beta))
            rows.extend(_report_rows((seed, rho), report))
            fixed_at.add(report.commitment_fixed_at)
    assert _digest(rows) == S1_RANDOM_DIGEST
    assert fixed_at == {1}


def test_s2_trajectories_are_pinned(ten_unit_generators):
    rows, fixed_at = [], set()
    for k in (4, 7, 10):
        generators = ten_unit_generators[:k]
        capacity = sum(g.p_max for g in generators)
        for fraction in (0.2, 0.5, 0.8):
            load = fraction * capacity
            report = run_admm(
                UCInstance(generators, load), default_config(load, backend="qaoa")
            )
            rows.extend(_report_rows((k, fraction), report))
            for it, outcome in enumerate(report.qaoa_diagnostics, 1):
                rows.append((it, *outcome.bits))
            fixed_at.add(report.commitment_fixed_at)
    assert _digest(rows) == S2_DIGEST
    assert fixed_at == {1}


def test_exact_baseline_is_pinned():
    rows = []
    for seed in range(20):
        instance = random_instance(np.random.default_rng(seed), allow_zero_c=True)
        try:
            solution = solve_uc_exact(instance)
        except Infeasible:
            solution = None
        rows.append(_solution_row(seed, solution))
    assert _digest(rows) == BASELINE_DIGEST


def test_dual_bound_is_pinned():
    # The baseline pin sees the bound only through pruning, which a moved
    # last bit need not change; this one hashes the bound's own floats.
    rows = []
    for seed in range(20):
        rng = np.random.default_rng(seed)
        instance = random_instance(rng, allow_zero_c=True)
        gens, load = instance.generators, instance.load
        rows.append((seed, *_dual_bound((), gens, load)))
        for _ in range(3):
            k = int(rng.integers(0, len(gens)))
            on = [g for g in gens[:k] if rng.random() < 0.5]
            rows.append((seed, k, *(g.id for g in on), *_dual_bound(on, gens[k:], load)))
    assert _digest(rows) == DUAL_BOUND_DIGEST


def test_exact_baseline_on_larger_fleets_is_pinned():
    # Past enumeration's reach, with the ties and near ties that only the
    # tie rule and the prune margin keep right.
    rows = []
    for seed in range(48):
        rng = np.random.default_rng(1000 + seed)
        instance = sweep_instance(rng, int(rng.integers(10, 61)))
        try:
            solution = solve_uc_exact(instance)
        except Infeasible:
            solution = None
        rows.append(_solution_row(seed, solution))
    assert _digest(rows) == BASELINE_LARGE_DIGEST


def _step_loads(on, rng):
    """Loads at which the clearing price sits on a c = 0 unit's step: the
    other units' outputs at its ``b``, plus a point of its own range."""
    for j in on:
        if j.c == 0.0:
            others = 0.0
            for g in on:
                if g is not j:
                    others += _step_output(g.b, g.c, g.p_min, g.p_max, j.b)
            yield others + j.p_min + float(rng.uniform(0.0, 1.0)) * (j.p_max - j.p_min)


def test_economic_dispatch_is_pinned():
    rows = []
    for seed in range(60):
        rng = np.random.default_rng(2000 + seed)
        gens = random_generators(rng, int(rng.integers(1, 31)), allow_zero_c=True)
        if seed % 3 == 0:
            # Every c = 0 unit but the first takes unit 1's b, so several
            # share one step and the settle splits a flat segment among them.
            gens = tuple(
                g if g.c > 0.0 or i == 0 else
                GeneratorParams(g.id, g.a, gens[0].b, 0.0, g.p_min, g.p_max)
                for i, g in enumerate(gens)
            )
        bits = tuple(int(rng.random() < 0.6) for _ in gens)
        on = [g for g, y in zip(gens, bits) if y]
        # The range ends summed as the dispatch sums them.
        p_min_sum = math.fsum(g.p_min for g in on)
        p_max_sum = math.fsum(g.p_max for g in on)
        loads = [p_min_sum, p_max_sum, *_step_loads(on, rng)]
        loads += [p_min_sum + f * (p_max_sum - p_min_sum) for f in rng.uniform(0.0, 1.0, 4)]
        loads += [math.nextafter(p_min_sum, math.inf), math.nextafter(p_max_sum, 0.0)]
        for load in loads:
            instance = UCInstance(gens, max(float(load), 0.0))
            try:
                dispatch = economic_dispatch(instance, Commitment(bits))
            except InfeasibleCommitment:
                dispatch = None
            rows.append((seed, instance.load, *bits, dispatch is None, *(dispatch or ())))
    assert _digest(rows) == DISPATCH_DIGEST
