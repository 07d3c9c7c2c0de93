import math
import re
from dataclasses import fields, replace
from itertools import islice
from random import Random

import numpy as np
import pytest
from scipy.optimize import brentq

from helpers import (
    THREE_UNIT_LATE_MOVER,
    dense_energy,
    dense_run_circuit,
    random_generators,
    random_instance,
)

import hquc.admm
import hquc.qaoa
from hquc.admm import admm_steps, residual, update_dual, update_r
from hquc.ucmodel import polish
from hquc import (
    AdmmConfig,
    Commitment,
    Infeasible,
    InfeasibleCommitment,
    InfeasibleRelaxation,
    InvariantViolation,
    LengthMismatch,
    QaoaConfig,
    UCSolution,
    check_feasible,
    default_config,
    economic_dispatch,
    enumerate_uc,
    evaluate_cost,
    preset_penalties,
    UCInstance,
    run_admm,
    solve_qubo_perbit,
    solve_uc_exact,
)

LOAD_SUITE = (100.0, 200.0, 400.0, 800.0, 1000.0)

# Late movers: zero-start runs whose block-2 bits change after iteration 1.
# Seeds 0-2999 of _seeded_fleet give 23 of them; these are the first 20, each
# with its commitment_fixed_at, iteration count, final bits, final cost's hex
# digits, and whether the final answer is the enumerated optimum.
LATE_MOVERS = {
    16: (3, 48, (0, 0, 0, 0, 1, 1, 0), "0x1.73cb8fd6e49b2p+11", False),
    34: (2, 46, (1, 1), "0x1.c9d54659a7cacp+12", False),
    124: (4, 49, (0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0), "0x1.70d408bec5bb4p+11", False),
    162: (2, 46, (0, 0, 1, 1, 0, 0, 0), "0x1.21336ba343a4cp+11", True),
    402: (4, 49, (1, 0, 0, 0, 0, 0, 0, 0, 1), "0x1.858e837b6155ap+11", False),
    588: (3, 48, (1, 1, 0), "0x1.0fb9e8e59c9b4p+12", True),
    753: (3, 48, (0, 1, 1, 0, 0), "0x1.29672cc353f64p+12", False),
    916: (7, 53, (1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0), "0x1.91abafcb7459dp+11", True),
    936: (10, 56, (0, 0, 1, 0, 0, 0, 0, 0, 1, 1), "0x1.8d53560e5332fp+11", False),
    969: (9, 55, (1, 1, 0, 0, 0), "0x1.61e201184271ep+11", True),
    1203: (2, 46, (0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0), "0x1.ce892b522048ap+10", False),
    1261: (5, 51, (1, 0, 0, 0, 0, 0, 0, 0, 1, 0), "0x1.ebb9730309334p+10", False),
    1378: (4, 49, (0, 0, 1, 1, 0, 0), "0x1.912c2a0c805bbp+11", True),
    1426: (9, 55, (0, 0, 0, 1, 0, 0, 1, 0, 0), "0x1.1c51eab36ffd8p+11", True),
    1991: (8, 54, (0, 0, 0, 0, 1, 1, 1), "0x1.ea646e98933f6p+11", True),
    2149: (9, 55, (0, 1, 1, 0), "0x1.074b9e9d2d8f5p+12", True),
    2175: (4, 49, (0, 0, 1, 0, 1, 0), "0x1.9d54cf1f9c3f5p+11", True),
    2334: (15, 62, (0, 0, 1, 0, 0, 1, 0, 0, 0), "0x1.32262d564e438p+11", False),
    2582: (4, 49, (1, 1, 0), "0x1.169642dbfbda9p+12", False),
    2745: (5, 51, (1, 1, 0, 0, 0, 0, 0), "0x1.ca5f067513fdfp+11", False),
}


def _seeded_fleet(seed):
    """2-12 random units at a load of 100-200 MW, or None where the load
    exceeds 0.95 of the fleet's capacity."""
    rng = np.random.default_rng(seed)
    gens = random_generators(rng, int(rng.integers(2, 13)))
    load = float(rng.uniform(100, 200))
    return UCInstance(gens, load) if load <= 0.95 * sum(g.p_max for g in gens) else None


def _r_component_objective(y, z, lam, rho, beta):
    def phi(r):
        slack = y - z + r
        return (beta / 2.0) * r * r + lam * slack + (rho / 2.0) * slack * slack

    return phi


class TestConfig:
    def test_requires_rho_above_beta(self):
        with pytest.raises(InvariantViolation):
            AdmmConfig(rho=1000.0, beta=1000.0)
        with pytest.raises(InvariantViolation):
            AdmmConfig(rho=500.0, beta=1000.0)
        with pytest.raises(InvariantViolation):
            AdmmConfig(rho=1.0, beta=0.0)

    @pytest.mark.parametrize(
        "name, value, message",
        [
            ("epsilon", 0.0, "epsilon 0.0 <= 0"),
            ("max_iters", 0, "max_iters 0 < 1"),
            ("backend", "x", "unknown backend 'x'"),
            ("max_iters", 2.5, "max_iters=2.5 is not an integer"),
        ],
    )
    def test_rejects_bad_settings(self, name, value, message):
        with pytest.raises(InvariantViolation, match=re.escape(message)):
            AdmmConfig(rho=4000.0, beta=1000.0, **{name: value})

    @pytest.mark.parametrize(
        "settings, message",
        [
            ({"rho": "x", "beta": 1.0}, "rho='x' is not a real number"),
            ({"rho": 4.0, "beta": None}, "beta=None is not a real number"),
            ({"rho": 4.0, "beta": 1.0, "epsilon": 1j}, "epsilon=1j is not a real number"),
            ({"rho": 4.0, "beta": 1.0, "initial_z": (1, "a")},
             "initial_z[1]='a' is not a real number"),
            ({"rho": 4.0, "beta": 1.0, "initial_lambda": ("0",)},
             "initial_lambda[0]='0' is not a real number"),
        ],
    )
    def test_rejects_non_numeric_settings(self, settings, message):
        # They used to end in math.isfinite's TypeError.
        with pytest.raises(InvariantViolation, match=re.escape(message)):
            AdmmConfig(**settings)

    def test_presets_by_load(self):
        assert preset_penalties(50.0) == (1_000_001.0, 1_000_000.0)
        assert preset_penalties(100.0) == (1001.0, 1000.0)
        assert preset_penalties(200.0) == (1001.0, 1000.0)
        assert preset_penalties(400.0) == (4000.0, 1000.0)

    def test_default_config_applies_presets(self):
        cfg = default_config(800.0)
        assert (cfg.rho, cfg.beta) == (4000.0, 1000.0)
        assert cfg.epsilon == 1e-6
        assert cfg.max_iters == 1000


class TestUpdateR:
    def test_zero_slack_zero_dual(self):
        out = update_r((0.3, 0.8), (0.3, 0.8), (0.0, 0.0), rho=10.0, beta=1.0)
        assert np.allclose(out, 0.0)

    def test_hand_worked_value(self):
        # -(10 + 4000 * (0.5 - 1)) / (1000 + 4000) = 0.398
        out = update_r((0.5,), (1.0,), (10.0,), rho=4000.0, beta=1000.0)
        assert out[0] == pytest.approx(0.398, rel=1e-12)

    def test_beta_zero_limit_cancels_slack_and_dual(self):
        rng = np.random.default_rng(2)
        y = rng.uniform(0, 1, 5)
        z = rng.integers(0, 2, 5).astype(float)
        lam = rng.normal(0, 10, 5)
        rho = 123.0
        r = update_r(y, z, lam, rho, beta=0.0)
        assert np.allclose(y - z + r, -lam / rho, atol=1e-12)

    def test_is_componentwise_minimizer(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            y = float(rng.uniform(0, 1))
            z = float(rng.integers(0, 2))
            lam = float(rng.normal(0, 500))
            rho = float(rng.uniform(1.0, 5000.0))
            beta = float(rng.uniform(0.1, 0.9)) * rho
            r_star = float(update_r((y,), (z,), (lam,), rho, beta)[0])
            phi = _r_component_objective(y, z, lam, rho, beta)
            assert phi(r_star) <= phi(r_star + 1e-3) + 1e-12
            assert phi(r_star) <= phi(r_star - 1e-3) + 1e-12

    def test_matches_numeric_minimization(self):
        # The objective is smooth and strictly convex, so the sharpest
        # numeric minimization is a bracketed root solve of its slope.
        rng = np.random.default_rng(5)
        for _ in range(200):
            y = float(rng.uniform(0, 1))
            z = float(rng.integers(0, 2))
            lam = float(rng.normal(0, 500))
            rho = float(rng.uniform(1.0, 5000.0))
            beta = float(rng.uniform(0.1, 0.9)) * rho
            r_star = float(update_r((y,), (z,), (lam,), rho, beta)[0])

            def slope(r):
                return beta * r + lam + rho * (y - z + r)

            lo, hi = r_star - 1.0, r_star + 1.0
            assert slope(lo) < 0.0 < slope(hi)
            numeric = brentq(slope, lo, hi, xtol=1e-14)
            assert abs(r_star - numeric) <= 1e-8


class TestUpdateDual:
    def test_zero_slack_leaves_dual(self):
        lam = (3.0, -4.0)
        out = update_dual(lam, (1.0, 0.0), (1.0, 0.0), (0.0, 0.0), rho=100.0)
        assert tuple(out) == lam

    def test_half_step(self):
        out = update_dual((0.0,), (1.0,), (0.5,), (0.0,), rho=2.0)
        assert out[0] == pytest.approx(0.5)

    def test_sign_symmetry(self):
        up = update_dual((0.0,), (1.0,), (0.5,), (0.0,), rho=8.0)
        down = update_dual((0.0,), (0.0,), (0.5,), (0.0,), rho=8.0)
        assert up[0] == -down[0]


class TestResidual:
    def test_zero(self):
        assert residual((1.0, 0.0), (1.0, 0.0), (0.0, 0.0)) == 0.0

    def test_l1_sum(self):
        assert residual((1.0, 0.0), (0.0, 0.0), (0.0, 0.0)) == pytest.approx(1.0)

    def test_positive_homogeneity(self):
        rng = np.random.default_rng(7)
        y = rng.normal(0, 1, 6)
        base = residual(y, np.zeros(6), np.zeros(6))
        for t in (0.0, 0.5, 2.0, 10.0):
            assert residual(t * y, np.zeros(6), np.zeros(6)) == pytest.approx(
                t * base, rel=1e-12
            )


class TestRunAdmm:
    def test_zero_load_converges_immediately(self, ten_unit):
        report = run_admm(ten_unit(0.0), default_config(0.0))
        assert report.converged
        assert report.iterations == 1
        assert report.final is not None
        assert report.final.commitment.bits == (0,) * 10
        assert report.final.cost == 0.0

    def test_infeasible_load_raises(self, ten_unit):
        with pytest.raises(InfeasibleRelaxation):
            run_admm(ten_unit(2000.0), default_config(2000.0))

    def test_stopping_soundness(self, ten_unit):
        for load in LOAD_SUITE:
            report = run_admm(ten_unit(load), default_config(load))
            if report.converged:
                assert report.trace[-1].residual <= 1e-6

    def test_iteration_cap_reports_not_converged(self, ten_unit):
        cfg = default_config(800.0, max_iters=3)
        report = run_admm(ten_unit(800.0), cfg)
        assert not report.converged
        assert report.iterations == 3
        assert len(report.trace) == 3

    def test_nan_residual_ends_the_run(self, ten_unit):
        # At rho near 1e308 the qaoa iterates overflow, and from iteration 2
        # the residual is NaN, which never meets epsilon: the run ends there.
        config = AdmmConfig(rho=1.5e308, beta=0.75e308, backend="qaoa")
        report = run_admm(ten_unit(1300.0), config)
        assert not report.converged
        assert report.iterations == len(report.trace) == 2
        assert math.isfinite(report.trace[0].residual)
        assert math.isnan(report.trace[1].residual)

    def test_trace_is_finite_and_fully_populated(self, ten_unit):
        report = run_admm(ten_unit(800.0), default_config(800.0))
        assert [row.iter for row in report.trace] == list(
            range(1, report.iterations + 1)
        )
        for row in report.trace:
            for value in (
                row.residual, row.objective, row.block1_objective,
                row.block1_kkt, row.block2_energy, row.block2_gap,
            ):
                assert math.isfinite(value)

    def test_block2_gap_is_zero_on_every_s1_row(self, ten_unit):
        for load in range(50, 1601, 50):
            report = run_admm(ten_unit(float(load)), default_config(float(load)))
            assert all(row.block2_gap == 0.0 for row in report.trace)

    def test_block2_gap_measures_the_qaoa_bits(self, four_unit, ten_unit_generators):
        # The gap is the returned bits' energy over the per-bit minimum, so
        # it is never negative.  A budget of one leaves the bits to the start
        # angles, which miss the minimum here.
        for inst in (four_unit(300.0), UCInstance(ten_unit_generators[:7], 500.0)):
            for budget in (1, 100):
                qaoa = QaoaConfig(depth=1, optimizer_budget=budget)
                config = default_config(inst.load, backend="qaoa", qaoa=qaoa, max_iters=20)
                report = run_admm(inst, config)
                for row, outcome in zip(report.trace, report.qaoa_diagnostics):
                    least = solve_qubo_perbit(outcome.qubo)[1]
                    assert row.block2_gap == outcome.qubo.energy(outcome.bits) - least
                    assert row.block2_gap >= 0.0
                assert any(row.block2_gap > 0.0 for row in report.trace) == (budget == 1)

    def test_classical_runs_are_deterministic(self, ten_unit):
        a = run_admm(ten_unit(800.0), default_config(800.0))
        b = run_admm(ten_unit(800.0), default_config(800.0))
        assert a.trace == b.trace
        assert a.final == b.final

    def test_qaoa_runs_are_deterministic(self, four_unit):
        cfg = default_config(50.0, backend="qaoa")
        a = run_admm(four_unit(50.0), cfg)
        b = run_admm(four_unit(50.0), cfg)
        assert a.trace == b.trace
        assert len(a.qaoa_diagnostics) == a.iterations
        for rec_a, rec_b in zip(a.qaoa_diagnostics, b.qaoa_diagnostics):
            assert rec_a.params == rec_b.params
            assert rec_a.probabilities == rec_b.probabilities

    def test_sample_runs_draw_fresh_uniforms_each_iteration(
        self, four_unit, monkeypatch
    ):
        # One stream per iteration, one uniform per qubit from each.
        draws = []

        class Recording(Random):
            def __init__(self, seed):
                super().__init__(seed)
                self.drawn = []
                draws.append(self.drawn)

            def random(self):
                self.drawn.append(super().random())
                return self.drawn[-1]

        monkeypatch.setattr(hquc.qaoa, "Random", Recording)
        qaoa = QaoaConfig(optimizer_budget=20, extraction="sample", sample_seed=7)
        cfg = default_config(50.0, backend="qaoa", qaoa=qaoa)
        first = run_admm(four_unit(50.0), cfg)
        first_draws = list(draws)
        draws.clear()
        second = run_admm(four_unit(50.0), cfg)
        assert first.iterations >= 2
        assert len(first_draws) == first.iterations
        assert all(len(drawn) == 4 for drawn in first_draws)
        assert len(set(map(tuple, first_draws))) == first.iterations
        assert draws == first_draws
        assert first.trace == second.trace
        assert first.final == second.final

    def test_converged_dispatchable_commitment_is_feasible(self, ten_unit):
        inst = ten_unit(800.0)
        report = run_admm(inst, default_config(800.0))
        assert report.converged
        assert report.final is not None
        dispatch = economic_dispatch(inst, report.final.commitment)
        assert check_feasible(inst, report.final.commitment, dispatch, 1e-6).feasible

    def test_backend_equivalence_on_load_suite(self, ten_unit):
        for load in LOAD_SUITE:
            classical = run_admm(ten_unit(load), default_config(load))
            quantum = run_admm(
                ten_unit(load), default_config(load, backend="qaoa")
            )
            assert classical.converged and quantum.converged
            assert classical.final == quantum.final

    def test_custom_initialization_is_honored(self, four_unit):
        inst = four_unit(50.0)
        cfg = default_config(50.0, initial_z=(1.0, 1.0, 0.0, 1.0))
        report = run_admm(inst, cfg)
        assert report.converged
        assert report.terminal_commitment.bits == (1, 1, 0, 1)
        # The polish drops unit 2: (1, 0, 0, 1) serves 50 MW for less.
        assert report.final.commitment.bits == (1, 0, 0, 1)

    def test_initial_vector_length_checked(self, four_unit):
        cfg = default_config(50.0, initial_z=(1.0,) * 10)
        with pytest.raises(LengthMismatch):
            run_admm(four_unit(50.0), cfg)

    def test_block1_certificates_along_the_run(self, ten_unit):
        report = run_admm(ten_unit(800.0), default_config(800.0))
        assert max(row.block1_kkt for row in report.trace) <= 1e-9

    def test_commitment_fixed_at_reports_the_last_change_of_bits(
        self, ten_unit, monkeypatch
    ):
        # From a non-zero start the bits can keep changing: at 150 MW with
        # lambda = 1000 for every unit they last change at iteration 5.
        seen = []
        perbit = hquc.admm.solve_qubo_perbit

        def recorded(qubo):
            seen.append(perbit(qubo)[0])
            return seen[-1], qubo.energy(seen[-1])

        monkeypatch.setattr(hquc.admm, "solve_qubo_perbit", recorded)
        config = default_config(150.0, initial_lambda=(1000.0,) * 10)
        report = run_admm(ten_unit(150.0), config)
        changes = [k for k in range(1, len(seen)) if seen[k] != seen[k - 1]]
        assert report.commitment_fixed_at == changes[-1] + 1 == 5
        assert len(seen) == report.iterations > 5

    def test_each_iteration_starts_from_the_previous_results(
        self, ten_unit, four_unit, monkeypatch
    ):
        # Block 1 starts cold, then at the previous clearing price; a
        # warm-started QAOA solve starts at the previous outcome's angles.
        starts, solutions, warms = [], [], []
        block1, qaoa = hquc.admm.solve_block1, hquc.admm.solve_qubo_qaoa

        def recorded_block1(*args):
            starts.append(args[-1])
            solutions.append(block1(*args))
            return solutions[-1]

        def recorded_qaoa(qubo, config, *, warm, iteration):
            warms.append(warm)
            return qaoa(qubo, config, warm=warm, iteration=iteration)

        monkeypatch.setattr(hquc.admm, "solve_block1", recorded_block1)
        monkeypatch.setattr(hquc.admm, "solve_qubo_qaoa", recorded_qaoa)
        for inst, backend in ((ten_unit(800.0), "classical"), (four_unit(300.0), "qaoa")):
            starts.clear()
            solutions.clear()
            report = run_admm(inst, default_config(inst.load, backend=backend))
            assert report.iterations == len(solutions) >= 3
            assert starts == [None] + [s.price for s in solutions[:-1]]
        outcomes = report.qaoa_diagnostics
        assert warms == [None] + [outcome.params for outcome in outcomes[:-1]]

    def test_zero_start_run_that_moves_after_iteration_1(self):
        # Iteration 1's bits polish to the optimum; the loop moves on from
        # them and ends on a costlier commitment.
        inst = THREE_UNIT_LATE_MOVER
        config = default_config(inst.load)
        report = run_admm(inst, config)
        assert (report.converged, report.iterations) == (True, 48)
        assert report.commitment_fixed_at == 3
        assert report.terminal_commitment.bits == (0, 1, 0)
        assert report.final.commitment.bits == (0, 1, 1)
        assert report.final.cost == 5562.777834615801
        optimum = solve_uc_exact(inst)
        assert optimum.commitment.bits == (0, 0, 1)
        assert optimum.cost == 5388.249407220998
        first = next(admm_steps(inst, config))
        assert first.bits == (0, 1, 1)
        assert polish(inst, first.bits) == optimum

    @pytest.mark.parametrize("seed", list(LATE_MOVERS))
    def test_late_mover_corpus(self, seed):
        fixed_at, iterations, bits, cost, optimal = LATE_MOVERS[seed]
        inst = _seeded_fleet(seed)
        report = run_admm(inst, default_config(inst.load))
        assert report.converged
        assert (report.commitment_fixed_at, report.iterations) == (fixed_at, iterations)
        assert report.final.commitment.bits == bits
        assert report.final.cost.hex() == cost
        optimum = solve_uc_exact(inst)
        found = (report.final.commitment, report.final.cost)
        assert (found == (optimum.commitment, optimum.cost)) == optimal

    def test_commitment_fixed_at_is_one_when_the_bits_never_change(self, ten_unit):
        report = run_admm(ten_unit(800.0), default_config(800.0, max_iters=1))
        assert report.commitment_fixed_at == 1

    def test_random_small_instances_when_converged_match_oracle(self):
        # On tiny fleets the commitment lock still lets the first iteration
        # pick the cost-driven on-set; converged dispatchable runs must then
        # be self-consistent on cost.
        rng = np.random.default_rng(19)
        seen = 0
        for _ in range(30):
            inst = random_instance(rng, n=int(rng.integers(1, 5)), load_frac=0.6)
            report = run_admm(inst, default_config(inst.load))
            if not (report.converged and report.final is not None):
                continue
            seen += 1
            recosted = evaluate_cost(
                inst, report.final.commitment, report.final.dispatch
            )
            assert report.final.cost == pytest.approx(recosted, rel=1e-9)
            assert (
                check_feasible(
                    inst, report.final.commitment, report.final.dispatch, 1e-6
                ).feasible
            )
        assert seen > 0


def _hex_row(row):
    return [row.iter] + [
        getattr(row, f.name).hex() for f in fields(row) if f.name != "iter"
    ]


class TestAdmmSteps:
    """``admm_steps`` is the iteration without a stop test, and ``run_admm``
    is its residual-test consumer."""

    def test_steps_run_past_convergence(self, ten_unit):
        inst, config = ten_unit(800.0), default_config(800.0)
        report = run_admm(inst, config)
        assert report.converged
        k = report.iterations + 3
        steps = list(islice(admm_steps(inst, config), k))
        assert [step.row.iter for step in steps] == list(range(1, k + 1))
        assert all(step.outcome is None for step in steps)

    @pytest.mark.parametrize(
        "load, initial_lambda, backend",
        [(800.0, None, "classical"), (150.0, (1000.0,) * 10, "classical"),
         (300.0, None, "qaoa")],
        ids=["converging", "bits-change", "qaoa"],
    )
    def test_steps_are_the_capped_run(
        self, ten_unit, four_unit, load, initial_lambda, backend
    ):
        # From lambda = 1000 at 150 MW the bits last change at iteration 5.
        inst = ten_unit(load) if backend == "classical" else four_unit(load)
        config = default_config(load, backend=backend)
        if initial_lambda is not None:
            config = replace(config, initial_lambda=initial_lambda)
        steps = list(islice(admm_steps(inst, config), 8))
        for k in range(1, 9):
            report = run_admm(inst, replace(config, max_iters=k))
            taken = steps[: report.iterations]
            assert report.iterations == k or report.converged
            assert [_hex_row(row) for row in report.trace] == [
                _hex_row(step.row) for step in taken
            ]
            assert report.terminal_commitment.bits == taken[-1].bits
            changes = [b.row.iter for a, b in zip(taken, taken[1:]) if a.bits != b.bits]
            assert report.commitment_fixed_at == max(changes, default=1)
            outcomes = tuple(step.outcome for step in taken if backend == "qaoa")
            assert report.qaoa_diagnostics == outcomes
        if initial_lambda is not None:
            assert report.commitment_fixed_at == 5


def _polish_oracle(inst, terminal):
    """Brute force over all 2**n commitments, keeping ``terminal`` and those
    one flip away."""
    best = None
    for mask in range(1 << inst.n):
        bits = tuple((mask >> i) & 1 for i in range(inst.n))
        if sum(a != b for a, b in zip(bits, terminal)) > 1:
            continue
        commitment = Commitment(bits)
        try:
            dispatch = economic_dispatch(inst, commitment)
        except InfeasibleCommitment:
            continue
        cost = evaluate_cost(inst, commitment, dispatch)
        if best is None or (cost, bits) < (best.cost, best.commitment.bits):
            best = UCSolution(commitment, dispatch, cost)
    return best


class TestFinalRepair:
    @staticmethod
    def _check(inst):
        """Check one run's final solution against the brute-force polish of
        its terminal commitment.

        Returns True when the terminal commitment cannot serve the load.
        """
        report = run_admm(inst, default_config(inst.load))
        terminal = report.terminal_commitment
        assert report.final == _polish_oracle(inst, terminal.bits)
        try:
            economic_dispatch(inst, terminal)
        except InfeasibleCommitment:
            return True
        return False

    def test_load_suite(self, ten_unit):
        repaired = [self._check(ten_unit(load)) for load in LOAD_SUITE]
        assert repaired == [True, True, True, False, True]

    def test_random_fleets(self):
        rng = np.random.default_rng(23)
        repaired = []
        for _ in range(40):
            inst = random_instance(rng, n=int(rng.integers(1, 8)))
            repaired.append(self._check(inst))
        assert any(repaired) and not all(repaired)

    def test_final_is_no_costlier_than_its_neighbourhood(self):
        rng = np.random.default_rng(31)
        for _ in range(40):
            inst = random_instance(rng, n=int(rng.integers(1, 8)), allow_zero_c=True)
            report = run_admm(inst, default_config(inst.load))
            terminal = report.terminal_commitment.bits
            costs = []
            for i in range(-1, inst.n):
                bits = list(terminal)
                if i >= 0:
                    bits[i] = 1 - bits[i]
                commitment = Commitment(tuple(bits))
                try:
                    dispatch = economic_dispatch(inst, commitment)
                except InfeasibleCommitment:
                    continue
                costs.append(evaluate_cost(inst, commitment, dispatch))
            if not costs:
                assert report.final is None
                continue
            assert report.final is not None
            assert all(report.final.cost <= cost for cost in costs)

    def test_load_below_every_p_min_has_no_final(self, ten_unit):
        inst = ten_unit(5.0)
        with pytest.raises(Infeasible):
            enumerate_uc(inst)
        report = run_admm(inst, default_config(5.0))
        assert report.converged
        assert report.final is None


class TestQaoaKernelTrajectory:
    """The product-state kernel and the angle search's scalar loop leave
    every s2 trajectory bit-identical to the dense statevector simulation's.

    The speedup relies on this: ADMM sees only the extracted bits, and those
    match the dense simulation's, even where the expectations and optimized
    angles differ in their last digits.
    """

    @staticmethod
    def _run(inst):
        report = run_admm(inst, default_config(inst.load, backend="qaoa"))
        return (
            report.iterations,
            report.converged,
            report.trace,
            [outcome.bits for outcome in report.qaoa_diagnostics],
            report.terminal_commitment,
            report.final,
        )

    def test_dense_and_product_kernels_agree(
        self, four_unit, ten_unit_generators, monkeypatch
    ):
        for inst in (four_unit(50.0), UCInstance(ten_unit_generators[:6], 200.0)):
            product = self._run(inst)
            with monkeypatch.context() as patch:
                patch.setattr(hquc.qaoa, "_energy", dense_energy)
                patch.setattr(hquc.qaoa, "run_circuit", dense_run_circuit)
                dense = self._run(inst)
            assert product == dense

    def test_argmax_run_never_builds_the_amplitudes(self, four_unit, monkeypatch):
        # Only histograms read the 2^n amplitudes.
        def refuse(state):
            raise AssertionError("the 2^n amplitudes were built")

        monkeypatch.setattr(hquc.qaoa.ProductState, "amplitudes", property(refuse))
        report = run_admm(four_unit(50.0), default_config(50.0, backend="qaoa"))
        assert len(report.qaoa_diagnostics) == report.iterations
