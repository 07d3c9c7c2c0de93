import math

import numpy as np
import pytest
from scipy.optimize import brentq

from helpers import dense_run_circuit, random_instance

import hquc.qaoa
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
    residual,
    UCInstance,
    run_admm,
    update_dual,
    update_r,
)

LOAD_SUITE = (100.0, 200.0, 400.0, 800.0, 1000.0)


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

    @pytest.mark.parametrize(
        "y, z, lam",
        [((0.5,), (1.0, 0.0), (10.0,)), ((0.5, 0.5, 0.5), (1.0, 0.0), (0.0, 0.0))],
        ids=["broadcastable", "unbroadcastable"],
    )
    def test_length_mismatch(self, y, z, lam):
        with pytest.raises(LengthMismatch):
            update_r(y, z, lam, rho=4000.0, beta=1000.0)


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

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            update_dual((0.0,), (1.0, 2.0), (0.0, 0.0), (0.0, 0.0), rho=1.0)


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

    def test_trace_is_finite_and_fully_populated(self, ten_unit):
        report = run_admm(ten_unit(800.0), default_config(800.0))
        assert [row.iter for row in report.trace] == list(
            range(1, report.iterations + 1)
        )
        for row in report.trace:
            for value in (
                row.residual, row.objective, row.block1_objective,
                row.block1_kkt, row.block2_energy,
            ):
                assert math.isfinite(value)

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
        assert report.final is not None
        assert report.final.commitment.bits == (1, 1, 0, 1)

    def test_initial_vector_length_checked(self, four_unit):
        cfg = default_config(50.0, initial_z=(1.0,) * 10)
        with pytest.raises(LengthMismatch):
            run_admm(four_unit(50.0), cfg)

    def test_block1_certificates_along_the_run(self, ten_unit):
        report = run_admm(ten_unit(800.0), default_config(800.0))
        assert max(row.block1_kkt for row in report.trace) <= 1e-9

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


def _one_flip_oracle(inst, terminal):
    """Brute force over all 2**n commitments, keeping those one flip away."""
    best = None
    for mask in range(1 << inst.n):
        bits = tuple((mask >> i) & 1 for i in range(inst.n))
        if sum(a != b for a, b in zip(bits, terminal)) != 1:
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
        """Check one run's final solution against its terminal commitment.

        Returns True when the terminal commitment needed repair.
        """
        report = run_admm(inst, default_config(inst.load))
        terminal = report.terminal_commitment
        try:
            dispatch = economic_dispatch(inst, terminal)
        except InfeasibleCommitment:
            assert report.final == _one_flip_oracle(inst, terminal.bits)
            return True
        assert report.final.commitment == terminal
        assert report.final.dispatch == dispatch
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

    def test_load_below_every_p_min_has_no_final(self, ten_unit):
        inst = ten_unit(5.0)
        with pytest.raises(Infeasible):
            enumerate_uc(inst)
        report = run_admm(inst, default_config(5.0))
        assert report.converged
        assert report.final is None


class TestQaoaKernelTrajectory:
    """The product-state kernel leaves every s2 trajectory bit-identical.

    The speedup relies on this: ADMM sees only the extracted bits, and those
    match the dense statevector simulation's, even where the optimized angles
    differ in their last digits.
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
