import math

import numpy as np
import pytest
from scipy.linalg import expm

from helpers import dense_run_circuit

import hquc.qubo
from hquc import (
    DimensionMismatch,
    InvariantViolation,
    QaoaConfig,
    QaoaParams,
    QuboProblem,
    Statevector,
    TooManyQubits,
    apply_cost_layer,
    apply_mixer_layer,
    bits_to_string,
    expectation,
    extract_solution,
    init_uniform,
    optimize_params,
    phase_scale,
    run_circuit,
    solve_qubo_qaoa,
)

_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def _basis_state(index, n):
    amps = np.zeros(1 << n, dtype=complex)
    amps[index] = 1.0
    return Statevector(amps, n)


def _raw_energies(qubo):
    idx = np.arange(1 << qubo.n)
    e = np.zeros(1 << qubo.n)
    for i, q in enumerate(qubo.linear):
        e = e + q * ((idx >> i) & 1)
    return e


def _dense_circuit_oracle(qubo, params, normalize=True):
    """Full 2^n x 2^n matrix product built independently of the engine."""
    n = qubo.n
    e = _raw_energies(qubo)
    if normalize:
        biggest = max((abs(q) for q in qubo.linear), default=0.0)
        e = e / (biggest if biggest > 0 else 1.0)
    state = np.full(1 << n, 2.0 ** (-n / 2.0), dtype=complex)
    for gamma, beta in zip(params.gammas, params.betas):
        cost = np.diag(np.exp(1j * np.pi * gamma * e / 2.0))
        single = expm(1j * np.pi * beta / 2.0 * _X)
        mixer = np.array([[1.0]], dtype=complex)
        for _ in range(n):
            mixer = np.kron(mixer, single)
        state = mixer @ (cost @ state)
    return state


class TestInitUniform:
    def test_one_qubit(self):
        state = init_uniform(1)
        assert np.allclose(state.amplitudes, [math.sqrt(0.5), math.sqrt(0.5)])
        assert np.all(state.amplitudes.imag == 0.0)

    def test_two_qubits(self):
        state = init_uniform(2)
        assert np.allclose(state.amplitudes, [0.5] * 4)

    def test_ten_qubits(self):
        state = init_uniform(10)
        assert state.amplitudes.shape == (1024,)
        assert np.allclose(state.amplitudes, 2.0**-5)

    def test_guards(self):
        with pytest.raises(TooManyQubits):
            init_uniform(17)
        with pytest.raises(InvariantViolation):
            init_uniform(0)


class TestCostLayer:
    def test_zero_angle_is_identity(self):
        state = init_uniform(3)
        out = apply_cost_layer(state, QuboProblem((1.0, -2.0, 0.5)), 0.0)
        assert np.allclose(out.amplitudes, state.amplitudes)

    def test_probabilities_never_change(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(1, 5))
            qubo = QuboProblem(tuple(rng.normal(0, 5, n)))
            amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
            amps /= np.linalg.norm(amps)
            state = Statevector(amps, n)
            out = apply_cost_layer(state, qubo, float(rng.uniform(-3, 3)))
            assert np.max(np.abs(out.probabilities() - state.probabilities())) < 1e-12

    def test_unit_slope_quarter_turn(self):
        # q = (1), gamma = 1: |1> picks up exp(i pi / 2) = i, |0> untouched.
        state = init_uniform(1)
        out = apply_cost_layer(state, QuboProblem((1.0,)), 1.0, scale=1.0)
        ratio = out.amplitudes[1] / state.amplitudes[1]
        assert ratio == pytest.approx(1j, abs=1e-12)
        assert out.amplitudes[0] == pytest.approx(state.amplitudes[0])

    def test_matches_matrix_exponential(self):
        qubo = QuboProblem((0.7, -1.3))
        gamma = 0.63
        state = init_uniform(2)
        for scale in (None, phase_scale(qubo)):
            out = apply_cost_layer(state, qubo, gamma, scale=scale)
            e = _raw_energies(qubo) / (scale if scale is not None else 1.0)
            dense = expm(1j * np.pi * gamma / 2.0 * np.diag(e))
            assert np.allclose(out.amplitudes, dense @ state.amplitudes, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            apply_cost_layer(init_uniform(2), QuboProblem((1.0,)), 0.5)


class TestMixerLayer:
    def test_zero_angle_is_identity(self):
        state = init_uniform(3)
        out = apply_mixer_layer(state, 0.0)
        assert np.allclose(out.amplitudes, state.amplitudes)

    def test_full_turn_flips_basis_state(self):
        out = apply_mixer_layer(_basis_state(0, 1), 1.0)
        assert out.probabilities()[1] == pytest.approx(1.0, abs=1e-12)

    def test_half_turn_splits_evenly(self):
        out = apply_mixer_layer(_basis_state(0, 1), 0.5)
        assert np.allclose(out.probabilities(), [0.5, 0.5])

    def test_matches_matrix_exponential_per_qubit(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            n = int(rng.integers(1, 4))
            beta = float(rng.uniform(-2, 2))
            amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
            amps /= np.linalg.norm(amps)
            state = Statevector(amps.copy(), n)
            out = apply_mixer_layer(state, beta)
            single = expm(1j * np.pi * beta / 2.0 * _X)
            dense = np.array([[1.0]], dtype=complex)
            for _ in range(n):
                dense = np.kron(dense, single)
            assert np.allclose(out.amplitudes, dense @ amps, atol=1e-12)

    def test_norm_preserved(self):
        rng = np.random.default_rng(9)
        state = init_uniform(6)
        for _ in range(50):
            state = apply_mixer_layer(state, float(rng.uniform(-3, 3)))
        assert state.norm_error() < 1e-10


class TestRunCircuit:
    def test_zero_angles_leave_uniform_state(self):
        qubo = QuboProblem((3.0, -1.0))
        params = QaoaParams((0.0, 0.0), (0.0, 0.0))
        state = run_circuit(qubo, params)
        assert np.allclose(state.amplitudes, 0.5)

    def test_depth_one_is_manual_composition(self):
        qubo = QuboProblem((1.5, -0.5, 2.0))
        params = QaoaParams((0.37,), (0.81,))
        scale = phase_scale(qubo)
        manual = apply_mixer_layer(
            apply_cost_layer(init_uniform(3), qubo, 0.37, scale=scale), 0.81
        )
        auto = run_circuit(qubo, params)
        assert np.allclose(auto.amplitudes, manual.amplitudes)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            n = int(rng.integers(1, 4))
            depth = int(rng.integers(1, 4))
            qubo = QuboProblem(tuple(rng.normal(0, 3, n)), float(rng.normal()))
            params = QaoaParams(
                tuple(rng.uniform(-2, 2, depth)), tuple(rng.uniform(-2, 2, depth))
            )
            mine = run_circuit(qubo, params)
            oracle = _dense_circuit_oracle(qubo, params)
            assert np.max(np.abs(mine.amplitudes - oracle)) < 1e-9
            assert mine.norm_error() < 1e-10


class TestProductKernel:
    def test_matches_dense_layers(self):
        # Penalty-sized slopes (up to 1e6), about one in five exactly zero.
        # The tolerance grows with the largest cost phase the circuit builds,
        # because both kernels round that phase angle.
        rng = np.random.default_rng(2024)
        config = QaoaConfig()
        for _ in range(200):
            n = int(rng.integers(1, 11))
            depth = int(rng.integers(1, 4))
            size = 10.0 ** rng.uniform(0, 6)
            linear = rng.normal(0, size, n)
            linear[rng.random(n) < 0.2] = 0.0
            qubo = QuboProblem(tuple(linear), float(rng.normal(0, size * n)))
            params = QaoaParams(
                tuple(rng.uniform(-2, 2, depth)), tuple(rng.uniform(-2, 2, depth))
            )
            product = run_circuit(qubo, params)
            dense = dense_run_circuit(qubo, params)
            h = np.abs(linear) / phase_scale(qubo)
            phase = math.pi / 2 * np.sum(np.abs(params.gammas)) * h.sum()
            tol = 1e-12 * max(1.0, phase)
            assert np.max(np.abs(product.amplitudes - dense.amplitudes)) <= tol
            probs = dense.probabilities()
            assert np.max(np.abs(product.probabilities() - probs)) <= tol
            energy_size = max(1.0, np.abs(linear).sum() + abs(qubo.constant))
            assert abs(
                expectation(product, qubo) - expectation(dense, qubo)
            ) <= tol * energy_size
            top, runner_up = np.sort(probs)[::-1][:2]
            if top - runner_up > tol:
                assert extract_solution(product, config) == extract_solution(
                    dense, config
                )

    def test_zero_slope_qubit_ties_to_zero(self):
        # A zero slope leaves its qubit in |+>: an exact tie on both kernels.
        qubo = QuboProblem((0.0, -3.0, 0.0, 2.0))
        params = QaoaParams((0.8, 0.3), (0.4, -0.6))
        product = run_circuit(qubo, params)
        probs = np.abs(product.pairs) ** 2
        assert probs[0, 0] == probs[0, 1] and probs[2, 0] == probs[2, 1]
        bits = extract_solution(product, QaoaConfig())
        assert bits[0] == bits[2] == 0
        assert bits == extract_solution(
            dense_run_circuit(qubo, params), QaoaConfig()
        )


class TestExpectation:
    def test_uniform_single_qubit(self):
        assert expectation(init_uniform(1), QuboProblem((-1.0,))) == pytest.approx(-0.5)

    def test_basis_states_give_point_energies(self):
        qubo = QuboProblem((2.0, -3.0, 0.5), 1.25)
        for index in range(8):
            bits = tuple((index >> i) & 1 for i in range(3))
            got = expectation(_basis_state(index, 3), qubo)
            assert got == pytest.approx(qubo.energy(bits), rel=1e-12)

    def test_uniform_state_averages_all_energies(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            n = int(rng.integers(1, 6))
            qubo = QuboProblem(tuple(rng.normal(0, 10, n)), float(rng.normal()))
            mean = float(np.mean(qubo.energies()))
            assert expectation(init_uniform(n), qubo) == pytest.approx(
                mean, rel=1e-9, abs=1e-9
            )

    def test_zero_angles_match_uniform_average(self):
        rng = np.random.default_rng(15)
        qubo = QuboProblem(tuple(rng.normal(0, 4, 4)), 2.0)
        params = QaoaParams((0.0, 0.0), (0.0, 0.0))
        state = run_circuit(qubo, params)
        assert expectation(state, qubo) == pytest.approx(
            float(np.mean(qubo.energies())), rel=1e-9
        )


class TestOptimizeParams:
    def test_budget_one_returns_initial(self):
        qubo = QuboProblem((-1.0, 2.0))
        start = QaoaParams((0.3, 0.4), (0.5, 0.6))
        config = QaoaConfig(depth=2, optimizer_budget=1)
        params, value = optimize_params(qubo, config, start)
        assert params == start
        assert value == pytest.approx(
            expectation(run_circuit(qubo, start), qubo)
        )

    def test_single_qubit_concentrates_on_minimizer(self):
        qubo = QuboProblem((-1.0,))
        config = QaoaConfig(depth=1, optimizer_budget=100)
        params, _ = optimize_params(qubo, config)
        state = run_circuit(qubo, params)
        assert state.probabilities()[1] > 0.5

    def test_never_worse_than_start(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            n = int(rng.integers(1, 5))
            depth = int(rng.integers(1, 3))
            qubo = QuboProblem(tuple(rng.normal(0, 100, n)), float(rng.normal()))
            start = QaoaParams(
                tuple(rng.uniform(-1, 1, depth)), tuple(rng.uniform(-1, 1, depth))
            )
            config = QaoaConfig(optimizer_budget=int(rng.integers(1, 40)))
            params, value = optimize_params(qubo, config, start)
            f_start = expectation(run_circuit(qubo, start), qubo)
            f_end = expectation(run_circuit(qubo, params), qubo)
            assert f_end <= f_start + 1e-12
            assert value == pytest.approx(f_end)


class TestExtractSolution:
    def test_argmax_picks_heaviest_bitstring(self):
        amps = np.sqrt(np.array([0.1, 0.2, 0.3, 0.4], dtype=complex))
        bits = extract_solution(Statevector(amps, 2), QaoaConfig())
        assert bits == (1, 1)
        assert bits_to_string(bits) == "11"

    def test_argmax_tie_breaks_to_smallest_index(self):
        bits = extract_solution(init_uniform(3), QaoaConfig())
        assert bits == (0, 0, 0)

    def test_basis_state_round_trip(self):
        for n in (1, 2, 4):
            for index in range(1 << n):
                bits = extract_solution(_basis_state(index, n), QaoaConfig())
                assert bits == tuple((index >> i) & 1 for i in range(n))

    def test_sampling_is_seed_deterministic(self):
        state = init_uniform(4)
        config = QaoaConfig(extraction="sample", sample_seed=1234)
        first = extract_solution(state, config)
        second = extract_solution(state, config)
        assert first == second
        other = extract_solution(
            state, QaoaConfig(extraction="sample", sample_seed=4321)
        )
        assert len(other) == 4


class TestSolveQuboQaoa:
    def test_zero_objective_is_flat(self):
        qubo = QuboProblem((0.0, 0.0), 4.5)
        outcome = solve_qubo_qaoa(qubo, QaoaConfig(depth=1, optimizer_budget=10))
        assert outcome.expectation == pytest.approx(4.5)
        assert sum(outcome.probabilities.values()) == pytest.approx(1.0, abs=1e-9)

    def test_probability_keys_render_most_significant_first(self):
        qubo = QuboProblem((-5.0, 1.0, 1.0, -2.0))
        outcome = solve_qubo_qaoa(qubo, QaoaConfig(depth=1, optimizer_budget=30))
        assert set(len(k) for k in outcome.probabilities) == {4}
        assert "1011" in outcome.probabilities

    def test_warm_start_overrides_initial_point(self):
        qubo = QuboProblem((-3.0, 7.0))
        config = QaoaConfig(depth=2, optimizer_budget=1)
        warm = QaoaParams((0.9, -0.2), (0.4, 0.7))
        outcome = solve_qubo_qaoa(qubo, config, warm=warm)
        assert outcome.params == warm

    def test_negative_sample_seed_rejected(self):
        with pytest.raises(InvariantViolation):
            QaoaConfig(extraction="sample", sample_seed=-1)

    def test_size_guard(self):
        # An argmax solve never builds the 2**n table, so it has no size
        # limit; reading the bitstring probabilities or sampling does.
        qubo = QuboProblem(tuple((-1.0) ** i * (i + 1) for i in range(17)))
        outcome = solve_qubo_qaoa(qubo, QaoaConfig(depth=1, optimizer_budget=20))
        assert len(outcome.bits) == 17
        with pytest.raises(TooManyQubits):
            outcome.probabilities
        with pytest.raises(TooManyQubits):
            extract_solution(outcome.state, QaoaConfig(extraction="sample"))
        with pytest.raises(TooManyQubits):
            solve_qubo_qaoa(qubo, QaoaConfig(optimizer_budget=5, extraction="sample"))

    def test_norm_preserved_through_solve(self):
        qubo = QuboProblem((4000.0, -3999.0, 12.0))
        outcome = solve_qubo_qaoa(qubo, QaoaConfig(depth=2, optimizer_budget=60))
        total = sum(outcome.probabilities.values())
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_phase_slopes_built_once_per_solve(self, monkeypatch):
        # The angle search runs the circuit once per evaluation; the scaled
        # slopes are a property of the QUBO, computed on the first of them.
        calls = []
        original = hquc.qubo.phase_scale

        def counted(qubo):
            calls.append(qubo)
            return original(qubo)

        monkeypatch.setattr(hquc.qubo, "phase_scale", counted)
        qubo = QuboProblem((4000.0, -3999.0, 12.0))
        outcome = solve_qubo_qaoa(qubo, QaoaConfig(depth=2, optimizer_budget=60))
        assert calls == [qubo]
        assert np.array_equal(qubo.phase_slopes, np.array(qubo.linear) / 4000.0)
        assert outcome.bits == (0, 1, 0)
