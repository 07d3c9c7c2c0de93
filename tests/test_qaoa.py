import math
from random import Random

import numpy as np
import pytest
from scipy.optimize import minimize

from helpers import (
    DenseState,
    dense_cost_layer,
    dense_energy,
    dense_mixer_layer,
    dense_run_circuit,
    dense_uniform,
    energy_table,
    matrix_circuit,
    matrix_cost,
    matrix_mixer,
    reference_energy,
    reference_expectation,
    reference_nelder_mead,
    reference_run_circuit,
)

import hquc.admm
import hquc.qaoa
import hquc.qubo
from hquc import (
    Commitment,
    InvariantViolation,
    ProductState,
    QaoaConfig,
    QaoaParams,
    QuboProblem,
    TooManyQubits,
    UCInstance,
    default_config,
    extract_solution,
    optimize_params,
    phase_scale,
    run_admm,
    run_circuit,
    solve_qubo_qaoa,
)


def _from_marginals(marginals):
    """The product state with real amplitudes ``(sqrt(1 - p_i), sqrt(p_i))``."""
    return ProductState(
        tuple((complex(math.sqrt(1.0 - p)), complex(math.sqrt(p))) for p in marginals)
    )


def _uniform(n):
    """|+>^n as a product state: ``(sqrt(1/2), sqrt(1/2))`` on every qubit."""
    return _from_marginals([0.5] * n)


def _basis_state(index, n):
    """``|index>`` as a product state: ``(1, 0)`` or ``(0, 1)`` per qubit."""
    return _from_marginals([(index >> i) & 1 for i in range(n)])


class TestInitUniform:
    """The dense oracle's start state."""

    def test_one_qubit(self):
        state = dense_uniform(1)
        assert np.allclose(state.amplitudes, [math.sqrt(0.5), math.sqrt(0.5)])
        assert np.all(state.amplitudes.imag == 0.0)

    def test_two_qubits(self):
        state = dense_uniform(2)
        assert np.allclose(state.amplitudes, [0.5] * 4)

    def test_ten_qubits(self):
        state = dense_uniform(10)
        assert state.amplitudes.shape == (1024,)
        assert np.allclose(state.amplitudes, 2.0**-5)


class TestCostLayer:
    """The dense oracle's cost layer."""

    def test_zero_angle_is_identity(self):
        state = dense_uniform(3)
        out = dense_cost_layer(state, QuboProblem((1.0, -2.0, 0.5)), 0.0)
        assert np.allclose(out.amplitudes, state.amplitudes)

    def test_probabilities_never_change(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(1, 5))
            qubo = QuboProblem(tuple(rng.normal(0, 5, n)))
            amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
            amps /= np.linalg.norm(amps)
            state = DenseState(amps, n)
            out = dense_cost_layer(state, qubo, float(rng.uniform(-3, 3)))
            assert np.max(np.abs(out.probabilities() - state.probabilities())) < 1e-12

    def test_unit_slope_quarter_turn(self):
        # q = (1), gamma = 1: |1> picks up exp(i pi / 2) = i, |0> untouched.
        state = dense_uniform(1)
        out = dense_cost_layer(state, QuboProblem((1.0,)), 1.0, scale=1.0)
        ratio = out.amplitudes[1] / state.amplitudes[1]
        assert ratio == pytest.approx(1j, abs=1e-12)
        assert out.amplitudes[0] == pytest.approx(state.amplitudes[0])

    def test_matches_matrix_exponential(self):
        qubo = QuboProblem((0.7, -1.3))
        gamma = 0.63
        state = dense_uniform(2)
        for scale in (None, phase_scale(qubo)):
            out = dense_cost_layer(state, qubo, gamma, scale=scale)
            dense = matrix_cost(qubo, gamma, scale if scale is not None else 1.0)
            assert np.allclose(out.amplitudes, dense @ state.amplitudes, atol=1e-12)


class TestMixerLayer:
    """The dense oracle's mixer layer."""

    def test_zero_angle_is_identity(self):
        state = dense_uniform(3)
        out = dense_mixer_layer(state, 0.0)
        assert np.allclose(out.amplitudes, state.amplitudes)

    def test_full_turn_flips_basis_state(self):
        out = dense_mixer_layer(DenseState(np.array([1.0, 0.0], dtype=complex), 1), 1.0)
        assert out.probabilities()[1] == pytest.approx(1.0, abs=1e-12)

    def test_half_turn_splits_evenly(self):
        out = dense_mixer_layer(DenseState(np.array([1.0, 0.0], dtype=complex), 1), 0.5)
        assert np.allclose(out.probabilities(), [0.5, 0.5])

    def test_matches_matrix_exponential_per_qubit(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            n = int(rng.integers(1, 4))
            beta = float(rng.uniform(-2, 2))
            amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
            amps /= np.linalg.norm(amps)
            state = DenseState(amps.copy(), n)
            out = dense_mixer_layer(state, beta)
            assert np.allclose(out.amplitudes, matrix_mixer(n, beta) @ amps, atol=1e-12)

    def test_norm_preserved(self):
        rng = np.random.default_rng(9)
        state = dense_uniform(6)
        for _ in range(50):
            state = dense_mixer_layer(state, float(rng.uniform(-3, 3)))
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
        manual = dense_mixer_layer(
            dense_cost_layer(dense_uniform(3), qubo, 0.37, scale=scale), 0.81
        )
        auto = run_circuit(qubo, params)
        assert np.allclose(auto.amplitudes, manual.amplitudes)

    def test_matches_dense_oracle(self):
        # The full-matrix product grounds both the product kernel and the
        # layered dense oracle that the larger tests compare it with.
        rng = np.random.default_rng(11)
        for _ in range(30):
            n = int(rng.integers(1, 4))
            depth = int(rng.integers(1, 4))
            qubo = QuboProblem(tuple(rng.normal(0, 3, n)), float(rng.normal()))
            params = QaoaParams(
                tuple(rng.uniform(-2, 2, depth)), tuple(rng.uniform(-2, 2, depth))
            )
            oracle = matrix_circuit(qubo, params)
            for state in (run_circuit(qubo, params), dense_run_circuit(qubo, params)):
                assert np.max(np.abs(state.amplitudes - oracle)) < 1e-9
                assert state.norm_error() < 1e-10

    def test_depth_one_closed_form(self):
        # From |+>, the phase exp(i phi_i) on |1> and the mixer give
        # P_i(1) = 1/2 + sin(pi beta) sin(phi_i) / 2, phi_i = pi gamma h_i / 2.
        rng = np.random.default_rng(12)
        for case in range(300):
            n = int(rng.integers(1, 21))
            linear = rng.normal(0, 10.0 ** rng.uniform(0, 4), n)
            linear[rng.random(n) < 0.2] = 0.0
            qubo = QuboProblem(tuple(linear), float(rng.normal()))
            gamma, beta = (float(v) for v in rng.uniform(-2, 2, 2))
            biggest = np.abs(linear).max()
            h = linear / (biggest if biggest > 0 else 1.0)
            closed = 0.5 + 0.5 * math.sin(math.pi * beta) * np.sin(
                math.pi * gamma * h / 2.0
            )
            params = QaoaParams((gamma,), (beta,))
            assert np.max(np.abs(run_circuit(qubo, params).marginals() - closed)) <= 1e-12
            if n <= 8:
                dense = dense_run_circuit(qubo, params)
                assert np.max(np.abs(dense.marginals() - closed)) <= 1e-12

    def test_state_is_the_kernels(self):
        # run_circuit keeps the pairs of the loop that prices the search, so
        # its marginals, summed in the loop's order, give _energy's value.
        rng = np.random.default_rng(14)
        for _ in range(200):
            n = int(rng.integers(1, 30))
            depth = int(rng.integers(1, 5))
            qubo = QuboProblem(tuple(rng.normal(0, 100, n)), float(rng.normal()))
            gammas, betas = rng.uniform(-2, 2, (2, depth)).tolist()
            state = run_circuit(qubo, QaoaParams(gammas, betas))
            assert state.n == n
            assert all(type(a) is complex for pair in state.pairs for a in pair)
            total = 0.0
            for q, p in zip(qubo.linear, state.marginals()):
                total += q * p
            assert total + qubo.constant == hquc.qaoa._energy(qubo, gammas, betas)


class TestProductKernel:
    def test_matches_dense_layers(self):
        # Penalty-sized slopes (up to 1e6), about one in five exactly zero.
        # The tolerance grows with the largest cost phase the circuit builds,
        # because both kernels round that phase angle.  The dense side's
        # expectation is its probabilities over the energy table.
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
                hquc.qaoa._energy(qubo, params.gammas, params.betas)
                - float(probs @ energy_table(qubo))
            ) <= tol * energy_size
            top, runner_up = np.sort(probs)[::-1][:2]
            if top - runner_up > tol:
                assert extract_solution(product, config) == dense.most_probable_bits()

    def test_agrees_with_reference(self):
        # The scalar loop against the numpy two-array oracle.  Both round
        # their own way, so they agree to 1e-12, not to the bit.
        rng = np.random.default_rng(2025)
        for case in range(2400):
            n = int(rng.integers(1, 81))
            depth = int(rng.integers(1, 5))
            linear = rng.normal(0, 10.0 ** rng.uniform(0, 6), n)
            linear[rng.random(n) < 0.2] = 0.0
            if case % 6 == 0:
                linear[:] = 0.0
            gammas = rng.uniform(-2, 2, depth)
            betas = rng.uniform(-2, 2, depth)
            if case % 6 == 1:
                gammas[:] = 0.0
            elif case % 6 == 2:
                betas[:] = 1.0
            qubo = QuboProblem(tuple(linear), float(rng.normal(0, 100)))
            params = QaoaParams(tuple(gammas), tuple(betas))
            state = run_circuit(qubo, params)
            reference = reference_run_circuit(qubo, params)
            assert len(state.pairs) == n
            assert np.max(np.abs(np.subtract(state.pairs, reference.pairs))) <= 1e-12
            size = max(1.0, np.abs(linear).sum() + abs(qubo.constant))
            got = hquc.qaoa._energy(qubo, params.gammas, params.betas)
            assert abs(got - reference_expectation(reference, qubo)) <= 1e-12 * size

    def test_zero_slope_qubit_ties_to_zero(self):
        # A zero slope leaves its qubit in |+>: an exact tie on both kernels.
        qubo = QuboProblem((0.0, -3.0, 0.0, 2.0))
        params = QaoaParams((0.8, 0.3), (0.4, -0.6))
        product = run_circuit(qubo, params)
        assert product.pairs[0][0] == product.pairs[0][1]
        assert product.pairs[2][0] == product.pairs[2][1]
        bits = extract_solution(product, QaoaConfig())
        assert bits[0] == bits[2] == 0
        assert bits == dense_run_circuit(qubo, params).most_probable_bits()


class TestScalarEnergy:
    """The angle search's scalar loop prices the circuit that
    :func:`run_circuit` and the dense oracle simulate."""

    def test_agrees_with_kernel_and_dense_oracle(self):
        # Rounding differs (numpy's complex multiply rounds its own way), so
        # the values agree to 1e-12 of the energy's size, not bitwise.
        rng = np.random.default_rng(2026)
        for case in range(600):
            n = int(rng.integers(1, 21))
            depth = 1 + case % 4
            linear = rng.normal(0, 10.0 ** rng.uniform(0, 6), n)
            linear[rng.random(n) < 0.2] = 0.0
            if case % 7 == 0:
                linear[:] = 0.0
            gammas = rng.uniform(-2, 2, depth)
            betas = rng.uniform(-2, 2, depth)
            if case % 5 in (1, 3):
                gammas[:] = 0.0
            if case % 5 in (2, 3):
                betas[:] = 0.0
            qubo = QuboProblem(tuple(linear), float(rng.normal(0, 100)))
            got = hquc.qaoa._energy(qubo, gammas.tolist(), betas.tolist())
            assert type(got) is float
            size = max(1.0, np.abs(linear).sum() + abs(qubo.constant))
            params = QaoaParams(tuple(gammas), tuple(betas))
            kernel = reference_expectation(reference_run_circuit(qubo, params), qubo)
            assert abs(got - kernel) <= 1e-12 * size
            if n <= 10:
                assert abs(got - dense_energy(qubo, gammas, betas)) <= 1e-12 * size

    def test_agrees_with_kernel_at_large_n(self):
        rng = np.random.default_rng(5)
        for n in (21, 100, 200):
            linear = rng.normal(0, 1000, n)
            qubo = QuboProblem(tuple(linear), 2.0)
            params = QaoaParams((0.3, -0.7), (0.45, 0.1))
            got = hquc.qaoa._energy(qubo, [0.3, -0.7], [0.45, 0.1])
            kernel = reference_expectation(reference_run_circuit(qubo, params), qubo)
            assert abs(got - kernel) <= 1e-12 * (np.abs(linear).sum() + 2.0)

    def test_bit_identical_to_full_update_oracle(self):
        # The kernel skips products with the uniform state's zeros in the
        # first cost step and the last mixer's unused a0; every value it
        # returns is the full update's to the bit.  In the pairs, a zero
        # amplitude part may differ in its sign (at zero angles, say), which
        # == ignores and no probability reads: re^2 + im^2 squares it away.
        rng = Random(22)
        edges = (0.0, -0.0, 1.0, -1.0, 2.0, -2.0)
        # pi * angle / 2 overflows, and the value is NaN, past about 5.72e307.
        overflow = (5.5e307, -5.5e307, 5.7e307, 5.8e307)
        for case in range(3000):
            n = rng.randint(1, 30)
            depth = rng.randint(1, 5)
            linear = [rng.gauss(0.0, 10.0 ** rng.uniform(-3, 6)) for _ in range(n)]
            for i in range(n):
                if rng.random() < 0.15:
                    linear[i] = rng.choice((0.0, -0.0))
            if case % 11 == 0:
                linear = [rng.choice((0.0, -0.0)) for _ in range(n)]
            qubo = QuboProblem(tuple(linear), rng.gauss(0.0, 100.0))

            def angle():
                kind = rng.random()
                if kind < 0.3:
                    return rng.choice(edges)
                if kind < 0.4:
                    return rng.choice(overflow) * rng.uniform(0.99, 1.01)
                return rng.uniform(-2.0, 2.0)

            gammas = [angle() for _ in range(depth)]
            betas = [angle() for _ in range(depth)]
            ours, oracle = [], []
            got = hquc.qaoa._energy(qubo, gammas, betas, ours)
            want = reference_energy(qubo, gammas, betas, oracle)
            assert got.hex() == want.hex()
            assert hquc.qaoa._energy(qubo, gammas, betas).hex() == want.hex()
            assert ours == oracle

    @pytest.mark.parametrize(
        "gammas, betas",
        [([1e308], [0.1]), ([0.1], [-1e308]), ([math.inf], [0.1]), ([0.1], [math.nan])],
    )
    def test_overflowing_phase_prices_as_nan(self, gammas, betas):
        # pi * 1e308 / 2 overflows, where math.cos would raise: the loop
        # returns NaN, which the search ranks last.
        qubo = QuboProblem((-1.5, -0.5, 0.5))
        assert math.isnan(hquc.qaoa._energy(qubo, gammas, betas))

    def test_search_past_an_overflowing_vertex(self):
        # pi * gamma / 2 is finite at the start but overflows at the simplex
        # vertex 1.05 * gamma: that vertex prices NaN and the search goes on.
        qubo = QuboProblem((-1.0, 2.0))
        start = QaoaParams((5.5e307,), (0.3,))
        config = QaoaConfig(depth=1, optimizer_budget=30)
        assert math.isnan(hquc.qaoa._energy(qubo, [1.05 * 5.5e307], [0.3]))
        params, value = optimize_params(qubo, config, start)
        f_start = hquc.qaoa._energy(qubo, [5.5e307], [0.3])
        assert math.isfinite(value) and value <= f_start
        assert value == hquc.qaoa._energy(qubo, list(params.gammas), list(params.betas))


class TestExpectation:
    """The kernel's expectation, and the oracle's on the package's states."""

    def test_uniform_single_qubit(self):
        # Zero angles leave |+>, whose P(1) is 1/2.
        qubo = QuboProblem((-1.0,))
        assert hquc.qaoa._energy(qubo, [0.0], [0.0]) == pytest.approx(-0.5)

    def test_basis_states_give_point_energies(self):
        qubo = QuboProblem((2.0, -3.0, 0.5), 1.25)
        for index in range(8):
            bits = tuple((index >> i) & 1 for i in range(3))
            got = reference_expectation(_basis_state(index, 3), qubo)
            assert got == pytest.approx(qubo.energy(bits), rel=1e-12)

    def test_uniform_state_averages_all_energies(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            n = int(rng.integers(1, 6))
            qubo = QuboProblem(tuple(rng.normal(0, 10, n)), float(rng.normal()))
            mean = float(np.mean(energy_table(qubo)))
            assert hquc.qaoa._energy(qubo, [0.0], [0.0]) == pytest.approx(
                mean, rel=1e-9, abs=1e-9
            )

    def test_zero_angles_match_uniform_average(self):
        rng = np.random.default_rng(15)
        qubo = QuboProblem(tuple(rng.normal(0, 4, 4)), 2.0)
        params = QaoaParams((0.0, 0.0), (0.0, 0.0))
        state = run_circuit(qubo, params)
        assert reference_expectation(state, qubo) == pytest.approx(
            float(np.mean(energy_table(qubo))), rel=1e-9
        )


class TestOptimizeParams:
    def test_budget_one_returns_initial(self):
        qubo = QuboProblem((-1.0, 2.0))
        start = QaoaParams((0.3, 0.4), (0.5, 0.6))
        config = QaoaConfig(depth=2, optimizer_budget=1)
        params, value = optimize_params(qubo, config, start)
        assert params == start
        assert value == hquc.qaoa._energy(qubo, start.gammas, start.betas)

    @pytest.mark.parametrize("budget", [2, 9, 60])
    def test_first_of_equal_best_values_wins(self, budget):
        # A zero objective prices every angle at the constant, so the start,
        # seen first, is the best.
        qubo = QuboProblem((0.0, -0.0, 0.0), 2.5)
        start = QaoaParams((0.3, 0.2), (0.1, 0.4))
        params, value = optimize_params(qubo, QaoaConfig(optimizer_budget=budget), start)
        assert params == start and value == 2.5

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
            f_start = hquc.qaoa._energy(qubo, start.gammas, start.betas)
            f_end = hquc.qaoa._energy(qubo, params.gammas, params.betas)
            assert f_end <= f_start
            assert value == f_end


class TestNelderMeadParity:
    """The in-package search visits scipy's Nelder-Mead trial points, exactly,
    wherever no two vertices tie.

    Tied vertices keep their places (a stable sort, NaN last), which is the
    order of scipy's search with its ``np.argsort`` made stable.  scipy's own
    argsort may move tied vertices, depending on numpy's SIMD sort and so on
    the host CPU, and then the two searches part.
    """

    @staticmethod
    def _scipy_points(monkeypatch, qubo, start, budget, stable=False):
        depth = start.depth
        points = []

        def objective(x):
            points.append(tuple(float(v) for v in x))
            return hquc.qaoa._energy(qubo, x[:depth].tolist(), x[depth:].tolist())

        with monkeypatch.context() as patch:
            if stable:
                # numpy's stable sort ranks NaN last, as the package does.
                argsort = np.argsort
                patch.setattr(np, "argsort", lambda a: argsort(a, kind="stable"))
            minimize(
                objective,
                np.array(start.gammas + start.betas),
                method="Nelder-Mead",
                options={"maxfev": budget, "xatol": 1e-6, "fatol": 1e-10},
            )
        return points

    @staticmethod
    def _package_points(monkeypatch, qubo, start, budget):
        points = []
        values = []

        energy = hquc.qaoa._energy

        def recorded(qubo, gammas, betas):
            points.append(tuple(gammas) + tuple(betas))
            values.append(energy(qubo, gammas, betas))
            return values[-1]

        with monkeypatch.context() as patch:
            patch.setattr(hquc.qaoa, "_energy", recorded)
            optimize_params(qubo, QaoaConfig(optimizer_budget=budget), start)
        return points, values

    def _assert_same_points(self, monkeypatch, qubo, start, budget):
        """The package's points equal scipy's with a stable sort, and equal
        scipy's own when no two evaluations priced the same (no tie)."""
        ours, values = self._package_points(monkeypatch, qubo, start, budget)
        assert ours == self._scipy_points(monkeypatch, qubo, start, budget, stable=True)
        untied = len(set(values)) == len(values)
        if untied:
            assert ours == self._scipy_points(monkeypatch, qubo, start, budget)
        return ours, untied

    def test_random_searches(self, monkeypatch):
        rng = np.random.default_rng(2024)
        untied = 0
        for case in range(120):
            n = int(rng.integers(1, 11))
            depth = int(rng.integers(1, 4))
            budget = (1, 5, 300, int(rng.integers(2, 120)))[case % 4]
            qubo = QuboProblem(tuple(rng.normal(0, 100, n)), float(rng.normal()))
            x = rng.uniform(-1, 1, 2 * depth)
            if case % 3 == 1:
                x[rng.random(2 * depth) < 0.5] = 0.0  # zero coordinates
            elif case % 3 == 2:
                x[0] = 0.0  # gamma_1 = 0: beta_1 acts on |+>^n, its vertex ties
            start = QaoaParams(tuple(x[:depth]), tuple(x[depth:]))
            untied += self._assert_same_points(monkeypatch, qubo, start, budget)[1]
        assert untied >= 80  # the searches compared with scipy's own order

    def test_zero_start(self, monkeypatch):
        # Every vertex that moves only a beta ties with the start here.
        qubo = QuboProblem((-3.0, 1.5, 40.0))
        start = QaoaParams((0.0, 0.0), (0.0, 0.0))
        points, untied = self._assert_same_points(monkeypatch, qubo, start, 300)
        assert not untied
        assert points[1] == (0.00025, 0.0, 0.0, 0.0)

    def test_budget_ends_inside_a_shrink(self, monkeypatch):
        # A flat objective ties every vertex, so the first iteration is
        # reflection, inside contraction and a shrink over the 4 vertices
        # after the best: evaluations 8 to 11 of a depth-2 search.
        qubo = QuboProblem((0.0, 0.0, 0.0), 2.5)
        start = QaoaParams((0.3, 0.2), (0.1, 0.4))
        for budget in (9, 10, 11, 12, 60):
            points, _ = self._assert_same_points(monkeypatch, qubo, start, budget)
            assert len(points) == budget

    def test_visits_the_full_sort_oracles_points(self):
        # The search re-ranks after a reflect, expand or contract step by
        # one insertion; the oracle sorts the whole simplex every time.  The
        # objectives have plateaus, so vertices tie, and NaN regions.
        rng = Random(19)

        class Stop(Exception):
            pass

        def points(search, objective, x0, budget):
            seen = []

            def func(x):
                if len(seen) == budget:
                    raise Stop
                seen.append(tuple(x))
                return objective(x)

            try:
                search(func, list(x0))  # a plateau may converge in budget
            except Stop:
                pass
            return seen

        ties = nans = 0
        for case in range(600):
            size = 2 * rng.randint(1, 3)
            x0 = [rng.choice((0.0, rng.uniform(-1.0, 1.0))) for _ in range(size)]
            centre = [rng.uniform(-1.0, 1.0) for _ in range(size)]
            step = rng.choice((1e-3, 0.05, 0.5)) if case % 3 else 0.0
            # NaN past a wall across one axis, near x0: below a zero offset
            # x0 and most initial vertices are NaN, so NaN vertices sit
            # among the n best when a new vertex is inserted.
            k = rng.randrange(size)
            side = rng.choice((1.0, -1.0))
            offset = rng.uniform(-0.02, 0.3) if case % 4 else math.inf

            def objective(x):
                if side * (x[k] - x0[k]) > offset or abs(x[-1]) > 1.5:
                    return math.nan
                value = 0.0
                for v, c in zip(x, centre):
                    value += (v - c) * (v - c)
                return math.floor(value / step) * step if step else value

            budget = rng.randint(size + 2, 150)
            ours = points(hquc.qaoa._nelder_mead, objective, x0, budget)
            assert ours == points(reference_nelder_mead, objective, x0, budget)
            values = [objective(list(x)) for x in ours]
            finite = [v for v in values if not math.isnan(v)]
            ties += len(set(finite)) < len(finite)
            nans += len(finite) < len(values)
        assert ties >= 200 and nans >= 100

    @staticmethod
    def _reflection(values):
        """The start, its two vertices and the first trial point of a
        two-angle search whose initial vertices price ``values``."""
        points = []

        class Stop(Exception):
            pass

        def func(x):
            if len(points) == 4:
                raise Stop
            points.append(x)
            return values[len(points) - 1] if len(points) <= 3 else 0.0

        with pytest.raises(Stop):
            hquc.qaoa._nelder_mead(func, [0.3, 0.2])
        return points

    @pytest.mark.parametrize(
        "values, order",
        [
            ((1.0, 1.0, 1.0), (0, 1, 2)),  # ties keep their places
            ((0.0, -0.0, 0.0), (0, 1, 2)),  # signed zeros tie
            ((2.0, 1.0, 1.0), (1, 2, 0)),
            ((math.nan, 1.0, math.inf), (1, 2, 0)),  # NaN after inf
            ((math.nan, math.nan, 1.0), (2, 0, 1)),  # NaNs keep their places
            ((1.0, math.nan, 1.0), (0, 2, 1)),
        ],
    )
    def test_stable_order_nan_last(self, values, order):
        # The first trial reflects the worst vertex through the others'
        # centroid, summed in the sorted order.
        points = self._reflection(values)
        first, second, worst = (points[i] for i in order)
        xbar = [(0.0 + a + b) / 2 for a, b in zip(first, second)]
        assert points[3] == [2 * b - w for b, w in zip(xbar, worst)]


class TestSeams:
    """The angle search prices each evaluation through the module attribute
    ``_energy``, and a solve builds its state through ``run_circuit`` once,
    at the optimum, which runs ``_energy`` once more: the dense oracle tests
    replace those attributes."""

    @staticmethod
    def _counted(monkeypatch):
        calls = {"_energy": 0, "run_circuit": 0}
        for name in calls:
            original = getattr(hquc.qaoa, name)

            def wrapper(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(hquc.qaoa, name, wrapper)
        return calls

    @pytest.mark.parametrize("budget", [1, 2, 5, 7, 40])
    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_one_call_of_each_per_evaluation(self, monkeypatch, depth, budget):
        calls = self._counted(monkeypatch)
        qubo = QuboProblem((-3.0, 1.5, 40.0, 0.0), 2.0)
        config = QaoaConfig(depth=depth, optimizer_budget=budget)
        optimize_params(qubo, config)
        assert calls == {"_energy": budget, "run_circuit": 0}
        calls.update(_energy=0, run_circuit=0)
        solve_qubo_qaoa(qubo, config)
        assert calls == {"_energy": budget + 1, "run_circuit": 1}


class TestSearchOnS2Qubos:
    """The whole angle search on the QUBOs and warm starts that s2 runs
    solve, on the s2 pin's set (the first 4, 7 and 10 ten-unit rows at 20%,
    50% and 80% of their capacity): every trial point, its value, and the
    returned angles and expectation equal, by ``float.hex()``, those of the
    full-sort Nelder-Mead oracle over the full-update kernel oracle with the
    same budget stop.  The s2 pin hashes only what follows from the bits."""

    @staticmethod
    def _record_s2_solves(monkeypatch, generators_table):
        """Every ``(qubo, config, warm, trials, outcome)`` that ``run_admm``
        solves; ``trials`` holds the search's ``(point, value)`` pairs."""
        solves = []
        energy = hquc.qaoa._energy
        solve = hquc.admm.solve_qubo_qaoa

        def recorded_energy(qubo, gammas, betas, pairs=None):
            value = energy(qubo, gammas, betas, pairs)
            if pairs is None:  # run_circuit's pass at the optimum keeps pairs
                solves[-1][3].append((tuple(gammas) + tuple(betas), value))
            return value

        def recorded_solve(qubo, config, warm=None, iteration=0):
            solves.append([qubo, config, warm, []])
            outcome = solve(qubo, config, warm, iteration)
            solves[-1].append(outcome)
            return outcome

        with monkeypatch.context() as patch:
            patch.setattr(hquc.qaoa, "_energy", recorded_energy)
            patch.setattr(hquc.admm, "solve_qubo_qaoa", recorded_solve)
            for k in (4, 7, 10):
                generators = generators_table[:k]
                capacity = sum(g.p_max for g in generators)
                for fraction in (0.2, 0.5, 0.8):
                    load = fraction * capacity
                    config = default_config(load, backend="qaoa")
                    run_admm(UCInstance(generators, load), config)
        return solves

    @staticmethod
    def _oracle_search(qubo, config, warm):
        """The oracles' trials and their best ``(value, point)``, the first
        best seen winning, with the package's start and budget stop."""
        start = warm or QaoaParams((0.1,) * config.depth, (0.1,) * config.depth)
        depth = start.depth
        x0 = list(start.gammas + start.betas)
        trials = []
        best = [math.inf, x0]

        class Stop(Exception):
            pass

        def func(x):
            if len(trials) == config.optimizer_budget:
                raise Stop
            value = reference_energy(qubo, x[:depth], x[depth:])
            trials.append((tuple(x), value))
            if value < best[0]:
                best[:] = [value, x]
            return value

        try:
            reference_nelder_mead(func, x0)
        except Stop:
            pass
        return trials, best

    def test_matches_the_oracles(self, monkeypatch, ten_unit_generators):
        def hexed(values):
            return [v.hex() for v in values]

        solves = self._record_s2_solves(monkeypatch, ten_unit_generators)
        # One cold start per run, then each iteration starts from the last.
        assert len(solves) >= 300
        assert sum(warm is None for _, _, warm, _, _ in solves) == 9
        for qubo, config, warm, trials, outcome in solves:
            want, (value, point) = self._oracle_search(qubo, config, warm)
            assert len(trials) == len(want)
            for (x, f), (x_want, f_want) in zip(trials, want):
                assert hexed(x) == hexed(x_want)
                assert f.hex() == f_want.hex()
            params = outcome.params
            assert hexed(params.gammas + params.betas) == hexed(point)
            assert outcome.expectation.hex() == value.hex()


class TestExtractSolution:
    def test_argmax_picks_heaviest_bitstring(self):
        # P_1(1) = 0.6 and P_2(1) = 0.3: the heaviest bitstring is |01>.
        state = _from_marginals([0.6, 0.3])
        bits = extract_solution(state, QaoaConfig())
        assert bits == (1, 0)
        assert Commitment(bits).bitstring == "01"
        assert int(np.argmax(state.probabilities())) == 0b01

    def test_argmax_tie_breaks_to_smallest_index(self):
        bits = extract_solution(_uniform(3), QaoaConfig())
        assert bits == (0, 0, 0)

    def test_basis_state_round_trip(self):
        for n in (1, 2, 4):
            for index in range(1 << n):
                bits = extract_solution(_basis_state(index, n), QaoaConfig())
                assert bits == tuple((index >> i) & 1 for i in range(n))

    def test_sampling_is_seed_deterministic(self):
        state = _uniform(4)
        config = QaoaConfig(extraction="sample", sample_seed=1234)
        first = extract_solution(state, config)
        second = extract_solution(state, config)
        assert first == second
        other = extract_solution(
            state, QaoaConfig(extraction="sample", sample_seed=4321)
        )
        assert len(other) == 4

    def test_sampling_stream_follows_the_iteration(self):
        # Every marginal is 1/2, so each bit is a fair coin of its uniform.
        state = _uniform(48)
        config = QaoaConfig(extraction="sample", sample_seed=1234)
        draws = [extract_solution(state, config, iteration) for iteration in (1, 2)]
        assert draws[0] != draws[1]
        assert extract_solution(state, config, 2) == draws[1]

    def test_sampling_matches_the_bitstring_distribution(self):
        # One draw per qubit has the distribution of one draw over all 2**n
        # basis states: compare each bitstring's frequency over many seeds
        # with its probability, as a binomial z-score.
        state = _from_marginals([0.15, 0.7, 0.45])
        probs = np.array(state.probabilities())
        seeds = 20000
        counts = np.zeros(len(probs))
        for seed in range(seeds):
            bits = extract_solution(
                state, QaoaConfig(extraction="sample", sample_seed=seed)
            )
            counts[sum(b << i for i, b in enumerate(bits))] += 1
        z = (counts - seeds * probs) / np.sqrt(seeds * probs * (1.0 - probs))
        assert np.max(np.abs(z)) < 4.0

    def test_sampling_draws_one_uniform_per_qubit(self, monkeypatch):
        # Bit i is 1 iff the i-th draw of the iteration's stream is below
        # P_i(1); the stream is seeded with the text "seed:iteration".
        seeds = []

        class Recording(Random):
            def __init__(self, seed):
                seeds.append(seed)
                super().__init__(seed)

        monkeypatch.setattr(hquc.qaoa, "Random", Recording)
        marginals = [0.15, 0.7, 0.45, 0.0, 1.0]
        config = QaoaConfig(extraction="sample", sample_seed=9)
        bits = extract_solution(_from_marginals(marginals), config, 4)
        assert seeds == ["9:4"]
        rng = Random("9:4")
        assert bits == tuple(int(rng.random() < p) for p in marginals)
        assert bits[3:] == (0, 1)


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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 1e308, -6e307])
    def test_non_finite_angles_rejected(self, bad):
        # optimize_params once returned a NaN start with value inf; no such
        # start can be built now.  A finite angle whose phase pi * angle / 2
        # overflows would price NaN too, so it is refused the same way.
        with pytest.raises(InvariantViolation, match="finite"):
            QaoaParams((bad,), (0.1,))
        with pytest.raises(InvariantViolation, match="finite"):
            QaoaParams((0.1, 0.2), (0.3, bad))

    def test_negative_sample_seed_rejected(self):
        with pytest.raises(InvariantViolation):
            QaoaConfig(extraction="sample", sample_seed=-1)

    def test_size_guard(self):
        # No solve builds the 2**n table, so neither extraction mode has a
        # size limit; only reading the bitstring probabilities does.
        qubo = QuboProblem(tuple((-1.0) ** i * (i + 1) for i in range(17)))
        for extraction in ("argmax", "sample"):
            config = QaoaConfig(depth=1, optimizer_budget=20, extraction=extraction)
            outcome = solve_qubo_qaoa(qubo, config)
            assert len(outcome.bits) == 17
            with pytest.raises(TooManyQubits):
                outcome.probabilities

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
        assert qubo.slopes == tuple(q / 4000.0 for q in qubo.linear)
        assert outcome.bits == (0, 1, 0)

    @pytest.mark.parametrize("extraction", ["argmax", "sample"])
    def test_repeat_solves_agree(self, extraction):
        # The second solve reads the slopes the first one cached; both must
        # match a solve on a fresh problem with the same coefficients.
        linear = (4000.0, -3999.0, 12.0, 0.0, -250.0)
        config = QaoaConfig(depth=2, optimizer_budget=60, extraction=extraction)
        qubo = QuboProblem(linear, 7.0)
        outcomes = [
            solve_qubo_qaoa(qubo, config, iteration=3),
            solve_qubo_qaoa(qubo, config, iteration=3),
            solve_qubo_qaoa(QuboProblem(linear, 7.0), config, iteration=3),
        ]
        for outcome in outcomes[1:]:
            assert outcome == outcomes[0]
            assert outcome.state.pairs == outcomes[0].state.pairs
