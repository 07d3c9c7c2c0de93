import itertools

import numpy as np
import pytest

from helpers import energy_table, solve_qubo_exact

from hquc import QuboProblem, phase_scale, solve_qubo_perbit
from hquc.qubo import build_qubo


def _direct_z_terms(y, r, lam, rho, bits):
    """Evaluate the z-dependent augmented Lagrangian terms literally."""
    total = 0.0
    for yi, ri, li, zi in zip(y, r, lam, bits):
        slack = yi - zi + ri
        total += li * slack + (rho / 2.0) * slack * slack
    return total


class TestBuildQubo:
    def test_unit_slope_and_offset(self):
        qubo = build_qubo((1.0,), (0.0,), (0.0,), rho=2.0)
        assert qubo.linear == (-1.0,)
        assert qubo.constant == pytest.approx(1.0)
        # brute force: z-terms are 1 at z=0 and 0 at z=1
        assert qubo.energy((0,)) == pytest.approx(1.0)
        assert qubo.energy((1,)) == pytest.approx(0.0)

    def test_halfway_point_slope_is_minus_lambda(self):
        qubo = build_qubo((0.5,), (0.0,), (10.0,), rho=4000.0)
        assert qubo.linear[0] == pytest.approx(-10.0)

    def test_symmetry_point_gives_zero_slope(self):
        qubo = build_qubo((0.5,), (0.0,), (0.0,), rho=123.0)
        assert qubo.linear[0] == pytest.approx(0.0)

    def test_matches_direct_evaluation_everywhere(self):
        rng = np.random.default_rng(101)
        for _ in range(200):
            n = int(rng.integers(1, 11))
            y = rng.uniform(0.0, 1.0, n)
            r = rng.normal(0.0, 0.5, n)
            lam = rng.normal(0.0, 100.0, n)
            rho = float(rng.uniform(0.1, 5000.0))
            qubo = build_qubo(y, r, lam, rho)
            for bits in itertools.product((0, 1), repeat=n):
                direct = _direct_z_terms(y, r, lam, rho, bits)
                got = qubo.energy(bits)
                assert got == pytest.approx(direct, rel=1e-9, abs=1e-9)


class TestExactSolver:
    def test_mixed_signs_with_tie(self):
        bits, energy = solve_qubo_exact(QuboProblem((-1.0, 2.0, 0.0)))
        assert bits == (1, 0, 0)
        assert energy == pytest.approx(-1.0)

    def test_all_positive_slopes(self):
        bits, energy = solve_qubo_exact(QuboProblem((1.0, 2.0, 3.0), 5.0))
        assert bits == (0, 0, 0)
        assert energy == pytest.approx(5.0)

    def test_all_negative_slopes(self):
        bits, energy = solve_qubo_exact(QuboProblem((-1.0, -2.0), 0.0))
        assert bits == (1, 1)
        assert energy == pytest.approx(-3.0)

    def test_energy_matches_energy_table_exactly(self):
        # The solvers report qubo.energy(bits) for the minimum of the energy
        # table; the two must agree bit for bit, not approximately.
        rng = np.random.default_rng(307)
        for _ in range(200):
            n = int(rng.integers(1, 11))
            linear = rng.normal(0.0, 100.0, n)
            linear[rng.random(n) < 0.2] = 0.0
            qubo = QuboProblem(tuple(linear), float(rng.normal(0.0, 1e3)))
            table = energy_table(qubo)
            for mask in range(1 << n):
                bits = tuple((mask >> i) & 1 for i in range(n))
                assert qubo.energy(bits) == table[mask]
            assert solve_qubo_exact(qubo)[1] == table.min()


class TestPerBitSolver:
    def test_empty_problem(self):
        bits, energy = solve_qubo_perbit(QuboProblem((), 3.5))
        assert bits == ()
        assert energy == 3.5

    def test_matches_exact_on_random_problems(self):
        rng = np.random.default_rng(211)
        for _ in range(1000):
            n = int(rng.integers(0, 13))
            linear = list(rng.normal(0.0, 100.0, n))
            # sprinkle exact-zero slopes to exercise the tie rule
            for i in range(n):
                if rng.random() < 0.05:
                    linear[i] = 0.0
            qubo = QuboProblem(tuple(linear), float(rng.normal(0, 10)))
            eb, ee = solve_qubo_exact(qubo)
            pb, pe = solve_qubo_perbit(qubo)
            assert eb == pb
            assert ee == pe


class TestPhaseSlopes:
    def test_slopes_are_the_scaled_coefficients(self):
        # The QAOA kernel's phase slopes: each coefficient over the largest
        # magnitude, bit for bit, so the largest slope is exactly +-1.
        rng = np.random.default_rng(212)
        for _ in range(200):
            n = int(rng.integers(1, 30))
            linear = rng.normal(0.0, 10.0 ** rng.uniform(0, 6), n)
            linear[rng.random(n) < 0.2] = 0.0
            qubo = QuboProblem(tuple(linear))
            assert type(qubo.slopes) is tuple
            assert qubo.slopes == tuple(q / phase_scale(qubo) for q in qubo.linear)
            assert max(abs(h) for h in qubo.slopes) == (1.0 if linear.any() else 0.0)

    def test_all_zero_objective_keeps_zero_slopes(self):
        assert QuboProblem((0.0, -0.0, 0.0)).slopes == (0.0, -0.0, 0.0)

    def test_empty_objective_has_unit_scale(self):
        assert phase_scale(QuboProblem(())) == 1.0

    def test_terms_pair_each_coefficient_with_its_slope(self):
        # The QAOA kernel's loop: built on first read, and never by the
        # per-bit path, so s1 does not pay for it.
        qubo = build_qubo((0.2, 0.9, 0.0), (0.1, -0.3, 0.0), (5.0, -2.0, 0.0), 40.0)
        solve_qubo_perbit(qubo)
        assert "terms" not in vars(qubo) and "slopes" not in vars(qubo)
        assert type(qubo.terms) is tuple
        assert qubo.terms == tuple(zip(qubo.linear, qubo.slopes))
        assert qubo.terms is qubo.terms
