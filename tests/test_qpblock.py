import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import nnls

from helpers import (
    grid_min_two_unit,
    random_generators,
    random_instance,
    reference_kkt_residual,
    reference_unit_response,
    three_edge_unit_response,
)

from hquc import (
    GeneratorParams,
    InfeasibleRelaxation,
    InvariantViolation,
    UCInstance,
    default_config,
    run_admm,
)
from hquc import admm, qpblock
from hquc.qpblock import Block1Problem, block1_objective, solve_block1
from hquc.ucmodel import price_past


def _random_problem(rng, inst, rho=None, beta=None):
    n = inst.n
    if rho is None:
        rho = float(rng.choice([10.0, 1001.0, 4000.0]))
    if beta is None:
        beta = float(rng.uniform(0.0, rho * 0.9))
    return Block1Problem(
        inst,
        tuple(float(b) for b in rng.integers(0, 2, n)),
        tuple(rng.normal(0.0, 0.3, n)),
        tuple(rng.normal(0.0, rho / 10.0, n)),
        rho=rho,
        beta=beta,
    )


def _random_feasible_point(rng, inst):
    """A feasible (y, p): draw y away from zero, then water-fill p."""
    n = inst.n
    p_max = np.array([g.p_max for g in inst.generators])
    p_min = np.array([g.p_min for g in inst.generators])
    for _ in range(200):
        y = rng.uniform(0.0, 1.0, n)
        lo = p_min * y
        hi = p_max * y
        if not (math.fsum(lo) <= inst.load <= math.fsum(hi)):
            continue
        p = lo.copy()
        need = inst.load - math.fsum(lo)
        for i in range(n):
            add = min(need, hi[i] - lo[i])
            p[i] += add
            need -= add
            if need <= 0:
                break
        return y, p
    return None


class TestObjective:
    def test_zero_point_is_zero(self, ten_unit):
        inst = ten_unit(0.0)
        prob = Block1Problem(inst, (0.0,) * 10, (0.0,) * 10, (0.0,) * 10, rho=2.0)
        assert block1_objective(prob, (0.0,) * 10, (0.0,) * 10) == 0.0

    def test_hand_expanded_single_unit(self):
        inst = UCInstance((GeneratorParams(1, 1.0, 0.0, 0.0, 0.0, 10.0),), 0.0)
        prob = Block1Problem(inst, (0.0,), (0.0,), (0.0,), rho=2.0, beta=0.0)
        # a*y + penalty (rho/2) * y^2 = 1 + 1
        assert block1_objective(prob, (1.0,), (0.0,)) == pytest.approx(2.0, rel=1e-12)

    def test_zero_slack_kills_dual_and_penalty_terms(self):
        inst = UCInstance((GeneratorParams(1, 0.0, 0.0, 0.0, 0.0, 10.0),), 0.0)
        for rho in (1.0, 100.0, 4000.0):
            prob = Block1Problem(inst, (1.0,), (0.0,), (5.0,), rho=rho)
            assert block1_objective(prob, (1.0,), (0.0,)) == 0.0

    def test_includes_beta_term(self):
        inst = UCInstance((GeneratorParams(1, 0.0, 0.0, 0.0, 0.0, 10.0),), 0.0)
        prob = Block1Problem(inst, (0.0,), (2.0,), (0.0,), rho=1.0, beta=3.0)
        # (beta/2) r^2 + (rho/2)(y - z + r)^2 = 6 + 2
        assert block1_objective(prob, (0.0,), (0.0,)) == pytest.approx(8.0)


class TestSolveBlock1:
    def test_load_above_capacity_is_infeasible(self, ten_unit):
        prob = Block1Problem(
            ten_unit(2000.0), (0.0,) * 10, (0.0,) * 10, (0.0,) * 10, rho=4000.0
        )
        with pytest.raises(InfeasibleRelaxation):
            solve_block1(prob)

    def test_no_float_price_names_the_load(self):
        # Unit 1 must be fully on, which it is only above a / p_max = 1e311.
        gens = (
            GeneratorParams(1, 1e308, 1.0, 0.0, 0.0, 0.001),
            GeneratorParams(2, 0.0, 1.0, 0.0, 0.0, 100.0),
        )
        zeros = (0.0, 0.0)
        problem = Block1Problem(UCInstance(gens, 100.001), zeros, zeros, zeros, 10.0)
        with pytest.raises(InvariantViolation, match="clears load 100.001 in block 1"):
            solve_block1(problem)

    def test_prices_near_the_float_limit_still_clear(self, brackets):
        # With b = -1e308 and 1e308 the cold bracket's width is inf, a c = 0
        # unit's (b - mu) * p_min is inf * 0 at p_min = 0, and the final
        # bracket's ends sum past the float range.
        gens = (
            GeneratorParams(1, 0.0, -1e308, 0.0, 0.0, 1e-10),
            GeneratorParams(2, 0.0, 1e308, 0.0, 0.0, 1e-10),
        )
        inst = UCInstance(gens, 1.5e-10)
        ones, zeros = (1.0, 1.0), (0.0, 0.0)
        sol = solve_block1(Block1Problem(inst, ones, zeros, zeros, rho=4.0))
        assert brackets[-1][:2] == (1e308, math.nextafter(1e308, math.inf))
        assert sol.price == 1e308 and sol.kkt_residual == 0.0
        assert math.fsum(sol.p) == inst.load
        report = run_admm(inst, default_config(inst.load, rho=4.0, beta=2.0))
        assert [row.block1_kkt for row in report.trace] == [0.0] * report.iterations

    def test_single_unit_huge_penalty_tracks_z(self, ten_unit_generators):
        inst = UCInstance(ten_unit_generators[:1], 30.0)
        prob = Block1Problem(inst, (1.0,), (0.0,), (0.0,), rho=1e6)
        sol = solve_block1(prob)
        # Stationarity in y gives y = 1 - a/rho; p is forced by the balance.
        assert sol.p[0] == pytest.approx(30.0, abs=1e-9)
        assert sol.y[0] == pytest.approx(1.0 - 660.0 / 1e6, abs=1e-12)
        assert abs(sol.y[0] - 1.0) < 1e-3
        assert sol.kkt_residual <= 1e-9

    def test_zero_load_zero_start_is_stationary(self, ten_unit):
        prob = Block1Problem(
            ten_unit(0.0), (0.0,) * 10, (0.0,) * 10, (0.0,) * 10, rho=4000.0
        )
        sol = solve_block1(prob)
        assert sol.y == (0.0,) * 10
        assert sol.p == (0.0,) * 10
        assert sol.objective == 0.0

    def test_solution_feasibility(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            inst = random_instance(rng, allow_zero_c=True)
            prob = _random_problem(rng, inst)
            sol = solve_block1(prob)
            p_min = np.array([g.p_min for g in inst.generators])
            p_max = np.array([g.p_max for g in inst.generators])
            y = np.array(sol.y)
            p = np.array(sol.p)
            assert np.all(y >= -1e-12) and np.all(y <= 1.0 + 1e-12)
            assert np.all(p >= p_min * y - 1e-7)
            assert np.all(p <= p_max * y + 1e-7)
            assert math.fsum(sol.p) == pytest.approx(inst.load, abs=1e-8)
            assert sol.kkt_residual <= 1e-9

    def test_beats_random_feasible_points(self):
        rng = np.random.default_rng(29)
        inst = random_instance(rng, n=5, load_frac=0.4)
        prob = _random_problem(rng, inst, rho=100.0)
        sol = solve_block1(prob)
        tried = 0
        while tried < 100:
            point = _random_feasible_point(rng, inst)
            if point is None:
                break
            y, p = point
            tried += 1
            assert sol.objective <= block1_objective(prob, y, p) + 1e-9
        assert tried == 100

    def test_two_unit_grid_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(5):
            inst = random_instance(rng, n=2, load_frac=float(rng.uniform(0.1, 0.9)))
            prob = _random_problem(rng, inst, rho=float(rng.uniform(10.0, 2000.0)))
            sol = solve_block1(prob)
            grid_min = grid_min_two_unit(
                inst, prob.z, prob.r, prob.lam, prob.rho, prob.beta
            )
            # Every grid point is feasible, so the exact optimum can only be
            # lower; it must never be higher than the grid by more than noise.
            assert sol.objective <= grid_min + 1e-6

    def test_permutation_invariance(self):
        rng = np.random.default_rng(37)
        inst = random_instance(rng, n=6, load_frac=0.5)
        prob = _random_problem(rng, inst, rho=500.0)
        sol = solve_block1(prob)

        perm = rng.permutation(6)
        gens = tuple(
            GeneratorParams(
                i + 1,
                inst.generators[j].a,
                inst.generators[j].b,
                inst.generators[j].c,
                inst.generators[j].p_min,
                inst.generators[j].p_max,
            )
            for i, j in enumerate(perm)
        )
        shuffled = Block1Problem(
            UCInstance(gens, inst.load),
            tuple(prob.z[j] for j in perm),
            tuple(prob.r[j] for j in perm),
            tuple(prob.lam[j] for j in perm),
            rho=prob.rho,
            beta=prob.beta,
        )
        sol2 = solve_block1(shuffled)
        assert sol2.objective == pytest.approx(sol.objective, abs=1e-8)
        for i, j in enumerate(perm):
            assert sol2.y[i] == pytest.approx(sol.y[j], abs=1e-8)
            assert sol2.p[i] == pytest.approx(sol.p[j], abs=1e-8)

    def test_growing_penalty_pulls_y_toward_z(self, ten_unit):
        inst = ten_unit(800.0)
        z = (0.0, 0.0, 1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 1.0, 0.0)
        gaps = []
        rho = 4000.0
        for _ in range(8):
            prob = Block1Problem(inst, z, (0.0,) * 10, (0.0,) * 10, rho=rho)
            sol = solve_block1(prob)
            gaps.append(math.fsum(abs(yi - zi) for yi, zi in zip(sol.y, z)))
            rho *= 2.0
        for previous, current in zip(gaps, gaps[1:]):
            assert current <= previous + 1e-12

    def test_zero_quadratic_flat_segment(self):
        # Both units free of quadratic cost: the block must still close the
        # balance exactly across the flat price step.
        gens = (
            GeneratorParams(1, 10.0, 15.0, 0.0, 5.0, 50.0),
            GeneratorParams(2, 10.0, 15.0, 0.0, 5.0, 50.0),
        )
        inst = UCInstance(gens, 60.0)
        prob = Block1Problem(inst, (1.0, 1.0), (0.0, 0.0), (0.0, 0.0), rho=50.0)
        sol = solve_block1(prob)
        assert math.fsum(sol.p) == pytest.approx(60.0, abs=1e-8)
        assert sol.kkt_residual <= 1e-9

    def test_price_search_evaluations_on_load_suite(self, ten_unit, monkeypatch):
        # Every supply evaluation of a block-1 solve: the start, the steps
        # out to the bracket and the search.  Plain bisection takes about 52
        # here, the interpolating search from the cold low end about 12, and
        # from the previous iteration's price about 7 (7.02 in all).
        solves = evaluations = 0
        solve, profile = admm.solve_block1, qpblock._profile

        def counted_solve(*args):
            nonlocal solves
            solves += 1
            return solve(*args)

        def counted_profile(*args):
            nonlocal evaluations
            evaluations += 1
            return profile(*args)

        monkeypatch.setattr(admm, "solve_block1", counted_solve)
        monkeypatch.setattr(qpblock, "_profile", counted_profile)
        for load in range(200, 1501, 100):
            run_admm(ten_unit(float(load)), default_config(float(load)))
        assert evaluations / solves <= 7.1


def _warm_problem(rng, zero_c):
    """A random block-1 problem on 1-6 units, with ``rho`` up to 1e6 + 1;
    with ``zero_c``, a nonempty random subset of its units has c = 0."""
    n = int(rng.integers(1, 7))
    gens = list(random_generators(rng, n))
    if zero_c:
        for i in rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False):
            gens[i] = replace(gens[i], c=0.0)
    load = float(rng.uniform(0.0, 1.0)) * sum(g.p_max for g in gens)
    rho = float(rng.choice((4.0, 40.0, 1001.0, 4000.0, 1_000_001.0)))
    return _random_problem(rng, UCInstance(tuple(gens), load), rho=rho)


def _starts(rng, problem, price):
    """Start prices at the cold price, 1 ulp either side, 10**-k of it
    either side, far below and far above the cold bracket, and 0.0."""
    gens = problem.instance.generators
    lo = price_past(min(g.b for g in gens), -1.0)
    hi = price_past(max(g.marginal_cost(g.p_max) for g in gens), 1.0)
    k = int(rng.integers(1, 16))
    return [
        price,
        math.nextafter(price, math.inf),
        math.nextafter(price, -math.inf),
        price * (1.0 + 10.0 ** -k),
        price * (1.0 - 10.0 ** -k),
        lo - 10.0 ** rng.uniform(0.0, 3.0) * (1.0 + abs(lo)),
        hi + 10.0 ** rng.uniform(0.0, 3.0) * (1.0 + abs(hi)),
        0.0,
    ]


def _units(problem):
    """Block 1's per-unit constants, built as ``solve_block1`` builds them."""
    rho = problem.rho
    return [
        qpblock._unit_constants(
            g.a + lam + rho * (r - z), g.b, g.c, g.p_min, g.p_max, rho
        )
        for g, z, r, lam in zip(
            problem.instance.generators, problem.z, problem.r, problem.lam
        )
    ]


def _hex(solution):
    return tuple(
        v.hex()
        for v in (
            *solution.y, *solution.p, solution.objective,
            solution.kkt_residual, solution.price,
        )
    )


@pytest.fixture
def brackets(monkeypatch):
    """Each block-1 search's final ``(lo, hi, supply(lo), supply(hi))``."""
    seen = []
    search = qpblock.bisect_price

    def recorded(supply, load, *args):
        lo, hi = search(supply, load, *args)
        seen.append((lo, hi, supply(lo), supply(hi)))
        return lo, hi

    monkeypatch.setattr(qpblock, "bisect_price", recorded)
    return seen


class TestWarmStart:
    """``solve_block1``'s start price moves only where the search starts.

    Block 1's supply is nondecreasing in the price, so the final bracket is
    unique and every start, wherever it lies, gives the cold solve's floats.
    """

    def test_hints_give_the_cold_solve_without_c_zero_units(self, brackets):
        rng = np.random.default_rng(5)
        for _ in range(3000):
            problem = _warm_problem(rng, zero_c=False)
            _assert_starts_give_the_cold_solve(problem, rng, brackets)

    def test_hints_stay_within_tolerance_with_c_zero_units(self, brackets):
        # The tolerance is exactness: priced on one edge, a c = 0 unit's
        # supply is nondecreasing, so no start ends on another bracket.
        rng = np.random.default_rng(7)
        for _ in range(3000):
            problem = _warm_problem(rng, zero_c=True)
            _assert_starts_give_the_cold_solve(problem, rng, brackets)

    def test_non_monotone_supply_reproducer(self, brackets):
        # Unit 2 has c = 0.  Near its price step its y = 1 and p_max edges
        # tie within rounding.  Compared by their rounded values, they gave
        # supply - load -0.061, +9.421, -0.061, -0.061, +9.421 at ...179,
        # ...17a, ...274, ...275 and ...276, so this start ended on ...275 and
        # the cold search on ...179.  Priced on the p_max edge alone, the
        # supply is nondecreasing and first exceeds the load at ...0fc.
        gens = (
            GeneratorParams(
                1, 375.0246791839688, 38.93797808238526, 0.0020998363534374047,
                34.89566132760896, 125.03143778803069,
            ),
            GeneratorParams(
                2, 590.4992669133038, 35.97622404582395, 0.0,
                11.462247083875749, 32.485230442391455,
            ),
        )
        problem = Block1Problem(
            UCInstance(gens, 5.229855327696306),
            (0.0, 1.0),
            (0.1540553405251019, 0.4645435893773976),
            (145982.6994900088, 83876.51003164148),
            rho=1000001.0,
            beta=789308.1676906693,
        )
        cold = solve_block1(problem)
        assert brackets[-1][0].hex() == "0x1.1fcf4e8d730fbp+5"
        assert _hex(solve_block1(problem, 39.5738)) == _hex(cold)
        assert cold.kkt_residual <= 1e-12
        supply = []
        mu = float.fromhex("0x1.1fcf4e8d730fbp+5")
        while mu <= float.fromhex("0x1.1fcf4e8d73276p+5"):
            supply.append(math.fsum(qpblock._profile(_units(problem), mu)[1]))
            mu = math.nextafter(mu, math.inf)
        assert len(supply) == 0x276 - 0x0FB + 1
        assert supply == sorted(supply)
        assert supply[0] <= problem.instance.load < supply[1]

    def test_plateau_at_the_load_keeps_the_cold_bracket(self):
        # With y held at 1, the unit's supply equals the load exactly for
        # every price above b + 2 c p_max = 11, the cold bracket's high end
        # 12 included.  No price lifts the supply above the load, so at
        # full load the search starts cold wherever the start lies, below
        # the cold low end 9, inside the bracket or above its high end, and
        # a step reaching the capacity counts as crossing it.
        gens = (GeneratorParams(1, 0.0, 10.0, 0.01, 0.0, 50.0),)
        problem = Block1Problem(UCInstance(gens, 50.0), (1.0,), (0.0,), (0.0,), rho=1e6)
        cold = solve_block1(problem)
        assert (cold.y, cold.p) == ((1.0,), (50.0,))
        for start in (-1e6, 0.0, 8.5, 10.5, 11.0, 11.25, 11.75, 12.5, 20.0, 1e6):
            assert _hex(solve_block1(problem, start)) == _hex(cold)

    def test_hint_above_the_cold_end_starts_there(self, ten_unit, monkeypatch):
        # At 1500 MW block 1 clears near 64, above the cold bracket's high
        # end price_past(27.74 + 2 * 0.0079 * 85, 1) = 30.083: the cold
        # search steps past it, a start up there is priced first.
        problem = Block1Problem(
            ten_unit(1500.0), (0.0,) * 10, (0.0,) * 10, (0.0,) * 10, rho=4000.0
        )
        prices = []
        profile = qpblock._profile

        def recorded(units, mu):
            prices.append(mu)
            return profile(units, mu)

        monkeypatch.setattr(qpblock, "_profile", recorded)
        cold = solve_block1(problem)
        cold_evaluations = len(prices)
        hi = price_past(27.74 + 2.0 * 0.0079 * 85.0, 1.0)
        assert prices[:2] == [price_past(16.19, -1.0), hi] and cold.price > 2.0 * hi
        for start in (cold.price, 1.01 * cold.price, 60.0):
            prices.clear()
            assert _hex(solve_block1(problem, start)) == _hex(cold)
            assert prices[0] == start
            assert len(prices) < cold_evaluations


def _assert_starts_give_the_cold_solve(problem, rng, brackets):
    """Every start gives the cold solve's floats and ends on adjacent floats
    with ``supply(lo) <= load < supply(hi)``."""
    load = problem.instance.load
    cold = solve_block1(problem)
    for start in _starts(rng, problem, cold.price):
        assert _hex(solve_block1(problem, start)) == _hex(cold), (problem, start)
        lo, hi, s_lo, s_hi = brackets[-1]
        assert hi == math.nextafter(lo, math.inf)
        assert s_lo <= load < s_hi


def _random_unit(rng):
    """Per-unit data ``(g_lin, b, c, p_min, p_max, rho)`` that reaches every
    branch: c zero or positive, y0 = -g_lin/rho below, inside or above
    [0, 1], and p_min zero, equal to p_max or in between."""
    rho = float(rng.choice((4.0, 40.0, 1001.0, 4000.0, 1_000_001.0)))
    if rng.random() < 0.5:
        rho = float(10.0 ** rng.uniform(math.log10(4.0), math.log10(1_000_001.0)))
    c = 0.0 if rng.random() < 0.25 else float(10.0 ** rng.uniform(-5.0, -1.0))
    b = float(rng.uniform(5.0, 40.0))
    p_max = float(rng.uniform(1.0, 500.0))
    p_min = float(rng.choice((0.0, p_max, rng.uniform(0.0, p_max))))
    y0 = float(
        rng.choice((
            -rng.uniform(0.0, 2.0), rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0),
            0.0, 1.0, 1.0 + rng.uniform(0.0, 2.0),
        ))
    )
    g_lin = -y0 * rho if rng.random() < 0.8 else float(rng.normal(0.0, rho))
    return g_lin, b, c, p_min, p_max, rho


def _breakpoint_price(rng, unit):
    """A price at b, at an end of the interior, inside it, at an end of the
    y = 1 edge, far below or above every breakpoint, or in between."""
    g_lin, b, c, p_min, p_max, rho = unit
    y0 = -g_lin / rho
    top = b + 2.0 * c * p_max
    return float(
        rng.choice((
            b,
            b + 2.0 * c * (p_min * y0),
            b + 2.0 * c * (p_max * y0),
            b + 2.0 * c * (rng.uniform(p_min, p_max) * y0),
            b + 2.0 * c * p_min,
            top,
            b - 1e9,
            top + 1e9,
            rng.uniform(b - 10.0, top + 10.0),
        ))
    )


class TestProfileKernel:
    def test_matches_reference_unit_response(self):
        # 4000 prices over 4 units each: 16,000 (unit, price) cases, every
        # output compared by its hex digits, so -0.0 and NaN count too.
        rng = np.random.default_rng(61)
        seen = {"interior": 0, "y=1": 0, "edge": 0, "apex": 0}
        for _ in range(4000):
            units = [_random_unit(rng) for _ in range(4)]
            mu = _breakpoint_price(rng, units[rng.integers(4)])
            ys, ps = qpblock._profile(
                [qpblock._unit_constants(*u) for u in units], mu
            )
            for unit, y, p in zip(units, ys, ps):
                want_y, want_p = reference_unit_response(*unit, mu)
                assert (y.hex(), p.hex()) == (want_y.hex(), want_p.hex()), (
                    unit, mu
                )
                p_min, p_max = unit[3], unit[4]
                if y == 0.0:
                    seen["apex"] += 1
                elif y == 1.0:
                    seen["y=1"] += 1
                elif p in (p_min * y, p_max * y):
                    seen["edge"] += 1
                else:
                    seen["interior"] += 1
        assert min(seen.values()) >= 100, seen


class TestZeroQuadraticEdgeRule:
    """A c = 0 unit is priced on the one edge its price favours."""

    def test_supply_is_nondecreasing_across_each_price_step(self):
        # Every unit's output and the summed supply, over 129 adjacent
        # floats centred on each c = 0 unit's b and on the clearing price.
        # Comparing the three edges' rounded values dipped on 10 of these
        # 300 problems.
        rng = np.random.default_rng(67)
        for _ in range(300):
            problem = _warm_problem(rng, zero_c=True)
            units = _units(problem)
            gens = problem.instance.generators
            centres = [g.b for g in gens if g.c == 0.0]
            centres.append(solve_block1(problem).price)
            for mu in centres:
                for _ in range(64):
                    mu = math.nextafter(mu, -math.inf)
                previous = None
                for _ in range(129):
                    p = qpblock._profile(units, mu)[1]
                    row = (*p, math.fsum(p))
                    if previous is not None:
                        assert all(a <= b for a, b in zip(previous, row)), (
                            problem, mu
                        )
                    previous = row
                    mu = math.nextafter(mu, math.inf)

    def test_admm_runs_move_within_the_stated_tolerance(self, monkeypatch):
        # The edge rule against the three-edge rule it replaced, on s1 runs
        # over fleets with c = 0 units at the 1e6 + 1 penalties, where the
        # old rule's ties fell (7 of these 60 runs move).  The stated
        # tolerance: the same iterations, bits and final; the residual
        # within 1e-14, both objectives within 1e-14 of their size, block
        # 2's energy, whose terms are of order rho, within 1e-14 rho, and
        # every KKT residual at most 1e-9.
        rng = np.random.default_rng(71)
        instances = [
            random_instance(rng, n=int(rng.integers(3, 13)), allow_zero_c=True)
            for _ in range(60)
        ]
        rho = 1_000_001.0

        def run(inst):
            return run_admm(inst, default_config(inst.load, rho=rho, beta=1e6))

        edge = [run(inst) for inst in instances]

        def three_edge_profile(units, mu):
            ys, ps = [], []
            for unit in units:
                y, p = three_edge_unit_response(*unit, mu)
                ys.append(y)
                ps.append(p)
            return ys, ps

        monkeypatch.setattr(qpblock, "_unit_constants", lambda *unit: unit)
        monkeypatch.setattr(qpblock, "_profile", three_edge_profile)
        moved = 0
        for inst, new in zip(instances, edge):
            old = run(inst)
            assert (new.iterations, new.converged) == (old.iterations, old.converged)
            assert new.terminal_commitment == old.terminal_commitment
            assert new.final == old.final
            moved += new.trace != old.trace
            for a, b in zip(new.trace, old.trace):
                assert abs(a.residual - b.residual) <= 1e-14
                for name in ("objective", "block1_objective"):
                    x, y = getattr(a, name), getattr(b, name)
                    assert abs(x - y) <= 1e-14 * max(1.0, abs(y)), (inst, name)
                assert abs(a.block2_energy - b.block2_energy) <= 1e-14 * rho
                assert max(a.block1_kkt, b.block1_kkt) <= 1e-9
        assert moved >= 1


# (p_min, p_max, y, p) and the constraint normals active there: every set
# ``_kkt_residual`` builds, with p = p_min y at (p_min, -1), p = p_max y at
# (-p_max, 1), y = 0 at (-1, 0) and y = 1 at (1, 0).
ACTIVE_SETS = {
    "interior": (10.0, 55.0, 0.5, 16.25, []),
    "lower-edge": (10.0, 55.0, 0.5, 5.0, [(10.0, -1.0)]),
    "upper-edge": (10.0, 55.0, 0.5, 27.5, [(-55.0, 1.0)]),
    "y1-edge": (10.0, 55.0, 1.0, 30.0, [(1.0, 0.0)]),
    "y1-lower": (10.0, 55.0, 1.0, 10.0, [(10.0, -1.0), (1.0, 0.0)]),
    "y1-upper": (10.0, 55.0, 1.0, 55.0, [(-55.0, 1.0), (1.0, 0.0)]),
    "apex": (10.0, 55.0, 0.0, 0.0, [(10.0, -1.0), (-55.0, 1.0), (-1.0, 0.0)]),
    "pmin-eq-pmax": (40.0, 40.0, 0.5, 20.0, [(40.0, -1.0), (-40.0, 1.0)]),
    "pmin-eq-pmax-y1": (
        40.0, 40.0, 1.0, 40.0, [(40.0, -1.0), (-40.0, 1.0), (1.0, 0.0)]
    ),
    "pmin-eq-pmax-apex": (
        40.0, 40.0, 0.0, 0.0, [(40.0, -1.0), (-40.0, 1.0), (-1.0, 0.0)]
    ),
    "pmin-zero-lower-edge": (0.0, 55.0, 0.5, 0.0, [(0.0, -1.0)]),
    "pmin-zero-y1": (0.0, 55.0, 1.0, 0.0, [(0.0, -1.0), (1.0, 0.0)]),
    "pmin-zero-apex": (
        0.0, 55.0, 0.0, 0.0, [(0.0, -1.0), (-55.0, 1.0), (-1.0, 0.0)]
    ),
}


def _cone_points(rng, normals, count):
    """Points ``w`` inside, on, just off and away from the cone of ``normals``."""
    units = [np.array(n) / math.hypot(*n) for n in normals]
    for k in range(count):
        size = 10.0 ** rng.uniform(-3.0, 6.0)
        kind = k % 4 if units else 0
        if kind == 0:
            w = rng.normal(size=2)
        elif kind == 1:
            picks = rng.choice(len(units), size=min(2, len(units)), replace=False)
            w = sum(rng.uniform(0.0, 1.0) * units[j] for j in picks)
        elif kind == 2:
            w = units[rng.integers(len(units))]
        else:
            n = units[rng.integers(len(units))]
            offset = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-12.0, -2.0)
            w = n + offset * np.array((-n[1], n[0]))
        yield size * w / np.linalg.norm(w)


class TestKktResidual:
    @pytest.mark.parametrize("case", list(ACTIVE_SETS))
    def test_matches_nnls(self, case):
        p_min, p_max, y, p, normals = ACTIVE_SETS[case]
        inst = UCInstance((GeneratorParams(1, 0.0, 0.0, 0.0, p_min, p_max),), p)
        prob = Block1Problem(inst, (0.0,), (0.0,), (0.0,), rho=1.0)
        rng = np.random.default_rng(41)
        for wy, wp in _cone_points(rng, normals, 2000):
            # With a = b = c = 0 and rho = 1 the gradient is (y + g_lin, -mu);
            # the oracle forms it as _kkt_residual does, so both see one point.
            g_lin, mu = -float(wy) - y, float(wp)
            got = qpblock._kkt_residual(prob, (y,), (p,), (g_lin,), mu)
            grad = np.array((1.0 * y + g_lin, 2.0 * 0.0 * p + 0.0 - mu))
            if normals:
                want = nnls(np.array(normals).T, -grad)[1]
            else:
                want = float(np.linalg.norm(grad))
            assert abs(got - want) <= 1e-12 * max(1.0, float(np.linalg.norm(grad)))

    def test_matches_reference_on_block1_shapes(self):
        # s1's block-1 solves end in three active-set shapes: y = 0 at p = 0
        # (58% of units), an interior y on the p_max edge (25%) and y = 1 at
        # p_max (17%).  Here with the p_min shapes and points off every
        # constraint, gradients inside, on and off the cone, and the kernel's
        # early exit compared by hex digits with the oracle that tests every
        # pair and ray.
        rng = np.random.default_rng(43)
        shapes = {
            "apex": lambda lo, hi, y: (0.0, 0.0, ((lo, -1.0), (-hi, 1.0), (-1.0, 0.0))),
            "p_max edge": lambda lo, hi, y: (y, hi * y, ((-hi, 1.0),)),
            "y = 1 at p_max": lambda lo, hi, y: (1.0, hi, ((-hi, 1.0), (1.0, 0.0))),
            "p_min edge": lambda lo, hi, y: (y, lo * y, ((lo, -1.0),)),
            "y = 1 at p_min": lambda lo, hi, y: (1.0, lo, ((lo, -1.0), (1.0, 0.0))),
            "off": lambda lo, hi, y: (y, (lo + 0.5 * (hi - lo)) * y, ()),
        }
        zeros = 0
        for k in range(4000):
            gens, ys, ps, g_lin = [], [], [], []
            rho = float(rng.choice((4.0, 40.0, 1001.0, 4000.0, 1_000_001.0)))
            mu = float(rng.uniform(5.0, 40.0))
            for i in range(1 if k % 2 else 10):
                p_max = float(rng.uniform(1.0, 500.0))
                p_min = float(rng.choice((0.0, rng.uniform(0.0, 0.9 * p_max))))
                c = 0.0 if rng.random() < 0.2 else float(rng.uniform(1e-4, 0.01))
                shape = list(shapes)[int(rng.integers(len(shapes)))]
                y, p, normals = shapes[shape](p_min, p_max, float(rng.uniform(0.01, 0.99)))
                *_, (wy, wp) = _cone_points(rng, normals, int(rng.integers(1, 5)))
                # w = -(rho y + g_lin, 2 c p + b - mu), solved for g_lin and b.
                gens.append(GeneratorParams(i + 1, 0.0, mu - wp - 2.0 * c * p, c, p_min, p_max))
                ys.append(y)
                ps.append(p)
                g_lin.append(-wy - rho * y)
            problem = Block1Problem(
                UCInstance(tuple(gens), math.fsum(ps)),
                (0.0,) * len(gens), (0.0,) * len(gens), (0.0,) * len(gens), rho,
            )
            got = qpblock._kkt_residual(problem, ys, ps, g_lin, mu)
            want = reference_kkt_residual(problem, ys, ps, g_lin, mu)
            assert got.hex() == want.hex(), (problem, ys, ps, g_lin, mu)
            zeros += got == 0.0
        assert zeros >= 400, zeros

