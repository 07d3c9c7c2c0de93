import math

import numpy as np
import pytest
from scipy.optimize import nnls

from helpers import grid_min_two_unit, random_instance, reference_unit_response

from hquc import (
    Block1Problem,
    GeneratorParams,
    InfeasibleRelaxation,
    InvariantViolation,
    LengthMismatch,
    UCInstance,
    block1_objective,
    default_config,
    run_admm,
    solve_block1,
)
from hquc import qpblock


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

    def test_length_mismatch(self, ten_unit):
        prob = Block1Problem(
            ten_unit(10.0), (0.0,) * 10, (0.0,) * 10, (0.0,) * 10, rho=1.0
        )
        with pytest.raises(LengthMismatch):
            block1_objective(prob, (0.0,) * 9, (0.0,) * 10)


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
        # Plain bisection takes about 52 supply evaluations per solve here;
        # the interpolating search about 10.
        calls = evaluations = 0
        search = qpblock.bisect_price

        def counting(supply, load, lo, hi):
            nonlocal calls
            calls += 1

            def counted(mu):
                nonlocal evaluations
                evaluations += 1
                return supply(mu)

            return search(counted, load, lo, hi)

        monkeypatch.setattr(qpblock, "bisect_price", counting)
        for load in range(200, 1501, 100):
            run_admm(ten_unit(float(load)), default_config(float(load)))
        assert evaluations / calls <= 24


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
