import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_generators, random_instance

from hquc import (
    Commitment,
    DuplicateId,
    GeneratorParams,
    Infeasible,
    InfeasibleCommitment,
    InvariantViolation,
    LengthMismatch,
    MalformedRow,
    TooLarge,
    UCInstance,
    UCSolution,
    check_feasible,
    economic_dispatch,
    enumerate_uc,
    evaluate_cost,
    parse_generators,
    solution_from_csv,
    solution_to_csv,
    solve_uc_exact,
)
from hquc.ucmodel import bisect_price

#: The exact solvers, which must agree bit for bit and float for float.
EXACT_SOLVERS = (enumerate_uc, solve_uc_exact)


def _answer(solve, instance):
    try:
        solution = solve(instance)
    except Infeasible:
        return "infeasible"
    return solution.commitment.bits, solution.cost, solution.dispatch


class TestParseGenerators:
    def test_ten_unit_file(self, ten_unit_generators):
        assert len(ten_unit_generators) == 10
        first = ten_unit_generators[0]
        assert first == GeneratorParams(1, 660.0, 25.92, 0.00413, 10.0, 55.0)
        assert [g.id for g in ten_unit_generators] == list(range(1, 11))

    def test_accepts_string_input(self):
        gens = parse_generators("id,a,b,c,p_min,p_max\n1,1,2,0.1,0,10\n")
        assert gens[0].p_max == 10.0

    def test_rows_return_sorted_by_id(self):
        text = "id,a,b,c,p_min,p_max\n2,1,1,0,0,5\n1,2,2,0,0,9\n"
        gens = parse_generators(text)
        assert [g.id for g in gens] == [1, 2]
        assert gens[0].p_max == 9.0

    def test_empty_data_section(self):
        with pytest.raises(InvariantViolation):
            parse_generators("id,a,b,c,p_min,p_max\n")

    def test_missing_header(self):
        with pytest.raises(MalformedRow, match="line 1"):
            parse_generators("1,660,25.92,0.00413,10,55\n")

    def test_wrong_column_count(self):
        with pytest.raises(MalformedRow, match="line 2"):
            parse_generators("id,a,b,c,p_min,p_max\n1,660,25.92,0.00413,10\n")

    def test_non_numeric_field(self):
        with pytest.raises(MalformedRow, match="line 2"):
            parse_generators("id,a,b,c,p_min,p_max\n1,abc,25.92,0.00413,10,55\n")

    def test_duplicate_id(self):
        text = "id,a,b,c,p_min,p_max\n1,1,1,0,0,5\n1,2,2,0,0,5\n"
        with pytest.raises(DuplicateId, match="line 3"):
            parse_generators(text)

    def test_id_gap(self):
        text = "id,a,b,c,p_min,p_max\n1,1,1,0,0,5\n3,2,2,0,0,5\n"
        with pytest.raises(InvariantViolation):
            parse_generators(text)

    def test_inverted_bounds(self):
        with pytest.raises(InvariantViolation):
            parse_generators("id,a,b,c,p_min,p_max\n1,660,25.92,0.00413,60,55\n")

    def test_negative_quadratic_coefficient(self):
        with pytest.raises(InvariantViolation):
            parse_generators("id,a,b,c,p_min,p_max\n1,660,25.92,-0.001,10,55\n")

    @pytest.mark.parametrize(
        "row",
        ["1,100,12,1e308,10,100", "1,1e308,1e308,0.01,10,100", "1,0,10,0.02,0,1e300"],
        ids=["quadratic", "linear", "capacity"],
    )
    def test_unit_cost_at_full_output_must_be_finite(self, row):
        with pytest.raises(InvariantViolation, match="line 2: unit 1: cost"):
            parse_generators("id,a,b,c,p_min,p_max\n" + row + "\n")


class TestDomainTypes:
    def test_commitment_rejects_non_binary(self):
        with pytest.raises(InvariantViolation):
            Commitment((0, 2, 1))

    def test_commitment_bitstring_renders_most_significant_first(self):
        c = Commitment((1, 1, 0, 1))
        assert c.bitstring == "1011"
        assert Commitment.from_bitstring("1011") == c
        assert c.on_units() == (1, 2, 4)

    def test_instance_requires_nonnegative_load(self, ten_unit_generators):
        with pytest.raises(InvariantViolation):
            UCInstance(ten_unit_generators, -1.0)

    def test_instance_requires_units(self):
        with pytest.raises(InvariantViolation):
            UCInstance((), 10.0)

    def test_fleet_cost_at_full_output_must_be_finite(self):
        # Each unit costs about 1e308 at full output, the pair overflows.
        gens = (
            GeneratorParams(1, 1e308, 10.0, 0.01, 10.0, 100.0),
            GeneratorParams(2, 1e308, 12.0, 0.02, 10.0, 100.0),
        )
        UCInstance(gens[:1], 30.0)
        with pytest.raises(InvariantViolation, match="fleet cost"):
            UCInstance(gens, 30.0)


class TestEvaluateCost:
    def test_all_off_costs_nothing(self, ten_unit):
        inst = ten_unit(0.0)
        assert evaluate_cost(inst, Commitment((0,) * 10), (0.0,) * 10) == 0.0

    def test_single_unit_six(self, ten_unit):
        # 970 + 17.26 * 455 + 0.00031 * 455**2, worked out by hand
        inst = ten_unit(455.0)
        bits = tuple(1 if i == 5 else 0 for i in range(10))
        dispatch = tuple(455.0 if i == 5 else 0.0 for i in range(10))
        cost = evaluate_cost(inst, Commitment(bits), dispatch)
        assert cost == pytest.approx(8887.47775, rel=1e-12)

    def test_single_unit_one_at_minimum(self, ten_unit):
        inst = ten_unit(10.0)
        bits = (1,) + (0,) * 9
        dispatch = (10.0,) + (0.0,) * 9
        cost = evaluate_cost(inst, Commitment(bits), dispatch)
        assert cost == pytest.approx(919.613, rel=1e-12)

    def test_length_mismatch(self, ten_unit):
        inst = ten_unit(10.0)
        with pytest.raises(LengthMismatch):
            evaluate_cost(inst, Commitment((1,) * 10), (0.0,) * 9)

    def test_matches_term_by_term_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            inst = random_instance(rng, n=int(rng.integers(1, 4)))
            bits = tuple(int(b) for b in rng.integers(0, 2, inst.n))
            p = rng.uniform(0.0, 100.0, inst.n)
            expected = sum(
                g.a * y + g.b * pi + g.c * pi**2
                for g, y, pi in zip(inst.generators, bits, p)
            )
            got = evaluate_cost(inst, Commitment(bits), tuple(p))
            assert got == pytest.approx(expected, rel=1e-12, abs=1e-9)

    def test_affine_in_commitment_cost(self):
        rng = np.random.default_rng(7)
        inst = random_instance(rng, n=3)
        bits = (1, 0, 1)
        p = (5.0, 0.0, 7.0)
        base = evaluate_cost(inst, Commitment(bits), p)
        shifted = UCInstance(
            tuple(
                GeneratorParams(g.id, g.a + 100.0, g.b, g.c, g.p_min, g.p_max)
                for g in inst.generators
            ),
            inst.load,
        )
        bumped = evaluate_cost(shifted, Commitment(bits), p)
        assert bumped - base == pytest.approx(100.0 * sum(bits), rel=1e-12)


class TestCheckFeasible:
    def test_two_units_split_load(self, ten_unit):
        inst = ten_unit(100.0)
        bits = (1, 1) + (0,) * 8
        dispatch = (50.0, 50.0) + (0.0,) * 8
        assert check_feasible(inst, Commitment(bits), dispatch).feasible

    def test_zero_supply_reports_balance_slack(self, ten_unit):
        inst = ten_unit(100.0)
        report = check_feasible(inst, Commitment((0,) * 10), (0.0,) * 10)
        assert not report.feasible
        assert len(report.violations) == 1
        v = report.violations[0]
        assert v.constraint == "balance" and v.slack == pytest.approx(100.0)

    def test_output_from_off_unit_violates_upper_bound(self, ten_unit):
        inst = ten_unit(5.0)
        bits = (0,) * 10
        dispatch = (5.0,) + (0.0,) * 9
        report = check_feasible(inst, Commitment(bits), dispatch, tol=1e-9)
        kinds = {(v.constraint, v.unit) for v in report.violations}
        assert ("p_max", 1) in kinds

    def test_tolerance_is_respected(self, ten_unit):
        inst = ten_unit(100.0)
        bits = (1, 1) + (0,) * 8
        dispatch = (50.0, 50.0 + 5e-7) + (0.0,) * 8
        assert check_feasible(inst, Commitment(bits), dispatch, tol=1e-6).feasible
        assert not check_feasible(inst, Commitment(bits), dispatch, tol=1e-9).feasible


class TestEconomicDispatch:
    def test_two_units_pin_expensive_at_minimum(self, ten_unit):
        # Grid search over p1 with p2 = 50 - p1 lands on (40, 10).
        inst = ten_unit(50.0)
        bits = (1, 1) + (0,) * 8
        dispatch = economic_dispatch(inst, Commitment(bits))

        g1, g2 = inst.generators[:2]
        grid = np.arange(10.0, 55.0 + 1e-9, 0.01)
        p2 = 50.0 - grid
        ok = (p2 >= 10.0) & (p2 <= 55.0)
        costs = g1.generation_cost(grid) + g2.generation_cost(p2)
        costs[~ok] = np.inf
        best = grid[np.argmin(costs)]
        assert best == pytest.approx(40.0, abs=0.01)

        assert dispatch[0] == pytest.approx(40.0, abs=1e-8)
        assert dispatch[1] == pytest.approx(10.0, abs=1e-8)
        assert all(p == 0.0 for p in dispatch[2:])

    def test_load_at_total_capacity_pins_every_unit(self, ten_unit):
        inst = ten_unit(1662.0)
        dispatch = economic_dispatch(inst, Commitment((1,) * 10))
        assert dispatch == tuple(g.p_max for g in inst.generators)

    def test_load_at_total_minimum(self, ten_unit):
        inst = ten_unit(440.0)
        dispatch = economic_dispatch(inst, Commitment((1,) * 10))
        assert dispatch == tuple(g.p_min for g in inst.generators)

    def test_single_unit_over_capacity(self, ten_unit):
        inst = ten_unit(60.0)
        with pytest.raises(InfeasibleCommitment):
            economic_dispatch(inst, Commitment((1,) + (0,) * 9))

    def test_all_off_zero_load(self, ten_unit):
        inst = ten_unit(0.0)
        assert economic_dispatch(inst, Commitment((0,) * 10)) == (0.0,) * 10

    def test_kkt_conditions_on_random_commitments(self):
        rng = np.random.default_rng(5)
        checked = 0
        while checked < 200:
            inst = random_instance(rng, n=int(rng.integers(1, 9)))
            bits = tuple(int(b) for b in rng.integers(0, 2, inst.n))
            on = [g for g, b in zip(inst.generators, bits) if b]
            lo = sum(g.p_min for g in on)
            hi = sum(g.p_max for g in on)
            if not (lo <= inst.load <= hi):
                continue
            checked += 1
            dispatch = economic_dispatch(inst, Commitment(bits))
            report = check_feasible(inst, Commitment(bits), dispatch, tol=1e-6)
            assert report.feasible, report.violations
            assert abs(math.fsum(dispatch) - inst.load) <= 1e-8

            # Strictly interior committed units share one marginal price.
            prices = [
                g.marginal_cost(dispatch[g.id - 1])
                for g in on
                if g.p_min + 1e-7 < dispatch[g.id - 1] < g.p_max - 1e-7
            ]
            for mc in prices[1:]:
                assert mc == pytest.approx(prices[0], abs=1e-6)
            # Units at bounds must be priced out in the right direction.
            if prices:
                mu = prices[0]
                for g in on:
                    p = dispatch[g.id - 1]
                    if p <= g.p_min + 1e-7:
                        assert g.marginal_cost(p) >= mu - 1e-6
                    elif p >= g.p_max - 1e-7:
                        assert g.marginal_cost(p) <= mu + 1e-6

    def test_zero_quadratic_units_split_by_price_order(self):
        gens = (
            GeneratorParams(1, 0.0, 10.0, 0.0, 0.0, 50.0),
            GeneratorParams(2, 0.0, 20.0, 0.0, 0.0, 50.0),
        )
        inst = UCInstance(gens, 60.0)
        dispatch = economic_dispatch(inst, Commitment((1, 1)))
        assert dispatch == (50.0, 10.0)

    def test_zero_quadratic_tie_allocates_in_unit_order(self):
        gens = (
            GeneratorParams(1, 0.0, 10.0, 0.0, 0.0, 50.0),
            GeneratorParams(2, 0.0, 10.0, 0.0, 0.0, 50.0),
        )
        inst = UCInstance(gens, 70.0)
        dispatch = economic_dispatch(inst, Commitment((1, 1)))
        assert math.fsum(dispatch) == pytest.approx(70.0, abs=1e-9)
        assert dispatch == (50.0, 20.0)


class TestEnumerate:
    def test_enumeration_guard(self):
        gens = tuple(
            GeneratorParams(i + 1, 1.0, 1.0, 0.0, 0.0, 10.0) for i in range(25)
        )
        with pytest.raises(TooLarge):
            enumerate_uc(UCInstance(gens, 5.0))

    def test_infeasible_load(self, ten_unit):
        for solve in EXACT_SOLVERS:
            with pytest.raises(Infeasible):
                solve(ten_unit(2000.0))
            with pytest.raises(Infeasible):
                solve(ten_unit(5.0))  # below every p_min

    def test_zero_load_all_off(self, ten_unit):
        for solve in EXACT_SOLVERS:
            sol = solve(ten_unit(0.0))
            assert sol.commitment.bits == (0,) * 10
            assert sol.cost == 0.0

    def test_ten_unit_golden_solutions(self, ten_unit):
        # Hand-verified optima: unit 4 alone at 100 MW; unit 9 alone at 200
        # and 400; units 6+9 at 800 (unit 9 capped, marginal costs checked).
        for solve in EXACT_SOLVERS:
            sol = solve(ten_unit(100.0))
            assert sol.commitment.bits == (0, 0, 0, 1, 0, 0, 0, 0, 0, 0)
            assert sol.cost == pytest.approx(2351.1, rel=1e-12)

            sol = solve(ten_unit(200.0))
            assert sol.commitment.bits == (0, 0, 0, 0, 0, 0, 0, 0, 1, 0)
            assert sol.cost == pytest.approx(4257.2, rel=1e-12)

            sol = solve(ten_unit(800.0))
            assert sol.commitment.bits == (0, 0, 0, 0, 0, 1, 0, 0, 1, 0)
            assert sol.cost == pytest.approx(15427.41975, rel=1e-12)
            assert sol.dispatch[5] == pytest.approx(345.0, abs=1e-8)
            assert sol.dispatch[8] == pytest.approx(455.0, abs=1e-8)

    def test_never_loses_to_random_commitments(self, ten_unit):
        rng = np.random.default_rng(17)
        for load in (100.0, 400.0, 900.0):
            inst = ten_unit(load)
            best = enumerate_uc(inst)
            for _ in range(1000):
                bits = tuple(int(b) for b in rng.integers(0, 2, 10))
                on = [g for g, b in zip(inst.generators, bits) if b]
                if not (
                    sum(g.p_min for g in on) <= load <= sum(g.p_max for g in on)
                ):
                    continue
                dispatch = economic_dispatch(inst, Commitment(bits))
                cost = evaluate_cost(inst, Commitment(bits), dispatch)
                assert best.cost <= cost + 1e-9

    def test_tie_breaks_toward_lexicographically_smallest(self):
        gens = (
            GeneratorParams(1, 5.0, 1.0, 0.0, 0.0, 10.0),
            GeneratorParams(2, 5.0, 1.0, 0.0, 0.0, 10.0),
        )
        for solve in EXACT_SOLVERS:
            sol = solve(UCInstance(gens, 10.0))
            assert sol.commitment.bits == (0, 1)

    def test_solution_dispatch_feasible_and_costed(self, ten_unit):
        inst = ten_unit(777.0)
        sol = enumerate_uc(inst)
        assert check_feasible(inst, sol.commitment, sol.dispatch, 1e-6).feasible
        recosted = evaluate_cost(inst, sol.commitment, sol.dispatch)
        assert sol.cost == pytest.approx(recosted, rel=1e-9)
        for bit, p in zip(sol.commitment.bits, sol.dispatch):
            if bit == 0:
                assert p == 0.0


def _sweep_instance(rng, n):
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


class TestBisectPrice:
    @pytest.mark.parametrize("load", [20.0, 0.0])
    def test_ends_at_adjacent_floats(self, load):
        calls = []

        def supply(mu):
            calls.append(mu)
            return mu

        lo, hi = bisect_price(supply, load, -1e300, 1e300)
        assert lo <= load < hi
        assert hi == math.nextafter(lo, math.inf)
        assert len(calls) <= 2100

    def test_infinite_bracket_returns(self):
        # The first midpoint is NaN, which ends the loop.
        assert bisect_price(lambda mu: mu, 20.0, -math.inf, math.inf) == (
            -math.inf,
            math.inf,
        )


class TestSolveUcExact:
    """Branch and bound returns exactly what enumeration returns."""

    def test_matches_enumeration_on_seeded_sweep(self):
        rng = np.random.default_rng(2026)
        infeasible = 0
        for _ in range(300):
            inst = _sweep_instance(rng, int(rng.integers(1, 10)))
            expected = _answer(enumerate_uc, inst)
            assert _answer(solve_uc_exact, inst) == expected
            infeasible += expected == "infeasible"
        assert 0 < infeasible < 300

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(
        units=st.lists(
            st.tuples(
                st.floats(0.0, 1000.0),
                st.floats(0.0, 40.0),
                st.one_of(st.just(0.0), st.floats(1e-4, 0.01)),
                st.floats(0.0, 50.0),
                st.floats(0.0, 200.0),
            ),
            min_size=1,
            max_size=8,
        ),
        load_frac=st.floats(0.0, 1.05),
    )
    def test_matches_enumeration_property(self, units, load_frac):
        gens = tuple(
            GeneratorParams(i, a, b, c, p_min, p_min + width)
            for i, (a, b, c, p_min, width) in enumerate(units, start=1)
        )
        inst = UCInstance(gens, load_frac * sum(g.p_max for g in gens))
        assert _answer(solve_uc_exact, inst) == _answer(enumerate_uc, inst)

    def test_unit_with_tiny_capacity(self):
        # a / p_max overflows the dual bound's upper price; the bound is taken
        # at the bracket's low end, so the solve still prices every leaf.
        gens = (
            GeneratorParams(1, 1e10, 10.0, 0.01, 0.0, 1e-300),
            GeneratorParams(2, 100.0, 12.0, 0.02, 10.0, 100.0),
        )
        inst = UCInstance(gens, 30.0)
        assert _answer(solve_uc_exact, inst) == _answer(enumerate_uc, inst)
        assert solve_uc_exact(inst).cost == 478.0

    def test_solves_past_the_enumeration_limit(self):
        # 25 copies of one unit at 100 MW: k units cost 40 k + 100 + 100 / k,
        # least at k = 2, and the lexicographically smallest pair is the last.
        gens = tuple(GeneratorParams(i, 40.0, 1.0, 0.01, 5.0, 60.0) for i in range(1, 26))
        sol = solve_uc_exact(UCInstance(gens, 100.0))
        assert sol.commitment.bits == (0,) * 23 + (1, 1)
        assert sol.dispatch[-2:] == (50.0, 50.0)


class TestSolutionCsv:
    def test_round_trip(self, ten_unit):
        sol = enumerate_uc(ten_unit(800.0))
        text = solution_to_csv(sol)
        parsed = solution_from_csv(text)
        assert parsed == sol

    def test_header_and_cost_line(self, ten_unit):
        sol = enumerate_uc(ten_unit(100.0))
        lines = solution_to_csv(sol).splitlines()
        assert lines[0] == "unit,committed,p_mw"
        assert lines[-1].startswith("# cost=")
        assert len(lines) == 12

    def test_rejects_garbage(self):
        with pytest.raises(MalformedRow):
            solution_from_csv("nope\n1,2,3\n")
