import io
import math
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    _dual_term,
    _step_output,
    random_generators,
    random_instance,
    reference_bisect,
    reference_cheapest,
    reference_dispatch,
    reference_solve_uc_exact,
    sweep_instance as _sweep_instance,
)

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
from hquc import ucmodel
from hquc.ucmodel import (
    bisect_price,
    clear_on_breakpoints,
    lagrangian_commitment,
    one_flips,
    polish,
    price_past,
)

#: The exact solvers, which must agree bit for bit and float for float.
EXACT_SOLVERS = (enumerate_uc, solve_uc_exact)


def _answer(solve, instance):
    try:
        solution = solve(instance)
    except Infeasible:
        return "infeasible"
    return solution.commitment.bits, solution.cost, solution.dispatch


def _hex(solution):
    """Bits, dispatch and cost of a solution, the floats by their hex digits."""
    if solution is None:
        return None
    return (
        solution.commitment.bits,
        [p.hex() for p in solution.dispatch],
        solution.cost.hex(),
    )


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

    def test_empty_text(self):
        with pytest.raises(MalformedRow, match="line 1: missing header row"):
            parse_generators("")

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

    @pytest.mark.parametrize(
        "row",
        ["1,0,1,1e308,0,1", "1,-1e308,1e308,5e307,0,1", "1,0,1,1e308,0,0"],
        ids=["2c", "b-plus-2c", "2c-times-zero"],
    )
    def test_unit_marginal_cost_at_full_output_must_be_finite(self, row):
        # Each costs a finite amount at full output, but 2c or b + 2c p_max
        # overflows: dispatch priced the first at NaN, and enumeration
        # returned that NaN as the optimum's cost.
        with pytest.raises(
            InvariantViolation,
            match=r"line 2: unit 1: marginal cost b \+ 2\*c\*p_max overflows",
        ):
            parse_generators("id,a,b,c,p_min,p_max\n" + row + "\n")


class TestDomainTypes:
    def test_commitment_rejects_non_binary(self):
        with pytest.raises(InvariantViolation):
            Commitment((0, 2, 1))

    @pytest.mark.parametrize("bits", [(0.5, 1), (1.5,), ("a",), (math.nan, 0)])
    def test_commitment_tests_bits_before_converting_them(self, bits):
        # int() would truncate 0.5 to 0 and 1.5 to 1, and refuse "a" with a
        # ValueError.
        with pytest.raises(InvariantViolation, match="bits must be 0/1"):
            Commitment(bits)

    def test_commitment_keeps_exact_bits_as_ints(self):
        bits = Commitment((1.0, True, 0, np.int64(1), False)).bits
        assert bits == (1, 1, 0, 1, 0)
        assert all(type(b) is int for b in bits)

    def test_commitment_bitstring_renders_most_significant_first(self):
        c = Commitment((1, 1, 0, 1))
        assert c.bitstring == "1011"
        assert c.on_units() == (1, 2, 4)

    def test_instance_requires_nonnegative_load(self, ten_unit_generators):
        with pytest.raises(InvariantViolation):
            UCInstance(ten_unit_generators, -1.0)

    def test_instance_ids_must_start_at_one(self, ten_unit_generators):
        with pytest.raises(InvariantViolation, match="1..N without gaps"):
            UCInstance(ten_unit_generators[1:], 100.0)

    def test_instance_requires_units(self):
        with pytest.raises(InvariantViolation):
            UCInstance((), 10.0)

    @pytest.mark.parametrize("field", range(1, 6))
    def test_non_numeric_unit_data_is_named(self, field):
        values = [1, 1.0, 2.0, 0.1, 0.0, 10.0]
        values[field] = "x"
        name = ("a", "b", "c", "p_min", "p_max")[field - 1]
        with pytest.raises(InvariantViolation, match=f"unit 1: {name}='x' is not a real number"):
            GeneratorParams(*values)

    def test_non_numeric_load_is_named(self, ten_unit_generators):
        with pytest.raises(InvariantViolation, match="load='5' is not a real number"):
            UCInstance(ten_unit_generators, "5")

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

    def test_nan_outputs_violate_limits_and_balance(self, ten_unit):
        inst = ten_unit(800.0)
        report = check_feasible(inst, Commitment((1,) * 10), (math.nan,) * 10)
        assert not report.feasible
        kinds = [(v.constraint, v.unit) for v in report.violations]
        assert kinds[0] == ("balance", None)
        assert report.violations[0].slack == math.inf
        for g in inst.generators:
            assert ("p_min", g.id) in kinds and ("p_max", g.id) in kinds

    def test_opposite_infinities_are_violations(self, ten_unit):
        inst = ten_unit(800.0)
        dispatch = (math.inf, -math.inf) + (0.0,) * 8
        report = check_feasible(inst, Commitment((1,) * 10), dispatch)
        kinds = [(v.constraint, v.unit, v.slack) for v in report.violations]
        assert kinds[:3] == [
            ("balance", None, math.inf), ("p_max", 1, math.inf), ("p_min", 2, math.inf)
        ]

    @pytest.mark.parametrize("tol", [math.nan, -1e-9])
    def test_tolerance_must_be_nonnegative(self, ten_unit, tol):
        inst = ten_unit(800.0)
        with pytest.raises(InvariantViolation, match="tol"):
            check_feasible(inst, Commitment((1,) * 10), (80.0,) * 10, tol=tol)

    #: Three units of about 1e12 MW, where one ulp of the load is 1.2e-4 MW
    #: or more, far above the default ``tol``.
    HUGE_FLEET = (
        GeneratorParams(1, 660.0, 25.92, 0.00413, 1e9, 7e11),
        GeneratorParams(2, 670.0, 27.79, 0.00173, 1e9, 9e11),
        GeneratorParams(3, 700.0, 16.6, 0.002, 2e9, 1.3e12),
    )

    def test_exact_dispatch_at_huge_loads_is_feasible(self):
        # Before the balance tolerance was floored at four ulps of the load,
        # 8 of these 200 exact dispatches missed the load by one ulp and failed.
        rng = Random(0)
        for _ in range(200):
            inst = UCInstance(self.HUGE_FLEET, rng.uniform(3e9, 2.8e12))
            solution = solve_uc_exact(inst)
            report = check_feasible(inst, solution.commitment, solution.dispatch)
            assert report.feasible, (inst.load, report)

    def test_dispatch_ten_ulps_short_of_a_huge_load_fails(self):
        load = 2.0e12
        inst = UCInstance(self.HUGE_FLEET, load)
        short = load - 10 * math.ulp(load)
        dispatch = (5e11, 5e11, short - 1e12)
        assert math.fsum(dispatch) == short
        report = check_feasible(inst, Commitment((1, 1, 1)), dispatch)
        assert [v.constraint for v in report.violations] == ["balance"]
        assert report.violations[0].slack == 10 * math.ulp(load)


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
        costs = g1.b * grid + g1.c * grid**2 + g2.b * p2 + g2.c * p2**2
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

    @pytest.mark.parametrize(
        "units, load, dispatch",
        [
            (
                ((0.0, 1e17, 0.0, 0.0, 100.0), (0.0, 2e17, 0.0, 0.0, 100.0)),
                150.0,
                (100.0, 50.0),
            ),
            (((0.0, 1e300, 1e-10, 0.0, 100.0),), 50.0, (50.0,)),
        ],
    )
    def test_huge_prices_clear(self, units, load, dispatch):
        # Past 2**50 a bracket margin of 1.0 rounds away; every unit is on.
        gens = [GeneratorParams(i, *u) for i, u in enumerate(units, start=1)]
        inst = UCInstance(gens, load)
        assert economic_dispatch(inst, Commitment((1,) * len(gens))) == dispatch
        for solve in EXACT_SOLVERS:
            solution = solve(inst)
            assert solution.commitment.bits == (1,) * len(gens)
            assert solution.dispatch == dispatch

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


    def test_matches_the_whole_range_search(self):
        # The breakpoint search must end on the bracket that bisect_price
        # ends on over the whole price range: same floats, by hex digits.
        rng = np.random.default_rng(41)
        kinds = dict.fromkeys(("inside", "at a step", "range end", "outside"), 0)
        for _ in range(150):
            gens = list(random_generators(rng, int(rng.integers(1, 25)), allow_zero_c=True))
            for i in range(1, len(gens)):
                if gens[i].c == 0.0 and rng.random() < 0.5:  # share a step
                    src = gens[int(rng.integers(0, i))]
                    gens[i] = GeneratorParams(i + 1, 1.0, src.b, 0.0, 1.0, 30.0)
            bits = tuple(int(rng.random() < 0.7) for _ in gens)
            on = [g for g, y in zip(gens, bits) if y]
            lo = math.fsum(g.p_min for g in on)
            hi = math.fsum(g.p_max for g in on)
            loads = {"inside": lo + float(rng.uniform()) * (hi - lo), "range end": lo}
            steps = [g for g in on if g.c == 0.0]
            if steps:
                # The other units' outputs at a c = 0 unit's b, plus part of
                # its own range: the price sits on its step.
                j = steps[int(rng.integers(len(steps)))]
                loads["at a step"] = math.fsum(
                    _step_output(g.b, g.c, g.p_min, g.p_max, j.b) for g in on if g is not j
                ) + j.p_min + float(rng.uniform()) * (j.p_max - j.p_min)
            loads["outside"] = hi + 1.0
            for kind, load in loads.items():
                instance = UCInstance(tuple(gens), max(load, 0.0))
                want = reference_dispatch(instance, bits)
                got = ucmodel._dispatch(instance, bits)
                kinds[kind] += want is not None or kind == "outside"
                if want is None:
                    assert got is None
                else:
                    assert [p.hex() for p in got] == [p.hex() for p in want], (gens, bits, load)
        assert min(kinds.values()) >= 50, kinds


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


def _seed(instance):
    """:func:`solve_uc_exact`'s first incumbent."""
    seed = lagrangian_commitment(instance.generators, instance.load)
    return polish(instance, seed.bits)


def _evaluations(search, supply, load, lo, hi, *ends):
    """The bracket ``search`` returns and the number of supply evaluations."""
    mus = []

    def counted(mu):
        mus.append(mu)
        return supply(mu)

    return search(counted, load, lo, hi, *ends), len(mus)


def _piecewise_affine(pieces):
    """A nondecreasing piecewise-affine supply from ``(x, width, slope, jump,
    closed)`` pieces: a ramp of ``slope`` over ``[x, x + width]`` plus a jump
    at ``x``, taken for ``mu > x`` like a ``c == 0`` unit's step or the dual's
    ``phi`` sign change, or for ``mu >= x`` where ``closed``."""

    def supply(mu):
        terms = []
        for x, width, slope, jump, closed in pieces:
            terms.append(slope * (min(max(mu, x), x + width) - x))
            if mu > x or (closed and mu == x):
                terms.append(jump)
        return math.fsum(terms)

    return supply


class TestBisectPrice:
    def test_price_past_is_strict_at_every_magnitude(self):
        for end in (0.0, -7.25, 2.0**50 - 1.0, 2.0**50, -1e17, 1e300, 1.7e308):
            assert price_past(end, -1.0) < end < price_past(end, 1.0)
        # Below 2**50 the margin is exactly 1.0.
        assert price_past(-7.25, -1.0) == -8.25
        assert price_past(2.0**50 - 1.0, 1.0) == 2.0**50

    @pytest.mark.parametrize(
        "lo, hi, load", [(1e308, 1.7e308, 1.5e308), (-1.7e308, -1e308, -1.5e308)]
    )
    def test_overflowing_midpoint_ends_at_adjacent_floats(self, lo, hi, load):
        # lo + hi overflows, so the midpoint halves each end first.
        got = bisect_price(lambda mu: mu, load, lo, hi)
        assert got == reference_bisect(lambda mu: mu, load, lo, hi)
        assert got[0] <= load < got[1]
        assert got[1] == math.nextafter(got[0], math.inf)

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

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        pieces=st.lists(
            st.tuples(
                st.floats(-1e3, 1e3),
                st.floats(0.0, 1e3),
                st.one_of(st.sampled_from((0.0, 1e-6, 1.0, 1e6)), st.floats(0.0, 1e6)),
                st.one_of(st.sampled_from((0.0, 1.0, 1e5)), st.floats(0.0, 1e6)),
                st.booleans(),
            ),
            min_size=1,
            max_size=8,
        ),
        data=st.data(),
    )
    def test_matches_reference_bisection(self, pieces, data):
        supply = _piecewise_affine(pieces)
        lo = min(x for x, *_ in pieces) - 1.0
        hi = max(x + width for x, width, *_ in pieces) + 1.0
        top = supply(hi)
        knot = data.draw(st.sampled_from([x for x, *_ in pieces]))
        load = data.draw(
            st.one_of(
                # Nothing, the top plateau, and either side of a jump.
                st.sampled_from(
                    (0.0, top, supply(knot), supply(math.nextafter(knot, math.inf)))
                ),
                st.floats(0.0, 1.0).map(lambda f: f * top),
            )
        )
        got, evaluations = _evaluations(bisect_price, supply, load, lo, hi)
        want, halvings = _evaluations(reference_bisect, supply, load, lo, hi)
        assert got == want
        assert evaluations <= 2 * halvings + 2
        # With the end supplies known the first trial interpolates; the
        # result and the bound stay, a top plateau at the load included.
        ends = supply(lo), supply(hi)
        got, evaluations = _evaluations(bisect_price, supply, load, lo, hi, *ends)
        assert got == want
        assert evaluations <= 2 * halvings + 2

    @pytest.mark.parametrize("fraction", [1e-9, 0.0108, 0.5, 0.99])
    def test_step_supply_costs_at_most_twice_bisection(self, fraction):
        # Against one jump every interpolated trial lands the fraction
        # load / jump of the way across the bracket, far from the jump.
        # Interpolating whenever the bracket halved over the last two steps
        # took 130 evaluations here at 0.0108, bisection 54.
        def supply(mu):
            return 1.0 if mu > 1732897.9667147014 else 0.0

        lo, hi = 32.5485929044289, 5787758.052073539
        got, evaluations = _evaluations(bisect_price, supply, fraction, lo, hi)
        want, halvings = _evaluations(reference_bisect, supply, fraction, lo, hi)
        assert got == want
        assert evaluations <= 2 * halvings + 2


class TestClearOnBreakpoints:
    @pytest.mark.parametrize("shape", ["affine", "steps", "both"])
    def test_ends_on_the_whole_range_bracket(self, shape):
        # Loads below the first breakpoint, above the last, inside a jump
        # and inside a piece; the bracket is the one plain bisection ends on
        # over [below, above], found with far fewer supply evaluations.
        rng = np.random.default_rng(len(shape))
        evaluations = searches = 0
        for _ in range(300):
            breaks = sorted(float(x) for x in rng.uniform(-10.0, 10.0, int(rng.integers(1, 8))))

            def supply(mu, breaks=breaks):
                steps = sum(3.0 for x in breaks if mu > x)
                return {"affine": mu, "steps": steps, "both": mu + steps}[shape]

            load = float(rng.uniform(-15.0, 40.0))
            counted = []

            def counting(mu):
                counted.append(mu)
                return supply(mu)

            got = clear_on_breakpoints(counting, load, breaks, lambda: -20.0, lambda: 50.0)
            assert got == reference_bisect(supply, load, -20.0, 50.0)
            if breaks[0] <= got[0] < breaks[-1]:  # between two breakpoints
                evaluations += len(counted)
                searches += 1
        # Plain bisection takes about 60 evaluations there.
        assert evaluations / searches <= {"affine": 7, "steps": 4, "both": 7}[shape]

    def test_reads_only_finite_breakpoints_and_never_minus_zero(self):
        trials = []

        def supply(mu):
            trials.append(mu)
            return 2.0 if mu > 0.0 else 1.0

        got = clear_on_breakpoints(
            supply, 1.5, [math.nan, -0.0, math.inf, -0.0, 0.0, -math.inf],
            lambda: -1.0, lambda: 1.0,
        )
        assert got == (0.0, 5e-324)
        assert all(math.copysign(1.0, mu) > 0.0 for mu in trials if mu == 0.0)

    def test_reads_the_range_ends_only_when_needed(self):
        ends = []

        def end(value):
            return lambda: ends.append(value) or value

        def supply(mu):
            return mu

        assert clear_on_breakpoints(supply, 0.5, [0.0, 1.0], end(-5.0), end(5.0)) == (
            reference_bisect(supply, 0.5, 0.0, 1.0)
        )
        assert ends == []
        clear_on_breakpoints(supply, -2.0, [0.0, 1.0], end(-5.0), end(5.0))
        clear_on_breakpoints(supply, 2.0, [0.0, 1.0], end(-5.0), end(5.0))
        assert ends == [-5.0, 5.0]


def _price_unit(rng, uid):
    """A unit that reaches every branch of the price kernels: c zero or
    positive, p_min zero, equal to p_max or in between, and ``a`` of either
    sign, so that the least average cost may be any of its cases."""
    c = 0.0 if rng.random() < 0.3 else float(10.0 ** rng.uniform(-5.0, -1.0))
    p_max = float(rng.uniform(1.0, 500.0))
    p_min = float(rng.choice((0.0, p_max, rng.uniform(0.0, p_max))))
    a = float(rng.choice((0.0, rng.uniform(0.0, 1000.0), -rng.uniform(0.0, 100.0))))
    return GeneratorParams(uid, a, float(rng.uniform(5.0, 40.0)), c, p_min, p_max)


def _kernel_price(rng, g):
    """A price at, 1 ulp or 1e9 off one of the unit's breakpoints (b, the
    marginal costs at p_min and p_max, the least average cost), or between."""
    anchors = [g.b, g.b + 2.0 * g.c * g.p_min, g.b + 2.0 * g.c * g.p_max]
    if math.isfinite(g.min_average_cost):
        anchors.append(g.min_average_cost)
    anchor = anchors[rng.integers(len(anchors))]
    kind = rng.integers(6)
    if kind == 5:
        return float(rng.uniform(g.b - 10.0, anchors[2] + 10.0))
    return (
        anchor,
        math.nextafter(anchor, -math.inf),
        math.nextafter(anchor, math.inf),
        anchor - 1e9,
        anchor + 1e9,
    )[kind]


class TestPriceKernel:
    def test_matches_per_unit_oracles(self):
        # 3000 prices over 4 units each: 12,000 (unit, price) cases.  The
        # flat loops of _outputs, _phis and _dual_supply must give the
        # per-unit oracles' floats, compared by their hex digits.
        rng = np.random.default_rng(19)
        seen = dict.fromkeys(
            ("below p_min", "inside", "above p_max", "step low", "step high",
             "free pays", "free idle"),
            0,
        )
        for _ in range(3000):
            gens = [_price_unit(rng, uid) for uid in range(1, 5)]
            mu = _kernel_price(rng, gens[rng.integers(4)])
            units = [g.price_constants for g in gens]
            k = int(rng.integers(0, 5))

            want = [_step_output(g.b, g.c, g.p_min, g.p_max, mu) for g in gens]
            got = ucmodel._outputs(units, mu)
            assert [p.hex() for p in got] == [p.hex() for p in want], (gens, mu)
            phis = [_dual_term(g, mu)[0] for g in gens]
            got = ucmodel._phis(units, mu)
            assert [v.hex() for v in got] == [v.hex() for v in phis], (gens, mu)
            total = 0.0
            for i, (g, p) in enumerate(zip(gens, want)):
                if i < k or mu > g.min_average_cost:
                    total += p
            got = ucmodel._dual_supply(units[:k], units[k:], mu)
            assert got.hex() == total.hex(), (gens, mu, k)

            for i, g in enumerate(gens):
                if g.c == 0.0:
                    seen["step high" if mu > g.b else "step low"] += 1
                else:
                    raw = (mu - g.b) / (2.0 * g.c)
                    if raw < g.p_min:
                        seen["below p_min"] += 1
                    elif raw > g.p_max:
                        seen["above p_max"] += 1
                    else:
                        seen["inside"] += 1
                if i >= k:
                    seen["free pays" if mu > g.min_average_cost else "free idle"] += 1
        assert min(seen.values()) >= 100, seen


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

    def test_bound_whose_terms_overflow(self):
        # Unit 1's average cost puts the dual price near 1.8e306, where
        # mu * load is +inf and unit 3's phi is -inf.  Such a bound is -inf,
        # which prunes nothing, so the answer is enumeration's.
        gens = (
            GeneratorParams(1, 1e308, 25.92, 0.00413, 10.0, 55.0),
            GeneratorParams(2, 670.0, 27.79, 0.00173, 10.0, 55.0),
            GeneratorParams(3, 700.0, 16.6, 0.002, 20.0, 130.0),
        )
        inst = UCInstance(gens, 240.0)
        assert ucmodel._dual_bound((), gens, 240.0)[1] == -math.inf
        assert _answer(solve_uc_exact, inst) == _answer(enumerate_uc, inst)
        assert solve_uc_exact(inst).commitment.bits == (1, 1, 1)

    def test_tie_outside_the_seeds_neighbourhood(self):
        # The dual price is 2.5, where unit 2's phi is exactly 0, so the
        # Lagrangian commitment is (1, 0, 0), which cannot serve 30 MW.  The
        # seed is then (1, 1, 0): unit 1 at 10 MW costs 20 and unit 2 at 20 MW
        # costs 20 + 40, 80 in all.  Unit 2 alone at 30 MW costs 20 + 60 = 80
        # too, two flips from (1, 0, 0), and its bits are the smaller.
        gens = (
            GeneratorParams(1, 0.0, 2.0, 0.0, 0.0, 10.0),
            GeneratorParams(2, 20.0, 2.0, 0.0, 0.0, 40.0),
            GeneratorParams(3, 40.0, 3.0, 0.0, 0.0, 20.0),
        )
        inst = UCInstance(gens, 30.0)
        assert lagrangian_commitment(gens, 30.0).bits == (1, 0, 0)
        seed = _seed(inst)
        assert seed.commitment.bits == (1, 1, 0) and seed.cost == 80.0
        sol = solve_uc_exact(inst)
        assert sol.commitment.bits == enumerate_uc(inst).commitment.bits == (0, 1, 0)
        assert sol.cost == 80.0

    def test_dual_bound_clears_its_price_in_few_evaluations(self, monkeypatch):
        # Bisecting across the supply's jumps took about 44 supply evaluations
        # per bound on these fleets; the breakpoint search takes about 6.
        calls = evaluations = 0
        bound, supply = ucmodel._dual_bound, ucmodel._dual_supply

        def counting_bound(*args):
            nonlocal calls
            calls += 1
            return bound(*args)

        def counting_supply(*args):
            nonlocal evaluations
            evaluations += 1
            return supply(*args)

        monkeypatch.setattr(ucmodel, "_dual_bound", counting_bound)
        monkeypatch.setattr(ucmodel, "_dual_supply", counting_supply)
        rng = np.random.default_rng(2026)
        for _ in range(300):
            inst = _sweep_instance(rng, int(rng.integers(1, 10)))
            try:
                solve_uc_exact(inst)
            except Infeasible:
                pass
        # Each of the 300 solves takes at least the root bound.
        assert calls >= 300
        # A bound that stopped calling the module's _dual_supply would count 0.
        assert evaluations > 0
        assert evaluations / calls <= 15

    def test_one_flips(self):
        for bits in ((), (0,), (1,), (1, 0, 1, 1), (0,) * 7):
            flips = list(one_flips(bits))
            assert len(flips) == len(bits)
            for i, flipped in enumerate(flips):
                assert [k for k, (a, b) in enumerate(zip(bits, flipped)) if a != b] == [i]
                assert set(flipped) <= {0, 1}

    def test_lagrangian_commitment_seeds_every_servable_load(self, ten_unit):
        # A load is servable when some commitment's capacity range holds it,
        # summed as _dispatch sums it: the commitments enumerate_uc prices.
        gens = ten_unit(0.0).generators
        ranges = []
        for mask in range(1 << len(gens)):
            on = [g for i, g in enumerate(gens) if (mask >> i) & 1]
            ranges.append(
                (math.fsum(g.p_min for g in on), math.fsum(g.p_max for g in on))
            )
        servable = 0
        for load in range(0, 1661, 5):
            if not any(lo <= load <= hi for lo, hi in ranges):
                continue
            servable += 1
            inst = ten_unit(float(load))
            assert _seed(inst) is not None, load
        assert servable == 332

    def test_solves_past_the_enumeration_limit(self):
        # 25 copies of one unit at 100 MW: k units cost 40 k + 100 + 100 / k,
        # least at k = 2, and the lexicographically smallest pair is the last.
        gens = tuple(GeneratorParams(i, 40.0, 1.0, 0.01, 5.0, 60.0) for i in range(1, 26))
        sol = solve_uc_exact(UCInstance(gens, 100.0))
        assert sol.commitment.bits == (0,) * 23 + (1, 1)
        assert sol.dispatch[-2:] == (50.0, 50.0)


    def test_matches_the_search_without_its_cuts(self):
        # Bits, dispatch and cost equal by hex digits to the branch and bound
        # without root reuse, screened polish or incumbent path, and with the
        # whole-range dispatch.  Enumeration stops at 24 units; this reaches
        # 200.  Small fleets copy units, for ties and near ties.
        rng = np.random.default_rng(23)
        instances = [_sweep_instance(rng, int(rng.integers(1, 41))) for _ in range(150)]
        instances += [
            random_instance(rng, int(rng.integers(40, 201)), allow_zero_c=True)
            for _ in range(50)
        ]
        infeasible = 0
        for instance in instances:
            try:
                want = _hex(reference_solve_uc_exact(instance))
            except Infeasible:
                want = None
                infeasible += 1
            try:
                got = _hex(solve_uc_exact(instance))
            except Infeasible:
                got = None
            assert got == want, instance
        assert 0 < infeasible < 50

    @pytest.mark.parametrize("load", [800.0, 100.0])
    def test_polish_checks_the_bits_length_first(self, ten_unit, load):
        # Once None at 800 MW and LengthMismatch at 100 MW, by whether a
        # short candidate happened to be dispatched.
        with pytest.raises(LengthMismatch, match="bits has length 3, expected 10"):
            polish(ten_unit(load), (1, 1, 1))

    def test_costs_stay_finite_on_fleets_of_extreme_magnitudes(self):
        # Each accepted unit has a finite cost and marginal cost at full
        # output, so neither solve may answer with a NaN or infinite cost.
        rng = Random("extreme-fleets")
        scales = (0.0, 1e-300, 1e-3, 1.0, 1e3, 1e150, 1e300, 1e308)
        solved = 0
        while solved < 300:
            units, n = [], rng.randint(1, 4)
            while len(units) < n:
                a, b = (rng.choice(scales) * rng.uniform(-1.0, 1.0) for _ in "ab")
                c, p_min, width = (rng.choice(scales) * rng.random() for _ in "cpw")
                try:
                    units.append(
                        GeneratorParams(len(units) + 1, a, b, c, p_min, p_min + width)
                    )
                except InvariantViolation:
                    pass
            load = rng.uniform(0.0, 1.05) * sum(g.p_max for g in units)
            try:
                inst = UCInstance(units, load)
            except InvariantViolation:
                continue
            for solve in (enumerate_uc, solve_uc_exact):
                try:
                    cost = solve(inst).cost
                except Infeasible:
                    continue
                assert math.isfinite(cost), (solve.__name__, inst)
                solved += 1

    def test_polish_matches_the_unscreened_polish(self):
        # Every candidate dispatched, and in unit order.
        rng = np.random.default_rng(29)
        for _ in range(200):
            instance = _sweep_instance(rng, int(rng.integers(1, 30)))
            bits = tuple(int(rng.random() < rng.uniform()) for _ in range(instance.n))
            want = reference_cheapest(instance, (bits, *one_flips(bits)))
            assert _hex(polish(instance, bits)) == _hex(want), (instance, bits)

    def test_cuts_keep_the_work_down(self, monkeypatch):
        # Per solve on these fleets, without the cuts: 29.3 bounds and 22.2
        # dispatches, at 8.6 supply evaluations each.  With them: about 11.3
        # bounds, 3.8 dispatches and 3.7 evaluations.
        counts = dict.fromkeys(("bounds", "root bounds", "dispatches", "evaluations"), 0)
        dispatched = []
        inside = []
        bound, dispatch, outputs = ucmodel._dual_bound, ucmodel._dispatch, ucmodel._outputs

        def counting_bound(on, free, load):
            counts["bounds"] += 1
            counts["root bounds"] += not on and len(free) == len(instance.generators)
            return bound(on, free, load)

        def counting_dispatch(instance, bits):
            counts["dispatches"] += 1
            dispatched.append(tuple(bits))
            inside.append(bits)
            try:
                return dispatch(instance, bits)
            finally:
                inside.pop()

        def counting_outputs(units, mu):
            # The bound's phi terms call _outputs too, but not from inside
            # a dispatch.
            counts["evaluations"] += bool(inside)
            return outputs(units, mu)

        monkeypatch.setattr(ucmodel, "_dual_bound", counting_bound)
        monkeypatch.setattr(ucmodel, "_dispatch", counting_dispatch)
        monkeypatch.setattr(ucmodel, "_outputs", counting_outputs)
        rng = np.random.default_rng(7)
        solves = 100
        for _ in range(solves):
            n = int(rng.integers(11, 31))
            instance = random_instance(
                rng, n, allow_zero_c=True, load_frac=float(rng.uniform(0.2, 0.8))
            )
            counts["root bounds"] = 0
            dispatched.clear()
            solution = solve_uc_exact(instance)
            # The bound with every unit free is taken once, and the answer,
            # from the polish or from a leaf, is dispatched once.
            assert counts["root bounds"] == 1
            assert dispatched.count(solution.commitment.bits) == 1
        assert counts["bounds"] / solves <= 14
        assert counts["dispatches"] / solves <= 5
        # A dispatch that stopped calling the module's _outputs would count 0.
        assert 0 < counts["evaluations"] / counts["dispatches"] <= 4.5


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

    @pytest.mark.parametrize(
        "body, message",
        [
            ("1,1,20.0\n# cost=abc\n", "line 3: could not convert"),
            ("1,1,20.0\n# cost=nan\n", "line 3: nan is not finite"),
            ("1,1,inf\n# cost=100.0\n", "line 2: inf is not finite"),
            ("1,1,20.0\n# cost=100.0\n# cost=50.0\n", "line 4: second '# cost=' line"),
            ("# cost=0.0\n", "line 1: no unit rows"),
            ("1,2,20.0\n# cost=100.0\n", "line 2: committed must be 0 or 1, got 2"),
            ("1,1,20.0\n# cost=100.0\n2,0,0.0\n", "line 4: unit row after the '# cost=' line"),
            ("1,0,50.0\n# cost=0.0\n", "line 2: off unit has output 50.0"),
            ("1,1,20.0\n# note\n# cost=100.0\n", "line 3: expected '# cost=<value>'"),
            ("1,1\n# cost=100.0\n", "line 2: expected 3 columns, got 2"),
            ("x,1,20.0\n# cost=100.0\n", "line 2: invalid literal for int"),
            ("2,1,20.0\n# cost=100.0\n", "line 2: units out of order"),
            ("1,1,20.0\n", "missing trailing '# cost=<value>' line"),
        ],
        ids=[
            "unparsable-cost", "nan-cost", "inf-dispatch", "second-cost", "no-units",
            "committed-not-binary", "row-after-cost", "off-unit-output",
            "note-line", "two-columns", "non-integer-unit", "units-out-of-order",
            "no-cost-line",
        ],
    )
    def test_rejects_bad_values(self, body, message):
        with pytest.raises(MalformedRow, match=message):
            solution_from_csv("unit,committed,p_mw\n" + body)
