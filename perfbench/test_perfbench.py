"""Tests of the benchmark itself: metric names, exact repeats, live checks.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import harness  # noqa: E402
from workloads import make_pool  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# Small pools keep the smoke runs short; s2 with one instance is k = 4.
SMALL = {"s1_ten_unit": 3, "s2_subfleet": 1, "baseline_enum": 1}


def _units(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[section]}


def _run(workload: str, trace: bool, seed: int = 3):
    return harness.run(workload, seed, 0.0, trace, ROOT, pool_size=SMALL[workload])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_reports_every_named_metric(workload, trace):
    info, result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    expected = _units("per_layer" if trace else "end_to_end")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected
    assert any(line.startswith("# checksum ") for line in info)


def test_command_line_prints_result_last():
    proc = subprocess.run(
        SPEC["command"] + ["--workload", "s1_ten_unit", "--seed", "5",
                           "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["attempted"] >= 1
    assert set(result["metrics"]) == set(_units("end_to_end"))


def test_command_line_fails_without_sources(tmp_path):
    # Only BENCHMARK.json and the benchmark's own files: no package to build.
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "s1_ten_unit",
         "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


@pytest.mark.parametrize(
    "workload, counts",
    [
        ("s2_subfleet", ("admm.iters", "qaoa.run_circuit.calls")),
        ("baseline_enum", ("ucmodel.evaluate_cost.calls",)),
        ("s1_ten_unit", ("admm.iters", "qpblock.solve_block1.calls")),
    ],
)
def test_counts_and_checksum_repeat_for_a_seed(workload, counts):
    first_info, first = _run(workload, True)
    second_info, second = _run(workload, True)
    for name in counts:
        assert first["metrics"][name]["value"] > 0
        assert first["metrics"][name] == second["metrics"][name]
    checksum = [line for line in first_info if line.startswith("# checksum ")]
    assert checksum == [line for line in second_info if line.startswith("# checksum ")]


def test_inputs_repeat_for_a_seed_and_change_with_it():
    for workload in WORKLOADS:
        assert make_pool(workload, 7) == make_pool(workload, 7)
        assert make_pool(workload, 7) != make_pool(workload, 8)


def _solve(tmp_path, workload="baseline_enum"):
    pool = make_pool(workload, 3, size=1)
    inputs = tmp_path / "inputs"
    pool.write(inputs)
    solve = harness.solve_once(pool, inputs, 0, tmp_path / "out")
    return pool, harness.Oracle(pool, inputs), solve


def test_corrupted_solution_is_counted_as_failed(tmp_path):
    pool, oracle, solve = _solve(tmp_path)
    assert solve.code == 0
    reasons, _ = harness.check_all([solve], pool, oracle)
    assert reasons == [""]

    path = solve.out_dir / "solution.csv"
    good = path.read_text()
    path.write_text(good.replace("# cost=", "# cost=1"))
    reasons, _ = harness.check_all([solve], pool, oracle)
    assert "dispatch cost" in reasons[0]

    # Commit unit 1 alone and give it the whole load, beyond its p_max.
    instance = pool.instances[0]
    assert instance.load > pool.fleets[instance.fleet][0][4]
    lines = good.splitlines()
    rows = [lines[0], f"1,1,{instance.load!r}"]
    rows += [f"{i},0,0.0" for i in range(2, len(lines) - 1)] + [lines[-1]]
    path.write_text("\n".join(rows) + "\n")
    reasons, _ = harness.check_all([solve], pool, oracle)
    assert "p_max" in reasons[0]


def test_stale_solution_after_exit_2_is_counted_as_failed(tmp_path):
    pool, oracle, solve = _solve(tmp_path)
    stale = harness.Solve(solve.instance, solve.out_dir, solve.seconds, 2)
    reasons, _ = harness.check_all([stale], pool, oracle)
    assert "exit 2" in reasons[0]


def test_differing_repeat_is_counted_as_failed(tmp_path):
    pool, oracle, solve = _solve(tmp_path, "s1_ten_unit")
    assert solve.code in (0, 2)
    # The same instance again, reporting another exit code and no solution.
    empty = tmp_path / "empty"
    empty.mkdir()
    repeat = harness.Solve(solve.instance, empty, solve.seconds, 3 if solve.code else 2)
    reasons, _ = harness.check_all([solve, repeat], pool, oracle)
    assert reasons[0] == "" and "differs" in reasons[1]


def test_tail_percentile_is_fixed_by_the_pool():
    times = [float(i) for i in range(40)]
    percentile, value = harness.tail(times)
    assert percentile == 75.0
    assert 28.0 < value < 31.0
    assert harness.tail(times[:15]) == (50.0, pytest.approx(7.0))
    # Repeat passes give more samples but not a higher percentile.
    solves = [
        harness.Solve(k, Path("."), t, 0) for _ in range(3) for k, t in enumerate(times)
    ]
    assert harness.tail(harness.instance_medians(solves)) == (percentile, value)


def test_harrell_davis_matches_known_quantiles():
    assert harness.harrell_davis([2.0] * 25, 0.6) == pytest.approx(2.0)
    # Symmetric values: the median estimate is the centre.
    assert harness.harrell_davis([float(i) for i in range(31)], 0.5) == pytest.approx(15.0)
