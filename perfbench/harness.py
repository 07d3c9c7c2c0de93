"""The benchmark run: set-up probe, timed loop, correctness checks, metrics.

One client drives ``hquc.cli.main`` in-process, one solve at a time (a
closed loop), in a single process with no extra threads.  Every solve writes
into a fresh output directory and its stdout and stderr go to a buffer.  The
outputs are checked after the timed loop, so checking costs no solve time.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy
from scipy.special import betainc

from hquc import cli
from hquc.errors import Infeasible, InfeasibleCommitment
from hquc.qubo import solve_qubo_perbit
from hquc.ucmodel import (
    Commitment,
    UCInstance,
    UCSolution,
    check_feasible,
    economic_dispatch,
    enumerate_uc,
    evaluate_cost,
    parse_generators,
    solution_from_csv,
)

from spans import Tracer
from workloads import Pool, make_pool

#: Fresh processes timed for ``setup_s``; the median is reported.
SETUP_REPEATS = 5
#: Relative tolerance of "optimal" (same as the ``optimal_ratio`` definition).
OPTIMAL_RTOL = 1e-6
#: Relative tolerance of exact cost identities (cost equals its own dispatch).
EXACT_RTOL = 1e-9
#: Largest KKT residual a block-1 solve may certify.
KKT_LIMIT = 1e-9
#: Time of ``_speed_kernel`` on the reference machine.  Every reported time is
#: a wall time scaled to that speed (see ``Pace``).
REFERENCE_KERNEL_S = 1.0e-2
#: Rounds of fixed work in one kernel call.  A 2 ms kernel jittered more than
#: the solves it scaled; five rounds (about 10 ms) follow the speed better.
SPEED_KERNEL_ROUNDS = 5

_SETUP_PROBE = (
    "import sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import hquc\n"
    "from hquc.ucmodel import parse_generators\n"
    "for path in sys.argv[2:]:\n"
    "    with open(path) as handle:\n"
    "        parse_generators(handle)\n"
)


def _speed_round() -> float:
    # Fixed work independent of hquc, in the solver's mix: interpreter-bound
    # float, dict and sort work plus small complex numpy arrays.
    values = [float(i % 977) * 1.5 for i in range(6000)]
    table = dict(enumerate(values))
    total = math.fsum(table[i] * 0.5 for i in range(0, 6000, 2))
    values.sort(reverse=True)
    amps = np.arange(256, dtype=complex)
    for _ in range(20):
        pairs = amps.reshape(-1, 2, 16)
        amps = np.stack(
            (0.6 * pairs[:, 0] + 0.8j * pairs[:, 1], 0.8j * pairs[:, 0] + 0.6 * pairs[:, 1]),
            axis=1,
        ).reshape(-1)
    return total


def _speed_kernel() -> float:
    return math.fsum(_speed_round() for _ in range(SPEED_KERNEL_ROUNDS))


class Pace:
    """Scales wall times to the reference machine speed.

    The speed kernel is timed before the first timed call and after each one.
    A call's scale is ``REFERENCE_KERNEL_S`` over the mean of the two kernel
    times around it, so it follows the machine's speed from call to call.
    """

    def __init__(self) -> None:
        self.kernel_s: list[float] = []
        _speed_kernel()  # the first call runs cold and is not kept
        self._sample()

    def _sample(self) -> float:
        t0 = perf_counter()
        _speed_kernel()
        self.kernel_s.append(perf_counter() - t0)
        return self.kernel_s[-1]

    def scale(self) -> float:
        """Scale of the call timed since the previous sample."""
        before = self.kernel_s[-1]
        return 2.0 * REFERENCE_KERNEL_S / (before + self._sample())


@dataclass
class Solve:
    """One ``cli.main`` call and where its artifacts went."""

    instance: int
    out_dir: Path
    seconds: float
    code: int | None
    error: str = ""
    scale: float = 1.0

    @property
    def scaled(self) -> float:
        """Wall time at the reference speed."""
        return self.seconds * self.scale


@dataclass(frozen=True)
class Outcome:
    """What a solve reported: exit code and, when present, its solution."""

    code: int | None
    bits: tuple[int, ...] | None = None
    cost: float | None = None


def solve_once(pool: Pool, inputs: Path, k: int, out_dir: Path) -> Solve:
    """Run the CLI on pool instance ``k``; timing covers ``cli.main`` only."""
    argv = pool.instances[k].argv(inputs, out_dir)
    sink = io.StringIO()
    with redirect_stdout(sink), redirect_stderr(sink):
        t0 = perf_counter()
        try:
            code = cli.main(argv)
        except (Exception, SystemExit) as exc:
            return Solve(k, out_dir, perf_counter() - t0, None, repr(exc))
        seconds = perf_counter() - t0
    return Solve(k, out_dir, seconds, code)


def solve_passes(pool: Pool, inputs: Path, runs: Path, seconds: float) -> list[Solve]:
    """Whole passes through the pool until ``seconds`` have passed.

    At least one pass is made.  Whole passes keep the mix of instances fixed
    for a seed, so the statistics do not depend on where a pass was cut.
    """
    solves: list[Solve] = []
    count = len(pool.instances)
    pace = Pace()
    deadline = perf_counter() + seconds
    while not solves or len(solves) % count or perf_counter() < deadline:
        i = len(solves)
        solves.append(solve_once(pool, inputs, i % count, runs / str(i)))
        solves[-1].scale = pace.scale()
    return solves


def setup_seconds(inputs: list[Path], src: Path) -> tuple[float, float]:
    """Median time of a fresh interpreter importing hquc and parsing the CSVs.

    Returns the median at the reference speed and the median wall time.
    """
    argv = [sys.executable, "-c", _SETUP_PROBE, str(src)] + [str(p) for p in inputs]
    scaled, wall = [], []
    pace = Pace()
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        subprocess.run(argv, check=True, timeout=60)
        wall.append(perf_counter() - t0)
        scaled.append(wall[-1] * pace.scale())
    return statistics.median(scaled), statistics.median(wall)


def instance_medians(solves: list[Solve]) -> list[float]:
    """Median scaled time of each pool instance over the timed passes."""
    by_instance: dict[int, list[float]] = {}
    for s in solves:
        by_instance.setdefault(s.instance, []).append(s.scaled)
    return [statistics.median(by_instance[k]) for k in sorted(by_instance)]


def harrell_davis(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the ``p`` quantile of ``values``.

    A mean of all order statistics weighted by a Beta(p (n + 1), (1 - p) (n + 1))
    distribution.  Where the values are sparse, as at the upper percentiles of
    the baseline pool whose solve times span two orders of magnitude, it is
    far steadier than the one or two order statistics nearest to ``p``.
    """
    ordered = np.sort(values)
    n = len(ordered)
    cdf = betainc(p * (n + 1), (1.0 - p) * (n + 1), np.arange(n + 1) / n)
    return float(np.diff(cdf) @ ordered)


def tail(times: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten of ``times`` above it, and its value.

    ``times`` holds one value per pool instance, so the percentile,
    ``100 (P - 10) / P`` for ``P >= 20`` instances, is fixed by the pool and
    does not move with the number of passes a run makes.  The value is the
    Harrell-Davis estimate.  With fewer than 20 instances no percentile at or
    above the median qualifies, and the median is returned.
    """
    n = len(times)
    if n < 20:
        return 50.0, harrell_davis(times, 0.5)
    p = (n - 10) / n
    return 100.0 * p, harrell_davis(times, p)


class Oracle:
    """Ground truth per pool instance, computed once and outside all timings."""

    def __init__(self, pool: Pool, inputs: Path) -> None:
        fleets = {}
        for name in pool.fleets:
            with open(inputs / name) as handle:
                fleets[name] = parse_generators(handle)
        self.instances = [UCInstance(fleets[i.fleet], i.load) for i in pool.instances]
        self.optima: list[UCSolution | None] = []
        for instance in self.instances:
            try:
                self.optima.append(enumerate_uc(instance))
            except Infeasible:
                self.optima.append(None)


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(b))


def _one_flip_failure(instance: UCInstance, solution: UCSolution) -> str:
    """A single-bit neighbour that dispatches more cheaply, if any."""
    for i in range(instance.n):
        bits = list(solution.commitment.bits)
        bits[i] ^= 1
        neighbour = Commitment(tuple(bits))
        try:
            dispatch = economic_dispatch(instance, neighbour)
        except InfeasibleCommitment:
            continue
        cost = evaluate_cost(instance, neighbour, dispatch)
        if cost < solution.cost - EXACT_RTOL * max(1.0, abs(solution.cost)):
            return f"flipping unit {i + 1} gives cost {cost!r} < {solution.cost!r}"
    return ""


def check_solve(solve: Solve, mode: str, oracle: Oracle) -> tuple[Outcome, str]:
    """Outcome of one solve and the first check it fails ('' when none)."""
    if solve.code is None:
        return Outcome(None), f"raised {solve.error}"
    if solve.code not in (cli.EXIT_OK, cli.EXIT_INFEASIBLE, cli.EXIT_NOT_CONVERGED):
        return Outcome(solve.code), f"exit code {solve.code}"
    instance = oracle.instances[solve.instance]
    optimum = oracle.optima[solve.instance]
    path = solve.out_dir / "solution.csv"
    if not path.exists():
        if solve.code == cli.EXIT_OK:
            return Outcome(solve.code), "exit 0 without solution.csv"
        if mode == "baseline" and optimum is not None:
            return Outcome(solve.code), "baseline found no solution but one exists"
        return Outcome(solve.code), ""
    if solve.code == cli.EXIT_INFEASIBLE:
        return Outcome(solve.code), "exit 2 but solution.csv was written"
    try:
        solution = solution_from_csv(path.read_text())
        outcome = Outcome(solve.code, solution.commitment.bits, solution.cost)
        report = check_feasible(instance, solution.commitment, solution.dispatch)
        cost = evaluate_cost(instance, solution.commitment, solution.dispatch)
    except Exception as exc:  # any defect of the file is a failed check
        return Outcome(solve.code), f"unreadable solution.csv: {exc!r}"
    if not report.feasible:
        return outcome, f"infeasible dispatch: {report.violations}"
    if not _close(solution.cost, cost, EXACT_RTOL):
        return outcome, f"reported cost {solution.cost!r} != dispatch cost {cost!r}"
    if optimum is None:
        return outcome, "solution for an instance enumeration proves infeasible"
    if solution.cost < optimum.cost - EXACT_RTOL * max(1.0, abs(optimum.cost)):
        return outcome, f"cost {solution.cost!r} below the optimum {optimum.cost!r}"
    if mode == "baseline":
        if not _close(solution.cost, optimum.cost, OPTIMAL_RTOL):
            return outcome, f"baseline cost {solution.cost!r} != optimum {optimum.cost!r}"
        return outcome, _one_flip_failure(instance, solution)
    return outcome, ""


def check_all(solves: list[Solve], pool: Pool, oracle: Oracle):
    """Check every solve; repeats of an instance must report the same outcome.

    Returns the failure reason per solve and the first outcome per instance.
    """
    first: dict[int, Outcome] = {}
    reasons = []
    for solve in solves:
        outcome, reason = check_solve(solve, pool.instances[solve.instance].mode, oracle)
        seen = first.setdefault(solve.instance, outcome)
        if not reason and seen != outcome:
            reason = f"outcome {outcome} differs from an earlier solve {seen}"
        reasons.append(reason)
    return reasons, [first[k] for k in range(len(pool.instances))]


def checksum(outcomes: list[Outcome]) -> str:
    """Digest over (instance, exit code, commitment bits, cost to 1e-6)."""
    digest = hashlib.sha256()
    for k, o in enumerate(outcomes):
        bits = "".join(map(str, o.bits)) if o.bits is not None else "-"
        cost = f"{o.cost:.6f}" if o.cost is not None else "-"
        digest.update(f"{k},{o.code},{bits},{cost}\n".encode())
    return digest.hexdigest()[:16]


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "machine": platform.machine(),
        "platform": platform.platform(),
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def _bytes_written(out_dir: Path) -> int:
    return sum(p.stat().st_size for p in out_dir.iterdir()) if out_dir.is_dir() else 0


def traced_pass(pool: Pool, inputs: Path, runs: Path):
    """Solve every pool instance once with tracing on."""
    solves, written = [], 0
    with Tracer() as tracer:
        pace = Pace()
        for k in range(len(pool.instances)):
            tracer.solve_id = k
            solves.append(solve_once(pool, inputs, k, runs / f"traced{k}"))
            solves[-1].scale = pace.scale()
            written += _bytes_written(solves[-1].out_dir)
    return tracer, solves, written


def layer_metrics(
    tracer: Tracer, solves: list[Solve], untraced: list[Solve], written: int
) -> dict:
    """Per-layer metrics, as means per traced solve where they are totals.

    Span times are scaled to the reference speed with the median scale of the
    traced solves.
    """
    n = len(solves)
    totals = tracer.totals()
    scale = statistics.median(s.scale for s in solves)

    def total(span: str, field: int) -> float:
        value = totals.get(span, (0, 0.0, 0.0))[field] / n
        return value if field == 0 else value * scale

    metrics: dict[str, tuple[float, str]] = {}
    for span in (
        "cli.main", "admm.run_admm", "qpblock.solve_block1",
        "ucmodel.enumerate_uc",
    ):
        metrics[f"{span}.s"] = (total(span, 1), "s")
        metrics[f"{span}.self_s"] = (total(span, 2), "s")
    for span in (
        "ucmodel.parse_generators", "admm.update_r", "admm.update_dual",
        "admm.residual", "qpblock.nnls", "qpblock.block1_objective",
        "qubo.build_qubo", "qubo.solve_qubo_perbit", "qaoa.solve_qubo_qaoa",
        "qaoa.run_circuit", "qaoa.apply_mixer_layer", "qaoa.apply_cost_layer",
        "qaoa.expectation", "ucmodel.economic_dispatch",
    ):
        metrics[f"{span}.s"] = (total(span, 1), "s")
    for span in (
        "qpblock.solve_block1", "qpblock.nnls", "qaoa.solve_qubo_qaoa",
        "qaoa.run_circuit", "ucmodel.enumerate_uc", "ucmodel.evaluate_cost",
        "ucmodel.economic_dispatch",
    ):
        metrics[f"{span}.calls"] = (total(span, 0), "count")
    metrics["qaoa.optimize_params.self_s"] = (total("qaoa.optimize_params", 2), "s")
    metrics["cli.bytes_written"] = (written / n, "B")

    admm_calls = totals.get("admm.run_admm", (0,))[0]
    metrics["admm.iters"] = (tracer.admm_iters / admm_calls if admm_calls else 0.0, "count")
    metrics["admm.converged_ratio"] = (
        tracer.admm_converged / admm_calls if admm_calls else 0.0, "ratio"
    )
    metrics["qpblock.kkt_max"] = (max(tracer.kkt.values(), default=0.0), "abs")

    qaoa_calls = len(tracer.block2)
    expectations = totals.get("qaoa.expectation", (0,))[0]
    metrics["qaoa.evals_per_solve"] = (expectations / qaoa_calls if qaoa_calls else 0.0, "count")
    metrics["qaoa.amplitude_updates"] = (tracer.amplitude_updates / n, "count")
    hits = sum(
        1 for qubo, bits in tracer.block2 if solve_qubo_perbit(qubo)[0] == tuple(bits)
    )
    metrics["qaoa.argmax_hit_ratio"] = (hits / qaoa_calls if qaoa_calls else 0.0, "ratio")

    dispatched = totals.get("ucmodel.evaluate_cost", (0,))[0]
    metrics["ucmodel.dispatched_ratio"] = (
        dispatched / tracer.enumerated if tracer.enumerated else 0.0, "ratio"
    )

    # Traced over untraced solves per second, on the same instances.
    by_instance: dict[int, list[float]] = {}
    for s in untraced:
        by_instance.setdefault(s.instance, []).append(s.scaled)
    plain = sum(statistics.mean(by_instance[s.instance]) for s in solves)
    metrics["trace.overhead_ratio"] = (plain / sum(s.scaled for s in solves), "ratio")
    return metrics


def _warmup_instance(pool: Pool) -> int:
    """The pool instance on the smallest fleet: the cheapest warm-up solve."""
    return min(
        range(len(pool.instances)),
        key=lambda k: len(pool.fleets[pool.instances[k].fleet]),
    )


def run(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    root: Path,
    pool_size: int | None = None,
) -> tuple[list[str], dict]:
    """One benchmark run; returns info lines and the result object."""
    pool = make_pool(workload, seed, pool_size)
    work_root = root / ".perfbench_work"
    work = work_root / f"{workload}-seed{seed}-pid{os.getpid()}"
    inputs, runs = work / "inputs", work / "runs"
    shutil.rmtree(work, ignore_errors=True)
    try:
        csvs = pool.write(inputs)
        setup, setup_wall = setup_seconds(csvs, root / "src")
        # Lazy imports and first-call costs are paid before timing starts.
        solve_once(pool, inputs, _warmup_instance(pool), runs / "warmup")
        solves = solve_passes(pool, inputs, runs / "timed", seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        checked = list(solves)
        if trace:
            tracer, traced, written = traced_pass(pool, inputs, runs / "traced")
            checked += traced
        oracle = Oracle(pool, inputs)
        reasons, outcomes = check_all(checked, pool, oracle)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if trace:
        for k in range(len(traced)):
            worst = tracer.kkt.get(k, 0.0)
            if worst > KKT_LIMIT and not reasons[len(solves) + k]:
                reasons[len(solves) + k] = f"block-1 KKT residual {worst!r} > {KKT_LIMIT}"
    failed = sum(1 for r in reasons if r)
    count = len(pool.instances)
    served = sum(1 for o in outcomes if o.code == cli.EXIT_OK) / count
    optimal = sum(
        1 for o, opt in zip(outcomes, oracle.optima)
        if o.code == cli.EXIT_OK and opt is not None and _close(o.cost, opt.cost, OPTIMAL_RTOL)
    ) / count
    wall = [s.seconds for s in solves]
    times = [s.scaled for s in solves]
    medians = instance_medians(solves)
    percentile, tail_s = tail(medians)
    info = [
        f"# env {json.dumps(environment(), sort_keys=True)}",
        f"# checksum {checksum(outcomes)} over {count} instances",
        f"# {len(solves)} timed solves ({len(solves) // count} passes); solve_s.tail "
        f"is p{percentile:.1f} of {count} per-instance medians",
        f"# wall clock: solve_s.p50 {statistics.median(wall)!r} solves_per_s "
        f"{len(wall) / sum(wall)!r} setup_s {setup_wall!r}; median speed scale "
        f"{statistics.median(s.scale for s in solves)!r}",
        f"# fail_ratio {failed / len(checked)!r} over {len(checked)} solves; "
        f"unserved_ratio {1.0 - served!r} over {count} instances",
    ]
    info += [
        f"# failed solve {i} (instance {checked[i].instance}): {reason}"
        for i, reason in enumerate(reasons) if reason
    ]

    if trace:
        metrics = layer_metrics(tracer, traced, solves, written)
        spans_path = work_root / "spans" / f"{workload}-seed{seed}.csv.gz"
        tracer.write(spans_path)
        info.append(f"# {len(tracer.start)} spans written to {spans_path}")
        main_s = metrics["cli.main.s"][0]
        info.append("# share of cli.main time: " + ", ".join(
            f"{span} {metrics[span + '.s'][0] / main_s:.3f}"
            for span in ("qpblock.solve_block1", "qaoa.solve_qubo_qaoa", "ucmodel.enumerate_uc")
        ))
    else:
        metrics = {
            "setup_s": (setup, "s"),
            "solve_s.p50": (harrell_davis(medians, 0.5), "s"),
            "solve_s.tail": (tail_s, "s"),
            "solves_per_s": (len(times) / sum(times), "1/s"),
            "pass_ratio": ((len(checked) - failed) / len(checked), "ratio"),
            "served_ratio": (served, "ratio"),
            "optimal_ratio": (optimal, "ratio"),
            "peak_rss_mb": (peak_rss_mb, "MiB"),
        }
    result = {
        "correct": failed == 0,
        "attempted": len(checked),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return info, result
