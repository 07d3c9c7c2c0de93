"""Count block 1's supply evaluations per solve, with a digest of every run.

For each set of ADMM runs below, prints the number of supply evaluations
(``hquc.qpblock._profile`` calls) per block-1 solve (``hquc.admm.solve_block1``
calls), the solve count, and a sha256 over every run's trace rows, terminal
bits and final solution, each float as its hex digits.  Two trees that print
the same digests gave the same floats:

    PYTHONPATH=src python tools/block1_evals.py            # every set
    PYTHONPATH=src python tools/block1_evals.py suite scan # some sets

The sets: ``suite``, the ten-unit system at 200-1500 MW by 100 under the
preset penalties, and ``suite_rho1`` at ``(rho, beta) = (1, 0.5)``; ``pool``,
the 64 loads of the benchmark's ``s1_ten_unit`` pool at seed 1; ``scan``,
10-1660 MW by 10, and ``scan_rho1`` at ``(1, 0.5)``; ``fleets``, 30 seeded
random 30-unit fleets at ``(4000, 1000)``, and ``fleets_rho1`` and
``fleets_rho1e6`` at ``(1, 0.5)`` and ``(1e6 + 1, 1e6)``.
"""

from __future__ import annotations

import hashlib
import random
import sys
from contextlib import contextmanager
from pathlib import Path

from hquc import (
    AdmmConfig, GeneratorParams, UCInstance, default_config, parse_generators, run_admm,
)
from hquc import admm, qpblock

TEN_UNIT_CSV = Path(__file__).resolve().parent.parent / "tests" / "data" / "ten_unit.csv"


def ten_unit() -> tuple[GeneratorParams, ...]:
    with open(TEN_UNIT_CSV) as fh:
        return parse_generators(fh)


def random_fleet(rng: random.Random, n: int) -> tuple[GeneratorParams, ...]:
    """``n`` units drawn from the unit tests' ranges; about one in five has c = 0."""
    units = []
    for i in range(n):
        p_min = rng.uniform(0.0, 50.0)
        p_max = p_min + rng.uniform(1.0, 200.0)
        c = 0.0 if rng.random() < 0.2 else rng.uniform(1e-4, 0.01)
        a, b = rng.uniform(0.0, 1000.0), rng.uniform(5.0, 40.0)
        units.append(GeneratorParams(i + 1, a, b, c, p_min, p_max))
    return tuple(units)


def pool_loads(seed: int, size: int = 64) -> list[float]:
    """The loads of the benchmark's ``s1_ten_unit`` pool: one draw in the
    middle half of each of ``size`` strata of [50, 1600] MW, shuffled."""
    rng = random.Random(f"s1_ten_unit:{seed}")
    width = (1600.0 - 50.0) / size
    loads = [50.0 + (k + 0.25 + 0.5 * rng.random()) * width for k in range(size)]
    rng.shuffle(loads)
    return loads


def _preset(instance: UCInstance) -> AdmmConfig:
    return default_config(instance.load)


def _fixed(rho: float, beta: float):
    return lambda instance: AdmmConfig(rho=rho, beta=beta)


def _fleets(penalties):
    rng = random.Random("block1_evals:fleets")
    runs = []
    for _ in range(30):
        gens = random_fleet(rng, 30)
        load = rng.uniform(0.1, 0.9) * sum(g.p_max for g in gens)
        runs.append((UCInstance(gens, load), penalties))
    return runs


def sets() -> dict:
    """Each set's name, and a function that builds its runs as
    ``(instance, function giving the instance's config)`` pairs."""
    gens = ten_unit()

    def on_ten_unit(loads, penalties=_preset):
        return [(UCInstance(gens, float(load)), penalties) for load in loads]

    suite = range(200, 1501, 100)
    return {
        "suite": lambda: on_ten_unit(suite),
        "suite_rho1": lambda: on_ten_unit(suite, _fixed(1.0, 0.5)),
        "pool": lambda: on_ten_unit(pool_loads(1)),
        "scan": lambda: on_ten_unit(range(10, 1661, 10)),
        "scan_rho1": lambda: on_ten_unit(range(10, 1661, 10), _fixed(1.0, 0.5)),
        "fleets": lambda: _fleets(_fixed(4000.0, 1000.0)),
        "fleets_rho1": lambda: _fleets(_fixed(1.0, 0.5)),
        "fleets_rho1e6": lambda: _fleets(_fixed(1_000_001.0, 1_000_000.0)),
    }


@contextmanager
def counting():
    """Count block-1 solves and supply evaluations while inside."""
    counts = {"solves": 0, "evaluations": 0}
    solve, profile = admm.solve_block1, qpblock._profile

    def counted_solve(*args):
        counts["solves"] += 1
        return solve(*args)

    def counted_profile(*args):
        counts["evaluations"] += 1
        return profile(*args)

    admm.solve_block1, qpblock._profile = counted_solve, counted_profile
    try:
        yield counts
    finally:
        admm.solve_block1, qpblock._profile = solve, profile


def _floats(report) -> list[str]:
    out = [str(report.iterations), str(report.converged), report.terminal_commitment.bitstring]
    for row in report.trace:
        out += [str(row.iter)] + [
            v.hex() for v in (
                row.residual, row.objective, row.block1_objective, row.block1_kkt,
                row.block2_energy, row.block2_gap,
            )
        ]
    final = report.final
    if final is None:
        out.append("None")
    else:
        out += [final.commitment.bitstring, final.cost.hex()]
        out += [v.hex() for v in final.dispatch]
    return out


def measure(runs) -> tuple[float, int, str]:
    """Evaluations per block-1 solve, the solve count and the digest of ``runs``."""
    digest = hashlib.sha256()
    with counting() as counts:
        for instance, penalties in runs:
            report = run_admm(instance, penalties(instance))
            digest.update(";".join(_floats(report)).encode() + b"\n")
    return counts["evaluations"] / counts["solves"], counts["solves"], digest.hexdigest()


def main(argv: list[str]) -> int:
    table = sets()
    names = argv or list(table)
    unknown = [name for name in names if name not in table]
    if unknown:
        print(f"unknown sets {unknown}; choose from {list(table)}", file=sys.stderr)
        return 2
    for name in names:
        per_solve, solves, digest = measure(table[name]())
        print(f"{name:14s} {per_solve:6.2f} evaluations/solve  {solves:6d} solves  {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
