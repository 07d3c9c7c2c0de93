"""Seeded input generation for the benchmark workloads.

Each workload is a pool of instances (one generator CSV plus a load per
instance).  The pool is drawn from ``random.Random`` seeded with the workload
name and seed, so the same seed gives byte-identical inputs.

Loads and load fractions are stratified: the range is cut into one stratum per
instance, the fleet sizes cycle through the strata, and the seed places each
instance in the middle half of its stratum.  Solve time and outcome depend
strongly on the load (on the ten-unit system the ADMM takes about 25 or 45
iterations depending on the load band, and enumeration time falls twentyfold
from 20% to 80% of capacity), and a run solves few instances (14 for s2).
Over five seeds, two strata per s2 sub-fleet gave unserved ratios from 0.29
to 0.43; one stratum per instance gave 0.357 on nine seeds of ten, and
total ADMM iterations from 536 to 558 over five.  Every seed still gives new
inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

CSV_HEADER = "id,a,b,c,p_min,p_max"

#: The bundled ten-unit system (the paper's S1 fleet), rows (a, b, c, p_min, p_max).
TEN_UNIT = (
    (660.0, 25.92, 0.00413, 10.0, 55.0),
    (670.0, 27.79, 0.00173, 10.0, 55.0),
    (700.0, 16.6, 0.002, 20.0, 130.0),
    (680.0, 16.5, 0.00211, 20.0, 130.0),
    (450.0, 19.7, 0.00398, 25.0, 162.0),
    (970.0, 17.26, 0.00031, 150.0, 455.0),
    (480.0, 27.74, 0.0079, 25.0, 85.0),
    (665.0, 27.27, 0.00222, 10.0, 55.0),
    (1000.0, 16.19, 0.00048, 150.0, 455.0),
    (370.0, 22.26, 0.00712, 20.0, 80.0),
)


@dataclass(frozen=True)
class Instance:
    """One solve: CLI mode, generator CSV (file name under the input dir), load."""

    mode: str
    fleet: str
    load: float

    def argv(self, input_dir: Path, out_dir: Path) -> list[str]:
        return [
            "--mode", self.mode,
            "--generators", str(input_dir / self.fleet),
            "--load", repr(self.load),
            "--out", str(out_dir),
        ]


@dataclass(frozen=True)
class Pool:
    """Generated inputs of one run: fleets by file name and the instances."""

    fleets: dict[str, tuple[tuple[float, ...], ...]]
    instances: tuple[Instance, ...]

    def write(self, input_dir: Path) -> list[Path]:
        """Write every fleet as a generator CSV; returns the paths."""
        input_dir.mkdir(parents=True, exist_ok=True)
        paths = []
        for name, rows in self.fleets.items():
            lines = [CSV_HEADER]
            lines += [
                ",".join([str(i)] + [repr(v) for v in row])
                for i, row in enumerate(rows, start=1)
            ]
            path = input_dir / name
            path.write_text("\n".join(lines) + "\n")
            paths.append(path)
        return paths


def _strata(rng: random.Random, count: int, lo: float, hi: float) -> list[float]:
    """One uniform draw in the middle half of each of ``count`` strata of [lo, hi]."""
    width = (hi - lo) / count
    return [lo + (k + 0.25 + 0.5 * rng.random()) * width for k in range(count)]


def s1_ten_unit(rng: random.Random, size: int = 64) -> Pool:
    """S1 on the ten-unit system; loads cover all three penalty preset bands."""
    loads = _strata(rng, size, 50.0, 1600.0)
    rng.shuffle(loads)
    return Pool(
        {"ten_unit.csv": TEN_UNIT},
        tuple(Instance("s1", "ten_unit.csv", load) for load in loads),
    )


def _sized(
    rng: random.Random, sizes: range, count: int, lo: float, hi: float
) -> list[tuple[int, float]]:
    """``count`` (size, fraction) pairs in seeded order.

    The fractions are stratified over [lo, hi] and the sizes cycle through
    the strata, so each size meets loads from every part of the range.
    """
    fractions = _strata(rng, count, lo, hi)
    pairs = [(sizes[i % len(sizes)], f) for i, f in enumerate(fractions)]
    rng.shuffle(pairs)
    return pairs


def s2_subfleet(rng: random.Random, size: int = 14) -> Pool:
    """S2 on the first k units of the ten-unit system, k cycling through 4..10."""
    fleets = {}
    instances = []
    for k, fraction in _sized(rng, range(4, 11), size, 0.1, 0.9):
        name = f"first{k}.csv"
        fleets[name] = TEN_UNIT[:k]
        cap = sum(row[4] for row in fleets[name])
        instances.append(Instance("s2", name, fraction * cap))
    return Pool(fleets, tuple(instances))


def _random_fleet(rng: random.Random, n: int) -> tuple[tuple[float, ...], ...]:
    # Same parameter ranges as the random fleets of the unit tests; about one
    # unit in five has c == 0 and so takes the flat-step settle branch.
    rows = []
    for _ in range(n):
        p_min = rng.uniform(0.0, 50.0)
        p_max = p_min + rng.uniform(1.0, 200.0)
        c = 0.0 if rng.random() < 0.2 else rng.uniform(1e-4, 0.01)
        rows.append((rng.uniform(0.0, 1000.0), rng.uniform(5.0, 40.0), c, p_min, p_max))
    return tuple(rows)


def baseline_enum(rng: random.Random, size: int = 30) -> Pool:
    """Baseline enumeration on random fleets, n cycling through 11..13."""
    fleets = {}
    instances = []
    for i, (n, fraction) in enumerate(_sized(rng, range(11, 14), size, 0.2, 0.8)):
        name = f"fleet{i:02d}_n{n}.csv"
        fleets[name] = _random_fleet(rng, n)
        cap = sum(row[4] for row in fleets[name])
        instances.append(Instance("baseline", name, fraction * cap))
    return Pool(fleets, tuple(instances))


WORKLOADS = {
    "s1_ten_unit": s1_ten_unit,
    "s2_subfleet": s2_subfleet,
    "baseline_enum": baseline_enum,
}


def make_pool(workload: str, seed: int, size: int | None = None) -> Pool:
    """The workload's instance pool for ``seed``; ``size`` shrinks it for tests."""
    make = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    return make(rng) if size is None else make(rng, size)
