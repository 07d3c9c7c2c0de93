"""Command-line front end.

Three modes:

* ``baseline`` solves the instance exactly by enumeration,
* ``s1`` runs the three-block ADMM with the classical QUBO solver,
* ``s2`` runs it with the QAOA statevector backend.

Outputs land in the chosen directory: ``solution.csv`` always (when a
solution exists), ``trace.csv`` with every ``TraceRow`` column for the ADMM
modes, and per-iteration ``histogram_iter<k>.csv`` bitstring probabilities
for s2 when requested.
Exit codes: 0 success, 1 input error, 2 infeasible, 3 not converged.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from dataclasses import dataclass, fields
from pathlib import Path

from .admm import (
    AdmmConfig,
    BACKEND_CLASSICAL,
    BACKEND_QAOA,
    SolveReport,
    TraceRow,
    default_config,
    run_admm,
)
from .errors import (
    Infeasible,
    InfeasibleRelaxation,
    InstanceMismatch,
    SolverError,
)
from .qaoa import QaoaConfig, probabilities_to_csv
from .ucmodel import UCInstance, enumerate_uc, parse_generators, solution_to_csv

MODES = ("baseline", "s1", "s2")

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INFEASIBLE = 2
EXIT_NOT_CONVERGED = 3


@dataclass(frozen=True)
class RunSpec:
    """Everything one invocation needs; mirrors the CLI flags."""

    mode: str
    generators_path: str
    load: float
    output_dir: str = "out"
    config_path: str | None = None
    rho: float | None = None
    beta: float | None = None
    epsilon: float | None = None
    max_iters: int | None = None
    qaoa_depth: int | None = None
    qaoa_budget: int | None = None
    warm_start: bool | None = None
    extract: str | None = None
    seed: int = 0
    emit_histograms: bool = False

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise SolverError(f"unknown mode {self.mode!r}")
        if self.load < 0.0:
            raise SolverError(f"load {self.load} < 0")


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _is_real(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real_list(value: object) -> bool:
    return isinstance(value, list) and all(_is_real(v) for v in value)


#: Config-file keys with the JSON type each must have.
_CONFIG_FILE_TYPES = {
    "rho": (_is_real, "a number"),
    "beta": (_is_real, "a number"),
    "epsilon": (_is_real, "a number"),
    "max_iters": (_is_int, "an integer"),
    "qaoa_depth": (_is_int, "an integer"),
    "qaoa_budget": (_is_int, "an integer"),
    "warm_start": (lambda v: isinstance(v, bool), "true or false"),
    "extract": (lambda v: isinstance(v, str), "a string"),
    "initial_z": (_is_real_list, "a list of numbers"),
    "initial_r": (_is_real_list, "a list of numbers"),
    "initial_lambda": (_is_real_list, "a list of numbers"),
}


def _load_file_overrides(spec: RunSpec) -> dict:
    if spec.config_path is None:
        return {}
    with open(spec.config_path) as handle:
        data = json.load(handle)
    if not isinstance(data, dict):
        raise SolverError(f"config file {spec.config_path}: expected a JSON object")
    unknown = set(data) - set(_CONFIG_FILE_TYPES)
    if unknown:
        raise SolverError(
            f"config file {spec.config_path}: unknown keys {sorted(unknown)}"
        )
    for key, value in data.items():
        check, expected = _CONFIG_FILE_TYPES[key]
        if not check(value):
            raise SolverError(
                f"config file {spec.config_path}: {key} must be {expected}, "
                f"got {value!r}"
            )
    for key in ("initial_z", "initial_r", "initial_lambda"):
        if key in data:
            data[key] = tuple(data[key])
    return data


def build_admm_config(spec: RunSpec) -> AdmmConfig:
    """Assemble the ADMM config: flags over config file over load presets."""
    merged: dict = dict(_load_file_overrides(spec))
    for key in ("rho", "beta", "epsilon", "max_iters", "warm_start"):
        value = getattr(spec, key)
        if value is not None:
            merged[key] = value
    qaoa_kwargs = {
        "depth": merged.pop("qaoa_depth", None),
        "optimizer_budget": merged.pop("qaoa_budget", None),
        "extraction": merged.pop("extract", None),
        "sample_seed": spec.seed,
    }
    if spec.qaoa_depth is not None:
        qaoa_kwargs["depth"] = spec.qaoa_depth
    if spec.qaoa_budget is not None:
        qaoa_kwargs["optimizer_budget"] = spec.qaoa_budget
    if spec.extract is not None:
        qaoa_kwargs["extraction"] = spec.extract
    qaoa = QaoaConfig(**{k: v for k, v in qaoa_kwargs.items() if v is not None})
    backend = BACKEND_QAOA if spec.mode == "s2" else BACKEND_CLASSICAL
    return default_config(spec.load, backend=backend, qaoa=qaoa, **merged)


def trace_to_csv(report: SolveReport) -> str:
    """Render every :class:`TraceRow` column, one row per iteration."""
    names = [f.name for f in fields(TraceRow)]
    lines = [",".join(names)]
    for row in report.trace:
        lines.append(",".join(str(getattr(row, name)) for name in names))
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ComparisonReport:
    """Differences between two solve reports over the same instance."""

    commitments_equal: bool
    cost_delta: float | None
    iterations: tuple[int, int]
    converged: tuple[bool, bool]
    residual_ratios: tuple[tuple[int, float, float, float], ...]

    def format(self) -> str:
        lines = [
            f"commitments_equal: {self.commitments_equal}",
            f"cost_delta: {self.cost_delta}",
            f"iterations: {self.iterations[0]} vs {self.iterations[1]}",
            f"converged: {self.converged[0]} vs {self.converged[1]}",
            "iter,residual_a,residual_b,ratio",
        ]
        for it, ra, rb, ratio in self.residual_ratios:
            lines.append(f"{it},{ra!r},{rb!r},{ratio!r}")
        return "\n".join(lines) + "\n"


def compare(report_a: SolveReport, report_b: SolveReport) -> ComparisonReport:
    """Diff two reports; raises InstanceMismatch for different instances."""
    if report_a.instance != report_b.instance:
        raise InstanceMismatch("reports were produced on different instances")
    a_final, b_final = report_a.final, report_b.final
    equal = (
        a_final is not None
        and b_final is not None
        and a_final.commitment == b_final.commitment
    )
    delta = (
        b_final.cost - a_final.cost
        if (a_final is not None and b_final is not None)
        else None
    )
    ratios = []
    for ra, rb in zip(report_a.trace, report_b.trace):
        ratio = rb.residual / ra.residual if ra.residual != 0.0 else float("inf")
        ratios.append((ra.iter, ra.residual, rb.residual, ratio))
    return ComparisonReport(
        commitments_equal=equal,
        cost_delta=delta,
        iterations=(report_a.iterations, report_b.iterations),
        converged=(report_a.converged, report_b.converged),
        residual_ratios=tuple(ratios),
    )


def run(spec: RunSpec) -> int:
    """Execute one run spec; writes artifacts and returns the exit code."""
    with open(spec.generators_path) as handle:
        generators = parse_generators(handle)
    instance = UCInstance(generators, spec.load)
    out = Path(spec.output_dir)

    if spec.mode == "baseline":
        try:
            solution = enumerate_uc(instance)
        except Infeasible as exc:
            print(f"infeasible: {exc}", file=sys.stderr)
            return EXIT_INFEASIBLE
        _atomic_write(out / "solution.csv", solution_to_csv(solution))
        print(
            f"baseline commitment |{solution.commitment.bitstring}> "
            f"cost {solution.cost}"
        )
        return EXIT_OK

    config = build_admm_config(spec)
    try:
        report = run_admm(instance, config)
    except InfeasibleRelaxation as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    _atomic_write(out / "trace.csv", trace_to_csv(report))
    if spec.mode == "s2" and spec.emit_histograms and report.qaoa_diagnostics:
        for record in report.qaoa_diagnostics:
            _atomic_write(
                out / f"histogram_iter{record.iter}.csv",
                probabilities_to_csv(record.probabilities),
            )
    if report.final is not None:
        _atomic_write(out / "solution.csv", solution_to_csv(report.final))
    if not report.converged:
        print(
            f"not converged after {report.iterations} iterations "
            f"(residual {report.trace[-1].residual})",
            file=sys.stderr,
        )
        return EXIT_NOT_CONVERGED
    if report.final is None:
        print(
            "converged commitment cannot serve the load, "
            "nor can any commitment one bit flip away",
            file=sys.stderr,
        )
        return EXIT_INFEASIBLE
    print(
        f"{spec.mode} converged in {report.iterations} iterations: "
        f"commitment |{report.final.commitment.bitstring}> cost {report.final.cost}"
    )
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hquc",
        description="Single-period unit commitment via three-block ADMM "
        "with a classical or QAOA-simulated QUBO block.",
    )
    parser.add_argument("--mode", choices=MODES, required=True)
    parser.add_argument("--generators", required=True, help="generator CSV path")
    parser.add_argument("--load", type=float, required=True, help="system load (MW)")
    parser.add_argument("--rho", type=float, default=None)
    parser.add_argument("--beta", type=float, default=None)
    parser.add_argument("--epsilon", type=float, default=None, help="default 1e-6")
    parser.add_argument("--max-iters", type=int, default=None, help="default 1000")
    parser.add_argument("--qaoa-depth", type=int, default=None, help="default 2")
    parser.add_argument("--qaoa-budget", type=int, default=None, help="default 100")
    parser.add_argument(
        "--warm-start",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="warm start QAOA angles across iterations (default on)",
    )
    parser.add_argument("--extract", choices=("argmax", "sample"), default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--emit-histograms", action="store_true")
    parser.add_argument("--config", default=None, help="JSON config file")
    parser.add_argument("--out", default="out", help="output directory")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        spec = RunSpec(
            mode=args.mode,
            generators_path=args.generators,
            load=args.load,
            output_dir=args.out,
            config_path=args.config,
            rho=args.rho,
            beta=args.beta,
            epsilon=args.epsilon,
            max_iters=args.max_iters,
            qaoa_depth=args.qaoa_depth,
            qaoa_budget=args.qaoa_budget,
            warm_start=args.warm_start,
            extract=args.extract,
            seed=args.seed,
            emit_histograms=args.emit_histograms,
        )
        return run(spec)
    except (OSError, json.JSONDecodeError, SolverError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
