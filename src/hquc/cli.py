"""Command-line front end.

Three modes:

* ``baseline`` solves the instance exactly by branch and bound
  (:func:`hquc.ucmodel.solve_uc_exact`), at any size,
* ``s1`` runs the three-block ADMM with the classical QUBO solver,
* ``s2`` runs it with the QAOA backend, simulated as a product state.

Outputs land in the chosen directory: ``solution.csv`` always (when a
solution exists), ``trace.csv`` with every ``TraceRow`` column for the ADMM
modes, and per-iteration ``histogram_iter<k>.csv`` bitstring probabilities
for s2 when requested; those stop at 16 units.
Exit codes: 0 success, 1 input error (usage errors included), 2 infeasible,
3 not converged.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import secrets
import sys
from dataclasses import fields
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
from .errors import Infeasible, InfeasibleRelaxation, InvariantViolation, SolverError
from .qaoa import QaoaConfig, check_dense_size, probabilities_to_csv
from .ucmodel import UCInstance, parse_generators, solution_to_csv, solve_uc_exact

MODES = ("baseline", "s1", "s2")

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INFEASIBLE = 2
EXIT_NOT_CONVERGED = 3


def _read_text(path: str, role: str) -> str:
    """The UTF-8 text of the ``role`` file at ``path``; an unreadable file
    raises :class:`SolverError` naming both."""
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise SolverError(f"{role} {path}: not UTF-8 text ({exc})") from exc
    except OSError as exc:
        raise SolverError(f"{role} {path}: {exc.strerror or exc}") from exc


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{secrets.token_hex(8)}.tmp")
    # Mode 0o666 less the umask, as open() would give, and unlike mkstemp's 0o600.
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _is_real(value: object) -> bool:
    # A JSON integer may lie past the float range.
    return isinstance(value, float) or (
        _is_int(value) and abs(value) <= sys.float_info.max
    )


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real_list(value: object) -> bool:
    return isinstance(value, list) and all(_is_real(v) for v in value)


#: Config-file keys with the JSON type each must have.  Each key is also the
#: name of the CLI flag that overrides it, where there is one.
_CONFIG_FILE_TYPES = {
    "rho": (_is_real, "a number in float range"),
    "beta": (_is_real, "a number in float range"),
    "epsilon": (_is_real, "a number in float range"),
    "max_iters": (_is_int, "an integer"),
    "qaoa_depth": (_is_int, "an integer"),
    "qaoa_budget": (_is_int, "an integer"),
    "warm_start": (lambda v: isinstance(v, bool), "true or false"),
    "extract": (lambda v: isinstance(v, str), "a string"),
    "initial_z": (_is_real_list, "a list of numbers in float range"),
    "initial_r": (_is_real_list, "a list of numbers in float range"),
    "initial_lambda": (_is_real_list, "a list of numbers in float range"),
}

#: Settings that are :class:`QaoaConfig` fields, by field name.
_QAOA_FIELDS = {
    "qaoa_depth": "depth",
    "qaoa_budget": "optimizer_budget",
    "extract": "extraction",
}


def _load_file_overrides(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        data = json.loads(_read_text(path, "config file"))
    except ValueError as exc:  # bad JSON, or an integer past the digit limit
        raise SolverError(f"config file {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise SolverError(f"config file {path}: expected a JSON object")
    unknown = set(data) - set(_CONFIG_FILE_TYPES)
    if unknown:
        raise SolverError(f"config file {path}: unknown keys {sorted(unknown)}")
    for key, value in data.items():
        check, expected = _CONFIG_FILE_TYPES[key]
        if not check(value):
            raise SolverError(
                f"config file {path}: {key} must be {expected}, got {value!r}"
            )
    for key in ("initial_z", "initial_r", "initial_lambda"):
        if key in data:
            data[key] = tuple(data[key])
    return data


def build_admm_config(args: argparse.Namespace, settings: dict) -> AdmmConfig:
    """Assemble the ADMM config: flags over config file settings over presets."""
    for key in _CONFIG_FILE_TYPES:
        value = getattr(args, key, None)
        if value is not None:
            settings[key] = value
    qaoa_fields = {
        name: settings.pop(key) for key, name in _QAOA_FIELDS.items() if key in settings
    }
    qaoa = QaoaConfig(sample_seed=args.seed, **qaoa_fields)
    # The angle search evaluates its 2 * depth + 1 simplex vertices first;
    # s1 never runs it, so only s2 needs a budget that covers them.
    if args.mode == "s2" and 2 * qaoa.depth + 1 > qaoa.optimizer_budget:
        raise InvariantViolation(
            f"qaoa_depth {qaoa.depth} needs qaoa_budget >= {2 * qaoa.depth + 1} "
            f"to evaluate its initial simplex, got {qaoa.optimizer_budget}"
        )
    backend = BACKEND_QAOA if args.mode == "s2" else BACKEND_CLASSICAL
    return default_config(args.load, backend=backend, qaoa=qaoa, **settings)


def trace_to_csv(report: SolveReport) -> str:
    """Render every :class:`TraceRow` column, one row per iteration."""
    names = [f.name for f in fields(TraceRow)]
    lines = [",".join(names)]
    for row in report.trace:
        lines.append(",".join(str(getattr(row, name)) for name in names))
    return "\n".join(lines) + "\n"


def _run(args: argparse.Namespace) -> int:
    """Execute one parsed command line; writes artifacts, returns the exit code."""
    text = _read_text(args.generators, "generators file")
    instance = UCInstance(parse_generators(text), args.load)
    # Checked in every mode; baseline uses none of its settings.
    settings = _load_file_overrides(args.config)
    out = Path(args.out)

    if args.mode == "baseline":
        try:
            solution = solve_uc_exact(instance)
        except Infeasible as exc:
            print(f"infeasible: {exc}", file=sys.stderr)
            return EXIT_INFEASIBLE
        _atomic_write(out / "solution.csv", solution_to_csv(solution))
        print(
            f"baseline commitment |{solution.commitment.bitstring}> "
            f"cost {solution.cost}"
        )
        return EXIT_OK

    config = build_admm_config(args, settings)
    if config.backend == BACKEND_QAOA and args.emit_histograms:
        check_dense_size(instance.n)  # histograms read all 2**n probabilities
    try:
        report = run_admm(instance, config)
    except InfeasibleRelaxation as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    _atomic_write(out / "trace.csv", trace_to_csv(report))
    if args.emit_histograms and report.qaoa_diagnostics:
        for k, outcome in enumerate(report.qaoa_diagnostics, start=1):
            _atomic_write(
                out / f"histogram_iter{k}.csv",
                probabilities_to_csv(outcome.probabilities),
            )
    if report.final is not None:
        _atomic_write(out / "solution.csv", solution_to_csv(report.final))
    if not report.converged:
        print(
            f"not converged after {report.iterations} iterations "
            f"(residual {report.trace[-1].residual}); terminal commitment "
            f"|{report.terminal_commitment.bitstring}>",
            file=sys.stderr,
        )
        return EXIT_NOT_CONVERGED
    if report.final is None:
        print(
            f"converged commitment |{report.terminal_commitment.bitstring}> "
            "cannot serve the load, nor can any commitment one bit flip away",
            file=sys.stderr,
        )
        return EXIT_INFEASIBLE
    print(
        f"{args.mode} converged in {report.iterations} iterations "
        f"(commitment fixed at iteration {report.commitment_fixed_at}): "
        f"commitment |{report.final.commitment.bitstring}> cost {report.final.cost}"
    )
    return EXIT_OK


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # Built once per process: parse_args reads the parser and leaves it as it is.
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
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse has printed "error:" and the usage; --help exits 0.
        if exc.code == 0:
            raise
        return EXIT_ERROR
    try:
        return _run(args)
    except (OSError, SolverError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
