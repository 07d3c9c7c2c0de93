"""Command-line front end.

Three modes:

* ``baseline`` solves the instance exactly by branch and bound
  (:func:`hquc.ucmodel.solve_uc_exact`), at any size,
* ``s1`` runs the three-block ADMM with the classical QUBO solver,
* ``s2`` runs it with the QAOA backend, simulated as a product state.

Outputs land in the chosen directory: ``solution.csv`` always (when a
solution exists), ``trace.csv`` with every ``TraceRow`` column for the ADMM
modes, and per-iteration ``histogram_iter<k>.csv`` bitstring probabilities
for s2 when requested; those stop at 16 units.  A run whose inputs pass
their checks first removes these files from the directory, so it holds
the latest run's outputs only.
Exit codes: 0 success, 1 input error (usage errors included), 2 infeasible,
3 not converged.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import reprlib
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
from .errors import Infeasible, InvariantViolation, SolverError, require_finite
from .qaoa import QaoaConfig, check_dense_size, probabilities_to_csv
from .ucmodel import UCInstance, parse_generators, solution_to_csv, solve_uc_exact

MODES = ("baseline", "s1", "s2")

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INFEASIBLE = 2
EXIT_NOT_CONVERGED = 3


def _read_text(path: str, role: str) -> str:
    """The UTF-8 text of the ``role`` file at ``path``, less a leading byte
    order mark; an unreadable file raises :class:`SolverError` naming both."""
    try:
        with open(path, encoding="utf-8-sig") as handle:
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
    return isinstance(value, float) or _is_int(value)


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real_list(value: object) -> bool:
    return isinstance(value, list) and all(_is_real(v) for v in value)


#: Every solver setting, by config-file key: the test its JSON value must
#: pass, the kind that test accepts, the :class:`QaoaConfig` field it sets
#: (``None`` for the :class:`AdmmConfig` field of the same name) and the
#: ``add_argument`` keywords of its flag, the key with dashes (``None`` for a
#: file-only key).  Every number in a config file must also pass
#: :func:`~hquc.errors.require_finite`.
_SETTINGS = {
    "rho": (_is_real, "a number", None, {"type": float}),
    "beta": (_is_real, "a number", None, {"type": float}),
    "epsilon": (_is_real, "a number", None, {"type": float, "help": "default 1e-6"}),
    "max_iters": (_is_int, "an integer", None, {"type": int, "help": "default 1000"}),
    "qaoa_depth": (_is_int, "an integer", "depth", {"type": int, "help": "default 2"}),
    "qaoa_budget": (
        _is_int, "an integer", "optimizer_budget", {"type": int, "help": "default 100"}
    ),
    "warm_start": (lambda v: isinstance(v, bool), "true or false", None, {
        "action": argparse.BooleanOptionalAction,
        "help": "warm start QAOA angles across iterations (default on)",
    }),
    "extract": (lambda v: isinstance(v, str), "a string", "extraction", {
        "choices": ("argmax", "sample"),
    }),
    "initial_z": (_is_real_list, "a list of numbers", None, None),
    "initial_r": (_is_real_list, "a list of numbers", None, None),
    "initial_lambda": (_is_real_list, "a list of numbers", None, None),
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
    unknown = set(data) - set(_SETTINGS)
    if unknown:
        raise SolverError(f"config file {path}: unknown keys {sorted(unknown)}")
    try:
        for key, value in data.items():
            check, expected, _, _ = _SETTINGS[key]
            if not check(value):
                # reprlib shortens a long list or an integer of many digits.
                got = reprlib.repr(value)
                raise InvariantViolation(f"{key} must be {expected}, got {got}")
            if isinstance(value, list):
                for i, v in enumerate(value):
                    require_finite(f"{key}[{i}]", v)
                data[key] = tuple(value)
            elif _is_real(value):
                require_finite(key, value)
    except InvariantViolation as exc:
        # Named here, not in each message.
        raise InvariantViolation(f"config file {path}: {exc}") from None
    return data


def build_admm_config(args: argparse.Namespace, settings: dict) -> AdmmConfig:
    """Assemble the ADMM config: flags over config file settings over presets.

    Each setting is read once and checked by the config class it belongs to.
    """
    admm, qaoa_fields = {}, {"sample_seed": args.seed}
    for key, (_, _, qaoa_field, _) in _SETTINGS.items():
        value = getattr(args, key, None)
        value = settings.get(key) if value is None else value
        if value is not None:
            (admm if qaoa_field is None else qaoa_fields)[qaoa_field or key] = value
    qaoa = QaoaConfig(**qaoa_fields)
    # The angle search evaluates its 2 * depth + 1 simplex vertices first;
    # baseline and s1 never run it, so only s2 needs a budget that covers them.
    if args.mode == "s2" and 2 * qaoa.depth + 1 > qaoa.optimizer_budget:
        raise InvariantViolation(
            f"qaoa_depth {qaoa.depth} needs qaoa_budget >= {2 * qaoa.depth + 1} "
            f"to evaluate its initial simplex, got {qaoa.optimizer_budget}"
        )
    backend = BACKEND_QAOA if args.mode == "s2" else BACKEND_CLASSICAL
    return default_config(args.load, backend=backend, qaoa=qaoa, **admm)


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
    # Built in every mode, so every setting is checked; baseline uses none.
    config = build_admm_config(args, _load_file_overrides(args.config))
    if config.backend == BACKEND_QAOA and args.emit_histograms:
        check_dense_size(instance.n)  # histograms read all 2**n probabilities
    out = Path(args.out)
    for stale in (out / "solution.csv", out / "trace.csv", *out.glob("histogram_iter*.csv")):
        stale.unlink(missing_ok=True)

    if args.mode == "baseline":
        solution = solve_uc_exact(instance)
        _atomic_write(out / "solution.csv", solution_to_csv(solution))
        print(
            f"baseline commitment |{solution.commitment.bitstring}> "
            f"cost {solution.cost}"
        )
        return EXIT_OK

    report = run_admm(instance, config)
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
    for key, (_, _, _, flag) in _SETTINGS.items():
        if flag is not None:
            parser.add_argument("--" + key.replace("_", "-"), default=None, **flag)
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
    # InfeasibleRelaxation included; never raised once an output file is written.
    except Infeasible as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (OSError, SolverError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
