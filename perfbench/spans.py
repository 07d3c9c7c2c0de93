"""Span tracing of the hquc layers from outside the package.

:class:`Tracer` replaces module attributes with timing wrappers for the
duration of a ``with`` block.  Each wrapper is installed where the caller looks
the function up (``hquc.admm.solve_block1`` is what ``run_admm`` calls, not
``hquc.qpblock.solve_block1``), so no source file of the package changes.
Spans are kept in flat arrays and written out after the run.

A span records its name, start, end, parent span and solve id.  The process
is single threaded, so the open span on top of the stack is the parent of the
next one, and a span's self time is its duration minus that of its direct
children.
"""

from __future__ import annotations

import gzip
import importlib
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

# (module, attribute looked up there, span name).  The span name is the
# layer's module and public function; the same function reached through two
# modules shares one name.
TARGETS = (
    ("hquc.cli", "main", "cli.main"),
    ("hquc.cli", "parse_generators", "ucmodel.parse_generators"),
    ("hquc.cli", "enumerate_uc", "ucmodel.enumerate_uc"),
    ("hquc.cli", "run_admm", "admm.run_admm"),
    ("hquc.admm", "update_r", "admm.update_r"),
    ("hquc.admm", "update_dual", "admm.update_dual"),
    ("hquc.admm", "residual", "admm.residual"),
    ("hquc.admm", "solve_block1", "qpblock.solve_block1"),
    ("hquc.admm", "build_qubo", "qubo.build_qubo"),
    ("hquc.admm", "solve_qubo_perbit", "qubo.solve_qubo_perbit"),
    ("hquc.admm", "solve_qubo_qaoa", "qaoa.solve_qubo_qaoa"),
    ("hquc.admm", "economic_dispatch", "ucmodel.economic_dispatch"),
    ("hquc.admm", "evaluate_cost", "ucmodel.evaluate_cost"),
    ("hquc.qpblock", "nnls", "qpblock.nnls"),
    ("hquc.qpblock", "block1_objective", "qpblock.block1_objective"),
    ("hquc.qaoa", "optimize_params", "qaoa.optimize_params"),
    ("hquc.qaoa", "run_circuit", "qaoa.run_circuit"),
    ("hquc.qaoa", "apply_cost_layer", "qaoa.apply_cost_layer"),
    ("hquc.qaoa", "apply_mixer_layer", "qaoa.apply_mixer_layer"),
    ("hquc.qaoa", "expectation", "qaoa.expectation"),
    ("hquc.ucmodel", "evaluate_cost", "ucmodel.evaluate_cost"),
)


class Tracer:
    """Records one span per wrapped call while installed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.solve = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.solve_id = -1
        # Work read off arguments and results, outside the timed intervals.
        self.admm_iters = 0
        self.admm_converged = 0
        self.kkt: dict[int, float] = {}
        self.amplitude_updates = 0
        self.enumerated = 0
        self.block2: list[tuple[object, tuple[int, ...]]] = []

    def __enter__(self) -> "Tracer":
        hooks = {
            "admm.run_admm": self._on_run_admm,
            "qpblock.solve_block1": self._on_solve_block1,
            "qaoa.solve_qubo_qaoa": self._on_solve_qubo_qaoa,
            "qaoa.run_circuit": self._on_run_circuit,
            "ucmodel.enumerate_uc": self._on_enumerate_uc,
        }
        for module_name, attr, span in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(span, original, hooks.get(span)))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, span: str, fn, hook):
        nid = self._ids.setdefault(span, len(self._ids))
        if nid == len(self.names):
            self.names.append(span)
        stack = self._stack

        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.solve.append(self.solve_id)
            self.start.append(0.0)
            self.end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if hook is not None:
                hook(args, result)
            return result

        return wrapper

    def _on_run_admm(self, args, report) -> None:
        self.admm_iters += report.iterations
        self.admm_converged += bool(report.converged)

    def _on_solve_block1(self, args, solution) -> None:
        worst = self.kkt.get(self.solve_id, 0.0)
        self.kkt[self.solve_id] = max(worst, solution.kkt_residual)

    def _on_solve_qubo_qaoa(self, args, outcome) -> None:
        self.block2.append((args[0], outcome.bits))

    def _on_run_circuit(self, args, state) -> None:
        # Computed, not measured: each of the P layers touches all 2^n
        # amplitudes once for the cost phase and once per qubit in the mixer.
        qubo, params = args[0], args[1]
        self.amplitude_updates += params.depth * (qubo.n + 1) * (1 << qubo.n)

    def _on_enumerate_uc(self, args, solution) -> None:
        self.enumerated += 1 << args[0].n

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (calls, total seconds, total self seconds)."""
        names = np.frombuffer(self.name, dtype=np.int32)
        parents = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        nested = parents >= 0
        child = np.bincount(parents[nested], weights=dur[nested], minlength=len(dur))
        own = dur - child
        out = {}
        for nid, span in enumerate(self.names):
            mask = names == nid
            out[span] = (int(mask.sum()), float(dur[mask].sum()), float(own[mask].sum()))
        return out

    def write(self, path: Path) -> None:
        """Write every span as ``span,name,start_s,end_s,parent,solve`` (gzip CSV)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.start[0] if self.start else 0.0
        with gzip.open(path, "wt") as handle:
            handle.write("span,name,start_s,end_s,parent,solve\n")
            for i in range(len(self.start)):
                handle.write(
                    f"{i},{self.names[self.name[i]]},{self.start[i] - origin!r},"
                    f"{self.end[i] - origin!r},{self.parent[i]},{self.solve[i]}\n"
                )
