"""Outside-in spans around the lab's layers, for the traced runs only.

Each wrapped name is patched where its caller looks it up (``cli`` and
``rigidity`` import ``solve_Lf`` and friends by name, ``solver`` reaches
``spsolve`` through its ``spla`` module alias, ``oracles`` binds ``quad`` by
name), so untraced passes run the program's own objects untouched once
``uninstall`` has run.  Spans carry a name, start, end, parent and the id of
the CLI command they belong to; they stay in memory until the run writes them.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from pathlib import Path

import serrinlab.cli
import serrinlab.identities
import serrinlab.oracles
import serrinlab.reports
import serrinlab.rigidity
import serrinlab.solver

# (module, attribute looked up there, span name)
SPANNED = [
    (serrinlab.cli, "solve_Lf", "solver.solve"),
    (serrinlab.cli, "solve_linear_spaceform", "solver.solve"),
    (serrinlab.cli, "identity_suite", "identities.identity_suite"),
    (serrinlab.cli, "pfunction_suite", "pfunction.pfunction_suite"),
    (serrinlab.cli, "deviation_scan", "rigidity.scan"),
    (serrinlab.cli, "convexity_contrast", "rigidity.scan"),
    (serrinlab.cli, "convergence_study", "rigidity.convergence_study"),
    (serrinlab.cli, "build_grid", "mesh.build_grid"),
    (serrinlab.cli, "emit_csv", "reports.emit_csv"),
    (serrinlab.cli, "emit_json", "reports.emit_json"),
    (serrinlab.reports, "emit_json", "reports.emit_json"),  # RunManifest.write
    (serrinlab.rigidity, "solve_Lf", "solver.solve"),
    (serrinlab.rigidity, "solve_linear_spaceform", "solver.solve"),
    (serrinlab.rigidity, "build_grid", "mesh.build_grid"),
    (serrinlab.rigidity, "identity_suite", "identities.identity_suite"),
    (serrinlab.rigidity, "pfunction_suite", "pfunction.pfunction_suite"),
    (serrinlab.rigidity, "hessian_W_field", "solver.w_field"),
    (serrinlab.rigidity, "sample_values", "oracles.sample_values"),
    (serrinlab.identities, "hessian_W_field", "solver.w_field"),
]


def _attrs_of(name: str, args, result) -> dict:
    """Counts recorded at the boundary, read off the call's arguments and result."""
    if name == "solver.solve":
        report = result[1]
        return {"iterations": int(report.iterations), "converged": bool(report.converged)}
    if name == "solver.linear_solve":
        return {"nnz": int(args[0].nnz)}
    if name == "mesh.build_grid":
        return {"cells": int(result.n_cells)}
    if name == "oracles.sample_values":
        return {"cells": int(args[1].n_cells)}
    if name.startswith("reports.emit_"):
        return {"bytes": Path(result).stat().st_size}
    if name == "identities.identity_suite":
        return {"failed": sum(1 for c in result.checks if c.passed is False)}
    if name == "pfunction.pfunction_suite":
        return {"failed": sum(1 for ok in result.verdicts.values() if not ok)}
    return {}


class _SplaProxy:
    """Stands in for ``scipy.sparse.linalg`` inside ``serrinlab.solver``."""

    def __init__(self, real, spsolve):
        self._real = real
        self.spsolve = spsolve

    def __getattr__(self, name):
        return getattr(self._real, name)


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.command = None  # id shared by every span of one CLI command
        self._local = threading.local()
        self._lock = threading.Lock()
        self._saved = []
        self._next_id = 0

    # -- spans ---------------------------------------------------------------

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span named name."""
        stack = self._stack()
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        span = {"id": span_id, "name": name, "parent": stack[-1] if stack else None,
                "command": self.command}
        stack.append(span_id)
        span["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            stack.pop()
            self.spans.append(span)
        span.update(_attrs_of(name, args, result))
        return result

    def _spanned(self, name: str, fn):
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, name: str, fn):
        def wrapper(*args, **kwargs):
            with self._lock:
                self.counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching ------------------------------------------------------------

    def _patch(self, module, attr, replacement):
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module, attr, name in SPANNED:
            self._patch(module, attr, self._spanned(name, getattr(module, attr)))
        spla = serrinlab.solver.spla
        self._patch(serrinlab.solver, "spla",
                    _SplaProxy(spla, self._spanned("solver.linear_solve", spla.spsolve)))
        self._patch(serrinlab.oracles, "quad", self._counted("oracles.quad", serrinlab.oracles.quad))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


# ---------------------------------------------------------------------------
# per-layer metrics of one pass


def _self_time(span, children) -> float:
    """Duration minus the part of the interval the child spans cover."""
    covered, edge = 0.0, span["start"]
    for c in sorted(children, key=lambda c: c["start"]):
        lo, hi = max(c["start"], edge), min(c["end"], span["end"])
        if hi > lo:
            covered += hi - lo
            edge = hi
    return span["end"] - span["start"] - covered


CLI_COMMANDS = ("solve", "rigidity", "convergence", "audit", "pfunction")

# name -> unit, in report order
LAYER_METRICS = {
    "solver.linear_solve_s": "s",
    "solver.linear_solves": "count",
    "solver.matrix_nnz": "count",
    "solver.solve_s": "s",
    "solver.solves": "count",
    "solver.picard_iterations": "count",
    "solver.converged_frac": "ratio",
    "solver.self_s": "s",
    "solver.w_field_s": "s",
    "oracles.sample_values_s": "s",
    "oracles.cells_sampled": "count",
    "oracles.quad_calls": "count",
    **{f"cli.{c}_s": "s" for c in CLI_COMMANDS},
    "cli.self_s": "s",
    "reports.emit_csv_s": "s",
    "reports.emit_json_s": "s",
    "reports.bytes_written": "bytes",
    "identities.identity_suite_s": "s",
    "identities.checks_failed": "count",
    "pfunction.pfunction_suite_s": "s",
    "pfunction.verdicts_failed": "count",
    "rigidity.scan_s": "s",
    "rigidity.convergence_study_s": "s",
    "rigidity.self_s": "s",
    "mesh.build_grid_s": "s",
    "mesh.cells": "count",
    "cpu_s": "s",
    "trace.overhead_frac": "ratio",
}


def layer_metrics(spans: list, counts: Counter) -> dict:
    """Per-layer totals of one pass (every metric but cpu_s and trace.overhead_frac).

    Times are inclusive span durations except the *.self_s entries;
    solver.matrix_nnz sums A.nnz over the linear solves.
    """
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)

    def named(prefix):
        return [s for s in spans if s["name"] == prefix]

    def total(prefix):
        return sum(s["end"] - s["start"] for s in named(prefix))

    def self_total(selected):
        return sum(_self_time(s, children.get(s["id"], [])) for s in selected)

    def attr_sum(prefix, key):
        return sum(s.get(key, 0) for s in named(prefix))

    solves = named("solver.solve")
    cli = [s for s in spans if s["name"].startswith("cli.")]
    rig = named("rigidity.scan") + named("rigidity.convergence_study")
    out = {
        "solver.linear_solve_s": total("solver.linear_solve"),
        "solver.linear_solves": len(named("solver.linear_solve")),
        "solver.matrix_nnz": attr_sum("solver.linear_solve", "nnz"),
        "solver.solve_s": total("solver.solve"),
        "solver.solves": len(solves),
        "solver.picard_iterations": attr_sum("solver.solve", "iterations"),
        "solver.converged_frac": (sum(s["converged"] for s in solves) / len(solves)) if solves else 1.0,
        "solver.self_s": self_total(solves),
        "solver.w_field_s": total("solver.w_field"),
        "oracles.sample_values_s": total("oracles.sample_values"),
        "oracles.cells_sampled": attr_sum("oracles.sample_values", "cells"),
        "oracles.quad_calls": counts.get("oracles.quad", 0),
        **{f"cli.{c}_s": total(f"cli.{c}") for c in CLI_COMMANDS},
        "cli.self_s": self_total(cli),
        "reports.emit_csv_s": total("reports.emit_csv"),
        "reports.emit_json_s": total("reports.emit_json"),
        "reports.bytes_written": attr_sum("reports.emit_csv", "bytes") + attr_sum("reports.emit_json", "bytes"),
        "identities.identity_suite_s": total("identities.identity_suite"),
        "identities.checks_failed": attr_sum("identities.identity_suite", "failed"),
        "pfunction.pfunction_suite_s": total("pfunction.pfunction_suite"),
        "pfunction.verdicts_failed": attr_sum("pfunction.pfunction_suite", "failed"),
        "rigidity.scan_s": total("rigidity.scan"),
        "rigidity.convergence_study_s": total("rigidity.convergence_study"),
        "rigidity.self_s": self_total(rig),
        "mesh.build_grid_s": total("mesh.build_grid"),
        "mesh.cells": attr_sum("mesh.build_grid", "cells"),
    }
    return out
