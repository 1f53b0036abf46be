"""Span recorder that wraps legpulse's layer functions from outside the library.

Each wrapped function is patched at the module attribute through which its
caller looks it up (``legpulse.solver.residual`` for Newton's calls,
``legpulse.problems.evaluate`` for the calls run() makes, and so on), so
nothing in ``src/`` changes.  Spans are kept in flat arrays in memory and
reduced to per-name totals and self times when the run ends.  A span's self
time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import importlib
from array import array
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

# (module, attribute, span name); the module is the caller's, not the callee's
SPANS = (
    ("problems", "parse_problem", "problems.parse_problem"),
    ("reference", "parse_problem", "problems.parse_problem"),
    ("problems", "run", "problems.run"),
    ("reference", "run", "problems.run"),
    ("problems", "emit_csv", "problems.emit_csv"),
    ("problems", "assemble", "solver.assemble"),
    ("problems", "solve", "solver.solve"),
    ("problems", "reconstruct", "basis.reconstruct"),
    ("problems", "derivative_max", "solver.derivative_max"),
    ("solver", "project_kernel", "basis.project_kernel"),
    ("solver", "project_function", "basis.project_function"),
    ("solver", "build_P", "opmatrices.build"),
    ("solver", "build_L", "opmatrices.build"),
    ("solver", "build_J", "opmatrices.build"),
    ("solver", "build_triple_tensor", "opmatrices.build"),
    ("solver", "_newton", "solver.newton"),
    ("solver", "residual", "solver.residual"),
    ("solver", "lift", "lift.lift"),
    ("solver", "coeff_matrix", "opmatrices.coeff_matrix"),
    ("solver", "hat_vector", "opmatrices.hat_vector"),
)
# (module, attribute, counter name): counted only, since timing each call
# of the scalar evaluator would cost more than the call itself
COUNTS = (("problems", "evaluate", "exprlang.evaluate.calls"),)


class _Override:
    """Stands in for a module, replacing some attributes and forwarding the rest."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


class Tracer:
    """Installs and removes the wrappers and keeps what they record."""

    def __init__(self):
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: List[int] = []
        self.counts: Dict[str, float] = {}
        self.max_grid_error = 0.0
        self._patches: List[Tuple[object, str, object, object]] = []
        hooks = {"_newton": self._newton_done, "run": self._run_done}
        for module, attr, name in SPANS:
            self._plan(module, attr, self._span(name, hooks.get(attr)))
        for module, attr, name in COUNTS:
            self._plan(module, attr, self._counter(name))
        solver = importlib.import_module("legpulse.solver")
        solve = self._span("solver.linsolve")(np.linalg.solve)
        self._patches.append(
            (solver, "np", np, _Override(np, linalg=_Override(np.linalg, solve=solve)))
        )

    def _plan(self, module: str, attr: str, wrap: Callable):
        mod = importlib.import_module(f"legpulse.{module}")
        original = getattr(mod, attr, None)
        # a layer a later refactor removed is reported as zero, not as a crash
        if original is not None:
            self._patches.append((mod, attr, original, wrap(original)))

    def install(self):
        for mod, attr, _, wrapped in self._patches:
            setattr(mod, attr, wrapped)

    def remove(self):
        for mod, attr, original, _ in self._patches:
            setattr(mod, attr, original)

    def _span(self, name: str, on_result: Optional[Callable] = None) -> Callable:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]

        def wrap(fn):
            stack, start, end = self._stack, self.start, self.end
            name_id, parent = self.name_id, self.parent

            def wrapper(*args, **kwargs):
                i = len(start)
                name_id.append(nid)
                parent.append(stack[-1] if stack else -1)
                end.append(0.0)
                stack.append(i)
                start.append(perf_counter())
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end[i] = perf_counter()
                    stack.pop()
                if on_result is not None:
                    on_result(result)
                return result

            return wrapper

        return wrap

    def _counter(self, name: str) -> Callable:
        self.counts.setdefault(name, 0)
        counts = self.counts

        def wrap(fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        return wrap

    def _newton_done(self, report):
        key = "solver.newton.iterations"
        self.counts[key] = self.counts.get(key, 0) + report.iterations

    def _run_done(self, output):
        if output.max_abs_error is not None:
            self.max_grid_error = max(self.max_grid_error, output.max_abs_error)

    def totals(self) -> Dict[str, Tuple[int, float, float]]:
        """Per span name: (calls, inclusive seconds, self seconds)."""
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
        own = dur - covered
        k = len(self.names)
        calls = np.bincount(ids, minlength=k)
        incl = np.bincount(ids, weights=dur, minlength=k)
        self_s = np.bincount(ids, weights=own, minlength=k)
        return {
            name: (int(calls[i]), float(incl[i]), float(self_s[i]))
            for i, name in enumerate(self.names)
        }


def layer_metrics(
    tracer: Tracer, ops: int, failed_ops: int, overhead: float
) -> Dict[str, float]:
    """The per-layer metrics, per traced op.

    reference.checks_failed is the run's count of ops that failed their
    gate (on paper-round, the published-value checks); solver.max_grid_error
    is the worst grid error any traced op reported.
    """
    spans = tracer.totals()

    def calls(name):
        return spans.get(name, (0, 0.0, 0.0))[0] / ops

    def incl(name):
        return spans.get(name, (0, 0.0, 0.0))[1] / ops

    def own(name):
        return spans.get(name, (0, 0.0, 0.0))[2] / ops

    iterations = tracer.counts.get("solver.newton.iterations", 0) / ops
    residual_calls = calls("solver.residual")
    return {
        "exprlang.evaluate.calls": tracer.counts["exprlang.evaluate.calls"] / ops,
        "basis.project_kernel.s": incl("basis.project_kernel"),
        "basis.project_function.s": incl("basis.project_function"),
        "solver.residual.calls": residual_calls,
        "solver.residual.s": incl("solver.residual"),
        "solver.residual.calls_per_iteration": (
            residual_calls / iterations if iterations else 0.0
        ),
        "solver.newton.iterations": iterations,
        "solver.newton.starts": calls("solver.newton"),
        "lift.lift.s": incl("lift.lift"),
        "opmatrices.coeff_matrix.s": incl("opmatrices.coeff_matrix"),
        "opmatrices.hat_vector.s": incl("opmatrices.hat_vector"),
        "solver.linsolve.s": incl("solver.linsolve"),
        "solver.solve.s": incl("solver.solve"),
        "solver.assemble.self_s": own("solver.assemble"),
        "opmatrices.build.s": incl("opmatrices.build"),
        "problems.parse_problem.s": incl("problems.parse_problem"),
        "problems.emit_csv.s": incl("problems.emit_csv"),
        "problems.run.self_s": own("problems.run"),
        "basis.reconstruct.s": incl("basis.reconstruct"),
        "solver.derivative_max.s": incl("solver.derivative_max"),
        "solver.max_grid_error": tracer.max_grid_error,
        "reference.checks_failed": float(failed_ops),
        "trace.overhead_frac": overhead,
    }
