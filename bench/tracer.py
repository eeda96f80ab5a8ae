"""External per-layer tracer for rieszkit.

The tracer wraps public functions from outside the package: each traced
name is replaced in every ``rieszkit`` module that binds it, so a call made
through ``rieszkit.solve``, ``rieszkit.cli.solve`` or from inside
``rieszkit.solver`` is recorded alike.  The scipy ``lu_factor`` and
``lu_solve`` names that ``solver`` binds are traced the same way, and the
``source`` and ``exact`` callables of every ``builtin_problem`` result are
wrapped on the way out.

Spans stay in memory until the run ends.  A layer's self time is its span
minus the spans of its direct children; the self times of all spans plus
the time outside any span add up to the traced wall time.  A name that the
package no longer has reports zero calls instead of failing.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import os
import statistics
import sys
import time
from fractions import Fraction

# "<module>.<function>": the function is looked up in rieszkit.<module>,
# which also names the layer
TRACED = (
    "coefficients.expand_generating_function",
    "coefficients.closed_form_table",
    "coefficients.first_order_sequence",
    "analysis.evaluate_bounds",
    "analysis.symbol_values",
    "analysis.check_symbol_nonnegativity",
    "analysis.monotonicity_scan",
    "riesz.operator_convergence",
    "solver.solve",
    "solver.assemble",
    "solver.step",
    "solver.lu_factor",
    "solver.lu_solve",
    "stability.stability_scan",
    "reports.write_csv",
    "cli.main",
)
# callables carried by ProblemSpec objects that builtin_problem returns
SPEC_CALLABLES = {"source": "solver.source", "exact": "solver.exact"}
SPAN_NAMES = TRACED + tuple(SPEC_CALLABLES.values())


# Extra per-call figures, computed from arguments and result outside the span.
def _closed_form_args(bound, result):
    return [bound.arguments.get("p"), bound.arguments.get("alpha")]


def _result_size(bound, result):
    return int(getattr(result, "size", 0))


def _written_bytes(bound, result):
    path = bound.arguments.get("path")
    return os.path.getsize(path) if path is not None and os.path.exists(path) else 0


ANNOTATE = {
    "coefficients.closed_form_table": _closed_form_args,
    "coefficients.first_order_sequence": _result_size,
    "analysis.symbol_values": _result_size,
    "reports.write_csv": _written_bytes,
}


def is_short_dyadic(alpha) -> bool:
    """True for alphas such as 0.5 or 1.25 whose exact fraction is short."""
    return alpha is not None and Fraction(alpha).denominator <= 1 << 10


class Tracer:
    """Span recorder; ``install`` patches rieszkit, ``uninstall`` restores it."""

    def __init__(self):
        # (name, start, end, parent index or -1, annotation)
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _wrap(self, name, fn, annotate=None):
        signature = None
        if annotate is not None:
            try:
                signature = inspect.signature(fn)
            except (TypeError, ValueError):
                annotate = None
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, None)
            if annotate is not None:
                try:
                    bound = signature.bind(*args, **kwargs)
                    spans[index] = (name, start, end, parent, annotate(bound, result))
                except (TypeError, ValueError, OSError):
                    pass
            return result

        return traced

    def _wrap_problem_factory(self, factory):
        wrap = self._wrap

        @functools.wraps(factory)
        def traced_factory(*args, **kwargs):
            spec = factory(*args, **kwargs)
            if not dataclasses.is_dataclass(spec):
                return spec
            changes = {field: wrap(name, getattr(spec, field))
                       for field, name in SPEC_CALLABLES.items()
                       if callable(getattr(spec, field, None))}
            return dataclasses.replace(spec, **changes)

        return traced_factory

    def _replace_everywhere(self, original, replacement) -> None:
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "rieszkit"
                                      or mod_name.startswith("rieszkit.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._patched.append((module, attr, original))

    def install(self) -> None:
        for name in TRACED:
            module, attr = name.split(".")
            try:
                original = getattr(importlib.import_module(f"rieszkit.{module}"), attr)
            except (ImportError, AttributeError):
                continue
            self._replace_everywhere(
                original, self._wrap(name, original, ANNOTATE.get(name)))
        try:
            factory = importlib.import_module("rieszkit.solver").builtin_problem
        except (ImportError, AttributeError):
            return
        self._replace_everywhere(factory, self._wrap_problem_factory(factory))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer figures over the spans recorded during ``wall_s``."""
        self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        children = [0.0] * len(self.spans)
        top_level = 0.0
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                children[parent] += end - start
            else:
                top_level += end - start
        per_call: dict[str, list] = {name: [] for name in SPAN_NAMES}
        for (name, start, end, _, note), inner in zip(self.spans, children):
            self_s[name] += end - start - inner
            per_call[name].append((end - start, note))

        out: dict[str, float] = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = len(per_call[name])
            out[f"{name}.self_s"] = self_s[name]
        steps = sorted(d for d, _ in per_call["solver.step"])
        out["solver.step.p50_us"] = 1e6 * _quantile(steps, 0.50)
        out["solver.step.p99_us"] = 1e6 * _quantile(steps, 0.99)

        tables = per_call["coefficients.closed_form_table"]
        seen, cold, warm = set(), 0.0, []
        for duration, note in tables:
            p = note[0] if note else None
            if p in seen:
                warm.append(duration)
            else:
                seen.add(p)
                cold += duration
        out["coefficients.closed_form_table.cold_s"] = cold
        out["coefficients.closed_form_table.warm_p50_ms"] = (
            1e3 * statistics.median(warm) if warm else 0.0)
        out["coefficients.closed_form_table.dyadic_share"] = (
            sum(is_short_dyadic(note[1]) for _, note in tables if note) / len(tables)
            if tables else 0.0)
        out["coefficients.first_order_sequence.terms"] = sum(
            note or 0 for _, note in per_call["coefficients.first_order_sequence"])
        out["analysis.symbol_values.points"] = sum(
            note or 0 for _, note in per_call["analysis.symbol_values"])
        out["reports.write_csv.bytes"] = sum(
            note or 0 for _, note in per_call["reports.write_csv"])
        out["traced_wall_s"] = wall_s
        out["unaccounted_s"] = wall_s - top_level
        return out

    def dump(self) -> dict:
        """Spans as columns, times relative to the first span's start."""
        if not self.spans:
            return {"names": [], "start_s": [], "duration_s": [], "parent": []}
        origin = self.spans[0][1]
        return {
            "names": [s[0] for s in self.spans],
            "start_s": [round(s[1] - origin, 9) for s in self.spans],
            "duration_s": [round(s[2] - s[1], 9) for s in self.spans],
            "parent": [s[3] for s in self.spans],
        }


def _quantile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank quantile; 0.0 when nothing was recorded."""
    if not sorted_values:
        return 0.0
    rank = max(1, -(-len(sorted_values) * q // 1))
    return sorted_values[int(rank) - 1]
