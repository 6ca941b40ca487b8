"""Outside-in tracing of rdcontrol's layers for the benchmark's traced run.

A thin timer wraps each public function at the name its caller looks it up
by (a module global such as ``rdcontrol.orchestrator.compression_subproblem``
or a region class method), so nothing under ``src/`` changes.  Spans are
kept in memory as per-name totals: calls, inclusive time and self time,
where self time is a span's duration minus the time of the wrapped calls
made inside it.
"""

from __future__ import annotations

import contextlib
import time
from typing import Callable


class Tracer:
    """Per-name call counts, inclusive time and self time of wrapped calls."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.stats: dict[str, list] = {}  # name -> [calls, inclusive_s, self_s]
        self._children: list[float] = []  # child time of each open span

    def call(self, name: str, fn, args, kwargs):
        self._children.append(0.0)
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = self.clock() - start
            child = self._children.pop()
            if self._children:
                self._children[-1] += duration
            st = self.stats.get(name)
            if st is None:
                st = self.stats[name] = [0, 0.0, 0.0]
            st[0] += 1
            st[1] += duration
            st[2] += duration - child

    def wrap(self, name: str, fn, on_result=None):
        """A plain function (so it binds as a method) that times ``fn``.

        ``on_result(args, result)`` runs after the span has closed.
        """

        def wrapper(*args, **kwargs):
            result = self.call(name, fn, args, kwargs)
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def calls(self, name: str) -> int:
        return self.stats.get(name, (0, 0.0, 0.0))[0]

    def inclusive_s(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[1]

    def self_s(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[2]


@contextlib.contextmanager
def patched(targets, tracer: Tracer, on_result=None):
    """Replace every ``(owner, attribute, metric)`` target by a timed wrapper.

    ``on_result`` maps a metric name to its result hook.  The originals are
    put back on exit, so passes outside the context run unwrapped.  A
    target the program no longer defines is skipped: its metric reads 0.
    """
    hooks = on_result or {}
    saved = []
    try:
        for owner, attr, metric in targets:
            original = owner.__dict__.get(attr)
            if original is None:
                continue
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(metric, original, hooks.get(metric)))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def layer_targets(rd) -> list:
    """The wrapped names, each under the layer metric it feeds."""
    orch = rd.orchestrator
    targets = [
        (orch, "compression_subproblem", "layers.compression_subproblem"),
        (orch, "congestion_subproblem", "layers.congestion_subproblem"),
        (orch, "compression_given_rate", "layers.compression_given_rate"),
        (orch, "dual_iterate", "orchestrator.dual_iterate"),
        (orch, "lagrangian_value", "orchestrator.lagrangian_value"),
        (orch, "primal_objective", "orchestrator.primal_objective"),
        (orch, "primal_violation", "orchestrator.primal_violation"),
        (rd.oracle, "primal_violation", "orchestrator.primal_violation"),
        (rd.scenario, "load_scenario", "scenario.load_scenario"),
        (rd.cli, "load_scenario", "scenario.load_scenario"),
        (rd.cli, "write_trace_csv", "cli.write_trace_csv"),
        (rd.cli, "grid_search_num", "oracle.grid_search_num"),
    ]
    for cls in (rd.regions.BoxRegion, rd.regions.GaussianMacRegion, rd.regions.VertexRegion):
        targets.append((cls, "violation", "regions.violation"))
        targets.append((cls, "max_weight", "regions.max_weight"))
    return targets + solve_targets(rd)


def solve_targets(rd) -> list:
    """``solve`` as the benchmark and the CLI look it up."""
    return [
        (rd.orchestrator, "solve", "orchestrator.solve"),
        (rd.cli, "solve", "orchestrator.solve"),
    ]
