"""Host-time spans around calls into each layer's public functions.

The traced run replaces each function named in :data:`LAYER_SPANS` with a
wrapper that records a span (id, parent id, name, start, end) in memory and
accumulates per-name calls, inclusive time and self time (inclusive minus
the time covered by traced children).  Nothing here touches simulated
state, so a traced run must reproduce the untraced output digests exactly.

A function that no longer exists (a deleted engine tier) is skipped: its
metrics then read as absent instead of breaking the benchmark.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (span name, module, qualified name) of each traced layer boundary.
LAYER_SPANS: Tuple[Tuple[str, str, str], ...] = (
    ("cpu.multicore.run", "repro.cpu.multicore", "MultiCoreSystem.run"),
    ("cpu.step", "repro.cpu.core", "Core.step"),
    ("cpu.skip.horizon", "repro.cpu.core", "Core.next_activity_cycle"),
    ("cpu.macro.boundary", "repro.cpu.macroop", "MacroController.on_boundary"),
    ("uintr.apic.accept", "repro.uintr.apic", "LocalApic.accept"),
    ("fig7.run_point", "repro.experiments.fig7_rocksdb", "run_point"),
    ("cluster.driver.run", "repro.cluster.driver", "ClusterDriver.run"),
    ("perf.sweep.map", "repro.perf.engine", "SweepRunner.map"),
    ("cluster.shard_job", "repro.cluster.shard", "run_shard_job"),
    ("cluster.aggregate", "repro.cluster.aggregate", "aggregate_strategy"),
    ("sim.run", "repro.sim.simulator", "Simulator.run"),
    ("runtime.spawn", "repro.runtime.aspen", "AspenRuntime.spawn"),
    ("tenants.schedule", "repro.cluster.tenant", "schedule_group"),
    ("loadgen.schedule", "repro.apps.loadgen", "PoissonLoadGenerator.schedule_into"),
    ("hist.record", "repro.obs.hist", "LatencyHistogram.record"),
    ("hist.merge", "repro.obs.hist", "LatencyHistogram.merge"),
    ("stats.percentile", "repro.common.stats", "percentile"),
)

#: Spans whose individual durations are kept (for percentiles).
DURATION_SPANS = frozenset({"cluster.shard_job"})


class Patcher:
    """Replaces functions by import path and puts the originals back."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, Any]] = []

    def wrap(self, module_name: str, qualname: str, make: Callable[[Callable], Callable]) -> bool:
        """Wrap ``module_name.qualname`` with ``make(original)``.

        Methods are replaced on their class.  A module-level function is
        replaced in every loaded ``repro`` module that bound it by name
        (``from x import f``), so callers see the wrapper whichever way
        they reach it.  Returns False when the target does not exist.
        """
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            return False
        owner: Any = module
        parts = qualname.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part, None)
            if owner is None:
                return False
        attr = parts[-1]
        original = getattr(owner, attr, None)
        if original is None:
            return False
        wrapper = make(original)
        if owner is module:
            for other in list(sys.modules.values()):
                if getattr(other, "__name__", "").startswith("repro") and getattr(
                    other, attr, None
                ) is original:
                    self._set(other, attr, wrapper)
        else:
            self._set(owner, attr, wrapper)
        return True

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


class SpanTracer:
    """In-memory span recorder with per-name self-time accounting."""

    def __init__(self, max_spans: int = 100_000) -> None:
        self.max_spans = max_spans
        self.spans: List[Tuple[int, int, str, float, float]] = []
        self.dropped = 0
        self.origin = time.perf_counter()
        self._next_id = 1
        self._stack: List[List[Any]] = []
        self._stats: Dict[str, List[float]] = {}
        self._durations: Dict[str, List[float]] = {name: [] for name in DURATION_SPANS}
        self._patcher = Patcher()

    def install(self) -> None:
        for name, module_name, qualname in LAYER_SPANS:
            self._patcher.wrap(module_name, qualname, lambda fn, n=name: self._wrapper(n, fn))

    def uninstall(self) -> None:
        self._patcher.restore()

    def _wrapper(self, name: str, fn: Callable) -> Callable:
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter
        stat = self._stats.setdefault(name, [0, 0.0, 0.0])
        durations = self._durations.get(name)
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            span_id = tracer._next_id
            tracer._next_id = span_id + 1
            parent = stack[-1][1] if stack else 0
            frame = [0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                if durations is not None:
                    durations.append(duration)
                if len(spans) < tracer.max_spans:
                    spans.append((span_id, parent, name, start, end))
                else:
                    tracer.dropped += 1

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def take_stats(self) -> Dict[str, Dict[str, float]]:
        """Per-name {calls, total_s, self_s} since the last call; resets."""
        out = {}
        for name, stat in self._stats.items():
            out[name] = {"calls": stat[0], "total_s": stat[1], "self_s": stat[2]}
            stat[0], stat[1], stat[2] = 0, 0.0, 0.0
        return out

    def durations(self, name: str) -> List[float]:
        return list(self._durations.get(name, ()))

    def write(self, path: str, meta: Optional[Dict[str, Any]] = None) -> None:
        """Write the kept spans as JSON (times in seconds from tracer start)."""
        origin = self.origin
        payload = {
            "meta": meta or {},
            "dropped_spans": self.dropped,
            "fields": ["id", "parent", "name", "start_s", "end_s"],
            "spans": [
                [sid, parent, name, round(start - origin, 9), round(end - origin, 9)]
                for sid, parent, name, start, end in self.spans
            ],
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, separators=(",", ":"))
