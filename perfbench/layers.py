"""Per-layer metrics of one traced run, and the run's workload shape.

Counts come from ``GLOBAL_COUNTERS.as_dict()`` (read by prefix, so a deleted
engine tier drops out instead of breaking the benchmark) and from public
simulated statistics; ``*_self_s`` values are traced self times from
:mod:`tracing`.  Counts are those of the last repetition (every repetition
simulates the same inputs); host times are medians over repetitions.
"""

from __future__ import annotations

import statistics
from typing import Any, Dict, List, Optional

#: Per-layer metric name -> unit.  BENCHMARK.json's ``per_layer`` list
#: mirrors this table.
PER_LAYER_UNITS: Dict[str, str] = {
    "cpu.step.calls": "count",
    "cpu.step.self_s": "s",
    "cpu.step.us_per_call": "us",
    "cpu.uopcache.hit_rate": "ratio",
    "cpu.useful_uop_ratio": "ratio",
    "cpu.skip.fraction": "ratio",
    "cpu.skip.horizon_calls": "count",
    "cpu.skip.horizon_self_s": "s",
    "cpu.cycles.stepped_share": "ratio",
    "cpu.cycles.skipped_share": "ratio",
    "cpu.cycles.replayed_share": "ratio",
    "cpu.macro.formations": "count",
    "cpu.macro.form_aborts": "count",
    "cpu.macro.formation_yield": "ratio",
    "cpu.macro.replays": "count",
    "cpu.macro.replayed_fraction": "ratio",
    "cpu.macro.bails": "count",
    "cpu.macro.boundary_self_s": "s",
    "cpu.batch.group_jumps": "count",
    "cpu.batch.cycles_jumped": "count",
    "cpu.batch.scalar_fallbacks": "count",
    "cpu.multicore.run_self_s": "s",
    "uintr.apic.accepts": "count",
    "uintr.apic.accept_self_s": "s",
    "uintr.interrupts_delivered": "count",
    "sim.events_fired": "count",
    "sim.events_fast_forwarded": "count",
    "sim.run_self_s": "s",
    "sim.us_per_event": "us",
    "runtime.spawns": "count",
    "runtime.preemptions": "count",
    "runtime.spawn_self_s": "s",
    "tenants.schedule_self_s": "s",
    "loadgen.schedule_self_s": "s",
    "hist.records": "count",
    "hist.record_self_s": "s",
    "hist.merge_self_s": "s",
    "stats.percentile_self_s": "s",
    "cluster.shard_job_s.p50": "s",
    "cluster.shard_job_s.p90": "s",
    "cluster.shard_job_s.samples": "count",
    "cluster.aggregate_self_s": "s",
    "perf.sweep.overhead_s": "s",
    "trace.overhead_frac": "ratio",
}


FACT_KEYS = ("committed_uops", "squashed_uops", "delivered", "accepts", "preemptions", "requests")


def unit_facts(summary: Dict[str, Any]) -> Dict[str, float]:
    """The simulated statistics the per-layer metrics need from one unit."""
    facts = dict.fromkeys(FACT_KEYS, 0)
    if "stats" in summary:  # cycle tier
        for stats in summary["stats"]:
            facts["committed_uops"] += stats["committed_uops"]
            facts["squashed_uops"] += stats["squashed_uops"]
            facts["delivered"] += stats["interrupts_delivered"]
        facts["accepts"] = sum(apic["accepted"] for apic in summary["apics"])
    elif "aggregates" in summary:  # cluster report
        for agg in summary["aggregates"]:
            facts["preemptions"] += agg["preemptions_total"]
            facts["requests"] += agg["completed"]
    else:  # Figure 7 point
        facts["preemptions"] = summary["preemptions"]
        facts["requests"] = summary["completed"]
    return facts


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _percentile(values: List[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def cycle_shares(counters: Dict[str, float]) -> Optional[Dict[str, float]]:
    """Share of core-cycles stepped, skipped and macro-replayed."""
    stepped = counters.get("cycles_stepped", 0)
    skipped = counters.get("cycles_skipped", 0)
    replayed = counters.get("macro_replayed_cycles", 0)
    total = stepped + skipped + replayed
    if not total:
        return None
    return {"stepped": stepped / total, "skipped": skipped / total, "replayed": replayed / total}


def layer_metrics(reps: List[Dict[str, Any]], shard_job_s: List[float]) -> Dict[str, Any]:
    """Per-layer metrics of a traced run; absent layers map to ``None``."""
    last = reps[-1]
    counters: Dict[str, float] = last["counters"]
    calls = {name: stat["calls"] for name, stat in last["spans"].items()}
    facts = dict.fromkeys(FACT_KEYS, 0)
    for unit in last["units"]:
        for key, value in unit["facts"].items():
            facts[key] += value

    def self_s(name: str) -> Optional[float]:
        if name not in last["spans"]:
            return None
        return statistics.median(rep["spans"][name]["self_s"] for rep in reps)

    def total_s(name: str) -> Optional[float]:
        if name not in last["spans"]:
            return None
        return statistics.median(rep["spans"][name]["total_s"] for rep in reps)

    def counter(key: str) -> Optional[float]:
        return counters.get(key)

    def prefixed_sum(prefix: str) -> Optional[float]:
        keys = [k for k in counters if k.startswith(prefix)]
        return sum(counters[k] for k in keys) if keys else None

    def per_call_us(name: str, count: Optional[float]) -> Optional[float]:
        seconds = total_s(name)
        return None if seconds is None or count is None else _ratio(seconds * 1e6, count)

    shares = cycle_shares(counters) or {"stepped": 0.0, "skipped": 0.0, "replayed": 0.0}
    formations = counter("macro_formations")
    aborts = counter("macro_form_aborts")
    sweep = total_s("perf.sweep.map")
    shard_total = total_s("cluster.shard_job")
    return {
        "cpu.step.calls": calls.get("cpu.step"),
        "cpu.step.self_s": self_s("cpu.step"),
        "cpu.step.us_per_call": per_call_us("cpu.step", calls.get("cpu.step")),
        "cpu.uopcache.hit_rate": counter("uop_hit_rate"),
        "cpu.useful_uop_ratio": _ratio(
            facts["committed_uops"], facts["committed_uops"] + facts["squashed_uops"]
        ),
        "cpu.skip.fraction": counter("skip_fraction"),
        "cpu.skip.horizon_calls": calls.get("cpu.skip.horizon"),
        "cpu.skip.horizon_self_s": self_s("cpu.skip.horizon"),
        "cpu.cycles.stepped_share": shares["stepped"],
        "cpu.cycles.skipped_share": shares["skipped"],
        "cpu.cycles.replayed_share": shares["replayed"],
        "cpu.macro.formations": formations,
        "cpu.macro.form_aborts": aborts,
        "cpu.macro.formation_yield": (
            None if formations is None or aborts is None
            else _ratio(formations, formations + aborts)
        ),
        "cpu.macro.replays": counter("macro_replays"),
        "cpu.macro.replayed_fraction": counter("macro_replayed_fraction"),
        "cpu.macro.bails": prefixed_sum("macro_bail_"),
        "cpu.macro.boundary_self_s": self_s("cpu.macro.boundary"),
        "cpu.batch.group_jumps": counter("batch_group_jumps"),
        "cpu.batch.cycles_jumped": counter("batch_cycles_jumped"),
        "cpu.batch.scalar_fallbacks": counter("batch_scalar_fallbacks"),
        "cpu.multicore.run_self_s": self_s("cpu.multicore.run"),
        "uintr.apic.accepts": facts["accepts"],
        "uintr.apic.accept_self_s": self_s("uintr.apic.accept"),
        "uintr.interrupts_delivered": facts["delivered"],
        "sim.events_fired": counter("events_fired"),
        "sim.events_fast_forwarded": counter("events_fast_forwarded"),
        "sim.run_self_s": self_s("sim.run"),
        "sim.us_per_event": per_call_us("sim.run", counter("events_fired")),
        "runtime.spawns": calls.get("runtime.spawn"),
        "runtime.preemptions": facts["preemptions"],
        "runtime.spawn_self_s": self_s("runtime.spawn"),
        "tenants.schedule_self_s": self_s("tenants.schedule"),
        "loadgen.schedule_self_s": self_s("loadgen.schedule"),
        "hist.records": calls.get("hist.record"),
        "hist.record_self_s": self_s("hist.record"),
        "hist.merge_self_s": self_s("hist.merge"),
        "stats.percentile_self_s": self_s("stats.percentile"),
        "cluster.shard_job_s.p50": _percentile(shard_job_s, 0.5),
        "cluster.shard_job_s.p90": _percentile(shard_job_s, 0.9),
        "cluster.shard_job_s.samples": len(shard_job_s),
        "cluster.aggregate_self_s": self_s("cluster.aggregate"),
        "perf.sweep.overhead_s": (
            None if sweep is None or shard_total is None else sweep - shard_total
        ),
    }
