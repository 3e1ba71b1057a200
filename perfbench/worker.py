"""One benchmark process: set-up probe, timed measurement, or naive reference.

``run.py`` starts this file in a fresh interpreter with a pinned engine
environment and reads JSON lines from its standard output:

- ``setup``: import, build the workload's first unit, print ``ready``, exit.
- ``measure``: the same set-up, print ``ready`` just before the first timed
  call, then repeat the workload until ``--seconds`` have passed (at least
  :data:`MIN_REPS` times) and print one ``result`` line.  With ``--trace``
  the layer functions are wrapped with spans first.
- ``reference``: run each unit once (``run.py`` pins the naive stepper for
  this role) with the extra output checks, and print one ``result`` line.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time
import traceback
from typing import Any, Dict, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import repro  # noqa: E402  (after the path set-up above)
from repro.common.counters import GLOBAL_COUNTERS, active_engine_flags  # noqa: E402

from hostprobe import HostProbe  # noqa: E402
from layers import layer_metrics, unit_facts  # noqa: E402
from tracing import Patcher, SpanTracer  # noqa: E402
from workloads import (  # noqa: E402
    check_shard_results,
    digest,
    fig7_offered,
    make_units,
)

#: Timed repetitions made even when one takes longer than ``--seconds``
#: (after the untimed first one).
MIN_REPS = 3


def emit(kind: str, **payload: Any) -> None:
    sys.stdout.write(json.dumps({"kind": kind, **payload}) + "\n")
    sys.stdout.flush()


def _check_source() -> None:
    where = os.path.realpath(os.path.dirname(repro.__file__))
    if not where.startswith(os.path.realpath(SRC) + os.sep):
        raise SystemExit(f"imported repro from {where}, not from {SRC}")


def _run_unit(unit, state) -> Tuple[Dict[str, Any], Optional[Dict[str, Any]]]:
    """Time one unit's run, then summarise and check it outside the clock.

    Returns the record sent to ``run.py`` and the simulated-result summary
    (``None`` when the run or its summary raised)."""
    record: Dict[str, Any] = {"name": unit.name, "digest": None, "problems": []}
    summary = None
    start = time.perf_counter()
    try:
        raw = unit.run(state)
    except Exception:  # a raising run is a failed output, not a crash
        record["time_s"] = time.perf_counter() - start
        record["problems"].append("raised: " + traceback.format_exc(limit=3))
        return record, None
    record["time_s"] = time.perf_counter() - start
    try:
        summary = unit.summarize(state, raw)
        record["digest"] = digest(summary)
        record["work"] = unit.work(summary)
        record["facts"] = unit_facts(summary)
        record["problems"].extend(unit.check(summary))
    except Exception:
        record["problems"].append("check raised: " + traceback.format_exc(limit=3))
    return record, summary


def measure(args: argparse.Namespace) -> None:
    units = make_units(args.workload, args.seed, perturb=args.perturb)
    tracer = None
    if args.trace:
        tracer = SpanTracer()
        tracer.install()
    state = units[0].build()
    emit("ready")
    if args.role == "setup":
        return

    reps: List[Dict[str, Any]] = []
    peak_rss_mb = 0.0
    probe = None
    last_probe = 0.0
    start = time.perf_counter()
    while len(reps) <= MIN_REPS or time.perf_counter() - start < args.seconds:
        GLOBAL_COUNTERS.reset()
        if tracer is not None:
            tracer.take_stats()
        records = []
        for unit in units:
            if state is None:
                state = unit.build()
            record = _run_unit(unit, state)[0]
            state = None
            # Every unit starts from a collected heap, so no unit pays for
            # (or holds memory of) the previous one's garbage.
            gc.collect()
            if probe is not None:
                # Each unit is scaled by the mean of the host-speed probes
                # on either side of it.
                after = probe.seconds()
                record["probe_s"] = (last_probe + after) / 2
                last_probe = after
            records.append(record)
        rep: Dict[str, Any] = {"units": records, "counters": GLOBAL_COUNTERS.as_dict()}
        if tracer is not None:
            rep["spans"] = tracer.take_stats()
        reps.append(rep)
        if probe is None:
            # The first repetition is checked but not timed into the rates.
            # It has the workload's whole memory footprint, read here before
            # the probe's buffer exists.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            probe = HostProbe()
            last_probe = probe.seconds()

    result: Dict[str, Any] = {
        "reps": reps,
        "peak_rss_mb": peak_rss_mb,
        "engine_flags": active_engine_flags(),
    }
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = layer_metrics(reps, tracer.durations("cluster.shard_job"))
        result["dropped_spans"] = tracer.dropped
        if args.spans_out:
            tracer.write(args.spans_out, {"workload": args.workload, "seed": args.seed})
    emit("result", **result)


def reference(args: argparse.Namespace) -> None:
    """Each unit once, plus checks that need an independent recount."""
    shard_results: List[Any] = []
    patcher = Patcher()
    patcher.wrap("repro.cluster.shard", "run_shard_job", lambda fn: _tap(fn, shard_results))
    records = []
    try:
        for unit in make_units(args.workload, args.seed):
            shard_results.clear()
            record, summary = _run_unit(unit, unit.build())
            if summary is not None and "offered_rps" in summary:
                offered = fig7_offered(summary)
                record["offered"] = offered
                if summary["completed"] > offered:
                    record["problems"].append(
                        f"completed {summary['completed']} > offered {offered}"
                    )
            if summary is not None and "aggregates" in summary:
                record["problems"].extend(check_shard_results(summary, shard_results))
            records.append(record)
    finally:
        patcher.restore()
    emit("result", units=records, engine_flags=active_engine_flags())


def _tap(fn, sink: List[Any]):
    def tapped(*args: Any, **kwargs: Any) -> Any:
        result = fn(*args, **kwargs)
        sink.append(result)
        return result

    return tapped


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("role", choices=("setup", "measure", "reference"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--perturb", action="store_true")
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args(argv)
    _check_source()
    if args.role == "reference":
        reference(args)
    else:
        measure(args)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
