"""Simulator host-speed benchmark: four seeded workloads, outputs checked.

Usage (from the repository root)::

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

With ``--trace 0`` it prints the end-to-end metrics: simulated cycles per
host second, set-up time and peak memory.  With ``--trace 1`` it makes an
untraced and a traced measurement of half the time each and prints the
per-layer metrics.  Either way every simulated output is checked against the
naive stepper (``REPRO_FAST=0 REPRO_MACRO=0``) on the same seed, and the last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 only when every output
checked out.

``--perturb`` shifts one input of the measured run (a timer interval by one
cycle, or the event tier's preemption costs) while the reference keeps the
original: a negative control, under which the check must fail.

See ``perfbench/README.md`` for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional

from hostprobe import REFERENCE_PROBE_S, HostProbe
from layers import PER_LAYER_UNITS, cycle_shares

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(HERE, "out")
WORKLOADS = (
    "cycle_dense_branchy",
    "cycle_periodic_loops",
    "cycle_manycore_chase",
    "event_rocksdb",
)
#: Set-up is measured in this many fresh processes; ``setup_s`` is the
#: median.
SETUP_SAMPLES = 7
#: Wall-clock limit for any one child process.
CHILD_TIMEOUT_S = 120.0
#: Engine switches this benchmark pins: any inherited override is removed so
#: the shipped defaults are what gets measured.
ENGINE_ENV_PREFIX = "REPRO_"


class BenchError(Exception):
    """A child process failed; no result can be printed."""


def child_env(naive: bool) -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith(ENGINE_ENV_PREFIX)}
    # A warm result cache would time the cache, not the simulator.
    env["REPRO_CACHE"] = "0"
    if naive:
        env["REPRO_FAST"] = "0"
        env["REPRO_MACRO"] = "0"
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def run_child(argv: List[str], naive: bool = False) -> Dict[str, Any]:
    """Run ``worker.py argv``; return its ``result`` line plus the host
    seconds from process start to its ``ready`` line (if it printed one)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, WORKER, *argv],
        cwd=ROOT,
        env=child_env(naive),
        stdout=subprocess.PIPE,
        text=True,
    )
    ready_s: Optional[float] = None
    result: Optional[Dict[str, Any]] = None
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        for line in proc.stdout:
            message = json.loads(line)
            if message["kind"] == "ready" and ready_s is None:
                ready_s = time.perf_counter() - start
            elif message["kind"] == "result":
                result = message
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if proc.returncode != 0:
        raise BenchError(f"worker {argv[0]} exited with code {proc.returncode}")
    if ready_s is None and argv[0] != "reference":
        raise BenchError(f"worker {argv[0]} never became ready")
    out = result or {}
    out["ready_s"] = ready_s
    return out


def setup_seconds(measured: List[str], probe: HostProbe) -> float:
    """One set-up sample: a fresh process's host seconds to its first timed
    call, scaled to the reference host by probes taken just before and
    after it (the host's speed drifts; see hostprobe)."""
    before = probe.seconds()
    ready_s = run_child(["setup", *measured])["ready_s"]
    after = probe.seconds()
    return ready_s * REFERENCE_PROBE_S / ((before + after) / 2)


def git_sha() -> Optional[str]:
    """HEAD of the checkout, or None when it is not a git work tree root."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2:
        return None
    if os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def score(reps: List[Dict[str, Any]], reference: Dict[str, Dict[str, Any]]) -> Dict[str, Any]:
    """Check every measured unit against the reference; per-rep host rates."""
    attempted = failed = 0
    problems: List[str] = []
    rates: List[float] = []
    raw_rates: List[float] = []
    request_rates: List[float] = []
    for rep in reps:
        seconds = cycles = requests = 0.0
        probes: List[float] = []
        timed = all("probe_s" in unit for unit in rep["units"])
        for unit in rep["units"]:
            attempted += 1
            ref = reference[unit["name"]]
            unit_problems = list(unit["problems"]) + list(ref["problems"])
            if unit["digest"] is not None and unit["digest"] != ref["digest"]:
                unit_problems.append(
                    f"digest {unit['digest'][:16]} != naive reference {ref['digest'][:16]}"
                )
            if unit_problems:
                failed += 1
                problems.extend(f"{unit['name']}: {p}" for p in unit_problems)
                continue
            if timed:
                seconds += unit["time_s"]
                cycles += unit["work"]["sim_cycles"]
                requests += unit["work"]["requests"]
                probes.append(unit["probe_s"])
        if seconds > 0:
            # Host seconds rescaled to the reference host (see hostprobe).
            ref_seconds = seconds * REFERENCE_PROBE_S / statistics.mean(probes)
            rates.append(cycles / ref_seconds)
            raw_rates.append(cycles / seconds)
            request_rates.append(requests / ref_seconds)
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "rates": rates,
        "raw_rates": raw_rates,
        "request_rates": request_rates,
    }


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--perturb", action="store_true")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no simulator sources under {ROOT}/src", file=sys.stderr)
        return 2

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    measured = common + (["--perturb"] if args.perturb else [])
    try:
        reference = run_child(["reference", *common], naive=True)
        ref_units = {unit["name"]: unit for unit in reference["units"]}
        if args.trace:
            half = max(1.0, args.seconds / 2)
            os.makedirs(OUT_DIR, exist_ok=True)
            spans_out = os.path.join(OUT_DIR, f"{args.workload}-spans.json")
            plain = run_child(["measure", *measured, "--seconds", str(half)])
            traced = run_child(
                ["measure", *measured, "--seconds", str(half), "--trace", "--spans-out", spans_out]
            )
            runs = {"untraced": plain, "traced": traced}
        else:
            probe = HostProbe()
            setups = [setup_seconds(measured, probe) for _ in range(SETUP_SAMPLES)]
            plain = run_child(["measure", *measured, "--seconds", str(args.seconds)])
            runs = {"untraced": plain}
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    scores = {label: score(run["reps"], ref_units) for label, run in runs.items()}
    attempted = sum(s["attempted"] for s in scores.values())
    failed = sum(s["failed"] for s in scores.values())
    plain_score = scores["untraced"]

    print(
        f"perfbench workload={args.workload} seed={args.seed} git_sha={git_sha()} "
        f"engine_flags={json.dumps(plain['engine_flags'], sort_keys=True)} "
        f"reference_flags={json.dumps(reference['engine_flags'], sort_keys=True)}"
    )
    for name, unit in sorted(ref_units.items()):
        extra = f" offered={unit['offered']}" if "offered" in unit else ""
        print(f"digest {args.workload}/{name} seed={args.seed} sha256={unit['digest']}{extra}")
    for label, s in scores.items():
        for problem in s["problems"][:20]:
            print(f"FAILED [{label}] {problem}")
    print(f"failed_frac {failed / attempted:.6f} ({failed} of {attempted} simulated runs)")
    shares = cycle_shares(plain["reps"][-1]["counters"])
    if shares is not None:
        print(
            "shape core-cycles stepped={stepped:.4f} skipped={skipped:.4f} "
            "replayed={replayed:.4f}".format(**shares)
        )

    metrics: Dict[str, Dict[str, Any]] = {}
    correct = failed == 0 and bool(plain_score["rates"])
    if args.trace:
        traced = runs["traced"]
        layers = dict(traced["layers"])
        # Both runs' rates are probe-scaled, so the host's speed drifting
        # between the two processes does not read as tracing overhead.
        if plain_score["rates"] and scores["traced"]["rates"]:
            untraced_rate = statistics.median(plain_score["rates"])
            traced_rate = statistics.median(scores["traced"]["rates"])
            layers["trace.overhead_frac"] = untraced_rate / traced_rate - 1.0
        for name, unit in PER_LAYER_UNITS.items():
            value = layers.get(name)
            if value is None:
                print(f"metric {name} absent (layer not present in this build)")
                value = 0
            metrics[name] = {"value": value, "unit": unit}
        print(f"spans kept in memory and written to {os.path.relpath(spans_out, ROOT)} "
              f"({traced['dropped_spans']} dropped past the cap)")
    else:
        if plain_score["rates"]:
            metrics["sim_cycles_per_s"] = {
                "value": statistics.median(plain_score["rates"]),
                "unit": "1/s",
            }
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        metrics["peak_rss_mb"] = {"value": plain["peak_rss_mb"], "unit": "MB"}
        if plain_score["raw_rates"]:
            print(
                "unscaled sim_cycles_per_s "
                f"{statistics.median(plain_score['raw_rates']):.6g} 1/s (host seconds as measured)"
            )
        if args.workload.startswith("event_") and plain_score["request_rates"]:
            print(
                "requests_per_s "
                f"{statistics.median(plain_score['request_rates']):.6g} 1/s (scaled host seconds)"
            )
    for name, metric in metrics.items():
        print(f"metric {name} {metric['value']!r} {metric['unit']}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
