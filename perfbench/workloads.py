"""The benchmark's four workloads and the oracle that checks their outputs.

Each workload is a list of *units*: one simulation run that is built from the
seed before the clock starts, timed while it runs, and then summarised into a
canonical JSON object holding only simulated results.  The digest of that
object is what two engines, two repetitions or two commits must agree on; no
host time, cache state or hash seed ever enters it.

Only entry points that outlive the planned engine deletions are imported:
``MultiCoreSystem``, the ``microbench`` builders, ``fig7_rocksdb.run_point``,
``ClusterDriver``/``ClusterTopology`` and ``LatencyHistogram``.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import asdict, dataclass
from typing import Any, Callable, Dict, List

from repro.apps import microbench as mb
from repro.cpu import isa
from repro.cpu.delivery import FlushStrategy, TrackedStrategy
from repro.cpu.multicore import MultiCoreSystem
from repro.cpu.program import ProgramBuilder

#: Safety bound on simulated cycles per cycle-tier unit (every unit halts
#: long before it; a unit that does not is reported as a failed check).
MAX_CYCLES = 5_000_000
#: Per-core handler-counter words, 64 bytes apart so each receiver's
#: exactly-once check reads its own word.
COUNTER_STRIDE = 64
#: DRAM-resident pointer chase: 4096 nodes x 64 B = 256 KiB, past the L2.
PTR_NODES = 4096
#: Serially dependent hops per chase iteration, so the workers sit in
#: full-latency memory stalls almost all the time.
CHASE_UNROLL = 16
#: Figure 7's offered load for the event workload: near the knee of the
#: single-worker curve (capacity is about 244k requests/s).
FIG7_LOAD_RPS = 200_000.0
FIG7_DURATION_S = 0.03
FIG7_CONFIGURATIONS = ("uipi", "xui")
CLUSTER_TENANTS = 1024
CLUSTER_SHARDS = 8
CLUSTER_HOSTS = 4
CLUSTER_DURATION_MS = 10.0
CLOCK_HZ = 2e9


def counter_addr(core_id: int) -> int:
    return mb.HANDLER_COUNTER_ADDR + COUNTER_STRIDE * core_id


def digest(summary: Any) -> str:
    """sha256 of the canonical JSON form of a simulated-result summary."""
    text = json.dumps(summary, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class Unit:
    """One timed simulation run of a workload.

    ``build`` does every piece of set-up (programs, topology, memory
    install) and returns the prepared state; ``run`` is the timed call;
    ``summarize`` turns the prepared state and ``run``'s return value into
    simulated results only; ``check`` lists what is wrong with a summary.
    ``work`` is the simulated amount the unit covers: cycles for the cycle
    tier, arrival-window cycles for the event tier, plus completed
    requests for the event tier.
    """

    name: str
    build: Callable[[], Any]
    run: Callable[[Any], Any]
    summarize: Callable[[Any, Any], Dict[str, Any]]
    check: Callable[[Dict[str, Any]], List[str]]
    work: Callable[[Dict[str, Any]], Dict[str, float]]


# ---------------------------------------------------------------------------
# Cycle tier
# ---------------------------------------------------------------------------


@dataclass
class CycleSetup:
    system: MultiCoreSystem
    watch: List[int]
    receivers: List[int]


def _run_cycle(setup: CycleSetup) -> int:
    return setup.system.run(MAX_CYCLES, until_halted=setup.watch)


def _summarize_cycle(setup: CycleSetup, _ran: Any) -> Dict[str, Any]:
    system = setup.system
    return {
        "cycles": system.cycle,
        "halted": [core.halted for core in system.cores],
        "stats": [asdict(core.stats.snapshot()) for core in system.cores],
        "apics": [apic.counters_as_dict() for apic in system.apics],
        "arch_regs": [list(core.arch_regs) for core in system.cores],
        "kb_timers": [
            [core.uintr.kb_timer.armed, core.uintr.kb_timer.deadline] for core in system.cores
        ],
        "receivers": setup.receivers,
        "watch": setup.watch,
        "handler_counters": [system.shared.read(counter_addr(i)) for i in setup.receivers],
    }


def _check_cycle(summary: Dict[str, Any]) -> List[str]:
    problems = []
    for core_id in summary["watch"]:
        if not summary["halted"][core_id]:
            problems.append(f"core {core_id} did not halt within {MAX_CYCLES} cycles")
    for core_id, word in zip(summary["receivers"], summary["handler_counters"]):
        delivered = summary["stats"][core_id]["interrupts_delivered"]
        if word != delivered:
            problems.append(
                f"core {core_id}: handler counter {word} != interrupts_delivered "
                f"{delivered} (delivery not exactly-once)"
            )
    return problems


def _cycle_work(summary: Dict[str, Any]) -> Dict[str, float]:
    return {"sim_cycles": float(summary["cycles"]), "requests": 0.0}


def _cycle_unit(name: str, build: Callable[[], CycleSetup]) -> Unit:
    return Unit(name, build, _run_cycle, _summarize_cycle, _check_cycle, _cycle_work)


def _branchy_program(iterations: int, lcg_start: int):
    """The LCG-driven branchy loop of the delivery tests: effectively random
    branches, so mispredicts are frequent and squash in-flight microcode."""
    b = ProgramBuilder("branchy")
    b.emit(isa.movi(1, 0))
    b.emit(isa.movi(2, iterations))
    b.emit(isa.movi(5, lcg_start))
    b.label("loop")
    b.emit(isa.addi(1, 1, 1))
    b.emit(isa.movi(6, 1103515245))
    b.emit(isa.mul(5, 5, 6))
    b.emit(isa.addi(5, 5, 12345))
    b.emit(isa.shri(6, 5, 16))
    b.emit(isa.andi(6, 6, 1))
    b.emit(isa.beqi(6, 0, "skip"))
    b.emit(isa.addi(4, 4, 1))
    b.label("skip")
    b.emit(isa.blt(1, 2, "loop"))
    b.emit(isa.halt())
    b.emit_default_handler(counter_addr=counter_addr(0))
    return b.build()


def dense_branchy_units(seed: int, perturb: bool = False) -> List[Unit]:
    rng = random.Random(f"cycle_dense_branchy/{seed}")
    lcg_start = rng.randrange(1, 1 << 31)
    interval = 1_500 + rng.randrange(0, 64) + (1 if perturb else 0)

    def build() -> CycleSetup:
        sender = mb.make_uipi_timer_core(interval, 10_000)
        system = MultiCoreSystem(
            [_branchy_program(800, lcg_start), sender.program],
            [TrackedStrategy(), FlushStrategy()],
        )
        system.connect_uipi(sender_core_id=1, receiver_core_id=0, user_vector=1)
        return CycleSetup(system, watch=[0], receivers=[0])

    return [_cycle_unit("branchy_uipi", build)]


def periodic_loops_units(seed: int, perturb: bool = False) -> List[Unit]:
    rng = random.Random(f"cycle_periodic_loops/{seed}")
    interval = 5_000 + rng.randrange(0, 64) + (1 if perturb else 0)

    def build_count_loop() -> CycleSetup:
        workload = mb.make_count_loop(60_000, handler_counter=counter_addr(0))
        system = MultiCoreSystem([workload.program], [TrackedStrategy()])
        workload.install(system.shared)
        system.enable_kb_timer(0)
        system.cores[0].uintr.kb_timer.arm_periodic(interval, now=0)
        return CycleSetup(system, watch=[0], receivers=[0])

    def build_memops() -> CycleSetup:
        workload = mb.make_memops(iterations=6_000, handler_counter=counter_addr(0))
        system = MultiCoreSystem([workload.program], [FlushStrategy()])
        workload.install(system.shared)
        return CycleSetup(system, watch=[0], receivers=[0])

    return [
        _cycle_unit("count_loop_kb_timer", build_count_loop),
        _cycle_unit("memops_baseline", build_memops),
    ]


def manycore_chase_units(seed: int, perturb: bool = False) -> List[Unit]:
    rng = random.Random(f"cycle_manycore_chase/{seed}")
    shift = 1 if perturb else 0
    sender_interval = 1_500 + rng.randrange(0, 100)
    receiver_kb = 7_500 + rng.randrange(0, 100) + shift
    worker_kb = [25_000 + 311 * k + rng.randrange(0, 200) for k in range(14)]
    device_phase = [rng.randrange(0, 200) for _ in range(8)]

    def chase(iterations: int, core_id: int) -> mb.Workload:
        return mb.make_pointer_chase(
            PTR_NODES,
            stride=64,
            iterations=iterations,
            unroll=CHASE_UNROLL,
            handler_counter=counter_addr(core_id),
        )

    def build_fig7_shape() -> CycleSetup:
        """Figure 7's shape at the cycle tier: core 0 is a preempted worker
        taking UIPIs from the dedicated timer core 1 plus its own KB timer;
        cores 2-15 are worker tenants with staggered KB timers."""
        workloads = [chase(15, 0)] + [chase(15 + k, 2 + k) for k in range(14)]
        sender = mb.make_uipi_timer_core(sender_interval, 2)
        programs = [workloads[0].program, sender.program] + [w.program for w in workloads[1:]]
        system = MultiCoreSystem(programs, [FlushStrategy() for _ in programs])
        for workload in workloads:
            workload.install(system.shared)
        system.connect_uipi(sender_core_id=1, receiver_core_id=0, user_vector=1)
        system.enable_kb_timer(0)
        system.cores[0].uintr.kb_timer.arm_periodic(receiver_kb, now=0)
        for k, interval in enumerate(worker_kb):
            system.enable_kb_timer(2 + k)
            system.cores[2 + k].uintr.kb_timer.arm_periodic(interval, now=0)
        workers = [0] + list(range(2, 16))
        return CycleSetup(system, watch=workers, receivers=workers)

    def build_l3fwd_shape() -> CycleSetup:
        """Figure 8's shape: forwarded device interrupts from a fast NIC
        queue (cores 0-3) and a slow one (cores 4-7)."""
        workloads = [chase(20 + k, k) for k in range(8)]
        system = MultiCoreSystem(
            [w.program for w in workloads], [FlushStrategy() for _ in workloads]
        )
        for workload in workloads:
            workload.install(system.shared)
        for k in range(8):
            system.enable_forwarding(k, vector=0x30 + k, user_vector=3)
            interval = 4_000 if k < 4 else 9_000
            for shot in range(5 if k < 4 else 2):
                system.raise_device_interrupt(
                    k, 0x30 + k, delay=1_000 + 173 * k + device_phase[k] + shot * interval
                )
        cores = list(range(8))
        return CycleSetup(system, watch=cores, receivers=cores)

    return [
        _cycle_unit("fig7_chase_16core", build_fig7_shape),
        _cycle_unit("l3fwd_chase_8core", build_l3fwd_shape),
    ]


# ---------------------------------------------------------------------------
# Event tier
# ---------------------------------------------------------------------------


def _perturbed_costs(perturb: bool):
    """Negative control: equal preemption costs for every mechanism."""
    if not perturb:
        return None
    from repro.notify.costs import CostModel

    base = CostModel.paper_defaults()
    flush = base.uipi_receive_flush
    return base.scaled(uipi_receive_tracked=flush, timer_receive_tracked=flush)


def _fig7_unit(configuration: str, seed: int, costs) -> Unit:
    from repro.experiments import fig7_rocksdb

    def run(_setup: Any):
        # Looked up at call time so the traced run's wrapper is seen.
        return fig7_rocksdb.run_point(
            configuration,
            FIG7_LOAD_RPS,
            duration_seconds=FIG7_DURATION_S,
            seed=seed,
            costs=costs,
        )

    def summarize(_setup: Any, point: Any) -> Dict[str, Any]:
        summary = asdict(point)
        summary["seed"] = seed
        return summary

    def check(summary: Dict[str, Any]) -> List[str]:
        problems = []
        if summary["completed"] <= 0:
            problems.append("no request completed")
        if summary["preemptions"] <= 0:
            problems.append("no preemption happened")
        return problems

    def work(summary: Dict[str, Any]) -> Dict[str, float]:
        return {
            "sim_cycles": FIG7_DURATION_S * CLOCK_HZ,
            "requests": float(summary["completed"]),
        }

    return Unit(f"fig7_{configuration}", lambda: None, run, summarize, check, work)


def _cluster_unit(seed: int, costs) -> Unit:
    from repro.cluster import ClusterDriver, ClusterTopology

    topology = ClusterTopology(
        name="perfbench",
        tenants=CLUSTER_TENANTS,
        shards=CLUSTER_SHARDS,
        hosts=CLUSTER_HOSTS,
        duration_ms=CLUSTER_DURATION_MS,
        seed=seed,
    )

    def build():
        return ClusterDriver(topology, jobs=1, costs=costs)

    def run(driver: Any):
        return driver.run()

    def summarize(_driver: Any, report: Any) -> Dict[str, Any]:
        return report.to_json()

    def check(summary: Dict[str, Any]) -> List[str]:
        return check_cluster_report(summary)

    def work(summary: Dict[str, Any]) -> Dict[str, float]:
        shard_jobs = len(summary["aggregates"]) * CLUSTER_SHARDS
        return {
            "sim_cycles": shard_jobs * CLUSTER_DURATION_MS * 1e-3 * CLOCK_HZ,
            "requests": float(sum(agg["completed"] for agg in summary["aggregates"])),
        }

    return Unit("cluster_rocksdb", build, run, summarize, check, work)


def check_cluster_report(summary: Dict[str, Any]) -> List[str]:
    """Self-consistency of one ``ClusterReport`` in JSON form."""
    from repro.cluster import ClusterReport
    from repro.obs.hist import LatencyHistogram

    problems = []
    if ClusterReport.from_json(summary).to_json() != summary:
        problems.append("ClusterReport does not round-trip through to_json/from_json")
    for agg in summary["aggregates"]:
        name = agg["strategy"]
        if not 0 < agg["completed"] <= agg["offered"]:
            problems.append(
                f"{name}: completed {agg['completed']} outside (0, offered {agg['offered']}]"
            )
        hist = LatencyHistogram.from_state(agg["hist_state"])
        measured = agg["completed"] - agg["scans"]
        if not hist.count == agg["count"] == measured:
            problems.append(
                f"{name}: merged histogram count {hist.count} / aggregate count "
                f"{agg['count']} != measured completions {measured}"
            )
    return problems


def event_rocksdb_units(seed: int, perturb: bool = False) -> List[Unit]:
    rng = random.Random(f"event_rocksdb/{seed}")
    fig7_seed = rng.randrange(1, 1 << 31)
    cluster_seed = rng.randrange(1, 1 << 31)
    costs = _perturbed_costs(perturb)
    units = [_fig7_unit(c, fig7_seed, costs) for c in FIG7_CONFIGURATIONS]
    units.append(_cluster_unit(cluster_seed, costs))
    return units


WORKLOADS: Dict[str, Callable[..., List[Unit]]] = {
    "cycle_dense_branchy": dense_branchy_units,
    "cycle_periodic_loops": periodic_loops_units,
    "cycle_manycore_chase": manycore_chase_units,
    "event_rocksdb": event_rocksdb_units,
}


def make_units(workload: str, seed: int, perturb: bool = False) -> List[Unit]:
    try:
        factory = WORKLOADS[workload]
    except KeyError:
        raise SystemExit(f"unknown workload {workload!r}; known: {sorted(WORKLOADS)}")
    return factory(seed, perturb)


def fig7_offered(summary: Dict[str, Any]) -> int:
    """Recount the arrivals a Figure 7 point was offered, independently of
    the run: the load generator draws from its own named stream, so the
    same seed replays the same arrival window."""
    from repro.apps.loadgen import PoissonLoadGenerator
    from repro.apps.rocksdb import BimodalServiceModel
    from repro.common.rng import RngStreams

    rng = RngStreams(seed=summary["seed"])
    generator = PoissonLoadGenerator(
        summary["offered_rps"], service_model=BimodalServiceModel(rng=rng), rng=rng
    )
    return sum(1 for _ in generator.arrivals(FIG7_DURATION_S * CLOCK_HZ))


def check_shard_results(summary: Dict[str, Any], shard_results: List[Any]) -> List[str]:
    """Per-shard conservation, and the report's aggregates rebuilt from the
    individual ``ShardResult`` objects of the same run."""
    from repro.obs.hist import LatencyHistogram

    problems = []
    by_strategy: Dict[str, List[Any]] = {}
    for result in shard_results:
        by_strategy.setdefault(result.strategy, []).append(result)
        where = f"{result.strategy} shard {result.shard_index}"
        if not 0 <= result.completed <= result.offered:
            problems.append(
                f"{where}: completed {result.completed} outside [0, offered {result.offered}]"
            )
        measured = result.completed - result.scans
        if result.histogram().count != measured:
            problems.append(
                f"{where}: histogram count {result.histogram().count} != measured "
                f"completions {measured}"
            )
    for agg in summary["aggregates"]:
        results = by_strategy.get(agg["strategy"], [])
        if len(results) != CLUSTER_SHARDS:
            problems.append(f"{agg['strategy']}: saw {len(results)} shard results")
            continue
        for field in ("offered", "completed", "in_window", "scans", "preemptions_total"):
            total = sum(getattr(result, field) for result in results)
            if total != agg[field]:
                problems.append(f"{agg['strategy']}: shard {field} sum {total} != {agg[field]}")
        merged = LatencyHistogram.merge_many(result.histogram() for result in results)
        if merged.to_state() != agg["hist_state"]:
            problems.append(f"{agg['strategy']}: merged shard histograms != report histogram")
    return problems
