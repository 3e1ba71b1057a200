"""Micro-op cache: decoded-form caching and the §4.4 safepoint bit."""

import pytest

from tests.conftest import COUNTER_ADDR

from repro.common.errors import ConfigError
from repro.cpu import isa
from repro.cpu.delivery import FlushStrategy, TrackedStrategy
from repro.cpu.multicore import MultiCoreSystem
from repro.cpu.program import ProgramBuilder
from repro.cpu.uopcache import UopCache


class TestUopCacheStructure:
    def test_miss_then_hit(self):
        cache = UopCache()
        assert cache.lookup(5) is None
        cache.fill(5, isa.addi(1, 1, 1), dest=1, src_regs=(1,))
        entry = cache.lookup(5)
        assert entry is not None
        assert entry.dest == 1 and entry.src_regs == (1,)

    def test_safepoint_bit_cached(self):
        cache = UopCache()
        cache.fill(7, isa.addi(1, 1, 1).with_safepoint(), dest=1, src_regs=(1,))
        assert cache.lookup(7).safepoint is True
        cache.fill(8, isa.addi(1, 1, 1), dest=1, src_regs=(1,))
        assert cache.lookup(8).safepoint is False

    def test_way_eviction(self):
        cache = UopCache(sets=1, ways=2)
        for pc in (1, 2, 3):
            cache.fill(pc, isa.nop(), dest=None, src_regs=())
        assert cache.lookup(1) is None  # oldest evicted
        assert cache.lookup(3) is not None

    def test_refill_replaces(self):
        cache = UopCache()
        cache.fill(5, isa.addi(1, 1, 1), dest=1, src_regs=(1,))
        cache.fill(5, isa.addi(2, 2, 2), dest=2, src_regs=(2,))
        assert cache.lookup(5).dest == 2

    def test_hit_rate(self):
        cache = UopCache()
        cache.lookup(1)
        cache.fill(1, isa.nop(), None, ())
        cache.lookup(1)
        assert cache.hit_rate == pytest.approx(0.5)

    def test_invalid_geometry(self):
        with pytest.raises(ConfigError):
            UopCache(sets=0)

    def test_invalidate_all(self):
        cache = UopCache()
        cache.fill(3, isa.nop(), None, ())
        cache.invalidate_all()
        assert cache.lookup(3) is None


class TestUopCacheInCore:
    def test_loops_hit_the_uop_cache(self):
        builder = ProgramBuilder("loop")
        builder.emit(isa.movi(1, 0))
        builder.emit(isa.movi(2, 2000))
        builder.label("loop")
        builder.emit(isa.addi(1, 1, 1))
        builder.emit(isa.blt(1, 2, "loop"))
        builder.emit(isa.halt())
        system = MultiCoreSystem([builder.build()], [FlushStrategy()])
        system.run(100_000, until_halted=[0])
        core = system.cores[0]
        assert core.uop_cache.hit_rate > 0.9  # the hot loop lives in the DSB

    def test_hits_shorten_frontend_latency(self):
        """A loop-resident program runs faster than with the cache disabled
        (mispredict recovery refills through the shorter path)."""
        def run(bonus):
            builder = ProgramBuilder("loop")
            builder.emit(isa.movi(1, 0))
            builder.emit(isa.movi(2, 3000))
            builder.emit(isa.movi(5, 7))
            builder.label("loop")
            builder.emit(isa.addi(1, 1, 1))
            # An unpredictable branch so front-end depth matters.
            builder.emit(isa.movi(6, 1103515245))
            builder.emit(isa.mul(5, 5, 6))
            builder.emit(isa.addi(5, 5, 12345))
            builder.emit(isa.shri(6, 5, 16))
            builder.emit(isa.andi(6, 6, 1))
            builder.emit(isa.beqi(6, 0, "skip"))
            builder.emit(isa.addi(4, 4, 1))
            builder.label("skip")
            builder.emit(isa.blt(1, 2, "loop"))
            builder.emit(isa.halt())
            system = MultiCoreSystem([builder.build()], [FlushStrategy()])
            system.cores[0].uop_cache.hit_depth_bonus = bonus
            system.run(10_000_000, until_halted=[0])
            return system.cycle

        assert run(bonus=4) < run(bonus=0)

    def test_safepoint_delivery_from_uop_cache_path(self):
        """§4.4: safepoint-mode delivery still works when the safepoint
        instruction is served from the micro-op cache (hot loop)."""
        builder = ProgramBuilder("hot")
        builder.emit(isa.movi(1, 0))
        builder.emit(isa.movi(2, 30_000))
        builder.label("loop")
        builder.emit(isa.addi(1, 1, 1))
        builder.emit(isa.blt(1, 2, "loop").with_safepoint())
        builder.emit(isa.halt())
        builder.emit_default_handler(counter_addr=COUNTER_ADDR)
        system = MultiCoreSystem([builder.build()], [TrackedStrategy()])
        system.enable_kb_timer(0)
        core = system.cores[0]
        core.uintr.safepoint_mode = True
        core.uintr.kb_timer.arm_periodic(5000, now=0)
        system.run(3_000_000, until_halted=[0])
        assert core.halted
        assert core.uop_cache.hit_rate > 0.9
        assert core.stats.interrupts_delivered >= 3
        assert system.shared.read(COUNTER_ADDR) == core.stats.interrupts_delivered

    def test_safepoint_at_consults_cache(self):
        builder = ProgramBuilder("p")
        builder.emit(isa.nop())
        builder.emit(isa.safepoint())
        builder.emit(isa.halt())
        system = MultiCoreSystem([builder.build()], [TrackedStrategy()])
        core = system.cores[0]
        assert core.safepoint_at(1) is True
        assert core.safepoint_at(0) is False
        assert core.safepoint_at(99) is False


class TestFullTemplate:
    """The entry is the complete decoded form: op and extra issue latency
    ride along so a hit needs no re-derivation (cheap-copy instantiation)."""

    def test_op_and_latency_cached(self):
        cache = UopCache()
        instruction = isa.addi(1, 1, 1)
        cache.fill(9, instruction, dest=1, src_regs=(1,), extra_latency=7)
        entry = cache.lookup(9)
        assert entry.meta.op is instruction.op
        assert entry.extra_latency == 7

    def test_extra_latency_defaults_to_zero(self):
        cache = UopCache()
        cache.fill(3, isa.nop(), dest=None, src_regs=())
        assert cache.lookup(3).extra_latency == 0

    def test_mru_fast_path_counts_hit(self):
        """Back-to-back lookups of the hottest PC take the tail fast path
        and still count as hits with correct LRU state."""
        cache = UopCache(sets=1, ways=4)
        for pc in (1, 2, 3):
            cache.fill(pc, isa.nop(), dest=None, src_regs=())
        before = cache.hits
        assert cache.lookup(3).pc == 3  # MRU tail
        assert cache.lookup(3).pc == 3
        assert cache.hits == before + 2
        # LRU order unchanged by the fast path: filling a 4th then 5th PC
        # still evicts 1 (the coldest), not 3.
        cache.fill(4, isa.nop(), dest=None, src_regs=())
        cache.fill(5, isa.nop(), dest=None, src_regs=())
        assert cache.lookup(1) is None
        assert cache.lookup(3) is not None
