"""Back-end units: UOp wiring, functional-unit limits, LSQ forwarding."""

import pytest

from repro.common.errors import SimulationError
from repro.cpu import isa
from repro.cpu import microcode as mc
from repro.cpu.backend import (
    FU_CLASSES,
    OP_META,
    OP_RECORDS,
    ST_DONE,
    FunctionalUnits,
    LoadStoreQueues,
    UOp,
    squash_penalty_cycles,
)
from repro.cpu.config import CoreParams, TimingParams
from repro.cpu.isa import Op
from repro.cpu.uopcache import UopCache


def make_uop(seq, op=Op.ADD, **kw):
    return UOp(seq=seq, meta=OP_META[op], pc=0, frontend_ready=0, **kw)


class TestUOp:
    def test_serializing_classification(self):
        assert make_uop(1, Op.MSR_WRITE).is_serializing
        assert make_uop(2, Op.STUI).is_serializing
        assert make_uop(3, Op.TESTUI).is_serializing
        assert not make_uop(4, Op.ADD).is_serializing

    def test_branch_classification(self):
        assert make_uop(1, Op.BEQ).is_branch and make_uop(1, Op.BEQ).is_cond_branch
        assert make_uop(2, Op.RET).is_branch and not make_uop(2, Op.RET).is_cond_branch

    def test_source_value_prefers_producer(self):
        producer = make_uop(1, dest=3)
        producer.result = 99
        consumer = make_uop(2, src_regs=(3,))
        consumer.producers[3] = producer
        assert consumer.source_value(3, [0] * 16) == 99

    def test_source_value_falls_back_to_arch(self):
        consumer = make_uop(2, src_regs=(3,))
        regs = [0] * 16
        regs[3] = 42
        assert consumer.source_value(3, regs) == 42


class TestFunctionalUnits:
    def test_per_cycle_limits(self):
        fus = FunctionalUnits(CoreParams(int_alu_units=2))
        port = OP_META[Op.ADD].fu_index
        assert fus.try_acquire(port, cycle=0)
        assert fus.try_acquire(port, cycle=0)
        assert not fus.try_acquire(port, cycle=0)
        assert fus.try_acquire(port, cycle=1)  # fresh cycle

    def test_classes_independent(self):
        fus = FunctionalUnits(CoreParams(int_alu_units=1, mul_units=1))
        assert fus.try_acquire(OP_META[Op.ADD].fu_index, 0)
        assert fus.try_acquire(OP_META[Op.MUL].fu_index, 0)  # different pool

    def test_latency_table(self):
        fus = FunctionalUnits(CoreParams())
        assert fus.latency(OP_META[Op.ADD].index) == 1
        assert fus.latency(OP_META[Op.MUL].index) == 3
        assert fus.latency(OP_META[Op.DIV].index) == 12
        assert fus.latency(OP_META[Op.FADD].index) == 3


class TestOpRecord:
    """The decoded per-op record must agree with the ISA's classification
    sets and the latency derivation for every op, and every decode template
    must carry its own op's record — table drift shows here at once."""

    @pytest.mark.parametrize("op", list(Op), ids=lambda op: op.name)
    def test_record_agrees_with_isa_sets(self, op):
        meta = OP_META[op]
        assert meta.op is op
        assert OP_RECORDS[meta.index] is meta
        assert meta.is_branch == (op in isa.BRANCH_OPS)
        assert meta.is_cond_branch == (op in isa.COND_BRANCH_OPS)
        assert meta.is_load == (op is Op.LOAD)
        assert meta.is_store == (op is Op.STORE)
        assert (meta.is_load or meta.is_store) == (op in isa.MEM_OPS)
        # TESTUI is also gated to the ROB head, on top of the ISA's set.
        assert meta.is_serializing == (op in isa.SERIALIZING_OPS or op is Op.TESTUI)
        expected_class = (
            "int" if op in isa.INT_ALU_OPS
            else "mul" if op in isa.MUL_OPS or op in isa.DIV_OPS
            else "fp" if op in isa.FP_OPS
            else "mem" if op in isa.MEM_OPS
            else "branch" if op in isa.BRANCH_OPS
            else "other"
        )
        assert FU_CLASSES[meta.fu_index] == expected_class
        assert make_uop(1, op).op_index == meta.index

    def test_records_are_dense_and_complete(self):
        assert [meta.index for meta in OP_RECORDS] == list(range(len(Op)))
        assert {meta.op for meta in OP_RECORDS} == set(Op)

    @pytest.mark.parametrize(
        "params",
        [CoreParams(), CoreParams(mul_latency=5, div_latency=20, fp_latency=4, fp_div_latency=9)],
        ids=["default", "custom"],
    )
    def test_latency_table_agrees_with_derivation(self, params):
        fus = FunctionalUnits(params)
        for op in Op:
            assert fus.latency(OP_META[op].index) == fus._latency_of(op), op

    def test_uop_cache_templates_carry_their_ops_record(self):
        cache = UopCache(sets=64, ways=8)
        for pc, op in enumerate(Op):
            cache.fill(pc, isa.Instruction(op), dest=None, src_regs=())
            entry = cache.lookup(pc)
            assert entry.meta is OP_META[op]

    def test_microcode_templates_carry_their_ops_record(self):
        timing = TimingParams()
        routines = [
            mc.senduipi_routine(timing, 3),
            mc.receive_routine(timing, True),
            mc.receive_routine(timing, False),
        ]
        for routine in routines:
            for micro in routine:
                assert micro.meta is OP_META[micro.op], micro


class TestLoadStoreQueues:
    def test_capacity(self):
        lsq = LoadStoreQueues(CoreParams(lq_size=1, sq_size=1, rob_size=8))
        lsq.add(make_uop(1, Op.LOAD))
        assert not lsq.has_load_slot()
        with pytest.raises(SimulationError):
            lsq.add(make_uop(2, Op.LOAD))

    def test_forwarding_from_youngest_older_store(self):
        lsq = LoadStoreQueues(CoreParams())
        old = make_uop(1, Op.STORE)
        old.addr, old.store_value = 0x100, 5
        newer = make_uop(2, Op.STORE)
        newer.addr, newer.store_value = 0x100, 9
        lsq.add(old)
        lsq.add(newer)
        load = make_uop(3, Op.LOAD)
        load.addr = 0x104  # same 8-byte word
        lsq.add(load)
        assert lsq.forward_value(load) == 9

    def test_no_forwarding_from_younger_store(self):
        lsq = LoadStoreQueues(CoreParams())
        store = make_uop(5, Op.STORE)
        store.addr, store.store_value = 0x100, 5
        lsq.add(store)
        load = make_uop(2, Op.LOAD)
        load.addr = 0x100
        lsq.add(load)
        assert lsq.forward_value(load) is None

    def test_unresolved_older_store_detected(self):
        lsq = LoadStoreQueues(CoreParams())
        store = make_uop(1, Op.STORE)  # addr still None
        lsq.add(store)
        load = make_uop(2, Op.LOAD)
        lsq.add(load)
        assert lsq.has_unresolved_older_store(load)
        store.addr = 0x200
        assert not lsq.has_unresolved_older_store(load)

    def test_drop_squashed(self):
        lsq = LoadStoreQueues(CoreParams())
        keep = make_uop(1, Op.LOAD)
        drop = make_uop(2, Op.LOAD)
        drop.squashed = True
        lsq.add(keep)
        lsq.add(drop)
        lsq.drop_squashed()
        assert lsq.loads == [keep]


class TestSquashPenalty:
    def test_rounding_up(self):
        assert squash_penalty_cycles(0, 10) == 0
        assert squash_penalty_cycles(1, 10) == 1
        assert squash_penalty_cycles(10, 10) == 1
        assert squash_penalty_cycles(11, 10) == 2
        assert squash_penalty_cycles(384, 10) == 39
