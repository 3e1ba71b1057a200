"""Back-end structures: in-flight micro-ops, functional units, LSQ.

The :class:`UOp` is the unit of everything in flight: program instructions
decode to one µop each (``senduipi`` expands via the MSROM), and interrupt
microcode is injected as µop streams by the front-end.  Each µop carries the
``from_interrupt`` source bit the tracking hardware adds to every ROB entry
(§4.2 "bill of materials").
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.common.errors import SimulationError
from repro.cpu.config import CoreParams
from repro.cpu.isa import (
    BRANCH_OPS,
    COND_BRANCH_OPS,
    DIV_OPS,
    FP_OPS,
    INT_ALU_OPS,
    MUL_OPS,
    Instruction,
    Op,
)

# µop lifecycle states
ST_WAITING = 0  # in ROB, operands or front-end latency outstanding
ST_READY = 1  # eligible for issue
ST_EXECUTING = 2
ST_DONE = 3

# Op members bound once at import: an enum member read inside a function
# takes ``EnumType``'s slow attribute hook (detlint PRO105).
_LOAD = Op.LOAD
_STORE = Op.STORE
_FDIV = Op.FDIV

# TESTUI is gated to the ROB head (not a stall) so it observes the
# architectural UIF, which CLUI/STUI update at commit.
_SERIALIZING_OPS = frozenset((Op.MSR_WRITE, Op.STUI, Op.TESTUI))

#: Execution-resource classes; a class's position is its ``fu_index``, the
#: slot it occupies in :class:`FunctionalUnits`' per-cycle port tables.
FU_CLASSES: Tuple[str, ...] = ("int", "mul", "fp", "mem", "branch", "other")
_NO_PORTS_USED = (0,) * len(FU_CLASSES)


def _classify_op(op: Op) -> str:
    if op in INT_ALU_OPS:
        return "int"
    if op in MUL_OPS or op in DIV_OPS:
        return "mul"
    if op in FP_OPS:
        return "fp"
    if op is _LOAD or op is _STORE:
        return "mem"
    if op in BRANCH_OPS:
        return "branch"
    return "other"


@dataclass(frozen=True, slots=True)
class OpMeta:
    """The decoded per-op record: everything the pipeline asks about an op,
    classified once at import.

    Decode templates (:class:`repro.cpu.uopcache.UopCacheEntry`,
    :class:`repro.cpu.microcode.MicroOp`) carry their op's record and
    :class:`UOp` copies its flags, so no per-µop path hashes an :class:`Op`
    or reads an enum member (both are Python-level and slow on CPython).
    ``index`` is the op's dense position, keying per-core op tables such as
    :class:`FunctionalUnits`' latency list.
    """

    op: Op
    index: int
    is_serializing: bool
    is_branch: bool
    is_cond_branch: bool
    is_load: bool
    is_store: bool
    #: Position of the op's execution-resource class in :data:`FU_CLASSES`.
    fu_index: int


def _decode_op(op: Op, index: int) -> OpMeta:
    return OpMeta(
        op=op,
        index=index,
        is_serializing=op in _SERIALIZING_OPS,
        is_branch=op in BRANCH_OPS,
        is_cond_branch=op in COND_BRANCH_OPS,
        is_load=op is _LOAD,
        is_store=op is _STORE,
        fu_index=FU_CLASSES.index(_classify_op(op)),
    )


#: Every op's record, in dense-index order.
OP_RECORDS: Tuple[OpMeta, ...] = tuple(_decode_op(op, i) for i, op in enumerate(Op))
#: Decode-time lookup from an op to its record (never used per µop).
OP_META: Dict[Op, OpMeta] = {meta.op: meta for meta in OP_RECORDS}


class UOp:
    """One in-flight micro-op (a ROB entry)."""

    __slots__ = (
        "seq",
        "op",
        "pc",
        "instr",
        "semantic",
        "is_micro",
        "from_interrupt",
        "macro_last",
        "dest",
        "src_regs",
        "imm",
        "target",
        "safepoint",
        "chain",
        "extra_latency",
        "pred_taken",
        "pred_target",
        "history_token",
        "ras_snapshot",
        "state",
        "wait_count",
        "producers",
        "dependents",
        "result",
        "addr",
        "store_value",
        "frontend_ready",
        "complete_cycle",
        "squashed",
        "uitt_index",
        "macro_first",
        "actual_taken",
        "actual_target",
        "is_serializing",
        "is_branch",
        "is_cond_branch",
        "is_load",
        "is_store",
        "op_index",
        "fu_index",
    )

    def __init__(
        self,
        seq: int,
        meta: OpMeta,
        pc: int,
        frontend_ready: int,
        dest: Optional[int] = None,
        src_regs: tuple = (),
        imm: int = 0,
        extra_latency: int = 0,
        from_interrupt: bool = False,
        instr: Optional[Instruction] = None,
        target: Optional[int] = None,
        safepoint: bool = False,
        semantic: str = "",
        is_micro: bool = False,
        macro_first: bool = True,
        macro_last: bool = True,
        chain: bool = False,
        uitt_index: int = 0,
    ) -> None:
        # The program-fetch path passes the first twelve arguments
        # positionally: a keyword call to a class builds a kwargs dict.
        self.seq = seq
        self.op = meta.op
        # The decoded record's flags, copied once at dispatch; read many
        # times per µop on the commit/complete/issue/squash paths.
        self.is_serializing = meta.is_serializing
        self.is_branch = meta.is_branch
        self.is_cond_branch = meta.is_cond_branch
        self.is_load = meta.is_load
        self.is_store = meta.is_store
        self.op_index = meta.index
        self.fu_index = meta.fu_index
        self.pc = pc
        self.instr = instr
        self.semantic = semantic
        self.is_micro = is_micro
        self.from_interrupt = from_interrupt
        self.macro_last = macro_last
        self.dest = dest
        self.src_regs = src_regs
        self.imm = imm
        self.target = target
        self.safepoint = safepoint
        self.chain = chain
        self.extra_latency = extra_latency
        self.uitt_index = uitt_index
        # prediction metadata (branches only)
        self.pred_taken = False
        self.pred_target: Optional[int] = None
        self.history_token = 0
        self.ras_snapshot: Optional[List[int]] = None
        # dynamic state
        self.state = ST_WAITING
        self.wait_count = 0
        self.producers: Dict[int, "UOp"] = {}
        self.dependents: List["UOp"] = []
        self.result: int = 0
        self.addr: Optional[int] = None
        self.store_value: int = 0
        self.frontend_ready = frontend_ready
        self.complete_cycle = -1
        self.squashed = False
        self.macro_first = macro_first
        self.actual_taken = False
        self.actual_target: Optional[int] = None

    def source_value(self, reg: int, arch_regs: List[int]) -> int:
        """Operand value: the in-flight producer's result, or the committed register."""
        producer = self.producers.get(reg)
        if producer is not None:
            return producer.result
        return arch_regs[reg]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tag = "µ" if self.is_micro else ""
        return f"<UOp{tag} #{self.seq} {self.op.name} pc={self.pc} st={self.state}>"


class FunctionalUnits:
    """Per-cycle issue-bandwidth limits for each execution-resource class.

    The tables are lists: port use and limits indexed by ``fu_index`` (the
    class's position in :data:`FU_CLASSES`), latency by the op's dense
    ``index`` — so the issue path never hashes an :class:`Op`.
    """

    def __init__(self, params: CoreParams) -> None:
        self.params = params
        self._cycle = -1
        limits = {
            "int": params.int_alu_units,
            "mul": params.mul_units,
            "fp": params.fp_units,
            "mem": 3,  # 2 load + 1 store ports, pooled
            "branch": 2,
            "other": params.issue_width,
        }
        self._limits: List[int] = [limits[name] for name in FU_CLASSES]
        self._used: List[int] = [0] * len(FU_CLASSES)
        # Per-op latency resolved once against this core's parameters; the
        # issue hot path reads the table instead of re-deriving per µop.
        self._latency: List[int] = [self._latency_of(meta.op) for meta in OP_RECORDS]

    def try_acquire(self, fu_index: int, cycle: int) -> bool:
        """Claim one port of class ``fu_index`` this cycle, if one is free."""
        # Keyed on the cycle *value*, not on call count, so the bandwidth
        # table resets correctly when the cycle-skipping engine jumps the
        # clock over quiescent stretches.
        used = self._used
        if cycle != self._cycle:
            self._cycle = cycle
            used[:] = _NO_PORTS_USED
        count = used[fu_index]
        if count >= self._limits[fu_index]:
            return False
        used[fu_index] = count + 1
        return True

    def _latency_of(self, op: Op) -> int:
        params = self.params
        if op in MUL_OPS:
            return params.mul_latency
        if op in DIV_OPS:
            return params.div_latency
        if op is _FDIV:
            return params.fp_div_latency
        if op in FP_OPS:
            return params.fp_latency
        return params.int_alu_latency

    def latency(self, op_index: int) -> int:
        """Execution latency of the op with dense index ``op_index``."""
        return self._latency[op_index]


class LoadStoreQueues:
    """Occupancy tracking plus store-to-load forwarding over in-flight stores."""

    def __init__(self, params: CoreParams) -> None:
        self.params = params
        self.loads: List[UOp] = []
        self.stores: List[UOp] = []

    def has_load_slot(self) -> bool:
        return len(self.loads) < self.params.lq_size

    def has_store_slot(self) -> bool:
        return len(self.stores) < self.params.sq_size

    def add(self, uop: UOp) -> None:
        if uop.is_load:
            if not self.has_load_slot():
                raise SimulationError("load queue overflow")
            self.loads.append(uop)
        elif uop.is_store:
            if not self.has_store_slot():
                raise SimulationError("store queue overflow")
            self.stores.append(uop)

    def remove(self, uop: UOp) -> None:
        if uop.is_load and uop in self.loads:
            self.loads.remove(uop)
        elif uop.is_store and uop in self.stores:
            self.stores.remove(uop)

    def has_unresolved_older_store(self, load: UOp) -> bool:
        """Any older store whose address is still unknown?  Loads wait for
        those (conservative memory disambiguation, no replay machinery)."""
        for store in self.stores:
            if store.seq < load.seq and store.addr is None and not store.squashed:
                return True
        return False

    def forward_value(self, load: UOp) -> Optional[int]:
        """Youngest older same-word store's value, if its address is known."""
        if load.addr is None:
            return None
        word = load.addr & ~0x7
        best: Optional[UOp] = None
        for store in self.stores:
            if store.seq < load.seq and store.addr is not None and (store.addr & ~0x7) == word:
                if best is None or store.seq > best.seq:
                    best = store
        return best.store_value if best is not None else None

    def drop_squashed(self) -> None:
        self.loads = [u for u in self.loads if not u.squashed]
        self.stores = [u for u in self.stores if not u.squashed]


def squash_penalty_cycles(num_squashed: int, squash_width: int) -> int:
    """Cycles the squash occupies given the per-cycle squash-width limit."""
    if num_squashed <= 0:
        return 0
    return int(math.ceil(num_squashed / squash_width))
