"""MSROM microcode routines for the user-interrupt paths (§3.3, §3.5).

Three routines matter to the paper's timing story:

- ``senduipi`` (sender): look up the UITT entry, post the vector into the
  destination UPID's PIR, set ON, read NDST/NV, and write the ICR — 57
  micro-ops, dominated by serializing MSR writes (§3.5: 383 cycles total,
  279 of them stall).
- *notification processing* (receiver): read the current thread's UPID,
  latch the posted vector into UIRR, clear the ON bit.  The UPID read is the
  memory-gap cost tracked interrupts cannot avoid for IPIs (231 vs. 105
  cycles, §4.2).
- *interrupt delivery* (receiver): push SP/PC/vector onto the user stack,
  clear UIF, update UIRR, and transfer to the registered handler — the
  105-cycle path that KB-timer and forwarded-device interrupts enter
  directly (§4.3, §4.5).

Micro-ops carry a ``semantic`` tag; the core applies the architectural side
effect (APIC ICR write, UPID bit updates, UIF changes) when the micro-op
*commits*, so wrong-path microcode has no effect.  Memory-op addresses that
come from architectural state (UPID, UITT) are resolved by the core at
execute time via the semantic tag.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import List, Optional, Tuple

from repro.cpu.backend import OP_META, OpMeta
from repro.cpu.config import TimingParams
from repro.cpu.isa import Op, RegNames


@dataclass(frozen=True, slots=True)
class MicroOp:
    """One MSROM micro-op.

    ``op`` selects the execution resource/latency class; ``semantic`` names
    the architectural effect.  ``chain`` makes the micro-op depend on the
    previous micro-op of the routine (modelling the sequential portions of
    microcode); un-chained micro-ops only have register dependences.
    """

    op: Op
    semantic: str = ""
    dest: Optional[int] = None
    src1: Optional[int] = None
    src2: Optional[int] = None
    imm: int = 0
    extra_latency: int = 0
    chain: bool = False
    #: Derived source-register tuple, computed once at construction so the
    #: dispatch hot path instantiates the template by copy.
    src_regs: Tuple[int, ...] = field(default=(), init=False, compare=False, repr=False)
    #: The op's decoded record, resolved once at construction likewise.
    meta: OpMeta = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "src_regs", tuple(r for r in (self.src1, self.src2) if r is not None)
        )
        object.__setattr__(self, "meta", OP_META[self.op])


# Semantic tags (shared with the core's commit logic)
SEM_UITT_LOAD = "uitt_load"
SEM_UPID_SET_PIR = "upid_set_pir"
SEM_UPID_READ_NDST = "upid_read_ndst"
SEM_ICR_WRITE = "icr_write"
SEM_NOTIF_READ_PIR = "notif_read_pir"
SEM_NOTIF_LATCH_UIRR = "notif_latch_uirr"
SEM_NOTIF_CLEAR_ON = "notif_clear_on"
SEM_DEL_PUSH_SP = "del_push_sp"
SEM_DEL_PUSH_PC = "del_push_pc"
SEM_DEL_PUSH_VEC = "del_push_vec"
SEM_DEL_ADJUST_SP = "del_adjust_sp"
SEM_DEL_CLEAR_UIF = "del_clear_uif"
SEM_DEL_UPDATE_UIRR = "del_update_uirr"

#: Semantics whose memory address is supplied by architectural state rather
#: than computed from registers.
ARCH_ADDR_SEMANTICS = frozenset(
    {SEM_UITT_LOAD, SEM_UPID_SET_PIR, SEM_UPID_READ_NDST, SEM_NOTIF_READ_PIR, SEM_NOTIF_CLEAR_ON}
)


def senduipi_routine(timing: TimingParams, uitt_index: int) -> List[MicroOp]:
    """The 57-micro-op senduipi expansion (§3.5).

    The routine's visible effects: PIR/ON update in the destination UPID
    (so the receiver's notification processing finds the vector) and the ICR
    write (which makes the local APIC send the IPI).  The serializing MSR
    writes carry the measured 279 stall cycles between them.
    """
    uops: List[MicroOp] = []
    # Entry: permission/UIF checks and UITT index validation.
    uops.append(
        MicroOp(Op.ADD, semantic="senduipi_entry", extra_latency=timing.msrom_entry_latency)
    )
    uops.append(MicroOp(Op.LOAD, semantic=SEM_UITT_LOAD, imm=uitt_index, chain=True))
    # Read-modify-write of the destination UPID: set PIR bit and ON bit.
    uops.append(MicroOp(Op.STORE, semantic=SEM_UPID_SET_PIR, imm=uitt_index, chain=True))
    # Read the routing fields (NDST/NV) for the IPI.
    uops.append(MicroOp(Op.LOAD, semantic=SEM_UPID_READ_NDST, imm=uitt_index, chain=True))
    # Serializing MSR work brackets the ICR write: the IPI launches partway
    # through the routine (Figure 2: the receiver is interrupted at ~380
    # while senduipi itself retires at ~383).
    uops.append(
        MicroOp(
            Op.MSR_WRITE,
            semantic="senduipi_msr_setup",
            extra_latency=timing.senduipi_pre_icr_stall,
            chain=True,
        )
    )
    uops.append(
        MicroOp(
            Op.MSR_WRITE,
            semantic=SEM_ICR_WRITE,
            imm=uitt_index,
            extra_latency=timing.senduipi_icr_stall,
            chain=True,
        )
    )
    uops.append(
        MicroOp(
            Op.MSR_WRITE,
            semantic="senduipi_msr_teardown",
            extra_latency=timing.senduipi_post_icr_stall,
            chain=True,
        )
    )
    # Bookkeeping micro-ops bringing the routine to the measured 57.
    while len(uops) < timing.senduipi_uop_count:
        uops.append(MicroOp(Op.ADD, semantic="senduipi_fill"))
    return uops


def notification_routine(timing: TimingParams) -> List[MicroOp]:
    """Notification processing (§3.3 step 4).

    Reads the current thread's UPID (a remote-dirty line when a sender just
    posted to it — the dominant cost), latches PIR into UIRR, clears ON.
    """
    return [
        MicroOp(Op.ADD, semantic="notif_entry", extra_latency=timing.msrom_entry_latency),
        MicroOp(Op.LOAD, semantic=SEM_NOTIF_READ_PIR, chain=True),
        # The ON-bit update is the first externally observable notification
        # event (§3.5's measurement anchor); the UIRR latch follows it.
        MicroOp(Op.STORE, semantic=SEM_NOTIF_CLEAR_ON, chain=True),
        MicroOp(Op.MSR_WRITE, semantic=SEM_NOTIF_LATCH_UIRR, extra_latency=timing.notif_latch_stall, chain=True),
        MicroOp(Op.ADD, semantic="notif_fill", chain=True),
    ]


def delivery_routine(timing: TimingParams) -> List[MicroOp]:
    """User interrupt delivery (§3.3 step 5) — the 105-cycle path.

    Pushes SP, PC, and the vector onto the user stack (the SP read is what
    the §6.1 worst case chains on), clears UIF, updates UIRR, and hands off
    to the registered handler.  The front-end continues fetching at the
    handler entry immediately after these micro-ops.
    """
    sp = RegNames.SP
    return [
        MicroOp(Op.ADD, semantic="del_entry", extra_latency=timing.msrom_entry_latency),
        # Pushes: addresses computed from the architectural SP register.
        MicroOp(Op.STORE, semantic=SEM_DEL_PUSH_SP, src1=sp, imm=-8),
        MicroOp(Op.STORE, semantic=SEM_DEL_PUSH_PC, src1=sp, imm=-16),
        MicroOp(Op.STORE, semantic=SEM_DEL_PUSH_VEC, src1=sp, imm=-24),
        MicroOp(Op.SUB, semantic=SEM_DEL_ADJUST_SP, dest=sp, src1=sp, imm=24),
        MicroOp(Op.MSR_WRITE, semantic=SEM_DEL_CLEAR_UIF, extra_latency=timing.uif_write_stall, chain=True),
        MicroOp(Op.MSR_WRITE, semantic=SEM_DEL_UPDATE_UIRR, extra_latency=timing.uirr_write_stall, chain=True),
        MicroOp(Op.ADD, semantic="del_fill", chain=True),
    ]


def receive_routine(timing: TimingParams, needs_notification: bool) -> List[MicroOp]:
    """The full receiver-side micro-op stream for one interrupt.

    IPIs (UIPI) need notification processing (UPID access) before delivery;
    KB-timer and forwarded-device interrupts skip straight to delivery
    (§4.3/§4.5) — "the microcode for interrupt delivery can start at step 5".
    """
    uops: List[MicroOp] = []
    if needs_notification:
        uops.extend(notification_routine(timing))
    uops.extend(delivery_routine(timing))
    return uops


# ---------------------------------------------------------------------------
# Interned routine templates (decode memoization)
# ---------------------------------------------------------------------------
#
# The routines above rebuild their micro-op lists on every expansion — once
# per ``senduipi`` fetch and once per interrupt injection.  MicroOps are
# frozen and the front-end only reads them (queues are rebound, never mutated
# in place), so identical routines can be interned and shared: the cached
# variants return the *same* immutable tuple for the same (timing, args).
# ``TimingParams`` is a frozen dataclass, hence hashable.


@lru_cache(maxsize=None)
def senduipi_routine_cached(timing: TimingParams, uitt_index: int) -> Tuple[MicroOp, ...]:
    """Interned :func:`senduipi_routine`; callers must not mutate the result."""
    return tuple(senduipi_routine(timing, uitt_index))


@lru_cache(maxsize=None)
def receive_routine_cached(timing: TimingParams, needs_notification: bool) -> Tuple[MicroOp, ...]:
    """Interned :func:`receive_routine`; callers must not mutate the result."""
    return tuple(receive_routine(timing, needs_notification))
