"""A fixed pure-Python loop that measures how fast the host is right now.

On a host that shares its processors and caches (the 2-vCPU VM this
benchmark was tuned on is one), the same simulation can take 25% longer
from one second to the next.  Timing
this probe between timed simulations gives the host's current speed, and
``sim_cycles_per_s`` is expressed in seconds of a reference host on which
one probe takes :data:`REFERENCE_PROBE_S`.  The probe uses no code of the
simulator, so a change to the simulator moves the metric in full.  Its mix
follows the simulator's hot loops (slotted objects, method calls, heap
operations) plus random reads and writes over a buffer larger than a core's
private caches, so that it also slows when neighbours crowd the shared
cache.
"""

from __future__ import annotations

import gc
import heapq
import time

#: Probe duration on the reference host (seconds).
REFERENCE_PROBE_S = 0.03
PROBE_ITERATIONS = 16_000
BUFFER_BYTES = 8 << 20


class _Node:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int) -> None:
        self.key = key
        self.value = value

    def bump(self, amount: int) -> int:
        self.value += amount
        return self.value & 7


class HostProbe:
    """Owns the probe's buffer; :meth:`seconds` runs one probe."""

    def __init__(self) -> None:
        self._buffer = bytearray(BUFFER_BYTES)
        self._probe()  # faults the buffer's pages in, so no probe pays for it

    def seconds(self) -> float:
        """Host seconds one probe takes now.

        The garbage collector is emptied first and paused during the probe,
        so the probe's time does not depend on how many objects the
        simulation left alive."""
        gc.collect()
        gc.disable()
        try:
            return self._probe()
        finally:
            gc.enable()

    def _probe(self) -> float:
        buffer = self._buffer
        mask = BUFFER_BYTES - 1
        heap: list = []
        x = 12345
        acc = 0
        start = time.perf_counter()
        for i in range(PROBE_ITERATIONS):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            acc += buffer[x & mask]
            buffer[(x >> 7) & mask] = i & 255
            node = _Node(x & 255, i)
            acc += node.bump(x & 15)
            heapq.heappush(heap, (x & 4095, i))
            if len(heap) > 64:
                acc += heapq.heappop(heap)[1]
        return time.perf_counter() - start
