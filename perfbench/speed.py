"""A fixed pure-Python probe of how fast this machine runs interpreter code now.

On a shared machine the speed of the same code drifts by 10-30 % over
minutes (other tenants, clock changes), far more than the changes the
benchmark must resolve.  The probe runs right before and right after every
timed operation, and the operation's time is scaled by REFERENCE_PROBE_S /
the mean of the two probe times.  The probe
imitates the simulator's mix (a tuple heap, slotted objects, dict counts,
f-strings, NamedTuple records) but shares no code with hvsim, so a change
to hvsim never changes the probe.
"""

from __future__ import annotations

import gc
import heapq
import time
from typing import NamedTuple

# Median probe time on the machine the benchmark was defined on (2 cores,
# Python 3.11.7).  It only sets the scale of the normalized times.
REFERENCE_PROBE_S = 0.027

_KINDS = ("checkpoint", "vm_start", "vm_pause", "timer_set", "flag_set", "guest_ack", "dispatch")


class _Record(NamedTuple):
    time: int
    actor: str
    kind: str
    cost_ns: int
    detail: str


class _Vcpu:
    __slots__ = ("id", "consumed", "switches")

    def __init__(self, vm_id: int):
        self.id = vm_id
        self.consumed = 0
        self.switches = 0


def _work(n: int) -> int:
    heap: list[tuple[int, int, int]] = []
    vcpus = [_Vcpu(i) for i in range(4)]
    records: list[_Record] = []
    counts: dict[str, int] = {}
    now = 0
    for seq in range(n):
        heapq.heappush(heap, (now + (seq * 7919) % 1000, seq & 3, seq))
        if len(heap) > 32:
            at, vm, _ = heapq.heappop(heap)
            if at > now:
                now = at
            vcpu = vcpus[vm]
            vcpu.consumed += at & 7
            kind = _KINDS[seq % len(_KINDS)]
            counts[kind] = counts.get(kind, 0) + 1
            if kind == "dispatch":
                vcpu.switches += 1
            records.append(_Record(now, str(vm), kind, 0, f"vm={vm};seq={seq}"))
    return len(records) + sum(counts.values())


def probe() -> float:
    """Host seconds for one pass of the fixed probe workload.

    The collector is off meanwhile, so that the live heap the caller left
    behind does not change the probe's own cost.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _work(10_000)
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def scale(before: float, after: float) -> float:
    """Factor that turns host seconds measured between two probes into
    reference-speed seconds."""
    return 2 * REFERENCE_PROBE_S / (before + after)
