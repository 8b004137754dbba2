"""Deterministic discrete-event core.

The virtual clock only moves two ways: a guest consumes CPU time between
events, or a hypervisor cost window is charged.  Every hyp-mode entry (hyp
call, wfi trap, trapped MMIO, physical interrupt, timer, gated channel op)
charges its cost-model field and ends at a dispatch checkpoint.

The heap holds only timer expiries and scripted interrupt arrivals, keyed
(time, insertion order).  The running guest's next step, a trap it reached
or the end of its compute span, waits in one slot beside the heap: one CPU
runs at most one guest.  These rules decide the order, all test-pinned:

- A trap the running guest reached (hyp call, wfi, mmio, channel op) wins a
  same-instant tie with the heap head; a compute end loses it.  An event
  overdue because a cost window ran past it runs first, in heap order.
- Scripted arrivals keep manifest order among themselves at the same instant.
- At the same instant, arrivals come before timers set after boot; timers set
  in the scheduler's init or allocate come before arrivals.

Every record goes through `trace` (or, for the closing pause at the
horizon, `_final_fold`), which extends one flat list by the record's six
fields; `RunResult.records` is a `trace.Trace` over that list, a read-only
sequence that builds each `TraceRecord` on access, folded once at the end.
Inside `streaming(sink)` the list is a buffer: whenever it holds about
`_BLOCK` records, at the end and before `SimulationAborted`, the engine
calls `sink(records)` and then empties it, so memory does not grow with the
horizon.

A run whose virtual time stops advancing is a scheduler contract violation:
more than `_MAX_TIMER_IRQS_PER_INSTANT` timer interrupts at one instant end
it, as `framework._MAX_CHECKPOINT_ROUNDS` ends a flag that never settles.

Runs are pure functions of (SystemSpec, horizon).
"""

from __future__ import annotations

import heapq
import sys
from collections.abc import Callable, Sequence
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass

from . import framework as fw_mod
from .framework import Framework, SchedulerServices
from .ivc import ChannelState
from .memmap import KIND_MMIO, KIND_PA, MemoryMap
from .model import (
    ContractViolation,
    PERM_READ,
    PERM_WRITE,
    RunState,
    SystemSpec,
    Time,
    VcpuRecord,
)
from .schedulers import get_plugin
from .trace import MetricsReport, Trace, TraceRecord, metrics_from_trace
from .vgic import DIST_MMIO_BASE, SPURIOUS_IRQ, Vgic

# Heap entries are (at, seq, kind, data), of these kinds (data: irq, timer id):
EV_PHYS_IRQ = "phys_irq"
EV_TIMER_FIRE = "timer_fire"

_MAX_TIMER_IRQS_PER_INSTANT = 64
_BLOCK = 512  # records a streamed run buffers before it calls the sink
_SLEEPING = RunState.SLEEPING  # Python 3.11 loads an enum member ~5x slower than a global


class SimulationAborted(RuntimeError):
    """A contract violation ended the run; carries the trace so far (empty
    for a streamed run, whose sink has had every record)."""

    def __init__(self, message: str, records: Sequence[TraceRecord]):
        super().__init__(message)
        self.records = records


@dataclass
class RunResult:
    records: Sequence[TraceRecord]  # a Trace; empty after a streamed run
    metrics: MetricsReport | None  # None after a streamed run: its sink folds
    horizon: Time


_STREAM_SINK: ContextVar[Callable[[Trace], None] | None] = ContextVar("sink", default=None)


@contextmanager
def streaming(sink: Callable[[Trace], None]):
    """Runs started inside this block hand their records to sink a block at
    a time, then drop them; the sink must not keep the `Trace` it is passed.
    `run(spec, horizon)` keeps its two arguments, which perfbench wraps."""
    token = _STREAM_SINK.set(sink)
    try:
        yield
    finally:
        _STREAM_SINK.reset(token)


class _GuestCtx:
    """Script cursor for one VM."""

    __slots__ = ("workload", "idx", "remaining", "parked")

    def __init__(self, workload):
        self.workload = workload
        self.idx = 0
        self.remaining: Time | None = None  # of the current compute segment
        self.parked = not workload.segments

    def segment(self):
        return self.workload.segments[self.idx]

    def advance(self) -> None:
        self.idx += 1
        self.remaining = None
        if self.idx >= len(self.workload.segments):
            if self.workload.loop:
                self.idx = 0
            else:
                self.parked = True


class Engine(SchedulerServices):
    """One simulation run.  Also serves as the scheduler-services provider."""

    def __init__(self, spec: SystemSpec, horizon: Time):
        if horizon <= 0:
            raise ValueError("horizon must be > 0")
        self.spec = spec
        self.horizon = horizon
        self.cost = spec.cost_model
        self._now: Time = 0
        self._flat: list = []  # six slots per record; see trace.Trace
        self.records = Trace(self._flat)

        self.vcpus = [VcpuRecord(id=vm.id, sched_param=vm.sched_param) for vm in spec.vms]
        self._actor = [str(v.id) for v in self.vcpus]  # trace actor by VM id
        self._guest = {vm.id: _GuestCtx(vm.workload) for vm in spec.vms}
        self.memmap = MemoryMap(spec)
        self.vgic = Vgic(
            irq_targets={irq: vm.id for vm in spec.vms for irq in vm.assigned_irqs},
            declared_virqs={vm.id: vm.virqs for vm in spec.vms},
            lr_count=spec.lr_count,
        )
        self.channels: dict[int, ChannelState] = {ch.id: ChannelState(ch) for ch in spec.channels}

        table_cls = get_plugin(spec.scheduler_name)
        self.fw = Framework(self, table_cls(self, table_cls.parse(spec)), self.vcpus)

        self._queue: list[tuple] = []
        self._seq = 0
        self._arrivals = iter(())  # scripted arrivals not yet on the heap
        # The running guest's next step, (at, until, handler, vcpu, ctx): it
        # runs once the heap head is at or after until.
        self._step = None
        self._timer_ids = 0  # the last timer id issued; ids count up from 1
        self._armed: set[int] = set()  # ids of timers neither fired nor cancelled
        self._timer_irq_at: Time = -1  # instant of the last timer interrupt
        self._timer_irqs_at = 0  # timer interrupts at that instant
        self._running = False  # a guest holds the CPU
        self._run_start: Time = 0

    # -- host / scheduler services -----------------------------------------

    def now(self) -> Time:
        return self._now

    def trace(self, kind: str, actor: str = "hv", cost_field="", cost_ns=0, detail="") -> None:
        self._flat.extend((self._now, actor, kind, cost_field, cost_ns, detail))

    def charge(self, kind: str, cost_field: str, detail="", actor: str = "hv") -> None:
        cost = getattr(self.cost, cost_field)
        self.trace(kind, actor, cost_field, cost, detail)
        self._now += cost

    def set_flag(self) -> None:
        self.fw.set_reschedule_flag()

    def register_timer(self, at: Time) -> int:
        if type(at) is not int:
            raise ContractViolation(f"timer instant {at!r} is not an integer")
        if at < self._now:
            raise ContractViolation(f"timer at {at} is in the past (now={self._now})")
        self._timer_ids += 1
        timer_id = self._timer_ids
        self._armed.add(timer_id)
        self.trace("timer_set", "hv", "", 0, f"id={timer_id};at={at}")
        self._seq += 1
        heapq.heappush(self._queue, (at, self._seq, EV_TIMER_FIRE, timer_id))
        return timer_id

    def cancel_timer(self, timer_id: int) -> None:
        """Stop a timer that has not fired yet; on a fired or cancelled one, do nothing."""
        if type(timer_id) is not int or not 0 < timer_id <= self._timer_ids:
            raise ContractViolation(f"timer {timer_id!r} was never set")
        if timer_id in self._armed:
            self._armed.remove(timer_id)
            self.trace("timer_cancel", "hv", "", 0, f"id={timer_id}")

    def report_deadline_miss(self, vm_id: int, deadline: Time) -> None:
        if type(vm_id) is not int or not 0 <= vm_id < len(self.vcpus):
            raise ContractViolation(f"deadline miss reported for unknown vm {vm_id!r}")
        if type(deadline) is not int:
            raise ContractViolation(f"deadline {deadline!r} of vm {vm_id} is not an integer")
        self.trace("deadline_miss", "hv", "", 0, f"vm={vm_id};deadline={deadline}")

    # -- run -----------------------------------------------------------------

    def run(self) -> RunResult:
        """Run once.  The framework and its table point back at the engine;
        dropping the framework at the end breaks that cycle, so reference
        counting frees the trace as soon as the caller drops the result."""
        sink = self._sink = _STREAM_SINK.get()
        try:
            self._boot()
            self._loop()
            self._final_fold()
        except ContractViolation as exc:
            detail = str(exc).replace(",", ";").replace("\n", "\\n").replace("\r", "\\r")
            self.trace("contract_violation", detail=detail)
            if sink is not None:
                self._hand_over()
            raise SimulationAborted(str(exc), self.records) from exc
        finally:
            self.fw = None
        if sink is not None:
            self._hand_over()
            return RunResult(self.records, None, self.horizon)
        metrics = metrics_from_trace(self.records, self.horizon, [v.id for v in self.vcpus])
        return RunResult(self.records, metrics, self.horizon)

    def _hand_over(self) -> None:
        """Give the buffered records to the sink, then empty the buffer."""
        self._sink(self.records)
        self._flat.clear()

    def _boot(self) -> None:
        self.trace("boot", detail=f"scheduler={self.spec.scheduler_name};vms={len(self.vcpus)}")
        self.fw.initialize()
        if self.spec.gic_boot_init:
            for v in self.vcpus:
                self.vgic.boot_enable(v.id)
        # Arrivals are numbered here, in manifest order, so that at one instant
        # they follow timers set in init/allocate and precede later timers;
        # only the earliest waits on the heap.
        irqs, seq = self.spec.phys_irqs, self._seq
        self._arrivals = iter(sorted(
            (ev.at, seq + i, EV_PHYS_IRQ, ev.irq) for i, ev in enumerate(irqs, 1)
        ))
        self._seq += len(irqs)
        self._next_arrival()
        self.fw.set_reschedule_flag()
        self.fw.dispatch_checkpoint(fw_mod.END_OF_HYP_CALL)
        self._resume()

    def _loop(self) -> None:
        q = self._queue
        armed = self._armed
        horizon = self.horizon
        flat = self._flat
        full = _BLOCK * 6 if self._sink is not None else sys.maxsize  # slots in a block
        while True:
            if len(flat) >= full:
                self._hand_over()
            step = self._step
            if step is not None and (not q or q[0][0] >= step[1]):
                at, _, handler, vcpu, ctx = step
                if at >= horizon:
                    return
                self._step = None
                self._now = at
                handler(self, vcpu, ctx)
                continue
            if not q:
                return
            at, _, kind, data = heapq.heappop(q)
            if kind == EV_TIMER_FIRE and data not in armed:
                continue
            now = at if at > self._now else self._now
            if now >= horizon:
                return
            self._now = now
            if kind == EV_PHYS_IRQ:
                self._next_arrival()
                self._do_phys_irq(data)
            else:
                self._do_timers(at, data)

    # -- event handlers -------------------------------------------------------

    def _do_phys_irq(self, irq: int) -> None:
        self._suspend()
        self.charge("phys_irq", "interrupt_entry_exit", f"irq={irq}")
        eff = self.vgic.phys_arrival(irq)
        if eff.outcome == "injected":
            self.trace("virq_inject", "hv", "", 0, f"virq={irq};target={eff.target};hw=1")
            self._wake_if_sleeping(eff.target)
        elif eff.outcome == "pending":
            self.trace("irq_latched", "hv", "", 0, f"irq={irq};target={eff.target}")
        else:
            self.trace("irq_dropped", detail=f"irq={irq};warning=unassigned")
        self.fw.dispatch_checkpoint(fw_mod.END_OF_PHYSICAL_INTERRUPT)
        self._resume()

    def _do_timers(self, at: Time, first: int) -> None:
        # Expiries at the same instant share one interrupt and one checkpoint.
        armed = self._armed
        armed.remove(first)
        batch = [first]
        q = self._queue
        while q:
            head = q[0]
            if head[2] != EV_TIMER_FIRE or head[0] != at:
                break
            heapq.heappop(q)
            if head[3] in armed:
                armed.remove(head[3])
                batch.append(head[3])
        now = self._now
        if now == self._timer_irq_at:
            self._timer_irqs_at += 1
            if self._timer_irqs_at > _MAX_TIMER_IRQS_PER_INSTANT:
                raise ContractViolation(
                    f"{self._timer_irqs_at} timer interrupts at {now} ns: "
                    "virtual time does not advance (scheduler livelock)"
                )
        else:
            self._timer_irq_at, self._timer_irqs_at = now, 1
        self._suspend()
        ids = "+".join(map(str, batch))
        self.charge("timer_fire", "interrupt_entry_exit", f"ids={ids}")
        for _ in batch:
            self.fw.set_reschedule_flag()
        self.fw.dispatch_checkpoint(fw_mod.END_OF_PHYSICAL_INTERRUPT)
        self._resume()

    def _do_hyp_call(self, vcpu: VcpuRecord, ctx: _GuestCtx) -> None:
        seg = ctx.segment()
        self._suspend()
        detail = f"vm={vcpu.id}"
        if seg.payload:
            detail += f";payload={seg.payload}"
        self.charge("hyp_call", "hyp_call", detail)
        self._end_trap(ctx)

    def _do_wfi(self, vcpu: VcpuRecord, ctx: _GuestCtx) -> None:
        self._suspend()
        self.charge("wfi_trap", "hyp_call", f"vm={vcpu.id}")
        self.fw.on_vm_sleep(vcpu)
        self._end_trap(ctx)

    def _do_mmio(self, vcpu: VcpuRecord, ctx: _GuestCtx) -> None:
        seg = ctx.segment()
        access = PERM_WRITE if seg.op == "write" else PERM_READ
        tr = self.memmap.translate(vcpu.id, seg.ipa, access)
        if tr.kind == KIND_PA:
            # Pass-through: no trap, no cost, the guest keeps running.
            self.trace(
                "mmio_pass", self._actor[vcpu.id], "", 0, f"ipa={seg.ipa:#x};pa={tr.pa:#x};op={seg.op}"
            )
            ctx.advance()
            self._continue_guest(vcpu, ctx)
            return
        self._suspend()
        if tr.kind == KIND_MMIO:
            offset = seg.ipa - DIST_MMIO_BASE
            is_write = seg.op == "write"
            eff = self.vgic.mmio(vcpu.id, offset, is_write, seg.value)
            detail = f"vm={vcpu.id};offset={offset:#x};op={seg.op}"
            if is_write:
                detail += f";value={seg.value:#x}"
            elif eff.read_value is not None:
                detail += f";value={eff.read_value:#x}"
            self.charge("mmio_dist", "mmio_emulation", detail=detail)
            if eff.unmodeled and self.spec.faults.dist_unmodeled == "fault":
                self.trace("dist_fault", detail=f"vm={vcpu.id};offset={offset:#x}")
            # The distributor drains only the writer, which is running here.
            for target in eff.injections:
                self.trace("virq_inject", detail=f"target={target};hw=1;via=mmio")
        else:  # stage-2 fault
            self.charge(
                "stage2_fault",
                "hyp_call",
                detail=f"vm={vcpu.id};ipa={seg.ipa:#x};access={access};reason={tr.reason}",
            )
            if self.spec.faults.stage2 == "halt":
                raise ContractViolation(
                    f"halt on stage-2 fault: vm {vcpu.id} ipa {seg.ipa:#x} ({tr.reason})"
                )
        self._end_trap(ctx)

    def _do_ivc(self, vcpu: VcpuRecord, ctx: _GuestCtx) -> None:
        seg = ctx.segment()
        ch = self.channels[seg.channel]
        op = seg.kind
        if op == "ivc_notify":
            self._suspend()
            peer = ch.peer(vcpu.id)
            self.charge(
                "ivc_notify",
                "hyp_call",
                detail=f"channel={ch.spec.id};from={vcpu.id};to={peer}",
            )
            virq = ch.notify_virq_for(peer)
            outcome = self.vgic.inject_soft(peer, virq)
            self.charge(
                "virq_inject",
                "virtual_interrupt",
                detail=f"virq={virq};target={peer};outcome={outcome}",
            )
            self._wake_if_sleeping(peer)
            self._end_trap(ctx)
            return

        if not ch.gated:
            # Free-access channels are always available: nothing to do, no trap.
            self.trace(op, self._actor[vcpu.id], "", 0, f"channel={ch.spec.id};variant=free_access;noop=1")
            ctx.advance()
            self._continue_guest(vcpu, ctx)
            return

        # Acquire succeeds on a free gate, release only for the holder; either
        # way a refused op still costs its hyp call.
        self._suspend()
        acquire = op == "ivc_acquire"
        where = f"channel={ch.spec.id};vm={vcpu.id}"
        if ch.held_by != (None if acquire else vcpu.id):
            holder = "-" if ch.held_by is None else ch.held_by
            self.charge(
                "ivc_busy",
                "hyp_call",
                detail=f"channel={ch.spec.id};op={op.removeprefix('ivc_')};vm={vcpu.id};held_by={holder}",
            )
        else:
            self.charge(op, "hyp_call", detail=where)
            remap = self.memmap.map_shared_page if acquire else self.memmap.unmap_shared_page
            for pid in ch.spec.pages:
                remap(vcpu.id, pid)
            self.charge(
                "stage2_map" if acquire else "stage2_unmap",
                "tlb_flush",
                detail=f"{where};pages={len(ch.spec.pages)}",
            )
            ch.held_by = vcpu.id if acquire else None
        self._end_trap(ctx)

    def _end_trap(self, ctx: _GuestCtx) -> None:
        """Leave hyp mode after a guest trap: next segment, checkpoint, resume."""
        ctx.advance()
        self.fw.dispatch_checkpoint(fw_mod.END_OF_HYP_CALL)
        self._resume()

    # -- guest execution ------------------------------------------------------

    def _end_compute(self, vcpu: VcpuRecord, ctx: _GuestCtx) -> None:
        self._fold_running()  # segment boundary: re-base the running span
        ctx.remaining = 0
        ctx.advance()
        self._continue_guest(vcpu, ctx)

    def _continue_guest(self, vcpu: VcpuRecord, ctx: _GuestCtx) -> None:
        """After a zero-cost step: keep running, or park if the script ended."""
        if ctx.parked:
            self._suspend()
            self._resume()
        else:
            self._set_step(vcpu, ctx)

    def _fold_running(self) -> None:
        """Credit the running guest with CPU time up to now; re-base run_start.

        Between two folds the guest executes exactly one compute span, so the
        folded amount is also what the current compute segment consumed.
        """
        cur = self.fw.current
        d = self._now - self._run_start
        cur.total_consumed += d
        ctx = self._guest[cur.id]
        if d and not ctx.parked and ctx.remaining is not None and ctx.segment().kind == "compute":
            ctx.remaining -= d
            if ctx.remaining < 0:
                raise ContractViolation(f"vm {cur.id} ran past the end of its compute segment")
        self._run_start = self._now

    def _suspend(self) -> None:
        """Halt the running guest at the current instant (hyp entry)."""
        if not self._running:
            return
        cur = self.fw.current
        self._fold_running()
        self._step = None
        self.trace("vm_pause", self._actor[cur.id])
        self._running = False

    def _resume(self) -> None:
        """Hand the CPU to whoever is Running now; park empty scripts."""
        while True:
            cur = self.fw.current
            if cur is None:
                return
            self._deliver_pending(cur)
            ctx = self._guest[cur.id]
            if ctx.parked:
                self.trace("vm_park", self._actor[cur.id], "", 0, "script done")
                self.fw.on_vm_sleep(cur)
                self.fw.dispatch_checkpoint(fw_mod.END_OF_HYP_CALL)
                continue
            self._running = True
            self._run_start = self._now
            self.trace("vm_start", self._actor[cur.id])
            self._set_step(cur, ctx)
            return

    def _set_step(self, vcpu: VcpuRecord, ctx: _GuestCtx) -> None:
        seg = ctx.segment()
        now = self._now
        if seg.kind == "compute":
            if ctx.remaining is None:
                ctx.remaining = seg.duration_ns
            at = now + ctx.remaining
            self._step = (at, at + 1, Engine._end_compute, vcpu, ctx)  # loses a tie at at
        else:
            self._step = (now, now, _TRAPS[seg.kind], vcpu, ctx)  # wins a tie at now

    def _deliver_pending(self, vcpu: VcpuRecord) -> None:
        """A running guest takes its pending virtual interrupts: ACK then EOI,
        directly against the virtual CPU interface, at zero hypervisor cost."""
        actor = self._actor[vcpu.id]
        while True:
            virq = self.vgic.guest_ack(vcpu.id)
            if virq == SPURIOUS_IRQ:
                return
            detail = f"virq={virq}"
            self.trace("guest_ack", actor, "", 0, detail)
            self.vgic.guest_eoi(vcpu.id, virq)
            self.trace("guest_eoi", actor, "", 0, detail)

    def _wake_if_sleeping(self, vm_id: int) -> None:
        vcpu = self.vcpus[vm_id]
        if vcpu._run_state is _SLEEPING:
            self.fw.on_vm_wakeup(vcpu)

    def _next_arrival(self) -> None:
        ev = next(self._arrivals, None)
        if ev is not None:
            heapq.heappush(self._queue, ev)

    def _final_fold(self) -> None:
        if not self._running or self._run_start >= self.horizon:
            return
        cur = self.fw.current
        cur.total_consumed += self.horizon - self._run_start
        self._flat.extend((self.horizon, self._actor[cur.id], "vm_pause", "", 0, ""))


# Guest traps by segment kind.
_TRAPS = {
    "hyp_call": Engine._do_hyp_call,
    "wfi": Engine._do_wfi,
    "mmio": Engine._do_mmio,
    "ivc_notify": Engine._do_ivc,
    "ivc_acquire": Engine._do_ivc,
    "ivc_release": Engine._do_ivc,
}


def run(spec: SystemSpec, horizon: Time) -> RunResult:
    """Simulate spec for horizon nanoseconds of virtual time."""
    return Engine(spec, horizon).run()
