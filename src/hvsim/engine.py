"""Deterministic discrete-event core.

The virtual clock only moves two ways: a guest consumes CPU time between
events, or a hypervisor cost window is charged.  Every hyp-mode entry (hyp
call, wfi trap, trapped MMIO, physical interrupt, timer, gated channel op)
charges its cost-model field and ends at a dispatch checkpoint.

The heap holds only timer expiries and scripted interrupt arrivals, keyed
(time, insertion order).  The running guest's next step, a trap it reached
or the end of its compute run (adjacent compute segments are one run), waits
in one slot beside the heap: one CPU runs at most one guest.  These rules
decide the order, all test-pinned:

- A trap the running guest reached (hyp call, wfi, mmio, channel op) wins a
  same-instant tie with the heap head; a compute end loses it.  So a compute
  end runs only once the head is later, and a trap it reaches runs in that
  same step: the trap would win the next pass anyway.  An event overdue
  because a cost window ran past it runs first, in heap order.
- Scripted arrivals keep manifest order among themselves at the same instant.
- At the same instant, arrivals come before timers set after boot; timers set
  in the scheduler's init or allocate come before arrivals.

Every record goes through `trace`, which extends one flat list by the
record's six fields; `RunResult.records` is a `trace.Trace` over that list,
a read-only sequence that builds each `TraceRecord` on access, folded once
at the end.  Only `_fold_running` credits a guest with CPU time.  A resume
takes the guest's interrupts itself, calling into the vGIC only while the VM's
list registers hold an entry.  Only a resume ACKs, and it EOIs each interrupt
at once, so every entry it meets is pending and each `guest_ack` takes one.
Scripted arrivals are sorted at boot from the spec's `phys_irqs.at` and `.irq`
columns; the loop pushes each as the one before it pops.  Record details are
built once per irq id and once per VM.  The interrupt, timer, wfi and hyp-call
handlers charge in their own bodies; `charge` serves the dispatcher and the
colder traps.
Inside `streaming(sink)` the list is a buffer: whenever it holds about
`_BLOCK` records (a step may run a few past), at the end and before
`SimulationAborted`, the engine calls `sink(records)` and then empties it,
so memory does not grow with the horizon.

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
from itertools import count, cycle, repeat

from . import framework as fw_mod
from .framework import Framework, SchedulerServices
from .memmap import KIND_MMIO, KIND_PA, MemoryMap
from .model import (
    ContractViolation,
    PERM_READ,
    PERM_WRITE,
    RunState,
    SystemSpec,
    Time,
    VARIANT_GATED,
    VcpuRecord,
)
from .schedulers import get_plugin
from .trace import MetricsReport, Trace, TraceRecord, metrics_from_trace
from .vgic import DIST_MMIO_BASE, Vgic

# Heap entries are (at, seq, kind, data), of these kinds (data: irq, timer id):
EV_PHYS_IRQ = "phys_irq"
EV_TIMER_FIRE = "timer_fire"

_MAX_TIMER_IRQS_PER_INSTANT = 64
_BLOCK = 512  # records a streamed run buffers before it calls the sink
_SLEEPING = RunState.SLEEPING  # Python 3.11 loads an enum member ~5x slower than a global
# Raised by a service other than now() with no framework: while the table is built, or after the run.
_NO_FRAMEWORK = "{}() called with no framework attached: a scheduler table's constructor may call only now()"


class SimulationAborted(RuntimeError):
    """A contract violation ended the run; carries the trace so far (empty if the
    table's constructor broke one, or for a streamed run, whose sink has had every record)."""

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
    """Script cursor for one VM.  A script's entries are its runs of adjacent
    compute segments, each one `int`, its duration, and its traps, each its
    `Segment`; runs do not merge across the loop wrap.  `entry` is the current
    entry: what is left of a compute run, which `_fold_running` counts down, a
    trap's `Segment`, or None once a non-looping script has ended.  `rest`
    yields the entries after it, round and round for a looping script, and
    every advance is `ctx.entry = next(ctx.rest, None)`.  A `Segment` is a
    `NamedTuple`, whose field reads cost more than a plain attribute's, so
    only a trap's handler reads its fields."""

    __slots__ = ("entry", "rest")

    def __init__(self, workload):
        script = []
        for seg in workload.segments:
            if seg.kind != "compute":
                script.append(seg)
            elif script and type(script[-1]) is int:
                script[-1] += seg.duration_ns
            else:
                script.append(seg.duration_ns)
        self.rest = cycle(script) if workload.loop else iter(script)
        self.entry = next(self.rest, None)


class Engine(SchedulerServices):
    """One simulation run.  Also serves as the scheduler-services provider."""

    def __init__(self, spec: SystemSpec, horizon: Time):
        if horizon <= 0:
            raise ValueError("horizon must be > 0")
        self.spec = spec
        self.horizon = horizon
        self._cost_ns = spec.cost_model.as_dict()  # by field name, for charge
        self._now: Time = 0
        self._flat: list = []  # six slots per record; see trace.Trace
        self.records = Trace(self._flat)

        self.vcpus = [VcpuRecord(id=vm.id, sched_param=vm.sched_param) for vm in spec.vms]
        self._actor = [str(v.id) for v in self.vcpus]  # trace actor by VM id
        self._vm_detail = [f"vm={v.id}" for v in self.vcpus]  # a trap's detail by VM id
        self._guest = {vm.id: _GuestCtx(vm.workload) for vm in spec.vms}
        self.memmap = MemoryMap(spec)
        self.vgic = Vgic(
            irq_targets={irq: vm.id for vm in spec.vms for irq in vm.assigned_irqs},
            declared_virqs={vm.id: vm.virqs for vm in spec.vms},
            lr_count=spec.lr_count,
        )
        self.channels = {ch.id: ch for ch in spec.channels}
        self._virq_detail = {i: f"virq={i}" for vm in spec.vms for i in vm.assigned_irqs | vm.virqs}

        table_cls = get_plugin(spec.scheduler_name)
        self.fw = None  # while the table is built: its constructor may call only now()
        self.fw = Framework(self, table_cls(self, table_cls.parse(spec)), self.vcpus)

        self._queue: list[tuple] = []
        self._seq = 0
        self._arrivals = iter(())  # scripted arrivals not yet on the heap
        # The running guest's next step, (at, until, handler, vcpu, ctx): it
        # runs once the heap head is at or after until.  Set exactly while a
        # guest holds the CPU; the handler it runs suspends the guest or sets
        # the next step.
        self._step = None
        self._timer_ids = 0  # the last timer id issued; ids count up from 1
        self._armed: set[int] = set()  # ids of timers neither fired nor cancelled
        self._timer_irq_at: Time = -1  # instant of the last timer interrupt
        self._timer_irqs_at = 0  # timer interrupts at that instant
        self._run_start: Time = 0

    # -- host / scheduler services -----------------------------------------

    def now(self) -> Time:
        return self._now

    def trace(self, kind: str, actor: str = "hv", cost_field="", cost_ns=0, detail="") -> None:
        self._flat.extend((self._now, actor, kind, cost_field, cost_ns, detail))

    def charge(self, kind: str, cost_field: str, detail="") -> None:
        cost = self._cost_ns[cost_field]
        self.trace(kind, "hv", cost_field, cost, detail)
        self._now += cost

    def set_flag(self) -> None:
        if self.fw is None:
            raise SimulationAborted(_NO_FRAMEWORK.format("set_flag"), self.records)
        self.fw.set_reschedule_flag()

    def register_timer(self, at: Time) -> int:
        if self.fw is None:
            raise SimulationAborted(_NO_FRAMEWORK.format("register_timer"), self.records)
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
        if self.fw is None:
            raise SimulationAborted(_NO_FRAMEWORK.format("cancel_timer"), self.records)
        if type(timer_id) is not int or not 0 < timer_id <= self._timer_ids:
            raise ContractViolation(f"timer {timer_id!r} was never set")
        if timer_id in self._armed:
            self._armed.remove(timer_id)
            self.trace("timer_cancel", "hv", "", 0, f"id={timer_id}")

    def report_deadline_miss(self, vm_id: int, deadline: Time) -> None:
        if self.fw is None:
            raise SimulationAborted(_NO_FRAMEWORK.format("report_deadline_miss"), self.records)
        if type(vm_id) is not int or not 0 <= vm_id < len(self.vcpus):
            raise ContractViolation(f"deadline miss reported for unknown vm {vm_id!r}")
        if type(deadline) is not int:
            raise ContractViolation(f"deadline {deadline!r} of vm {vm_id} is not an integer")
        self.trace("deadline_miss", "hv", "", 0, f"vm={vm_id};deadline={deadline}")

    # -- run -----------------------------------------------------------------

    def run(self) -> RunResult:
        """Run once; a second call raises RuntimeError.  Dropping the framework,
        which points back at the engine, breaks that cycle at the end, so
        reference counting frees the trace once the caller drops the result."""
        if self.fw is None:
            raise RuntimeError("an Engine runs once")
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
        ats, ids = self.spec.phys_irqs.at, self.spec.phys_irqs.irq
        self._arrivals = iter(sorted(zip(ats, count(self._seq + 1), repeat(EV_PHYS_IRQ), ids)))
        self._seq += len(ats)
        t = self.vgic.irq_targets  # each id's phys_irq, virq_inject, irq_latched, irq_dropped details, target
        self._irq_details = {i: (f"irq={i}", f"virq={i};target={t.get(i)};hw=1", f"irq={i};target={t.get(i)}",
                                 f"irq={i};warning=unassigned", t.get(i)) for i in set(ids)}
        ev = next(self._arrivals, None)
        if ev is not None:
            heapq.heappush(self._queue, ev)
        self.fw.set_reschedule_flag()
        self.fw.dispatch_checkpoint(fw_mod.END_OF_HYP_CALL)
        self._resume()

    def _loop(self) -> None:
        q = self._queue
        armed = self._armed
        arrivals = self._arrivals
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
                ev = next(arrivals, None)  # stage the next arrival
                if ev is not None:
                    heapq.heappush(q, ev)
                self._do_phys_irq(data)
            else:
                self._do_timers(at, data)

    # -- event handlers -------------------------------------------------------

    def _do_phys_irq(self, irq: int) -> None:
        self._suspend()
        arrived, injected, latched, dropped, target = self._irq_details[irq]
        cost = self._cost_ns["interrupt_entry_exit"]
        self.trace("phys_irq", "hv", "interrupt_entry_exit", cost, arrived)
        self._now += cost
        outcome = self.vgic.phys_arrival(irq)
        if outcome == "injected":
            self.trace("virq_inject", "hv", "", 0, injected)
            self._wake_if_sleeping(target)
        elif outcome == "pending":
            self.trace("irq_latched", "hv", "", 0, latched)
        else:
            self.trace("irq_dropped", "hv", "", 0, dropped)
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
        ids = str(first) if len(batch) == 1 else "+".join(map(str, batch))
        cost = self._cost_ns["interrupt_entry_exit"]
        self.trace("timer_fire", "hv", "interrupt_entry_exit", cost, f"ids={ids}")
        self._now += cost
        for _ in batch:
            self.fw.set_reschedule_flag()
        self.fw.dispatch_checkpoint(fw_mod.END_OF_PHYSICAL_INTERRUPT)
        self._resume()

    def _do_hyp_call(self, vcpu: VcpuRecord, ctx: _GuestCtx) -> None:
        seg = ctx.entry
        self._suspend()
        detail = self._vm_detail[vcpu.id]
        if seg.payload:
            detail += f";payload={seg.payload}"
        cost = self._cost_ns["hyp_call"]
        self.trace("hyp_call", "hv", "hyp_call", cost, detail)
        self._now += cost
        self._end_trap(ctx)

    def _do_wfi(self, vcpu: VcpuRecord, ctx: _GuestCtx) -> None:
        self._suspend()
        cost = self._cost_ns["hyp_call"]
        self.trace("wfi_trap", "hv", "hyp_call", cost, self._vm_detail[vcpu.id])
        self._now += cost
        self.fw.on_vm_sleep(vcpu)
        self._end_trap(ctx)

    def _do_mmio(self, vcpu: VcpuRecord, ctx: _GuestCtx) -> None:
        seg = ctx.entry
        access = PERM_WRITE if seg.op == "write" else PERM_READ
        tr = self.memmap.translate(vcpu.id, seg.ipa, access)
        if tr.kind == KIND_PA:
            # Pass-through: no trap, no cost, the guest keeps running.
            self.trace(
                "mmio_pass", self._actor[vcpu.id], "", 0, f"ipa={seg.ipa:#x};pa={tr.pa:#x};op={seg.op}"
            )
            ctx.entry = next(ctx.rest, None)
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
        seg = ctx.entry
        ch = self.channels[seg.channel]
        op = seg.kind
        if op == "ivc_notify":
            self._suspend()
            i = 1 if ch.endpoints[0] == vcpu.id else 0  # the peer's index
            peer, virq = ch.endpoints[i], ch.virqs[i]
            self.charge(
                "ivc_notify",
                "hyp_call",
                detail=f"channel={ch.id};from={vcpu.id};to={peer}",
            )
            outcome = self.vgic.inject_soft(peer, virq)
            self.charge(
                "virq_inject",
                "virtual_interrupt",
                detail=f"virq={virq};target={peer};outcome={outcome}",
            )
            self._wake_if_sleeping(peer)
            self._end_trap(ctx)
            return

        if ch.variant != VARIANT_GATED:
            # Free-access channels are always available: nothing to do, no trap.
            self.trace(op, self._actor[vcpu.id], "", 0, f"channel={ch.id};variant=free_access;noop=1")
            ctx.entry = next(ctx.rest, None)
            self._continue_guest(vcpu, ctx)
            return

        # The gate's holder is the endpoint its pages are mapped into.  Acquire
        # succeeds on a free gate, release only for the holder; either way a
        # refused op still costs its hyp call.
        self._suspend()
        mapped = self.memmap.mapped
        holder = next((vm for vm in ch.endpoints if ch.pages[0] in mapped[vm]), None)
        acquire = op == "ivc_acquire"
        where = f"channel={ch.id};vm={vcpu.id}"
        if holder != (None if acquire else vcpu.id):
            who = "-" if holder is None else holder
            self.charge(
                "ivc_busy",
                "hyp_call",
                detail=f"channel={ch.id};op={op.removeprefix('ivc_')};vm={vcpu.id};held_by={who}",
            )
        else:
            self.charge(op, "hyp_call", detail=where)
            remap = self.memmap.map_shared_page if acquire else self.memmap.unmap_shared_page
            for pid in ch.pages:
                remap(vcpu.id, pid)
            self.charge(
                "stage2_map" if acquire else "stage2_unmap",
                "tlb_flush",
                detail=f"{where};pages={len(ch.pages)}",
            )
        self._end_trap(ctx)

    def _end_trap(self, ctx: _GuestCtx) -> None:
        """Leave hyp mode after a guest trap: next entry, checkpoint, resume."""
        ctx.entry = next(ctx.rest, None)
        self.fw.dispatch_checkpoint(fw_mod.END_OF_HYP_CALL)
        self._resume()

    # -- guest execution ------------------------------------------------------

    def _end_compute(self, vcpu: VcpuRecord, ctx: _GuestCtx) -> None:
        self._fold_running()  # compute-run boundary: re-base the running span
        ctx.entry = entry = next(ctx.rest, None)
        if entry is None or type(entry) is int:  # script end or loop wrap
            self._continue_guest(vcpu, ctx)
        else:
            _TRAPS[entry.kind](self, vcpu, ctx)  # it would win the loop's next pass

    def _continue_guest(self, vcpu: VcpuRecord, ctx: _GuestCtx) -> None:
        """After a zero-cost step: keep running, or park if the script ended."""
        if ctx.entry is None:
            self._suspend()
            self._resume()
        else:
            self._set_step(vcpu, ctx)

    def _fold_running(self) -> None:
        """Credit the running guest with CPU time up to now; re-base run_start.
        Guest time passes only in a compute run, so d > 0 means the current
        entry is one and d is what it consumed."""
        d = self._now - self._run_start
        if d:
            cur = self.fw.current
            cur.total_consumed += d
            ctx = self._guest[cur.id]
            ctx.entry -= d
            if ctx.entry < 0:
                raise ContractViolation(f"vm {cur.id} ran past the end of its compute run")
            self._run_start = self._now

    def _suspend(self) -> None:
        """Halt the running guest at the current instant (hyp entry)."""
        if self._step is None:
            return
        self._fold_running()
        self._step = None
        self.trace("vm_pause", self._actor[self.fw.current.id])

    def _resume(self) -> None:
        """Hand the CPU to whoever is Running now; park ended scripts."""
        while True:
            cur = self.fw.current
            if cur is None:
                return
            vm, vgic = cur.id, self.vgic
            actor = self._actor[vm]
            lrs = vgic.lrs[vm]
            # The guest takes its pending interrupts, ACK then EOI, at zero
            # cost; an EOI may refill a freed list register.
            while lrs:
                virq = vgic.guest_ack(vm)
                detail = self._virq_detail[virq]
                self.trace("guest_ack", actor, "", 0, detail)
                vgic.guest_eoi(vm, virq)
                self.trace("guest_eoi", actor, "", 0, detail)
            ctx = self._guest[vm]
            if ctx.entry is None:
                self.trace("vm_park", actor, "", 0, "script done")
                self.fw.on_vm_sleep(cur)
                self.fw.dispatch_checkpoint(fw_mod.END_OF_HYP_CALL)
                continue
            self._run_start = self._now
            self.trace("vm_start", actor)
            self._set_step(cur, ctx)
            return

    def _set_step(self, vcpu: VcpuRecord, ctx: _GuestCtx) -> None:
        entry = ctx.entry
        now = self._now
        if type(entry) is int:
            at = now + entry
            self._step = (at, at + 1, Engine._end_compute, vcpu, ctx)  # loses a tie at at
        else:
            self._step = (now, now, _TRAPS[entry.kind], vcpu, ctx)  # wins a tie at now

    def _wake_if_sleeping(self, vm_id: int) -> None:
        vcpu = self.vcpus[vm_id]
        if vcpu._run_state is _SLEEPING:
            self.fw.on_vm_wakeup(vcpu)

    def _final_fold(self) -> None:
        """Pause a guest still running at the horizon, there."""
        if self._step is not None and self._run_start < self.horizon:
            self._now = self.horizon
            self._suspend()


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
