"""Pluggable VM-scheduling framework.

Scheduling policy lives behind a seven-operation function table.  A plugin
is one SchedulerTable subclass, added with schedulers.register(name, cls).
Its static parse(spec) checks the scheduler options and every VM's
sched_param and returns what the constructor needs; the engine builds the
table as cls(services, cls.parse(spec)).  The services' register_timer(at)
returns a timer id, the one the trace prints; the timer sets the reschedule
flag when it fires, and cancel_timer(id) stops it until then.  The
dispatcher only ever acts at two checkpoints (end of a hyp call, end of
physical interrupt handling) and only when the flag is set.

Tables own sched_state; run states are the framework's and sched_param is
fixed.  Table methods are looked up per call and called directly, with a
guard cell the vCPUs share set to the operation's name by assignment just
before and to "" just after (or in the entry point's finally): a run-state
write in an operation raises ContractViolation (see model.VcpuRecord).  Each
schedule() result is checked to be None or an awake vCPU of this run.
The trace text the dispatcher writes is built once, not per call: each
vCPU keeps its own heads and vm=<id> detail, and the kind=...;flag=... and
from=...;to=... details are kept per checkpoint kind and (old, new) pair.
"""

from __future__ import annotations

import abc
from typing import Iterable, Protocol

from .model import ContractViolation, RunState, SystemSpec, Time, VcpuRecord
from .trace import HV, vm_heads

END_OF_HYP_CALL = "end_of_hyp_call"
END_OF_PHYSICAL_INTERRUPT = "end_of_physical_interrupt"
CHECKPOINT_KINDS = (END_OF_HYP_CALL, END_OF_PHYSICAL_INTERRUPT)
# Checkpoint record details by kind, indexed by the flag.
_CHECKPOINT_DETAILS = {k: (f"kind={k};flag=0", f"kind={k};flag=1") for k in CHECKPOINT_KINDS}

# Python 3.11 loads an enum member through its class ~5x slower than a global.
_RUNNING, _READY, _SLEEPING = RunState.RUNNING, RunState.READY, RunState.SLEEPING

_MAX_CHECKPOINT_ROUNDS = 64  # decisions per checkpoint; a scheduler needing more never converges


class SchedulerTable(abc.ABC):
    """One scheduler plugin: the seven operations the hypervisor dispatches
    through, plus parse().  Built as cls(services, cls.parse(spec))."""

    @staticmethod
    def parse(spec: SystemSpec):
        """Check the scheduler options and each VM's sched_param (ConfigError
        if bad); return what the constructor needs.  Default: accept all."""
        return None

    def init(self) -> None:
        """Called exactly once at boot, before any other operation.
        Default: nothing to do."""

    @abc.abstractmethod
    def schedule(self) -> VcpuRecord | None:
        """Pick one of this run's vCPUs to run next, or None to idle; never a
        sleeping one.  Like every operation, must not change any run state.
        """

    @abc.abstractmethod
    def yield_(self) -> None:
        """The running vCPU entered sleep (e.g. executed wfi)."""

    @abc.abstractmethod
    def block(self, vcpu: VcpuRecord) -> None:
        """vcpu was preempted: schedule() has just returned another vCPU."""

    @abc.abstractmethod
    def unblock(self, vcpu: VcpuRecord) -> None:
        """vcpu became executable again."""

    @abc.abstractmethod
    def allocate(self, vcpu: VcpuRecord):
        """Build and return the scheduler-private state for vcpu."""

    @abc.abstractmethod
    def enque(self, vcpu: VcpuRecord) -> None:
        """Push vcpu into the scheduler's wait storage."""


class SchedulerServices(Protocol):
    """What a scheduler implementation may call back into.

    The engine provides the concrete object; tests may stub it.
    """

    def now(self) -> Time: ...
    def set_flag(self) -> None: ...
    def register_timer(self, at: Time) -> int: ...
    def cancel_timer(self, timer_id: int) -> None: ...
    def report_deadline_miss(self, vm_id: int, deadline: Time) -> None: ...


class Framework:
    """Dispatcher state: the table, the vCPUs, the flag, the running vCPU."""

    def __init__(self, host, table: SchedulerTable, vcpus: Iterable[VcpuRecord]):
        self.host = host  # needs: now(), trace(head, detail) and charge(kind, detail)
        self.table = table
        self.vcpus = list(vcpus)
        self.flag = False
        self.current: VcpuRecord | None = None
        self._initialized = False
        # The running table operation's name, "" between operations: a cell the
        # vCPUs share, so none points back at the framework (no cycle to collect).
        # Each vCPU also keeps its records' heads and its cb_* detail.
        self._guard = [""]
        for v in self.vcpus:
            v._guard, v._heads, v._detail = self._guard, vm_heads(v.id), f"vm={v.id}"
        ids = {None: "-", **{v: str(v.id) for v in self.vcpus}}  # dispatch detail by (old, new)
        self._dispatch_detail = {(o, n): f"from={ids[o]};to={ids[n]}" for o in ids for n in ids}

    # -- boot ------------------------------------------------------------

    def initialize(self) -> None:
        if self._initialized:
            raise ContractViolation("framework initialized twice")
        self._initialized = True
        trace, table, guard = self.host.trace, self.table, self._guard
        trace(HV["cb_init"])
        try:
            guard[0] = "init"
            table.init()
            for v in self.vcpus:
                guard[0] = ""
                trace(HV["cb_allocate"], v._detail)
                guard[0] = "allocate"
                v.sched_state = table.allocate(v)
            for v in self.vcpus:
                guard[0] = ""
                trace(HV["cb_enque"], v._detail)
                guard[0] = "enque"
                table.enque(v)
        finally:
            guard[0] = ""

    # -- flag + checkpoints -----------------------------------------------

    def set_reschedule_flag(self) -> None:
        if not self._initialized:
            raise ContractViolation("framework used before initialization")
        self.host.trace(HV["flag_set"])
        self.flag = True

    def dispatch_checkpoint(self, kind: str) -> None:
        """Re-dispatch if the flag is set; otherwise do nothing.

        The flag is cleared atomically with each dispatch decision.  Table
        operations invoked while applying a decision may set it again, so the
        decision loop runs until the flag stays clear.
        """
        if not self._initialized:
            raise ContractViolation("framework used before initialization")
        try:
            detail = _CHECKPOINT_DETAILS[kind][self.flag]
        except (KeyError, TypeError):
            raise ContractViolation(f"unknown checkpoint kind {kind!r}") from None
        self.host.trace(HV["checkpoint"], detail)
        if self.flag:
            host, table, guard, rounds = self.host, self.table, self._guard, 0
            try:
                while self.flag:
                    rounds += 1
                    if rounds > _MAX_CHECKPOINT_ROUNDS:
                        raise ContractViolation("reschedule flag never settles (scheduler livelock)")
                    self.flag = False
                    guard[0] = "schedule"
                    chosen = table.schedule()
                    guard[0] = ""
                    if chosen is not None:
                        # Every vCPU of this framework shares its guard cell.
                        if getattr(chosen, "_guard", None) is not guard:
                            raise ContractViolation(f"schedule() returned {chosen!r}: not a vCPU of this run")
                        if chosen._run_state is _SLEEPING:
                            raise ContractViolation(f"schedule() returned vm {chosen.id} in state sleeping")
                    host.trace(HV["cb_schedule"], "vm=-" if chosen is None else chosen._detail)
                    old = self.current
                    if chosen is old:
                        continue
                    if old is not None and old._run_state is _RUNNING:
                        old._run_state = _READY
                        host.trace(HV["cb_block"], old._detail)
                        guard[0] = "block"
                        table.block(old)
                        guard[0] = ""
                    self.current = chosen
                    if chosen is None:
                        host.trace(HV["dispatch"], self._dispatch_detail[old, None])
                    else:
                        chosen._run_state = _RUNNING
                        host.charge("dispatch", self._dispatch_detail[old, chosen])
            finally:
                guard[0] = ""
        # A vCPU that went to sleep without a pending reschedule vacates the CPU.
        if self.current is not None and self.current._run_state is not _RUNNING:
            self.host.trace(HV["cpu_idle"], f"vacated=vm{self.current.id}")
            self.current = None

    # -- sleep / wakeup -----------------------------------------------------

    def on_vm_sleep(self, vcpu: VcpuRecord) -> None:
        if not self._initialized:
            raise ContractViolation("framework used before initialization")
        if vcpu._run_state is not _RUNNING:
            raise ContractViolation(f"sleep of vm {vcpu.id} which is {vcpu._run_state.value}")
        vcpu._run_state = _SLEEPING
        self.host.trace(vcpu._heads["vm_sleep"])
        self.host.trace(HV["cb_yield"], vcpu._detail)
        self._guard[0] = "yield_"
        try:
            self.table.yield_()
        finally:
            self._guard[0] = ""

    def on_vm_wakeup(self, vcpu: VcpuRecord) -> None:
        if not self._initialized:
            raise ContractViolation("framework used before initialization")
        if vcpu._run_state is not _SLEEPING:
            raise ContractViolation(f"wakeup of vm {vcpu.id} which is {vcpu._run_state.value}")
        vcpu._run_state = _READY
        self.host.trace(vcpu._heads["vm_wake"])
        self.host.trace(HV["cb_unblock"], vcpu._detail)
        self._guard[0] = "unblock"
        try:
            self.table.unblock(vcpu)
        finally:
            self._guard[0] = ""
