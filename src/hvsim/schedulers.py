"""Scheduler-table implementations: EDF, fixed-priority, round-robin.

Each class's parse() is the only check of its options and sched_params.
All three queue vCPUs, keep each VM's own data in the sched_state that
allocate() returns, and track which vCPU they last handed to the
dispatcher, so schedule() can keep returning the running vCPU while it
remains the best choice.  EDF walks its vCPUs in VM-id order, and FP ranks by
(priority, VM id), so neither set order nor a tie clause decides a tie.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from operator import attrgetter

from .framework import SchedulerServices, SchedulerTable
from .model import ConfigError, ContractViolation, SystemSpec, Time, VcpuRecord

DEFAULT_RR_QUANTUM_NS = 10_000_000  # config "quantum_ns" overrides


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# ---------------------------------------------------------------------------
# EDF
# ---------------------------------------------------------------------------


@dataclass
class EdfParam:
    period: Time
    budget: Time  # execution time allowed per period


@dataclass
class EdfVmState:
    """A VM's EDF state: its parameters, its absolute deadline (= next period
    start) and the execution time still allowed in the current period."""

    param: EdfParam
    deadline: Time
    remaining: Time
    mark: Time  # vcpu.total_consumed at the last replenishment


class EdfScheduler(SchedulerTable):
    """Earliest-deadline-first over periodic budgets.

    Each vCPU's sched_state is its EdfVmState.  One set, _ready, holds the
    vCPUs that are awake and not dispatched.  schedule() walks the table's
    vCPUs once, in VM-id order, over those and the dispatched one: each has
    every arrived period replenished, with a deadline miss reported for
    budget left unconsumed, then wins if it has budget and a strictly earlier
    deadline than the winner so far, so VM order breaks ties.  An exhausted
    one other than the dispatched one is a candidate for the next release.
    One timer is armed for the winner's budget expiry; a second wakes the
    system at the next release, or a release while a longer-deadline VM runs
    would be handled arbitrarily late.  Every call cancels and re-arms the
    timers: timer_set/timer_cancel records, their count and their order are
    part of the trace contract.
    """

    def __init__(self, services: SchedulerServices, params: dict[int, EdfParam]):
        self.services = services
        self._params = params
        self._vcpus: list[VcpuRecord | None] = [None] * len(params)  # by VM id, filled in allocate
        self._ready: set[VcpuRecord] = set()
        self._dispatched: VcpuRecord | None = None
        self._timers: list[int] = []

    @staticmethod
    def parse(spec: SystemSpec) -> dict[int, EdfParam]:
        params = {}
        for vm in spec.vms:
            raw = vm.sched_param
            if not isinstance(raw, dict) or set(raw) != {"period_ns", "budget_ns"}:
                raise ConfigError(
                    f"vm {vm.id}: edf sched_param must be {{'period_ns', 'budget_ns'}}, got {raw!r}"
                )
            period, budget = raw["period_ns"], raw["budget_ns"]
            if not (_is_int(period) and _is_int(budget)):
                raise ConfigError(f"vm {vm.id}: edf parameters must be integers")
            if not 0 < budget <= period:
                raise ConfigError(f"vm {vm.id}: need 0 < budget_ns <= period_ns, got {budget}/{period}")
            params[vm.id] = EdfParam(period=period, budget=budget)
        if spec.scheduler_options:
            raise ConfigError(f"edf takes no scheduler options, got {spec.scheduler_options!r}")
        return params

    def allocate(self, vcpu: VcpuRecord) -> EdfVmState:
        param = self._params[vcpu.id]
        self._vcpus[vcpu.id] = vcpu
        return EdfVmState(param, self.services.now() + param.period, param.budget, vcpu.total_consumed)

    def enque(self, vcpu: VcpuRecord) -> None:
        self._ready.add(vcpu)

    def schedule(self) -> VcpuRecord | None:
        services, timers = self.services, self._timers
        now = services.now()
        for timer_id in timers:
            services.cancel_timer(timer_id)
        timers.clear()
        ready, dispatched = self._ready, self._dispatched
        if dispatched is not None:
            self._sync(dispatched)
        winner = release = None
        for vcpu in self._vcpus:
            if vcpu is not dispatched and vcpu not in ready:
                continue
            st = vcpu.sched_state
            while st.deadline <= now:
                if st.remaining > 0:
                    services.report_deadline_miss(vcpu.id, st.deadline)
                self._replenish(vcpu)
            if st.remaining > 0:
                if winner is None or st.deadline < best:
                    winner, best = vcpu, st.deadline
            elif vcpu is not dispatched and (release is None or st.deadline < release):
                release = st.deadline
        if winner is not dispatched:
            ready.discard(winner)
        self._dispatched = winner

        if winner is not None:
            st = winner.sched_state
            timers.append(services.register_timer(now + st.remaining))
            if st.deadline < now + st.remaining:
                # Budget cannot finish in time: a miss is coming; check at the line.
                timers.append(services.register_timer(st.deadline))
        if release is not None:
            timers.append(services.register_timer(release))
        return winner

    def yield_(self) -> None:
        self._dispatched = None  # sleeper leaves scheduling until unblock
        self.services.set_flag()

    def block(self, vcpu: VcpuRecord) -> None:
        self._sync(vcpu)
        self._ready.add(vcpu)
        self.services.set_flag()

    def unblock(self, vcpu: VcpuRecord) -> None:
        self._sync(vcpu)
        st = vcpu.sched_state
        now = self.services.now()
        # Periods that elapsed while asleep are forgiven, not counted as misses.
        while st.deadline <= now:
            self._replenish(vcpu)
        self._ready.add(vcpu)
        self.services.set_flag()

    # -- internals --------------------------------------------------------

    def _sync(self, vcpu: VcpuRecord) -> None:
        st = vcpu.sched_state
        st.remaining = st.param.budget - (vcpu.total_consumed - st.mark)
        if st.remaining < 0:
            raise ContractViolation(f"vm {vcpu.id} ran past its budget")

    def _replenish(self, vcpu: VcpuRecord) -> None:
        st = vcpu.sched_state
        st.deadline += st.param.period
        st.remaining = st.param.budget
        st.mark = vcpu.total_consumed


# ---------------------------------------------------------------------------
# Fixed priority
# ---------------------------------------------------------------------------


class FixedPriorityScheduler(SchedulerTable):
    """Lowest priority value runs; ties go to the lower VM id.

    Each vCPU's sched_state is its rank, (priority, VM id).  One set, _awake,
    holds every vCPU that is not asleep, the dispatched one included, so a
    preempted VM needs no bookkeeping.  The flag is raised when a VM wakes
    that outranks every awake one and, as in EDF and RR, whenever the
    dispatched VM goes to sleep.  The sleeper is then always the best awake
    vCPU: the dispatched one is after every schedule(), and before it can trap
    only an unblock changes the awake set; one that outranks raises the flag,
    so schedule() runs again before the guest resumes.
    """

    def __init__(self, services: SchedulerServices, priorities: dict[int, int]):
        self.services = services
        self._priorities = priorities
        self._awake: set[VcpuRecord] = set()
        self._dispatched: VcpuRecord | None = None

    @staticmethod
    def parse(spec: SystemSpec) -> dict[int, int]:
        priorities = {}
        for vm in spec.vms:
            raw = vm.sched_param
            if not isinstance(raw, dict) or set(raw) != {"priority"} or not _is_int(raw["priority"]):
                raise ConfigError(f"vm {vm.id}: fp sched_param must be {{'priority': int}}, got {raw!r}")
            priorities[vm.id] = raw["priority"]
        if spec.scheduler_options:
            raise ConfigError(f"fp takes no scheduler options, got {spec.scheduler_options!r}")
        return priorities

    def allocate(self, vcpu: VcpuRecord) -> tuple[int, int]:
        return self._priorities[vcpu.id], vcpu.id

    def enque(self, vcpu: VcpuRecord) -> None:
        self._awake.add(vcpu)

    def schedule(self) -> VcpuRecord | None:
        self._dispatched = self._should_run()
        return self._dispatched

    def yield_(self) -> None:
        self._awake.discard(self._dispatched)
        self._dispatched = None
        self.services.set_flag()

    def block(self, vcpu: VcpuRecord) -> None:
        pass  # a preempted VM stays awake

    def unblock(self, vcpu: VcpuRecord) -> None:
        best = self._should_run()
        self._awake.add(vcpu)
        if best is None or vcpu.sched_state < best.sched_state:
            self.services.set_flag()

    def _should_run(self) -> VcpuRecord | None:
        return min(self._awake, key=attrgetter("sched_state"), default=None)


# ---------------------------------------------------------------------------
# Round robin
# ---------------------------------------------------------------------------


class RoundRobinScheduler(SchedulerTable):
    """Rotate through ready vCPUs, one quantum each; no per-vCPU state."""

    def __init__(self, services: SchedulerServices, quantum: Time):
        self.services = services
        self.quantum = quantum
        self._ring: deque[VcpuRecord] = deque()
        self._dispatched: VcpuRecord | None = None
        self._timer: int | None = None

    @staticmethod
    def parse(spec: SystemSpec) -> Time:
        opts = dict(spec.scheduler_options or {})
        quantum = opts.pop("quantum_ns", DEFAULT_RR_QUANTUM_NS)
        if opts:
            raise ConfigError(f"unknown rr options {sorted(opts, key=str)}")
        if not _is_int(quantum) or quantum <= 0:
            raise ConfigError(f"quantum_ns must be a positive integer, got {quantum!r}")
        for vm in spec.vms:
            if vm.sched_param not in (None, {}):
                raise ConfigError(f"vm {vm.id}: rr takes no per-VM sched_param")
        return quantum

    def allocate(self, vcpu: VcpuRecord) -> None:
        return None

    def enque(self, vcpu: VcpuRecord) -> None:
        self._ring.append(vcpu)

    def schedule(self) -> VcpuRecord | None:
        if self._timer is not None:
            self.services.cancel_timer(self._timer)
            self._timer = None
        winner = self._dispatched = self._ring.popleft() if self._ring else self._dispatched
        if winner is not None:
            self._timer = self.services.register_timer(self.services.now() + self.quantum)
        return winner

    def yield_(self) -> None:
        self._dispatched = None
        self.services.set_flag()

    def block(self, vcpu: VcpuRecord) -> None:
        self._ring.append(vcpu)

    def unblock(self, vcpu: VcpuRecord) -> None:
        self._ring.append(vcpu)
        if self._dispatched is None:
            self.services.set_flag()  # nothing running: wake the dispatcher


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


SCHEDULERS: dict[str, type[SchedulerTable]] = {
    "edf": EdfScheduler,
    "fp": FixedPriorityScheduler,
    "rr": RoundRobinScheduler,
}


def register(name: str, table_cls: type[SchedulerTable]) -> None:
    """Add a scheduler plugin (used by the config "scheduler" name field)."""
    SCHEDULERS[name] = table_cls


def get_plugin(name: str) -> type[SchedulerTable]:
    try:
        return SCHEDULERS[name]
    except KeyError:
        raise ConfigError(f"unknown scheduler {name!r}; have {sorted(SCHEDULERS, key=str)}") from None
