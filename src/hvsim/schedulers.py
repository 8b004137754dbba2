"""Scheduler-table implementations: EDF, fixed-priority, round-robin.

Each class's parse() is the only check of its options and sched_params.
All three queue vCPUs, keep each VM's own data in the sched_state that
allocate() returns, and track which vCPU they last handed to the
dispatcher, so schedule() can keep returning the running vCPU while it
remains the best choice.
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
    vCPUs that are awake and not dispatched.  schedule() first replenishes
    every VM whose period has arrived.  One pass over _ready then picks the
    earliest deadline (lowest VM id on ties) among the VMs with budget left,
    the dispatched one included, and arms a timer for its budget expiry.  The
    same pass finds the next release of an exhausted VM; a second timer wakes
    the system then, or a release while a longer-deadline VM runs would be
    handled arbitrarily late.

    The sweep is skipped while now is before _bound, a lower bound on the
    deadlines of the ready and dispatched VMs that the sweep recomputes and
    _make_ready lowers.  schedule() still cancels and re-arms its timers on
    every call: timer_set/timer_cancel records, their count and their order
    are part of the trace contract.
    """

    def __init__(self, services: SchedulerServices, params: dict[int, EdfParam]):
        self.services = services
        self._params = params
        self._ready: set[VcpuRecord] = set()
        self._dispatched: VcpuRecord | None = None
        self._timers: list[int] = []
        self._bound: Time | float = float("inf")

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
        return EdfVmState(param, self.services.now() + param.period, param.budget, vcpu.total_consumed)

    def enque(self, vcpu: VcpuRecord) -> None:
        self._make_ready(vcpu)

    def schedule(self) -> VcpuRecord | None:
        services, timers = self.services, self._timers
        now = services.now()
        for timer_id in timers:
            services.cancel_timer(timer_id)
        timers.clear()
        dispatched = self._dispatched
        if dispatched is not None:
            self._sync(dispatched)
        if now >= self._bound:
            self._sweep(now)

        # Earliest (deadline, id) of the VMs with budget; earliest deadline of the rest.
        winner = release = None
        if dispatched is not None and dispatched.sched_state.remaining > 0:
            winner, best = dispatched, dispatched.sched_state.deadline
        for vcpu in self._ready:
            st = vcpu.sched_state
            deadline = st.deadline
            if st.remaining <= 0:
                if release is None or deadline < release:
                    release = deadline
            elif winner is None or deadline < best or (deadline == best and vcpu.id < winner.id):
                winner, best = vcpu, deadline
        if winner is not dispatched:
            self._ready.discard(winner)
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
        self._make_ready(vcpu)
        self.services.set_flag()

    def unblock(self, vcpu: VcpuRecord) -> None:
        self._sync(vcpu)
        st = vcpu.sched_state
        now = self.services.now()
        # Periods that elapsed while asleep are forgiven, not counted as misses.
        while st.deadline <= now:
            self._replenish(vcpu)
        self._make_ready(vcpu)
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

    def _sweep(self, now: Time) -> None:
        """Replenish every crossed period, in VM order; unconsumed budget at
        a crossed deadline is a deadline miss.  Resets the bound."""
        tracked = set(self._ready)
        if self._dispatched is not None:
            tracked.add(self._dispatched)
        bound = float("inf")
        for vcpu in sorted(tracked, key=attrgetter("id")):
            st = vcpu.sched_state
            while st.deadline <= now:
                if st.remaining > 0:
                    self.services.report_deadline_miss(vcpu.id, st.deadline)
                self._replenish(vcpu)
            bound = min(bound, st.deadline)
        self._bound = bound

    def _make_ready(self, vcpu: VcpuRecord) -> None:
        self._ready.add(vcpu)
        self._bound = min(self._bound, vcpu.sched_state.deadline)


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
            raise ConfigError(f"unknown rr options {sorted(opts)}")
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
        raise ConfigError(f"unknown scheduler {name!r}; have {sorted(SCHEDULERS)}") from None
