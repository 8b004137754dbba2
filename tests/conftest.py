from __future__ import annotations

import pytest

from hvsim import load_manifest, run
from hvsim.framework import SchedulerTable
from hvsim.schedulers import SCHEDULERS, FixedPriorityScheduler, register
from hvsim.trace import run_intervals
from hvsim.workloadgen import ZERO_COST, busy_workload, make_manifest, make_vm


def run_manifest(manifest, horizon):
    return run(load_manifest(manifest), horizon)


def records_of(result, *kinds):
    return [r for r in result.records if r.kind in kinds]


def total_cost(records):
    return sum(r.cost_ns for r in records)


def assert_conserved(result):
    m = result.metrics
    busy = sum(v.cpu_time for v in m.per_vm.values()) + m.hypervisor_overhead_time
    assert busy + m.idle_time == result.horizon, (
        f"time not conserved: cpu+hv={busy} idle={m.idle_time} horizon={result.horizon}"
    )


def timeline_us(result):
    """Per-microsecond runner array; requires all boundaries on whole us."""
    tl = [-1] * (result.horizon // 1000)
    for s, e, vm in run_intervals(result.records, result.horizon):
        assert s % 1000 == 0 and e % 1000 == 0, (s, e)
        for t in range(s // 1000, e // 1000):
            tl[t] = vm
    return tl


def fp_manifest(priorities, workloads, horizon, cost_model=ZERO_COST, **extra):
    vms = [make_vm(i, w) for i, w in enumerate(workloads)]
    scheduler = {
        "name": "fp",
        "sched_param": {str(i): {"priority": p} for i, p in enumerate(priorities)},
    }
    return make_manifest(vms, scheduler, cost_model=cost_model, **extra)


def rr_manifest(n_vms, quantum_ns, horizon, cost_model=ZERO_COST, workloads=None, **extra):
    if workloads is None:
        workloads = [busy_workload(horizon) for _ in range(n_vms)]
    vms = [make_vm(i, w) for i, w in enumerate(workloads)]
    scheduler = {"name": "rr", "quantum_ns": quantum_ns}
    return make_manifest(vms, scheduler, cost_model=cost_model, **extra)


class SameInstantTimer(FixedPriorityScheduler):
    """A broken FP table: every schedule() sets a timer at the current instant,
    so under a zero cost model virtual time never advances.  The record cap
    fails a test whose engine does not end the livelock, instead of hanging."""

    RECORD_CAP = 100_000

    def schedule(self):
        assert len(self.services.records) < self.RECORD_CAP, "the engine did not end the livelock"
        self.services.register_timer(self.services.now())
        return super().schedule()


@pytest.fixture
def same_instant_timer():
    """The registered name of SameInstantTimer, for the length of one test."""
    register("same_instant_timer", SameInstantTimer)
    yield "same_instant_timer"
    del SCHEDULERS["same_instant_timer"]


# A plugin's bad service call, and the text of the contract violation it ends in.
BAD_SERVICE_CALLS = {
    "timer-in-past": (lambda services, now: services.register_timer(now - 1),
                      "timer at 999999 is in the past"),
    "miss-of-unknown-vm": (lambda services, now: services.report_deadline_miss(7, now), "unknown vm 7"),
    "timer-at-str": (lambda services, now: services.register_timer("5"),
                     "timer instant '5' is not an integer"),
    "miss-at-str": (lambda services, now: services.report_deadline_miss(0, "5\n6,7"),
                    "of vm 0 is not an integer"),
    "cancel-of-unset-timer": (lambda services, now: services.cancel_timer(42), "timer 42 was never set"),
}


def bad_service_call_table(case):
    """A broken FP table whose schedule() makes BAD_SERVICE_CALLS[case] from 1 ms on."""
    call = BAD_SERVICE_CALLS[case][0]

    class BadServiceCall(FixedPriorityScheduler):
        def schedule(self):
            now = self.services.now()
            if now >= 1_000_000:
                call(self.services, now)
            return super().schedule()

    return BadServiceCall


def bad_service_call_manifest():
    """vm 0 sleeps at 1 ms, so schedule() runs then; the table is "bad_call"."""
    m = fp_manifest([1, 2], [[{"compute": 1_000_000}, {"wfi": True}], busy_workload(5_000_000)], 5_000_000)
    m["scheduler"]["name"] = "bad_call"
    return m


class FakeHost:
    """Minimal engine stand-in for framework-level unit tests."""

    def __init__(self):
        self.t = 0
        self.records = []  # (kind, actor, cost_field, cost_ns, detail)
        self._ids = 0

    def now(self):
        return self.t

    def trace(self, kind, actor="hv", cost_field="", cost_ns=0, detail=""):
        self.records.append((kind, str(actor), cost_field, cost_ns, detail))

    def charge(self, kind, cost_field, detail="", actor="hv"):
        cost = {"world_switch": 25_840}.get(cost_field, 0)
        self.records.append((kind, str(actor), cost_field, cost, detail))
        self.t += cost

    def register_timer(self, at):
        self._ids += 1
        return self._ids

    def cancel_timer(self, timer_id):
        pass

    def report_deadline_miss(self, vm_id, deadline):
        self.records.append(("deadline_miss", "hv", "", 0, f"vm={vm_id};deadline={deadline}"))

    def kinds(self):
        return [r[0] for r in self.records]


class RecordingTable(SchedulerTable):
    """Scripted table that logs every callback; schedule() pops from a plan."""

    def __init__(self, plan=None):
        self.calls = []
        self.plan = list(plan or [])
        self.vcpus = []

    def init(self):
        self.calls.append(("init",))

    def schedule(self):
        self.calls.append(("schedule",))
        if self.plan:
            pick = self.plan.pop(0)
        else:
            pick = None
        if isinstance(pick, int):
            return self.vcpus[pick]
        return pick

    def yield_(self):
        self.calls.append(("yield",))

    def block(self, vcpu):
        self.calls.append(("block", vcpu.id))

    def unblock(self, vcpu):
        self.calls.append(("unblock", vcpu.id))

    def allocate(self, vcpu):
        self.calls.append(("allocate", vcpu.id))
        self.vcpus.append(vcpu)
        return {"state": vcpu.id}

    def enque(self, vcpu):
        self.calls.append(("enque", vcpu.id))


@pytest.fixture
def fake_host():
    return FakeHost()
