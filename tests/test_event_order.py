"""Pinned event order.

Each manifest here puts events on the same instant, or makes one overdue,
in a way the engine's ordering rules decide.  The SHA-256 of each trace's
CSV serialization is pinned, so any change to the order of simultaneous
events fails here even when all the coarser checks still pass.
"""

from __future__ import annotations

import hashlib
import io
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hvsim import load_manifest
from hvsim.engine import Engine
from hvsim.model import VcpuRecord
from hvsim.schedulers import SCHEDULERS, FixedPriorityScheduler, register
from hvsim.trace import run_intervals, write_csv

from conftest import assert_conserved, records_of, run_manifest
from manifests import ZERO_COST, busy_workload, fp_manifest, make_manifest, make_vm, rr_manifest
from test_acceptance import _contract_manifest

MS = 1_000_000
US = 1_000


def edf_scripted_manifest(params, workloads, **extra):
    """Zero-cost EDF: one (period_ns, budget_ns) and one workload per VM."""
    vms = [make_vm(i, w) for i, w in enumerate(workloads)]
    sched_param = {str(i): {"period_ns": p, "budget_ns": b} for i, (p, b) in enumerate(params)}
    return make_manifest(vms, {"name": "edf", "sched_param": sched_param}, cost_model=ZERO_COST, **extra)


def trace_sha256(result) -> str:
    buf = io.StringIO()
    write_csv(result.records, buf)
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


def unsorted_same_ns_irqs():
    """Arrivals listed out of time order, two of them at the same ns."""
    wl = {"loop": True, "segments": [{"compute": 300 * US}, {"wfi": True}]}
    m = fp_manifest(
        [1, 2], [wl, wl], horizon=5 * MS, cost_model=None,
        phys_irqs=[
            {"at_ns": 3 * MS, "irq": 33},
            {"at_ns": 1 * MS, "irq": 32},
            {"at_ns": 3 * MS, "irq": 32},
            {"at_ns": 2 * MS, "irq": 33},
            {"at_ns": 1 * MS, "irq": 33},
            {"at_ns": 500 * US, "irq": 40},
        ],
    )
    return m, 5 * MS


def irq_with_quantum_and_compute_end():
    """Zero cost: the RR quantum timer, a compute end and an IRQ share 1 ms."""
    wl = {"loop": True, "segments": [{"compute": MS}, {"hyp_call": None}]}
    m = rr_manifest(
        2, quantum_ns=MS, horizon=6 * MS, workloads=[wl, wl],
        phys_irqs=[{"at_ns": t * MS, "irq": 32 + t % 2} for t in range(1, 6)],
    )
    return m, 6 * MS


def irq_overdue_after_hyp_call():
    """Default costs: each IRQ lands inside a hyp_call's cost window and is
    overdue when the next trap segment is reached."""
    boot = 25_840  # the boot world switch
    wl = [
        {"compute": 100 * US}, {"hyp_call": "a"}, {"hyp_call": "b"},
        {"compute": 100 * US}, {"hyp_call": None},
        {"mmio": {"ipa": "0x1C81104", "op": "write", "value": 3}},
        {"compute": 100 * US}, {"hyp_call": None}, {"wfi": True}, {"compute": 50 * US},
    ]
    m = fp_manifest(
        [1, 2], [wl, busy_workload(2 * MS)], horizon=2 * MS, cost_model=None,
        phys_irqs=[
            {"at_ns": boot + 100 * US + 1_000, "irq": 32},
            {"at_ns": boot + 100 * US + 3_000, "irq": 33},
            {"at_ns": 700 * US, "irq": 32},
        ],
    )
    return m, 2 * MS


def trap_at_horizon():
    """Default costs: the second hyp_call is reached exactly at the horizon."""
    m = fp_manifest(
        [1], [[{"compute": MS}, {"hyp_call": None}, {"hyp_call": None}]],
        horizon=MS, cost_model=None,
    )
    return m, 25_840 + MS + 6_580


def pass_through_chain_into_trap():
    """A pass-through mmio and free-access channel ops run without a trap and
    chain straight into a hyp_call, an ivc_notify and a wfi."""
    region = {"ipa": "0x40000000", "pa": "0x40000000", "len": "0x4000", "perms": "rw"}
    script = {"loop": True, "segments": [
        {"compute": 40 * US},
        {"mmio": {"ipa": "0x40000010", "op": "write", "value": 7}},
        {"ivc_acquire": 0},
        {"mmio": {"ipa": "0x60000000", "op": "read"}},
        {"ivc_release": 0},
        {"hyp_call": None},
        {"ivc_notify": 0},
        {"wfi": True},
    ]}
    vms = [
        make_vm(0, script, regions=[region], virqs=[100],
                shared_pages=[{"page": 0, "ipa": "0x60000000", "perms": "rw"}]),
        make_vm(1, {"loop": True, "segments": [{"compute": 30 * US}, {"wfi": True}]},
                regions=[dict(region, pa="0x41000000")], virqs=[101],
                shared_pages=[{"page": 0, "ipa": "0x61000000", "perms": "rw"}]),
    ]
    m = make_manifest(
        vms, {"name": "fp", "sched_param": {"0": {"priority": 0}, "1": {"priority": 1}}},
        shared_pages=[{"id": 0, "pa": "0x70000000"}],
        channels=[{"id": 0, "endpoints": [0, 1], "pages": [0], "virqs": [100, 101],
                   "variant": "free_access"}],
        phys_irqs=[{"at_ns": t, "irq": 32 + (t // 1000) % 2} for t in range(61_000, 2 * MS, 97_000)],
    )
    return m, 2 * MS


def zero_compute_at_arrival_and_quantum():
    """A hyp_call's cost window ends at 1 ms, where an arrival and the RR
    quantum timer fall; the {"compute": 0} segment reached there ends after
    both of them."""
    wl = {"loop": True, "segments": [
        {"compute": MS - US}, {"hyp_call": None}, {"compute": 0}, {"hyp_call": "z"},
    ]}
    m = rr_manifest(
        2, quantum_ns=MS, horizon=3 * MS, cost_model=dict(ZERO_COST, hyp_call=US),
        workloads=[wl, busy_workload(3 * MS)],
        phys_irqs=[{"at_ns": MS, "irq": 33}],
    )
    return m, 3 * MS


def compute_preempted_then_ends_at_horizon():
    """Default costs: an arrival preempts a 2 ms compute span once, and the
    rest of the span ends exactly at the horizon."""
    m = fp_manifest(
        [1], [[{"compute": 2 * MS}, {"hyp_call": None}]], horizon=2 * MS, cost_model=None,
        phys_irqs=[{"at_ns": MS, "irq": 32}],
    )
    return m, 25_840 + 2 * MS + 7_480


class _BootTimers(FixedPriorityScheduler):
    """Sets timers for 1 ms in init and allocate, before the scripted
    arrivals exist, and one more in its first schedule, after them."""

    def init(self):
        super().init()
        self.services.register_timer(MS)
        self.armed = False

    def allocate(self, vcpu):
        self.services.register_timer(MS)
        return super().allocate(vcpu)

    def schedule(self):
        if not self.armed:
            self.armed = True
            self.services.register_timer(MS)
        return super().schedule()


def boot_timers_and_irqs_same_ns():
    """Timers set at boot, IRQs and a timer set later all fall on 1 ms."""
    m = fp_manifest(
        [1, 2], [busy_workload(3 * MS), [{"compute": MS}, {"wfi": True}, {"compute": MS}]],
        horizon=3 * MS, cost_model=ZERO_COST,
        phys_irqs=[{"at_ns": MS, "irq": 33}, {"at_ns": MS, "irq": 32}],
    )
    m["scheduler"]["name"] = "boot_timers"
    return m, 3 * MS


def edf_deadline_at_schedule_instant():
    """EDF: the deadline timer of vm 1 fires at 10 ms, the deadline of all
    three VMs; vms 1 and 2 miss at that instant, reported in VM order."""
    sleeper = {"loop": True, "segments": [{"compute": 1500 * US}, {"wfi": True}]}
    m = edf_scripted_manifest(
        [(10 * MS, 8 * MS), (5 * MS, 2 * MS), (10 * MS, MS)],
        [busy_workload(30 * MS), sleeper, busy_workload(30 * MS)],
        phys_irqs=[{"at_ns": t * MS, "irq": 33} for t in (5, 10, 15, 20)],
    )
    return m, 22 * MS


def edf_first_deadline_while_dispatched():
    """EDF: vm 0 (budget = period) runs from boot to its first deadline with
    no block in between; vm 1 never runs and misses at 4 ms."""
    m = edf_scripted_manifest([(MS, MS), (4 * MS, MS)], [busy_workload(30 * MS)] * 2)
    return m, 5 * MS


def edf_forgiven_periods_then_miss():
    """EDF: vm 1 sleeps across several 1 ms periods, wakes 100 us before its
    next deadline with a full budget and misses that deadline at once."""
    sleeper = {"loop": True, "segments": [{"compute": 100 * US}, {"wfi": True}]}
    m = edf_scripted_manifest(
        [(20 * MS, 10 * MS), (MS, 300 * US)], [busy_workload(30 * MS), sleeper],
        phys_irqs=[{"at_ns": 5_900 * US, "irq": 33}, {"at_ns": 12_950 * US, "irq": 33}],
    )
    return m, 20 * MS


def edf_block_routes_earliest_deadline():
    """EDF: vm 1's release at 1.5 ms sweeps while vm 0 runs; vm 0 then
    exhausts its budget and is blocked into the waiting queue with a
    deadline (2 ms) earlier than every other VM's."""
    params = [(2 * MS, 1_500 * US), (1_500 * US, 200 * US)]
    m = edf_scripted_manifest(params, [busy_workload(30 * MS)] * 2)
    return m, 12 * MS


def edf_release_with_budget_timer():
    """EDF: vm 0's waiting-queue release and vm 1's budget expiry are timers
    at the same 1 ms instant, handled in one interrupt."""
    params = [(MS, 300 * US), (10 * MS, 300 * US), (2 * MS, 400 * US)]
    m = edf_scripted_manifest(params, [busy_workload(30 * MS)] * 3)
    return m, 10 * MS


PINNED = {
    unsorted_same_ns_irqs:
        "e0b478612c7062eabae29ff609085ad264795fb5319ec3b1988ea09c29e1edec",
    irq_with_quantum_and_compute_end:
        "2f3d311b54b44fbe831b50e01f2608724727f8d4042a9658e305d8cef242ae5c",
    irq_overdue_after_hyp_call:
        "b910f42cda966c688bb785fabccc4abed3f4255a12a6dfd1e40321aedd780d9d",
    trap_at_horizon:
        "a9af20351fb69c373392f63a3a09bc2d3de17a230b3a01e557309690bf843650",
    pass_through_chain_into_trap:
        "78e319d599c110aeb074cb8bcefe76d16cadf26768e2e0fc71ed4feb7d4699c7",
    boot_timers_and_irqs_same_ns:
        "fbe4026d65abbd46248c7fc8e2dd8dc368fc88a9d1a531d16f38d905bb2e2798",
    zero_compute_at_arrival_and_quantum:
        "4f05d4fd6abc77fef4d79a0466d4a6123967b4ea2df2191b09b2cfaa73ee8a33",
    compute_preempted_then_ends_at_horizon:
        "68cd859ff32563edb02772c11a44a742749a13255e7a3d88c684eece402c344a",
    edf_deadline_at_schedule_instant:
        "f9648f39f4f0e1464b750dc67e21b5fa901a3f766c2518f00f58f05dd12eb87f",
    edf_first_deadline_while_dispatched:
        "c79b8f8e2ae158aa71b1b0ec9e603775ea0d9dabe4e0f4df5a5a3196ace9d21f",
    edf_forgiven_periods_then_miss:
        "98ea72c763b9c2f7ab39ce2351d8ced7131e5a5fb08940ae9d241e28542013dd",
    edf_block_routes_earliest_deadline:
        "9988b6f464ec6f0242eaf5d830903be2a73fb1fd49ae50df6dde9a8f88e0296b",
    edf_release_with_budget_timer:
        "18242d3782174a89090ab1572871e67d4343db6dd827f9ec31485109ccfe4c71",
}


@pytest.fixture
def boot_timers_plugin():
    register("boot_timers", _BootTimers)
    yield
    del SCHEDULERS["boot_timers"]


@pytest.mark.parametrize("build", PINNED, ids=lambda f: f.__name__)
def test_trace_pinned(build, boot_timers_plugin):
    manifest, horizon = build()
    res = run_manifest(manifest, horizon)
    assert_conserved(res)
    assert trace_sha256(res) == PINNED[build]


def test_trap_at_horizon_is_not_run():
    manifest, horizon = trap_at_horizon()
    res = run_manifest(manifest, horizon)
    assert len(records_of(res, "hyp_call")) == 1
    assert res.records[-1].kind == "vm_start" and res.records[-1].time == horizon


def test_compute_end_at_horizon_is_not_run():
    manifest, horizon = compute_preempted_then_ends_at_horizon()
    res = run_manifest(manifest, horizon)
    assert len(records_of(res, "phys_irq")) == 1
    assert not records_of(res, "hyp_call")
    assert [r.kind for r in res.records[-2:]] == ["vm_start", "vm_pause"]
    assert res.records[-1].time == horizon
    assert res.metrics.per_vm[0].cpu_time == 2 * MS


def test_5000_consecutive_hyp_calls():
    """Back-to-back traps run in the event loop, never by recursion."""
    n = 5_000
    m = fp_manifest(
        [1], [{"loop": True, "segments": [{"hyp_call": None}] * n + [{"compute": US}]}],
        horizon=40 * MS, cost_model=None,
    )
    res = run_manifest(m, 40 * MS)
    assert_conserved(res)
    assert len(records_of(res, "hyp_call")) > n


def test_edf_pins_reach_their_case():
    """Each EDF pin above still builds the case its docstring names."""
    res = run_manifest(*edf_deadline_at_schedule_instant())
    misses = [(r.time, r.detail) for r in records_of(res, "deadline_miss")]
    assert misses[:2] == [(10 * MS, "vm=1;deadline=10000000"), (10 * MS, "vm=2;deadline=10000000")]

    res = run_manifest(*edf_first_deadline_while_dispatched())
    assert [(r.time, r.detail) for r in records_of(res, "cb_block", "deadline_miss")] == [
        (4 * MS, "vm=1;deadline=4000000")
    ]

    res = run_manifest(*edf_forgiven_periods_then_miss())
    assert [r.time for r in records_of(res, "vm_wake")] == [5_900 * US, 12_950 * US]
    assert [r.time for r in records_of(res, "deadline_miss")] == [6 * MS, 13 * MS]

    res = run_manifest(*edf_block_routes_earliest_deadline())
    assert (1_700 * US, "vm=0") in [(r.time, r.detail) for r in records_of(res, "cb_block")]

    res = run_manifest(*edf_release_with_budget_timer())
    fires = [(r.time, r.detail) for r in records_of(res, "timer_fire")]
    assert (MS, "ids=7+8") in fires


@pytest.mark.parametrize("sched", ["edf", "fp", "rr"])
def test_trace_does_not_depend_on_where_vcpus_sit(sched):
    """EDF and FP keep vCPUs in sets, which iterate in the order of the
    vCPUs' identity hashes, that is of their addresses.  Runs whose vCPUs sit
    elsewhere in memory must still write the same trace, under every shipped
    table."""
    spec = load_manifest(_contract_manifest(sched, random.Random(7919), 100 * MS))
    kept, slots, digests = [], set(), set()
    for pad in range(6):
        # Throwaway vCPUs share the real ones' allocator size class, so each
        # one kept alive moves where the next engine's vCPUs land.
        kept.append([VcpuRecord(-1, None) for _ in range(pad)])
        engine = Engine(spec, 100 * MS)
        kept.append(engine)
        slots.add(tuple(hash(v) % 8 for v in engine.vcpus))
        digests.add(trace_sha256(engine.run()))
    assert len(slots) > 1  # the vCPUs really hashed to different set slots
    assert len(digests) == 1


# -- compute runs -----------------------------------------------------------------

SPLIT_HORIZON = 3 * MS
SPLIT_ARRIVALS = 6  # at most this many split instants get an arrival
SPLIT_SCHEDULERS = {
    "edf": {"name": "edf", "sched_param": {"0": {"period_ns": MS, "budget_ns": 400 * US},
                                            "1": {"period_ns": 2 * MS, "budget_ns": 600 * US}}},
    "fp": {"name": "fp", "sched_param": {"0": {"priority": 1}, "1": {"priority": 2}}},
    "rr": {"name": "rr", "quantum_ns": 200 * US},
}
_durations = st.integers(0, 150 * US)
_trap = st.sampled_from([{"hyp_call": None}, {"wfi": True}])
_middle = st.lists(st.one_of(_durations.map(lambda d: {"compute": d}), _trap), max_size=5)


@st.composite
def _split(draw, segments):
    """segments with each compute split into adjacent pieces, some of them
    zero-length, and the CPU offsets inside the script where a piece ends."""
    out, offsets, done = [], set(), 0
    for seg in segments:
        if "compute" not in seg:
            out.append(seg)
            continue
        d = seg["compute"]
        cuts = sorted(draw(st.lists(st.integers(0, d), max_size=3)))
        out += [{"compute": b - a} for a, b in zip([0] + cuts, cuts + [d])]
        offsets.update(done + c for c in cuts)
        done += d
    return out, offsets


def _instant(records, vm, offset):
    """When vm has consumed offset ns of CPU in the run, or None."""
    used = 0
    for s, e, v in run_intervals(records, SPLIT_HORIZON):
        if v == vm:
            if used + e - s >= offset:
                return s + offset - used
            used += e - s
    return None


def _split_manifest(sched, cost_model, scripts, period):
    workloads = [{"loop": True, "segments": scripts[0]}, {"loop": False, "segments": scripts[1]}]
    irqs = [{"at_ns": t, "irq": 32 + i}
            for i in (0, 1) for t in range(period * (i + 1), SPLIT_HORIZON, period)]
    return make_manifest([make_vm(i, w) for i, w in enumerate(workloads)], SPLIT_SCHEDULERS[sched],
                         cost_model=cost_model, phys_irqs=irqs)


@pytest.mark.parametrize("cost_model", [ZERO_COST, None], ids=["zero_cost", "default_cost"])
@pytest.mark.parametrize("sched", sorted(SPLIT_SCHEDULERS))
@settings(max_examples=12, deadline=None)
@given(data=st.data(), period=st.integers(150 * US, 700 * US))
def test_split_compute_runs_write_the_same_trace(sched, cost_model, data, period):
    """Adjacent compute segments are one compute run: splitting them, into
    zero-length pieces too, changes no byte of the trace and no metric, even
    with an arrival exactly where a piece ends.  VM 0 loops with compute at
    both ends of its script (the wrap is not merged); VM 1's script ends in
    compute, after which the VM parks."""
    whole = [
        [{"compute": data.draw(st.integers(20 * US, 150 * US))}, *data.draw(_middle),
         {"compute": data.draw(_durations)}],
        [*data.draw(_middle), {"compute": data.draw(_durations)}],
    ]
    pieces, offsets = zip(*(data.draw(_split(s)) for s in whole))
    manifest = _split_manifest(sched, cost_model, whole, period)
    # Arrivals go on the split instants earliest first: each one moves only
    # what happens after it, so the instants found before it still hold.
    todo = {(vm, off) for vm in (0, 1) for off in offsets[vm] if off}
    for _ in range(SPLIT_ARRIVALS):
        records = run_manifest(manifest, SPLIT_HORIZON).records
        found = [(t, vm, off) for vm, off in todo if (t := _instant(records, vm, off)) is not None]
        if not found:
            break
        t, vm, off = min(found)
        todo.discard((vm, off))
        manifest["phys_irqs"].append({"at_ns": t, "irq": 32 + vm})
    want = run_manifest(manifest, SPLIT_HORIZON)
    # VM 0's loop unrolled past the horizon puts its last compute next to its
    # first, where they are one run; as a loop they are two.
    laps = SPLIT_HORIZON // sum(seg.get("compute", 0) for seg in whole[0]) + 2
    for vm0 in {"loop": True, "segments": pieces[0]}, {"loop": False, "segments": pieces[0] * laps}:
        split = json.loads(json.dumps(manifest))
        split["vms"][0]["workload"] = vm0
        split["vms"][1]["workload"]["segments"] = pieces[1]
        got = run_manifest(split, SPLIT_HORIZON)
        assert_conserved(got)
        assert trace_sha256(got) == trace_sha256(want)
        assert got.metrics.to_dict() == want.metrics.to_dict()


def test_one_engine_step_per_compute_run(monkeypatch):
    """Three adjacent computes end once per loop, and the hyp_call reached
    there runs in the same step, without going back through the step slot."""
    events = []
    end_compute, set_step = Engine._end_compute, Engine._set_step

    def counted_end(self, vcpu, ctx):
        events.append("end")
        end_compute(self, vcpu, ctx)

    def counted_set(self, vcpu, ctx):
        events.append("set")
        set_step(self, vcpu, ctx)

    monkeypatch.setattr(Engine, "_end_compute", counted_end)
    monkeypatch.setattr(Engine, "_set_step", counted_set)
    script = {"loop": True, "segments": [
        {"compute": 30 * US}, {"compute": 50 * US}, {"compute": 20 * US}, {"hyp_call": None},
    ]}
    engine = Engine(load_manifest(fp_manifest([1], [script], horizon=2 * MS, cost_model=None)), 2 * MS)
    plain = engine.trace

    def trace(kind, *args, **kwargs):
        events.append(kind)
        plain(kind, *args, **kwargs)

    engine.trace = trace
    assert_conserved(engine.run())
    ends = [i for i, e in enumerate(events) if e == "end"]
    assert len(ends) == events.count("hyp_call") > 10
    assert all(events[i + 1] == "vm_pause" and events[i + 2] == "hyp_call" for i in ends)
