import gc
import heapq
import io
import random
import sys
from types import SimpleNamespace

import pytest

import hvsim.engine
from hvsim import SimulationAborted, compare_traces, load_manifest
from hvsim.model import ContractViolation
from hvsim.schedulers import FixedPriorityScheduler, register, SCHEDULERS
from hvsim.trace import Trace, TraceRecord, run_intervals, write_csv
from hvsim.vgic import SPURIOUS_IRQ

from conftest import (
    BAD_SERVICE_CALLS,
    assert_conserved,
    bad_service_call_manifest,
    bad_service_call_table,
    records_of,
    run_manifest,
)
from manifests import ZERO_COST, busy_workload, edf_manifest, fp_manifest, make_manifest, rr_manifest
from test_acceptance import _contract_manifest
from test_ivc import ivc_manifest
from test_trace import _irq_ivc_manifest

INT_ONLY = dict(ZERO_COST, interrupt_entry_exit=7_480)
MS = 1_000_000


def kinds(result):
    return [r.kind for r in result.records]


class TestBasics:
    def test_empty_workloads_idle_after_first_schedule(self):
        m = fp_manifest([1, 2], [[], []], horizon=MS)
        res = run_manifest(m, MS)
        assert all(v.cpu_time == 0 for v in res.metrics.per_vm.values())
        assert res.metrics.hypervisor_overhead_time == 0
        assert res.metrics.idle_time == MS
        assert "vm_start" not in kinds(res)
        assert kinds(res).count("vm_park") == 2
        assert_conserved(res)

    def test_compute_wfi_irq_resume_timeline(self):
        # run [0, 5ms), sleep, wake at 8ms plus interrupt cost, resume
        m = fp_manifest(
            [1],
            [[{"compute": 5 * MS}, {"wfi": True}, {"compute": 2 * MS}]],
            horizon=20 * MS,
            cost_model=INT_ONLY,
            phys_irqs=[{"at_ns": 8 * MS, "irq": 32}],
        )
        res = run_manifest(m, 20 * MS)
        assert run_intervals(res.records, 20 * MS) == [
            (0, 5 * MS, 0),
            (8 * MS + 7_480, 10 * MS + 7_480, 0),
        ]
        assert res.metrics.per_vm[0].irqs_received == 1
        assert_conserved(res)

    def test_compute_wfi_irq_with_full_cost_model(self):
        m = fp_manifest(
            [1],
            [[{"compute": 5 * MS}, {"wfi": True}, {"compute": 2 * MS}]],
            horizon=20 * MS,
            cost_model=None,  # defaults apply
            phys_irqs=[{"at_ns": 8 * MS, "irq": 32}],
        )
        res = run_manifest(m, 20 * MS)
        boot = 25_840
        start2 = 8 * MS + 7_480 + 25_840  # interrupt entry/exit, then world switch
        assert run_intervals(res.records, 20 * MS) == [
            (boot, boot + 5 * MS, 0),
            (start2, start2 + 2 * MS, 0),
        ]
        # hypervisor time: boot switch + wfi trap + interrupt + wake switch
        assert res.metrics.hypervisor_overhead_time == 25_840 + 6_580 + 7_480 + 25_840
        assert_conserved(res)

    def test_empty_hyp_call_charges_exactly_its_cost(self):
        m = fp_manifest(
            [1],
            [[{"compute": MS}, {"hyp_call": None}, {"compute": MS}]],
            horizon=10 * MS,
            cost_model=dict(ZERO_COST, hyp_call=6_580),
        )
        res = run_manifest(m, 10 * MS)
        assert res.metrics.hypervisor_overhead_time == 6_580
        (record,) = records_of(res, "hyp_call")
        assert record.cost_field == "hyp_call" and record.cost_ns == 6_580
        assert record.time == MS
        assert_conserved(res)

    def test_horizon_truncates_compute(self):
        m = fp_manifest([1], [[{"compute": 10 * MS}]], horizon=6 * MS)
        res = run_manifest(m, 6 * MS)
        assert res.metrics.per_vm[0].cpu_time == 6 * MS
        assert res.metrics.idle_time == 0
        assert_conserved(res)

    def test_unassigned_irq_dropped_with_warning(self):
        m = fp_manifest(
            [1], [busy_workload(MS)], horizon=MS,
            cost_model=INT_ONLY,
            phys_irqs=[{"at_ns": 100_000, "irq": 99}],
        )
        res = run_manifest(m, MS)
        (warn,) = records_of(res, "irq_dropped")
        assert "warning" in warn.detail
        assert res.metrics.hypervisor_overhead_time == 7_480
        assert_conserved(res)


class TestEventOrdering:
    def test_sleep_then_same_instant_wakeup(self):
        # wfi and interrupt at the same timestamp: the trap is processed first,
        # the interrupt then wakes the sleeper through the unblock path.
        m = fp_manifest(
            [1], [[{"wfi": True}, {"compute": MS}]], horizon=5 * MS,
            phys_irqs=[{"at_ns": 0, "irq": 32}],
        )
        res = run_manifest(m, 5 * MS)
        ks = kinds(res)
        assert ks.index("vm_sleep") < ks.index("vm_wake")
        assert "cb_unblock" in ks
        sleep = next(r for r in res.records if r.kind == "vm_sleep")
        wake = next(r for r in res.records if r.kind == "vm_wake")
        assert sleep.time == wake.time == 0
        # woken VM runs its remaining compute
        assert res.metrics.per_vm[0].cpu_time == MS

    def test_interrupt_processed_before_compute_end(self):
        m = fp_manifest(
            [1], [[{"compute": 5 * MS}, {"hyp_call": None}]], horizon=10 * MS,
            phys_irqs=[{"at_ns": 5 * MS, "irq": 32}],
        )
        res = run_manifest(m, 10 * MS)
        ks = kinds(res)
        assert ks.index("phys_irq") < ks.index("hyp_call")

    def test_preempted_compute_end_does_not_fire_while_idle(self):
        # The budget timer preempts the 5 ms span at 1 ms and EDF leaves the
        # CPU idle; the span's end at 5 ms must not run.
        m = edf_manifest([(10 * MS, MS)], 10 * MS)
        m["vms"][0]["workload"] = [{"compute": 5 * MS}, {"wfi": True}]
        res = run_manifest(m, 10 * MS)
        assert_conserved(res)
        assert res.metrics.per_vm[0].cpu_time == MS
        assert res.records[-1].time == MS and not records_of(res, "wfi_trap")

    def test_two_timers_same_instant_single_interrupt_and_checkpoint(self):
        class TwinTimer(FixedPriorityScheduler):
            armed = False

            def schedule(self):
                if not self.armed:
                    self.armed = True
                    self.services.register_timer(self.services.now() + MS)
                    self.services.register_timer(self.services.now() + MS)
                return super().schedule()

        register("twin_timer", TwinTimer)
        try:
            m = fp_manifest([1], [busy_workload(10 * MS)], horizon=10 * MS)
            m["scheduler"]["name"] = "twin_timer"
            res = run_manifest(m, 10 * MS)
        finally:
            del SCHEDULERS["twin_timer"]
        fires = records_of(res, "timer_fire")
        assert len(fires) == 1
        assert fires[0].detail.startswith("ids=1+2")
        after = res.records[res.records.index(fires[0]) :]
        assert [r.kind for r in after if r.kind == "checkpoint"][:1] == ["checkpoint"]
        assert sum(1 for r in after if r.kind == "checkpoint") == 1

    def test_cancelled_timer_never_fires(self):
        """Timer ids count up from 1; only cancelling an armed timer writes a record."""
        ids = []

        class CancelTimer(FixedPriorityScheduler):
            def schedule(self):
                services = self.services
                if not ids:
                    first = services.register_timer(services.now() + MS)
                    services.cancel_timer(first)
                    services.cancel_timer(first)  # already cancelled
                    ids.extend((first, services.register_timer(services.now() + 2 * MS)))
                else:
                    services.cancel_timer(ids[1])  # fired at 2 ms
                return super().schedule()

        register("cancel_timer", CancelTimer)
        try:
            m = fp_manifest([1], [busy_workload(10 * MS)], horizon=10 * MS)
            m["scheduler"]["name"] = "cancel_timer"
            res = run_manifest(m, 10 * MS)
        finally:
            del SCHEDULERS["cancel_timer"]
        assert ids == [1, 2]
        assert [r.detail for r in records_of(res, "timer_set")] == ["id=1;at=1000000", "id=2;at=2000000"]
        assert [r.detail for r in records_of(res, "timer_cancel")] == ["id=1"]
        assert [(r.time, r.detail) for r in records_of(res, "timer_fire")] == [(2 * MS, "ids=2")]
        assert records_of(res, "cb_schedule")[-1].time == 2 * MS  # the cancel of the fired timer ran


class TestCheckpointCompleteness:
    def test_every_hyp_entry_followed_by_one_checkpoint(self):
        m = fp_manifest(
            [1, 2],
            [
                [{"compute": MS}, {"hyp_call": None}, {"compute": MS}, {"wfi": True}],
                busy_workload(20 * MS),
            ],
            horizon=20 * MS,
            phys_irqs=[{"at_ns": 7 * MS, "irq": 32}],
        )
        res = run_manifest(m, 20 * MS)
        entries = records_of(
            res, "hyp_call", "wfi_trap", "phys_irq", "timer_fire",
            "mmio_dist", "stage2_fault", "ivc_notify", "ivc_busy",
            "ivc_acquire", "ivc_release", "vm_park",
        )
        entries = [r for r in entries if "noop" not in r.detail]
        checkpoints = records_of(res, "checkpoint")
        assert len(checkpoints) == 1 + len(entries)  # +1 for the boot dispatch

    def test_world_switch_only_at_flagged_checkpoints(self):
        m = rr_manifest(3, quantum_ns=MS, horizon=30 * MS)
        res = run_manifest(m, 30 * MS)
        last_checkpoint_flag = None
        for r in res.records:
            if r.kind == "checkpoint":
                last_checkpoint_flag = r.detail.endswith("flag=1")
            elif r.kind == "dispatch" and r.cost_field == "world_switch":
                assert last_checkpoint_flag is True


class TestCompareTraces:
    def test_same_spec_twice_is_identical(self):
        m = rr_manifest(2, quantum_ns=MS, horizon=10 * MS)
        a = run_manifest(m, 10 * MS)
        b = run_manifest(m, 10 * MS)
        assert compare_traces(a.records, b.records) is None

    def test_quantum_change_diverges_at_first_timer(self):
        a = run_manifest(rr_manifest(2, quantum_ns=MS, horizon=10 * MS), 10 * MS)
        b = run_manifest(rr_manifest(2, quantum_ns=2 * MS, horizon=10 * MS), 10 * MS)
        div = compare_traces(a.records, b.records)
        assert div is not None
        idx, ra, rb = div
        assert "timer_set" in ra and "timer_set" in rb

    def test_prefix_divergence_at_shorter_length(self):
        m = rr_manifest(2, quantum_ns=MS, horizon=10 * MS)
        a = run_manifest(m, 10 * MS)
        idx, ra, rb = compare_traces(a.records, a.records[:-1])
        assert idx == len(a.records) - 1
        assert rb is None and ra is not None


class TestContractViolationAbort:
    def test_sleeping_return_aborts_with_trace(self):
        class ReturnsSleeper(FixedPriorityScheduler):
            vcpus = []

            def allocate(self, vcpu):
                self.vcpus.append(vcpu)
                return super().allocate(vcpu)

            def schedule(self):
                for v in self.vcpus:
                    if v.run_state.value == "sleeping":
                        return v
                return super().schedule()

        register("bad_sleeper", ReturnsSleeper)
        try:
            m = fp_manifest(
                [1, 2],
                [[{"compute": MS}, {"wfi": True}], busy_workload(10 * MS)],
                horizon=10 * MS,
            )
            m["scheduler"]["name"] = "bad_sleeper"
            with pytest.raises(SimulationAborted) as err:
                run_manifest(m, 10 * MS)
        finally:
            del SCHEDULERS["bad_sleeper"]
        assert err.value.records[-1].kind == "contract_violation"


@pytest.mark.parametrize("case", BAD_SERVICE_CALLS)
def test_bad_service_call_aborts_with_trace(case):
    message = BAD_SERVICE_CALLS[case][1]
    register("bad_call", bad_service_call_table(case))
    try:
        with pytest.raises(SimulationAborted, match=message) as err:
            run_manifest(bad_service_call_manifest(), 5 * MS)
    finally:
        del SCHEDULERS["bad_call"]
    last = err.value.records[-1]
    assert (last.time, last.kind) == (MS, "contract_violation") and message in last.detail


def test_service_range_checks_stop_at_their_bounds():
    """Timer ids run from 1 to the last one issued and VM ids from 0 to the
    last VM's: one step past either end is a contract violation."""
    eng = hvsim.engine.Engine(load_manifest(fp_manifest([1, 2], [[], []], horizon=MS)), MS)
    last = eng.register_timer(MS)
    eng.cancel_timer(last)
    for bad in (0, last + 1):
        with pytest.raises(ContractViolation, match=f"^timer {bad} was never set$"):
            eng.cancel_timer(bad)
    eng.report_deadline_miss(0, MS)
    eng.report_deadline_miss(1, MS)
    for bad in (-1, 2):
        with pytest.raises(ContractViolation, match=f"^deadline miss reported for unknown vm {bad}$"):
            eng.report_deadline_miss(bad, MS)
    assert [r.kind for r in eng.records] == ["timer_set", "timer_cancel", "deadline_miss", "deadline_miss"]


class TestSameInstantLivelock:
    """A run whose virtual time stops advancing ends in a contract violation."""

    def test_timer_at_now_under_zero_cost_aborts(self, same_instant_timer):
        m = fp_manifest([1], [[{"compute": MS}]], horizon=MS)
        m["scheduler"]["name"] = same_instant_timer
        with pytest.raises(SimulationAborted, match="virtual time does not advance") as err:
            run_manifest(m, MS)
        records = err.value.records
        assert isinstance(records, Trace)
        assert records[-1].kind == "contract_violation"
        assert {r.time for r in records} == {0}
        assert len([r for r in records if r.kind == "timer_fire"]) == (
            hvsim.engine._MAX_TIMER_IRQS_PER_INSTANT
        )

    def test_timer_at_now_with_interrupt_cost_runs_to_horizon(self, same_instant_timer):
        # Each timer interrupt charges its cost, so the next one is at a later
        # instant: many more than the bound, and no abort.
        m = fp_manifest([1], [[{"compute": MS}]], horizon=MS, cost_model=INT_ONLY)
        m["scheduler"]["name"] = same_instant_timer
        res = run_manifest(m, MS)
        assert len(records_of(res, "timer_fire")) > 2 * hvsim.engine._MAX_TIMER_IRQS_PER_INSTANT
        assert_conserved(res)


class TestMetricsBasics:
    def test_switch_in_counts(self):
        res = run_manifest(rr_manifest(2, quantum_ns=MS, horizon=4 * MS), 4 * MS)
        # A[0,1) B[1,2) A[2,3) B[3,4): two switch-ins each
        assert res.metrics.per_vm[0].switch_in_count == 2
        assert res.metrics.per_vm[1].switch_in_count == 2
        assert_conserved(res)

    def test_zero_vms_idles_whole_horizon(self):
        m = make_manifest([], {"name": "fp", "sched_param": {}}, cost_model=ZERO_COST)
        res = run_manifest(m, MS)
        assert res.metrics.idle_time == MS
        assert_conserved(res)


DIST = 0x01C8_1000


def _dist_access(offset, op, value=None):
    access = {"ipa": hex(DIST + offset), "op": op}
    if value is not None:
        access["value"] = value
    return {"mmio": access}


def _hv(time, kind, cost_field="", cost_ns=0, detail=""):
    return TraceRecord(time, "hv", kind, cost_field, cost_ns, detail)


class TestDistributorAccess:
    """Trapped distributor accesses under the default cost model: the boot
    switch ends at 25,840 ns and each access costs 6,580 ns."""

    def test_read_records_the_value_read(self):
        m = fp_manifest([1], [[_dist_access(0x104, "read"), {"compute": MS}]], 2 * MS, cost_model=None)
        res = run_manifest(m, 2 * MS)
        assert records_of(res, "mmio_dist", "dist_fault") == [
            _hv(25_840, "mmio_dist", "mmio_emulation", 6_580, "vm=0;offset=0x104;op=read;value=0x1"),
        ]
        assert_conserved(res)

    @pytest.mark.parametrize("policy, faults", [("fault", 1), ("ignore", 0)])
    def test_unmodeled_offset_follows_policy(self, policy, faults):
        m = fp_manifest([1], [[_dist_access(0xF00, "write", 5), {"compute": MS}]], 2 * MS,
                        cost_model=None, faults={"dist_unmodeled": policy})
        res = run_manifest(m, 2 * MS)
        access = _hv(25_840, "mmio_dist", "mmio_emulation", 6_580, "vm=0;offset=0xf00;op=write;value=0x5")
        fault = _hv(32_420, "dist_fault", detail="vm=0;offset=0xf00")
        assert records_of(res, "mmio_dist", "dist_fault") == [access, fault][: 1 + faults]
        assert_conserved(res)

    def test_isenabler_write_injects_latched_irq(self):
        """Irq 32 arrives while disabled and latches; the guest's enable
        injects it, and it is taken as soon as the guest resumes."""
        script = [{"compute": MS}, _dist_access(0x0, "write", 1), _dist_access(0x104, "write", 1),
                  {"compute": MS}]
        m = fp_manifest([1], [script], 3 * MS, cost_model=None, gic_boot_init=False,
                        phys_irqs=[{"at_ns": MS // 2, "irq": 32}])
        res = run_manifest(m, 3 * MS)
        assert records_of(res, "irq_latched", "mmio_dist", "virq_inject", "guest_ack", "guest_eoi") == [
            _hv(507_480, "irq_latched", detail="irq=32;target=0"),
            _hv(1_033_320, "mmio_dist", "mmio_emulation", 6_580, "vm=0;offset=0x0;op=write;value=0x1"),
            _hv(1_039_900, "mmio_dist", "mmio_emulation", 6_580, "vm=0;offset=0x104;op=write;value=0x1"),
            _hv(1_046_480, "virq_inject", detail="target=0;hw=1;via=mmio"),
            TraceRecord(1_046_480, "0", "guest_ack", "", 0, "virq=32"),
            TraceRecord(1_046_480, "0", "guest_eoi", "", 0, "virq=32"),
        ]
        assert res.metrics.per_vm[0].irqs_received == 1
        assert_conserved(res)


    def test_mmio_injections_target_the_writer(self):
        """The distributor drains only the writing VM, which is running: a
        via=mmio injection never has another VM to wake."""
        scripts = [
            {"loop": True, "segments": [
                {"compute": 150_000 + 50_000 * i}, _dist_access(0x184, "write", 1 << i),
                {"compute": 200_000}, _dist_access(0x104, "write", 1 << i), {"wfi": True},
            ]}
            for i in range(3)
        ]
        m = rr_manifest(3, quantum_ns=MS // 2, horizon=20 * MS, cost_model=None, workloads=scripts,
                        phys_irqs=[{"at_ns": t, "irq": 32 + t % 3} for t in range(70_001, 20 * MS, 90_001)])
        res = run_manifest(m, 20 * MS)
        writer, targets = None, []
        for r in res.records:
            if r.kind == "mmio_dist":
                writer = r.detail.split(";")[0].removeprefix("vm=")
            elif r.kind == "virq_inject" and r.detail.endswith("via=mmio"):
                assert r.detail.startswith(f"target={writer};"), r
                targets.append(writer)
        assert sorted(set(targets)) == ["0", "1", "2"]
        assert_conserved(res)


def test_interrupt_details_cover_every_outcome():
    """Each interrupt record's detail, built once per id, is the text the
    record documents: for an injected id, a latched one (its VM's distributor
    is off), an SGI id, an unassigned id and id 1023, and for ACK/EOI of an
    owned irq and of a channel virq."""
    a_script = [{"compute": MS}, {"ivc_notify": 0}, {"compute": MS}, {"wfi": True}]
    b_script = [_dist_access(0x0, "write", 0), {"compute": 10 * MS}]
    arrivals = [(MS // 2, 32), (3 * MS, 40), (3 * MS + 1, 5), (3 * MS + 2, 99), (3 * MS + 3, 1023),
                (3 * MS + 4, 32)]
    m = ivc_manifest(a_script, b_script)
    m["phys_irqs"] = [{"at_ns": at, "irq": irq} for at, irq in arrivals]
    res = run_manifest(m, 5 * MS)
    owner = {32: 0, 40: 1}
    outcomes = {32: ("virq_inject", f"virq=32;target={owner[32]};hw=1"),
                40: ("irq_latched", f"irq=40;target={owner[40]}")}
    records = list(res.records)
    arrived, acked = [], []
    for k, r in enumerate(records):
        if r.kind == "phys_irq":
            irq = arrivals[len(arrived)][1]
            arrived.append(irq)
            assert r.detail == f"irq={irq}"
            dropped = ("irq_dropped", f"irq={irq};warning=unassigned")
            assert (records[k + 1].kind, records[k + 1].detail) == outcomes.get(irq, dropped)
        elif r.kind == "guest_ack":
            assert (records[k + 1].kind, records[k + 1].detail) == ("guest_eoi", r.detail)
            acked.append(r.detail)
    assert arrived == [irq for _, irq in arrivals]
    assert acked == [f"virq={v}" for v in (32, 101, 32)]
    assert_conserved(res)


def _trapping_rr_manifest():
    trapping = {"loop": True, "segments": [
        {"compute": 200_000}, {"hyp_call": None}, {"compute": 100_000}, {"wfi": True},
        {"mmio": {"ipa": "0x01c81100", "op": "write", "value": 1}},
    ]}
    return rr_manifest(
        2, quantum_ns=MS // 2, horizon=5 * MS, cost_model=None,
        workloads=[trapping, busy_workload(5 * MS)],
        phys_irqs=[{"at_ns": t, "irq": 32 + t % 2} for t in range(150_001, 5 * MS, 300_001)],
    )


@pytest.mark.parametrize("make", [
    _trapping_rr_manifest,
    lambda: edf_manifest([(MS, MS // 4), (2 * MS, MS // 2)], 5 * MS),
])
def test_finished_run_leaves_no_cyclic_garbage(make):
    """Dropping a run's result frees its trace by reference counting alone."""
    spec = load_manifest(make())
    gc.collect()
    gc.disable()
    try:
        res = hvsim.engine.Engine(spec, 5 * MS).run()
        assert res.records
        del res
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_an_engine_runs_once():
    engine = hvsim.engine.Engine(load_manifest(_trapping_rr_manifest()), MS)
    assert_conserved(engine.run())
    with pytest.raises(RuntimeError, match="an Engine runs once"):
        engine.run()


@pytest.mark.skipif(sys.implementation.name != "cpython", reason="counts CPython's gen-0 allocations")
def test_trace_keeps_no_gc_tracked_object_per_record():
    """The trace is one flat list, so a run allocates far fewer objects the
    cyclic collector tracks than it writes records, and collects rarely."""
    spec = load_manifest(_contract_manifest("edf", random.Random(7919), 20 * MS))
    gc.collect()
    gc.disable()
    try:
        before = gc.get_count()[0]
        res = hvsim.engine.run(spec, 20 * MS)
        grown = gc.get_count()[0] - before
    finally:
        gc.enable()
    assert grown < len(res.records) / 10


def test_engine_attributes_fit_the_shared_key_dict():
    """CPython 3.11 keeps an instance's attributes in its class's shared-key
    dict only up to 30 keys; past that the instance gets a dict of its own and
    every self.x read in the event loop slows.  An Engine with 36 attributes
    ran perfbench's trap_edf 7 % slower than one with 26 (0.105 -> 0.113 s,
    seed 7919, 2-core x86-64, Python 3.11.7)."""
    engine = hvsim.engine.Engine(load_manifest(_irq_ivc_manifest("hypcall_gated")), 5 * MS)
    assert_conserved(engine.run())
    assert len(vars(engine)) < 30


class TestBenchmarkHooks:
    def test_heapq_stand_in_and_wrapped_trace_see_the_run(self, monkeypatch):
        """The benchmark swaps hvsim.engine.heapq for a stand-in that has only
        heappush and heappop, and wraps one engine's trace; a run must go
        through both."""
        pushes, pops = [], []

        def heappush(heap, item):
            pushes.append(item)
            heapq.heappush(heap, item)

        def heappop(heap):
            pops.append(heapq.heappop(heap))
            return pops[-1]

        monkeypatch.setattr(hvsim.engine, "heapq", SimpleNamespace(heappush=heappush, heappop=heappop))
        trapping = {"loop": True, "segments": [
            {"compute": 200_000}, {"hyp_call": None}, {"compute": 100_000}, {"wfi": True},
        ]}
        m = rr_manifest(
            2, quantum_ns=MS // 2, horizon=5 * MS, cost_model=None,
            workloads=[trapping, busy_workload(5 * MS)],
            phys_irqs=[{"at_ns": t, "irq": 32 + t % 2} for t in range(150_001, 5 * MS, 300_001)],
        )
        engine = hvsim.engine.Engine(load_manifest(m), 5 * MS)
        seen = []
        plain = engine.trace

        def trace(*args, **kwargs):
            plain(*args, **kwargs)
            seen.append(engine.records[-1])

        engine.trace = trace
        res = engine.run()
        assert_conserved(res)
        assert pushes and pops
        assert {id(item) for item in pops} <= {id(item) for item in pushes}  # no push bypassed it
        # Only timers and arrivals wait in the heap; the guest's next step has its own slot.
        timer, arrival = hvsim.engine.EV_TIMER_FIRE, hvsim.engine.EV_PHYS_IRQ
        assert all((timer in item) != (arrival in item) for item in pushes)
        assert any(timer in item for item in pushes) and any(arrival in item for item in pushes)
        kinds = {r.kind for r in res.records}
        assert {"phys_irq", "timer_fire", "hyp_call", "wfi_trap"} <= kinds
        assert res.records[-1].kind == "vm_pause" and res.records[-1].time == 5 * MS
        assert seen == res.records  # the closing vm_pause too

    @pytest.mark.parametrize("name", ["rr_no_irqs", "ivc_irqs"])
    def test_wrapped_guest_ack_is_called_once_per_taken_interrupt(self, name):
        """The benchmark wraps the vGIC's guest_ack on one engine; a resume
        calls it only while the VM has an interrupt pending, so it never
        answers 1023 and a run without interrupts never calls it."""
        if name == "rr_no_irqs":
            m, horizon = _trapping_rr_manifest(), 5 * MS
            del m["phys_irqs"]
        else:
            m, horizon = _irq_ivc_manifest("hypcall_gated"), 50 * MS
        spec = load_manifest(m)
        engine = hvsim.engine.Engine(spec, horizon)
        plain, acks = engine.vgic.guest_ack, []

        def guest_ack(vm):
            acks.append(plain(vm))
            return acks[-1]

        engine.vgic.guest_ack = guest_ack
        res = engine.run()
        taken = [int(r.detail.removeprefix("virq=")) for r in res.records if r.kind == "guest_ack"]
        assert acks == taken and SPURIOUS_IRQ not in acks
        assert bool(acks) == (name == "ivc_irqs")
        wrapped, unwrapped = io.StringIO(), io.StringIO()
        write_csv(res.records, wrapped)
        write_csv(hvsim.engine.run(spec, horizon).records, unwrapped)
        assert wrapped.getvalue() == unwrapped.getvalue()
