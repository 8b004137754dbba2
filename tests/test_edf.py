import random

import pytest

from hvsim import load_manifest
from hvsim.engine import Engine
from hvsim.model import ContractViolation, VcpuRecord
from hvsim.schedulers import EdfParam, EdfScheduler
from hvsim.trace import detail_field, run_intervals
from hvsim.workloadgen import (
    ZERO_COST,
    busy_workload,
    edf_manifest,
    hyperperiod_ns,
    make_manifest,
    make_vm,
    random_edf_params,
)

from conftest import assert_conserved, records_of, run_manifest, timeline_us
from oracles import edf_tick_timeline

MS = 1_000_000


def run_edf(params, horizon, **kw):
    return run_manifest(edf_manifest(params, horizon, **kw), horizon)


class TestCaseStudyTimeline:
    def test_two_vm_schedule_and_utilization(self):
        res = run_edf([(10 * MS, 3 * MS), (20 * MS, 5 * MS)], 20 * MS)
        assert run_intervals(res.records, 20 * MS) == [
            (0, 3 * MS, 0),
            (3 * MS, 8 * MS, 1),
            (10 * MS, 13 * MS, 0),
        ]
        assert res.metrics.total_deadline_misses() == 0
        assert res.metrics.utilization == 0.55
        assert_conserved(res)

    def test_earliest_deadline_runs_first(self):
        res = run_edf([(10 * MS, 3 * MS), (20 * MS, 5 * MS)], 5 * MS)
        assert run_intervals(res.records, 5 * MS)[0][2] == 0

    def test_equal_deadline_tie_breaks_to_lower_id(self):
        res = run_edf([(10 * MS, 3 * MS), (10 * MS, 3 * MS)], 10 * MS)
        first = run_intervals(res.records, 10 * MS)[0]
        assert first[2] == 0

    def test_single_vm_full_budget_runs_continuously(self):
        res = run_edf([(5 * MS, 5 * MS)], 20 * MS)
        assert res.metrics.per_vm[0].cpu_time == 20 * MS
        assert res.metrics.idle_time == 0
        assert res.metrics.total_deadline_misses() == 0
        assert_conserved(res)

    def test_allocate_sets_deadline_to_start_plus_period(self):
        spec = load_manifest(edf_manifest([(10 * MS, 3 * MS), (20 * MS, 5 * MS)], MS))
        eng = Engine(spec, MS)
        eng.fw.initialize()
        assert eng.vcpus[0].sched_state.deadline == 10 * MS
        assert eng.vcpus[1].sched_state.deadline == 20 * MS
        assert eng.vcpus[0].sched_state.remaining == 3 * MS


class TestReleasePreemption:
    def test_release_preempts_longer_deadline_vm(self):
        # B would otherwise run through A's whole period and sink it.
        params = [(4 * MS, 2 * MS), (16 * MS, 8 * MS)]  # total U = 1.0
        res = run_edf(params, hyperperiod_ns(params))
        assert res.metrics.total_deadline_misses() == 0
        tl, oracle_misses = edf_tick_timeline([(4_000, 2_000), (16_000, 8_000)], 16_000)
        assert timeline_us(res) == tl
        assert oracle_misses == []

    def test_idle_gap_then_release(self):
        # after both budgets drain the system idles until the next release
        res = run_edf([(10 * MS, 2 * MS)], 20 * MS)
        assert run_intervals(res.records, 20 * MS) == [
            (0, 2 * MS, 0),
            (10 * MS, 12 * MS, 0),
        ]
        assert res.metrics.idle_time == 16 * MS


class TestOracleEquivalence:
    def test_random_sets_match_tick_oracle(self):
        rng = random.Random(7)
        for _ in range(8):
            params = random_edf_params(rng, n_vms=(2, 4))
            horizon = hyperperiod_ns(params)
            res = run_edf(params, horizon)
            params_us = [(p // 1000, b // 1000) for p, b in params]
            tl, misses = edf_tick_timeline(params_us, horizon // 1000)
            assert timeline_us(res) == tl
            assert res.metrics.total_deadline_misses() == len(misses) == 0
            assert_conserved(res)


class TestOverload:
    def test_overload_records_miss_within_first_hyperperiod(self):
        params = [(10 * MS, 8 * MS), (10 * MS, 8 * MS)]  # U = 1.6
        hp = hyperperiod_ns(params)
        res = run_edf(params, hp + 10 * MS)
        misses = records_of(res, "deadline_miss")
        assert misses
        assert min(int(detail_field(r.detail, "deadline")) for r in misses) <= hp

    def test_miss_deadline_matches_oracle(self):
        params = [(10 * MS, 8 * MS), (10 * MS, 8 * MS)]
        res = run_edf(params, 30 * MS)
        got = {
            (int(detail_field(r.detail, "vm")), int(detail_field(r.detail, "deadline")) // 1000)
            for r in records_of(res, "deadline_miss")
        }
        _, oracle_misses = edf_tick_timeline([(10_000, 8_000), (10_000, 8_000)], 30_000)
        assert got == set(oracle_misses)

    def test_deadlines_advance_whole_periods_without_drift(self):
        params = [(10 * MS, 9 * MS), (10 * MS, 9 * MS)]
        res = run_edf(params, 50 * MS)
        for r in records_of(res, "deadline_miss"):
            assert int(detail_field(r.detail, "deadline")) % (10 * MS) == 0


class TestBudgetConservation:
    def test_per_period_consumption_never_exceeds_budget(self):
        rng = random.Random(11)
        for _ in range(5):
            params = random_edf_params(rng, n_vms=(2, 4), utilization=(0.5, 1.0))
            horizon = hyperperiod_ns(params)
            res = run_edf(params, horizon)
            for vm, (period, budget) in enumerate(params):
                consumed = {}
                for s, e, who in run_intervals(res.records, horizon):
                    if who != vm:
                        continue
                    assert s // period == (e - 1) // period, "span crosses a period"
                    consumed[s // period] = consumed.get(s // period, 0) + (e - s)
                assert all(c <= budget for c in consumed.values())
                # always-ready VMs with feasible U consume their whole budget
                assert all(c == budget for c in consumed.values())


class TestSleepInteraction:
    def test_sleeping_vm_is_never_scheduled_and_wakes_cleanly(self):
        # vm0 computes 1 ms then sleeps until an interrupt at 35 ms
        m = make_manifest(
            vms=[
                make_vm(0, [{"compute": MS}, {"wfi": True}, {"compute": MS}]),
                make_vm(1, busy_workload(40 * MS)),
            ],
            scheduler={
                "name": "edf",
                "sched_param": {
                    "0": {"period_ns": 10 * MS, "budget_ns": 2 * MS},
                    "1": {"period_ns": 20 * MS, "budget_ns": 18 * MS},
                },
            },
            cost_model=ZERO_COST,
            phys_irqs=[{"at_ns": 35 * MS, "irq": 32}],
        )
        res = run_manifest(m, 40 * MS)
        sleep_t = next(r.time for r in res.records if r.kind == "vm_sleep")
        wake_t = next(r.time for r in res.records if r.kind == "vm_wake")
        for s, e, vm in run_intervals(res.records, 40 * MS):
            if vm == 0:
                assert e <= sleep_t or s >= wake_t
        # periods missed while asleep are forgiven, not misses
        assert res.metrics.per_vm[0].deadline_misses == 0
        assert_conserved(res)


def test_budget_overrun_raises_contract_violation(fake_host):
    """The budget invariant is a checked contract, so it holds under python -O."""
    sched = EdfScheduler(fake_host, {0: EdfParam(period=10 * MS, budget=3 * MS)})
    vcpu = VcpuRecord(id=0, sched_param={"period_ns": 10 * MS, "budget_ns": 3 * MS})
    sched.init()
    vcpu.sched_state = sched.allocate(vcpu)
    sched.enque(vcpu)
    vcpu.total_consumed = 3 * MS + 1
    with pytest.raises(ContractViolation, match="vm 0 ran past its budget"):
        sched.block(vcpu)
