import random

from hvsim import compare_traces
from hvsim.trace import detail_field, run_intervals

from conftest import assert_conserved, records_of, run_manifest
from manifests import busy_workload, fp_manifest
from oracles import fp_response_times

MS = 1_000_000
US = 1_000


def test_lowest_priority_value_wins():
    m = fp_manifest([1, 2], [busy_workload(5 * MS), busy_workload(5 * MS)], 5 * MS)
    res = run_manifest(m, 5 * MS)
    assert run_intervals(res.records, 5 * MS) == [(0, 5 * MS, 0)]


def test_duplicate_priorities_tie_break_by_id():
    m = fp_manifest([7, 7], [busy_workload(5 * MS), busy_workload(5 * MS)], 5 * MS)
    res = run_manifest(m, 5 * MS)
    assert run_intervals(res.records, 5 * MS) == [(0, 5 * MS, 0)]


def test_yield_hands_over_then_wakeup_preempts():
    # A sleeps at 2 ms, B takes over, A's interrupt at 6 ms preempts B.
    m = fp_manifest(
        [1, 2],
        [
            [{"compute": 2 * MS}, {"wfi": True}, {"compute": MS}],
            busy_workload(10 * MS),
        ],
        10 * MS,
        phys_irqs=[{"at_ns": 6 * MS, "irq": 32}],
    )
    res = run_manifest(m, 10 * MS)
    assert run_intervals(res.records, 10 * MS) == [
        (0, 2 * MS, 0),
        (2 * MS, 6 * MS, 1),
        (6 * MS, 7 * MS, 0),
        (7 * MS, 10 * MS, 1),
    ]
    assert_conserved(res)


def test_no_ready_vm_idles():
    m = fp_manifest([1], [[{"compute": MS}, {"wfi": True}]], 5 * MS)
    res = run_manifest(m, 5 * MS)
    assert res.metrics.idle_time == 4 * MS
    assert_conserved(res)


def test_priority_scale_invariance():
    """Any order-preserving relabeling of priorities yields an identical trace."""
    workloads = [
        [{"compute": 2 * MS}, {"wfi": True}, {"compute": 2 * MS}],
        busy_workload(20 * MS),
        [{"compute": MS}, {"hyp_call": None}, {"compute": 3 * MS}],
    ]
    irqs = [{"at_ns": 9 * MS, "irq": 32}]
    base = run_manifest(
        fp_manifest([1, 2, 3], workloads, 20 * MS, phys_irqs=irqs), 20 * MS
    )
    for prios in ([10, 20, 30], [0, 7, 1_000_000], [-5, -2, 0]):
        other = run_manifest(
            fp_manifest(prios, workloads, 20 * MS, phys_irqs=irqs), 20 * MS
        )
        assert compare_traces(base.records, other.records) is None


def test_first_responses_equal_response_time_analysis():
    """Rate-monotonic VMs at zero cost: VM i loops [compute C_i, wfi] and its
    irq 32+i arrives at every multiple of T_i.  Each VM's first wfi_trap
    comes exactly at its inclusive-release response time, also in the sets
    where a higher-priority release lands on the instant a compute ends."""
    rng = random.Random(0xF9)
    checked = ties = 0
    for _ in range(300):
        n = rng.randint(2, 5)
        periods = [rng.randint(10, 100) * US for _ in range(n)]
        budgets = [rng.randint(1, p // (n * US)) * US for p in periods]
        horizon = max(periods) + US
        workloads = [{"loop": True, "segments": [{"compute": c}, {"wfi": True}]} for c in budgets]
        arrivals = sorted((t, 32 + i) for i, p in enumerate(periods) for t in range(p, horizon, p))
        # A period is its VM's priority value; equal periods tie-break by id.
        m = fp_manifest(periods, workloads, horizon,
                        phys_irqs=[{"at_ns": t, "irq": irq} for t, irq in arrivals])
        first = {}
        for r in records_of(run_manifest(m, horizon), "wfi_trap"):
            first.setdefault(int(detail_field(r.detail, "vm")), r.time)
        order = sorted(range(n), key=lambda i: (periods[i], i))
        params = [(periods[i], budgets[i]) for i in order]
        responses = fp_response_times(params)
        assert [first[i] for i in order[: len(responses)]] == responses, (periods, budgets)
        checked += len(responses)
        ties += sum(a != b for a, b in zip(responses, fp_response_times(params, inclusive=False)))
    assert checked >= 600 and ties >= 10, (checked, ties)
