import pytest

from hvsim import ConfigError, load_manifest
from hvsim.trace import run_intervals

from conftest import assert_conserved, records_of, run_manifest
from manifests import ZERO_COST, rr_manifest

MS = 1_000_000


def test_two_vms_alternate_each_quantum():
    res = run_manifest(rr_manifest(2, quantum_ns=MS, horizon=6 * MS), 6 * MS)
    assert run_intervals(res.records, 6 * MS) == [
        (0, MS, 0), (MS, 2 * MS, 1), (2 * MS, 3 * MS, 0),
        (3 * MS, 4 * MS, 1), (4 * MS, 5 * MS, 0), (5 * MS, 6 * MS, 1),
    ]
    assert_conserved(res)


def test_single_vm_never_switches():
    res = run_manifest(rr_manifest(1, quantum_ns=MS, horizon=10 * MS), 10 * MS)
    switches = [
        r for r in records_of(res, "dispatch")
        if "from=-" not in r.detail or r.time > 0
    ]
    assert len([r for r in records_of(res, "dispatch") if r.cost_ns > 0]) == 0
    assert res.metrics.per_vm[0].cpu_time == 10 * MS
    assert res.metrics.per_vm[0].switch_in_count == 1  # boot only


def test_quantum_inflated_by_interrupt_and_switch_costs():
    cm = dict(ZERO_COST, interrupt_entry_exit=7_480, world_switch=25_840)
    res = run_manifest(rr_manifest(2, quantum_ns=MS, horizon=10 * MS, cost_model=cm), 10 * MS)
    fires = len(records_of(res, "timer_fire"))
    switches = len([r for r in records_of(res, "dispatch") if r.cost_ns > 0])
    assert fires > 3 and switches > 3
    assert res.metrics.hypervisor_overhead_time == fires * 7_480 + switches * 25_840
    # every rotation pays one interrupt and one switch
    assert switches == fires + 1  # +1 for the boot dispatch
    assert_conserved(res)


@pytest.mark.parametrize("n_vms,rotations", [(2, 5), (4, 3), (5, 4)])
def test_fairness_over_whole_rotations(n_vms, rotations):
    q = MS
    horizon = n_vms * rotations * q
    res = run_manifest(rr_manifest(n_vms, quantum_ns=q, horizon=horizon), horizon)
    times = [res.metrics.per_vm[i].cpu_time for i in range(n_vms)]
    assert max(times) - min(times) == 0
    assert all(t == rotations * q for t in times)


def test_fairness_with_partial_rotation():
    q = MS
    horizon = 3 * 4 * q + q // 2  # mid-quantum cut
    res = run_manifest(rr_manifest(3, quantum_ns=q, horizon=horizon), horizon)
    times = [res.metrics.per_vm[i].cpu_time for i in range(3)]
    assert max(times) - min(times) <= q
    assert_conserved(res)


def test_zero_quantum_rejected():
    m = rr_manifest(2, quantum_ns=0, horizon=MS)
    with pytest.raises(ConfigError, match="quantum"):
        load_manifest(m)


def test_default_quantum_is_10ms():
    m = rr_manifest(2, quantum_ns=MS, horizon=40 * MS)
    del m["scheduler"]["quantum_ns"]
    res = run_manifest(m, 40 * MS)
    assert run_intervals(res.records, 40 * MS)[0] == (0, 10 * MS, 0)


def test_sleeper_wakes_through_idle_system():
    # the only VM sleeps; its later interrupt must restart scheduling
    m = rr_manifest(
        1, quantum_ns=10 * MS, horizon=10 * MS,
        workloads=[[{"compute": MS}, {"wfi": True}, {"compute": MS}]],
        phys_irqs=[{"at_ns": 5 * MS, "irq": 32}],
    )
    res = run_manifest(m, 10 * MS)
    assert run_intervals(res.records, 10 * MS) == [(0, MS, 0), (5 * MS, 6 * MS, 0)]
    assert_conserved(res)
