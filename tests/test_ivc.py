import pytest

from hvsim import ConfigError, CostModel, load_manifest
from hvsim.model import DEFAULT_TLB_FLUSH_NS, calibrate_tlb_flush, free_transfer_cost, gated_transfer_cost

from conftest import assert_conserved, records_of, run_manifest, total_cost
from manifests import ZERO_COST, make_manifest

MS = 1_000_000
SHARED_IPA_A = 0x6000_0000
SHARED_IPA_B = 0x6100_0000


def ivc_manifest(a_script, b_script, variant="free_access", cost_model=None, n_extra_vms=0):
    vms = [
        {
            "id": 0,
            "regions": [{"ipa": "0x40000000", "pa": "0x40000000", "len": "0x4000", "perms": "rw"}],
            "irqs": [32],
            "virqs": [100],
            "shared_pages": [{"page": 0, "ipa": hex(SHARED_IPA_A), "perms": "rw"}],
            "workload": a_script,
        },
        {
            "id": 1,
            "regions": [{"ipa": "0x40000000", "pa": "0x41000000", "len": "0x4000", "perms": "rw"}],
            "irqs": [40],
            "virqs": [101],
            "shared_pages": [{"page": 0, "ipa": hex(SHARED_IPA_B), "perms": "rw"}],
            "workload": b_script,
        },
    ]
    for k in range(n_extra_vms):
        vms.append(
            {
                "id": 2 + k,
                "regions": [{"ipa": "0x40000000", "pa": hex(0x4200_0000 + k * 0x10000), "len": "0x4000", "perms": "rw"}],
                "irqs": [50 + k],
                "workload": [],
            }
        )
    prio = {str(i): {"priority": i} for i in range(len(vms))}
    return make_manifest(
        vms,
        {"name": "fp", "sched_param": prio},
        cost_model=ZERO_COST if cost_model is None else cost_model,
        shared_pages=[{"id": 0, "pa": "0x70000000"}],
        channels=[{"id": 0, "endpoints": [0, 1], "pages": [0], "virqs": [100, 101], "variant": variant}],
    )


COSTED = {
    "hyp_call": 6_580,
    "world_switch": 0,
    "interrupt_entry_exit": 0,
    "virtual_interrupt": 29_710,
    "tlb_flush": 156_725,
    "mmio_emulation": 0,
}


def transfer_script(k):
    out = []
    for _ in range(k):
        out += [
            {"ivc_acquire": 0},
            {"mmio": {"ipa": hex(SHARED_IPA_A), "op": "write", "value": 0xAB}},
            {"ivc_release": 0},
            {"ivc_notify": 0},
        ]
    return out


class TestNotify:
    def test_notify_charges_hyp_call_plus_virtual_interrupt(self):
        m = ivc_manifest([{"ivc_notify": 0}], [], cost_model=COSTED)
        res = run_manifest(m, 10 * MS)
        (notify,) = records_of(res, "ivc_notify")
        (inject,) = records_of(res, "virq_inject")
        assert notify.cost_field == "hyp_call" and notify.cost_ns == 6_580
        assert inject.cost_field == "virtual_interrupt" and inject.cost_ns == 29_710
        assert "virq=101" in inject.detail and "target=1" in inject.detail

    def test_notify_wakes_sleeping_peer(self):
        # vm0 (most urgent) sleeps first, then vm1's notify wakes it
        m = ivc_manifest(
            [{"wfi": True}, {"compute": MS}],
            [{"compute": MS}, {"ivc_notify": 0}],
        )
        res = run_manifest(m, 10 * MS)
        assert res.metrics.per_vm[0].cpu_time == MS
        assert res.metrics.per_vm[0].irqs_received == 1
        assert res.metrics.ivc_transfers == 1

    def test_non_endpoint_notify_rejected_at_load(self):
        m = ivc_manifest([], [], n_extra_vms=1)
        m["vms"][2]["workload"] = [{"ivc_notify": 0}]
        with pytest.raises(ConfigError, match="not an endpoint"):
            load_manifest(m)

    def test_unknown_channel_rejected_at_load(self):
        m = ivc_manifest([{"ivc_notify": 9}], [])
        with pytest.raises(ConfigError, match="unknown channel"):
            load_manifest(m)

    def test_ping_pong_accounting(self):
        k = 5
        m = ivc_manifest(
            [{"ivc_notify": 0}] * k,
            [{"ivc_notify": 0}] * k,
            cost_model=COSTED,
        )
        res = run_manifest(m, 50 * MS)
        ivc_cost = total_cost(records_of(res, "ivc_notify", "virq_inject"))
        assert ivc_cost == 2 * k * (6_580 + 29_710)
        assert res.metrics.ivc_transfers == 2 * k
        assert_conserved(res)


class TestGate:
    def test_shared_write_passes_through_in_free_variant(self):
        m = ivc_manifest(transfer_script(1), [])
        res = run_manifest(m, 10 * MS)
        assert records_of(res, "stage2_fault") == []
        (write,) = records_of(res, "mmio_pass")
        assert "pa=0x70000000" in write.detail
        # free-access acquire/release are no-ops
        for r in records_of(res, "ivc_acquire", "ivc_release"):
            assert "noop=1" in r.detail and r.cost_ns == 0

    def test_gated_write_before_acquire_faults(self):
        m = ivc_manifest(
            [{"mmio": {"ipa": hex(SHARED_IPA_A), "op": "write", "value": 1}}],
            [],
            variant="hypcall_gated",
        )
        res = run_manifest(m, 10 * MS)
        (fault,) = records_of(res, "stage2_fault")
        assert "reason=unmapped" in fault.detail

    def test_gated_transfer_maps_then_unmaps(self):
        m = ivc_manifest(transfer_script(1), [], variant="hypcall_gated", cost_model=COSTED)
        res = run_manifest(m, 10 * MS)
        assert records_of(res, "stage2_fault") == []
        acq = records_of(res, "ivc_acquire")
        rel = records_of(res, "ivc_release")
        maps = records_of(res, "stage2_map")
        unmaps = records_of(res, "stage2_unmap")
        assert len(acq) == len(rel) == len(maps) == len(unmaps) == 1
        assert acq[0].cost_ns == 6_580 and maps[0].cost_ns == 156_725

    def test_gated_cost_exceeds_free_by_two_gate_pairs(self):
        k = 3
        free = run_manifest(ivc_manifest(transfer_script(k), [], cost_model=COSTED), 50 * MS)
        gated = run_manifest(
            ivc_manifest(transfer_script(k), [], variant="hypcall_gated", cost_model=COSTED),
            50 * MS,
        )
        free_cost = free.metrics.hypervisor_overhead_time
        gated_cost = gated.metrics.hypervisor_overhead_time
        assert gated_cost - free_cost == k * 2 * (6_580 + 156_725)

    def test_acquire_while_held_is_busy(self):
        m = ivc_manifest(
            [{"ivc_acquire": 0}, {"compute": 2 * MS}, {"ivc_release": 0}, {"wfi": True}],
            [{"ivc_acquire": 0}],
            variant="hypcall_gated",
            cost_model=COSTED,
        )
        # B runs only after A sleeps; make A hold the gate across its sleep
        m["vms"][0]["workload"] = [{"ivc_acquire": 0}, {"wfi": True}]
        res = run_manifest(m, 10 * MS)
        (busy,) = records_of(res, "ivc_busy")
        assert "op=acquire" in busy.detail and "held_by=0" in busy.detail
        assert busy.cost_ns == 6_580  # the failed hyp call still costs

    def test_release_by_non_holder_is_error(self):
        m = ivc_manifest([], [{"ivc_release": 0}], variant="hypcall_gated")
        res = run_manifest(m, 10 * MS)
        (busy,) = records_of(res, "ivc_busy")
        assert "op=release" in busy.detail

    def test_gate_exclusion_in_trace(self):
        # alternating acquire/release from both sides never overlaps
        script = [{"ivc_acquire": 0}, {"compute": MS}, {"ivc_release": 0}]
        m = ivc_manifest(script * 2, script * 2, variant="hypcall_gated")
        res = run_manifest(m, 60 * MS)
        held = None
        for r in res.records:
            if r.kind == "ivc_acquire":
                assert held is None
                held = r.detail
            elif r.kind == "ivc_release":
                assert held is not None
                held = None
        assert records_of(res, "ivc_busy") == []


GATE_KINDS = ("ivc_acquire", "stage2_map", "ivc_release", "stage2_unmap", "ivc_busy")
HOLD_AND_SLEEP = [{"ivc_acquire": 0}, {"wfi": True}]  # vm0 runs first and keeps the gate

# (vm0 script, vm1 script) -> every gate record as (kind, cost_field, detail)
GATE_DETAILS = {
    "free-acquire": (
        [{"ivc_acquire": 0}], [],
        [("ivc_acquire", "hyp_call", "channel=0;vm=0"),
         ("stage2_map", "tlb_flush", "channel=0;vm=0;pages=1")],
    ),
    "acquire-held-by-peer": (
        HOLD_AND_SLEEP, [{"ivc_acquire": 0}],
        [("ivc_acquire", "hyp_call", "channel=0;vm=0"),
         ("stage2_map", "tlb_flush", "channel=0;vm=0;pages=1"),
         ("ivc_busy", "hyp_call", "channel=0;op=acquire;vm=1;held_by=0")],
    ),
    "release-by-holder": (
        [{"ivc_acquire": 0}, {"ivc_release": 0}], [],
        [("ivc_acquire", "hyp_call", "channel=0;vm=0"),
         ("stage2_map", "tlb_flush", "channel=0;vm=0;pages=1"),
         ("ivc_release", "hyp_call", "channel=0;vm=0"),
         ("stage2_unmap", "tlb_flush", "channel=0;vm=0;pages=1")],
    ),
    "release-never-held": (
        [{"ivc_release": 0}], [],
        [("ivc_busy", "hyp_call", "channel=0;op=release;vm=0;held_by=-")],
    ),
    "release-held-by-peer": (
        HOLD_AND_SLEEP, [{"ivc_release": 0}],
        [("ivc_acquire", "hyp_call", "channel=0;vm=0"),
         ("stage2_map", "tlb_flush", "channel=0;vm=0;pages=1"),
         ("ivc_busy", "hyp_call", "channel=0;op=release;vm=1;held_by=0")],
    ),
}


@pytest.mark.parametrize("a_script,b_script,expected", GATE_DETAILS.values(), ids=GATE_DETAILS)
def test_gate_record_text(a_script, b_script, expected):
    res = run_manifest(ivc_manifest(a_script, b_script, variant="hypcall_gated", cost_model=COSTED), 10 * MS)
    got = [(r.kind, r.cost_field, r.detail) for r in records_of(res, *GATE_KINDS)]
    assert got == expected


class TestCalibration:
    def test_default_tlb_flush_solves_ratio_ten(self):
        cm = CostModel()
        assert calibrate_tlb_flush(cm, 10.0) == DEFAULT_TLB_FLUSH_NS == 156_725
        assert gated_transfer_cost(cm) / free_transfer_cost(cm) == 10.0

    def test_unreachable_ratio_rejected(self):
        with pytest.raises(ValueError, match="unreachable"):
            calibrate_tlb_flush(CostModel(), 1.0)

    def test_ratio_reached_at_zero_flush_cost(self):
        cm = CostModel(hyp_call=1, virtual_interrupt=1)
        assert calibrate_tlb_flush(cm, 2.0) == 0
