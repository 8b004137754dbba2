# Inter-VM communication, both generations.
#
# Channels are shared 4 KB pages plus an agreed notification virq per
# endpoint.  The current design maps the pages into both endpoints at boot
# (free_access); the abandoned first design gated every use behind a hyp
# call that rewrites the stage-2 table and therefore pays a TLB flush both
# on acquire and on release.  With the default calibration one gated
# transfer costs 10x a free one.

import json

from hvsim import CostModel, load_manifest, run
from hvsim.ivc import calibrate_tlb_flush, free_transfer_cost, gated_transfer_cost

MS = 1_000_000
K = 6  # transfers

cm = CostModel()
print("transfer = acquire, write payload page, release, notify peer")
print(f"  free-access cost per transfer : {free_transfer_cost(cm)} ns (hyp call + virtual irq)")
print(f"  gated cost per transfer       : {gated_transfer_cost(cm)} ns "
      f"(+2 x (hyp call + tlb flush))")
print(f"  tlb_flush calibrated for a 10x ratio: {calibrate_tlb_flush(cm, 10.0)} ns\n")


def manifest(variant):
    script = []
    for _ in range(K):
        script += [
            {"ivc_acquire": 0},
            {"mmio": {"ipa": "0x60000000", "op": "write", "value": 0x5A}},
            {"ivc_release": 0},
            {"ivc_notify": 0},
        ]
    vms = [
        {
            "id": 0,
            "regions": [{"ipa": "0x40000000", "pa": "0x40000000", "len": "0x4000", "perms": "rw"}],
            "irqs": [32],
            "virqs": [100],
            "shared_pages": [{"page": 0, "ipa": "0x60000000", "perms": "rw"}],
            "workload": script,
        },
        {
            "id": 1,
            "regions": [{"ipa": "0x40000000", "pa": "0x41000000", "len": "0x4000", "perms": "rw"}],
            "irqs": [40],
            "virqs": [101],
            "shared_pages": [{"page": 0, "ipa": "0x61000000", "perms": "rw"}],
            "workload": [],
        },
    ]
    return {
        "scheduler": {"name": "fp", "sched_param": {"0": {"priority": 0}, "1": {"priority": 1}}},
        "vms": vms,
        "shared_pages": [{"id": 0, "pa": "0x70000000"}],
        "channels": [{"id": 0, "endpoints": [0, 1], "pages": [0], "virqs": [100, 101],
                      "variant": variant}],
    }


totals = {}
for variant in ("free_access", "hypcall_gated"):
    res = run(load_manifest(manifest(variant)), 100 * MS)
    totals[variant] = res.metrics.hypervisor_overhead_time
    by_field = {}
    for r in res.records:
        if r.cost_ns:
            by_field[r.cost_field] = by_field.get(r.cost_field, 0) + r.cost_ns
    print(f"{variant}: total hypervisor time {totals[variant]} ns over {K} transfers")
    print(f"  breakdown: {json.dumps(by_field, sort_keys=True)}")

diff = totals["hypcall_gated"] - totals["free_access"]
print(f"\ngated - free = {diff} ns "
      f"= {K} transfers x 2 x (hyp_call {cm.hyp_call} + tlb_flush {cm.tlb_flush})")
assert diff == K * 2 * (cm.hyp_call + cm.tlb_flush)
