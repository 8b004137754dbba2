# One workload, three scheduling policies.
#
# The scheduler is a plugin chosen by name in the manifest; nothing else
# changes.  Three always-ready VMs run under EDF, fixed priority and round
# robin, and the resulting CPU shares differ exactly as the policies say
# they should: EDF honours budgets, FP starves the low-priority VMs, RR
# splits time evenly.

import sys
from pathlib import Path

from hvsim import load_manifest, run

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from manifests import ZERO_COST, busy_workload, make_manifest, make_vm  # noqa: E402

MS = 1_000_000
HORIZON = 120 * MS

SCHEDULERS = {
    "edf": {
        "name": "edf",
        "sched_param": {
            "0": {"period_ns": 10 * MS, "budget_ns": 2 * MS},
            "1": {"period_ns": 20 * MS, "budget_ns": 8 * MS},
            "2": {"period_ns": 30 * MS, "budget_ns": 9 * MS},
        },
    },
    "fp": {
        "name": "fp",
        "sched_param": {"0": {"priority": 0}, "1": {"priority": 1}, "2": {"priority": 2}},
    },
    "rr": {"name": "rr", "quantum_ns": 5 * MS},
}

print(f"three always-ready VMs, horizon {HORIZON // MS} ms, zero-cost hypervisor\n")
print(f"{'scheduler':<10} {'vm0 ms':>8} {'vm1 ms':>8} {'vm2 ms':>8} {'switches':>9} {'idle ms':>8}")
for name, scheduler in SCHEDULERS.items():
    vms = [make_vm(i, busy_workload(HORIZON)) for i in range(3)]
    res = run(load_manifest(make_manifest(vms, scheduler, cost_model=ZERO_COST)), HORIZON)
    m = res.metrics
    cpu = [m.per_vm[i].cpu_time / MS for i in range(3)]
    switches = sum(m.per_vm[i].switch_in_count for i in range(3))
    print(f"{name:<10} {cpu[0]:>8.1f} {cpu[1]:>8.1f} {cpu[2]:>8.1f} {switches:>9} {m.idle_time / MS:>8.1f}")

print("""
notes:
  - under EDF each VM gets its budget every period (2/10, 8/20, 9/30 of the CPU)
  - under FP the priority-0 VM never lets the others run
  - under RR everyone gets the same number of 5 ms quanta""")
