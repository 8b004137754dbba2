# Earliest-deadline-first case study: two periodic VMs.
#
#   VM 0: period 10 ms, budget 3 ms
#   VM 1: period 20 ms, budget 5 ms      (total utilization 0.55)
#
# With a zero-cost hypervisor the schedule over one 20 ms hyperperiod is
# VM0 [0,3) ms, VM1 [3,8) ms, VM0 [10,13) ms.  Rerunning with the measured
# cost model shows where hypervisor time creeps in.

import sys
from pathlib import Path

from hvsim import load_manifest, run
from hvsim.trace import run_intervals

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from manifests import edf_manifest  # noqa: E402

MS = 1_000_000
PARAMS = [(10 * MS, 3 * MS), (20 * MS, 5 * MS)]
HORIZON = 20 * MS


def show(title, manifest):
    res = run(load_manifest(manifest), HORIZON)
    print(f"\n== {title}")
    for start, end, vm in run_intervals(res.records, HORIZON):
        print(f"  vm{vm} runs [{start/MS:7.3f}, {end/MS:7.3f}) ms")
    m = res.metrics
    print(f"  utilization {m.utilization:.3f}, hypervisor {m.hypervisor_overhead_time/1000:.2f} us,"
          f" idle {m.idle_time/MS:.3f} ms, misses {m.total_deadline_misses()}")
    return res


show("ideal hypervisor (all costs zero)", edf_manifest(PARAMS, HORIZON))

res = show("measured cost model", edf_manifest(PARAMS, HORIZON, cost_model=None))  # default costs

print("\ncost charges in the second run:")
for r in res.records:
    if r.cost_ns:
        print(f"  t={r.time/MS:7.3f} ms  {r.kind:<12} {r.cost_field:<22} {r.cost_ns} ns")
