# How expensive may a world switch get before deadlines start falling over?
#
# A tight EDF set (utilization 0.95) is swept over increasing world-switch
# costs using the same machinery as `hvsim --sweep`.  The summary table the
# sweep writes is gnuplot-ready; per-run traces land in out/sweep/run_*/.

import json
import pathlib
import sys
import tempfile

from hvsim.cli import cmd_sweep

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "tests"))
from manifests import edf_manifest  # noqa: E402

MS = 1_000_000
PARAMS = [(10 * MS, 4 * MS), (20 * MS, 8 * MS), (40 * MS, 6 * MS)]  # U = 0.95
VALUES = [0, 25_840, 100_000, 500_000, 1_000_000, 2_000_000, 3_000_000]

with tempfile.TemporaryDirectory() as td:
    cfg = pathlib.Path(td) / "tight.json"
    cfg.write_text(json.dumps(edf_manifest(PARAMS, 40 * MS)))
    out = pathlib.Path(td) / "sweep"
    rc = cmd_sweep(str(cfg), 40 * MS, str(out), "cost_model.world_switch", VALUES)
    assert rc == 0
    summary = (out / "summary.csv").read_text()

print("VM set: periods 10/20/40 ms, budgets 4/8/6 ms (utilization 0.95)")
print("sweeping cost_model.world_switch over one 40 ms hyperperiod\n")
print(f"{'world_switch ns':>16} {'misses':>7} {'hv time ns':>12} {'utilization':>12}")
for line in summary.splitlines()[1:]:
    value, misses, hv, util, err = line.split(",")
    print(f"{value:>16} {misses:>7} {hv:>12} {util:>12}")
print("\nmisses can only grow with overhead; the exact knee depends on the set")
