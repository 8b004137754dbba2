#!/usr/bin/env python3
"""Write the stored output references the benchmark checks against.

    python3 perfbench/refgen.py --workload trap_edf --seeds 0-63,7919,104729

For each seed this runs the workload's operation once and stores the SHA-256
of the trace CSV, metrics.to_dict(), the record count by kind and the
property shares in perfbench/reference/<workload>.json.  Regenerate only
when a change is meant to alter simulated behaviour; a performance change
must leave every stored reference valid.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(harness.WORKLOADS))
    parser.add_argument("--seeds", required=True, help="e.g. 0-63,7919")
    args = parser.parse_args(argv)

    workdir = ROOT / ".perfbench_out" / f"refgen-{args.workload}"
    entries = {}
    try:
        for seed in parse_seeds(args.seeds):
            case = harness.Case(args.workload, seed, workdir)
            digest = case.digest(case.run(), keep_text=True)
            if digest.exit_code != 0 or not digest.conserved:
                print(f"seed {seed}: run failed; not stored", file=sys.stderr)
                return 1
            entries[str(seed)] = harness.reference_entry(case, digest)
            print(f"{args.workload} seed {seed}: {digest.records} records", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    harness.REFERENCE_DIR.mkdir(exist_ok=True)
    path = harness.REFERENCE_DIR / f"{args.workload}.json"
    lines = [f'  "{seed}": {json.dumps(entry, sort_keys=True)}' for seed, entry in entries.items()]
    path.write_text(
        '{\n "horizon_ns": %d,\n "seeds": {\n%s\n }\n}\n'
        % (harness.WORKLOADS[args.workload][1], ",\n".join(lines))
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
