"""The benchmark workloads still produce their stored reference outputs.

Seed 7919 of each workload runs once through perfbench/harness.py, the code
the benchmark itself uses to build, run and check an operation, and must
match perfbench/reference/ exactly: trace SHA-256, record count, metrics and
the count of every record kind.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import harness  # noqa: E402


@pytest.mark.parametrize("workload", sorted(harness.WORKLOADS))
def test_default_seed_matches_reference(workload, tmp_path):
    seed = harness.DEFAULT_SEED
    ref = harness.load_reference(workload, seed)
    assert ref is not None, f"no stored reference for {workload} seed {seed}"
    case = harness.Case(workload, seed, tmp_path)
    digest = case.digest(case.run(), keep_text=True)
    assert harness.check(case, digest, ref) == []
    assert digest.kinds() == ref["kinds"]
