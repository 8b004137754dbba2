"""The benchmark workloads still produce their stored reference outputs, and
still reach the layer hooks the benchmark's traced runs count on.

Seed 7919 of each workload runs once through perfbench/harness.py, the code
the benchmark itself uses to build, run and check an operation, with the
entry points that perfbench/tracing.py wraps for `run.py --trace 1`.  It must
match perfbench/reference/ exactly: trace SHA-256, record count, metrics and
the count of every record kind.  The traced run must also push onto the
event heap and record the spans whose counts `--trace 1` divides by, and
each wrapped scheduler operation, checkpoint and interrupt-path vGIC call
must be called exactly as often as the trace records it: a wrapper put on
after the engine is built must see every call.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import harness  # noqa: E402
import tracing  # noqa: E402

SPANS = {"config.load", "engine.run", "framework.checkpoint", "schedulers.schedule", "trace.build"}
CLI_SPANS = {"cli.main", "trace.write"}
# The record kind each traced call writes once per call.
CALL_RECORDS = {"schedulers.schedule": "cb_schedule", "schedulers.block": "cb_block",
                "schedulers.unblock": "cb_unblock", "schedulers.yield_": "cb_yield",
                "framework.checkpoint": "checkpoint", "vgic.phys_arrival": "phys_irq",
                "vgic.guest_ack": "guest_ack", "vgic.guest_eoi": "guest_eoi"}


@pytest.mark.parametrize("workload", sorted(harness.WORKLOADS))
def test_default_seed_matches_reference(workload, tmp_path):
    seed = harness.DEFAULT_SEED
    ref = harness.load_reference(workload, seed)
    assert ref is not None, f"no stored reference for {workload} seed {seed}"
    case = harness.Case(workload, seed, tmp_path)
    tracer = tracing.Tracer()
    with tracing.instrumented(tracer) as api:
        outcome = case.run(api)
    digest = case.digest(outcome, keep_text=True)
    assert harness.check(case, digest, ref) == []
    kinds = digest.kinds()
    assert kinds == ref["kinds"]
    assert tracer.heap_pushes > 0
    calls = {name: n for name, (n, _) in tracer.summary().items()}
    unreached = sorted(name for name in SPANS | (CLI_SPANS if case.is_cli else set()) if not calls.get(name))
    assert unreached == [], f"spans never recorded: {unreached}"
    recorded = {span: kinds.get(kind, 0) for span, kind in CALL_RECORDS.items()}
    assert {span: calls.get(span, 0) for span in CALL_RECORDS} == recorded
