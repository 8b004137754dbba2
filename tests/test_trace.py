"""The one-pass metrics fold and run intervals against the two-pass oracle,
and the flat `Trace` sequence against a plain list of records."""

import io
import random

import pytest

import oracles
from hvsim import Trace, load_manifest, run
from hvsim.trace import (
    _CSV_BLOCK,
    CSV_HEADER,
    TraceRecord,
    compare_traces,
    metrics_from_trace,
    read_csv,
    run_intervals,
    write_csv,
    write_json,
)
from hvsim.workloadgen import make_manifest, make_vm
from test_acceptance import _contract_manifest, _ivc_acceptance_manifest

MS = 1_000_000
US = 1_000


def read_back(records):
    buf = io.StringIO()
    write_csv(records, buf)
    buf.seek(0)
    return read_csv(buf)


def assert_matches_oracle(records, horizon, vm_ids):
    got = metrics_from_trace(records, horizon, vm_ids)
    assert got == oracles.metrics_from_trace(records, horizon, vm_ids)
    assert run_intervals(records, horizon) == oracles.run_intervals(records, horizon)
    return got


def _irq_ivc_manifest(variant):
    """The IVC acceptance manifest with periodic interrupts on both VMs' lines."""
    m = _ivc_acceptance_manifest(variant, 8)
    m["phys_irqs"] = sorted(
        ({"at_ns": t, "irq": irq} for irq, period in ((32, 170 * US), (40, 230 * US))
         for t in range(period // 3, 50 * MS, period)),
        key=lambda e: e["at_ns"],
    )
    return m


RUNS = {
    "edf": (lambda: _contract_manifest("edf", random.Random(7919), 300 * MS), 300 * MS),
    "fp": (lambda: _contract_manifest("fp", random.Random(7919), 300 * MS), 300 * MS),
    "rr": (lambda: _contract_manifest("rr", random.Random(7919), 300 * MS), 300 * MS),
    "ivc_free": (lambda: _irq_ivc_manifest("free_access"), 50 * MS),
    "ivc_gated": (lambda: _irq_ivc_manifest("hypcall_gated"), 50 * MS),
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_fold_equals_oracle_on_runs(name):
    make, horizon = RUNS[name]
    res = run(load_manifest(make()), horizon)
    vm_ids = sorted(res.metrics.per_vm)
    got = assert_matches_oracle(res.records, horizon, vm_ids)
    assert got == res.metrics and got.conserved()
    if name.startswith("ivc"):
        assert got.ivc_transfers and all(m.irqs_received for m in got.per_vm.values())
    assert assert_matches_oracle(read_back(res.records), horizon, vm_ids) == got


def R(time, actor, kind, cost_ns=0, detail="", cost_field=""):
    if cost_ns and not cost_field:
        cost_field = "hyp_call"
    return TraceRecord(time, actor, kind, cost_field, cost_ns, detail)


HORIZON = 1_000

EDGE_TRACES = {
    # A cost window inside a run and two overlapping cost windows: the
    # union counts the overlap once, so the books no longer balance.
    "double_booked": (
        [
            R(0, "hv", "dispatch", 100, "from=-;to=0", "world_switch"),
            R(50, "hv", "phys_irq", 100, "irq=32", "interrupt_entry_exit"),
            R(200, "0", "vm_start"),
            R(250, "hv", "hyp_call", 20),
            R(300, "0", "vm_pause"),
        ],
        False,
    ),
    "crosses_horizon": (
        [
            R(800, "1", "vm_start"),
            R(950, "1", "vm_pause"),
            R(950, "hv", "timer_fire", 100, "ids=1"),
            R(1_000, "0", "vm_start"),
            R(1_100, "0", "vm_pause"),
            R(1_200, "hv", "hyp_call", 10),
        ],
        True,
    ),
    "open_run_at_end": (
        [
            R(0, "0", "vm_start"),
            R(100, "0", "vm_start"),  # a second start re-opens the run
            R(300, "0", "vm_pause"),
            R(300, "0", "vm_pause"),  # a pause with no open run is ignored
            R(400, "1", "vm_start"),
        ],
        True,
    ),
    "dispatch_details": (
        [
            R(0, "hv", "dispatch", 10, "from=-;to=0", "world_switch"),
            R(10, "hv", "dispatch", 0, "from=0;to=-"),
            R(20, "hv", "dispatch", 10, "from=1;to=1", "world_switch"),
            R(30, "hv", "dispatch", 10, "to=1", "world_switch"),
            R(40, "hv", "dispatch", 10, "from=0;to=1", "world_switch"),
            R(50, "hv", "dispatch", 10, "from=0;to=1", "world_switch"),
            R(60, "hv", "dispatch", 0, "from=-;to=-"),
            R(70, "hv", "deadline_miss", 0, "vm=1;deadline=70"),
            R(80, "0", "guest_ack", 0, "virq=100"),
            R(90, "hv", "ivc_notify", 5, "channel=0;from=0;to=1"),
        ],
        True,
    ),
    "empty": ([], True),
}


@pytest.mark.parametrize("name", sorted(EDGE_TRACES))
def test_fold_equals_oracle_on_edge_traces(name):
    records, conserved = EDGE_TRACES[name]
    got = assert_matches_oracle(records, HORIZON, [0, 1])
    assert got.conserved() is conserved
    assert assert_matches_oracle(read_back(records), HORIZON, [0, 1]) == got


def test_edge_trace_figures():
    double = metrics_from_trace(EDGE_TRACES["double_booked"][0], HORIZON, [0, 1])
    assert (double.per_vm[0].cpu_time, double.hypervisor_overhead_time) == (100, 220)
    assert double.idle_time == HORIZON - 250
    crossed = metrics_from_trace(EDGE_TRACES["crosses_horizon"][0], HORIZON, [0, 1])
    assert (crossed.per_vm[1].cpu_time, crossed.hypervisor_overhead_time) == (150, 50)
    assert run_intervals(EDGE_TRACES["open_run_at_end"][0], HORIZON) == [
        (100, 300, 0), (400, HORIZON, 1)
    ]
    details = metrics_from_trace(EDGE_TRACES["dispatch_details"][0], HORIZON, [0, 1])
    assert [m.switch_in_count for m in details.per_vm.values()] == [1, 3]
    assert details.per_vm[1].deadline_misses == 1
    assert (details.per_vm[0].irqs_received, details.ivc_transfers) == (1, 1)


def test_hyp_call_payload_with_separators_round_trips():
    payload = "a,b;to=1;from=0;x=y"
    workload = [{"compute": MS}, {"hyp_call": payload}, {"compute": MS}]
    m = make_manifest(
        [make_vm(0, workload), make_vm(1, [{"compute": 3 * MS}])],
        {"name": "rr", "quantum_ns": 500 * US},
        cost_model=None,
    )
    res = run(load_manifest(m), 5 * MS)
    assert any(r.detail.endswith(f";payload={payload}") for r in res.records)
    back = read_back(res.records)
    assert compare_traces(back, res.records) is None
    assert metrics_from_trace(back, 5 * MS, [0, 1]) == res.metrics


# ---------------------------------------------------------------------------
# The Trace sequence
# ---------------------------------------------------------------------------


def trace_of(records):
    """A Trace holding records, built the way the engine builds one."""
    return Trace([value for r in records for value in r])


@pytest.fixture(scope="module")
def edf_run():
    return run(load_manifest(_contract_manifest("edf", random.Random(7919), 20 * MS)), 20 * MS)


def test_trace_sequence_protocol(edf_run):
    trace = edf_run.records
    records = list(trace)
    n = len(records)
    assert isinstance(trace, Trace) and len(trace) == n > 2 * _CSV_BLOCK + 1
    assert all(type(r) is TraceRecord for r in records)
    assert trace[0].kind == "boot" and trace[0] == records[0]
    assert trace[n - 1] == trace[-1] == records[-1] and trace[-n] == records[0]
    for index in (n, -n - 1):
        with pytest.raises(IndexError):
            trace[index]
    for part in (slice(3, 7), slice(None, None, -97), slice(-5, None), slice(n, None), slice(7, 3)):
        assert type(trace[part]) is list and trace[part] == records[part]
    assert list(iter(trace)) == records
    assert trace.index(records[n // 2]) == records.index(records[n // 2])
    with pytest.raises(TypeError):
        trace[0] = records[1]


def test_trace_equality(edf_run):
    trace = edf_run.records
    records = list(trace)
    assert trace == trace_of(records) and trace == records and records == trace
    assert trace != trace_of(records[:-1]) and trace != records[:-1]
    assert trace != records[:-1] + [records[0]]  # same length, one record differs
    assert trace != tuple(records) and trace_of([]) == []


@pytest.mark.parametrize(
    "n", [0, 1, _CSV_BLOCK - 1, _CSV_BLOCK, _CSV_BLOCK + 1, 2 * _CSV_BLOCK + 1]
)
def test_trace_writers_equal_list_path(edf_run, n):
    records = edf_run.records[:n]
    trace = trace_of(records)
    assert len(trace) == n
    expected = {
        write_csv: CSV_HEADER + "\n" + "".join(r.to_csv() + "\n" for r in records),
        write_json: "".join(r.to_json() + "\n" for r in records),
    }
    for write, text in expected.items():
        from_trace, from_list = io.StringIO(), io.StringIO()
        write(trace, from_trace)
        write(records, from_list)
        assert from_trace.getvalue() == from_list.getvalue() == text


def test_write_json_escapes_like_to_json():
    """Quotes, backslashes, control and non-ASCII characters, in every string
    field and in a run's hyp-call payloads, come out as json.dumps writes them."""
    odd = ['"', "\\", "\t", "\x01\x7f", "é", "中", "\U0001f600", "a\\\"b\u2028"]
    workload = [{"hyp_call": p} for p in odd] + [{"compute": MS}]
    m = make_manifest([make_vm(0, workload)], {"name": "rr", "quantum_ns": 500 * US})
    records = list(run(load_manifest(m), 2 * MS).records)
    assert sum(r.kind == "hyp_call" for r in records) == len(odd)
    more = odd + ["\r\n"]  # no payload holds a line break; a record read from elsewhere may
    records += [TraceRecord(7, a, k, c, 11, d) for a, k, c, d in zip(more, more[1:], more[2:], more[3:])]
    for written in (records, trace_of(records)):
        fh = io.StringIO()
        write_json(written, fh)
        assert fh.getvalue() == "".join(r.to_json() + "\n" for r in records)


def test_trace_fold_equals_oracle_and_list_path(edf_run):
    trace, horizon = edf_run.records, edf_run.horizon
    records = list(trace)
    vm_ids = sorted(edf_run.metrics.per_vm)
    got = metrics_from_trace(trace, horizon, vm_ids)
    assert got == edf_run.metrics == metrics_from_trace(records, horizon, vm_ids)
    assert got == oracles.metrics_from_trace(records, horizon, vm_ids)
    spans = run_intervals(trace, horizon)
    assert spans == run_intervals(records, horizon) == oracles.run_intervals(records, horizon)
    assert compare_traces(trace, records) is None
    assert compare_traces(trace, records[:-1]) == (len(records) - 1, records[-1].to_csv(), None)
