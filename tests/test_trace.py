"""The one-pass metrics fold and run intervals against the two-pass oracle,
and the flat `Trace` sequence against a plain list of records."""

import io
import json
import random
from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hvsim.trace as trace_module
import oracles
from hvsim import Trace, load_manifest, run
from hvsim.engine import Engine
from hvsim.trace import (
    _CSV_BLOCK,
    CSV_HEADER,
    HV,
    KINDS,
    VM_KINDS,
    Fold,
    TraceRecord,
    compare_traces,
    head,
    head_fields,
    metrics_from_trace,
    read_csv,
    run_intervals,
    write_csv,
    write_json,
)
from manifests import make_manifest, make_vm
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
    fold = Fold(horizon, vm_ids)
    fold.feed(res.records)
    assert fold.result() == got and fold._late == []  # an engine trace has no late span
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


# Records of every kind the fold reads, in any time order: cost windows that
# overlap, start out of order or cross the horizon, and vm_start/vm_pause
# records that do not pair up.
_VMS = ["0", "1", "2"]
_records = st.lists(
    st.one_of(
        st.builds(R, st.integers(0, 130), st.sampled_from(_VMS), st.sampled_from(["vm_start", "vm_pause"]),
                  st.sampled_from([0, 0, 7])),
        st.builds(R, st.integers(0, 130), st.just("hv"),
                  st.sampled_from(["hyp_call", "phys_irq", "timer_fire", "ivc_notify"]), st.integers(0, 60)),
        st.builds(lambda t, c, f, to: R(t, "hv", "dispatch", c, f"from={f};to={to}"), st.integers(0, 130),
                  st.integers(0, 30), st.sampled_from(["-"] + _VMS), st.sampled_from(["-"] + _VMS)),
        st.builds(lambda t, vm: R(t, "hv", "deadline_miss", 0, f"vm={vm};deadline={t}"),
                  st.integers(0, 130), st.sampled_from(_VMS)),
        st.builds(lambda t, vm: R(t, vm, "guest_ack", 0, "virq=100"), st.integers(0, 130), st.sampled_from(_VMS)),
    ),
    max_size=40,
)


@settings(max_examples=300, deadline=None)
@given(records=_records, horizon=st.integers(1, 120), cuts=st.lists(st.integers(0, 40), max_size=6))
def test_fold_in_any_blocks_equals_oracle(records, horizon, cuts):
    """Fed in any split into blocks, as the engine's Trace blocks, the fold
    reports what the two-pass oracle computes from the whole list."""
    vm_ids = [0, 1, 2]
    fold = Fold(horizon, vm_ids)
    bounds = [0, *sorted(min(c, len(records)) for c in cuts), len(records)]
    for lo, hi in zip(bounds, bounds[1:]):
        fold.feed(trace_of(records[lo:hi]))
    assert fold.result() == oracles.metrics_from_trace(records, horizon, vm_ids)
    it = iter(fold.spans)
    assert list(zip(it, it, it)) == oracles.run_intervals(records, horizon)
    assert_matches_oracle(records, horizon, vm_ids)


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
    return Trace([v for t, a, k, c, n, d in records for v in (t, head(a, k, c, n), d)])


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


def test_read_csv_returns_a_trace_of_the_run_slots(edf_run):
    """A trace read back is a `Trace` whose slots equal the run's, so every
    reader takes its `Trace` path on it."""
    trace = edf_run.records
    back = read_back(trace)
    assert type(back) is Trace and back._flat == trace._flat and back == list(trace)


@pytest.mark.parametrize(
    "n",
    # the old 512-record block's edges, and the current block's
    [0, 1, 511, 512, 513, 1025, _CSV_BLOCK - 1, _CSV_BLOCK, _CSV_BLOCK + 1, 2 * _CSV_BLOCK + 1],
)
def test_trace_writers_equal_list_path(edf_run, n):
    records = edf_run.records[:n]
    trace = trace_of(records)
    assert len(trace) == n
    expected = {
        write_csv: CSV_HEADER + "\n" + "".join(oracles.record_csv(r) + "\n" for r in records),
        write_json: "".join(oracles.record_json(r) + "\n" for r in records),
    }
    for write, text in expected.items():
        from_trace, from_list = io.StringIO(), io.StringIO()
        write(trace, from_trace)
        write(records, from_list)
        assert from_trace.getvalue() == from_list.getvalue() == text


@pytest.fixture(scope="module")
def engine_heads():
    """By kind, every head an Engine builds: its charged table, its vCPUs' and HV."""
    engine = Engine(load_manifest(_irq_ivc_manifest("hypcall_gated")), MS)
    made = {h for h, _ in engine._charged.values()} | set(HV.values())
    made.update(h for v in engine.vcpus for h in v._heads.values())
    by_kind = defaultdict(list)
    for h in sorted(made):
        by_kind[head_fields(h)[1]].append(h)
    return by_kind


@pytest.mark.parametrize("kind", KINDS)
def test_every_engine_head_round_trips(engine_heads, kind):
    """Each head of kind, by hv or by each VM, charged or not, reads back as
    its record through both writers, and folds as the records of a list do."""
    heads = engine_heads[kind]
    shapes = {("vm" if a.isdecimal() else a, f) for a, _, f, _ in map(head_fields, heads)}
    charged = {("hv", KINDS[kind])} if KINDS[kind] else set()
    assert shapes == ({("vm", "")} if kind in VM_KINDS else {("hv", "")}) | charged
    assert len(heads) == (2 if kind in VM_KINDS else 1) + len(charged)  # the manifest has two VMs
    trace = Trace([v for i, h in enumerate(heads) for v in (300 * i, h, f'vm=0;to=1;n={i};note=a,b"c\\')])
    records = list(trace)
    assert [(r.actor, r.kind, r.cost_field, r.cost_ns) for r in records] == list(map(head_fields, heads))
    assert read_back(trace) == records
    fh = io.StringIO()
    write_json(trace, fh)
    assert [TraceRecord(d["time_ns"], d["actor"], d["kind"], d["cost_field"], d["cost_ns"], d["detail"])
            for d in map(json.loads, fh.getvalue().splitlines())] == records
    assert metrics_from_trace(trace, 1_000, [0, 1]) == metrics_from_trace(records, 1_000, [0, 1])
    assert run_intervals(trace, 1_000) == run_intervals(records, 1_000)


# Fields whose CSV head read_csv could not read back: a comma or line break in
# actor, kind or cost_field, or a cost_ns that is not an int.
UNREADABLE_HEADS = [("a,b", "c"), ("a", "b,c"), ("hv", "x", "f,g"), ("hv\n", "x"), ("hv", "x\r"),
                    ("hv", "x", "f\r\n"), ("hv", "x", "f", True), ("hv", "x", "f", 1.5), ("hv", "x", "f", "7")]


def _unreadable(actor, kind, cost_field, cost_ns):
    """Whether a record with these fields has no CSV head, by the rule itself."""
    return type(cost_ns) is not int or any(c in f for f in (actor, kind, cost_field) for c in ",\n\r")


def test_fields_that_spell_another_head_are_refused():
    """head() and both writers, given a list record, refuse every field set whose
    CSV could not be read back, in either order, whatever the process met before."""
    assert head("hv", "x", "f", 1) == "hv,x,f,1" and head("hv", "x", "f", 7) == "hv,x,f,7"  # met first
    for fields in UNREADABLE_HEADS + UNREADABLE_HEADS[::-1]:
        actor, kind, cost_field, cost_ns = (*fields, *("", 0)[len(fields) - 2 :])
        assert _unreadable(actor, kind, cost_field, cost_ns)
        with pytest.raises(ValueError, match="no CSV head reads back as"):
            head(*fields)
        for write in (write_csv, write_json):
            with pytest.raises(ValueError, match="no CSV head reads back as"):
                write([TraceRecord(0, actor, kind, cost_field, cost_ns, "")], io.StringIO())
    assert head("hv", "x", "f", -3) == "hv,x,f,-3" and head_fields("hv,x,f,-3") == ("hv", "x", "f", -3)


# Listed records whose head reads back but whose CSV line does not: a time that
# is not an int, or a line break in the detail.
UNREADABLE_LINES = {"time-float": (1.5, "vm=0"), "time-bool": (True, "vm=0"),
                    "detail-lf": (0, "vm=0\nx"), "detail-cr": (0, "vm=0\rx")}


@pytest.mark.parametrize("time, detail", UNREADABLE_LINES.values(), ids=UNREADABLE_LINES)
def test_listed_record_whose_csv_line_cannot_read_back_is_refused(tmp_path, time, detail):
    """The CSV line such a record would write fails read_csv through a real file,
    where a \\r splits the line too; every consumer of a list refuses the record."""
    path = tmp_path / "trace.csv"
    path.write_text(f"{CSV_HEADER}\n{time},hv,boot,,0,{detail}\n")
    with path.open() as fh, pytest.raises(ValueError):
        read_csv(fh)
    records = [TraceRecord(time, "hv", "boot", "", 0, detail)]
    uses = [lambda: write_csv(records, io.StringIO()), lambda: write_json(records, io.StringIO()),
            lambda: metrics_from_trace(records, MS, [0]), lambda: run_intervals(records, MS),
            lambda: compare_traces(records, records), lambda: Fold(MS, [0]).feed(records)]
    for use in uses:
        with pytest.raises(ValueError, match="no CSV line reads back as"):
            use()


_FIELD_TEXT = st.text(st.sampled_from("0hv,;=\n\r \"\\é"), max_size=4)
_listed_records = st.lists(
    st.builds(
        TraceRecord,
        st.integers(0, 200),
        st.sampled_from(["hv", "0", "1"]) | _FIELD_TEXT,
        st.sampled_from(list(KINDS)) | _FIELD_TEXT,
        st.sampled_from(sorted(set(KINDS.values()))) | _FIELD_TEXT,
        st.integers(-5, 300) | st.sampled_from([True, 2.0, "5"]),
        st.sampled_from(["vm=0", "from=0;to=1", "vm=1;deadline=9", "payload=a,b;c=d"])
        | st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\n\r"), max_size=6),
    ),
    max_size=8,
)


def _fold_outcome(records):
    """The metrics of records, or the type of what the fold raised on them."""
    try:
        return metrics_from_trace(records, 150, [0, 1])
    except (ValueError, TypeError, KeyError) as exc:
        return type(exc)


@settings(max_examples=100, deadline=None)
@given(records=_listed_records)
def test_every_record_write_csv_accepts_reads_back_equal(records):
    """write_csv refuses a list that holds an unreadable head; every other list,
    its details free of line breaks, reads back equal and folds to equal metrics."""
    if any(_unreadable(*r[1:5]) for r in records):
        with pytest.raises(ValueError, match="no CSV head reads back as"):
            write_csv(records, io.StringIO())
        return
    back = read_back(records)
    assert back == records and list(back) == records
    assert _fold_outcome(back) == _fold_outcome(records)


def _module_stores():
    """Each module-level dict, list and set of hvsim.trace by name, with its
    size, and each lru_cache with its cache_info()."""
    return {name: value.cache_info() if hasattr(value, "cache_info") else len(value)
            for name, value in vars(trace_module).items() if not name.startswith("__")
            and (isinstance(value, (dict, list, set)) or hasattr(value, "cache_info"))}


def test_reading_heads_grows_no_module_store():
    """A CSV with more distinct heads than any module-level cache of hvsim.trace
    holds reads back, iterates, folds and writes as JSON record for record, and
    then every module-level dict, list and set is as large as before, every
    unbounded lru_cache too, and every bounded one within its bound."""
    before = _module_stores()
    bound = max(info.maxsize for info in before.values() if getattr(info, "maxsize", None))
    records = [TraceRecord(t, str(t % 3), "hyp_call", "hyp_call", 1000 + t, f"vm={t % 3}")
               for t in range(bound + 100)]
    trace = read_back(records)
    assert len(set(trace._flat[1::3])) == len(records) and list(trace) == records
    assert [trace[k] for k in range(len(records))] == records
    assert metrics_from_trace(trace, 10**6, [0, 1, 2]) == oracles.metrics_from_trace(records, 10**6, [0, 1, 2])
    fh = io.StringIO()
    write_json(trace, fh)
    assert fh.getvalue() == "".join(oracles.record_json(r) + "\n" for r in records)
    del trace
    after = _module_stores()
    assert after.keys() == before.keys()
    for name, was in before.items():
        if getattr(was, "maxsize", None):
            assert after[name].currsize <= was.maxsize, name
        else:
            assert getattr(after[name], "currsize", after[name]) == getattr(was, "currsize", was), name


def test_write_json_escapes_like_to_json():
    """Quotes, backslashes, control and non-ASCII characters, in every string
    field and in a run's hyp-call payloads, come out as json.dumps writes them."""
    odd = ['"', "\\", "\t", "\x01\x7f", "é", "中", "\U0001f600", "a\\\"b\u2028"]
    workload = [{"hyp_call": p} for p in odd] + [{"compute": MS}]
    m = make_manifest([make_vm(0, workload)], {"name": "rr", "quantum_ns": 500 * US})
    records = list(run(load_manifest(m), 2 * MS).records)
    assert sum(r.kind == "hyp_call" for r in records) == len(odd)
    more = odd + ["\r\n"]  # no payload holds a line break; a Trace built elsewhere may
    records += [TraceRecord(7, a, k, c, 11, d) for a, k, c, d in zip(more, more[1:], more[2:], more[3:])]
    listed = [r for r in records if "\r" not in r.detail]  # a list's line break is refused
    for written, expected in ((listed, listed), (trace_of(records), records)):
        fh = io.StringIO()
        write_json(written, fh)
        assert fh.getvalue() == "".join(oracles.record_json(r) + "\n" for r in expected)
    with pytest.raises(ValueError, match="no CSV line reads back as"):
        write_json(records, io.StringIO())


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
    assert compare_traces(trace, records[:-1]) == (len(records) - 1, oracles.record_csv(records[-1]), None)
