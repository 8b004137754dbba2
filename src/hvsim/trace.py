"""Trace records, trace comparison, and metrics derived from traces.

A trace is the full, ordered account of one run: every scheduler callback,
every cost charge (naming its cost-model field), every state transition.
Metrics are always recomputed from the trace so the two can never disagree.

A run's records are a `Trace`: a read-only sequence of `TraceRecord`s stored
as one flat list, six slots per record, so a long run keeps no object per
record for the garbage collector to track.  Each `TraceRecord` is built when
it is read.  The writers read a `Trace`'s slots directly; every reader also
takes a plain list of records, such as `read_csv` returns.

`Fold` is the one metrics fold: it takes the records in blocks, in order,
and keeps only counters, the run spans and the busy-time union, never the
records.  `metrics_from_trace` and `run_intervals` are one `feed` over a
whole trace; a streamed run (see `engine.streaming`) feeds it block by block.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import partial
from itertools import chain, zip_longest
from json.encoder import encode_basestring_ascii as _json_str
from operator import eq
from typing import Iterable, NamedTuple

from .model import Time

CSV_HEADER = "time_ns,actor,kind,cost_field,cost_ns,detail"
_CSV_FORMAT = "%s,%s,%s,%s,%s,%s"  # a record's fields in CSV_HEADER order
_WIDTH = len(CSV_HEADER.split(","))  # slots per record in a Trace
_CSV_BLOCK = 512  # records (or timeline spans) formatted by one % in a writer
_TIMELINE_SPAN = "%s %s 1\n%s %s 0\n"  # a run span's two timeline.dat lines: start, vm, end, vm
# A record as json.dumps(..., sort_keys=True) writes it: strings escaped by
# json's own escaper, keys sorted, so the fields go in (actor, cost_field,
# cost_ns, detail, kind, time) order.
_JSON_LINE = '{"actor": %s, "cost_field": %s, "cost_ns": %s, "detail": %s, "kind": %s, "time_ns": %s}\n'


class TraceRecord(NamedTuple):
    time: Time
    actor: str  # "hv" or a decimal VM id
    kind: str
    cost_field: str  # "" when no cost was charged
    cost_ns: Time
    detail: str


_record = partial(tuple.__new__, TraceRecord)  # a TraceRecord from 6 values, in C


class Trace(Sequence):
    """The records of one run, read-only, over `flat`: six slots per record
    in CSV_HEADER order, appended to only by the engine.  Each `TraceRecord`
    is built on access; a slice is a list; a Trace equals a Trace or a list
    holding the same records."""

    __slots__ = ("_flat",)

    def __init__(self, flat: list):
        self._flat = flat

    def __len__(self) -> int:
        return len(self._flat) // _WIDTH

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        n = len(self)
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError("trace index out of range")
        k = index * _WIDTH
        return _record(self._flat[k : k + _WIDTH])

    def __iter__(self):
        return map(_record, _rows(self))

    def __eq__(self, other):
        if isinstance(other, Trace):
            return self._flat == other._flat
        if isinstance(other, list):
            return len(self) == len(other) and all(map(eq, self, other))
        return NotImplemented

    __hash__ = None


def _rows(records: Iterable[TraceRecord]) -> Iterable[tuple]:
    """The records as 6-tuples; a Trace's come straight off its flat list."""
    if isinstance(records, Trace):
        it = iter(records._flat)
        return zip(it, it, it, it, it, it)
    return records


def _blocks(records: Iterable[TraceRecord]) -> Iterable[list]:
    """The records' flat slots, _CSV_BLOCK records at a time: a writer formats
    each block with one %."""
    flat = records._flat if isinstance(records, Trace) else [v for r in records for v in r]
    step = _CSV_BLOCK * _WIDTH
    return (flat[k : k + step] for k in range(0, len(flat), step))


def write_csv(records: Iterable[TraceRecord], fh, header: bool = True) -> None:
    """The records as CSV lines, after CSV_HEADER unless header is False."""
    if header:
        fh.write(CSV_HEADER + "\n")
    line = _CSV_FORMAT + "\n"
    for slots in _blocks(records):
        fh.write(line * (len(slots) // _WIDTH) % tuple(slots))


def read_csv(fh) -> list[TraceRecord]:
    header = fh.readline().rstrip("\n")
    if header != CSV_HEADER:
        raise ValueError(f"unexpected trace header {header!r}")
    rows = (line.rstrip("\n").split(",", 5) for line in fh if line.strip())
    return [TraceRecord(int(time_s), actor, kind, cost_field, int(cost_s), detail)
            for time_s, actor, kind, cost_field, cost_s, detail in rows]


def write_json(records: Iterable[TraceRecord], fh) -> None:
    """One json.dumps(record as a dict, sort_keys=True) line per record, byte
    for byte."""
    for slots in _blocks(records):
        time, actor, kind, cost_field, cost, detail = (slots[i::_WIDTH] for i in range(_WIDTH))
        rows = zip(map(_json_str, actor), map(_json_str, cost_field), cost,
                   map(_json_str, detail), map(_json_str, kind), time)
        fh.write(_JSON_LINE * len(time) % tuple(chain.from_iterable(rows)))


def write_timeline(spans: list, fh) -> None:
    """gnuplot columns time_ns vm_id state: per run span, state 1 at its
    start and 0 at its end; spans are flat (start, end, vm), as `Fold.spans`."""
    fh.write("# time_ns vm_id state\n")
    step = 3 * _CSV_BLOCK
    for k in range(0, len(spans), step):
        block = spans[k : k + step]
        start, end, vm = block[0::3], block[1::3], block[2::3]
        fh.write(_TIMELINE_SPAN * len(vm) % tuple(chain.from_iterable(zip(start, vm, end, vm))))


def compare_traces(a: Sequence[TraceRecord], b: Sequence[TraceRecord]):
    """None when equal, else (index, record_a, record_b) of first divergence.

    Records compare by their serialized form; a missing record (shorter
    trace) compares as None.
    """
    for i, (ra, rb) in enumerate(zip_longest(a, b)):
        ra = None if ra is None else _CSV_FORMAT % ra
        rb = None if rb is None else _CSV_FORMAT % rb
        if ra != rb:
            return i, ra, rb
    return None


def detail_field(detail: str, key: str) -> str | None:
    for part in detail.split(";"):
        if part.startswith(key + "="):
            return part[len(key) + 1 :]
    return None


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


@dataclass
class VmMetrics:
    cpu_time: Time = 0
    switch_in_count: int = 0
    deadline_misses: int = 0
    irqs_received: int = 0


@dataclass
class MetricsReport:
    horizon: Time
    per_vm: dict[int, VmMetrics] = field(default_factory=dict)
    hypervisor_overhead_time: Time = 0
    idle_time: Time = 0
    ivc_transfers: int = 0

    @property
    def utilization(self) -> float:
        if self.horizon == 0:
            return 0.0
        return sum(m.cpu_time for m in self.per_vm.values()) / self.horizon

    def total_deadline_misses(self) -> int:
        return sum(m.deadline_misses for m in self.per_vm.values())

    def conserved(self) -> bool:
        """Exact accounting: VM time + hypervisor time + idle == horizon."""
        busy = sum(m.cpu_time for m in self.per_vm.values()) + self.hypervisor_overhead_time
        return busy + self.idle_time == self.horizon

    def to_dict(self) -> dict:
        return {
            "horizon_ns": self.horizon,
            "per_vm": {
                str(vm): {
                    "cpu_time_ns": m.cpu_time,
                    "switch_in_count": m.switch_in_count,
                    "deadline_misses": m.deadline_misses,
                    "irqs_received": m.irqs_received,
                }
                for vm, m in sorted(self.per_vm.items())
            },
            "hypervisor_overhead_time_ns": self.hypervisor_overhead_time,
            "idle_time_ns": self.idle_time,
            "ivc_transfers": self.ivc_transfers,
            "utilization": self.utilization,
        }


def run_intervals(records: Iterable[TraceRecord], horizon: Time) -> list[tuple[Time, Time, int]]:
    """(start, end, vm) spans during which a VM held the CPU, clamped to horizon."""
    fold = Fold(horizon, ())
    fold.feed(records)
    fold.result()
    it = iter(fold.spans)
    return list(zip(it, it, it))


def metrics_from_trace(
    records: Iterable[TraceRecord], horizon: Time, vm_ids: Iterable[int]
) -> MetricsReport:
    """Fold the trace into metrics in one pass over its records; a trace read
    back with `read_csv` folds to the same report as the run's own records."""
    fold = Fold(horizon, vm_ids)
    fold.feed(records)
    return fold.result()


def _switch_in(detail: str) -> int | None:
    """The VM a dispatch record puts on the CPU, or None if it switches none in."""
    to = detail_field(detail, "to")
    if to in (None, "-") or to == detail_field(detail, "from"):
        return None
    return int(to)


# The kinds Fold.feed counts besides cost windows; it skips every other record.
_FOLDED = frozenset(("vm_start", "vm_pause", "dispatch", "deadline_miss", "guest_ack", "ivc_notify"))


class Fold:
    """The metrics of one trace, fed its records in order in any number of
    blocks; `result()` closes a run still open at the end and reports.

    Per-VM counters cover vm_ids and any other VM the records name.  `spans`
    holds the run spans, clamped to the horizon, as flat (start, end, vm)
    ints.  Idle time is the horizon minus the union of busy spans (run spans
    and cost windows), so any double booking shows up as a conservation
    failure.  The union is kept as closed disjoint intervals, one per idle
    gap, plus the open one; a span that starts before the open interval
    (none does in an engine trace) waits in a late list, and `result()`
    merges everything by sort, so the union is exact for any record order.
    """

    def __init__(self, horizon: Time, vm_ids: Iterable[int]):
        self.horizon = horizon
        self.per_vm: dict[int, VmMetrics] = defaultdict(VmMetrics, {vm: VmMetrics() for vm in vm_ids})
        self.spans: list[Time] = []
        self._overhead = self._ivc = 0
        self._open_vm: int | None = None
        self._open_at: Time = 0
        self._switch_in: dict[str, int | None] = {}  # memo of _switch_in by detail string
        self._cur_s = self._cur_e = 0  # the open interval of the union
        self._closed: list[Time] = []  # closed intervals, flat (start, end)
        self._late: list[Time] = []  # late spans, flat (start, end)

    def feed(self, records: Iterable[TraceRecord]) -> None:
        horizon, per_vm, switch_in = self.horizon, self.per_vm, self._switch_in
        add_span = self.spans.extend
        busy: list[Time] = []  # this block's busy spans, flat (start, end)
        add_busy = busy.extend
        overhead, ivc = self._overhead, self._ivc
        open_vm, open_at = self._open_vm, self._open_at
        for time, actor, kind, _, cost, detail in _rows(records):
            if cost:
                s = time if time < horizon else horizon
                e = time + cost
                if e > horizon:
                    e = horizon
                if e > s:
                    overhead += e - s
                    add_busy((s, e))
            if kind not in _FOLDED:
                continue
            if kind == "vm_start":
                open_vm, open_at = int(actor), time
            elif kind == "vm_pause":
                if open_vm is not None:
                    s = open_at if open_at < horizon else horizon
                    e = time if time < horizon else horizon
                    if e > s:
                        per_vm[open_vm].cpu_time += e - s
                        add_span((s, e, open_vm))
                        add_busy((s, e))
                    open_vm = None
            elif kind == "dispatch":
                try:
                    vm = switch_in[detail]
                except KeyError:
                    vm = switch_in[detail] = _switch_in(detail)
                if vm is not None:
                    per_vm[vm].switch_in_count += 1
            elif kind == "deadline_miss":
                per_vm[int(detail_field(detail, "vm"))].deadline_misses += 1
            elif kind == "guest_ack":
                per_vm[int(actor)].irqs_received += 1
            elif kind == "ivc_notify":
                ivc += 1
        self._overhead, self._ivc, self._open_vm, self._open_at = overhead, ivc, open_vm, open_at
        self._union(busy)

    def _union(self, busy: list[Time]) -> None:
        cur_s, cur_e = self._cur_s, self._cur_e
        it = iter(busy)
        for s, e in zip(it, it):
            if s < cur_s:
                self._late += (s, e)
            elif s > cur_e:
                self._closed += (cur_s, cur_e)
                cur_s, cur_e = s, e
            elif e > cur_e:
                cur_e = e
        self._cur_s, self._cur_e = cur_s, cur_e

    def result(self) -> MetricsReport:
        horizon, vm, at = self.horizon, self._open_vm, self._open_at
        if vm is not None and at < horizon:
            self.per_vm[vm].cpu_time += horizon - at
            self.spans += (at, horizon, vm)
            self._union([at, horizon])
        self._open_vm = None
        busy = self._closed + [self._cur_s, self._cur_e] + self._late
        # Sorting by start alone is enough: the union does not depend on the
        # order of spans that start together.
        order = sorted(range(0, len(busy), 2), key=busy.__getitem__)
        covered = 0
        cur_s = cur_e = busy[order[0]]
        for k in order:
            s, e = busy[k], busy[k + 1]
            if s > cur_e:
                covered += cur_e - cur_s
                cur_s, cur_e = s, e
            elif e > cur_e:
                cur_e = e
        return MetricsReport(horizon, dict(self.per_vm), self._overhead,
                             horizon - covered - (cur_e - cur_s), self._ivc)
