"""Trace records, trace comparison, and metrics derived from traces.

A trace is the full, ordered account of one run: every scheduler callback,
every cost charge (naming its cost-model field), every state transition.
Metrics are always recomputed from the trace so the two can never disagree.

A run's records are a `Trace`: a read-only sequence of `TraceRecord`s stored
as one flat list, three slots per record: its time, its `head` (the constant
CSV text `actor,kind,cost_field,cost_ns`, one string per record shape) and
its detail, so a run keeps no object per record and a writer formats three
slots per record.  Each `TraceRecord` is built when it is read.  `read_csv`
returns a `Trace` too; every reader also takes a plain list of records.

`Fold` is the one metrics fold: it takes the records in blocks, in order,
and keeps only counters, the run spans (which a streaming caller drains as
it goes) and the busy-time union, never the records.  `metrics_from_trace`
and `run_intervals` are one `feed` over a whole trace; a streamed run (see
`engine.streaming`) feeds it block by block.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import lru_cache, partial
from itertools import chain, starmap, zip_longest
from json.encoder import encode_basestring_ascii as _json_str
from operator import eq
from typing import Iterable, NamedTuple

from .model import Time

CSV_HEADER = "time_ns,actor,kind,cost_field,cost_ns,detail"
TIMELINE_HEADER = "# time_ns vm_id state"  # timeline.dat's first line
_CSV_LINE = "%s,%s,%s\n"  # a record's time, head and detail
_CSV_BLOCK = 2048  # records (or timeline spans) formatted by one % in a writer, as many as a streamed block
_TIMELINE_SPAN = "%s %s 1\n%s %s 0\n"  # a run span's two timeline.dat lines: start, vm, end, vm

# Every record kind, with the cost-model field it is charged ("" if never).  README's
# "Trace records" names each kind's actor and meaning, and which are charged on some paths only.
KINDS = {
    "boot": "", "cb_init": "", "cb_allocate": "", "cb_enque": "", "cb_schedule": "", "cb_block": "", "cb_yield": "",
    "cb_unblock": "", "flag_set": "", "checkpoint": "", "dispatch": "world_switch", "cpu_idle": "", "vm_start": "",
    "vm_pause": "", "vm_sleep": "", "vm_wake": "", "vm_park": "", "timer_set": "", "timer_cancel": "",
    "timer_fire": "interrupt_entry_exit", "deadline_miss": "", "phys_irq": "interrupt_entry_exit",
    "virq_inject": "virtual_interrupt", "irq_latched": "", "irq_dropped": "", "guest_ack": "", "guest_eoi": "",
    "hyp_call": "hyp_call", "wfi_trap": "hyp_call", "mmio_pass": "", "mmio_dist": "mmio_emulation", "dist_fault": "",
    "stage2_fault": "hyp_call", "ivc_notify": "hyp_call", "ivc_acquire": "hyp_call", "ivc_release": "hyp_call",
    "ivc_busy": "hyp_call", "stage2_map": "tlb_flush", "stage2_unmap": "tlb_flush", "contract_violation": "",
}
# The kinds a VM writes as its own actor, uncharged; "hv" writes the others, and gated channel ops.
VM_KINDS = ("vm_start", "vm_pause", "vm_sleep", "vm_wake", "vm_park", "guest_ack", "guest_eoi",
            "mmio_pass", "ivc_acquire", "ivc_release")


def head(actor: str, kind: str, cost_field: str = "", cost_ns: Time = 0) -> str:
    """A record's CSV text `actor,kind,cost_field,cost_ns`; ValueError for a comma or line
    break in a field or a cost_ns not an int, which would write CSV read_csv cannot read."""
    text = "%s,%s,%s,%s" % (actor, kind, cost_field, cost_ns)
    if type(cost_ns) is not int or text.count(",") != 3 or "\n" in text or "\r" in text:
        raise ValueError(f"no CSV head reads back as {(actor, kind, cost_field, cost_ns)!r}")
    return text


@lru_cache(maxsize=1024)
def head_fields(h: str) -> tuple:
    """The (actor, kind, cost_field, cost_ns) that head h spells: its text is their one record."""
    actor, kind, cost_field, cost = h.split(",")
    return actor, kind, cost_field, int(cost)


HV = {kind: head("hv", kind) for kind in KINDS if kind not in VM_KINDS}  # the hypervisor's uncharged heads


@lru_cache(maxsize=None)
def vm_heads(vm: int) -> dict[str, str]:
    """VM vm's head of each of VM_KINDS, by kind; one dict per id, which callers only read."""
    return {kind: head(str(vm), kind) for kind in VM_KINDS}


@lru_cache(maxsize=64)
def charged_heads(cost_model) -> dict[str, tuple[str, Time]]:
    """(head, cost_ns) of each kind the hypervisor is charged for at cost_model,
    by kind; one dict per cost model, which callers only read."""
    cost = cost_model.as_dict()
    return {kind: (head("hv", kind, f, cost[f]), cost[f]) for kind, f in KINDS.items() if f}


@lru_cache(maxsize=1024)
def _json_line(h: str) -> str:
    """Head h's JSON line as json.dumps(record as a dict, sort_keys=True) writes
    it, with %s for the detail, escaped by json's own escaper, and the time."""
    a, k, f, c = (_json_str(v).replace("%", "%%") if type(v) is str else v for v in head_fields(h))
    return f'{{"actor": {a}, "cost_field": {f}, "cost_ns": {c}, "detail": %s, "kind": {k}, "time_ns": %s}}\n'


class TraceRecord(NamedTuple):
    time: Time
    actor: str  # "hv" or a decimal VM id
    kind: str
    cost_field: str  # "" when no cost was charged
    cost_ns: Time
    detail: str


_record = partial(tuple.__new__, TraceRecord)  # a TraceRecord from 6 values, in C


class Trace(Sequence):
    """The records of one run, read-only, over `flat`: three slots per record,
    its time, `head` and detail, appended to only by the engine.  Each
    `TraceRecord` is built on access; a slice is a list; a Trace equals a
    Trace or a list holding the same records."""

    __slots__ = ("_flat",)

    def __init__(self, flat: list):
        self._flat = flat

    def __len__(self) -> int:
        return len(self._flat) // 3

    def __getitem__(self, index):
        k = range(len(self))[index]  # from either end; IndexError past them; a range for a slice
        if isinstance(k, range):
            return [self[i] for i in k]
        time, h, detail = self._flat[3 * k : 3 * k + 3]
        return _record((time, *head_fields(h), detail))

    def __iter__(self):
        return (_record((time, *head_fields(h), detail)) for time, h, detail in _rows(self))

    def __eq__(self, other):
        if isinstance(other, Trace):
            return self._flat == other._flat
        if isinstance(other, list):
            return len(self) == len(other) and all(map(eq, self, other))
        return NotImplemented

    __hash__ = None


def _rows(records: Iterable[TraceRecord]) -> Iterable[tuple]:
    """The records as (time, head, detail); a Trace's come straight off its flat list."""
    if isinstance(records, Trace):
        it = iter(records._flat)
        return zip(it, it, it)
    return starmap(_row, records)


def _row(time: Time, actor: str, kind: str, cost_field: str, cost: Time, detail: str) -> tuple:
    """A listed record as (time, head, detail); ValueError, as from head(), if its CSV won't read back."""
    if type(time) is not int or "\n" in detail or "\r" in detail:
        raise ValueError(f"no CSV line reads back as {(time, actor, kind, cost_field, cost, detail)!r}")
    return time, head(actor, kind, cost_field, cost), detail


def _blocks(records: Iterable[TraceRecord]) -> Iterable[list]:
    """The records' flat slots, _CSV_BLOCK records at a time: a writer formats
    each block with one %."""
    flat = records._flat if isinstance(records, Trace) else [v for row in _rows(records) for v in row]
    step = _CSV_BLOCK * 3
    return (flat[k : k + step] for k in range(0, len(flat), step))


def write_csv(records: Iterable[TraceRecord], fh, header: bool = True) -> None:
    """The records as CSV lines, after CSV_HEADER unless header is False."""
    if header:
        fh.write(CSV_HEADER + "\n")
    for slots in _blocks(records):
        fh.write(_CSV_LINE * (len(slots) // 3) % tuple(slots))


def read_csv(fh) -> Trace:
    """The records of a trace CSV as a `Trace`, one `head` string per record shape."""
    header = fh.readline().rstrip("\n")
    if header != CSV_HEADER:
        raise ValueError(f"unexpected trace header {header!r}")
    rows = (line.rstrip("\n").split(",", 5) for line in fh if line.strip())
    heads = {}  # the four CSV fields of each head read -> its one string
    return Trace([v for t, a, k, f, c, detail in rows for key in [(a, k, f, c)]
                  for v in (int(t), heads.get(key) or heads.setdefault(key, head(a, k, f, int(c))), detail)])


def write_json(records: Iterable[TraceRecord], fh) -> None:
    """One json.dumps(record as a dict, sort_keys=True) line per record, byte
    for byte."""
    for slots in _blocks(records):
        line = "".join(map(_json_line, slots[1::3]))
        fh.write(line % tuple(chain.from_iterable(zip(map(_json_str, slots[2::3]), slots[0::3]))))


def write_timeline(spans: list, fh) -> None:
    """timeline.dat's lines for spans, in the gnuplot columns of
    TIMELINE_HEADER, which the caller writes first: per run span, state 1 at
    its start and 0 at its end.  Spans are flat (start, end, vm), as
    `Fold.spans`; writing them in any number of calls, in order, gives the
    same bytes."""
    step = 3 * _CSV_BLOCK
    for k in range(0, len(spans), step):
        block = spans[k : k + step]
        vm = block[2::3]
        args = [0] * (4 * len(vm))
        args[0::4], args[1::4], args[2::4], args[3::4] = block[0::3], vm, block[1::3], vm
        fh.write(_TIMELINE_SPAN * len(vm) % tuple(args))


def compare_traces(a: Sequence[TraceRecord], b: Sequence[TraceRecord]):
    """None when equal, else (index, record_a, record_b) of first divergence.

    Records compare by their serialized form; a missing record (shorter
    trace) compares as None.
    """
    for i, (ra, rb) in enumerate(zip_longest(_rows(a), _rows(b))):
        ra = None if ra is None else "%s,%s,%s" % ra
        rb = None if rb is None else "%s,%s,%s" % rb
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
    ints; a streaming caller may write them out and clear the list in place
    between feeds, as the CLI does, and `result()` then adds only a span
    still open at the end.  Idle time is the horizon minus the union of busy
    spans (run spans and cost windows), so any double booking shows up as a
    conservation failure.  The record pass adds each busy span to the union
    as it meets it: closed disjoint intervals, one per idle gap, plus the open
    one; a span that starts before the open interval (none does in an engine
    trace) waits in a late list.  `result()` merges them all by sort, so the union
    is exact for any record order.
    """

    def __init__(self, horizon: Time, vm_ids: Iterable[int]):
        self.horizon = horizon
        self.per_vm: dict[int, VmMetrics] = defaultdict(VmMetrics, {vm: VmMetrics() for vm in vm_ids})
        self.spans: list[Time] = []
        self._overhead = self._ivc = 0
        self._open_vm: int | None = None
        self._open_at: Time = 0
        self._switch_in: dict[str, int | None] = {}  # memo of _switch_in by detail string
        # memo by head: (cost_ns, kind, the VM of a vm_start or guest_ack), or None for a head
        # neither charged nor folded, whose records feed skips after this one lookup
        self._heads: dict[str, tuple | None] = {}
        self._cur_s = self._cur_e = 0  # the open interval of the union
        self._closed: list[Time] = []  # closed intervals, flat (start, end)
        self._late: list[Time] = []  # late spans, flat (start, end)

    def feed(self, records: Iterable[TraceRecord]) -> None:
        horizon, per_vm, switch_in, heads = self.horizon, self.per_vm, self._switch_in, self._heads
        add_span, add_closed, add_late = self.spans.extend, self._closed.extend, self._late.extend
        overhead, ivc, open_vm, open_at = self._overhead, self._ivc, self._open_vm, self._open_at
        cur_s, cur_e = self._cur_s, self._cur_e
        for time, h, detail in _rows(records):
            try:
                entry = heads[h]
            except KeyError:
                actor, kind, _, cost = head_fields(h)
                vm = int(actor) if kind in ("vm_start", "guest_ack") else None
                entry = heads[h] = None if cost <= 0 and kind not in _FOLDED else (cost, kind, vm)
            if entry is None:
                continue
            cost, kind, vm = entry
            if cost > 0 and time < horizon:  # a cost window, clamped to the horizon
                e = time + cost
                if e > horizon:
                    e = horizon
                overhead += e - time
                if time > cur_e:
                    add_closed((cur_s, cur_e))
                    cur_s, cur_e = time, e
                elif time < cur_s:
                    add_late((time, e))
                elif e > cur_e:
                    cur_e = e
            if kind not in _FOLDED:
                continue
            if kind == "vm_start":
                open_vm, open_at = vm, time
            elif kind == "vm_pause":  # closes a run span, clamped to the horizon
                e = time if time < horizon else horizon
                if open_vm is not None and e > open_at:
                    per_vm[open_vm].cpu_time += e - open_at
                    add_span((open_at, e, open_vm))
                    if open_at > cur_e:
                        add_closed((cur_s, cur_e))
                        cur_s, cur_e = open_at, e
                    elif open_at < cur_s:
                        add_late((open_at, e))
                    elif e > cur_e:
                        cur_e = e
                open_vm = None
            elif kind == "dispatch":
                try:
                    to = switch_in[detail]
                except KeyError:
                    to = switch_in[detail] = _switch_in(detail)
                if to is not None:
                    per_vm[to].switch_in_count += 1
            elif kind == "deadline_miss":
                per_vm[int(detail_field(detail, "vm"))].deadline_misses += 1
            elif kind == "guest_ack":
                per_vm[vm].irqs_received += 1
            elif kind == "ivc_notify":
                ivc += 1
        self._overhead, self._ivc, self._open_vm, self._open_at = overhead, ivc, open_vm, open_at
        self._cur_s, self._cur_e = cur_s, cur_e

    def result(self) -> MetricsReport:
        horizon, vm, at = self.horizon, self._open_vm, self._open_at
        if vm is not None and at < horizon:
            self.per_vm[vm].cpu_time += horizon - at
            self.spans += (at, horizon, vm)
            self._late += (at, horizon)
        self._open_vm = None
        it = iter(self._closed + [self._cur_s, self._cur_e] + self._late)
        busy = sorted(zip(it, it))
        covered = 0
        cur_s = cur_e = busy[0][0]
        for s, e in busy:
            if s > cur_e:
                covered += cur_e - cur_s
                cur_s, cur_e = s, e
            elif e > cur_e:
                cur_e = e
        return MetricsReport(horizon, dict(self.per_vm), self._overhead,
                             horizon - covered - (cur_e - cur_s), self._ivc)
