"""Independent reference models.

These deliberately do not share code with the package: the EDF oracle is a
1-microsecond tick simulation, the FP oracle is response-time analysis
(Joseph & Pandya 1986), the interrupt-controller oracle keeps one tiny
state machine per interrupt id, the trace writers format one record at a
time, the metrics oracle is the original two-pass fold over a trace (it
shares only the report containers), and the layout oracle compares every
pair of spans a manifest declares.  All are compared against the package
elsewhere; keep them dumb.
"""

from __future__ import annotations

import json
from typing import Iterable

from hvsim.trace import MetricsReport, TraceRecord, VmMetrics


# ---------------------------------------------------------------------------
# Brute-force EDF timeline at 1 us resolution
# ---------------------------------------------------------------------------


def edf_tick_timeline(params_us, horizon_us):
    """Simulate ideal EDF tick by tick.

    params_us: list of (period_us, budget_us), one per VM, all always-ready.
    Returns (timeline, misses): timeline[t] is the VM running in [t, t+1) or
    -1 when idle; misses is a list of (vm, deadline_us) for every period that
    ended with unconsumed budget.
    """
    n = len(params_us)
    deadline = [0] * n
    remaining = [0] * n
    timeline = []
    misses = []
    for t in range(horizon_us):
        for i, (period, budget) in enumerate(params_us):
            if t % period == 0:
                if t > 0 and remaining[i] > 0:
                    misses.append((i, t))
                deadline[i] = t + period
                remaining[i] = budget
        run = -1
        best = None
        for i in range(n):
            if remaining[i] > 0:
                key = (deadline[i], i)
                if best is None or key < best:
                    best = key
                    run = i
        timeline.append(run)
        if run >= 0:
            remaining[run] -= 1
    return timeline, misses


# ---------------------------------------------------------------------------
# Fixed-priority response-time analysis
# ---------------------------------------------------------------------------


def fp_response_times(params, inclusive=True):
    """First-job response times under preemptive fixed priority at zero cost,
    every task released together at 0 and then at each multiple of its period.

    params: (period, budget) per task, highest priority first.  Each release
    of a higher-priority task j in [0, R] delays task i by its budget:
    R = C_i + sum_{j<i} (floor(R/T_j) + 1) * C_j.  A release at R itself
    counts because the engine lets a compute end lose a same-instant tie.
    inclusive=False gives the textbook ceil(R/T_j), which counts only the
    releases in [0, R).  Returns the responses of the longest prefix of tasks
    that each finish within their period: past a task that does not, its
    releases pile up and the recurrence no longer describes it.
    """
    out = []
    for i, (period, budget) in enumerate(params):
        r, prev = budget, None
        while r != prev and r <= period:
            prev = r
            r = budget + sum(
                (r // t + 1 if inclusive else -(-r // t)) * c for t, c in params[:i]
            )
        if r > period:
            return out
        out.append(r)
    return out


# ---------------------------------------------------------------------------
# Per-interrupt distributor/CPU-interface reference model
# ---------------------------------------------------------------------------

_CTLR = 0x000
_ISENABLER = 0x100
_ICENABLER = 0x180
_ISPENDR = 0x200
_ICPENDR = 0x280
_IPRIORITYR = 0x400
_ITARGETSR = 0x800
_N = 128
_SGI = 16
_SPURIOUS = 1023


class _IrqMachine:
    """inactive -> pending -> active -> inactive, one instance per id."""

    def __init__(self):
        self.enabled = False
        self.pending = False
        self.active = False
        self.priority = 0
        self.lr = "invalid"  # "invalid" | "pending" | "active" (in the owner's LRs)
        self.lr_priority = 0  # latched when the LR is filled
        self.hw = False


class OracleGic:
    """Reference model; each VM holds at most lr_count LRs (None: no limit).

    Capacity rules: a drain takes the VM's latched interrupts in (priority,
    id) order and stops at the first eligible one that does not fit, a
    set-enable or set-pending write drains only when it changed a bit, and a
    soft injection into full LRs latches.
    """

    def __init__(self, irq_targets, declared_virqs, lr_count=None):
        self.targets = dict(irq_targets)
        self.virqs = {vm: set(v) for vm, v in declared_virqs.items()}
        self.ctlr = {vm: False for vm in declared_virqs}
        self.irqs = [_IrqMachine() for _ in range(_N)]
        self.lr_count = lr_count

    def _visible(self, vm):
        owned = {i for i, t in self.targets.items() if t == vm}
        return owned | self.virqs[vm]

    def _room(self, vm):
        return self.lr_count is None or len(self._lr_set(vm)) < self.lr_count

    def boot_enable(self, vm):
        self.ctlr[vm] = True
        for i, t in self.targets.items():
            if t == vm:
                self.irqs[i].enabled = True

    # one hardware interrupt becomes deliverable
    def _inject_hw(self, i):
        m = self.irqs[i]
        vm = self.targets.get(i)
        if vm is None:
            return
        if self.ctlr[vm] and m.enabled and m.pending and not m.active and m.lr == "invalid" and self._room(vm):
            m.pending = False
            m.active = True
            m.lr = "pending"
            m.lr_priority = m.priority
            m.hw = True

    def _inject_soft(self, vm, i):
        # A latched soft virq collapses into an existing LR for the same id:
        # one notification, one delivery.
        m = self.irqs[i]
        m.pending = False
        if m.lr == "invalid":
            m.lr = "pending"
            m.lr_priority = m.priority
            m.hw = False

    def _drain(self, vm):
        for i in sorted(self._visible(vm), key=lambda i: (self.irqs[i].priority, i)):
            m = self.irqs[i]
            if not m.pending:
                continue
            if self.targets.get(i) == vm:
                if self.ctlr[vm] and m.enabled and not m.active and m.lr == "invalid":
                    if not self._room(vm):
                        return
                    self._inject_hw(i)
            elif i in self.virqs[vm]:
                if m.lr == "invalid" and not self._room(vm):
                    return
                self._inject_soft(vm, i)

    def mmio(self, vm, offset, is_write, value=0):
        value &= 0xFFFFFFFF
        vis = self._visible(vm)
        if offset == _CTLR:
            if is_write:
                self.ctlr[vm] = bool(value & 1)
                if self.ctlr[vm]:
                    self._drain(vm)
                return None
            return int(self.ctlr[vm])
        for base, attr, sets in (
            (_ISENABLER, "enabled", True),
            (_ICENABLER, "enabled", False),
            (_ISPENDR, "pending", True),
            (_ICPENDR, "pending", False),
        ):
            if base <= offset < base + 16:
                w = (offset - base) // 4
                if not is_write:
                    out = 0
                    for k in range(32):
                        i = w * 32 + k
                        if i in vis and getattr(self.irqs[i], attr):
                            out |= 1 << k
                    return out
                changed = False
                for k in range(32):
                    i = w * 32 + k
                    if (value >> k) & 1 and i in vis and i >= _SGI:
                        changed |= getattr(self.irqs[i], attr) != sets
                        setattr(self.irqs[i], attr, sets)
                if sets and changed:
                    self._drain(vm)
                return None
        if _IPRIORITYR <= offset < _IPRIORITYR + 4 * (_N // 4):
            w = (offset - _IPRIORITYR) // 4
            if not is_write:
                out = 0
                for k in range(4):
                    i = w * 4 + k
                    if i in vis:
                        out |= self.irqs[i].priority << (8 * k)
                return out
            for k in range(4):
                i = w * 4 + k
                if i in vis:
                    self.irqs[i].priority = (value >> (8 * k)) & 0xFF
            return None
        if _ITARGETSR <= offset < _ITARGETSR + 4 * (_N // 4):
            if is_write:
                return None  # static assignment, ignored
            w = (offset - _ITARGETSR) // 4
            out = 0
            for k in range(4):
                i = w * 4 + k
                if self.targets.get(i) == vm:
                    out |= 0x01 << (8 * k)
            return out
        return "unmodeled"

    def phys_arrival(self, irq):
        if self.targets.get(irq) is None or irq < _SGI or irq >= _N:
            return "dropped"
        self.irqs[irq].pending = True
        self._inject_hw(irq)
        return "pending" if self.irqs[irq].pending else "injected"

    def inject_soft(self, vm, virq):
        m = self.irqs[virq]
        if m.lr != "invalid":
            return
        if not self._room(vm):
            m.pending = True
            return
        m.lr = "pending"
        m.lr_priority = m.priority
        m.hw = False

    def guest_ack(self, vm):
        best = None
        for i in sorted(self._visible(vm)):
            m = self.irqs[i]
            if m.lr == "pending" and (best is None or (m.lr_priority, i) < best):
                best = (m.lr_priority, i)
        if best is None:
            return _SPURIOUS
        self.irqs[best[1]].lr = "active"
        return best[1]

    def guest_eoi(self, vm, virq):
        m = self.irqs[virq]
        if virq not in self._visible(vm) or m.lr != "active":
            return False
        m.lr = "invalid"
        if m.hw:
            m.active = False
            m.hw = False
        self._drain(vm)
        return True

    def snapshot(self):
        return {
            "enabled": tuple(m.enabled for m in self.irqs),
            "pending": tuple(m.pending for m in self.irqs),
            "active": tuple(m.active for m in self.irqs),
            "priority": bytes(m.priority for m in self.irqs),
            "ctlr": dict(self.ctlr),
            "lrs": {vm: self._lr_set(vm) for vm in self.ctlr},
        }

    def _lr_set(self, vm):
        out = []
        for i in sorted(self._visible(vm)):
            m = self.irqs[i]
            if m.lr != "invalid":
                hw = i if m.hw else None
                out.append((i, m.lr_priority, m.lr, hw))
        return frozenset(out)


# ---------------------------------------------------------------------------
# Per-record trace writers
# ---------------------------------------------------------------------------

_TRACE_FIELDS = ("time_ns", "actor", "kind", "cost_field", "cost_ns", "detail")


def record_csv(record: TraceRecord) -> str:
    """One record's CSV line, without its newline."""
    return ",".join(map(str, record))


def record_json(record: TraceRecord) -> str:
    """One record's JSON line, without its newline: its fields, keys sorted."""
    return json.dumps(dict(zip(_TRACE_FIELDS, record)), sort_keys=True)


# ---------------------------------------------------------------------------
# Two-pass metrics fold over a trace
# ---------------------------------------------------------------------------

Time = int


def detail_field(detail: str, key: str) -> str | None:
    for part in detail.split(";"):
        if part.startswith(key + "="):
            return part[len(key) + 1 :]
    return None


def run_intervals(records: list[TraceRecord], horizon: Time) -> list[tuple[Time, Time, int]]:
    """(start, end, vm) spans during which a VM held the CPU, clamped to horizon."""
    spans = []
    open_vm: int | None = None
    open_at = 0
    for r in records:
        if r.kind == "vm_start":
            open_vm, open_at = int(r.actor), r.time
        elif r.kind == "vm_pause" and open_vm is not None:
            s, e = min(open_at, horizon), min(r.time, horizon)
            if e > s:
                spans.append((s, e, open_vm))
            open_vm = None
    if open_vm is not None:
        s = min(open_at, horizon)
        if horizon > s:
            spans.append((s, horizon, open_vm))
    return spans


def metrics_from_trace(
    records: list[TraceRecord], horizon: Time, vm_ids: Iterable[int]
) -> MetricsReport:
    report = MetricsReport(horizon=horizon, per_vm={vm: VmMetrics() for vm in vm_ids})
    busy: list[tuple[Time, Time]] = []

    for start, end, vm in run_intervals(records, horizon):
        report.per_vm[vm].cpu_time += end - start
        busy.append((start, end))

    for r in records:
        if r.cost_ns:
            start, end = min(r.time, horizon), min(r.time + r.cost_ns, horizon)
            if end > start:
                report.hypervisor_overhead_time += end - start
                busy.append((start, end))
        if r.kind == "dispatch":
            to = detail_field(r.detail, "to")
            frm = detail_field(r.detail, "from")
            if to not in (None, "-") and to != frm:
                report.per_vm[int(to)].switch_in_count += 1
        elif r.kind == "deadline_miss":
            report.per_vm[int(detail_field(r.detail, "vm"))].deadline_misses += 1
        elif r.kind == "guest_ack":
            report.per_vm[int(r.actor)].irqs_received += 1
        elif r.kind == "ivc_notify":
            report.ivc_transfers += 1

    # Idle is measured as the horizon minus the union of busy spans, so any
    # accidental double-booking of time shows up as a conservation failure.
    busy.sort()
    covered = 0
    cur_s: Time | None = None
    cur_e = 0
    for s, e in busy:
        if cur_s is None:
            cur_s, cur_e = s, e
        elif s > cur_e:
            covered += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_s is not None:
        covered += cur_e - cur_s
    report.idle_time = horizon - covered
    return report


# ---------------------------------------------------------------------------
# All-pairs layout check
# ---------------------------------------------------------------------------

_PAGE = 0x1000
_DIST_WINDOW = (0x01C8_1000, 0x01C8_2000)  # trapped distributor, reserved in every IPA space


def _addr(value) -> int:
    if isinstance(value, str):
        return int(value, 16) if value.lower().startswith("0x") else int(value)
    return value


def _pairs_overlapping(spans):
    return [
        (a, b) for i, a in enumerate(spans) for b in spans[i + 1 :] if a[0] < b[1] and b[0] < a[1]
    ]


def layout_conflicts(manifest: dict) -> list[tuple[tuple, tuple]]:
    """Every pair of (lo, hi, owner) spans that overlap in one of three spaces.

    - each VM's IPA space: its regions, its shared-page refs and the
      distributor window
    - physical memory: every VM's regions and every declared shared frame
    - interrupt ids: each VM's irqs and virqs

    The manifest is assumed valid in every other respect.
    """
    conflicts = []
    pa = [(_addr(p["pa"]), _addr(p["pa"]) + _PAGE, f"shared page {p['id']}")
          for p in manifest.get("shared_pages", [])]
    ids = []
    for vm in manifest["vms"]:
        ipa = [_DIST_WINDOW + ("distributor window",)]
        for r in vm["regions"]:
            n = _addr(r["len"])
            ipa.append((_addr(r["ipa"]), _addr(r["ipa"]) + n, "region"))
            pa.append((_addr(r["pa"]), _addr(r["pa"]) + n, f"vm {vm['id']}"))
        for ref in vm.get("shared_pages", []):
            ipa.append((_addr(ref["ipa"]), _addr(ref["ipa"]) + _PAGE, f"shared page {ref['page']}"))
        conflicts += _pairs_overlapping(ipa)
        for irq in list(vm["irqs"]) + list(vm.get("virqs", [])):
            ids.append((irq, irq + 1, f"vm {vm['id']}"))
    return conflicts + _pairs_overlapping(pa) + _pairs_overlapping(ids)
