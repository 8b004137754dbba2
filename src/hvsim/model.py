"""Core domain types: VM identity, static resource specs, vCPU runtime
records, virtual time, and the hypervisor cost model with its consistency
report and channel transfer costs.

Everything except :class:`VcpuRecord` is immutable after configuration load;
the simulation engine owns all mutable state and runs single-threaded.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, fields
from typing import Any, NamedTuple

Time = int  # virtual nanoseconds
VmId = int

PAGE_SIZE = 4096
NS_PER_US = 1_000
NS_PER_MS = 1_000_000

# Manifests are rejected beyond this bound so horizon arithmetic stays far
# from any practical overflow even after summing many cost windows.
MAX_TIME = 1 << 62


class ConfigError(ValueError):
    """A manifest is malformed or violates a static invariant."""


class ContractViolation(RuntimeError):
    """A scheduler or caller broke one of the framework contracts."""


class RunState(enum.Enum):
    RUNNING = "running"
    READY = "ready"
    SLEEPING = "sleeping"


# Microbenchmark latencies measured on a 912 MHz Cortex-A7 class board:
# (nanoseconds, cycles).  The cycle column is what the cost-model consistency
# report checks against; see validate_cost_model below.
MEASURED_LATENCIES = {
    "hyp_call": (6_580, 6_000),
    "world_switch": (25_840, 23_564),
    "interrupt_entry_exit": (7_480, 6_824),
    "virtual_interrupt": (29_710, 27_094),
}


@dataclass(frozen=True)
class CostRow:
    field: str
    time_ns: int
    cycles: float
    reference_cycles: int | None  # None for fields without a measured row
    deviation: float | None  # |cycles - reference| / reference


@dataclass(frozen=True)
class CostReport:
    clock_mhz: float
    rows: tuple[CostRow, ...]

    def max_reference_deviation(self) -> float:
        return max((r.deviation for r in self.rows if r.deviation is not None), default=0.0)

    def consistent(self, tolerance: float = 0.001) -> bool:
        """True when every measured row agrees with the clock within tolerance."""
        return all(r.deviation is not None and r.deviation <= tolerance
                   for r in self.rows if r.reference_cycles is not None)

    def __str__(self) -> str:
        lines = [f"clock {self.clock_mhz:.3f} MHz"]
        for r in self.rows:
            ref = "-" if r.reference_cycles is None else str(r.reference_cycles)
            dev = "-" if r.deviation is None else f"{100 * r.deviation:.4f}%"
            lines.append(
                f"  {r.field:<22} {r.time_ns / 1000:8.2f} us  {r.cycles:10.1f} cyc"
                f"  ref {ref:>6}  dev {dev}"
            )
        return "\n".join(lines)


def implied_clock_mhz() -> float:
    """Clock frequency implied by the measured (time, cycle) pairs."""
    ratios = [cycles / (ns / 1000) for ns, cycles in MEASURED_LATENCIES.values()]
    return sum(ratios) / len(ratios)


def validate_cost_model(cm: CostModel, clock_mhz: float) -> CostReport:
    """Report cycles = time x clock for each latency and, for fields with a
    measured reference, the deviation from the reference cycle count."""
    if clock_mhz <= 0:
        raise ConfigError(f"clock_mhz must be > 0, got {clock_mhz}")
    rows = []
    for name in CostModel.FIELDS:
        ns = getattr(cm, name)
        cycles = ns * clock_mhz / 1000.0
        ref = dev = None
        if name in MEASURED_LATENCIES and ns == MEASURED_LATENCIES[name][0]:
            ref = MEASURED_LATENCIES[name][1]
            dev = abs(cycles - ref) / ref
        rows.append(CostRow(name, ns, cycles, ref, dev))
    return CostReport(clock_mhz=clock_mhz, rows=tuple(rows))


# Default TLB-flush cost.  Not a measurement: chosen so that the reference
# gated inter-VM transfer costs 10x the free-access one (calibrate_tlb_flush
# below solves the same linear equation).
DEFAULT_TLB_FLUSH_NS = 156_725


def free_transfer_cost(cm: CostModel) -> int:
    """Hypervisor cost of one free-access transfer: notify = hyp call + virq."""
    return cm.hyp_call + cm.virtual_interrupt


def gated_transfer_cost(cm: CostModel) -> int:
    """One gated transfer adds an acquire/release pair around the notify."""
    return free_transfer_cost(cm) + 2 * (cm.hyp_call + cm.tlb_flush)


def calibrate_tlb_flush(cm: CostModel, target_ratio: float = 10.0) -> int:
    """Solve for the tlb_flush cost that makes gated/free = target_ratio.

    gated = free + 2*(hyp_call + tlb)  =>  tlb = (ratio-1)*free/2 - hyp_call.
    The result is a model calibration, not a measured value.
    """
    free = free_transfer_cost(cm)
    tlb = round((target_ratio - 1.0) * free / 2.0) - cm.hyp_call
    if tlb < 0:
        raise ValueError(f"target ratio {target_ratio} unreachable with {cm}")
    return tlb


@dataclass(frozen=True)
class CostModel:
    """Hypervisor path costs in virtual nanoseconds.

    A distributor access is a full trap round trip, so mmio_emulation
    defaults to the hyp-call cost.
    """

    hyp_call: Time = MEASURED_LATENCIES["hyp_call"][0]
    world_switch: Time = MEASURED_LATENCIES["world_switch"][0]
    interrupt_entry_exit: Time = MEASURED_LATENCIES["interrupt_entry_exit"][0]
    virtual_interrupt: Time = MEASURED_LATENCIES["virtual_interrupt"][0]
    tlb_flush: Time = DEFAULT_TLB_FLUSH_NS
    mmio_emulation: Time = MEASURED_LATENCIES["hyp_call"][0]

    def __post_init__(self) -> None:
        for name in self.FIELDS:
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, int) or v < 0:
                raise ConfigError(f"cost_model.{name} must be a non-negative integer, got {v!r}")

    def as_dict(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in self.FIELDS}


CostModel.FIELDS = tuple(f.name for f in fields(CostModel))

ZERO_COST = CostModel(0, 0, 0, 0, 0, 0)

PERM_READ = "r"
PERM_WRITE = "w"


@dataclass(frozen=True)
class MemRegion:
    """One stage-2 mapping: guest IPA range -> physical range, 4 KB granular."""

    ipa_base: int
    pa_base: int
    length: int
    perms: frozenset[str]

    def __post_init__(self) -> None:
        if self.length <= 0:
            raise ConfigError(f"region at ipa {self.ipa_base:#x}: length must be > 0")
        for name, v in (("ipa", self.ipa_base), ("pa", self.pa_base), ("len", self.length)):
            if v % PAGE_SIZE != 0:
                raise ConfigError(f"region {name}={v:#x} not 4KB aligned")
        if not self.perms <= {PERM_READ, PERM_WRITE}:
            raise ConfigError(f"bad perms {sorted(self.perms)}")

    @property
    def ipa_end(self) -> int:
        return self.ipa_base + self.length

    @property
    def pa_end(self) -> int:
        return self.pa_base + self.length

    def contains_ipa(self, ipa: int) -> bool:
        return self.ipa_base <= ipa < self.ipa_end


class Segment(NamedTuple):
    """One step of a deterministic guest workload script."""

    kind: str
    duration_ns: Time = 0  # compute only
    ipa: int = 0  # mmio only
    op: str = "read"  # mmio only: "read" | "write"
    value: int = 0  # mmio write payload
    channel: int = 0  # ivc_* only
    payload: str = ""  # free-form annotation carried into the trace


@dataclass(frozen=True)
class Workload:
    """Segment list; with loop=True the script repeats forever."""

    segments: tuple[Segment, ...] = ()
    loop: bool = False


@dataclass(frozen=True)
class SharedPageRef:
    """A VM's declared view of one shared 4 KB page: where it maps and how."""

    page_id: int
    ipa: int
    perms: frozenset[str]


@dataclass(frozen=True)
class VmSpec:
    """Static per-VM configuration, fixed at load time."""

    id: VmId
    regions: tuple[MemRegion, ...]
    assigned_irqs: frozenset[int]
    sched_param: Any  # opaque, scheduler-owned
    workload: Workload
    shared_pages: tuple[SharedPageRef, ...] = ()
    virqs: frozenset[int] = frozenset()


@dataclass(frozen=True)
class SharedPage:
    """One shareable 4 KB physical frame."""

    page_id: int
    pa: int


# free_access maps a channel's pages into both endpoints from boot, and acquire
# and release are no-ops.  hypcall_gated maps them into one endpoint at a time:
# each acquire and release modifies stage 2, a hyp call plus a TLB flush.
VARIANT_FREE = "free_access"
VARIANT_GATED = "hypcall_gated"


@dataclass(frozen=True)
class ChannelSpec:
    """Inter-VM channel: shared 4 KB pages plus per-endpoint notification virqs.

    virqs[i] is the interrupt delivered TO endpoints[i] when the peer
    notifies, by a hyp call under either variant.  `Engine._do_ivc` runs both
    variants, and the stage-2 map is the gated one's only state.
    """

    id: int
    endpoints: tuple[VmId, VmId]
    pages: tuple[int, ...]
    virqs: tuple[int, int]
    variant: str = VARIANT_FREE


class IrqEvents(NamedTuple):
    """Scripted physical interrupt arrivals as two int columns in manifest
    order: arrival i is irq[i] at at[i].  zip(*events) yields (at, irq)
    pairs; `config.dump_config` writes them back as manifest entries."""

    at: tuple[Time, ...] = ()
    irq: tuple[int, ...] = ()


@dataclass(frozen=True)
class FaultPolicy:
    stage2: str = "inject"  # "inject" | "halt"
    dist_unmodeled: str = "fault"  # "fault" | "ignore"


DEFAULT_LR_COUNT = 4  # list-register slots per VM when the manifest names none


@dataclass(frozen=True)
class SystemSpec:
    """Fully validated system configuration; VM count is fixed hereafter.

    A spec hashes only when its `sched_param` and `scheduler_options` values
    do; a loaded EDF, FP or RR spec's are dicts, so `hash()` raises TypeError."""

    vms: tuple[VmSpec, ...]
    cost_model: CostModel
    scheduler_name: str
    scheduler_options: Any
    shared_pages: tuple[SharedPage, ...] = ()
    channels: tuple[ChannelSpec, ...] = ()
    phys_irqs: IrqEvents = IrqEvents()
    faults: FaultPolicy = FaultPolicy()
    lr_count: int = DEFAULT_LR_COUNT
    gic_boot_init: bool = True


# The guard of a vCPU that no framework owns: never raised.
_UNGUARDED = ("",)


class VcpuRecord:
    """Per-VM runtime control block.

    Run states are the framework's.  The framework and the engine write the
    private slot; a write through run_state raises ContractViolation while a
    scheduler-table operation runs, which the framework marks in a guard cell
    it shares with its vCPUs (the cell holds the operation's name, "" between
    operations).  Outside a table operation, code such as a test may still set
    run_state.  sched_param is fixed at construction; rebinding it raises.
    sched_state belongs to the table; total_consumed is CPU time since boot.
    """

    __slots__ = ("id", "_sched_param", "_run_state", "sched_state", "total_consumed", "_guard")

    def __init__(self, id: VmId, sched_param: Any, run_state: RunState = RunState.READY,
                 sched_state: Any = None, total_consumed: Time = 0):
        self.id = id
        self._sched_param = sched_param
        self._run_state = run_state
        self.sched_state = sched_state
        self.total_consumed = total_consumed
        self._guard = _UNGUARDED

    @property
    def run_state(self) -> RunState:
        return self._run_state

    @run_state.setter
    def run_state(self, state: RunState) -> None:
        op = self._guard[0]
        if op:
            raise ContractViolation(f"{op}() changed vCPU run states (vm {self.id})")
        self._run_state = state

    @property
    def sched_param(self) -> Any:
        return self._sched_param

    @sched_param.setter
    def sched_param(self, value: Any) -> None:
        raise ContractViolation(f"sched_param of vm {self.id} was replaced")

    def __repr__(self) -> str:  # keep trace details short
        return f"vcpu{self.id}({self._run_state.value})"
