"""Register-level model of a GICv2-subset virtual interrupt controller.

The distributor has no hardware virtualization support, so guest accesses to
it are trapped and emulated against this model; the per-VM CPU interface
(list registers, ACK/EOI) is direct and never costs a trap.  A VM's list
registers are a dict keyed by virq, capped at ``lr_count`` entries; slot
order is not modelled.  Each VM sees a filtered view of the distributor:
only its own interrupts are visible, writes touching anything else are
silently ignored.  The views isolate only because the loader gives each
interrupt id at most one VM, as an irq or as a virq.

This module is a pure state machine.  Costs, wakeups and checkpoints are the
engine's business; methods only report what happened.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import NamedTuple

from .model import DEFAULT_LR_COUNT, VmId

N_INTERRUPTS = 128
SGI_COUNT = 16  # ids 0..15 reserved on this uniprocessor model, never pending
SPURIOUS_IRQ = 1023

# Distributor register map (offsets from the distributor window base).
GICD_CTLR = 0x000
GICD_ISENABLER = 0x100
GICD_ICENABLER = 0x180
GICD_ISPENDR = 0x200
GICD_ICPENDR = 0x280
GICD_IPRIORITYR = 0x400
GICD_ITARGETSR = 0x800

_N_WORDS = N_INTERRUPTS // 32
_N_PRIO_WORDS = N_INTERRUPTS // 4

# Guest-physical window the distributor occupies (trapped, never pass-through).
DIST_MMIO_BASE = 0x01C8_1000
DIST_MMIO_SIZE = 0x1000


# A list register's state; fill, ack and eoi compare it by identity.
_PENDING, _ACTIVE = "pending", "active"


class VirtualCpuInterface:
    """Per-VM virtual CPU interface: the list registers and the ACK/EOI path.

    ``lrs`` maps each held virq to ``[priority, state, hw_link]``, at most
    ``lr_count`` entries, so a second injection of a held id collapses into
    it.  Which slot holds a virq is not modelled; nothing can observe it.
    """

    def __init__(self, lr_count: int = DEFAULT_LR_COUNT):
        self.lrs: dict[int, list] = {}
        self.lr_count = lr_count
        self.n_pending = 0  # entries in the pending state; most ACKs find none

    def fill(self, virq: int, priority: int, hw_link: int | None) -> str:
        """Try to make virq pending; returns "injected", "collapsed" or "full"."""
        lrs = self.lrs
        if virq in lrs:
            return "collapsed"
        if len(lrs) >= self.lr_count:
            return "full"
        lrs[virq] = [priority, _PENDING, hw_link]
        self.n_pending += 1
        return "injected"

    def ack(self) -> int:
        """Take the highest-priority pending interrupt; 1023 when none."""
        if not self.n_pending:
            return SPURIOUS_IRQ
        best = None
        for virq, entry in self.lrs.items():
            if entry[1] is _PENDING and (best is None or (entry[0], virq) < best):
                best = (entry[0], virq)
        self.lrs[best[1]][1] = _ACTIVE
        self.n_pending -= 1
        return best[1]

    def eoi(self, virq: int) -> tuple[bool, int | None]:
        """Complete virq; returns (ok, linked physical irq or None).

        EOI of an interrupt that is not active is a no-op (the caller
        records the warning).
        """
        entry = self.lrs.get(virq)
        if entry is None or entry[1] is not _ACTIVE:
            return False, None
        del self.lrs[virq]
        return True, entry[2]


@dataclass
class MmioEffect:
    """Outcome of one emulated distributor access."""

    read_value: int | None = None
    unmodeled: bool = False
    injections: list[VmId] = field(default_factory=list)


class ArrivalEffect(NamedTuple):
    outcome: str  # "injected" | "pending" | "dropped"
    target: VmId | None = None


_arrival = partial(tuple.__new__, ArrivalEffect)  # an ArrivalEffect from 2 values, in C


class Vgic:
    """Distributor state plus one virtual CPU interface per VM.

    ctlr_enable is banked per VM: a guest toggling its own virtual
    distributor must never change what another VM observes.
    """

    def __init__(
        self,
        irq_targets: dict[int, VmId],
        declared_virqs: dict[VmId, frozenset[int]],
        lr_count: int = DEFAULT_LR_COUNT,
    ):
        self.irq_targets = dict(irq_targets)
        self.declared_virqs = {vm: frozenset(v) for vm, v in declared_virqs.items()}
        self.enabled = [False] * N_INTERRUPTS
        self.pending = [False] * N_INTERRUPTS
        self.active = [False] * N_INTERRUPTS
        self.priority = bytearray(N_INTERRUPTS)
        self.ctlr = {vm: False for vm in declared_virqs}
        self.cpu_if = {vm: VirtualCpuInterface(lr_count) for vm in declared_virqs}
        self._visible = {
            vm: frozenset(i for i, t in self.irq_targets.items() if t == vm) | self.declared_virqs[vm]
            for vm in declared_virqs
        }

    def visible(self, vm: VmId) -> frozenset[int]:
        return self._visible[vm]

    def boot_enable(self, vm: VmId) -> None:
        """Convenience for the abstracted guest boot: distributor on, own irqs on."""
        self.ctlr[vm] = True
        for irq, target in self.irq_targets.items():
            if target == vm:
                self.enabled[irq] = True

    # -- trapped distributor access ------------------------------------

    def mmio(self, vm: VmId, offset: int, is_write: bool, value: int = 0) -> MmioEffect:
        value &= 0xFFFF_FFFF
        if offset % 4 != 0:
            return MmioEffect(unmodeled=True)
        if offset == GICD_CTLR:
            if is_write:
                self.ctlr[vm] = bool(value & 1)
                return MmioEffect(injections=self._drain(vm) if self.ctlr[vm] else [])
            return MmioEffect(read_value=int(self.ctlr[vm]))
        if GICD_ISENABLER <= offset < GICD_ISENABLER + 4 * _N_WORDS:
            return self._rw_bits(vm, (offset - GICD_ISENABLER) // 4, is_write, value, self.enabled, set_bits=True)
        if GICD_ICENABLER <= offset < GICD_ICENABLER + 4 * _N_WORDS:
            return self._rw_bits(vm, (offset - GICD_ICENABLER) // 4, is_write, value, self.enabled, set_bits=False)
        if GICD_ISPENDR <= offset < GICD_ISPENDR + 4 * _N_WORDS:
            return self._rw_bits(vm, (offset - GICD_ISPENDR) // 4, is_write, value, self.pending, set_bits=True)
        if GICD_ICPENDR <= offset < GICD_ICPENDR + 4 * _N_WORDS:
            return self._rw_bits(vm, (offset - GICD_ICPENDR) // 4, is_write, value, self.pending, set_bits=False)
        if GICD_IPRIORITYR <= offset < GICD_IPRIORITYR + 4 * _N_PRIO_WORDS:
            return self._rw_priority(vm, (offset - GICD_IPRIORITYR) // 4, is_write, value)
        if GICD_ITARGETSR <= offset < GICD_ITARGETSR + 4 * _N_PRIO_WORDS:
            if is_write:
                return MmioEffect()  # static assignment: retargeting writes ignored
            base = ((offset - GICD_ITARGETSR) // 4) * 4
            word = 0
            for k in range(4):
                irq = base + k
                if self.irq_targets.get(irq) == vm:
                    word |= 0x01 << (8 * k)
            return MmioEffect(read_value=word)
        return MmioEffect(unmodeled=True)

    def _rw_bits(self, vm, word_idx, is_write, value, bits, set_bits) -> MmioEffect:
        base = word_idx * 32
        vis = self._visible[vm]
        if not is_write:
            out = 0
            for k in range(32):
                irq = base + k
                if irq in vis and bits[irq]:
                    out |= 1 << k
            return MmioEffect(read_value=out)
        changed = False
        for k in range(32):
            irq = base + k
            if not (value >> k) & 1:
                continue  # writing 0 has no effect on set/clear registers
            if irq not in vis or irq < SGI_COUNT:
                continue  # silently ignore other VMs' interrupts
            if bits[irq] != set_bits:
                bits[irq] = set_bits
                changed = True
        if changed and set_bits:
            return MmioEffect(injections=self._drain(vm))
        return MmioEffect()

    def _rw_priority(self, vm, word_idx, is_write, value) -> MmioEffect:
        base = word_idx * 4
        vis = self._visible[vm]
        if not is_write:
            out = 0
            for k in range(4):
                irq = base + k
                if irq in vis:
                    out |= self.priority[irq] << (8 * k)
            return MmioEffect(read_value=out)
        for k in range(4):
            irq = base + k
            if irq in vis:
                self.priority[irq] = (value >> (8 * k)) & 0xFF
        return MmioEffect()

    # -- interrupt flow --------------------------------------------------

    def phys_arrival(self, irq: int) -> ArrivalEffect:
        """A physical interrupt fired; latch it and inject if possible."""
        target = self.irq_targets.get(irq)
        if target is None or irq < SGI_COUNT or irq >= N_INTERRUPTS:
            return _arrival(("dropped", None))
        self.pending[irq] = True
        if self._try_inject_hw(target, irq):
            return _arrival(("injected", target))
        return _arrival(("pending", target))

    def inject_soft(self, vm: VmId, virq: int) -> str:
        """Software virtual interrupt (inter-VM notification path).

        Returns "injected", "collapsed" (already pending for the target) or
        "pending" (no free LR; delivered when one frees).  The virq must be
        declared for the target at configuration time.
        """
        if virq not in self.declared_virqs[vm]:
            raise ValueError(f"virq {virq} not declared for vm {vm}")
        res = self.cpu_if[vm].fill(virq, self.priority[virq], None)
        if res == "full":
            self.pending[virq] = True
            return "pending"
        return res

    def guest_ack(self, vm: VmId) -> int:
        return self.cpu_if[vm].ack()

    def guest_eoi(self, vm: VmId, virq: int) -> tuple[bool, list[VmId]]:
        """Returns (ok, follow-up injections enabled by the freed LR)."""
        ok, hw = self.cpu_if[vm].eoi(virq)
        if not ok:
            return False, []
        if hw is not None:
            self.active[hw] = False  # linked physical EOI: re-arrival possible
        return True, self._drain(vm)

    def _try_inject_hw(self, vm: VmId, irq: int) -> bool:
        if not (self.ctlr[vm] and self.enabled[irq] and not self.active[irq]):
            return False
        if self.cpu_if[vm].fill(irq, self.priority[irq], irq) != "injected":
            return False
        self.pending[irq] = False
        self.active[irq] = True
        return True

    def _drain(self, vm: VmId) -> list[VmId]:
        """Deliver latched interrupts that became injectable; (priority, id) order.

        The drain stops at the first eligible interrupt that does not fit in
        the LRs, so a lower-priority latched soft virq whose id the LRs hold
        is not merged in that drain.  A set-enable or set-pending write drains
        only when it changed a bit; a CTLR write that enables always drains.
        """
        cands = []
        for irq in self._visible[vm]:
            if self.pending[irq]:
                cands.append((self.priority[irq], irq))
        cands.sort()
        injected = []
        for _, irq in cands:
            if self.irq_targets.get(irq) == vm:
                if not (self.ctlr[vm] and self.enabled[irq] and not self.active[irq]):
                    continue  # not eligible
                if not self._try_inject_hw(vm, irq):
                    break
                injected.append(vm)
            else:  # a declared virq
                res = self.cpu_if[vm].fill(irq, self.priority[irq], None)
                if res == "full":
                    break
                self.pending[irq] = False
                if res == "injected":
                    injected.append(vm)
        return injected
