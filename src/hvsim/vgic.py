"""Register-level model of a GICv2-subset virtual interrupt controller.

The distributor has no hardware virtualization support, so guest accesses to
it are trapped and emulated against this model; the per-VM CPU interface
(list registers, ACK/EOI) is direct and never costs a trap.  Each VM sees a
filtered view of the distributor: only its own interrupts are visible,
writes touching anything else are silently ignored.  The views isolate only
because the loader gives each interrupt id at most one VM, as an irq or as a
virq.

The list registers (LRs) are the only in-flight interrupt state.  A VM's LRs
are the dict `lrs[vm]`, `virq -> [priority, state]`, capped at `lr_count`
entries; slot order is not modelled.  An assigned irq is active exactly while
its target's LRs hold it, and an entry is linked to its physical interrupt
exactly when its id is an assigned irq, so the guest's EOI of it is the
physical one.  The distributor keeps only the enable, latch and priority
bits, a read-only CPU-target byte per interrupt and the banked CTLR.  Each
register after CTLR is one row of `_BANKS`, a field per interrupt, and
`mmio` reads or writes a word's visible fields by that row.

This module is a pure state machine.  Costs, wakeups and checkpoints are the
engine's business; methods only report what happened.  The three calls the
engine makes per interrupt, `phys_arrival`, `guest_ack` and `guest_eoi`, do
their list-register work in their own bodies, and an EOI drains latched
interrupts only when one of the VM's visible interrupts is latched.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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

# A bank's write rule: set or clear the cells of the 1 bits, store each field,
# or ignore the write.
_SET, _CLEAR, _STORE, _IGNORE = "set", "clear", "store", "ignore"
# The banks after GICD_CTLR, each a fixed-width field per interrupt (GICv2,
# ARM IHI 0048B): (offset, bits per interrupt, backing array, write rule).
# Retargeting writes are ignored: the assignment is static.
_BANKS = (
    (GICD_ISENABLER, 1, "enabled", _SET),
    (GICD_ICENABLER, 1, "enabled", _CLEAR),
    (GICD_ISPENDR, 1, "pending", _SET),
    (GICD_ICPENDR, 1, "pending", _CLEAR),
    (GICD_IPRIORITYR, 8, "priority", _STORE),
    (GICD_ITARGETSR, 8, "_cpu_targets", _IGNORE),
)

# Guest-physical window the distributor occupies (trapped, never pass-through).
DIST_MMIO_BASE = 0x01C8_1000
DIST_MMIO_SIZE = 0x1000


# A list register's state; guest_ack and guest_eoi compare it by identity.
_PENDING, _ACTIVE = "pending", "active"


@dataclass
class MmioEffect:
    """Outcome of one emulated distributor access."""

    read_value: int | None = None
    unmodeled: bool = False
    injections: list[VmId] = field(default_factory=list)


class Vgic:
    """Distributor state plus each VM's list registers, `lrs[vm]`, and the
    ACK/EOI path against them.

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
        self.priority = bytearray(N_INTERRUPTS)
        # ITARGETSR's cells: CPU 0 for an assigned irq, none for a virq.
        self._cpu_targets = bytes(irq in self.irq_targets for irq in range(N_INTERRUPTS))
        self.ctlr = {vm: False for vm in declared_virqs}
        self.lrs: dict[VmId, dict[int, list]] = {vm: {} for vm in declared_virqs}
        self.lr_count = lr_count
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
        for base, width, name, rule in _BANKS:
            if base <= offset < base + width * N_INTERRUPTS // 8:
                break
        else:
            return MmioEffect(unmodeled=True)
        cells = getattr(self, name)
        first = (offset - base) * 8 // width  # the word's first interrupt
        # The word's visible fields: interrupt irq sits at bit (irq - first) * width.
        fields = self._visible[vm].intersection(range(first, first + 32 // width))
        if not is_write:
            out = 0
            for irq in fields:
                out |= cells[irq] << (irq - first) * width
            return MmioEffect(read_value=out)
        if rule is _STORE:
            for irq in fields:
                cells[irq] = value >> (irq - first) * 8 & 0xFF
            return MmioEffect()
        if rule is _IGNORE:
            return MmioEffect()
        # Writing 0 has no effect on a set/clear bank, and SGIs never change.
        on = rule is _SET
        changed = False
        for irq in fields:
            if value >> (irq - first) & 1 and irq >= SGI_COUNT and cells[irq] != on:
                cells[irq] = on
                changed = True
        return MmioEffect(injections=self._drain(vm) if changed and on else [])

    # -- interrupt flow --------------------------------------------------

    def phys_arrival(self, irq: int) -> str:
        """A physical interrupt fired: "injected" into its target's LRs if it
        fits, else "pending" (latched); "dropped" when no VM owns it."""
        target = self.irq_targets.get(irq)
        if target is None or irq < SGI_COUNT or irq >= N_INTERRUPTS:
            return "dropped"
        lrs = self.lrs[target]
        if self.ctlr[target] and self.enabled[irq] and irq not in lrs and len(lrs) < self.lr_count:
            lrs[irq] = [self.priority[irq], _PENDING]
            self.pending[irq] = False
            return "injected"
        self.pending[irq] = True
        return "pending"

    def inject_soft(self, vm: VmId, virq: int) -> str:
        """Software virtual interrupt (inter-VM notification path).

        Returns "injected", "collapsed" (already pending for the target) or
        "pending" (no free LR; delivered when one frees).  The virq must be
        declared for the target at configuration time.
        """
        if virq not in self.declared_virqs[vm]:
            raise ValueError(f"virq {virq} not declared for vm {vm}")
        lrs = self.lrs[vm]
        if virq in lrs:
            return "collapsed"
        if len(lrs) >= self.lr_count:
            self.pending[virq] = True
            return "pending"
        lrs[virq] = [self.priority[virq], _PENDING]
        return "injected"

    def guest_ack(self, vm: VmId) -> int:
        """Take the highest-priority pending interrupt; 1023 when none."""
        lrs = self.lrs[vm]
        best = None
        for virq, entry in lrs.items():
            if entry[1] is _PENDING and (best is None or (entry[0], virq) < best):
                best = (entry[0], virq)
        if best is None:
            return SPURIOUS_IRQ
        lrs[best[1]][1] = _ACTIVE
        return best[1]

    def guest_eoi(self, vm: VmId, virq: int) -> tuple[bool, list[VmId]]:
        """Complete virq; returns (ok, follow-ups): ok is False, and nothing changes,
        for an entry that is not active; the follow-ups hold vm once per injection
        the freed LR let the drain make.  Freeing an assigned irq's LR is its physical
        EOI: it can arrive again.  The drain runs only if a latched visible irq waits."""
        lrs = self.lrs[vm]
        entry = lrs.get(virq)
        if entry is None or entry[1] is not _ACTIVE:
            return False, []
        del lrs[virq]
        pending = self.pending
        for irq in self._visible[vm]:
            if pending[irq]:
                return True, self._drain(vm)
        return True, []

    def _drain(self, vm: VmId) -> list[VmId]:
        """Deliver latched interrupts that became injectable; (priority, id) order.

        An assigned irq the LRs hold, or that is not enabled, is skipped; a
        declared virq the LRs hold merges into its entry.  Any other one
        needs a free LR, and the drain stops at the first that finds none,
        so a lower-priority latched virq that the LRs hold is not merged in
        that drain.  A set-enable or set-pending write drains only when it
        changed a bit; a CTLR write that enables always drains.
        """
        pending, priority, lrs = self.pending, self.priority, self.lrs[vm]
        on, enabled, targets = self.ctlr[vm], self.enabled, self.irq_targets
        injected = []
        for _, irq in sorted((priority[irq], irq) for irq in self._visible[vm] if pending[irq]):
            if irq in targets:
                if irq in lrs or not (on and enabled[irq]):
                    continue  # an assigned irq, active or not enabled
            elif irq in lrs:
                pending[irq] = False  # a held virq: merged
                continue
            if len(lrs) >= self.lr_count:
                break
            lrs[irq] = [priority[irq], _PENDING]
            pending[irq] = False
            injected.append(vm)
        return injected
