"""Inter-VM communication channels: shared 4 KB pages plus notification virqs.

Two variants.  free_access maps the pages into both endpoints from boot and
acquire/release are no-ops; notification is a hyp call that injects the
peer's agreed virq.  hypcall_gated keeps the pages unmapped and hands them to
one endpoint at a time: acquire and release each modify the stage-2 table,
which costs a hyp call plus a TLB flush.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import VARIANT_GATED, ChannelSpec, CostModel, VmId


@dataclass
class ChannelState:
    spec: ChannelSpec
    held_by: VmId | None = None

    @property
    def gated(self) -> bool:
        return self.spec.variant == VARIANT_GATED

    def peer(self, vm: VmId) -> VmId:
        a, b = self.spec.endpoints
        return b if vm == a else a

    def notify_virq_for(self, receiver: VmId) -> int:
        a, _ = self.spec.endpoints
        return self.spec.virqs[0] if receiver == a else self.spec.virqs[1]


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
