"""Inter-VM communication channels: shared 4 KB pages plus notification virqs.

Two variants.  free_access maps the pages into both endpoints from boot and
acquire/release are no-ops; notification is a hyp call that injects the
peer's agreed virq.  hypcall_gated keeps the pages unmapped and hands them to
one endpoint at a time: acquire and release each modify the stage-2 table,
which costs a hyp call plus a TLB flush.  The stage-2 map is the gate's only
state, and `Engine._do_ivc` runs both variants; this module holds their costs.
"""

from __future__ import annotations

from .model import CostModel


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
