"""Stage-2 address-space model: per-VM IPA -> PA translation.

Accesses inside an owned region pass through at zero hypervisor cost.  The
distributor window routes to MMIO emulation.  Everything else is a stage-2
fault.  A shared 4 KB page maps only at the IPA and with the perms its VM
declares; the gated inter-VM channel variant grants and revokes access by
mapping and unmapping it at runtime.  The map is the gate's only state: a
gated channel is held by the endpoint whose `mapped` holds its pages, since
the loader gives each page at most one channel and only acquire and release
remap a gated page.  load_manifest's layout checks keep every VM's regions,
shared pages and the distributor window disjoint, so at most one mapping
covers any IPA.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import vgic
from .model import PAGE_SIZE, PERM_READ, VARIANT_GATED, SystemSpec, VmId

KIND_PA = "pa"
KIND_MMIO = "mmio"
KIND_FAULT = "fault"


@dataclass(frozen=True)
class Translation:
    kind: str
    pa: int | None = None
    reason: str = ""


class MemoryMap:
    """Every VM's stage-2 view over one physical memory layout."""

    def __init__(self, spec: SystemSpec):
        page_pa = {p.page_id: p.pa for p in spec.shared_pages}
        gated_pages = {
            pid for ch in spec.channels if ch.variant == VARIANT_GATED for pid in ch.pages
        }
        self.regions = {vm.id: sorted(vm.regions, key=lambda r: r.ipa_base) for vm in spec.vms}
        # vm -> page_id -> (ipa, pa, perms): the shared pages each VM declares
        self.shared = {
            vm.id: {ref.page_id: (ref.ipa, page_pa[ref.page_id], ref.perms) for ref in vm.shared_pages}
            for vm in spec.vms
        }
        # The pages mapped now.  Pages of gated channels stay unmapped until
        # the gate is acquired; everything else is wired in from boot.
        self.mapped = {
            vm: {pid: page for pid, page in pages.items() if pid not in gated_pages}
            for vm, pages in self.shared.items()
        }

    def translate(self, vm: VmId, ipa: int, access: str = PERM_READ) -> Translation:
        if vgic.DIST_MMIO_BASE <= ipa < vgic.DIST_MMIO_BASE + vgic.DIST_MMIO_SIZE:
            return Translation(KIND_MMIO)
        for region in self.regions[vm]:
            if region.contains_ipa(ipa):
                if access not in region.perms:
                    return Translation(KIND_FAULT, reason="permission")
                return Translation(KIND_PA, pa=region.pa_base + (ipa - region.ipa_base))
        for base, pa, perms in self.mapped[vm].values():
            if base <= ipa < base + PAGE_SIZE:
                if access not in perms:
                    return Translation(KIND_FAULT, reason="permission")
                return Translation(KIND_PA, pa=pa + (ipa - base))
        return Translation(KIND_FAULT, reason="unmapped")

    def map_shared_page(self, vm: VmId, page_id: int) -> None:
        """Map a declared shared page at its declared IPA with its declared perms."""
        page = self.shared[vm].get(page_id)
        if page is None:
            raise ValueError(f"page {page_id} not declared for vm {vm}")
        self.mapped[vm][page_id] = page

    def unmap_shared_page(self, vm: VmId, page_id: int) -> None:
        self.mapped[vm].pop(page_id, None)
