import pytest

from hvsim import load_manifest
from hvsim.memmap import KIND_FAULT, KIND_MMIO, KIND_PA, MemoryMap
from hvsim.vgic import DIST_MMIO_BASE, DIST_MMIO_SIZE

from conftest import run_manifest
from manifests import ZERO_COST, busy_workload, fp_manifest, make_manifest


def shared_manifest(variant="free_access"):
    return make_manifest(
        vms=[
            {
                "id": 0,
                "regions": [{"ipa": "0x40000000", "pa": "0x40000000", "len": "0x4000", "perms": "rw"},
                            {"ipa": "0x50000000", "pa": "0x50000000", "len": "0x1000", "perms": "r"}],
                "irqs": [32],
                "virqs": [100],
                "shared_pages": [{"page": 0, "ipa": "0x60000000", "perms": "rw"}],
                "workload": busy_workload(1),
            },
            {
                "id": 1,
                "regions": [{"ipa": "0x40000000", "pa": "0x41000000", "len": "0x4000", "perms": "rw"}],
                "irqs": [40],
                "virqs": [101],
                "shared_pages": [{"page": 0, "ipa": "0x61000000", "perms": "rw"}],
                "workload": busy_workload(1),
            },
            {
                "id": 2,
                "regions": [{"ipa": "0x40000000", "pa": "0x42000000", "len": "0x4000", "perms": "rw"}],
                "irqs": [41],
                "workload": busy_workload(1),
            },
        ],
        scheduler={
            "name": "fp",
            "sched_param": {"0": {"priority": 0}, "1": {"priority": 1}, "2": {"priority": 2}},
        },
        cost_model=ZERO_COST,
        shared_pages=[{"id": 0, "pa": "0x70000000"}],
        channels=[{"id": 0, "endpoints": [0, 1], "pages": [0], "virqs": [100, 101], "variant": variant}],
    )


@pytest.fixture
def memmap():
    return MemoryMap(load_manifest(shared_manifest()))


def test_linear_map_inside_region(memmap):
    tr = memmap.translate(0, 0x4000_0123, "r")
    assert tr.kind == KIND_PA and tr.pa == 0x4000_0123
    tr = memmap.translate(1, 0x4000_0123, "w")
    assert tr.kind == KIND_PA and tr.pa == 0x4100_0123


def test_distributor_window_routes_to_mmio(memmap):
    tr = memmap.translate(0, DIST_MMIO_BASE + 0x100, "w")
    assert tr.kind == KIND_MMIO


def test_region_from_the_distributor_window_end_is_memory():
    """The window ends before DIST_MMIO_BASE + DIST_MMIO_SIZE: a region that
    starts there is passed through, not trapped to the distributor."""
    end = DIST_MMIO_BASE + DIST_MMIO_SIZE
    m = fp_manifest([1], [[{"mmio": {"ipa": hex(end), "op": "read"}}]], horizon=1_000_000)
    m["vms"][0]["regions"] = [{"ipa": hex(end), "pa": "0x40000000", "len": "0x1000", "perms": "rw"}]
    tr = MemoryMap(load_manifest(m)).translate(0, end, "r")
    assert tr.kind == KIND_PA and tr.pa == 0x4000_0000
    res = run_manifest(m, 1_000_000)
    assert [r.kind for r in res.records if r.kind.startswith(("mmio", "dist"))] == ["mmio_pass"]


def test_unmapped_ipa_faults(memmap):
    # vm2 declares no shared page, and 0x40004000 is the first byte past vm0's
    # region, where nothing else is mapped.
    for vm, ipa in ((2, 0x6000_0000), (0, 0x4000_4000)):
        tr = memmap.translate(vm, ipa, "r")
        assert tr.kind == KIND_FAULT and tr.reason == "unmapped"


def test_permission_fault(memmap):
    tr = memmap.translate(0, 0x5000_0010, "w")  # region is read-only
    assert tr.kind == KIND_FAULT and tr.reason == "permission"


def test_free_channel_pages_mapped_from_boot(memmap):
    assert memmap.translate(0, 0x6000_0a00, "w").pa == 0x7000_0a00
    assert memmap.translate(1, 0x6100_0a00, "w").pa == 0x7000_0a00


def test_gated_channel_pages_unmapped_at_boot():
    mm = MemoryMap(load_manifest(shared_manifest("hypcall_gated")))
    assert mm.translate(0, 0x6000_0000, "w").kind == KIND_FAULT
    mm.map_shared_page(0, 0)
    assert mm.translate(0, 0x6000_0000, "w").pa == 0x7000_0000
    mm.unmap_shared_page(0, 0)
    assert mm.translate(0, 0x6000_0000, "w").kind == KIND_FAULT


def test_undeclared_page_rejected(memmap):
    with pytest.raises(ValueError, match="not declared"):
        memmap.map_shared_page(2, 0)
    with pytest.raises(ValueError, match="not declared"):
        memmap.map_shared_page(0, 7)


def read_only_manifest(variant, script=None):
    """vm0 declares the shared page read-only; vm1 keeps it read-write."""
    m = shared_manifest(variant)
    m["vms"][0]["shared_pages"][0]["perms"] = "r"
    if script is not None:
        m["vms"][0]["workload"] = script
    return m


@pytest.mark.parametrize("variant", ["free_access", "hypcall_gated"])
def test_read_only_shared_page_translates_with_declared_perms(variant):
    mm = MemoryMap(load_manifest(read_only_manifest(variant)))
    if variant == "hypcall_gated":
        mm.map_shared_page(0, 0)
        mm.map_shared_page(1, 0)
    tr = mm.translate(0, 0x6000_0010, "w")
    assert tr.kind == KIND_FAULT and tr.reason == "permission"
    tr = mm.translate(0, 0x6000_0010, "r")
    assert tr.kind == KIND_PA and tr.pa == 0x7000_0010
    assert mm.translate(1, 0x6100_0010, "w").pa == 0x7000_0010


@pytest.mark.parametrize("variant", ["free_access", "hypcall_gated"])
def test_read_only_shared_page_in_engine_trace(variant):
    script = [{"mmio": {"ipa": "0x60000010", "op": "write", "value": 1}},
              {"mmio": {"ipa": "0x60000010", "op": "read"}}]
    if variant == "hypcall_gated":
        script.insert(0, {"ivc_acquire": 0})
    res = run_manifest(read_only_manifest(variant, script), 1_000_000)
    got = [(r.kind, r.detail) for r in res.records if r.kind in ("stage2_fault", "mmio_pass")]
    assert got == [
        ("stage2_fault", "vm=0;ipa=0x60000010;access=w;reason=permission"),
        ("mmio_pass", "ipa=0x60000010;pa=0x70000010;op=read"),
    ]


def test_third_vm_cannot_reach_the_shared_frame(memmap):
    # Exhaustive page sweep: no ipa of vm2 translates into the shared frame
    # or into another VM's memory.
    for page in range(0x4000_0000, 0x4000_4000, 0x1000):
        tr = memmap.translate(2, page, "r")
        assert tr.kind == KIND_PA
        assert 0x4200_0000 <= tr.pa < 0x4200_4000


def test_pairwise_isolation_exhaustive():
    """For every pair of VMs, page-granular sweep: the only PA reachable from
    both is the declared shared frame."""
    mm = MemoryMap(load_manifest(shared_manifest()))
    reach = {}
    for vm in (0, 1, 2):
        pages = set()
        for base in (0x4000_0000, 0x5000_0000, 0x6000_0000, 0x6100_0000):
            for off in range(0, 0x5000, 0x1000):
                tr = mm.translate(vm, base + off, "r")
                if tr.kind == KIND_PA:
                    pages.add(tr.pa & ~0xFFF)
        reach[vm] = pages
    assert reach[0] & reach[1] == {0x7000_0000}
    assert reach[0] & reach[2] == set()
    assert reach[1] & reach[2] == set()


def test_translation_totality(memmap):
    for ipa in (0, 0x4000_0000, 0x4000_3FFF, DIST_MMIO_BASE, 0x6000_0000, 0xFFFF_F000):
        tr = memmap.translate(0, ipa, "r")
        assert tr.kind in (KIND_PA, KIND_MMIO, KIND_FAULT)
        assert (tr.kind == KIND_PA) == (tr.pa is not None)
