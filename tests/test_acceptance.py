"""Acceptance suite.

Each test covers one numbered acceptance criterion at its stated tolerance
and prints one PASS line (run pytest with -s to see them).  Criterion 11
(exact time conservation) is asserted on every run the other suites perform,
through _conserved(), which counts the checks of each suite.
"""

from __future__ import annotations

import json
import random
import time
from collections import Counter

from hvsim import CostModel, load_manifest, run
from hvsim.cli import cmd_run, cmd_sweep
from hvsim.memmap import KIND_PA, MemoryMap
from hvsim.model import MEASURED_LATENCIES, implied_clock_mhz, validate_cost_model
from hvsim.trace import _rows, detail_field, head_fields, run_intervals
from hvsim.vgic import Vgic

from manifests import (
    ZERO_COST,
    busy_workload,
    edf_manifest,
    hyperperiod_ns,
    make_manifest,
    make_vm,
    random_edf_params,
)
from oracles import OracleGic, edf_tick_timeline
from test_vgic import TARGETS, VIRQS, canonical, random_op, snapshot

MS = 1_000_000
US = 1_000

_conservation_checks: Counter[str] = Counter()  # by suite, "c02" ... "c11"


def _conserved(result, suite):
    m = result.metrics
    busy = sum(v.cpu_time for v in m.per_vm.values()) + m.hypervisor_overhead_time
    assert busy + m.idle_time == result.horizon
    _conservation_checks[suite] += 1


def _run(manifest, horizon, suite):
    res = run(load_manifest(manifest), horizon)
    _conserved(res, suite)
    return res


# -- 1 ---------------------------------------------------------------------


def test_c01_cost_model_consistency():
    t0 = time.monotonic()
    clock = implied_clock_mhz()
    report = validate_cost_model(CostModel(), clock)
    rows = {r.field: r for r in report.rows}
    expected = {
        "hyp_call": (6_580, 6_000),
        "world_switch": (25_840, 23_564),
        "interrupt_entry_exit": (7_480, 6_824),
        "virtual_interrupt": (29_710, 27_094),
    }
    assert {k: v for k, v in MEASURED_LATENCIES.items()} == expected
    for field, (ns, cycles) in expected.items():
        row = rows[field]
        assert row.time_ns == ns and row.reference_cycles == cycles
        assert row.deviation is not None and row.deviation <= 0.001
    assert report.consistent(0.001)
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    print(
        f"\nPASS criterion 1: four (time, cycle) pairs consistent at "
        f"{clock:.1f} MHz, max deviation {report.max_reference_deviation():.5%} "
        f"({elapsed:.2f}s)"
    )


# -- 2, 3, 4 -----------------------------------------------------------------


def test_c02_edf_optimality_500_random_sets():
    t0 = time.monotonic()
    rng = random.Random(0xEDF)
    total_misses = 0
    for _ in range(500):
        params = random_edf_params(rng, n_vms=(2, 6), utilization=(0.3, 1.0))
        horizon = hyperperiod_ns(params)
        res = _run(edf_manifest(params, horizon), horizon, "c02")
        total_misses += res.metrics.total_deadline_misses()
    elapsed = time.monotonic() - t0
    assert total_misses == 0
    assert elapsed < 60.0
    print(f"\nPASS criterion 2: 500 feasible sets, one hyperperiod each, 0 misses ({elapsed:.1f}s)")


def test_c03_edf_overload_always_misses():
    t0 = time.monotonic()
    rng = random.Random(0x10AD)
    for _ in range(100):
        params = random_edf_params(rng, utilization=(1.05, 1.5), overload=True)
        hp = hyperperiod_ns(params)
        horizon = hp + 2 * max(p for p, _ in params)
        res = _run(edf_manifest(params, horizon), horizon, "c03")
        miss_deadlines = [
            int(detail_field(r.detail, "deadline"))
            for r in res.records
            if r.kind == "deadline_miss"
        ]
        assert miss_deadlines, f"overloaded set {params} recorded no miss"
        assert min(miss_deadlines) <= hp, "first miss beyond one hyperperiod"
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    print(f"\nPASS criterion 3: 100 overloaded sets each miss within one hyperperiod ({elapsed:.1f}s)")


def test_c04_zero_cost_engine_equals_tick_oracle():
    t0 = time.monotonic()
    rng = random.Random(0x04AC)
    for _ in range(50):
        params = random_edf_params(rng, n_vms=(2, 5))
        horizon = hyperperiod_ns(params)
        res = _run(edf_manifest(params, horizon), horizon, "c04")
        got = [-1] * (horizon // 1000)
        for s, e, vm in run_intervals(res.records, horizon):
            assert s % 1000 == 0 and e % 1000 == 0
            for t in range(s // 1000, e // 1000):
                got[t] = vm
        want, oracle_misses = edf_tick_timeline(
            [(p // 1000, b // 1000) for p, b in params], horizon // 1000
        )
        assert got == want, f"timeline diverged for {params}"
        assert res.metrics.total_deadline_misses() == len(oracle_misses) == 0
    print(f"\nPASS criterion 4: 50 EDF sets, engine timeline == 1us oracle exactly ({time.monotonic()-t0:.1f}s)")


# -- 5 -----------------------------------------------------------------------


def _contract_manifest(scheduler, rng, horizon):
    n = 4
    vms = []
    irq_events = []
    for i in range(n):
        segs = []
        for _ in range(10):
            segs.append({"compute": rng.randint(20 * US, 120 * US)})
            r = rng.random()
            if r < 0.25:
                segs.append({"hyp_call": None})
            elif r < 0.75:
                segs.append({"wfi": True})
        vms.append(make_vm(i, {"loop": True, "segments": segs}))
        period = rng.randint(150 * US, 400 * US)
        t = rng.randint(0, period)
        while t < horizon:
            irq_events.append({"at_ns": t, "irq": 32 + i})
            t += period
    irq_events.sort(key=lambda e: e["at_ns"])
    if scheduler == "edf":
        sched = {
            "name": "edf",
            "sched_param": {
                str(i): {"period_ns": rng.randint(1, 3) * MS, "budget_ns": rng.randint(200 * US, 800 * US)}
                for i in range(n)
            },
        }
    elif scheduler == "fp":
        sched = {"name": "fp", "sched_param": {str(i): {"priority": rng.randint(0, 5)} for i in range(n)}}
    else:
        sched = {"name": "rr", "quantum_ns": 100 * US}
    return make_manifest(vms, sched, cost_model=ZERO_COST, phys_irqs=irq_events)


_CALLBACK_KINDS = ("cb_init", "cb_allocate", "cb_enque", "cb_schedule", "cb_block", "cb_yield", "cb_unblock")
_CONTRACT_KINDS = frozenset(_CALLBACK_KINDS + ("flag_set", "dispatch"))  # what the check reads


def _check_callback_trace(records):
    """Callback legality, sleeping exclusion and flag conservation over one trace.

    Returns (callback_count, switches, flag_sets).  schedule() purity is
    enforced at run time by the dispatcher; reaching the end of the trace
    means no violation was raised.  Reads the three-slot rows of the records
    (each head's kind) and the detail of cb_* and dispatch records only.
    """
    allocated, enqueued = set(), set()
    state = {}
    callbacks = switches = flag_sets = 0
    for _, head, detail in _rows(records):
        k = head_fields(head)[1]
        if k not in _CONTRACT_KINDS:
            continue
        if k == "flag_set":
            flag_sets += 1
        elif k == "dispatch":
            to = detail_field(detail, "to")
            if to != "-":
                vm = int(to)
                assert state[vm] == "ready", "dispatch of a non-ready vcpu"
                state[vm] = "running"
                switches += 1
        else:
            callbacks += 1
            if k == "cb_init":
                continue
            v = detail_field(detail, "vm")
            if k == "cb_schedule":
                if v != "-":
                    assert int(v) in enqueued, "scheduled before enque"
                    assert state[int(v)] != "sleeping", "sleeping exclusion violated"
                continue
            vm = int(v)
            if k == "cb_allocate":
                assert vm not in allocated, "allocate twice"
                allocated.add(vm)
                state[vm] = "ready"
            elif k == "cb_enque":
                assert vm in allocated, "enque before allocate"
                enqueued.add(vm)
            elif k == "cb_block":
                assert state[vm] == "running", "block of a non-running vcpu"
                state[vm] = "ready"
            elif k == "cb_yield":
                assert state[vm] == "running", "yield of a non-running vcpu"
                state[vm] = "sleeping"
            elif k == "cb_unblock":
                assert state[vm] == "sleeping", "unblock of a non-sleeping vcpu"
                state[vm] = "ready"
    assert switches <= flag_sets, "more context switches than flag sets"
    return callbacks, switches, flag_sets


def test_c05_scheduler_contract_suite():
    t0 = time.monotonic()
    horizon = 2_000 * MS
    for scheduler in ("edf", "fp", "rr"):
        callbacks = 0
        for seed in (1, 2):
            rng = random.Random(seed * 7919)
            res = _run(_contract_manifest(scheduler, rng, horizon), horizon, "c05")
            got, _, _ = _check_callback_trace(res.records)
            callbacks += got
        assert callbacks >= 100_000, f"{scheduler}: only {callbacks} callback events"
        print(f"\nPASS criterion 5 ({scheduler}): {callbacks} callbacks, "
              "legality/purity/exclusion/flag-conservation hold")
    print(f"PASS criterion 5: all three schedulers ({time.monotonic()-t0:.1f}s)")


# -- 6 -----------------------------------------------------------------------


def test_c06_vgic_differential_10k_sequences():
    t0 = time.monotonic()
    rng = random.Random(0x61C)
    for seq in range(10_000):
        model = Vgic(TARGETS, VIRQS, lr_count=64)
        oracle = OracleGic(TARGETS, VIRQS)
        if rng.random() < 0.8:
            for vm in (0, 1):
                model.boot_enable(vm)
                oracle.boot_enable(vm)
        for step in range(20):
            out = random_op(rng, model, oracle)
            if out[0] in ("r", "ack", "eoi"):
                assert out[1] == out[2], (seq, step, out)
        assert canonical(snapshot(model)) == oracle.snapshot(), seq
    print(f"\nPASS criterion 6: 10000 random sequences bit-exact vs per-interrupt oracle "
          f"({time.monotonic()-t0:.1f}s)")


# -- 7 -----------------------------------------------------------------------


def _random_isolated_manifest(rng):
    n = rng.randint(2, 4)
    vms = []
    for i in range(n):
        n_regions = rng.randint(1, 2)
        regions = []
        for j in range(n_regions):
            pages = rng.randint(1, 4)
            regions.append(
                {
                    "ipa": hex(0x4000_0000 + j * 0x10_0000),
                    "pa": hex(0x4000_0000 + (i * 8 + j) * 0x10_0000),
                    "len": hex(pages * 0x1000),
                    "perms": "rw" if rng.random() < 0.8 else "r",
                }
            )
        vms.append(
            {
                "id": i,
                "regions": regions,
                "irqs": [32 + 2 * i, 33 + 2 * i],
                "workload": busy_workload(MS),
            }
        )
    manifest = make_manifest(
        vms,
        {"name": "fp", "sched_param": {str(i): {"priority": i} for i in range(n)}},
        cost_model=ZERO_COST,
    )
    if n >= 2 and rng.random() < 0.7:
        vms[0]["virqs"] = [100]
        vms[1]["virqs"] = [101]
        vms[0]["shared_pages"] = [{"page": 0, "ipa": "0x60000000", "perms": "rw"}]
        vms[1]["shared_pages"] = [{"page": 0, "ipa": "0x61000000", "perms": "rw"}]
        manifest["shared_pages"] = [{"id": 0, "pa": "0x7fff0000"}]
        manifest["channels"] = [
            {"id": 0, "endpoints": [0, 1], "pages": [0], "virqs": [100, 101], "variant": "free_access"}
        ]
    return manifest


def _reachable_frames(mm, spec, vm):
    frames = set()
    vmspec = spec.vms[vm]
    spans = [(r.ipa_base, r.ipa_end) for r in vmspec.regions]
    spans += [(ref.ipa, ref.ipa + 0x1000) for ref in vmspec.shared_pages]
    for lo, hi in spans:
        for ipa in range(lo, hi, 0x1000):
            tr = mm.translate(vm, ipa, "r")
            if tr.kind == KIND_PA:
                frames.add(tr.pa & ~0xFFF)
    return frames


def test_c07_isolation_suite():
    t0 = time.monotonic()
    rng = random.Random(0x150)
    violations = 0
    for _ in range(40):
        manifest = _random_isolated_manifest(rng)
        spec = load_manifest(manifest)
        mm = MemoryMap(spec)
        shared_frames = {p.pa for p in spec.shared_pages}
        reach = {vm.id: _reachable_frames(mm, spec, vm.id) for vm in spec.vms}
        for a in reach:
            for b in reach:
                if a < b:
                    overlap = reach[a] & reach[b]
                    allowed = shared_frames if len(spec.channels) else set()
                    if not overlap <= allowed:
                        violations += 1
        # random addresses outside every mapping must fault
        for vm in spec.vms:
            for _ in range(20):
                ipa = rng.randrange(0, 1 << 32) & ~0xFFF
                tr = mm.translate(vm.id, ipa, "r")
                if tr.kind == KIND_PA:
                    frame = tr.pa & ~0xFFF
                    if frame not in reach[vm.id]:
                        violations += 1

        gic = Vgic(
            {irq: vm.id for vm in spec.vms for irq in vm.assigned_irqs},
            {vm.id: vm.virqs for vm in spec.vms},
        )
        for vm in spec.vms:
            gic.boot_enable(vm.id)
        before = snapshot(gic)
        writer = rng.randrange(len(spec.vms))
        # Every id another VM sees, shared ones included; the loader leaves none shared.
        others_visible = set()
        for vm in spec.vms:
            if vm.id != writer:
                others_visible |= gic.visible(vm.id)
            for other in spec.vms[vm.id + 1:]:
                violations += len(gic.visible(vm.id) & gic.visible(other.id))
        for _ in range(50):
            base = rng.choice((0x100, 0x180, 0x200, 0x280, 0x400))
            gic.mmio(writer, base + 4 * rng.randrange(4), True, rng.getrandbits(32))
        after = snapshot(gic)
        for irq in others_visible:
            for field in ("enabled", "pending", "active"):
                if before[field][irq] != after[field][irq]:
                    violations += 1
            if before["priority"][irq] != after["priority"][irq]:
                violations += 1
        for vm in spec.vms:
            if vm.id != writer and before["ctlr"][vm.id] != after["ctlr"][vm.id]:
                violations += 1
    assert violations == 0
    print(f"\nPASS criterion 7: 40 randomized configs, zero isolation violations "
          f"({time.monotonic()-t0:.1f}s)")


# -- 8 -----------------------------------------------------------------------


def _ivc_acceptance_manifest(variant, k):
    script = []
    for _ in range(k):
        script += [
            {"ivc_acquire": 0},
            {"mmio": {"ipa": "0x60000000", "op": "write", "value": 0x5A}},
            {"ivc_release": 0},
            {"ivc_notify": 0},
        ]
    vms = [
        {
            "id": 0,
            "regions": [{"ipa": "0x40000000", "pa": "0x40000000", "len": "0x4000", "perms": "rw"}],
            "irqs": [32],
            "virqs": [100],
            "shared_pages": [{"page": 0, "ipa": "0x60000000", "perms": "rw"}],
            "workload": script,
        },
        {
            "id": 1,
            "regions": [{"ipa": "0x40000000", "pa": "0x41000000", "len": "0x4000", "perms": "rw"}],
            "irqs": [40],
            "virqs": [101],
            "shared_pages": [{"page": 0, "ipa": "0x61000000", "perms": "rw"}],
            "workload": [],
        },
    ]
    return make_manifest(
        vms,
        {"name": "fp", "sched_param": {"0": {"priority": 0}, "1": {"priority": 1}}},
        shared_pages=[{"id": 0, "pa": "0x70000000"}],
        channels=[{"id": 0, "endpoints": [0, 1], "pages": [0], "virqs": [100, 101], "variant": variant}],
    )


def test_c08_ivc_cost_decomposition_and_calibrated_ratio():
    t0 = time.monotonic()
    cm = CostModel()
    k = 8
    horizon = 100 * MS
    free = _run(_ivc_acceptance_manifest("free_access", k), horizon, "c08")
    gated = _run(_ivc_acceptance_manifest("hypcall_gated", k), horizon, "c08")
    diff = gated.metrics.hypervisor_overhead_time - free.metrics.hypervisor_overhead_time
    assert diff == k * 2 * (cm.hyp_call + cm.tlb_flush)

    ivc_kinds = ("ivc_notify", "virq_inject", "ivc_acquire", "ivc_release",
                 "ivc_busy", "stage2_map", "stage2_unmap")
    free_cost = sum(r.cost_ns for r in free.records if r.kind in ivc_kinds)
    gated_cost = sum(r.cost_ns for r in gated.records if r.kind in ivc_kinds)
    ratio = gated_cost / free_cost
    assert abs(ratio - 10.0) / 10.0 <= 0.05, ratio
    print(f"\nPASS criterion 8: gated - free == 2k(hyp_call+tlb_flush); "
          f"calibrated transfer ratio {ratio:.3f} ({time.monotonic()-t0:.1f}s)")


# -- 9 -----------------------------------------------------------------------


def test_c09_overhead_monotonicity_via_sweep(tmp_path):
    t0 = time.monotonic()
    manifest = edf_manifest(
        [(10 * MS, 4 * MS), (20 * MS, 8 * MS), (40 * MS, 6 * MS)],
        40 * MS,
        cost_model=ZERO_COST,
    )
    cfg = tmp_path / "tight.json"
    cfg.write_text(json.dumps(manifest))
    out = tmp_path / "sweep"
    values = [0, 25_840, 100_000, 500_000, 1_500_000, 3_000_000]
    assert cmd_sweep(str(cfg), 40 * MS, str(out), "cost_model.world_switch", values) == 0
    rows = (out / "summary.csv").read_text().splitlines()[1:]
    misses = [int(r.split(",")[1]) for r in rows]
    assert misses == sorted(misses), f"misses decreased along the sweep: {misses}"
    assert misses[-1] > misses[0]
    for i in range(len(values)):
        metrics = json.loads((out / f"run_{i:03d}" / "metrics.json").read_text())
        busy = (
            sum(v["cpu_time_ns"] for v in metrics["per_vm"].values())
            + metrics["hypervisor_overhead_time_ns"]
        )
        assert busy + metrics["idle_time_ns"] == metrics["horizon_ns"]
        _conservation_checks["c09"] += 1
    print(f"\nPASS criterion 9: deadline misses non-decreasing over world_switch sweep "
          f"{misses} ({time.monotonic()-t0:.1f}s)")


# -- 10 ----------------------------------------------------------------------


def test_c10_byte_identical_reruns(tmp_path):
    t0 = time.monotonic()
    configs = {
        "edf": edf_manifest([(10 * MS, 3 * MS), (20 * MS, 5 * MS)], 20 * MS, cost_model=None),
        "ivc": _ivc_acceptance_manifest("hypcall_gated", 3),
    }
    for name, manifest in configs.items():
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps(manifest))
        for fmt in ("csv", "json"):
            a = tmp_path / f"{name}_{fmt}_a"
            b = tmp_path / f"{name}_{fmt}_b"
            assert cmd_run(str(cfg), 20 * MS, str(a), fmt=fmt) == 0
            assert cmd_run(str(cfg), 20 * MS, str(b), fmt=fmt) == 0
            trace_name = f"trace.{fmt}"
            assert (a / trace_name).read_bytes() == (b / trace_name).read_bytes()
            assert (a / "metrics.json").read_bytes() == (b / "metrics.json").read_bytes()
            assert (a / "timeline.dat").read_bytes() == (b / "timeline.dat").read_bytes()
    print(f"\nPASS criterion 10: repeated runs byte-identical ({time.monotonic()-t0:.1f}s)")


# -- 11 ----------------------------------------------------------------------


def test_c11_time_conservation_everywhere(request):
    # awkward horizons: cuts mid-compute and mid-cost-window
    for horizon in (1, 999, 6_580 // 2 + MS, 7 * MS + 123):
        res = run(
            load_manifest(
                edf_manifest([(10 * MS, 3 * MS), (20 * MS, 5 * MS)], 20 * MS, cost_model=None)
            ),
            horizon,
        )
        _conserved(res, "c11")
    # Each suite that checks conservation runs before this one; each that the
    # session selected must have checked every one of its runs.
    floors = {"c02": 500, "c03": 100, "c04": 50, "c05": 6, "c08": 2, "c09": 6}
    selected = {item.name[5:8] for item in request.session.items if getattr(item, "module", None) is request.module}
    short = {suite: _conservation_checks[suite] for suite in floors.keys() & selected
             if _conservation_checks[suite] < floors[suite]}
    assert short == {}, f"suites that checked conservation on too few runs: {short}"
    print(f"\nPASS criterion 11: exact conservation on {sum(_conservation_checks.values())} runs "
          "(the selected suites plus boundary horizons)")
