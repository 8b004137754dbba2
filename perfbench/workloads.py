"""Seeded manifest generators for the three benchmark workloads.

Each generator returns (manifest, horizon_ns, cli_seed).  The manifest is a
plain JSON-able dict, so it goes through hvsim's own loader exactly like a
hand-written file.  The same seed always yields the same manifest.

Nothing here imports hvsim: the inputs must not change when the program
under test changes (hvsim.workloadgen has similar helpers).
"""

from __future__ import annotations

import random

US = 1_000
MS = 1_000_000

ZERO_COST = {
    "hyp_call": 0,
    "world_switch": 0,
    "interrupt_entry_exit": 0,
    "virtual_interrupt": 0,
    "tlb_flush": 0,
    "mmio_emulation": 0,
}

# Guest-physical layout shared by the generators (see README "Manifest format").
RAM_IPA = 0x4000_0000
RAM_LEN = 0x1_0000
DIST_IPA = 0x01C8_1000  # trapped vGIC distributor window
SHARED_IPA = 0x6000_0000
UNMAPPED_IPA = 0x9000_0000  # no region: every access is a stage-2 fault


def _vm(vm_id: int, irqs, workload, **extra) -> dict:
    vm = {
        "id": vm_id,
        "regions": [
            {"ipa": hex(RAM_IPA), "pa": hex(RAM_IPA + vm_id * 0x10_0000),
             "len": hex(RAM_LEN), "perms": "rw"}
        ],
        "irqs": list(irqs),
        "workload": workload,
    }
    vm.update(extra)
    return vm


def _periodic_irqs(rng: random.Random, irq: int, period: int, horizon_ns: int) -> list[dict]:
    t = rng.randrange(period)
    out = []
    while t < horizon_ns:
        out.append({"at_ns": t, "irq": irq})
        t += period
    return out


def _strata(rng: random.Random, lo: int, hi: int, n: int) -> list[int]:
    """n values, one uniform draw from each of n equal slices of [lo, hi), shuffled.

    The seed moves every value, but their sum stays within one slice width,
    so the amount of simulated work barely depends on the seed.
    """
    width = (hi - lo) // n
    values = [lo + k * width + rng.randrange(width) for k in range(n)]
    rng.shuffle(values)
    return values


def _shuffled(rng: random.Random, items: list) -> list:
    items = list(items)
    rng.shuffle(items)
    return items


def trap_edf(seed: int, horizon_ns: int) -> tuple[dict, int, None]:
    """Four looping trap-heavy VMs under EDF at zero cost, one periodic irq each.

    The shape of the acceptance suite's scheduler-contract manifests.  Each
    VM's 12 compute segments span 20-120 us and are followed by a hyp call
    in exactly 3 and by wfi in exactly 6 cases.  Every VM keeps a fixed role
    (irq period about 170/240/310/380 us, EDF period 1/2/2/3 ms at
    utilization about 0.45/0.35/0.25/0.15); the seed draws the scripts, the
    irq phases and a small jitter on periods and budgets.
    """
    rng = random.Random(seed)
    vms, irq_events = [], []
    for i, irq_period in enumerate((170 * US, 240 * US, 310 * US, 380 * US)):
        segs = []
        traps = _shuffled(rng, [{"hyp_call": None}] * 3 + [{"wfi": True}] * 6 + [None] * 3)
        for compute, trap in zip(_strata(rng, 20 * US, 120 * US, 12), traps):
            segs.append({"compute": compute})
            if trap is not None:
                segs.append(trap)
        vms.append(_vm(i, [32 + i], {"loop": True, "segments": segs}))
        irq_period += rng.randrange(-20 * US, 20 * US)
        irq_events += _periodic_irqs(rng, 32 + i, irq_period, horizon_ns)
    irq_events.sort(key=lambda e: (e["at_ns"], e["irq"]))
    sched_param = {}
    for i, (period, milli_util) in enumerate(((1 * MS, 450), (2 * MS, 350), (2 * MS, 250), (3 * MS, 150))):
        milli_util += rng.randrange(-20, 20)
        sched_param[str(i)] = {"period_ns": period, "budget_ns": period // 1000 * milli_util}
    manifest = {"cost_model": dict(ZERO_COST), "scheduler": {"name": "edf", "sched_param": sched_param},
                "vms": vms, "phys_irqs": irq_events}
    return manifest, horizon_ns, None


def _dist_access(rng: random.Random, own_irq: int) -> dict:
    """One trapped distributor access touching this VM's own interrupt."""
    word, bit = divmod(own_irq, 32)
    choice = rng.randrange(5)
    if choice == 0:  # GICD_ISENABLER
        return {"ipa": hex(DIST_IPA + 0x100 + 4 * word), "op": "write", "value": hex(1 << bit)}
    if choice == 1:  # GICD_IPRIORITYR, one byte lane
        lane = own_irq % 4
        prio = rng.randrange(0, 256, 16)
        return {"ipa": hex(DIST_IPA + 0x400 + 4 * (own_irq // 4)), "op": "write",
                "value": hex(prio << (8 * lane))}
    if choice == 2:  # GICD_ISPENDR write: software-pended hardware irq
        return {"ipa": hex(DIST_IPA + 0x200 + 4 * word), "op": "write", "value": hex(1 << bit)}
    if choice == 3:  # GICD_ISPENDR read
        return {"ipa": hex(DIST_IPA + 0x200 + 4 * word), "op": "read"}
    return {"ipa": hex(DIST_IPA), "op": "write", "value": "0x1"}  # GICD_CTLR on


def irq_ivc(seed: int, horizon_ns: int) -> tuple[dict, int, None]:
    """Four VMs under FP with the default cost model, two channel pairs.

    VMs 0-1 share a hyp-call-gated channel, VMs 2-3 a free-access one, and
    each pair has one high- and one low-priority member.  Each VM's 14
    compute segments (20-120 us) are followed by exactly 4 trapped
    distributor accesses, 2 pass-through accesses, 2 channel transfers
    (acquire, write, release, notify), 1 stage-2 fault and 5 wfi.  Each VM
    owns two irq lines with periods spanning 150-500 us.
    """
    rng = random.Random(seed)
    vms, irq_events = [], []
    periods = _strata(rng, 150 * US, 500 * US, 8)
    steps = ["dist"] * 4 + ["pass"] * 2 + ["ivc"] * 2 + ["fault"] + ["wfi"] * 5
    for i in range(4):
        irqs = [32 + 2 * i, 33 + 2 * i]
        channel = i // 2
        segs = []
        for compute, step in zip(_strata(rng, 20 * US, 120 * US, 14), _shuffled(rng, steps)):
            segs.append({"compute": compute})
            if step == "dist":
                segs.append({"mmio": _dist_access(rng, rng.choice(irqs))})
            elif step == "pass":
                op = rng.choice(("read", "write"))
                access = {"ipa": hex(RAM_IPA + 4 * rng.randrange(RAM_LEN // 4)), "op": op}
                if op == "write":
                    access["value"] = rng.randrange(1 << 32)
                segs.append({"mmio": access})
            elif step == "ivc":
                segs += [
                    {"ivc_acquire": channel},
                    {"mmio": {"ipa": hex(SHARED_IPA), "op": "write", "value": rng.randrange(256)}},
                    {"ivc_release": channel},
                    {"ivc_notify": channel},
                ]
            elif step == "fault":
                segs.append({"mmio": {"ipa": hex(UNMAPPED_IPA + 4 * rng.randrange(1024)), "op": "read"}})
            else:
                segs.append({"wfi": True})
        vms.append(_vm(
            i, irqs, {"loop": True, "segments": segs},
            virqs=[100 + i],
            shared_pages=[{"page": channel, "ipa": hex(SHARED_IPA), "perms": "rw"}],
        ))
        for irq, period in zip(irqs, periods[2 * i : 2 * i + 2]):
            irq_events += _periodic_irqs(rng, irq, period, horizon_ns)
    irq_events.sort(key=lambda e: (e["at_ns"], e["irq"]))
    high = [rng.randrange(2), 2 + rng.randrange(2)]
    priority = {vm: (0 if vm in high else 2) + vm // 2 for vm in range(4)}
    manifest = {
        "scheduler": {"name": "fp",
                      "sched_param": {str(vm): {"priority": p} for vm, p in priority.items()}},
        "vms": vms,
        "shared_pages": [{"id": 0, "pa": "0x70000000"}, {"id": 1, "pa": "0x70001000"}],
        "channels": [
            {"id": 0, "endpoints": [0, 1], "pages": [0], "virqs": [100, 101],
             "variant": "hypcall_gated"},
            {"id": 1, "endpoints": [2, 3], "pages": [1], "virqs": [102, 103],
             "variant": "free_access"},
        ],
        "phys_irqs": irq_events,
    }
    return manifest, horizon_ns, None


def cli_rr(seed: int, horizon_ns: int) -> tuple[dict, int, int]:
    """Six generated "mixed" VMs under RR, no physical irqs.

    The scripts are expanded by hvsim itself from the CLI's --seed, which is
    the benchmark seed.
    """
    gen = {"kind": "mixed", "segments": 64, "mean_compute_ns": 300 * US, "hyp_call_prob": 0.2}
    vms = [_vm(i, [32 + i], {"generate": dict(gen)}) for i in range(6)]
    manifest = {"scheduler": {"name": "rr", "quantum_ns": 250 * US}, "vms": vms}
    return manifest, horizon_ns, seed
