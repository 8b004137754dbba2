"""Manifest builders for the tests and demos.

Everything here produces plain manifest dicts (see hvsim.config), so the
systems the tests build go through exactly the same validation as
hand-written ones.  The demos import this module too, so it imports no
pytest.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from hvsim import CostModel
from hvsim.model import NS_PER_US
from hvsim.workloadgen import busy_workload

ZERO_COST = dict.fromkeys(CostModel().as_dict(), 0)  # every cost-model field at 0

# Periods are drawn from divisors of 40 ms so hyperperiods stay desk-sized
# while mixing harmonic (1,2,4,8) and non-harmonic (4,5) relations.
DEFAULT_PERIOD_POOL_MS = (1, 2, 4, 5, 8, 10, 20, 40)


def make_vm(vm_id: int, workload, irqs=None, **extra) -> dict:
    """One VM with a 64 KiB region of its own and, by default, irq 32+vm_id."""
    vm = {
        "id": vm_id,
        "regions": [{"ipa": "0x40000000", "pa": hex(0x4000_0000 + vm_id * 0x10_0000),
                     "len": "0x10000", "perms": "rw"}],
        "irqs": [32 + vm_id] if irqs is None else list(irqs),
        "workload": workload,
    }
    vm.update(extra)
    return vm


def make_manifest(vms: list[dict], scheduler: dict, cost_model=None, **extra) -> dict:
    manifest = {"scheduler": scheduler, "vms": vms}
    if cost_model is not None:
        manifest["cost_model"] = dict(cost_model)
    manifest.update(extra)
    return manifest


def fp_manifest(priorities, workloads, horizon, cost_model=ZERO_COST, **extra):
    vms = [make_vm(i, w) for i, w in enumerate(workloads)]
    scheduler = {
        "name": "fp",
        "sched_param": {str(i): {"priority": p} for i, p in enumerate(priorities)},
    }
    return make_manifest(vms, scheduler, cost_model=cost_model, **extra)


def rr_manifest(n_vms, quantum_ns, horizon, cost_model=ZERO_COST, workloads=None, **extra):
    if workloads is None:
        workloads = [busy_workload(horizon) for _ in range(n_vms)]
    vms = [make_vm(i, w) for i, w in enumerate(workloads)]
    scheduler = {"name": "rr", "quantum_ns": quantum_ns}
    return make_manifest(vms, scheduler, cost_model=cost_model, **extra)


# -- random periodic VM sets ----------------------------------------------------


def random_edf_params(
    rng: random.Random,
    n_vms: tuple[int, int] = (2, 6),
    utilization: tuple[float, float] = (0.3, 1.0),
    period_pool_ms=DEFAULT_PERIOD_POOL_MS,
    overload: bool = False,
) -> list[tuple[int, int]]:
    """Draw (period_ns, budget_ns) pairs with total utilization in range.

    Budgets are whole microseconds.  With overload=False the returned set
    satisfies sum(budget/period) <= utilization[1] exactly (rational
    arithmetic); with overload=True it exceeds 1 strictly.
    """
    lo, hi = utilization
    for _ in range(1000):
        n = rng.randint(*n_vms)
        periods_us = [rng.choice(period_pool_ms) * 1000 for _ in range(n)]
        target = rng.uniform(lo, hi)
        weights = [rng.random() + 1e-3 for _ in range(n)]
        scale = target / sum(weights)
        budgets_us = []
        for w, p in zip(weights, periods_us):
            share = w * scale
            b = math.ceil(share * p) if overload else math.floor(share * p)
            budgets_us.append(max(1, min(b, p)))
        total = sum(Fraction(b, p) for b, p in zip(budgets_us, periods_us))
        if overload:
            if 1 < total <= Fraction(3, 2):
                return [(p * NS_PER_US, b * NS_PER_US) for p, b in zip(periods_us, budgets_us)]
        else:
            if total <= 1:
                return [(p * NS_PER_US, b * NS_PER_US) for p, b in zip(periods_us, budgets_us)]
    raise RuntimeError("could not draw a VM set in range")  # pragma: no cover


def hyperperiod_ns(params: list[tuple[int, int]]) -> int:
    return math.lcm(*(p for p, _ in params))


def edf_manifest(params: list[tuple[int, int]], horizon_ns: int, cost_model=ZERO_COST) -> dict:
    """Always-ready periodic VMs under the edf scheduler; cost_model=None
    leaves the model's default costs, as in fp_manifest and rr_manifest."""
    vms = [make_vm(i, busy_workload(horizon_ns)) for i in range(len(params))]
    scheduler = {
        "name": "edf",
        "sched_param": {
            str(i): {"period_ns": p, "budget_ns": b} for i, (p, b) in enumerate(params)
        },
    }
    return make_manifest(vms, scheduler, cost_model=cost_model)
