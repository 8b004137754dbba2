"""Manifest builders and seeded workload generators.

Everything here produces plain manifest dicts (see config), so generated
systems go through exactly the same validation as hand-written ones.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from .config import _check_keys, _parse_int
from . import model
from .model import ConfigError, NS_PER_MS, NS_PER_US

ZERO_COST = model.ZERO_COST.as_dict()

# Periods are drawn from divisors of 40 ms so hyperperiods stay desk-sized
# while mixing harmonic (1,2,4,8) and non-harmonic (4,5) relations.
DEFAULT_PERIOD_POOL_MS = (1, 2, 4, 5, 8, 10, 20, 40)


def make_region(vm_id: int, size: int = 0x10000) -> dict:
    return {
        "ipa": "0x40000000",
        "pa": hex(0x4000_0000 + vm_id * 0x10_0000),
        "len": hex(size),
        "perms": "rw",
    }


def make_vm(vm_id: int, workload, irqs=None, **extra) -> dict:
    vm = {
        "id": vm_id,
        "regions": [make_region(vm_id)],
        "irqs": [32 + vm_id] if irqs is None else list(irqs),
        "workload": workload,
    }
    vm.update(extra)
    return vm


def busy_workload(horizon_ns: int) -> list[dict]:
    """A VM that always has work: one compute segment covering the horizon."""
    return [{"compute": horizon_ns + NS_PER_MS}]


def make_manifest(vms: list[dict], scheduler: dict, cost_model=None, **extra) -> dict:
    manifest = {"scheduler": scheduler, "vms": vms}
    if cost_model is not None:
        manifest["cost_model"] = dict(cost_model)
    manifest.update(extra)
    return manifest


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


def edf_manifest(params: list[tuple[int, int]], horizon_ns: int, cost_model=None) -> dict:
    """Always-ready periodic VMs under the edf scheduler."""
    vms = [make_vm(i, busy_workload(horizon_ns)) for i in range(len(params))]
    scheduler = {
        "name": "edf",
        "sched_param": {
            str(i): {"period_ns": p, "budget_ns": b} for i, (p, b) in enumerate(params)
        },
    }
    return make_manifest(vms, scheduler, cost_model=ZERO_COST if cost_model is None else cost_model)


# -- CLI workload expansion -------------------------------------------------------


_MIXED_KEYS = {"kind", "segments", "mean_compute_ns", "hyp_call_prob"}


def _generate_segments(gen, rng: random.Random, horizon_ns: int, where: str):
    _check_keys(gen, _MIXED_KEYS, {"kind"}, where)
    kind = gen["kind"]
    if kind == "busy":
        _check_keys(gen, {"kind"}, set(), where)
        return busy_workload(horizon_ns)
    if kind != "mixed":
        raise ConfigError(f"{where}.kind: unknown generated workload kind {kind!r}")
    count = _parse_int(gen.get("segments", 32), f"{where}.segments")
    mean = _parse_int(gen.get("mean_compute_ns", 200 * NS_PER_US), f"{where}.mean_compute_ns", lo=1)
    prob = gen.get("hyp_call_prob", 0.3)
    if isinstance(prob, bool) or not isinstance(prob, (int, float)) or not 0 <= prob <= 1:
        raise ConfigError(f"{where}.hyp_call_prob: expected a number in [0, 1], got {prob!r}")
    segments = []
    for _ in range(count):
        segments.append({"compute": rng.randint(max(1, mean // 2), 2 * mean)})
        if rng.random() < prob:
            segments.append({"hyp_call": None})
    return {"loop": True, "segments": segments}


def expand_generated(manifest: dict, seed: int | None, horizon_ns: int) -> dict:
    """Replace {"generate": ...} workloads with seeded concrete scripts.

    Only the generator objects and the ids of their VMs are checked here;
    any other shape is left for load_manifest to report."""
    if not isinstance(manifest.get("vms"), list):
        return manifest
    out = dict(manifest)
    vms = []
    for i, vm in enumerate(manifest["vms"]):
        workload = vm.get("workload") if isinstance(vm, dict) else None
        if isinstance(workload, dict) and set(workload) == {"generate"}:
            if seed is None:
                raise ConfigError(
                    f"vms[{vm.get('id')}].workload: generated workload needs --seed"
                )
            vm_id = _parse_int(vm.get("id", 0), f"vms[{i}].id")
            rng = random.Random(seed * 1_000_003 + vm_id)
            vm = dict(vm)
            vm["workload"] = _generate_segments(
                workload["generate"], rng, horizon_ns, f"vms[{i}].workload.generate"
            )
        vms.append(vm)
    out["vms"] = vms
    return out
