"""Seeded expansion of generated workloads for the CLI.

`expand_generated` replaces each {"generate": ...} workload of a manifest
with a concrete script, so generated systems go through exactly the same
validation as hand-written ones.
"""

from __future__ import annotations

import random

from .config import _check_keys, _parse_int
from .model import ConfigError, NS_PER_MS, NS_PER_US


def busy_workload(horizon_ns: int) -> list[dict]:
    """A VM that always has work: one compute segment covering the horizon."""
    return [{"compute": horizon_ns + NS_PER_MS}]


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
    lo, hi = max(1, mean // 2), 2 * mean + 1  # randint(lo, 2 * mean) is randrange(lo, hi)
    segments = []
    for _ in range(count):
        segments.append({"compute": rng.randrange(lo, hi)})
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
                raise ConfigError(f"vms[{i}].workload: generated workload needs --seed")
            vm_id = _parse_int(vm.get("id", 0), f"vms[{i}].id")
            rng = random.Random(seed * 1_000_003 + vm_id)
            vm = dict(vm)
            vm["workload"] = _generate_segments(
                workload["generate"], rng, horizon_ns, f"vms[{i}].workload.generate"
            )
        vms.append(vm)
    out["vms"] = vms
    return out
