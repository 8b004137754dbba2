"""One prepared workload: its set-up, its timed operation and its output check.

A Case writes the generated manifest to a file once.  ``setup`` is the path
from that file to a ready Engine; ``run`` is the user-visible operation
(library: load_manifest + Engine.run; cli_rr: ``hvsim.cli.main`` through the
last output file).  ``digest`` and ``check`` happen after timing, never in it.
"""

from __future__ import annotations

import gc
import hashlib
import io
import json
import sys
import time
from collections import Counter
from pathlib import Path
from typing import NamedTuple

from hvsim.config import load_manifest
from hvsim.engine import Engine
from hvsim.memmap import KIND_PA, MemoryMap
from hvsim.model import PERM_READ, PERM_WRITE
from hvsim.trace import write_csv
from hvsim.workloadgen import expand_generated

import workloads
from tracing import PLAIN_API, Api

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_DIR = BENCH_DIR / "reference"

DEFAULT_SEED = 7919
HELD_OUT_SEED = 104729  # reserved for confirming claims; never tune on it

# workload -> (generator, virtual horizon in ns)
WORKLOADS = {
    "trap_edf": (workloads.trap_edf, 200 * workloads.MS),
    "irq_ivc": (workloads.irq_ivc, 250 * workloads.MS),
    "cli_rr": (workloads.cli_rr, 2000 * workloads.MS),
}

# Trace record kinds produced by the vGIC path and by stage-2 translation.
VGIC_KINDS = frozenset(
    {"virq_inject", "irq_latched", "irq_dropped", "guest_ack", "guest_eoi", "mmio_dist", "dist_fault"}
)
STAGE2_KINDS = frozenset({"mmio_pass", "stage2_fault", "stage2_map", "stage2_unmap"})

CLI_OUTPUTS = ("trace.csv", "metrics.json", "timeline.dat")


class Digest(NamedTuple):
    """What one operation produced, reduced to comparable facts."""

    exit_code: int
    trace_sha256: str
    records: int
    metrics: dict
    conserved: bool
    bytes_written: int  # files the CLI wrote; 0 for library runs
    csv_text: str | None = None

    def kinds(self) -> dict[str, int]:
        lines = self.csv_text.splitlines()[1:]
        return dict(sorted(Counter(line.split(",", 3)[2] for line in lines).items()))


def _conserved(metrics: dict) -> bool:
    busy = sum(vm["cpu_time_ns"] for vm in metrics["per_vm"].values())
    busy += metrics["hypervisor_overhead_time_ns"]
    return busy + metrics["idle_time_ns"] == metrics["horizon_ns"]


class Case:
    def __init__(self, workload: str, seed: int, workdir: Path):
        generate, horizon = WORKLOADS[workload]
        self.workload = workload
        self.seed = seed
        self.manifest, self.horizon, self.cli_seed = generate(seed, horizon)
        self.is_cli = workload == "cli_rr"
        workdir.mkdir(parents=True, exist_ok=True)
        text = json.dumps(self.manifest, sort_keys=True)
        self.manifest_sha256 = hashlib.sha256(text.encode()).hexdigest()
        self.path = workdir / f"{workload}-{seed}.json"
        self.path.write_text(text)
        self.out_dir = workdir / f"{workload}-{seed}-out"
        self.expanded = expand_generated(self.manifest, self.cli_seed, self.horizon)

    # -- timed --------------------------------------------------------------

    def setup(self) -> Engine:
        """Manifest file to a ready Engine: JSON read, expansion, load."""
        data = json.loads(self.path.read_text())
        data = expand_generated(data, self.cli_seed, self.horizon)
        return Engine(load_manifest(data), self.horizon)

    def run(self, api: Api = PLAIN_API):
        """The user-visible operation; returns what digest() needs."""
        if self.is_cli:
            argv = ["--config", str(self.path), "--horizon-ns", str(self.horizon),
                    "--out", str(self.out_dir), "--seed", str(self.cli_seed)]
            return api.cli_main(argv)
        spec = api.load_manifest(self.expanded)
        return api.make_engine(spec, self.horizon).run()

    # -- after timing ---------------------------------------------------------

    def digest(self, outcome, keep_text: bool = False) -> Digest:
        if self.is_cli:
            if outcome != 0:
                return Digest(outcome, "", 0, {}, False, 0)
            data = (self.out_dir / "trace.csv").read_bytes()
            metrics = json.loads((self.out_dir / "metrics.json").read_text())
            written = sum((self.out_dir / name).stat().st_size for name in CLI_OUTPUTS)
            return Digest(0, hashlib.sha256(data).hexdigest(), data.count(b"\n") - 1, metrics,
                          _conserved(metrics), written, data.decode() if keep_text else None)
        buf = io.StringIO()
        write_csv(outcome.records, buf)
        text = buf.getvalue()
        return Digest(0, hashlib.sha256(text.encode()).hexdigest(), len(outcome.records),
                      outcome.metrics.to_dict(), outcome.metrics.conserved(), 0,
                      text if keep_text else None)

    def properties(self, digest: Digest) -> dict[str, float]:
        """Shares of the properties the workloads were chosen for."""
        kinds = digest.kinds()
        return {
            "trap_share": self.trap_share(),
            "vgic_stage2_share": sum(n for k, n in kinds.items() if k in VGIC_KINDS | STAGE2_KINDS)
            / digest.records,
            "bytes_written": digest.bytes_written,
        }

    def trap_share(self) -> float:
        """Trapping script segments / all script segments, at boot mappings."""
        spec = load_manifest(self.expanded)
        mm = MemoryMap(spec)
        gated = {ch.id for ch in spec.channels if ch.variant != "free_access"}
        traps = total = 0
        for vm in spec.vms:
            for seg in vm.workload.segments:
                total += 1
                if seg.kind == "compute":
                    continue
                if seg.kind == "mmio":
                    access = PERM_WRITE if seg.op == "write" else PERM_READ
                    traps += mm.translate(vm.id, seg.ipa, access).kind != KIND_PA
                elif seg.kind in ("ivc_acquire", "ivc_release"):
                    traps += seg.channel in gated
                else:
                    traps += 1
        return traps / total


# -- references ---------------------------------------------------------------


def reference_entry(case: Case, digest: Digest) -> dict:
    """What the reference file stores for one (workload, seed)."""
    return {
        "manifest_sha256": case.manifest_sha256,
        "trace_sha256": digest.trace_sha256,
        "records": digest.records,
        "metrics": digest.metrics,
        "kinds": digest.kinds(),
        "properties": case.properties(digest),
    }


def load_reference(workload: str, seed: int) -> dict | None:
    path = REFERENCE_DIR / f"{workload}.json"
    if not path.is_file():
        return None
    stored = json.loads(path.read_text())
    entry = stored["seeds"].get(str(seed))
    return None if entry is None else dict(entry, horizon_ns=stored["horizon_ns"])


def _missing_or_different(ref, got, where: str) -> list[str]:
    """Keys of ref that got lacks or holds another value for (recursively).

    Keys that only got has are allowed, so that a later metrics field does
    not invalidate the stored references; a changed value always fails.
    """
    if isinstance(ref, dict) and isinstance(got, dict):
        out = []
        for key, value in ref.items():
            if key not in got:
                out.append(f"{where}.{key} missing")
            else:
                out += _missing_or_different(value, got[key], f"{where}.{key}")
        return out
    return [] if ref == got else [f"{where}: {got!r} != reference {ref!r}"]


def check(case: Case, digest: Digest, ref: dict) -> list[str]:
    """Problems with one operation's outputs; empty when it passed."""
    if digest.exit_code != 0:
        return [f"hvsim exited with code {digest.exit_code}"]
    problems = []
    if not digest.conserved:
        problems.append("time not conserved (cpu + hypervisor + idle != horizon)")
    if ref.get("manifest_sha256", case.manifest_sha256) != case.manifest_sha256:
        problems.append("generated manifest differs from the one the reference was made from")
    if ref.get("horizon_ns", case.horizon) != case.horizon:
        problems.append(f"horizon {case.horizon} != reference horizon {ref['horizon_ns']}")
    if digest.trace_sha256 != ref["trace_sha256"]:
        problems.append(f"trace sha256 {digest.trace_sha256} != reference {ref['trace_sha256']}")
    if digest.records != ref["records"]:
        problems.append(f"{digest.records} trace records != reference {ref['records']}")
    problems += _missing_or_different(ref["metrics"], digest.metrics, "metrics")
    return problems


class Runner:
    """Runs, times and checks one Case's operations; counts the failures."""

    def __init__(self, case: Case, ref: dict | None):
        self.case = case
        self.ref = ref
        self.attempted = 0
        self.failed = 0

    def timed(self, api: Api = PLAIN_API):
        """(host seconds, outcome) of one operation, after a full collection."""
        gc.collect()
        t0 = time.perf_counter()
        outcome = self.case.run(api)
        return time.perf_counter() - t0, outcome

    def checked(self, outcome, keep_text: bool = False) -> tuple[bool, Digest]:
        """Digest and check one operation's outputs; report any problem."""
        digest = self.case.digest(outcome, keep_text=keep_text)
        self.attempted += 1
        if self.ref is None:  # no stored reference: the first operation is it
            self.ref = {"trace_sha256": digest.trace_sha256, "records": digest.records,
                        "metrics": digest.metrics}
        problems = check(self.case, digest, self.ref)
        if problems:
            self.failed += 1
            if "kinds" in self.ref and digest.exit_code == 0:
                got = self.case.digest(outcome, keep_text=True).kinds()
                want = self.ref["kinds"]
                diff = {k: (got.get(k, 0), want.get(k, 0)) for k in want.keys() | got.keys()
                        if got.get(k, 0) != want.get(k, 0)}
                if diff:
                    problems.append(f"record kinds (got, reference) that differ: {diff}")
            print(f"output check failed ({self.case.workload}, seed {self.case.seed}): "
                  + "; ".join(problems), file=sys.stderr)
        return not problems, digest
