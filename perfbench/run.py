#!/usr/bin/env python3
"""hvsim benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload trap_edf --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout; hvsim is imported from the checkout's
``src/``.  With ``--trace 0`` the benchmark times the untraced operation and
prints the end-to-end metrics; with ``--trace 1`` it prints the per-layer
metrics of a separate traced run.  Every operation's outputs are checked
against the stored reference for that workload and seed.  The last line of
standard output is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
All times are host seconds, scaled by a machine-speed probe (speed.py),
never simulated time.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import gc
import json
import os
import platform
import pstats
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".perfbench_out"

MIN_SAMPLES = 5
SETUPS_PER_SAMPLE = 3
RSS_CHILDREN = 3

# Per-layer metric -> (unit, better); the order is the report order.
LAYER_METRICS = {
    "config.load_s": ("s", "lower"),
    "config.phys_irqs": ("count", "lower"),
    "workloadgen.expand_s": ("s", "lower"),
    "engine.self_s": ("s", "lower"),
    "engine.heap_pushes": ("count", "lower"),
    "engine.records": ("count", "lower"),
    "framework.checkpoint_s": ("s", "lower"),
    "framework.checkpoints": ("count", "lower"),
    "framework.switch_ratio": ("ratio", "higher"),
    "schedulers.schedule_s": ("s", "lower"),
    "schedulers.callback_s": ("s", "lower"),
    "schedulers.calls": ("count", "lower"),
    "schedulers.timer_cancel_ratio": ("ratio", "lower"),
    "vgic.call_s": ("s", "lower"),
    "vgic.calls": ("count", "lower"),
    "vgic.mmio_s": ("s", "lower"),
    "vgic.ack_hit_ratio": ("ratio", "higher"),
    "memmap.translate_s": ("s", "lower"),
    "memmap.translations": ("count", "lower"),
    "memmap.remap_s": ("s", "lower"),
    "ivc.transfers": ("count", "higher"),
    "ivc.busy_ratio": ("ratio", "lower"),
    "trace.build_s": ("s", "lower"),
    "trace.fold_s": ("s", "lower"),
    "trace.write_s": ("s", "lower"),
    "trace.timeline_s": ("s", "lower"),
    "trace.bytes": ("bytes", "lower"),
    "cli.self_s": ("s", "lower"),
    "traced_wall_s": ("s", "lower"),
    "tracing_overhead": ("ratio", "lower"),
    "property.trap_share": ("ratio", "higher"),
    "property.vgic_stage2_share": ("ratio", "higher"),
    "property.bytes_written": ("bytes", "higher"),
    "header.src_lines": ("count", "lower"),
    "header.cost_model_max_deviation": ("ratio", "lower"),
}
# cProfile tottime share per module of hvsim, plus C builtins and the rest.
PROFILE_MODULES = ("cli", "config", "engine", "framework", "ivc", "memmap", "model",
                   "schedulers", "trace", "vgic", "workloadgen", "builtins", "other")
LAYER_METRICS.update({f"attribution.{mod}_share": ("ratio", "lower") for mod in PROFILE_MODULES})

# Layer time metric -> span names (see tracing.py) whose self time it sums.
LAYER_SPANS = {
    "config.load_s": ("config.load",),
    "workloadgen.expand_s": ("workloadgen.expand",),
    "engine.self_s": ("engine.run",),
    "framework.checkpoint_s": ("framework.checkpoint",),
    "schedulers.schedule_s": ("schedulers.schedule",),
    "schedulers.callback_s": ("schedulers.block", "schedulers.unblock", "schedulers.yield_"),
    "vgic.call_s": ("vgic.phys_arrival", "vgic.inject_soft", "vgic.mmio", "vgic.guest_ack",
                    "vgic.guest_eoi"),
    "vgic.mmio_s": ("vgic.mmio",),
    "memmap.translate_s": ("memmap.translate",),
    "memmap.remap_s": ("memmap.map_shared_page", "memmap.unmap_shared_page"),
    "trace.build_s": ("trace.build",),
    "trace.fold_s": ("trace.fold",),
    "trace.write_s": ("trace.write",),
    "trace.timeline_s": ("trace.timeline",),
    "cli.self_s": ("cli.main",),
}


def log(msg: str) -> None:
    print(msg, flush=True)


def _median(values):
    return statistics.median(values) if values else float("nan")


def _upper_percentile(values) -> tuple[float, float]:
    """(p, value) for the highest percentile with at least ten samples above it."""
    n = len(values)
    if n < 11:
        return 0.5, _median(values)
    return (n - 10) / n, sorted(values)[n - 11]


def rss_child_main(workload: str, seed: int, workdir: Path) -> int:
    """Run the operation once in this fresh process and print its peak RSS."""
    import harness

    case = harness.Case(workload, seed, workdir)
    case.run()
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    return 0


def peak_rss_mib(workload: str, seed: int, workdir: Path) -> float:
    """Median ru_maxrss of fresh processes that each ran only this workload."""
    values = []
    for k in range(RSS_CHILDREN):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--rss-child", "--workload", workload,
             "--seed", str(seed), "--workdir", str(workdir / f"rss{k}")],
            capture_output=True, text=True, timeout=120, check=True,
        )
        values.append(int(proc.stdout.split()[-1]) / 1024)
    return statistics.median(values)


def header() -> dict:
    from hvsim import CostModel, implied_clock_mhz, validate_cost_model

    report = validate_cost_model(CostModel(), implied_clock_mhz())
    figures = sum(1 for r in report.rows if r.reference_cycles is not None)
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "src_lines": src_lines,
        "cost_model_max_deviation": report.max_reference_deviation(),
        "accuracy": (
            f"default cost model vs the paper's {figures} measured board (time, cycle) figures: "
            f"max deviation {report.max_reference_deviation():.4%} at {report.clock_mhz:.1f} MHz; "
            "the model is otherwise unvalidated against hardware and has no other error figure"
        ),
    }


def measure(runner, seconds: float, workdir: Path) -> dict:
    """End-to-end metrics of the untraced operation."""
    case = runner.case
    _, first = runner.checked(case.run())  # warm-up, untimed
    rss = peak_rss_mib(case.workload, case.seed, workdir)
    walls, failed_walls, raw_walls, setups = [], [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        gc.collect()
        before = speed.probe()
        setup_times = []
        for _ in range(SETUPS_PER_SAMPLE):
            t0 = time.perf_counter()
            case.setup()
            setup_times.append(time.perf_counter() - t0)
        dt, outcome = runner.timed()
        scale = speed.scale(before, speed.probe())
        setups += [t * scale for t in setup_times]
        ok, _ = runner.checked(outcome)
        del outcome  # free the trace before the next operation
        (walls if ok else failed_walls).append(dt * scale)
        raw_walls.append(dt)
        if time.perf_counter() >= deadline and runner.attempted > MIN_SAMPLES:
            break
    walls = walls or failed_walls  # a failed operation is timed only if none passed
    wall = _median(walls)
    p, upper = _upper_percentile(walls)
    log(f"# wall_s: median {wall:.4f} s, p{100 * p:.0f} {upper:.4f} s over {len(walls)} samples "
        f"(unscaled median {_median(raw_walls):.4f} s); "
        f"setup_s: median {_median(setups):.4f} s over {len(setups)} samples")
    return {
        "wall_s": (wall, "s"),
        "setup_s": (_median(setups), "s"),
        "records_per_s": (first.records / wall, "1/s"),
        "peak_rss_mib": (rss, "MiB"),
    }


def profile_shares(runner) -> dict[str, float]:
    """One cProfile pass: share of total tottime per hvsim module."""
    prof = cProfile.Profile()
    prof.enable()
    outcome = runner.case.run()
    prof.disable()
    runner.checked(outcome)
    tot = dict.fromkeys(PROFILE_MODULES, 0.0)
    for (filename, _, _), (_, _, tt, _, _) in pstats.Stats(prof).stats.items():
        path = Path(filename)
        if filename == "~":
            tot["builtins"] += tt
        elif path.parent.name == "hvsim" and path.stem in tot:
            tot[path.stem] += tt
        else:
            tot["other"] += tt
    total = sum(tot.values()) or 1.0
    return {mod: t / total for mod, t in tot.items()}


def trace_layers(runner, seconds: float, workdir: Path, hdr: dict) -> dict:
    """Per-layer metrics from traced operations, plus their cross-checks."""
    import harness
    import tracing

    case = runner.case
    _, first = runner.checked(case.run(), keep_text=True)  # warm-up, untimed
    kinds = first.kinds()
    plain, traced, tracers = [], [], []
    deadline = time.perf_counter() + seconds
    scales = []
    while True:
        gc.collect()
        before = speed.probe()
        dt, outcome = runner.timed()
        plain.append(dt * speed.scale(before, speed.probe()))
        runner.checked(outcome)
        del outcome
        gc.collect()
        before = speed.probe()
        tracer = tracing.Tracer()
        with tracing.instrumented(tracer) as api:
            dt, outcome = runner.timed(api)
        scales.append(speed.scale(before, speed.probe()))
        traced.append(dt * scales[-1])
        tracers.append(tracer)
        runner.checked(outcome)
        del outcome
        if time.perf_counter() >= deadline and len(tracers) >= 3:
            break

    summaries = [t.summary(scale) for t, scale in zip(tracers, scales)]
    counts = {(tuple((n, c) for n, (c, _) in sorted(s.items())), t.heap_pushes)
              for s, t in zip(summaries, tracers)}
    if len(counts) != 1:
        runner.failed += 1
        print("span call counts or heap pushes differ between traced runs", file=sys.stderr)
    names = set().union(*summaries)
    self_s = {n: _median([s.get(n, (0, 0.0))[1] for s in summaries]) for n in names}
    calls = {n: summaries[0].get(n, (0, 0.0))[0] for n in names}

    def calls_of(*span_names):
        return sum(calls.get(n, 0) for n in span_names)

    metrics = {m: sum(self_s.get(n, 0.0) for n in spans) for m, spans in LAYER_SPANS.items()}
    checkpoints = calls_of("framework.checkpoint")
    acquire_release = kinds.get("ivc_acquire", 0) + kinds.get("ivc_release", 0) + kinds.get("ivc_busy", 0)
    props = case.properties(first)
    metrics.update({
        "config.phys_irqs": len(case.expanded.get("phys_irqs", [])),
        "engine.heap_pushes": tracers[0].heap_pushes,
        "engine.records": first.records,
        "framework.checkpoints": checkpoints,
        "framework.switch_ratio": kinds.get("dispatch", 0) / checkpoints,
        "schedulers.calls": calls_of(*LAYER_SPANS["schedulers.schedule_s"],
                                     *LAYER_SPANS["schedulers.callback_s"]),
        "schedulers.timer_cancel_ratio": kinds.get("timer_cancel", 0) / max(1, kinds.get("timer_set", 0)),
        "vgic.calls": calls_of(*LAYER_SPANS["vgic.call_s"]),
        "vgic.ack_hit_ratio": kinds.get("guest_ack", 0) / max(1, calls_of("vgic.guest_ack")),
        "memmap.translations": calls_of("memmap.translate"),
        "ivc.transfers": kinds.get("ivc_notify", 0),
        "ivc.busy_ratio": kinds.get("ivc_busy", 0) / max(1, acquire_release),
        "trace.bytes": (case.out_dir / "trace.csv").stat().st_size if case.is_cli else 0,
        "traced_wall_s": _median(traced),
        "tracing_overhead": _median(traced) / _median(plain),
        "property.trap_share": props["trap_share"],
        "property.vgic_stage2_share": props["vgic_stage2_share"],
        "property.bytes_written": props["bytes_written"],
        "header.src_lines": hdr["src_lines"],
        "header.cost_model_max_deviation": hdr["cost_model_max_deviation"],
    })
    shares = profile_shares(runner)
    metrics.update({f"attribution.{mod}_share": share for mod, share in shares.items()})

    wall = _median(traced)
    log(f"# traced runs: {len(tracers)}; traced wall median {wall:.4f} s, "
        f"untraced {_median(plain):.4f} s over {len(plain)} samples")
    log(f"# {'span':<28}{'calls':>9}{'self s':>10}{'share':>8}")
    for n in sorted(names, key=lambda n: -self_s[n]):
        log(f"# {n:<28}{calls[n]:>9}{self_s[n]:>10.4f}{self_s[n] / wall:>8.1%}")
    log("# cProfile tottime share by module: "
        + ", ".join(f"{m} {s:.1%}" for m, s in sorted(shares.items(), key=lambda kv: -kv[1]) if s))
    for label, seed in (("default", harness.DEFAULT_SEED), ("held-out", harness.HELD_OUT_SEED)):
        if seed == case.seed:
            p = props
        else:
            other = harness.Case(case.workload, seed, workdir)
            sub = harness.Runner(other, harness.load_reference(case.workload, seed))
            _, d = sub.checked(other.run(), keep_text=True)
            runner.attempted += sub.attempted
            runner.failed += sub.failed
            p = other.properties(d)
        log(f"# properties, {label} seed {seed}: "
            + ", ".join(f"{k} {v:.4g}" for k, v in p.items()))
    return {m: (metrics[m], LAYER_METRICS[m][0]) for m in LAYER_METRICS}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rss-child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "hvsim" / "__init__.py").is_file():
        print(f"hvsim sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness

    if args.workload not in harness.WORKLOADS:
        print(f"unknown workload {args.workload!r}; have {sorted(harness.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.rss_child:
        return rss_child_main(args.workload, args.seed, Path(args.workdir))

    workdir = OUT_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        hdr = header()
        log(f"# hvsim benchmark: workload {args.workload}, seed {args.seed}, trace {args.trace}; "
            f"python {hdr['python']}, nproc {hdr['nproc']}, src lines {hdr['src_lines']}")
        log(f"# accuracy: {hdr['accuracy']}")
        case = harness.Case(args.workload, args.seed, workdir)
        ref = harness.load_reference(args.workload, args.seed)
        log("# reference: " + ("stored" if ref else "none stored for this seed; "
                               "checking run-to-run equality and conservation only"))
        runner = harness.Runner(case, ref)
        if args.trace:
            metrics = trace_layers(runner, args.seconds, workdir, hdr)
        else:
            metrics = measure(runner, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by a concurrent run
            OUT_ROOT.rmdir()
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
