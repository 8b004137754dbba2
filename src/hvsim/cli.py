"""Command-line front end: run a manifest, or sweep one numeric field.

A run streams its trace: each block of records the engine hands over is
written and folded into the metrics, then dropped.

Exit codes: 0 clean run, 2 configuration error, 3 scheduler contract
violation (the partial trace is still written), 4 I/O error, also one
during the run.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import engine, workloadgen
from .config import load_manifest, parse_json
from .model import ConfigError, SystemSpec
from .trace import CSV_HEADER, Fold, MetricsReport, write_csv, write_json, write_timeline
from .trace import run_intervals  # noqa: F401  perfbench's tracing wraps hvsim.cli.run_intervals

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CONTRACT = 3
EXIT_IO = 4


def _read_manifest(config_path: str) -> str:
    try:
        return Path(config_path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"manifest is not valid UTF-8: byte {exc.start}: {exc.reason}") from None


def _expand(text: str, horizon_ns: int, seed) -> dict:
    """A fresh manifest decoded from text, with generated workloads expanded."""
    return workloadgen.expand_generated(parse_json(text), seed, horizon_ns)


def _run(spec: SystemSpec, horizon_ns: int, out_dir: Path, fmt: str) -> MetricsReport:
    """Run spec, streaming its trace into out_dir, then write metrics.json and
    timeline.dat.  An aborted run raises SimulationAborted with its partial
    trace written and nothing else; a failed write raises OSError, also from
    inside the run."""
    out_dir.mkdir(parents=True, exist_ok=True)
    fold = Fold(horizon_ns, [vm.id for vm in spec.vms])
    as_json = fmt == "json"
    with open(out_dir / ("trace.json" if as_json else "trace.csv"), "w") as fh:
        if not as_json:
            fh.write(CSV_HEADER + "\n")

        def sink(block):
            if as_json:
                write_json(block, fh)
            else:
                write_csv(block, fh, header=False)
            fold.feed(block)

        with engine.streaming(sink):
            engine.run(spec, horizon_ns)
    metrics = fold.result()
    with open(out_dir / "metrics.json", "w") as fh:
        json.dump(metrics.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(out_dir / "timeline.dat", "w") as fh:
        write_timeline(fold.spans, fh)
    return metrics


def cmd_run(config_path: str, horizon_ns: int, out_dir: str, fmt: str = "csv", seed=None) -> int:
    try:
        spec = load_manifest(_expand(_read_manifest(config_path), horizon_ns, seed))
        _run(spec, horizon_ns, Path(out_dir), fmt)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except engine.SimulationAborted as exc:
        print(f"contract violation: {exc}", file=sys.stderr)
        return EXIT_CONTRACT
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def _resolve_parent(manifest: dict, dotted: str):
    """Walk a dotted key path; the leaf must already be numeric."""
    parts = dotted.split(".")
    node = manifest
    for part in parts[:-1]:
        if isinstance(node, list):
            try:
                node = node[int(part)]
                continue
            except (ValueError, IndexError):
                raise ConfigError(f"sweep key {dotted!r}: bad index {part!r}") from None
        if not isinstance(node, dict) or part not in node:
            raise ConfigError(f"sweep key {dotted!r}: no component {part!r}")
        node = node[part]
    leaf = parts[-1]
    if not isinstance(node, dict) or leaf not in node:
        raise ConfigError(f"sweep key {dotted!r}: no component {leaf!r}")
    if isinstance(node[leaf], bool) or not isinstance(node[leaf], (int, float, str)):
        raise ConfigError(f"sweep key {dotted!r}: not a numeric field")
    return node, leaf


def cmd_sweep(
    config_path: str,
    horizon_ns: int,
    out_dir: str,
    key: str,
    values: list[int],
    fmt: str = "csv",
    seed=None,
) -> int:
    out = Path(out_dir)
    try:
        text = _read_manifest(config_path)
        _resolve_parent(_expand(text, horizon_ns, seed), key)  # fail fast on a bad key
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO

    rows = []
    try:
        for i, value in enumerate(values):
            variant = _expand(text, horizon_ns, seed)  # decoded anew, never copied recursively
            node, leaf = _resolve_parent(variant, key)
            node[leaf] = value
            run_dir = out / f"run_{i:03d}"
            try:
                spec = load_manifest(variant)
            except ConfigError as exc:
                rows.append((value, "", "", "", str(exc).replace(",", ";")))
                continue
            try:
                m = _run(spec, horizon_ns, run_dir, fmt)
            except engine.SimulationAborted as exc:
                rows.append((value, "", "", "", f"contract violation: {exc}".replace(",", ";")))
                continue
            rows.append((value, m.total_deadline_misses(), m.hypervisor_overhead_time,
                         f"{m.utilization:.6f}", ""))
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "summary.csv", "w") as fh:
            fh.write("value,deadline_misses,hypervisor_overhead_time_ns,utilization,error\n")
            for row in rows:
                fh.write(",".join(str(c) for c in row) + "\n")
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hvsim",
        description="Simulate an embedded hypervisor configuration and emit "
        "trace, metrics and gnuplot-ready timeline files.",
    )
    parser.add_argument("--config", required=True, help="JSON manifest path")
    parser.add_argument("--horizon-ns", required=True, type=int, help="virtual-time horizon")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--sweep", metavar="KEY", help="dotted manifest key to sweep")
    parser.add_argument("--values", help="comma-separated values for --sweep")
    parser.add_argument("--seed", type=int, help="workload-generator seed")
    args = parser.parse_args(argv)

    if args.horizon_ns <= 0:
        print("--horizon-ns must be positive", file=sys.stderr)
        return EXIT_CONFIG
    if args.sweep:
        if not args.values:
            print("--sweep requires --values", file=sys.stderr)
            return EXIT_CONFIG
        try:
            values = [int(v) for v in args.values.split(",") if v != ""]
        except ValueError:
            print("--values must be comma-separated integers", file=sys.stderr)
            return EXIT_CONFIG
        return cmd_sweep(
            args.config, args.horizon_ns, args.out, args.sweep, values,
            fmt=args.format, seed=args.seed,
        )
    if args.values:
        print("--values requires --sweep", file=sys.stderr)
        return EXIT_CONFIG
    return cmd_run(args.config, args.horizon_ns, args.out, fmt=args.format, seed=args.seed)


def console_main() -> None:
    sys.exit(main())
