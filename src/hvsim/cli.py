"""Command-line front end: run a manifest, or sweep one numeric field.

Exit codes: 0 clean run, 2 configuration error, 3 scheduler contract
violation (the partial trace is still written), 4 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import engine, workloadgen
from .config import load_manifest, parse_json
from .model import ConfigError
from .trace import run_intervals, write_csv, write_json

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


def _write_trace(records, out_dir: Path, fmt: str) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    as_json = fmt == "json"
    with open(out_dir / ("trace.json" if as_json else "trace.csv"), "w") as fh:
        (write_json if as_json else write_csv)(records, fh)


def _write_outputs(result: engine.RunResult, out_dir: Path, fmt: str) -> None:
    _write_trace(result.records, out_dir, fmt)
    with open(out_dir / "metrics.json", "w") as fh:
        json.dump(result.metrics.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(out_dir / "timeline.dat", "w") as fh:
        fh.write("# time_ns vm_id state\n")
        for start, end, vm in run_intervals(result.records, result.horizon):
            fh.write(f"{start} {vm} 1\n{end} {vm} 0\n")


def cmd_run(config_path: str, horizon_ns: int, out_dir: str, fmt: str = "csv", seed=None) -> int:
    out = Path(out_dir)
    try:
        spec = load_manifest(_expand(_read_manifest(config_path), horizon_ns, seed))
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    try:
        result = engine.run(spec, horizon_ns)
    except engine.SimulationAborted as exc:
        print(f"contract violation: {exc}", file=sys.stderr)
        try:
            _write_trace(exc.records, out, fmt)
        except OSError as io_exc:
            print(f"io error: {io_exc}", file=sys.stderr)
            return EXIT_IO
        return EXIT_CONTRACT
    try:
        _write_outputs(result, out, fmt)
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
                result = engine.run(spec, horizon_ns)
            except engine.SimulationAborted as exc:
                _write_trace(exc.records, run_dir, fmt)
                rows.append((value, "", "", "", f"contract violation: {exc}".replace(",", ";")))
                continue
            _write_outputs(result, run_dir, fmt)
            m = result.metrics
            rows.append(
                (
                    value,
                    m.total_deadline_misses(),
                    m.hypervisor_overhead_time,
                    f"{m.utilization:.6f}",
                    "",
                )
            )
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
