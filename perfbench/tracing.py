"""Per-layer spans recorded from outside hvsim.

Timing wrappers go on the public entry points of each layer for the length
of one traced operation and come off afterwards; untraced runs never see
them.  Spans live in compact in-memory arrays until the benchmark ends.  A
span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import heapq
import time
from array import array
from contextlib import contextmanager
from typing import Callable, NamedTuple

import hvsim.cli
import hvsim.config
import hvsim.engine
import hvsim.workloadgen

# Span names are "<layer>.<entry point>"; metrics aggregate by layer.
SCHEDULER_CALLBACKS = ("block", "unblock", "yield_")
VGIC_ENTRY_POINTS = ("phys_arrival", "inject_soft", "mmio", "guest_ack", "guest_eoi")
MEMMAP_ENTRY_POINTS = ("translate", "map_shared_page", "unmap_shared_page")


class Tracer:
    """Spans of one traced operation: name, start, end and parent span."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self._stack = [-1]
        self.heap_pushes = 0

    def wrap(self, name: str, fn):
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        clock = time.perf_counter_ns
        name_id, start, end, parent, stack = self.name_id, self.start, self.end, self.parent, self._stack

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def summary(self, scale: float = 1.0) -> dict[str, tuple[int, float]]:
        """{span name: (calls, self seconds x scale)}."""
        n = len(self.start)
        covered = array("q", bytes(8 * n))
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        for i in range(n):
            nid = self.name_id[i]
            calls[nid] += 1
            self_ns[nid] += self.end[i] - self.start[i] - covered[i]
        return {name: (calls[k], self_ns[k] * scale / 1e9) for k, name in enumerate(self.names)}


class _CountingHeapq:
    """Stands in for the heapq module inside hvsim.engine and counts pushes."""

    def __init__(self, tracer: Tracer):
        self._tracer = tracer
        self.heappop = heapq.heappop

    def heappush(self, heap, item) -> None:
        self._tracer.heap_pushes += 1
        heapq.heappush(heap, item)


def instrument_engine(engine, tracer: Tracer) -> None:
    """Wrap one Engine instance's layer entry points (instance attributes)."""
    engine.run = tracer.wrap("engine.run", engine.run)
    engine.trace = tracer.wrap("trace.build", engine.trace)
    fw = engine.fw
    fw.dispatch_checkpoint = tracer.wrap("framework.checkpoint", fw.dispatch_checkpoint)
    table = fw.table
    table.schedule = tracer.wrap("schedulers.schedule", table.schedule)
    for name in SCHEDULER_CALLBACKS:
        setattr(table, name, tracer.wrap(f"schedulers.{name}", getattr(table, name)))
    for name in VGIC_ENTRY_POINTS:
        setattr(engine.vgic, name, tracer.wrap(f"vgic.{name}", getattr(engine.vgic, name)))
    for name in MEMMAP_ENTRY_POINTS:
        setattr(engine.memmap, name, tracer.wrap(f"memmap.{name}", getattr(engine.memmap, name)))


class Api(NamedTuple):
    """The hvsim entry points one benchmark operation calls."""

    load_manifest: Callable
    make_engine: Callable  # (spec, horizon) -> Engine
    cli_main: Callable


PLAIN_API = Api(hvsim.config.load_manifest, hvsim.engine.Engine, hvsim.cli.main)


@contextmanager
def instrumented(tracer: Tracer):
    """Yield a traced Api; hvsim's module-level entry points stay patched
    for the length of the block and are restored afterwards."""

    def make_engine(spec, horizon):
        engine = hvsim.engine.Engine(spec, horizon)
        instrument_engine(engine, tracer)
        return engine

    load = tracer.wrap("config.load", hvsim.config.load_manifest)
    patches = [
        (hvsim.engine, "heapq", _CountingHeapq(tracer)),
        (hvsim.engine, "metrics_from_trace", tracer.wrap("trace.fold", hvsim.engine.metrics_from_trace)),
        (hvsim.engine, "run", lambda spec, horizon: make_engine(spec, horizon).run()),
        (hvsim.cli, "load_manifest", load),
        (hvsim.cli, "write_csv", tracer.wrap("trace.write", hvsim.cli.write_csv)),
        (hvsim.cli, "run_intervals", tracer.wrap("trace.timeline", hvsim.cli.run_intervals)),
        (hvsim.workloadgen, "expand_generated",
         tracer.wrap("workloadgen.expand", hvsim.workloadgen.expand_generated)),
    ]
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in patches]
    for mod, attr, value in patches:
        setattr(mod, attr, value)
    try:
        yield Api(load, make_engine, tracer.wrap("cli.main", hvsim.cli.main))
    finally:
        for mod, attr, value in saved:
            setattr(mod, attr, value)
