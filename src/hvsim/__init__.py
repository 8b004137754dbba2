"""hvsim: a deterministic discrete-event model of an embedded type-1
hypervisor with a pluggable VM-scheduling function table, a GICv2-subset
virtual interrupt controller, stage-2 memory partitioning, and shared-memory
inter-VM channels."""

from .config import dump_config, dumps_config, load_config, load_manifest
from .engine import Engine, RunResult, SimulationAborted, run
from .framework import (
    END_OF_HYP_CALL,
    END_OF_PHYSICAL_INTERRUPT,
    Framework,
    SchedulerServices,
    SchedulerTable,
)
from .model import (
    ConfigError,
    ContractViolation,
    CostModel,
    CostReport,
    MemRegion,
    RunState,
    Segment,
    SystemSpec,
    VcpuRecord,
    VmSpec,
    Workload,
    ZERO_COST,
    implied_clock_mhz,
    validate_cost_model,
)
from .schedulers import SCHEDULERS, register
from .trace import MetricsReport, Trace, TraceRecord, compare_traces, metrics_from_trace

__all__ = [
    "CostModel",
    "CostReport",
    "ConfigError",
    "ContractViolation",
    "Engine",
    "END_OF_HYP_CALL",
    "END_OF_PHYSICAL_INTERRUPT",
    "Framework",
    "MemRegion",
    "MetricsReport",
    "RunResult",
    "RunState",
    "SCHEDULERS",
    "SchedulerServices",
    "SchedulerTable",
    "Segment",
    "SimulationAborted",
    "SystemSpec",
    "Trace",
    "TraceRecord",
    "VcpuRecord",
    "VmSpec",
    "Workload",
    "ZERO_COST",
    "compare_traces",
    "dump_config",
    "dumps_config",
    "implied_clock_mhz",
    "load_config",
    "load_manifest",
    "metrics_from_trace",
    "register",
    "run",
    "validate_cost_model",
]

__version__ = "0.1.0"
