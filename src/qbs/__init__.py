"""Quantum bootstrap resampling with error assessment for approximate queries."""

from .aqp import (
    BootstrapReport,
    Condition,
    QuerySpec,
    TableData,
    assess,
    assess_with_replications,
    load_query,
    load_table,
    parse_query,
)
from .bootstrap import (
    MODE_ORACLE,
    MODE_PARALLEL,
    MODE_SEQUENTIAL,
    MODES,
    ReplicationSet,
    SampleResults,
    replicate,
)
from .circuit import Circuit, GateKind, GateOp
from .counter import CounterSpec, build_counter, build_ripple_adder
from .errors import CapacityError, PipelineError, QbsError
from .qram import BitDataArray, ValueDataArray, build_qsa, build_value_qsa
from .sim import StateVector, sample, simulate

__version__ = "0.1.0"

__all__ = [
    "BitDataArray",
    "BootstrapReport",
    "CapacityError",
    "Circuit",
    "Condition",
    "CounterSpec",
    "GateKind",
    "GateOp",
    "MODES",
    "MODE_ORACLE",
    "MODE_PARALLEL",
    "MODE_SEQUENTIAL",
    "PipelineError",
    "QbsError",
    "QuerySpec",
    "ReplicationSet",
    "SampleResults",
    "StateVector",
    "TableData",
    "ValueDataArray",
    "assess",
    "assess_with_replications",
    "build_counter",
    "build_qsa",
    "build_ripple_adder",
    "build_value_qsa",
    "load_query",
    "load_table",
    "parse_query",
    "replicate",
    "sample",
    "simulate",
]
