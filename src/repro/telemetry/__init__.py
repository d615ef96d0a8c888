"""Telemetry subsystem: metrics registry, tracing, sampling, export.

See ``registry`` (Counter/Gauge/Histogram + MetricsRegistry),
``trace`` (Chrome trace_event spans), ``sampler`` (EventQueue-driven
periodic probes), ``export`` (JSON/CSV artefacts + run manifest), and
``session`` (per-run scoping and the process-wide active session).
"""

from repro.telemetry.export import (
    config_hash,
    run_manifest,
    table_to_dict,
    tables_to_json,
    write_stats_csv,
    write_stats_json,
)
from repro.telemetry.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_HISTOGRAM,
    NULL_REGISTRY,
    NullRegistry,
)
from repro.telemetry.sampler import Sampler
from repro.telemetry.session import (
    RunTelemetry,
    TelemetrySession,
    activate,
    active_session,
    count,
    deactivate,
)
from repro.telemetry.trace import (
    ChromeTracer,
    NULL_TRACER,
    NullTracer,
    merge_traces,
    validate_trace,
    write_trace,
)

__all__ = [
    "ChromeTracer",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_COUNTER",
    "NULL_GAUGE",
    "NULL_HISTOGRAM",
    "NULL_REGISTRY",
    "NULL_TRACER",
    "NullRegistry",
    "NullTracer",
    "RunTelemetry",
    "Sampler",
    "TelemetrySession",
    "activate",
    "active_session",
    "config_hash",
    "count",
    "deactivate",
    "merge_traces",
    "run_manifest",
    "table_to_dict",
    "tables_to_json",
    "validate_trace",
    "write_stats_csv",
    "write_stats_json",
    "write_trace",
]
