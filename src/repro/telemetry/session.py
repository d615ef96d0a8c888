"""Telemetry sessions: per-run registries under one exportable roof.

A :class:`TelemetrySession` spans one CLI invocation (or one test) and
owns the artefacts; each simulated run gets its own
:class:`RunTelemetry` — a fresh :class:`MetricsRegistry` plus a tracer
emitting into a distinct trace process — so metrics from different
(benchmark, memory) pairs never alias. ``SimulationSystem`` attaches a
run's registry/tracer to the memory hierarchy and drives the sampler.

A module-level *active session* lets the experiment harness pick up
telemetry without threading a parameter through every figure function:
the CLI activates a session, ``run_benchmark`` consults it. While a
session is active the result cache is bypassed for reads (a recalled
result has no telemetry to contribute), so exported stats always
describe actual simulated work.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

from repro.telemetry.export import (
    run_manifest,
    write_stats_csv,
    write_stats_json,
)
from repro.telemetry.registry import MetricsRegistry
from repro.telemetry.sampler import DEFAULT_INTERVAL
from repro.telemetry.trace import ChromeTracer, NULL_TRACER, merge_traces, write_trace


class RunTelemetry:
    """Registry + tracer for one simulated run."""

    def __init__(self, benchmark: str, memory: str, pid: int,
                 cpu_freq_ghz: float, trace_enabled: bool,
                 sample_interval: int = DEFAULT_INTERVAL) -> None:
        self.benchmark = benchmark
        self.memory = memory
        self.sample_interval = sample_interval
        self.registry = MetricsRegistry()
        self.tracer = (ChromeTracer(cpu_freq_ghz, pid=pid,
                                    process_name=f"{benchmark}/{memory}")
                       if trace_enabled else NULL_TRACER)
        # Monotonic, not wall-clock: an NTP step or DST shift mid-run
        # must not distort (or negate) the exported duration.
        self.started = time.monotonic()


class TelemetrySession:
    """Collects RunTelemetry records and writes the export artefacts."""

    def __init__(self, trace_enabled: bool = False,
                 cpu_freq_ghz: float = 3.2,
                 sample_interval: int = DEFAULT_INTERVAL) -> None:
        self.trace_enabled = trace_enabled
        self.cpu_freq_ghz = cpu_freq_ghz
        self.sample_interval = sample_interval
        # Durations come from the monotonic clock; time.time() remains
        # only where an absolute timestamp is the point (created_unix).
        self.started = time.monotonic()
        self._tracers: List[ChromeTracer] = []
        self.runs: List[dict] = []
        # Session-wide event counters (count() mirrors, worker
        # counters, sanitizer findings), exported with the manifest.
        self.registry = MetricsRegistry()

    # ------------------------------------------------------------------

    def begin_run(self, benchmark: str, memory: str) -> RunTelemetry:
        run = RunTelemetry(benchmark, memory, pid=len(self._tracers) + 1,
                           cpu_freq_ghz=self.cpu_freq_ghz,
                           trace_enabled=self.trace_enabled,
                           sample_interval=self.sample_interval)
        if run.tracer.enabled:
            self._tracers.append(run.tracer)
        return run

    def end_run(self, run: RunTelemetry, summary: Optional[dict] = None) -> dict:
        record = {
            "benchmark": run.benchmark,
            "memory": run.memory,
            "wall_time_s": time.monotonic() - run.started,
            "summary": summary or {},
            "metrics": run.registry.snapshot(),
        }
        self.runs.append(record)
        return record

    def ingest(self, runs: List[dict],
               trace_events: Optional[List[dict]] = None,
               counters: Optional[Dict[str, int]] = None) -> None:
        """Merge run records, trace events, and counters from a worker.

        The parallel executor's workers run under their own sessions
        and ship back plain dicts; trace pids are remapped so each
        ingested worker session stays a distinct trace process lane,
        and worker-side counters (e.g. sanitizer findings) sum into the
        parent's.
        """
        self.runs.extend(runs)
        for name, value in (counters or {}).items():
            self.registry.counter(name).inc(value)
        if not trace_events:
            return
        pid_map: dict = {}
        remapped = []
        for event in trace_events:
            child_pid = event.get("pid", 0)
            if child_pid not in pid_map:
                pid_map[child_pid] = len(self._tracers) + len(pid_map) + 1
            event = dict(event)
            event["pid"] = pid_map[child_pid]
            remapped.append(event)
        holder = ChromeTracer(pid=max(pid_map.values(), default=0))
        holder.events = remapped
        self._tracers.append(holder)

    # ------------------------------------------------------------------

    def manifest(self, config=None, seed: Optional[int] = None,
                 argv: Optional[List[str]] = None) -> dict:
        return run_manifest(config=config, seed=seed, argv=argv,
                            wall_time_s=time.monotonic() - self.started,
                            extra={"num_runs": len(self.runs),
                                   "counters": self.registry.counts()})

    def export_stats(self, path: str, config=None,
                     seed: Optional[int] = None,
                     argv: Optional[List[str]] = None) -> None:
        write_stats_json(path, self.manifest(config, seed, argv), self.runs)

    def export_csv(self, path: str) -> None:
        write_stats_csv(path, self.runs)

    def export_trace(self, path: str) -> None:
        write_trace(path, merge_traces(self._tracers))


# ---------------------------------------------------------------------------
# Active-session plumbing
# ---------------------------------------------------------------------------

_active: Optional[TelemetrySession] = None


def activate(session: TelemetrySession) -> TelemetrySession:
    """Install ``session`` as the process-wide active session."""
    global _active
    _active = session
    return session


def deactivate() -> None:
    global _active
    _active = None


def active_session() -> Optional[TelemetrySession]:
    return _active


def count(registry: MetricsRegistry, name: str, n: int = 1) -> None:
    """Bump counter ``name`` in ``registry`` and in the active session.

    The one counting path for host-side events (cache, store, executor,
    service): the owner's registry answers ``/metrics`` and ``report
    --json``, the session's copy lands in ``--stats-json`` manifests.
    """
    if not n:
        return
    registry.counter(name).inc(n)
    if _active is not None:
        _active.registry.counter(name).inc(n)
