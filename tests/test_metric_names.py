"""Pins the names under which host-side events surface.

Service ``/metrics`` keys and ``--stats-json`` manifest counter names
are an interface: dashboards and scripts read them. The expected sets
below are the names these surfaces carried before the counters moved
into :class:`~repro.telemetry.registry.MetricsRegistry`, with one
rename: the executor's ``executor.resilience.*`` keys in ``/metrics``
are now ``resilience.*``, the name the manifest always used.

The last test checks the point of the single registry: each counted
event reads the same total from the executor's registry (what
``/metrics`` and ``report --json`` render) and from the telemetry
session (what ``--stats-json`` exports), at any ``--jobs``.
"""

import json

import pytest

from repro.experiments.executor import ParallelExecutor
from repro.experiments.runner import ExperimentConfig
from repro.experiments.specs import RunSpec
from repro.service import JobScheduler, JobStore
from repro.telemetry import TelemetrySession, activate, deactivate

METRICS_KEYS = {
    "uptime_s", "queue_depth", "queue_limit", "jobs", "workers",
    "service.batches", "service.cached_specs", "service.coalesced_specs",
    "service.jobs_completed", "service.jobs_failed",
    "service.jobs_recovered", "service.jobs_rejected",
    "service.jobs_submitted", "service.manifests_quarantined",
    "service.simulated_specs",
    "resilience.failures.crash", "resilience.retries",
    "cache.hits", "cache.misses", "cache.quarantined", "cache.writes",
} | {
    f"store.{tier}.{name}"
    for tier in ("results", "manifests")
    for name in ("budget_bytes", "bytes", "entries", "pinned", "evictions",
                 "gc_runs", "hits", "misses", "pinned_skips", "quarantined",
                 "writes")
}

STATS_JSON_COUNTERS = {
    "resilience.failures.crash", "resilience.retries", "sanitizer.runs",
}

SPECS = [{"benchmark": "mcf", "memory": "ddr3"},
         {"benchmark": "mcf", "memory": "rl"}]


@pytest.fixture(autouse=True)
def _crash_once(monkeypatch):
    # The environment (not an in-process plan) reaches pool workers too.
    monkeypatch.setenv("REPRO_FAULT_PLAN", "mcf/ddr3=crash:1;mcf/rl=crash:1")


@pytest.mark.parametrize("jobs", [1, 2])
def test_metrics_key_set(tmp_path, jobs):
    config = ExperimentConfig(target_dram_reads=60, benchmarks=("mcf",),
                              cache_dir=str(tmp_path / "cache"), retries=1)
    sched = JobScheduler(config, store=JobStore(str(tmp_path / "jobs")),
                         jobs=jobs, recover=False)
    try:
        job = sched.submit({"specs": SPECS[:1]})
        assert sched.wait(job.id, timeout=120).state == "done"
        metrics = sched.metrics()
    finally:
        sched.shutdown()
    assert set(metrics) == METRICS_KEYS


@pytest.mark.parametrize("jobs", [1, 2])
def test_stats_json_counter_names(tmp_path, monkeypatch, jobs):
    from repro.cli import main

    monkeypatch.setenv("REPRO_SANITIZE", "1")
    stats = tmp_path / "stats.json"
    assert main(["fig8", "--reads", "150", "--benchmarks", "mcf",
                 "--cache", "off", "--jobs", str(jobs), "--retries", "1",
                 "--stats-json", str(stats)]) == 0
    counters = json.loads(stats.read_text())["manifest"]["counters"]
    assert set(counters) == STATS_JSON_COUNTERS


@pytest.mark.parametrize("jobs", [1, 2])
def test_registry_and_session_read_the_same_totals(tmp_path, jobs):
    config = ExperimentConfig(target_dram_reads=100,
                              cache_dir=str(tmp_path), retries=1)
    session = activate(TelemetrySession())
    try:
        executor = ParallelExecutor(config, jobs=jobs)
        executor.run([RunSpec(**spec) for spec in SPECS])
    finally:
        deactivate()
    owned = {name: value for name, value in executor.registry.counts().items()
             if value}
    assert owned == session.registry.counts() == {
        "cache.writes": 2, "store.results.writes": 2,
        "resilience.failures.crash": 2, "resilience.retries": 2}
