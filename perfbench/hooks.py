"""Timing wrappers around the simulator's public calls.

The benchmark changes no program code. It times the layers by replacing,
for the life of one benchmark process, the module attributes through
which the program reaches its own public functions:

* ``repro.workloads.registry.create_workload``  -> phase ``workload``
* ``repro.sim.system.SimulationSystem`` (a subclass timing ``__init__``
  and ``run``)                                   -> ``build``, ``simulate``
* ``repro.sim.system.prewarm_l2``               -> ``prewarm``
* ``repro.experiments.runner.ResultCache.get`` / ``put``
                                                 -> ``cache_get``, ``cache_put``
* ``repro.experiments.executor.execute_spec``   -> one ``cell`` span

``run_benchmark`` and the serial executor look these names up at call
time, so the product path is unchanged apart from the timers. Spans form
a workload -> cell -> phase tree and stay in memory until the process
reports them.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, List, Optional

PHASES = ("workload", "build", "prewarm", "simulate",
          "cache_put", "cache_get", "render")
SETUP_PHASES = ("workload", "build", "prewarm")

# Model counts and their units, in report order.
MODEL_UNITS = {
    "sim.elapsed_cycles": "cycles", "sim.ipc": "instr/cycle",
    "sim.dram_reads": "count", "sim.dram_writes": "count",
    "cpu.instructions": "count", "cpu.stall_retries": "count",
    "l2.hit_rate": "ratio", "l2.dirty_evictions": "count",
    "mshr.stalls": "count", "mshr.merges": "count",
    "prefetch.issued": "count", "uncore.prefetch_drops": "count",
    "memsys.fast_service_fraction": "ratio",
    "memsys.avg_critical_latency_cycles": "cycles",
    "memsys.avg_fill_latency_cycles": "cycles",
    "memsys.parity_deferrals": "count",
    "dram.reads_done": "count", "dram.writes_done": "count",
    "dram.refreshes": "count", "dram.avg_queue_latency_cycles": "cycles",
    "dram.bus_utilization": "ratio",
}
# Averages and rates: a workload reports their mean over its cells;
# every other count is summed.
MEAN_COUNTS = frozenset(name for name, unit in MODEL_UNITS.items()
                        if unit != "count" and name != "sim.elapsed_cycles")


def model_counts(system, result) -> Dict[str, float]:
    """Modelled-hardware statistics of one finished run, read from the
    live system's public attributes. They repeat exactly for a seed."""
    uncore = system.uncore
    memory = system.memory
    stats = memory.stats
    controllers = memory.telemetry_controllers()
    reads_done = sum(mc.stats.reads_done for mc in controllers)
    queue_sum = sum(mc.stats.sum_queue_latency for mc in controllers)
    elapsed = result.elapsed_cycles
    return {
        "sim.elapsed_cycles": elapsed,
        "sim.ipc": result.throughput,
        "sim.dram_reads": result.dram_reads,
        "sim.dram_writes": result.dram_writes,
        "cpu.instructions": result.instructions,
        "cpu.stall_retries": sum(core.stall_retries for core in system.cores),
        "l2.hit_rate": uncore.l2.hit_rate,
        "l2.dirty_evictions": uncore.l2.dirty_evictions,
        "mshr.stalls": uncore.mshrs.stalls,
        "mshr.merges": uncore.mshrs.merges,
        "prefetch.issued": sum(p.issued for p in uncore.prefetchers),
        "uncore.prefetch_drops": uncore.prefetch_drops,
        "memsys.fast_service_fraction": stats.fast_service_fraction,
        "memsys.avg_critical_latency_cycles": stats.avg_critical_latency,
        "memsys.avg_fill_latency_cycles": stats.avg_fill_latency,
        "memsys.parity_deferrals": getattr(memory, "parity_deferrals", 0),
        "dram.reads_done": reads_done,
        "dram.writes_done": sum(mc.stats.writes_done for mc in controllers),
        "dram.refreshes": sum(mc.stats.refreshes for mc in controllers),
        "dram.avg_queue_latency_cycles": (queue_sum / reads_done
                                          if reads_done else 0.0),
        "dram.bus_utilization": (
            sum(mc.channel.utilization(elapsed) for mc in controllers)
            / len(controllers) if controllers else 0.0),
    }


def combine_counts(per_cell: List[Dict[str, float]]) -> Dict[str, float]:
    """Workload-level model counts: sums, or means for rates/averages."""
    out: Dict[str, float] = {}
    for key in MODEL_UNITS:
        values = [cell[key] for cell in per_cell]
        if key in MEAN_COUNTS:
            out[key] = sum(values) / len(values) if values else 0.0
        else:
            out[key] = sum(values)
    return out


class Recorder:
    """Phase timers, spans and cache counters of one benchmark process."""

    def __init__(self) -> None:
        self.t0 = time.perf_counter()
        self.spans: List[dict] = []
        self._stack: List[int] = []
        self.phases: Dict[str, float] = defaultdict(float)
        self.cache = {"hits": 0, "misses": 0, "writes": 0}
        self.missed_keys: List[str] = []
        self.counts: Dict[str, Dict[str, float]] = {}
        self._last: Optional[Dict[str, float]] = None
        self._restore: List[tuple] = []

    @contextmanager
    def span(self, name: str, cat: str):
        """Record a span; ``cat == "phase"`` also adds to that phase."""
        record = {"id": len(self.spans),
                  "parent": self._stack[-1] if self._stack else None,
                  "name": name, "cat": cat}
        self.spans.append(record)
        self._stack.append(record["id"])
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            record["start"] = start - self.t0
            record["end"] = end - self.t0
            if cat == "phase":
                self.phases[name] += end - start

    @contextmanager
    def cell(self, label: str):
        """Span one simulated cell and keep its model counts."""
        self._last = None
        with self.span(label, "cell"):
            yield
        if self._last is not None:
            self.counts[label] = self._last

    def setup_s(self) -> float:
        return sum(self.phases[name] for name in SETUP_PHASES)

    def _patch(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        import repro.experiments.executor as executor_mod
        import repro.sim.system as system_mod
        import repro.workloads.registry as registry_mod
        from repro.experiments.runner import ResultCache

        rec = self
        create_workload = registry_mod.create_workload
        prewarm_l2 = system_mod.prewarm_l2
        execute_spec = executor_mod.execute_spec
        cache_get = ResultCache.get
        cache_put = ResultCache.put

        class TimedSystem(system_mod.SimulationSystem):
            def __init__(self, *args, **kwargs) -> None:
                with rec.span("build", "phase"):
                    super().__init__(*args, **kwargs)

            def run(self, *args, **kwargs):
                with rec.span("simulate", "phase"):
                    result = super().run(*args, **kwargs)
                rec._last = model_counts(self, result)
                return result

        def timed_create_workload(name):
            with rec.span("workload", "phase"):
                return create_workload(name)

        def timed_prewarm_l2(system, profile) -> None:
            with rec.span("prewarm", "phase"):
                prewarm_l2(system, profile)

        def timed_execute_spec(spec, config, attempt: int = 1):
            with rec.cell(spec.label):
                return execute_spec(spec, config, attempt=attempt)

        def timed_get(cache, key: str):
            with rec.span("cache_get", "phase"):
                result = cache_get(cache, key)
            if result is None:
                rec.cache["misses"] += 1
                rec.missed_keys.append(key)
            else:
                rec.cache["hits"] += 1
            return result

        def timed_put(cache, key: str, result) -> None:
            with rec.span("cache_put", "phase"):
                cache_put(cache, key, result)
            rec.cache["writes"] += 1

        self._patch(registry_mod, "create_workload", timed_create_workload)
        self._patch(system_mod, "SimulationSystem", TimedSystem)
        self._patch(system_mod, "prewarm_l2", timed_prewarm_l2)
        self._patch(executor_mod, "execute_spec", timed_execute_spec)
        self._patch(ResultCache, "get", timed_get)
        self._patch(ResultCache, "put", timed_put)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)
