"""Kernel-throughput benchmark: the perf-regression harness of the repo.

Runs a pinned matrix of (memory organisation x benchmark) cells through
:func:`repro.sim.system.run_benchmark` and reports *simulated DRAM reads
per wallclock second* — the end-to-end figure of merit for the event
kernel (event queue, DRAM timing FSMs, controller issue loops, cache
hierarchy). The matrix is fixed so numbers are comparable across
commits:

* memories: ``ddr3`` (open-page FR-FCFS), ``rl`` (heterogeneous
  RLDRAM3+LPDDR2 critical-word system), ``hmc_cwf`` (HMC-style bulk with
  a critical-word fast channel) — together they exercise the open-page,
  close-page, and aggregated shared-command-bus controller paths;
* benchmarks: ``mcf`` (pointer-chasing, cache-hostile) and ``leslie3d``
  (streaming with prefetch traffic).

Besides wallclock rates the report carries ``process_cpu_seconds`` per
cell, which is less noisy on loaded machines, and the regression check
used by CI: ``compare_to_baseline`` fails when total throughput drops
more than ``fail_threshold`` (default 25%) below a committed baseline
(``benchmarks/perf/BENCH_baseline.json``).

Schema 2 adds provenance and footprint columns: each cell records the
resolved workload-source id and its content token (so a report pins
exactly which workload bytes it measured), plus the process peak RSS
(``ru_maxrss``) after the cell ran — the figure that demonstrates the
streaming trace pipeline's memory win. ``compare_to_baseline`` only
reads the read target and throughput fields, so schema-1 baselines keep
gating schema-2 reports.

Used by ``repro bench`` (see :mod:`repro.cli`) and by
``benchmarks/perf/test_kernel_throughput.py``.
"""

from __future__ import annotations

import json
import platform
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.sim.config import SimConfig
from repro.sim.system import run_benchmark

# The pinned matrix. Do not reorder: the prewarm memoization in
# sim.system makes the first cell of each benchmark bear the warm-L2
# compute, and keeping the order fixed keeps that attribution stable
# across runs and commits.
BENCH_MEMORIES: Tuple[str, ...] = ("ddr3", "rl", "hmc_cwf")
BENCH_BENCHMARKS: Tuple[str, ...] = ("mcf", "leslie3d")

DEFAULT_READS = 4000
QUICK_READS = 800
DEFAULT_FAIL_THRESHOLD = 0.25

SCHEMA = 2


def _peak_rss_kb() -> int:
    """Process high-water RSS in KiB (0 where resource is unavailable)."""
    try:
        import resource
    except ImportError:  # non-Unix platform
        return 0
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def run_bench(target_dram_reads: int = DEFAULT_READS,
              memories: Sequence[str] = BENCH_MEMORIES,
              benchmarks: Sequence[str] = BENCH_BENCHMARKS,
              repeats: int = 1) -> Dict[str, object]:
    """Run the matrix; returns the report dict (see module docstring).

    ``repeats`` re-runs the whole matrix and keeps, per cell, the run
    with the best wallclock rate — the standard noise filter for
    throughput numbers on shared machines.
    """
    from repro.workloads.registry import (
        resolve_workload,
        workload_cache_token,
    )

    cells: Dict[str, Dict[str, object]] = {}
    for _ in range(max(1, repeats)):
        for memory in memories:
            for benchmark in benchmarks:
                cfg = SimConfig(memory=memory,
                                target_dram_reads=target_dram_reads)
                workload = resolve_workload(benchmark)
                wall0 = time.perf_counter()
                cpu0 = time.process_time()
                result = run_benchmark(benchmark, cfg)
                cpu = time.process_time() - cpu0
                wall = time.perf_counter() - wall0
                reads = result.dram_reads
                cell = {
                    "benchmark": benchmark,
                    "memory": memory,
                    "workload": workload,
                    "workload_token": workload_cache_token(workload),
                    "dram_reads": reads,
                    "wall_seconds": round(wall, 6),
                    "process_cpu_seconds": round(cpu, 6),
                    "reads_per_second": round(reads / wall, 1) if wall else 0.0,
                    "elapsed_cycles": result.elapsed_cycles,
                    # ru_maxrss is a process-lifetime high-water mark, so
                    # per-cell values are cumulative; the interesting
                    # figure is the report-level peak staying flat as
                    # read targets grow (streaming traces, no O(trace)
                    # lists).
                    "max_rss_kb": _peak_rss_kb(),
                }
                key = f"{benchmark}/{memory}"
                prev = cells.get(key)
                if prev is None or cell["reads_per_second"] > prev["reads_per_second"]:
                    cells[key] = cell
    total_reads = sum(c["dram_reads"] for c in cells.values())
    total_wall = sum(c["wall_seconds"] for c in cells.values())
    total_cpu = sum(c["process_cpu_seconds"] for c in cells.values())
    return {
        "schema": SCHEMA,
        "target_dram_reads": target_dram_reads,
        "repeats": max(1, repeats),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "cells": cells,
        "total": {
            "dram_reads": total_reads,
            "wall_seconds": round(total_wall, 6),
            "process_cpu_seconds": round(total_cpu, 6),
            "reads_per_second": (round(total_reads / total_wall, 1)
                                 if total_wall else 0.0),
            "max_rss_kb": _peak_rss_kb(),
        },
    }


def compare_to_baseline(report: Dict[str, object],
                        baseline: Dict[str, object],
                        fail_threshold: float = DEFAULT_FAIL_THRESHOLD
                        ) -> Tuple[bool, List[str]]:
    """Regression gate: total reads/s must stay within ``fail_threshold``
    of the baseline. Returns ``(ok, messages)``.

    Only the aggregate rate gates — per-cell rates are reported for
    diagnosis but are too noisy to fail on individually. A baseline
    taken at a different read target is refused (not ok, no ratio):
    longer runs amortise warm-up over more reads, so their rate is
    higher on the same kernel and a ratio across targets measures the
    target, not the code.
    """
    base_reads = baseline.get("target_dram_reads")
    cur_reads = report.get("target_dram_reads")
    if base_reads != cur_reads:
        return False, [f"not comparable: {cur_reads} vs {base_reads} reads "
                       f"(report vs baseline target_dram_reads)"]
    messages: List[str] = []
    base_total = baseline.get("total", {}).get("reads_per_second")
    cur_total = report.get("total", {}).get("reads_per_second")
    if not base_total or not cur_total:
        return True, ["baseline or report missing totals; skipping gate"]
    ratio = cur_total / base_total
    messages.append(
        f"total: {cur_total:,.0f} reads/s vs baseline {base_total:,.0f} "
        f"({ratio:.2f}x)")
    base_cells = baseline.get("cells", {})
    for key, cell in report.get("cells", {}).items():
        base = base_cells.get(key)
        if not base:
            continue
        messages.append(
            f"  {key}: {cell['reads_per_second']:,.0f} vs "
            f"{base['reads_per_second']:,.0f} reads/s")
    ok = ratio >= 1.0 - fail_threshold
    if not ok:
        messages.append(
            f"REGRESSION: total throughput fell {100 * (1 - ratio):.0f}% "
            f"(> {100 * fail_threshold:.0f}% allowed)")
    return ok, messages


def write_report(report: Dict[str, object], path: str) -> None:
    with open(path, "w") as handle:
        json.dump(report, handle, indent=1, sort_keys=True)
        handle.write("\n")


def load_report(path: str) -> Optional[Dict[str, object]]:
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return None


def format_report(report: Dict[str, object]) -> str:
    lines = [
        f"kernel throughput (target_dram_reads="
        f"{report['target_dram_reads']}, repeats={report['repeats']})",
        f"{'cell':<22}{'reads/s':>12}{'cpu reads/s':>14}{'reads':>9}",
    ]
    for key in sorted(report["cells"]):
        cell = report["cells"][key]
        cpu = cell["process_cpu_seconds"]
        cpu_rate = cell["dram_reads"] / cpu if cpu else 0.0
        lines.append(f"{key:<22}{cell['reads_per_second']:>12,.0f}"
                     f"{cpu_rate:>14,.0f}{cell['dram_reads']:>9,}")
    total = report["total"]
    lines.append(f"{'TOTAL':<22}{total['reads_per_second']:>12,.0f}"
                 f"{'':>14}{total['dram_reads']:>9,}")
    rss = total.get("max_rss_kb")
    if rss:
        lines.append(f"peak RSS: {rss / 1024:,.1f} MiB")
    return "\n".join(lines)
