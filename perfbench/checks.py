"""Output checks: no number counts unless every simulated output is right.

A cell fails if it raised, deadlocked, timed out, or any check below
trips; each failure names the cell and the field.

* At the seed the expected file was captured with, every ``SimResult``
  field must equal it, and fig6-cold's rows must equal the EXPERIMENTS.md
  fig6 rows (3 decimals, as printed there).
* At any seed: ``instructions`` agrees across the memories of one
  benchmark; ``demand_reads <= dram_reads``; ``avg_critical_latency <=
  avg_fill_latency``; ``ddr3`` serves no critical word fast; the warm
  fig6 pass returns the cold results field by field without a store miss;
  and every repetition in a run reproduces the first one exactly.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from perfbench.workloads import Workload

EXPECTED_PATH = Path(__file__).with_name("expected_seed42.json")

Failure = Tuple[str, str, str]   # (cell label, field, detail)


def load_expected(seed: int) -> Optional[dict]:
    """The expected outputs, if they were captured at ``seed``."""
    with open(EXPECTED_PATH) as handle:
        expected = json.load(handle)
    return expected if expected["seed"] == seed else None


def _diff(label: str, got: dict, want: dict, prefix: str = "") -> List[Failure]:
    return [(label, prefix + field,
             f"{got.get(field)!r} != expected {want.get(field)!r}")
            for field in sorted(set(got) | set(want))
            if got.get(field) != want.get(field)]


def check_rep(workload: Workload, rep: dict, expected: Optional[dict],
              reference: Optional[dict]) -> List[Failure]:
    """Every failure in one repetition's outputs.

    ``expected`` is the captured expected-output file (or None at other
    seeds); ``reference`` an earlier repetition of the same run.
    """
    failures: List[Failure] = []
    results: Dict[str, dict] = rep.get("results", {})
    errors: Dict[str, str] = rep.get("errors", {})
    first_of_bench: Dict[str, dict] = {}
    want_cells = expected["cells"][workload.name] if expected else None
    for (bench, memory), label in zip(workload.cells, workload.labels()):
        result = results.get(label)
        if result is None:
            failures.append((label, "error",
                             errors.get(label, "no result recorded")))
            continue
        if want_cells is not None:
            failures += _diff(label, result, want_cells[label])
        if reference is not None and label in reference.get("results", {}):
            failures += _diff(label, result, reference["results"][label],
                              "repeat.")
        first = first_of_bench.setdefault(bench, result)
        if result["instructions"] != first["instructions"]:
            failures.append((label, "instructions",
                             f"{result['instructions']} differs from "
                             f"{first['instructions']} on another memory"))
        if result["demand_reads"] > result["dram_reads"]:
            failures.append((label, "demand_reads",
                             f"{result['demand_reads']} > dram_reads "
                             f"{result['dram_reads']}"))
        if result["avg_critical_latency"] > result["avg_fill_latency"]:
            failures.append((label, "avg_critical_latency",
                             f"{result['avg_critical_latency']} > "
                             f"avg_fill_latency {result['avg_fill_latency']}"))
        if memory == "ddr3" and result["fast_service_fraction"] != 0:
            failures.append((label, "fast_service_fraction",
                             f"{result['fast_service_fraction']} on ddr3"))
    if workload.figure and results:
        failures += _check_figure(rep, expected)
    return failures


def _check_figure(rep: dict, expected: Optional[dict]) -> List[Failure]:
    failures: List[Failure] = []
    warm = rep.get("warm", {})
    for label, result in rep["results"].items():
        if label not in warm:
            failures.append((label, "warm", "missing from the warm pass"))
        else:
            failures += _diff(label, warm[label], result, "warm.")
    for label in rep.get("warm_misses", []):
        failures.append((label, "cache.misses", "warm pass missed the store"))
    if expected is not None:
        rows = rep.get("rows", {})
        for bench, want in expected["fig6_rows"].items():
            for kind, text in want.items():
                got = rows.get(bench, {}).get(kind)
                shown = f"{got:.3f}" if isinstance(got, float) else repr(got)
                if shown != text:
                    failures.append((f"{bench}/{kind}", f"fig6.{kind}",
                                     f"{shown} != EXPERIMENTS.md {text}"))
    return failures


def evaluate(workload: Workload, reps: List[dict], expected: Optional[dict]
             ) -> Tuple[List[Failure], int, int]:
    """Check every repetition against ``expected`` and against the first
    one; returns ``(failures, cells attempted, cells failed)``."""
    failures: List[Failure] = []
    failed = 0
    for rep in reps:
        rep_failures = check_rep(workload, rep, expected, reps[0])
        failures += rep_failures
        failed += len({label for label, _field, _detail in rep_failures})
    return failures, len(reps) * len(workload.cells), failed
