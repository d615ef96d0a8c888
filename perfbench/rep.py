"""One repetition of one workload, in a fresh interpreter.

Run by ``perfbench/run.py`` as ``python -m perfbench.rep`` with a clean
environment, in an empty scratch directory; writes one JSON record to
``--out``. With ``--profile`` the workload runs under ``cProfile`` and
the record carries the per-layer attribution of the profile.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import resource
import sys
import time
from pathlib import Path
from typing import Dict

from perfbench.hooks import PHASES, Recorder
from perfbench.workloads import FIG6_BENCHMARKS, WORKLOADS, Workload


def result_fields(result) -> dict:
    """A SimResult as the JSON-comparable dict the output check uses."""
    data = dataclasses.asdict(result)
    data.pop("telemetry", None)
    return json.loads(json.dumps(data))


def _error(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def run_cells(workload: Workload, seed: int, rec: Recorder) -> dict:
    """Simulate every cell of ``workload``; returns results and errors."""
    from repro.sim.config import SimConfig
    from repro.sim.system import run_benchmark

    results: Dict[str, dict] = {}
    errors: Dict[str, str] = {}
    for (bench, memory), label in zip(workload.cells, workload.labels()):
        try:
            with rec.cell(label):
                result = run_benchmark(bench, SimConfig(
                    memory=memory, seed=seed,
                    target_dram_reads=workload.reads))
        except Exception as exc:  # a failed cell is counted, not fatal
            errors[label] = _error(exc)
            continue
        results[label] = result_fields(result)
    return {"results": results, "errors": errors}


def run_figure(workload: Workload, seed: int, rec: Recorder) -> dict:
    """Fig 6 cold into an empty store, then resolved again warm from it."""
    from repro.experiments import ExperimentConfig, run_specs
    from repro.experiments.cwf_eval import figure_6, specs_figure_6
    from repro.experiments.runner import ResultCache
    from repro.experiments.specs import spec_cache_key

    cache_dir = str(Path.cwd() / "results")
    config = ExperimentConfig(target_dram_reads=workload.reads,
                              benchmarks=FIG6_BENCHMARKS,
                              cache_dir=cache_dir, seed=seed, jobs=1)
    out: dict = {"results": {}, "errors": {}}
    try:
        specs = specs_figure_6(config)
        cold = run_specs(specs, config)
        with rec.span("render", "phase"):
            table = figure_6(config, results=cold)
            table.format()
        cold_misses = len(rec.missed_keys)
        warm = run_specs(specs, config)
        with rec.span("render", "phase"):
            figure_6(config, results=warm).format()
    except Exception as exc:  # the whole figure failed; cells say which
        error = _error(exc)
        for label in workload.labels():
            out["errors"][label] = error
        return out
    out["results"] = {spec.label: result_fields(r) for spec, r in cold.items()}
    out["warm"] = {spec.label: result_fields(r) for spec, r in warm.items()}
    labels = {spec_cache_key(spec, config): spec.label for spec in specs}
    out["warm_misses"] = [labels.get(key, key)
                          for key in rec.missed_keys[cold_misses:]]
    out["rows"] = {row["benchmark"]: {k: row[k] for k in ("rd", "rl", "dl")}
                   for row in table.rows}
    store = ResultCache(cache_dir).store_stats() or {}
    out["store_bytes"] = store.get("bytes", 0)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--profile", action="store_true")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    import repro.experiments  # noqa: F401  (import cost stays out of timing)

    rec = Recorder()
    rec.install()
    profiler = None
    if args.profile:
        import cProfile
        profiler = cProfile.Profile()
    start = time.perf_counter()
    if profiler is not None:
        profiler.enable()
    with rec.span(workload.name, "workload"):
        if workload.figure:
            out = run_figure(workload, args.seed, rec)
        else:
            out = run_cells(workload, args.seed, rec)
    if profiler is not None:
        profiler.disable()
    wall = time.perf_counter() - start
    rec.uninstall()

    record = {
        "workload": workload.name,
        "seed": args.seed,
        "wall_s": wall,
        "setup_s": rec.setup_s(),
        "phases": {name: rec.phases[name] for name in PHASES},
        "reads": sum(r["dram_reads"] for r in out["results"].values()),
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "cache": rec.cache,
        "counts": rec.counts,
        "spans": rec.spans,
        **out,
    }
    if profiler is not None:
        from perfbench.layers import attribute_profile
        record["profile"] = attribute_profile(profiler)
    with open(args.out, "w") as handle:
        json.dump(record, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
