"""Re-capture ``expected_seed42.json`` from the unwrapped product path.

Run from the repository root::

    PYTHONPATH=src:. python3 -m perfbench.capture_expected

Only a change that is meant to alter simulated results may re-capture;
say so in CHANGES.md. The fig6 rows are not re-derived: they are the
EXPERIMENTS.md fig6 rows for the fig6-cold benchmarks, at 3 decimals.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

from perfbench.checks import EXPECTED_PATH
from perfbench.rep import result_fields
from perfbench.workloads import FIG6_BENCHMARKS, WORKLOADS

SEED = 42
# EXPERIMENTS.md, "fig6: CWF throughput normalised to DDR3 baseline".
FIG6_ROWS = {
    "mcf": {"rd": "1.138", "rl": "0.982", "dl": "0.924"},
    "leslie3d": {"rd": "1.222", "rl": "1.205", "dl": "0.724"},
    "stream": {"rd": "1.234", "rl": "1.033", "dl": "0.610"},
    "gobmk": {"rd": "1.057", "rl": "1.037", "dl": "0.970"},
    "libquantum": {"rd": "1.148", "rl": "1.148", "dl": "0.746"},
    "sjeng": {"rd": "1.046", "rl": "1.020", "dl": "0.976"},
}


def main() -> int:
    for name in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[name]
    from repro.experiments import ExperimentConfig, run_specs
    from repro.experiments.cwf_eval import specs_figure_6
    from repro.sim.config import SimConfig
    from repro.sim.system import run_benchmark

    cells = {}
    for workload in WORKLOADS.values():
        if workload.figure:
            with tempfile.TemporaryDirectory() as cache_dir:
                config = ExperimentConfig(
                    target_dram_reads=workload.reads,
                    benchmarks=FIG6_BENCHMARKS, cache_dir=cache_dir,
                    seed=SEED, jobs=1)
                results = run_specs(specs_figure_6(config), config)
            cells[workload.name] = {spec.label: result_fields(r)
                                    for spec, r in results.items()}
            continue
        cells[workload.name] = {
            label: result_fields(run_benchmark(bench, SimConfig(
                memory=memory, seed=SEED, target_dram_reads=workload.reads)))
            for (bench, memory), label in zip(workload.cells,
                                              workload.labels())}
    expected = {
        "seed": SEED,
        "read_targets": {w.name: w.reads for w in WORKLOADS.values()},
        "fig6_rows": FIG6_ROWS,
        "cells": cells,
    }
    with open(EXPECTED_PATH, "w") as handle:
        json.dump(expected, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {EXPECTED_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
