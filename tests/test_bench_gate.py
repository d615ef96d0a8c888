"""The ``repro bench`` regression gate compares like with like.

A longer run amortises warm-up over more reads, so its reads/s is
higher on the same kernel: a ratio between reports taken at different
``target_dram_reads`` measures the read target, not the code. The gate
must refuse such a pair instead of printing a ratio.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro import bench as bench_mod
from repro.bench import QUICK_READS, compare_to_baseline
from repro.cli import main


def _report(reads: int, rate: float) -> dict:
    return {
        "schema": bench_mod.SCHEMA,
        "target_dram_reads": reads,
        "repeats": 1,
        "cells": {"mcf/ddr3": {"reads_per_second": rate, "dram_reads": reads,
                               "process_cpu_seconds": reads / rate}},
        "total": {"reads_per_second": rate, "dram_reads": reads},
    }


def test_equal_targets_gate_on_the_ratio():
    ok, messages = compare_to_baseline(_report(800, 900.0),
                                       _report(800, 1000.0))
    assert ok
    assert "(0.90x)" in messages[0]
    ok, messages = compare_to_baseline(_report(800, 500.0),
                                       _report(800, 1000.0))
    assert not ok
    assert any(m.startswith("REGRESSION") for m in messages)


def test_unequal_targets_are_not_comparable():
    ok, messages = compare_to_baseline(_report(4000, 1760.0),
                                       _report(800, 1000.0))
    assert not ok
    assert messages[0].startswith("not comparable: 4000 vs 800 reads")
    assert not any("x)" in m for m in messages)


def test_cli_baseline_at_other_target_exits_nonzero(tmp_path, monkeypatch,
                                                    capsys):
    baseline = tmp_path / "baseline.json"
    baseline.write_text(json.dumps(_report(800, 1000.0)))
    monkeypatch.setattr(bench_mod, "run_bench",
                        lambda target_dram_reads, repeats:
                        _report(target_dram_reads, 5000.0))
    out = tmp_path / "BENCH_kernel.json"
    code = main(["bench", "--reads", "4000", "--out", str(out),
                 "--baseline", str(baseline)])
    assert code == 1
    assert "not comparable: 4000 vs 800 reads" in capsys.readouterr().out
    assert main(["bench", "--quick", "--out", str(out),
                 "--baseline", str(baseline)]) == 0


def test_committed_baseline_matches_quick_tier():
    """CI runs ``repro bench --quick`` against the committed baseline."""
    path = (Path(__file__).resolve().parent.parent / "benchmarks" / "perf"
            / "BENCH_baseline.json")
    assert json.loads(path.read_text())["target_dram_reads"] == QUICK_READS
