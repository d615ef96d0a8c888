"""Tests of the benchmark's own machinery.

    PYTHONPATH=src:. python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import cProfile
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import compare
from perfbench.checks import EXPECTED_PATH, evaluate
from perfbench.hooks import Recorder
from perfbench.layers import (LAYERS, attribute, check_attribution,
                              make_classifier, work_counts)
from perfbench.rep import result_fields
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def expected():
    with open(EXPECTED_PATH) as handle:
        return json.load(handle)


def rep_from_expected(expected: dict, name: str) -> dict:
    """A repetition whose outputs are exactly the captured ones."""
    cells = copy.deepcopy(expected["cells"][name])
    rep = {"results": cells, "errors": {}}
    if WORKLOADS[name].figure:
        rep["warm"] = copy.deepcopy(cells)
        rep["warm_misses"] = []
        rep["rows"] = {bench: {k: float(v) for k, v in row.items()}
                       for bench, row in expected["fig6_rows"].items()}
    return rep


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_captured_outputs_pass(expected, name):
    rep = rep_from_expected(expected, name)
    failures, attempted, failed = evaluate(WORKLOADS[name], [rep, rep],
                                           expected)
    assert failures == []
    assert (attempted, failed) == (2 * len(WORKLOADS[name].cells), 0)


def test_perturbed_expected_value_trips_the_check(expected):
    perturbed = copy.deepcopy(expected)
    perturbed["cells"]["mcf-chase"]["mcf/rl"]["elapsed_cycles"] += 1
    rep = rep_from_expected(expected, "mcf-chase")
    failures, attempted, failed = evaluate(WORKLOADS["mcf-chase"], [rep],
                                           perturbed)
    assert [(label, field) for label, field, _ in failures] == [
        ("mcf/rl", "elapsed_cycles")]
    assert failed / attempted > 0


def test_fig6_row_mismatch_trips_the_check(expected):
    perturbed = copy.deepcopy(expected)
    perturbed["fig6_rows"]["mcf"]["rl"] = "0.983"
    rep = rep_from_expected(expected, "fig6-cold")
    failures, _, failed = evaluate(WORKLOADS["fig6-cold"], [rep], perturbed)
    assert [(label, field) for label, field, _ in failures] == [
        ("mcf/rl", "fig6.rl")]
    assert failed == 1


@pytest.mark.parametrize("mutate, label, field", [
    (lambda r: r["results"]["mcf/rl"].update(instructions=1),
     "mcf/rl", "instructions"),
    (lambda r: r["results"]["mcf/rl"].update(demand_reads=10 ** 9),
     "mcf/rl", "demand_reads"),
    (lambda r: r["results"]["mcf/rl"].update(avg_critical_latency=10 ** 9),
     "mcf/rl", "avg_critical_latency"),
    (lambda r: r["results"]["mcf/ddr3"].update(fast_service_fraction=0.5),
     "mcf/ddr3", "fast_service_fraction"),
    (lambda r: r["results"].pop("mcf/hmc_cwf"), "mcf/hmc_cwf", "error"),
])
def test_invariants_trip_at_any_seed(expected, mutate, label, field):
    rep = rep_from_expected(expected, "mcf-chase")
    mutate(rep)
    failures, _, failed = evaluate(WORKLOADS["mcf-chase"], [rep], None)
    assert (label, field) in [(c, f) for c, f, _ in failures]
    assert failed == 1


def test_repetitions_must_agree(expected):
    first = rep_from_expected(expected, "gobmk-idle")
    second = rep_from_expected(expected, "gobmk-idle")
    second["results"]["gobmk/rl"]["dram_writes"] += 1
    failures, attempted, failed = evaluate(WORKLOADS["gobmk-idle"],
                                           [first, second], None)
    assert [(c, f) for c, f, _ in failures] == [
        ("gobmk/rl", "repeat.dram_writes")]
    assert (attempted, failed) == (4, 1)


def test_warm_pass_must_match_cold_and_hit(expected):
    rep = rep_from_expected(expected, "fig6-cold")
    rep["warm"]["sjeng/dl"]["l2_hit_rate"] = 0.0
    rep["warm_misses"] = ["mcf/ddr3"]
    failures, _, failed = evaluate(WORKLOADS["fig6-cold"], [rep], None)
    assert sorted((c, f) for c, f, _ in failures) == [
        ("mcf/ddr3", "cache.misses"), ("sjeng/dl", "warm.l2_hit_rate")]
    assert failed == 2


def test_wrapped_run_matches_plain_run_and_times_phases():
    from repro.sim.config import SimConfig
    from repro.sim.system import run_benchmark
    import repro.sim.system as system_mod

    config = SimConfig(memory="rl", seed=3, target_dram_reads=200)
    plain = result_fields(run_benchmark("mcf", config))
    original = system_mod.SimulationSystem
    rec = Recorder()
    rec.install()
    try:
        with rec.cell("mcf/rl"):
            wrapped = result_fields(run_benchmark("mcf", config))
    finally:
        rec.uninstall()
    assert system_mod.SimulationSystem is original
    assert wrapped == plain
    assert set(rec.phases) == {"workload", "build", "prewarm", "simulate"}
    assert rec.counts["mcf/rl"]["sim.dram_reads"] == plain["dram_reads"]
    names = [(s["name"], s["parent"]) for s in rec.spans]
    assert names[0] == ("mcf/rl", None)
    assert all(parent == 0 for _, parent in names[1:])


def _fake_module(path: Path, source: str) -> dict:
    namespace: dict = {}
    exec(compile(source, str(path), "exec"), namespace)
    return namespace


def test_builtins_are_charged_to_the_calling_layer(tmp_path):
    src = tmp_path / "src"
    dram = _fake_module(src / "repro" / "dram" / "fake.py",
                        "def work(n):\n"
                        "    return sorted(range(n, 0, -1))[0] + sum(range(n))\n")
    events = _fake_module(src / "repro" / "util" / "events.py",
                          "def step(fn, n):\n    return fn(n)\n")
    profiler = cProfile.Profile()
    profiler.enable()
    for _ in range(5):
        events["step"](dram["work"], 200_000)
    profiler.disable()
    import pstats
    stats = pstats.Stats(profiler).stats
    result = attribute(stats, make_classifier(str(src), str(tmp_path / "b")))
    builtin_tt = sum(tt for (fn, _, name), (_, _, tt, _, _) in stats.items()
                     if fn == "~" and ("sorted" in name or "sum" in name))
    assert set(result["self_s"]) == set(LAYERS)
    assert result["self_s"]["dram"] >= builtin_tt > 0
    assert result["calls_in"]["dram"] == 5
    assert result["unattributed_s"] < 0.01 * result["total_s"]
    assert check_attribution(result) == []
    assert work_counts(stats, str(src))["events.steps"] == 5


def _stats(edges: dict, tt: dict) -> dict:
    """pstats-format stats: ``edges`` maps callee -> {caller: edge tt}."""
    return {func: (1, 1, tt[func], tt[func],
                   {caller: (1, 1, edge_tt, edge_tt)
                    for caller, edge_tt in edges.get(func, {}).items()})
            for func in tt}


DRAM = ("/src/repro/dram/x.py", 1, "tick")
EVENTS = ("/src/repro/util/events.py", 1, "step")
LIB_A = ("/usr/lib/copy.py", 1, "deepcopy")
LIB_B = ("/usr/lib/copy.py", 9, "_reconstruct")


def _classify(filename: str):
    return make_classifier("/src", "/bench")(filename)


def test_recursive_library_time_goes_to_the_entering_layers():
    # dram and events both call A; A and B recurse into each other.
    stats = _stats(
        {LIB_A: {DRAM: 3.0, EVENTS: 1.0, LIB_A: 0.5, LIB_B: 0.5},
         LIB_B: {LIB_A: 2.0}},
        {DRAM: 1.0, EVENTS: 1.0, LIB_A: 5.0, LIB_B: 2.0})
    stats[LIB_A][4][DRAM] = (1, 1, 3.0, 6.0)
    stats[LIB_A][4][EVENTS] = (1, 1, 1.0, 2.0)
    result = attribute(stats, _classify)
    assert result["unattributed_s"] == pytest.approx(0.0, abs=1e-9)
    assert result["self_s"]["dram"] == pytest.approx(1.0 + 0.75 * 7.0)
    assert result["self_s"]["events"] == pytest.approx(1.0 + 0.25 * 7.0)
    assert check_attribution(result) == []


def test_time_without_a_caller_trips_the_attribution_check():
    # B's callers were not recorded: its time cannot be traced to a layer.
    stats = _stats({LIB_A: {DRAM: 1.0}}, {DRAM: 8.0, LIB_A: 1.0, LIB_B: 1.0})
    result = attribute(stats, _classify)
    assert result["unattributed_s"] == pytest.approx(1.0)
    assert result["self_s"]["dram"] == pytest.approx(9.0)
    assert [f[:2] for f in check_attribution(result)] == [
        ("profile", "trace.unattributed_s")]


def test_compare_refuses_records_of_different_work(tmp_path, capsys):
    record = {"schema": 1, "workload": "mcf-chase", "seed": 1, "trace": 0,
              "read_targets": {"mcf-chase": 4000}, "cell_order": ["mcf/rl"],
              "reps": 8, "correct": True, "failed": 0,
              "metrics": {"reads_per_s": {"value": 100.0, "unit": "reads/s"}}}
    base = tmp_path / "base.json"
    base.write_text(json.dumps(record))
    assert compare.main([str(base), str(base)]) == 0
    capsys.readouterr()
    for change, reason in (({"read_targets": {"mcf-chase": 800}},
                            "read_targets"),
                           ({"reps": 9}, "reps"),
                           ({"correct": False, "failed": 1},
                            "output check failed")):
        other = tmp_path / "other.json"
        other.write_text(json.dumps({**record, **change}))
        assert compare.main([str(base), str(other)]) == 2
        assert reason in capsys.readouterr().err


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mcf-chase",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
