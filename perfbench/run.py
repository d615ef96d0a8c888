"""Run one benchmark workload and print its metrics and output check.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each repetition of the workload runs in a fresh interpreter
(``perfbench/rep.py``) with every ``REPRO_*`` variable removed, in an
empty directory under ``.perfbench_work/``, so no result cache is read or
written. ``--trace 0`` runs a fixed number of repetitions, sized from
``--seconds`` (``Workload.reps``). It reports the slowest repetition's
``reads_per_s`` and the median set-up time and peak memory. ``--trace 1``
runs it once untraced and once under ``cProfile`` and reports the
per-layer metrics; the spans go to ``.perfbench_out/`` as Chrome-trace
JSON. Every repetition's outputs are checked (see
``perfbench/checks.py``), and so is the traced run's layer attribution.
The full record, with provenance, is written to ``.perfbench_out/`` for
``perfbench/compare.py``. The last line of standard output is a JSON
summary.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.checks import evaluate, load_expected  # noqa: E402
from perfbench.hooks import MODEL_UNITS, PHASES, combine_counts  # noqa: E402
from perfbench.layers import (LAYERS, WORK_COUNTS,  # noqa: E402
                              check_attribution)
from perfbench.workloads import FIG6_PAPER, WORKLOADS  # noqa: E402

SCHEMA = 1
WORK_DIR = ROOT / ".perfbench_work"
OUT_DIR = ROOT / ".perfbench_out"
# Whole-run budget: the run must end well within 180 s.
RUN_BUDGET_S = 165.0


def source_digest() -> str:
    """sha256 over the program's source files (the checkout may not be a
    git repository, so this pins the code a result was measured on)."""
    digest = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def provenance(workload, seed: int, reps: int) -> dict:
    return {
        "schema": SCHEMA,
        "workload": workload.name,
        "seed": seed,
        "read_targets": {w.name: w.reads for w in WORKLOADS.values()},
        "cell_order": workload.labels(),
        "reps": reps,
        "commit": git_commit(),
        "src_digest": source_digest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def failed_rep(workload, error: str) -> dict:
    return {"results": {}, "errors": dict.fromkeys(workload.labels(), error)}


def run_rep(workload, seed: int, timeout: float, profile: bool = False
            ) -> dict:
    """One repetition in a fresh interpreter; never raises."""
    if timeout < 1:
        return failed_rep(workload, f"run budget of {RUN_BUDGET_S:.0f} s "
                          "used up before this repetition")
    WORK_DIR.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(dir=WORK_DIR)
    out = os.path.join(scratch, "rep.json")
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    env["TMPDIR"] = scratch
    cmd = [sys.executable, "-m", "perfbench.rep", "--workload", workload.name,
           "--seed", str(seed), "--out", out] + (["--profile"] if profile
                                                 else [])
    error = None
    try:
        proc = subprocess.run(cmd, cwd=scratch, env=env, timeout=timeout,
                              capture_output=True, text=True)
        if proc.returncode != 0:
            error = (f"exit {proc.returncode}: "
                     + (proc.stderr.strip().splitlines() or ["?"])[-1])
        else:
            with open(out) as handle:
                rep = json.load(handle)
    except subprocess.TimeoutExpired:
        error = f"timed out after {timeout:.0f} s (deadlock?)"
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if error is not None:
        return failed_rep(workload, error)
    return rep


def median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(reps) -> dict:
    """``reads_per_s`` is the run's slowest repetition: on a shared host
    the contended speed recurs in every run, while the faster bursts come
    and go, so the slowest of a fixed number of repetitions is the
    steadiest figure (see README.md, "Noise"). Set-up time and memory are
    medians over the same repetitions."""
    ok = [r for r in reps if "wall_s" in r]
    return {
        "reads_per_s": (min([r["reads"] / r["wall_s"] for r in ok],
                            default=0.0), "reads/s"),
        "setup_s": (median([r["setup_s"] for r in ok]), "s"),
        "peak_rss_mb": (median([r["rss_kb"] / 1024 for r in ok]), "MiB"),
    }


def per_layer(workload, plain: dict, traced: dict) -> dict:
    """The traced run's layer metrics beside the untraced run's phases,
    host work counts and model counts."""
    metrics = {}
    prof = traced.get("profile") or {
        "total_s": 0.0, "self_s": dict.fromkeys(LAYERS, 0.0),
        "calls_in": dict.fromkeys(LAYERS, 0),
        "unattributed_s": 0.0, "work": dict.fromkeys(WORK_COUNTS, 0)}
    total = prof["total_s"]
    for layer in LAYERS:
        self_s = prof["self_s"][layer]
        metrics[f"layer.{layer}.self_s"] = (self_s, "s")
        metrics[f"layer.{layer}.share"] = (
            self_s / total if total else 0.0, "ratio")
        metrics[f"layer.{layer}.calls_in"] = (prof["calls_in"][layer], "count")
    metrics["trace.profile_total_s"] = (total, "s")
    metrics["trace.unattributed_s"] = (prof["unattributed_s"], "s")
    metrics["trace.overhead"] = (
        traced["wall_s"] / plain["wall_s"]
        if "wall_s" in plain and "wall_s" in traced else 0.0, "ratio")
    for name in PHASES:
        metrics[f"phase.{name}_s"] = (plain.get("phases", {}).get(name, 0.0),
                                      "s")
    counts = combine_counts([plain["counts"][label]
                             for label in workload.labels()
                             if label in plain.get("counts", {})])
    work = prof["work"]
    for name in WORK_COUNTS:
        metrics[name] = (work[name], "count")
    reads = counts["sim.dram_reads"]
    metrics["dram.ticks_per_read"] = (
        work["dram.ticks"] / reads if reads else 0.0, "ticks/read")
    steps = work["events.steps"]
    metrics["host.ns_per_event"] = (
        plain.get("phases", {}).get("simulate", 0.0) * 1e9 / steps
        if steps else 0.0, "ns")
    for name, unit in MODEL_UNITS.items():
        metrics[name] = (counts[name], unit)
    cache = plain.get("cache", {})
    for name in ("hits", "misses", "writes"):
        metrics[f"cache.{name}"] = (cache.get(name, 0), "count")
    metrics["store.bytes"] = (plain.get("store_bytes", 0), "bytes")
    mean = plain.get("rows", {}).get("MEAN", {})
    for kind, paper in FIG6_PAPER.items():
        value = mean.get(kind, 0.0)
        metrics[f"model.fig6.{kind}_mean"] = (value, "ratio")
        metrics[f"model.fig6.{kind}_abs_err"] = (
            abs(value - paper) if kind in mean else 0.0, "ratio")
    return metrics


def write_chrome_trace(path: Path, reps) -> None:
    """Spans of every repetition as Chrome trace-event JSON (pid = rep)."""
    events = []
    for pid, rep in enumerate(reps):
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "args": {"name": "traced" if "profile" in rep
                                else "untraced"}})
        for span in rep.get("spans", []):
            events.append({
                "name": span["name"], "cat": span["cat"], "ph": "X",
                "pid": pid, "tid": 0, "ts": span["start"] * 1e6,
                "dur": (span["end"] - span["start"]) * 1e6,
                "args": {"id": span["id"], "parent": span["parent"]}})
    with open(path, "w") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no simulator source at {ROOT / 'src' / 'repro'}; run "
              "from a checkout of the repository", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    deadline = time.perf_counter() + RUN_BUDGET_S
    expected = load_expected(args.seed)

    profiles = (False, True) if args.trace else (False,) * workload.reps(
        args.seconds)
    reps = [run_rep(workload, args.seed, deadline - time.perf_counter(),
                    profile) for profile in profiles]

    failures, attempted, failed = evaluate(workload, reps, expected)
    if args.trace and "profile" in reps[1]:
        failures += check_attribution(reps[1]["profile"])
    failed_frac = failed / attempted

    metrics = (per_layer(workload, reps[0], reps[1]) if args.trace
               else end_to_end(reps))

    record = provenance(workload, args.seed, len(reps))
    print(f"workload {workload.name}: {workload.why}")
    for key in ("seed", "commit", "src_digest", "python", "nproc"):
        print(f"  {key}: {record[key]}")
    print(f"  read target: {workload.reads} per cell; cells in order: "
          + ", ".join(record["cell_order"]))
    print(f"  repetitions: {len(reps)} "
          + ("(untraced, traced)" if args.trace else "(fresh interpreters)"))
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(f"  failed_frac = {failed_frac:.6g} ratio "
          f"({failed} of {attempted} cells failed)")
    if workload.figure:
        mean = reps[0].get("rows", {}).get("MEAN", {})
        for kind, paper in FIG6_PAPER.items():
            if kind in mean:
                print(f"  fig6 {kind} mean {mean[kind]:.3f} vs paper "
                      f"{paper} (diff {mean[kind] - paper:+.3f})")
    if args.trace:
        metrics["failed_frac"] = (failed_frac, "ratio")
    for label, field, detail in failures:
        print(f"  CHECK FAILED {label} {field}: {detail}")
    correct = not failures
    print(f"  output check: {'PASS' if correct else 'FAIL'}"
          + ("" if expected else " (invariants only: no expected outputs "
             f"at seed {args.seed})"))

    try:
        WORK_DIR.rmdir()
    except OSError:   # another run is using it
        pass
    OUT_DIR.mkdir(exist_ok=True)
    stem = (f"{workload.name}-seed{args.seed}-trace{args.trace}-"
            f"{record['src_digest']}")
    summary_metrics = {k: {"value": v, "unit": u}
                       for k, (v, u) in metrics.items()}
    record.update(
        trace=args.trace,
        metrics=summary_metrics,
        correct=correct, attempted=attempted, failed=failed,
        failures=[list(f) for f in failures],
        reps=[{k: r.get(k) for k in ("wall_s", "setup_s", "reads", "rss_kb",
                                     "phases")} for r in reps])
    with open(OUT_DIR / f"{stem}.json", "w") as handle:
        json.dump(record, handle, indent=1)
    if args.trace:
        write_chrome_trace(OUT_DIR / f"{stem}.trace.json", reps)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": summary_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
