"""The benchmark's workloads: which cells run, in which order, at what size.

A cell is one (benchmark, memory) simulation. Cells of a workload run
back to back in one fresh interpreter, in the order listed here: under
that order the simulator's process-global prewarm memo computes the warm
L2 image exactly once per benchmark profile, which keeps ``setup_s``
comparable across commits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

# Read target of the three single-benchmark workloads (the ``repro bench``
# default); fig6-cold runs at the experiments default instead.
SIM_READS = 4000
FIG6_READS = 2000
# A --trace 0 run measures at least this many full repetitions.
MIN_REPS = 2
FIG6_BENCHMARKS: Tuple[str, ...] = (
    "mcf", "leslie3d", "stream", "gobmk", "libquantum", "sjeng")
FIG6_MEMORIES: Tuple[str, ...] = ("ddr3", "rd", "rl", "dl")
# Paper Fig 6 averages (throughput normalised to DDR3).
FIG6_PAPER = {"rd": 1.21, "rl": 1.129, "dl": 0.91}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    cells: Tuple[Tuple[str, str], ...]   # (benchmark, memory), run order
    reads: int
    # Wall seconds of one repetition, fresh interpreter included, measured
    # on the reference host (2-CPU Linux VM, Python 3.11.7). It only sizes
    # the repetition count; it is never compared against.
    rep_s: float
    figure: bool = False                 # run through the fig6 executor path

    def labels(self) -> List[str]:
        return [f"{bench}/{memory}" for bench, memory in self.cells]

    def reps(self, seconds: float) -> int:
        """Repetitions of a ``--trace 0`` run: as many as fill ``seconds``
        on the reference host, and at least ``MIN_REPS``. The count
        depends on ``seconds`` only, so every commit is measured over the
        same number of repetitions."""
        return max(MIN_REPS, round(seconds / self.rep_s))


def _cells(benchmarks, memories) -> Tuple[Tuple[str, str], ...]:
    return tuple((b, m) for b in benchmarks for m in memories)


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        "stream-rw",
        "write-heavy streaming with prefetch: DRAM controller and write "
        "drains dominate host time",
        _cells(("stream",), ("ddr3", "rl", "rl_adaptive")), SIM_READS, 4.5),
    Workload(
        "mcf-chase",
        "pointer-chase reads on open-page, close-page CWF and shared-bus "
        "HMC controllers: the CWF fast/slow split matters most",
        _cells(("mcf",), ("ddr3", "rl", "hmc_cwf")), SIM_READS, 2.5),
    Workload(
        "gobmk-idle",
        "~10x more instructions per DRAM read: core, uncore and workload "
        "generation carry their largest share, DRAM sits idle",
        _cells(("gobmk",), ("ddr3", "rl")), SIM_READS, 2.0),
    Workload(
        "fig6-cold",
        "paper Fig 6 on 6 benchmarks x 4 memories via the serial executor "
        "into an empty result store, then resolved warm from it",
        _cells(FIG6_BENCHMARKS, FIG6_MEMORIES), FIG6_READS, 20.0,
        figure=True),
)}
