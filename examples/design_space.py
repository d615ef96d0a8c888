#!/usr/bin/env python
"""Design-space walk across every memory organisation in the paper.

For one benchmark, runs the whole zoo — homogeneous DDR3 / RLDRAM3 /
LPDDR2, the three CWF pairings (RD / RL / DL), adaptive and oracle
placement, the random-mapping control, and the page-placement
alternative — and prints a performance / latency / power summary table.

Usage: python examples/design_space.py [benchmark] (default: mcf)
"""

import sys

from repro import SimConfig, run_benchmark
from repro.workloads.profiles import PROFILES

ORGANISATIONS = [
    "ddr3",
    "rldram3",
    "lpddr2",
    "rd",
    "rl",
    "dl",
    "rl_adaptive",
    "rl_oracle",
    "rl_random",
    "page_placement",
]


def main() -> None:
    benchmark = sys.argv[1] if len(sys.argv) > 1 else "mcf"
    if benchmark not in PROFILES:
        raise SystemExit(f"unknown benchmark {benchmark!r}; "
                         f"choose from {sorted(PROFILES)}")
    config = SimConfig(target_dram_reads=2500)

    print(f"benchmark: {benchmark}  "
          f"(8 cores, 4 channels, {config.target_dram_reads} fetches)")
    header = (f"{'memory':<16} {'speedup':>8} {'crit lat':>9} "
              f"{'fill lat':>9} {'fast%':>6} {'bus%':>6} {'power W':>8}")
    print(header)
    print("-" * len(header))

    baseline = None
    for memory in ORGANISATIONS:
        result = run_benchmark(benchmark, config.with_memory(memory))
        if baseline is None:
            baseline = result
        print(f"{memory:<16} "
              f"{result.speedup_over(baseline):>8.3f} "
              f"{result.avg_critical_latency:>9.0f} "
              f"{result.avg_fill_latency:>9.0f} "
              f"{result.fast_service_fraction:>6.1%} "
              f"{result.bus_utilization:>6.1%} "
              f"{result.memory_power_mw / 1000:>8.2f}")

    print("\nspeedup is throughput normalised to the DDR3 baseline; "
          "crit/fill latency in CPU cycles;")
    print("fast% is the share of critical words served by the "
          "low-latency module.")


if __name__ == "__main__":
    main()
