#!/usr/bin/env python
"""Energy trade-off study (paper Figures 2, 10 and 11).

Part 1 sweeps the Micron-style chip power model against bus utilisation
to show why heterogeneity pays: RLDRAM3's background power floor is an
order of magnitude above LPDDR2's, but the gap shrinks as activity
rises.

Part 2 runs a high-bandwidth streaming workload and a low-bandwidth one
through the baseline and the RL memory and rolls up system energy with
the paper's 25%-DRAM / 1/3-static-CPU model — reproducing the finding
that energy savings grow with bandwidth utilisation.
"""

from repro import SimConfig, run_benchmark
from repro.dram.device import DRAMKind
from repro.dram.power import default_power_model
from repro.energy.model import SystemEnergyModel


def part1_power_curves() -> None:
    print("=== chip power vs bus utilisation (Fig 2) ===")
    models = {
        "DDR3   ": (default_power_model(DRAMKind.DDR3), 0.5),
        "RLDRAM3": (default_power_model(DRAMKind.RLDRAM3), 0.0),
        "LPDDR2 ": (default_power_model(DRAMKind.LPDDR2), 0.5),
    }
    print(f"{'util':>5}  " + "  ".join(models))
    for util in (0.0, 0.1, 0.2, 0.4, 0.6, 0.8, 1.0):
        cells = []
        for name, (model, hit_rate) in models.items():
            power = model.power_at_utilization(util, row_hit_rate=hit_rate)
            cells.append(f"{power.total_mw:7.0f}")
        print(f"{util:5.0%}  " + "  ".join(cells) + "   mW/chip")
    print()


def part2_system_energy() -> None:
    print("=== system energy, RL vs DDR3 baseline (Fig 10/11) ===")
    config = SimConfig(target_dram_reads=2500)
    for bench in ("mg", "gobmk"):
        base = run_benchmark(bench, config.with_memory("ddr3"))
        rl = run_benchmark(bench, config.with_memory("rl"))
        report = SystemEnergyModel(base).report(rl)
        print(f"{bench:<8} baseline bus util {base.bus_utilization:5.1%}  "
              f"RL speedup {rl.speedup_over(base):5.3f}  "
              f"memory energy {report.normalized_memory_energy:5.3f}  "
              f"system energy {report.normalized_system_energy:5.3f}")
    print("\nHigh-bandwidth workloads (mg) save energy with RL; "
          "low-bandwidth ones (gobmk)")
    print("pay RLDRAM3's background power without amortising it "
          "(paper Sec 6.1.3).")


if __name__ == "__main__":
    part1_power_curves()
    part2_system_energy()
