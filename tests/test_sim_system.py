"""End-to-end simulation harness tests (small but real runs)."""

import pytest

from repro.sim.config import SimConfig, TABLE1, build_memory
from repro.sim.system import (
    SimulationSystem,
    make_traces,
    prewarm_l2,
    run_benchmark,
)
from repro.util.events import EventQueue
from repro.workloads.profiles import profile_for

SMALL = SimConfig(target_dram_reads=400, num_cores=2)

# The organisations the paper evaluates (Fig 1, Sec 4-7).
PAPER_ORGANISATIONS = ("ddr3", "rldram3", "lpddr2", "rd", "rl", "dl",
                       "rl_adaptive", "rl_oracle", "rl_random",
                       "page_placement")


def small_config(memory="ddr3", cores=2, reads=400):
    return SimConfig(memory=memory, num_cores=cores,
                     target_dram_reads=reads)


class TestRunBasics:
    def test_run_completes_and_reports(self):
        result = run_benchmark("mcf", small_config())
        assert result.benchmark == "mcf"
        assert result.elapsed_cycles > 0
        assert result.instructions > 0
        assert result.dram_reads > 0
        assert len(result.per_core_ipc) == 2
        assert all(ipc > 0 for ipc in result.per_core_ipc)
        assert 0 < result.throughput <= 8.0

    def test_determinism(self):
        a = run_benchmark("mcf", small_config())
        b = run_benchmark("mcf", small_config())
        assert a.elapsed_cycles == b.elapsed_cycles
        assert a.per_core_ipc == b.per_core_ipc
        assert a.dram_reads == b.dram_reads

    def test_same_work_across_memories(self):
        """The paper's methodology: identical instruction streams."""
        a = run_benchmark("mcf", small_config("ddr3"))
        b = run_benchmark("mcf", small_config("rl"))
        assert a.instructions == b.instructions

    def test_latency_stats_populated(self):
        result = run_benchmark("leslie3d", small_config())
        assert result.avg_critical_latency > 0
        assert result.avg_fill_latency >= result.avg_critical_latency
        assert 0 < result.bus_utilization < 1
        assert result.memory_power_mw > 0

    def test_word0_profile_captured(self):
        result = run_benchmark("leslie3d", small_config())
        assert result.word0_fraction > 0.5
        assert len(result.critical_distribution) == 8
        assert sum(result.critical_distribution) == pytest.approx(1.0)


class TestPaperOrganisations:
    @pytest.mark.parametrize("memory", PAPER_ORGANISATIONS)
    def test_every_organisation_runs(self, memory):
        result = run_benchmark("mcf", small_config(memory, reads=200))
        assert result.memory == memory
        assert result.throughput > 0

    def test_cwf_kinds_report_fast_fraction(self):
        result = run_benchmark("leslie3d", small_config("rl"))
        assert result.fast_service_fraction > 0.5


class TestPrewarm:
    def test_prewarm_fills_l2(self):
        config = small_config()
        profile = profile_for("mcf")
        traces = make_traces(profile, config)
        system = SimulationSystem(config, traces, profile=profile)
        prewarm_l2(system, profile)
        capacity = (system.uncore.l2.config.num_sets
                    * system.uncore.l2.config.associativity)
        assert system.uncore.l2.occupancy() >= capacity * 0.6

    def test_prewarm_generates_writeback_traffic(self):
        warm = run_benchmark("stream", small_config(reads=400), warm=True)
        cold = run_benchmark("stream", small_config(reads=400), warm=False)
        assert warm.dram_writes > cold.dram_writes


class TestConfigHelpers:
    def test_with_memory(self):
        config = SMALL.with_memory("rl")
        assert config.memory == "rl"
        assert config.target_dram_reads == SMALL.target_dram_reads

    def test_without_prefetcher(self):
        config = SMALL.without_prefetcher()
        assert not config.uncore.prefetcher.enabled

    def test_table1_keys(self):
        assert TABLE1["Re-Order-Buffer"] == "64 entry"
        assert "DRAM Read Queue" in TABLE1

    def test_build_memory_page_placement_needs_inputs(self):
        events = EventQueue()
        with pytest.raises(ValueError):
            build_memory(SMALL.with_memory("page_placement"),
                         events)


class TestSpeedupMath:
    def test_speedup_over_self_is_one(self):
        result = run_benchmark("mcf", small_config())
        assert result.speedup_over(result) == pytest.approx(1.0)

    def test_memory_energy_consistent(self):
        result = run_benchmark("mcf", small_config())
        assert result.memory_energy_mj == pytest.approx(
            result.memory_power_mw * result.elapsed_cycles)
