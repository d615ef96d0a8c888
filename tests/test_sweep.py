"""Parameter-sweep utility."""

import pytest

from repro.sim.config import SimConfig
from repro.sweep import apply_parameter, run_point, sweep


class TestApplyParameter:
    def test_mshr(self):
        config = apply_parameter(SimConfig(), "mshr_capacity", 16)
        assert config.uncore.mshr_capacity == 16

    def test_prefetch_degree(self):
        config = apply_parameter(SimConfig(), "prefetch_degree", 8)
        assert config.uncore.prefetcher.degree == 8

    def test_rob(self):
        config = apply_parameter(SimConfig(), "rob_size", 128)
        assert config.core.rob_size == 128

    def test_unknown_raises(self):
        with pytest.raises(ValueError):
            apply_parameter(SimConfig(), "nonsense", 1)

    def test_base_config_not_mutated(self):
        base = SimConfig()
        apply_parameter(base, "mshr_capacity", 8)
        assert base.uncore.mshr_capacity != 8 or \
            base.uncore.mshr_capacity == 8  # frozen: no mutation possible
        assert base.uncore.mshr_capacity == SimConfig().uncore.mshr_capacity


class TestSweep:
    def test_mshr_sweep_shape(self):
        table = sweep("mcf", "mshr_capacity", [8, 256],
                      target_dram_reads=250)
        assert len(table.rows) == 2
        assert table.rows[0]["mshr_capacity"] == 8
        assert all(r["throughput"] > 0 for r in table.rows)

    def test_tiny_mshr_hurts(self):
        table = sweep("leslie3d", "mshr_capacity", [2, 256],
                      target_dram_reads=250)
        small, big = table.rows
        assert big["throughput"] >= small["throughput"]

    def test_tiny_rob_hurts(self):
        table = sweep("leslie3d", "rob_size", [8, 64],
                      target_dram_reads=250)
        small, big = table.rows
        assert big["throughput"] >= small["throughput"]

    def test_read_queue_sweep_runs(self):
        table = sweep("mcf", "read_queue_size", [8, 48],
                      target_dram_reads=250)
        assert len(table.rows) == 2

    def test_controller_sweep_rejects_non_baseline(self):
        with pytest.raises(ValueError):
            run_point("mcf",
                      SimConfig(memory="rl", target_dram_reads=100),
                      "read_queue_size", 8)
