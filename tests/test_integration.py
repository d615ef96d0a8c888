"""Cross-configuration invariants: the paper's qualitative claims.

These use small (few-hundred-fetch) runs, so assertions are directional
rather than numeric; the benchmark harness regenerates the quantitative
tables.
"""

import pytest

from repro.sim.config import SimConfig
from repro.sim.system import run_benchmark


def cfg(kind, reads=600):
    return SimConfig(memory=kind, target_dram_reads=reads)


@pytest.fixture(scope="module")
def leslie():
    """leslie3d (streaming, word-0 heavy) across the key organisations."""
    kinds = ("ddr3", "rldram3", "lpddr2", "rl", "rl_oracle", "rl_random")
    return {k: run_benchmark("leslie3d", cfg(k)) for k in kinds}


@pytest.fixture(scope="module")
def mcf():
    """mcf (pointer chase, low word-0 bias)."""
    kinds = ("ddr3", "rl", "rl_adaptive")
    return {k: run_benchmark("mcf", cfg(k)) for k in kinds}


class TestHomogeneousOrdering:
    """Paper Fig 1: RLDRAM3 > DDR3 > LPDDR2."""

    def test_rldram_beats_ddr3(self, leslie):
        assert (leslie["rldram3"].throughput
                > leslie["ddr3"].throughput)

    def test_lpddr2_trails_ddr3(self, leslie):
        assert (leslie["lpddr2"].throughput
                < leslie["ddr3"].throughput)

    def test_latency_ordering(self, leslie):
        assert (leslie["rldram3"].avg_critical_latency
                < leslie["ddr3"].avg_critical_latency
                < leslie["lpddr2"].avg_critical_latency)


class TestCWFBehaviour:
    def test_rl_cuts_critical_latency_for_word0_app(self, leslie):
        assert (leslie["rl"].avg_critical_latency
                < 0.85 * leslie["ddr3"].avg_critical_latency)

    def test_rl_speeds_up_word0_app(self, leslie):
        assert (leslie["rl"].throughput
                > leslie["ddr3"].throughput)

    def test_fast_fraction_tracks_word0_bias(self, leslie, mcf):
        assert leslie["rl"].fast_service_fraction > 0.7
        assert mcf["rl"].fast_service_fraction < 0.55

    def test_oracle_at_least_as_good_as_static(self, leslie):
        # leslie3d is ~94% word-0 so oracle ~= static here (tolerance
        # covers short-run noise); the mcf-class gap shows in fig9.
        assert (leslie["rl_oracle"].throughput
                >= 0.95 * leslie["rl"].throughput)
        assert leslie["rl_oracle"].fast_service_fraction \
            == pytest.approx(1.0)

    def test_random_mapping_much_worse_than_static(self, leslie):
        """Sec 6.1.1 control: intelligent placement is what matters."""
        assert (leslie["rl_random"].throughput
                < leslie["rl"].throughput)
        assert leslie["rl_random"].fast_service_fraction < 0.3

    def test_adaptive_raises_coverage_for_chase_app(self, mcf):
        assert (mcf["rl_adaptive"].fast_service_fraction
                > mcf["rl"].fast_service_fraction + 0.1)

    def test_adaptive_helps_chase_app_throughput(self, mcf):
        assert (mcf["rl_adaptive"].throughput
                > mcf["rl"].throughput)

    def test_fill_trails_critical_in_rl(self, leslie):
        rl = leslie["rl"]
        # The bulk (LPDDR2) half lands well after the critical word.
        assert rl.avg_fill_latency > rl.avg_critical_latency + 50


class TestPowerShape:
    def test_rldram_homogeneous_is_power_hungry(self, leslie):
        assert (leslie["rldram3"].memory_power_mw
                > 2 * leslie["ddr3"].memory_power_mw)

    def test_lpddr2_homogeneous_saves_power(self, leslie):
        assert (leslie["lpddr2"].memory_power_mw
                < leslie["ddr3"].memory_power_mw)
