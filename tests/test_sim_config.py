"""SimConfig memory factory and the adaptive tag seeder."""

from repro.core.cwf import CriticalWordMemory, CWFPolicy, HeteroPair
from repro.core.placement import PagePlacementMemory
from repro.memsys.homogeneous import HomogeneousMemory
from repro.sim.config import (
    SimConfig,
    adaptive_tag_seeder,
    build_memory,
)
from repro.util.events import EventQueue
from repro.workloads.profiles import profile_for
from repro.workloads.synthetic import preferred_word_for_global_line


class TestBuildMemory:
    def build(self, kind, profile=None):
        config = SimConfig(memory=kind, num_cores=2, target_dram_reads=100)
        return build_memory(config, EventQueue(), profile=profile)

    def test_homogeneous_kinds(self):
        for kind in ("ddr3", "rldram3", "lpddr2"):
            memory = self.build(kind)
            assert isinstance(memory, HomogeneousMemory)
            assert memory.config.kind.value == kind

    def test_cwf_kinds(self):
        pairs = {"rd": HeteroPair.RD, "rl": HeteroPair.RL,
                 "dl": HeteroPair.DL}
        for kind, pair in pairs.items():
            memory = self.build(kind)
            assert isinstance(memory, CriticalWordMemory)
            assert memory.config.pair is pair
            assert memory.config.policy is CWFPolicy.STATIC

    def test_policy_variants(self):
        assert self.build("rl_adaptive").config.policy \
            is CWFPolicy.ADAPTIVE
        assert self.build("rl_oracle").config.policy \
            is CWFPolicy.ORACLE
        assert self.build("rl_random").config.policy \
            is CWFPolicy.RANDOM

    def test_adaptive_gets_seeder_with_profile(self):
        memory = self.build("rl_adaptive",
                            profile=profile_for("mcf"))
        assert memory._tag_seeder is not None

    def test_page_placement_profiles_offline(self):
        memory = self.build("page_placement",
                            profile=profile_for("mcf"))
        assert isinstance(memory, PagePlacementMemory)
        assert memory._hot_slots  # profiling produced hot pages


class TestAdaptiveSeeder:
    def test_deterministic(self):
        profile = profile_for("mcf")
        s1 = adaptive_tag_seeder(profile)
        s2 = adaptive_tag_seeder(profile)
        assert [s1(line) for line in range(500)] == \
               [s2(line) for line in range(500)]

    def test_seed_probability_zero_means_all_word0(self):
        seeder = adaptive_tag_seeder(profile_for("mcf"), seed_probability=0)
        assert all(seeder(line) == 0 for line in range(200))

    def test_stream_profile_seeds_mostly_word0(self):
        seeder = adaptive_tag_seeder(profile_for("leslie3d"),
                                     seed_probability=1.0)
        words = [seeder(line) for line in range(2000)]
        assert words.count(0) / len(words) > 0.85

    def test_chase_profile_seeds_preferred_words(self):
        profile = profile_for("mcf")
        seeder = adaptive_tag_seeder(profile, seed_probability=1.0)
        matches = sum(
            seeder(line) in (0, preferred_word_for_global_line(profile, line))
            for line in range(2000))
        assert matches == 2000
