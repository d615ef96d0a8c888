"""Backend registry: resolution, conformance, builds, cache-key version."""

import subprocess
import sys

import pytest

from repro.experiments.runner import ExperimentConfig
from repro.experiments.specs import RunSpec, spec_cache_key
from repro.memsys.base import (
    MemorySystem,
    MemorySystemProtocolError,
    assert_conformant,
    conformance_problems,
)
from repro.memsys.registry import (
    BackendError,
    DuplicateBackendError,
    UnknownBackendError,
    backend_names,
    create_memory,
    get_backend,
    list_backends,
    register_backend,
    resolve_name,
    unregister_backend,
)
from repro.sim.config import SimConfig
from repro.sim.system import run_benchmark
from repro.util.events import EventQueue
from repro.workloads.profiles import profile_for

ALL_BACKENDS = backend_names()
TINY = SimConfig(target_dram_reads=60)


class TestResolution:
    def test_canonical_names_resolve_to_themselves(self):
        for name in ALL_BACKENDS:
            assert resolve_name(name) == name

    @pytest.mark.parametrize("alias,canonical", [
        ("baseline", "ddr3"),
        ("rldram", "rldram3"),
        ("lpddr", "lpddr2"),
        ("pp", "page_placement"),
        ("hmc", "hmc_cwf"),
    ])
    def test_aliases(self, alias, canonical):
        assert resolve_name(alias) == canonical
        assert get_backend(alias).name == canonical

    def test_normalisation(self):
        assert resolve_name("  DDR3 ") == "ddr3"
        assert resolve_name("hmc-cwf") == "hmc_cwf"

    def test_unknown_name_suggests(self):
        with pytest.raises(UnknownBackendError) as excinfo:
            resolve_name("hmc_cfw")
        assert "hmc_cwf" in str(excinfo.value)
        assert "list-backends" in str(excinfo.value)

    def test_non_string_rejected(self):
        with pytest.raises(BackendError):
            resolve_name(42)

    def test_runspec_and_simconfig_canonicalise(self):
        assert RunSpec("mcf", "RL") == RunSpec("mcf", "rl")
        assert SimConfig(memory="baseline").memory == "ddr3"
        with pytest.raises(UnknownBackendError):
            SimConfig(memory="ddr4")


class TestRegistration:
    def test_duplicate_name_rejected(self):
        with pytest.raises(DuplicateBackendError):
            register_backend("ddr3")(lambda *a, **k: None)

    def test_alias_clash_rejected(self):
        with pytest.raises(DuplicateBackendError):
            register_backend("fresh_name", aliases=("baseline",))(
                lambda *a, **k: None)
        assert "fresh_name" not in backend_names()

    def test_register_unregister_roundtrip(self):
        @register_backend("tmp_backend", aliases=("tmpb",),
                          description="test-only")
        def _build(config, events, traces=None, profile=None):
            from repro.memsys.homogeneous import HomogeneousMemory
            return HomogeneousMemory(events)

        try:
            assert resolve_name("tmpb") == "tmp_backend"
            memory = create_memory("tmp_backend", TINY, EventQueue())
            assert memory.backend_name == "tmp_backend"
        finally:
            unregister_backend("tmp_backend")
        with pytest.raises(UnknownBackendError):
            resolve_name("tmp_backend")
        with pytest.raises(UnknownBackendError):
            resolve_name("tmpb")

    def test_descriptors_expose_capabilities(self):
        for descriptor in list_backends():
            caps = descriptor.capabilities()
            assert set(caps) == {"needs_profile", "is_heterogeneous",
                                 "dram_families"}
            assert descriptor.description
            assert descriptor.dram_families


class TestConformance:
    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_every_backend_builds_conformant(self, name):
        memory = create_memory(name, TINY, EventQueue(),
                               profile=profile_for("mcf"))
        assert isinstance(memory, MemorySystem)
        assert conformance_problems(memory) == []
        described = memory.describe()
        assert described["backend"] == name
        assert described["controllers"]

    def test_nonconformant_rejected(self):
        class Bogus:
            pass

        problems = conformance_problems(Bogus())
        assert problems
        with pytest.raises(MemorySystemProtocolError):
            assert_conformant(Bogus())


class TestTinyRuns:
    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_every_backend_completes_a_run(self, name):
        result = run_benchmark("mcf", TINY.with_memory(name))
        assert result.memory == name
        assert result.elapsed_cycles > 0
        assert result.dram_reads >= TINY.target_dram_reads
        assert result.avg_critical_latency > 0.0


class TestCacheKeyVersion:
    def test_v8_differs_from_older_formats(self):
        config = ExperimentConfig(target_dram_reads=100)
        key = spec_cache_key(RunSpec("mcf", "rl"), config)
        assert key.startswith("v8|")
        assert not key.startswith(("v6|", "v7|"))

    def test_stable_across_processes(self):
        config = ExperimentConfig(target_dram_reads=100)
        local = spec_cache_key(RunSpec("mcf", "hmc_cwf"), config)
        script = (
            "from repro.experiments.runner import ExperimentConfig\n"
            "from repro.experiments.specs import RunSpec, spec_cache_key\n"
            "print(spec_cache_key(RunSpec('mcf', 'hmc_cwf'),"
            " ExperimentConfig(target_dram_reads=100)))\n")
        remote = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            check=True).stdout.strip()
        assert remote == local

    def test_alias_and_canonical_specs_share_keys(self):
        config = ExperimentConfig(target_dram_reads=100)
        assert (spec_cache_key(RunSpec("mcf", "RLDRAM"), config)
                == spec_cache_key(RunSpec("mcf", "rldram3"), config))
