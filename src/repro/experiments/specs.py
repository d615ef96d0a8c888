"""Declarative run specifications for the experiment pipeline.

A :class:`RunSpec` names one simulation — ``(benchmark, memory
backend, variant, config overrides, named runner)`` — without executing
it. Because specs are frozen, hashable, and picklable, the scheduler can

* dedupe runs shared between figures (every figure needs the DDR3
  baseline; it is simulated once per suite invocation),
* key the on-disk result cache, and
* ship work to :class:`~repro.experiments.executor.ParallelExecutor`
  worker processes.

Non-default setups are expressed declaratively rather than with
closures: either as ``overrides`` (``(("prefetcher_enabled", False),)``
applied to the resolved :class:`~repro.sim.config.SimConfig`) or as a
*named runner* — a module-level function registered with
:func:`register_runner` that a worker process can look up by name.

Cache keys (``v8``) embed a digest of the fully resolved ``SimConfig``
so any config-knob change — present or future — invalidates stale
entries instead of silently recalling them. ``v7`` keyed the memory
axis by backend-registry names; ``v8`` did the same for the workload
axis: ``benchmark`` is a canonical workload-registry name
(``mcf``/``synthetic:mcf`` coalesce, and ``trace:<path>`` names
recorded replays), and the key carries the workload's *content token* —
a profile-parameter digest for synthetic sources, the file sha256 for
trace files — so editing a trace file or recalibrating a profile
invalidates its cached results.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.experiments.resilience import active_fault_plan
from repro.memsys.registry import resolve_name
from repro.sim.config import SimConfig
from repro.sim.system import SimResult, run_benchmark
from repro.workloads.registry import resolve_workload, workload_cache_token

CACHE_KEY_VERSION = "v8"

# ---------------------------------------------------------------------------
# Declarative SimConfig overrides (shared with repro.sweep)
# ---------------------------------------------------------------------------


def _with_uncore(config: SimConfig, **updates) -> SimConfig:
    return dataclasses.replace(
        config, uncore=dataclasses.replace(config.uncore, **updates))


def _with_prefetcher(config: SimConfig, **updates) -> SimConfig:
    prefetcher = dataclasses.replace(config.uncore.prefetcher, **updates)
    return _with_uncore(config, prefetcher=prefetcher)


_APPLIERS: Dict[str, Callable[[SimConfig, object], SimConfig]] = {
    "mshr_capacity": lambda c, v: _with_uncore(c, mshr_capacity=int(v)),
    "prefetch_degree": lambda c, v: _with_prefetcher(c, degree=int(v)),
    "prefetch_distance": lambda c, v: _with_prefetcher(c, distance=int(v)),
    "prefetcher_enabled": lambda c, v: _with_prefetcher(c, enabled=bool(v)),
    "rob_size": lambda c, v: dataclasses.replace(
        c, core=dataclasses.replace(c.core, rob_size=int(v))),
    "target_dram_reads": lambda c, v: dataclasses.replace(
        c, target_dram_reads=int(v)),
}

# Controller-level parameters need a custom memory build; they are
# applied by the "sweep_controller_queue" named runner, not here.
_CONTROLLER_PARAMS = {"read_queue_size", "write_queue_size"}


def apply_parameter(config: SimConfig, parameter: str,
                    value: object) -> SimConfig:
    """Return a config with ``parameter`` set to ``value``."""
    if parameter in _CONTROLLER_PARAMS:
        return config  # applied at memory-build time by the named runner
    try:
        return _APPLIERS[parameter](config, value)
    except KeyError:
        raise ValueError(
            f"unknown sweep parameter {parameter!r}; "
            f"known: {sorted(_APPLIERS) + sorted(_CONTROLLER_PARAMS)}"
        ) from None


# ---------------------------------------------------------------------------
# Named runner registry
# ---------------------------------------------------------------------------

RUNNER_REGISTRY: Dict[str, Callable[["RunSpec", object], SimResult]] = {}


def register_runner(name: str):
    """Register a module-level runner so workers can resolve it by name."""

    def decorator(fn: Callable[["RunSpec", object], SimResult]):
        RUNNER_REGISTRY[name] = fn
        return fn

    return decorator


def resolve_runner(name: str) -> Callable[["RunSpec", object], SimResult]:
    if name not in RUNNER_REGISTRY:
        # Runners live in the figure modules (and repro.sweep); importing
        # the packages populates the registry in a fresh worker process.
        import repro.experiments  # noqa: F401
        import repro.sweep  # noqa: F401
    try:
        return RUNNER_REGISTRY[name]
    except KeyError:
        raise ValueError(f"unknown named runner {name!r}; "
                         f"known: {sorted(RUNNER_REGISTRY)}") from None


# ---------------------------------------------------------------------------
# RunSpec
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RunSpec:
    """One simulation, described declaratively.

    ``benchmark`` is a workload-registry name and ``memory`` a memory-
    backend registry name; both canonicalise at construction (so
    ``RunSpec("synthetic:mcf", "rl") == RunSpec("mcf", "RL")`` and both
    hash alike as dict keys), and an unknown name on either axis fails
    here with a did-you-mean, never in a worker later. ``overrides`` are
    ``(parameter, value)`` pairs applied to the resolved :class:`SimConfig` through
    :func:`apply_parameter`; ``runner``/``params`` select a registered
    named runner for setups a config transform cannot express (offline
    profiling passes, live power-model reports). ``base`` carries a
    fully custom :class:`SimConfig` (parameter sweeps) instead of the
    experiment config's default one.
    """

    benchmark: str
    memory: str
    variant: str = ""
    overrides: Tuple[Tuple[str, object], ...] = ()
    runner: str = ""
    params: Tuple[Tuple[str, object], ...] = ()
    base: Optional[SimConfig] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "benchmark",
                           resolve_workload(self.benchmark))
        object.__setattr__(self, "memory", resolve_name(self.memory))

    @property
    def label(self) -> str:
        parts = [self.benchmark, self.memory]
        if self.variant:
            parts.append(self.variant)
        return "/".join(parts)

    def param(self, name: str, default: object = None) -> object:
        return dict(self.params).get(name, default)

    def resolved_sim_config(self, config) -> SimConfig:
        """The SimConfig this spec runs with, overrides applied.

        ``config`` is an :class:`~repro.experiments.runner.ExperimentConfig`
        (duck-typed here to keep the import graph acyclic).
        """
        if self.base is not None:
            sim_config = dataclasses.replace(self.base, memory=self.memory)
        else:
            sim_config = config.sim_config(self.memory)
        for parameter, value in self.overrides:
            sim_config = apply_parameter(sim_config, parameter, value)
        return sim_config


def config_digest(sim_config: SimConfig) -> str:
    """Stable short digest of every knob in a :class:`SimConfig`."""
    payload = json.dumps(dataclasses.asdict(sim_config), sort_keys=True,
                         default=str)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def spec_cache_key(spec: RunSpec, config) -> str:
    """Disk-cache key: spec identity + workload content token + full
    resolved-config digest.

    The workload token pins the workload's *contents* (profile
    parameters or trace-file bytes), so a recalibrated profile or an
    edited trace file invalidates its cached results even though the
    spec's name part is unchanged.
    """
    params = json.dumps(spec.params, sort_keys=True, default=str)
    return "|".join([
        CACHE_KEY_VERSION, spec.benchmark, spec.memory, spec.variant,
        spec.runner, params, str(config.target_dram_reads), str(config.seed),
        workload_cache_token(spec.benchmark),
        config_digest(spec.resolved_sim_config(config)),
    ])


def execute_spec(spec: RunSpec, config, attempt: int = 1) -> SimResult:
    """Actually simulate ``spec`` (no caching — the executor handles it).

    ``attempt`` (1-based) is threaded through by the executor so the
    deterministic fault-injection plan (``REPRO_FAULT_PLAN``, see
    :mod:`repro.experiments.resilience`) can target specific retries of
    specific specs — identically in the serial path and in pool
    workers. ``attempt=0`` disables injection: the executor's
    degrade-to-serial last resort uses it so an injected fault cannot
    also take down the parent process.
    """
    plan = active_fault_plan() if attempt >= 1 else None
    if plan is not None:
        plan.before_run(spec.label, attempt)
    if spec.runner:
        result = resolve_runner(spec.runner)(spec, config)
    else:
        sim_config = spec.resolved_sim_config(config)
        directory = (getattr(config, "checkpoint_dir", None)
                     or os.environ.get("REPRO_CHECKPOINT_DIR", "").strip()
                     or None)
        if directory:
            # Crash-safe path: snapshot periodically, resume from the
            # last snapshot on a retry. Named runners are excluded —
            # they own their simulation loop — and the result stays
            # byte-identical to a plain run (see repro.sim.checkpoint).
            from repro.sim.checkpoint import run_benchmark_checkpointed
            every = int(getattr(config, "checkpoint_every", 0)) or None
            kill_after = (plan.kill_after_saves(spec.label, attempt)
                          if plan is not None else None)
            result = run_benchmark_checkpointed(
                spec.benchmark, sim_config, spec_cache_key(spec, config),
                directory, every_reads=every, kill_after=kill_after)
        else:
            result = run_benchmark(spec.benchmark, sim_config)
    if plan is not None:
        result = plan.after_run(spec.label, attempt, result)
    return result
