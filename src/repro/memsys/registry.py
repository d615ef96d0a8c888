"""String-keyed registry of memory-organisation backends.

The paper's central claim is that critical-word-first is
*organisation-agnostic*: any memory that can deliver the requested word
early fits the architecture (Sec 10 sketches HMC-era embodiments). This
module makes organisations first-class: each one registers a
:class:`BackendDescriptor` — a canonical name, aliases, a factory, and
capability flags — via the :func:`register_backend` decorator, and the
simulator builds memories by *name* instead of through a closed enum.

Adding a new organisation is one self-contained module::

    from repro.memsys.registry import register_backend

    @register_backend("my_dram", aliases=("mine",),
                      description="my custom organisation",
                      dram_families=("ddr3",))
    def _build_my_dram(config, events, traces=None, profile=None):
        return MyMemory(events, cpu_freq_ghz=config.cpu_freq_ghz)

Factories receive the full :class:`~repro.sim.config.SimConfig`, the
run's :class:`~repro.util.events.EventQueue`, and (optionally) the
per-core traces and benchmark profile, and must return a
:class:`~repro.memsys.base.MemorySystem`; the returned instance is
protocol-checked before the simulator accepts it.

Built-in backends live in :mod:`repro.memsys.backends` and are loaded
lazily on first lookup, so importing this module is cheap and free of
circular imports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

from repro.memsys.base import MemorySystem, assert_conformant
from repro.util.suggest import close_matches, did_you_mean


class BackendError(ValueError):
    """Base class for registry failures."""


class UnknownBackendError(BackendError):
    """Lookup of a name no backend registered (carries a did-you-mean)."""

    def __init__(self, name: str, suggestions: Sequence[str] = ()) -> None:
        self.name = name
        self.suggestions = list(suggestions)
        message = (f"unknown memory backend {name!r}"
                   + did_you_mean(self.suggestions)
                   + " (run 'repro list-backends' for the full list)")
        super().__init__(message)


class DuplicateBackendError(BackendError):
    """A name or alias was registered twice."""


@dataclass(frozen=True)
class BackendDescriptor:
    """Everything the harness needs to know about one organisation.

    ``factory(config, events, traces=None, profile=None)`` builds the
    live :class:`MemorySystem`. Capability flags let schedulers and the
    CLI reason about a backend without instantiating it:

    * ``needs_profile`` — the factory wants the benchmark profile (for
      offline profiling passes or warm adaptive tags); the harness
      passes it when available, and such backends cannot be built from
      a bare event queue alone.
    * ``is_heterogeneous`` — more than one DRAM family serves demand
      fetches (CWF pairs, page placement, mixed HMC cubes).
    * ``dram_families`` — power-model families the organisation draws
      from, fast part first.
    """

    name: str
    factory: Callable[..., MemorySystem]
    aliases: Tuple[str, ...] = ()
    description: str = ""
    needs_profile: bool = False
    is_heterogeneous: bool = False
    dram_families: Tuple[str, ...] = ()
    paper_section: str = ""

    def capabilities(self) -> Dict[str, object]:
        """Capability flags as a plain dict (CLI / manifest friendly)."""
        return {
            "needs_profile": self.needs_profile,
            "is_heterogeneous": self.is_heterogeneous,
            "dram_families": list(self.dram_families),
        }


_BACKENDS: Dict[str, BackendDescriptor] = {}
_ALIASES: Dict[str, str] = {}
_builtins_loaded = False


def register_backend(name: str, *, aliases: Sequence[str] = (),
                     description: str = "", needs_profile: bool = False,
                     is_heterogeneous: bool = False,
                     dram_families: Sequence[str] = (),
                     paper_section: str = ""):
    """Decorator registering ``factory`` under ``name`` (plus aliases)."""

    def decorator(factory: Callable[..., MemorySystem]):
        descriptor = BackendDescriptor(
            name=name, factory=factory, aliases=tuple(aliases),
            description=description, needs_profile=needs_profile,
            is_heterogeneous=is_heterogeneous,
            dram_families=tuple(dram_families),
            paper_section=paper_section)
        _register(descriptor)
        return factory

    return decorator


def _register(descriptor: BackendDescriptor) -> None:
    for key in (descriptor.name,) + descriptor.aliases:
        owner = _ALIASES.get(key)
        if owner is not None and owner != descriptor.name:
            raise DuplicateBackendError(
                f"backend name {key!r} already registered by {owner!r}")
    if descriptor.name in _BACKENDS:
        raise DuplicateBackendError(
            f"backend {descriptor.name!r} already registered")
    _BACKENDS[descriptor.name] = descriptor
    _ALIASES[descriptor.name] = descriptor.name
    for alias in descriptor.aliases:
        _ALIASES[alias] = descriptor.name


def unregister_backend(name: str) -> None:
    """Remove a backend (test hygiene for plugin round-trips)."""
    descriptor = _BACKENDS.pop(name, None)
    if descriptor is None:
        return
    for key in (descriptor.name,) + descriptor.aliases:
        if _ALIASES.get(key) == name:
            del _ALIASES[key]


def ensure_builtin_backends() -> None:
    """Load the built-in backend module exactly once (idempotent)."""
    global _builtins_loaded
    if not _builtins_loaded:
        _builtins_loaded = True
        import repro.memsys.backends  # noqa: F401  (registers on import)


def resolve_name(name) -> str:
    """Canonical backend name for ``name`` (canonical name or alias).

    Raises :class:`UnknownBackendError` — with close-match suggestions —
    when nothing is registered under the name.
    """
    ensure_builtin_backends()
    if not isinstance(name, str):
        raise BackendError(
            f"memory backend must be a name, got {type(name).__name__}")
    key = name.strip().lower().replace("-", "_")
    canonical = _ALIASES.get(key)
    if canonical is None:
        raise UnknownBackendError(name, close_matches(key, _ALIASES))
    return canonical


def get_backend(name) -> BackendDescriptor:
    """The descriptor registered under ``name`` (alias-aware)."""
    return _BACKENDS[resolve_name(name)]


def backend_names() -> List[str]:
    """Canonical names of every registered backend, sorted."""
    ensure_builtin_backends()
    return sorted(_BACKENDS)


def list_backends() -> List[BackendDescriptor]:
    """Every registered descriptor, sorted by canonical name."""
    ensure_builtin_backends()
    return [_BACKENDS[name] for name in sorted(_BACKENDS)]


def create_memory(name, config, events, traces=None,
                  profile=None) -> MemorySystem:
    """Build the named organisation and protocol-check the result."""
    descriptor = get_backend(name)
    memory = descriptor.factory(config, events, traces=traces,
                                profile=profile)
    assert_conformant(memory)
    memory.backend_name = descriptor.name
    return memory
