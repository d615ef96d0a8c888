"""Per-layer attribution of a cProfile run.

Every profiled function belongs to the layer of the module that defines
it (``LAYER_RULES``). Functions outside the program and the benchmark --
C builtins and the standard library -- belong to no layer: their self
time is charged to the layers of their callers, split in proportion to
the time each caller's calls took. A chain of such functions is followed
back to the nearest callers that have a layer; a recursive cycle of them
inherits the layers of the calls that enter it. Time that cannot be
traced to a layer this way (no recorded caller, or a cycle that nothing
enters) stays unattributed, and ``check_attribution`` fails the traced run
when it exceeds ``UNATTRIBUTED_MAX`` of the profile total.
"""

from __future__ import annotations

import os
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

# Module path (relative to the ``src`` root) -> layer; first match wins.
LAYER_RULES = (
    ("repro/workloads/", "workloads"),
    ("repro/cpu/core.py", "cpu_core"),
    ("repro/cpu/", "cpu_uncore"),
    ("repro/core/", "memsys"),
    ("repro/memsys/", "memsys"),
    ("repro/dram/", "dram"),
    ("repro/util/events.py", "events"),
    ("repro/sim/", "sim"),
    ("repro/experiments/", "experiments"),
    ("repro/store/", "store"),
    ("repro/telemetry/", "telemetry"),
    ("repro/sanitizer/", "sanitizer"),
    ("repro/", "other"),
)
# ``other``: the rest of the program (util, energy, ...); ``harness``: the
# benchmark's own wrappers.
LAYERS = tuple(dict.fromkeys(layer for _, layer in LAYER_RULES)) + ("harness",)

# Host work counts: (module path, function name) whose call count is the
# count. They come from the traced run and repeat exactly for a seed.
WORK_COUNTS = {
    "events.steps": ("repro/util/events.py", "step"),
    "events.scheduled": ("repro/util/events.py", "schedule"),
    "dram.ticks": ("repro/dram/controller.py", "_tick"),
}

# Largest share of the profile total that may stay unattributed.
UNATTRIBUTED_MAX = 0.01
# Sweeps of the caller-share propagation; it stops earlier once settled.
MAX_SWEEPS = 200


def make_classifier(src_root: str, bench_root: str
                    ) -> Callable[[str], Optional[str]]:
    """filename -> layer, or None for code outside program and benchmark."""
    src = os.path.realpath(src_root) + os.sep
    bench = os.path.realpath(bench_root) + os.sep
    memo: Dict[str, Optional[str]] = {}

    def classify(filename: str) -> Optional[str]:
        if filename not in memo:
            path = os.path.realpath(filename) if filename[:1] not in "~<" else ""
            layer = None
            if path.startswith(bench):
                layer = "harness"
            elif path.startswith(src):
                rel = path[len(src):].replace(os.sep, "/")
                layer = next((name for prefix, name in LAYER_RULES
                              if rel.startswith(prefix)), None)
            memo[filename] = layer
        return memo[filename]

    return classify


def attribute(stats: dict, classify: Callable[[str], Optional[str]]) -> dict:
    """Aggregate ``pstats``-format stats into per-layer self time.

    ``stats`` maps ``(file, line, name)`` to ``(cc, nc, tt, ct, callers)``
    with ``callers`` mapping a caller to ``(nc, cc, tt, ct)``; the
    caller's ``tt`` is the callee's own time in the calls it made.
    ``calls_in`` counts calls into a layer from a different layer.
    """
    own = {func: classify(func[0]) for func in stats}
    # Functions with no layer, each with its callers' weights (the time
    # their calls took); a self-call carries no information and is dropped.
    inbound = {
        func: [(caller, ct if ct > 0 else nc * 1e-12)
               for caller, (nc, _cc, _tt, ct) in stats[func][4].items()
               if caller != func]
        for func in stats if not own[func]}
    shares: Dict[tuple, Dict[str, float]] = {func: {} for func in inbound}

    def layer_shares(func) -> Dict[str, float]:
        """Where ``func``'s time belongs, as layer -> share. The shares sum
        to less than 1 where part of it cannot be traced to a layer."""
        layer = own[func] if func in own else classify(func[0])
        return {layer: 1.0} if layer else shares.get(func, {})

    # Each function's shares are the weighted mean of its callers'. Sweep
    # until they settle; a cycle converges to the layers that enter it.
    for _ in range(MAX_SWEEPS):
        change = 0.0
        for func, edges in inbound.items():
            total = sum(weight for _, weight in edges)
            new: Dict[str, float] = defaultdict(float)
            for caller, weight in edges:
                for layer, share in layer_shares(caller).items():
                    new[layer] += share * weight / total
            old = shares[func]
            change = max([change] + [abs(new.get(k, 0.0) - old.get(k, 0.0))
                                     for k in set(new) | set(old)])
            shares[func] = new
        if change < 1e-12:
            break

    def main_layer(func) -> Optional[str]:
        dist = layer_shares(func)
        return max(dist, key=dist.get) if dist else None

    self_s: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
    calls_in: Dict[str, int] = {layer: 0 for layer in LAYERS}
    total = 0.0
    for func, (_cc, _nc, tt, _ct, callers) in stats.items():
        total += tt
        layer = own[func]
        if layer:
            self_s[layer] += tt
            for caller, (nc, _ccc, _tt, _cct) in callers.items():
                if main_layer(caller) != layer:
                    calls_in[layer] += nc
            continue
        for caller, (_nc, _ccc, caller_tt, _cct) in callers.items():
            for owner, share in layer_shares(caller).items():
                self_s[owner] += caller_tt * share
    return {"total_s": total, "self_s": self_s, "calls_in": calls_in,
            "unattributed_s": max(total - sum(self_s.values()), 0.0)}


def check_attribution(profile: dict) -> List[Tuple[str, str, str]]:
    """A failure if the layer self times miss more than
    ``UNATTRIBUTED_MAX`` of the profile total."""
    total, missing = profile["total_s"], profile["unattributed_s"]
    if total > 0 and missing <= UNATTRIBUTED_MAX * total:
        return []
    return [("profile", "trace.unattributed_s",
             f"layer self times miss {missing:.4g} s of the profile total "
             f"{total:.4g} s (allowed: {UNATTRIBUTED_MAX:.0%})")]


def work_counts(stats: dict, src_root: str) -> Dict[str, int]:
    """Call counts of the functions named in ``WORK_COUNTS``."""
    src = os.path.realpath(src_root) + os.sep
    found = {name: 0 for name in WORK_COUNTS}
    wanted = {(os.path.join(src, path), fn): name
              for name, (path, fn) in WORK_COUNTS.items()}
    for (filename, _line, fn), (_cc, nc, _tt, _ct, _callers) in stats.items():
        name = wanted.get((os.path.realpath(filename), fn))
        if name is not None:
            found[name] += nc
    return found


def attribute_profile(profiler) -> dict:
    """Layer attribution and work counts of a finished ``cProfile`` run."""
    import pstats

    import perfbench
    import repro

    stats = pstats.Stats(profiler).stats
    src_root = os.path.dirname(os.path.dirname(repro.__file__))
    bench_root = os.path.dirname(perfbench.__file__)
    out = attribute(stats, make_classifier(src_root, bench_root))
    out["work"] = work_counts(stats, src_root)
    return out
