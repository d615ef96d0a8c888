#!/usr/bin/env python
"""ECC / parity path demo (paper Section 4.2.3).

The CWF design wakes the waiting instruction with the critical word
*before* the line's SECDED ECC (which travels with the bulk part) can be
checked; a byte-parity code on the x9 RLDRAM chip guards the early wake.

Part 1 exercises the real codes at the bit level: SECDED(72,64)
encode/decode with injected single and double bit errors, and the byte
parity check.

Part 2 runs a simulation with an artificially high parity-error rate to
show the architectural effect: flagged words fall back to waking at
full-line arrival (after ECC correction), costing latency but never
correctness.
"""

import random

from repro.core.cwf import CriticalWordMemory, CWFConfig
from repro.core.ecc import SECDED, byte_parity, parity_check
from repro.sim.config import SimConfig as _SimConfig
from repro.sim.system import SimulationSystem, make_traces, prewarm_l2
from repro.workloads.profiles import profile_for


def part1_codes() -> None:
    print("=== SECDED(72,64) and byte parity, bit-level ===")
    rng = random.Random(1)
    word = rng.getrandbits(64)
    code = SECDED.encode(word)
    print(f"word {word:#018x} -> 72-bit codeword {code:#020x}")

    decoded, status = SECDED.decode(code)
    print(f"clean decode: {status} (match={decoded == word})")

    flipped = code ^ (1 << rng.randrange(72))
    decoded, status = SECDED.decode(flipped)
    print(f"single-bit error: {status} (recovered={decoded == word})")

    b1, b2 = rng.sample(range(72), 2)
    decoded, status = SECDED.decode(code ^ (1 << b1) ^ (1 << b2))
    print(f"double-bit error: {status} (uncorrectable, data=None: "
          f"{decoded is None})")

    parity = byte_parity(word)
    corrupted = word ^ (1 << rng.randrange(64))
    print(f"byte parity clean: {parity_check(word, parity)}, "
          f"after 1-bit flip: {parity_check(corrupted, parity)}")
    print()


def part2_architecture() -> None:
    print("=== parity deferral under injected faults ===")
    for rate in (0.0, 0.2):
        sim_config = _SimConfig(memory="rl", target_dram_reads=1500)
        profile = profile_for("leslie3d")
        traces = make_traces(profile, sim_config)
        events_memory = None

        # Build the RL memory directly so we can set the error rate.
        system = SimulationSystem(
            sim_config, traces,
            memory=None if rate == 0.0 else None,
            profile=profile)
        # Swap in a fault-injecting memory before running.
        system.memory = CriticalWordMemory(
            system.events, CWFConfig(parity_error_rate=rate))
        system.uncore.memory = system.memory
        prewarm_l2(system, profile)
        result = system.run()
        memory = system.memory
        print(f"parity error rate {rate:4.0%}: "
              f"avg critical latency {result.avg_critical_latency:5.0f} cy, "
              f"deferred wakes {memory.parity_deferrals}, "
              f"parity checks {memory.fault_injector.stats.checks}")
    print("\nWith faults injected, flagged critical words wait for the "
          "full line + ECC;")
    print("coverage is unchanged (SECDED still corrects), only the "
          "fast-wake is lost.")


if __name__ == "__main__":
    part1_codes()
    part2_architecture()
