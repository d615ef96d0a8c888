"""Store overhead bench: budgets and durability must not tax the hot path.

The artifact store sits under every cache hit the executor takes, so
two ratios are guarded here, both measured interleaved in the same
loop so machine-wide drift cancels out:

* a *budgeted* store (auto-gc armed, journal appended per access) must
  cost <= 3x an unbounded store for the same put/get mix — budget
  enforcement is an O(1) byte-counter check per put, not a directory
  walk, and the journal append is one O_APPEND write;
* the store's *get* hit path (index read + blob read + digest
  re-verify) must cost <= 25x a raw ``read_bytes`` of the same
  payload — the sha256 over a few-KiB blob is the irreducible price
  of catching bit rot, and this bound trips only if the hit path
  grows an extra stat/scan, not on hash throughput noise.

Budgets are far above the measured ratios on the reference machine
(~1.1x and ~6x respectively); they catch accidental O(n) work leaking
into puts or gets, not scheduler jitter.
"""

import json
import time

from repro.store import ArtifactStore


def _mix(store, payloads, rounds=3):
    """One deterministic put+get mix; returns hits observed."""
    for i, payload in enumerate(payloads):
        store.put_bytes(f"key-{i}", payload)
    hits = 0
    for _ in range(rounds):
        for i in range(len(payloads)):
            if store.get_bytes(f"key-{i}") is not None:
                hits += 1
    return hits


def _payloads(n=32, size=2048):
    return [json.dumps({"i": i, "pad": "x" * size}).encode()
            for i in range(n)]


def test_budgeted_store_overhead(tmp_path):
    payloads = _payloads()
    total = sum(len(p) for p in payloads)

    plain_t = budget_t = float("inf")
    for round_no in range(3):
        plain = ArtifactStore(tmp_path / f"plain-{round_no}", tier="results")
        # Budget comfortably above the working set: gc arms but never
        # fires, so this measures the enforcement check, not eviction.
        budgeted = ArtifactStore(tmp_path / f"budget-{round_no}",
                                 tier="results", budget_bytes=total * 4)

        start = time.process_time()
        hits = _mix(plain, payloads)
        plain_t = min(plain_t, time.process_time() - start)
        assert hits == len(payloads) * 3

        start = time.process_time()
        hits = _mix(budgeted, payloads)
        budget_t = min(budget_t, time.process_time() - start)
        assert hits == len(payloads) * 3
        assert budgeted.registry.counts()["store.results.evictions"] == 0

    ratio = budget_t / plain_t
    assert ratio <= 3.0, (
        f"budgeted store cost {ratio:.2f}x the unbounded store "
        f"({budget_t * 1e3:.1f}ms vs {plain_t * 1e3:.1f}ms)")


def test_get_hit_path_overhead(tmp_path):
    payloads = _payloads()
    store = ArtifactStore(tmp_path / "store", tier="results")
    raw_dir = tmp_path / "raw"
    raw_dir.mkdir()
    for i, payload in enumerate(payloads):
        store.put_bytes(f"key-{i}", payload)
        (raw_dir / f"key-{i}.json").write_bytes(payload)

    raw_t = store_t = float("inf")
    for _ in range(3):
        start = time.process_time()
        for _ in range(5):
            for i in range(len(payloads)):
                assert (raw_dir / f"key-{i}.json").read_bytes()
        raw_t = min(raw_t, time.process_time() - start)

        start = time.process_time()
        for _ in range(5):
            for i in range(len(payloads)):
                assert store.get_bytes(f"key-{i}") is not None
        store_t = min(store_t, time.process_time() - start)

    ratio = store_t / raw_t
    assert ratio <= 25.0, (
        f"store hit path cost {ratio:.2f}x a raw read "
        f"({store_t * 1e3:.1f}ms vs {raw_t * 1e3:.1f}ms)")
