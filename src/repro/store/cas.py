"""Content-addressed, size-bounded artifact store.

One subsystem now backs every on-disk tier the repo grew over nine
PRs — the simulation :class:`~repro.experiments.runner.ResultCache`,
``sim/checkpoint.py`` snapshots, and the service
:class:`~repro.service.store.JobStore` manifests — the way TL-DRAM
exploits reuse under a bounded fast tier: a high-hit-rate cache of
bounded size in front of arbitrarily expensive recompute. An evicted
entry is never an error, only a clean recompute.

Two store flavours share the discipline:

:class:`ArtifactStore` (the *results* tier)
    sha256-addressed blobs under ``blobs/``, deduplicated across keys,
    with a ``index/<keydigest>.json`` key→digest index replacing the old
    flat ``<digest>.json`` layout. Every ``get`` re-verifies the blob
    digest, so bit rot is caught (and quarantined) before a caller sees
    it. Reads don't rewrite files, so LRU state lives in an append-only
    access ``journal.log`` whose line order is the recency order
    (compacted by ``gc``).

:class:`FileStore` (the *checkpoints* and *manifests* tiers)
    wraps a directory of standalone content-validated files
    (``ck-*.ckpt``, ``j-*.json``) that external tooling addresses by
    path; writes update mtime, so mtime is the LRU clock and no journal
    is kept (their directories must stay empty-able — checkpoint tests
    assert a finished run leaves nothing behind).

Both enforce a per-tier byte budget with LRU eviction, skip *pinned*
entries (a ``<name>.pin`` sibling carrying the owning pid — pins of
dead processes expire automatically, so a crashed writer cannot strand
disk), quarantine corruption as ``<file>.corrupt``, and count their
traffic as ``store.<tier>.<event>`` through :func:`repro.telemetry.count`
so it surfaces in ``repro report --json``, ``--stats-json`` manifests
and the service ``/metrics``.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro.store.atomic import (
    CORRUPT_SUFFIX,
    atomic_write_bytes,
    file_lock,
    quarantine_file,
)
from repro.telemetry.registry import MetricsRegistry
from repro.telemetry.session import count

#: Digest prefix length for key-addressed index files (matches the
#: legacy ResultCache/checkpoint filename digests, so migrated entries
#: keep their identity).
KEY_DIGEST_LEN = 24

#: Over-budget slack tolerated between automatic gc passes: a put only
#: triggers eviction once the (locally estimated) usage exceeds the
#: budget, so concurrent writers overshoot by at most their in-flight
#: entries, never unboundedly.
_JOURNAL_NAME = "journal.log"


def key_digest(key: str) -> str:
    return hashlib.sha256(key.encode()).hexdigest()[:KEY_DIGEST_LEN]


def _pid_alive(pid: int) -> bool:
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except (OSError, PermissionError):  # pragma: no cover - EPERM: alive
        return True
    return True


def _pin_live(pin_path: Path) -> bool:
    """A pin protects its entry while the pinning process is alive.

    Pin files carry the owner's pid; a pin whose process has exited is
    stale and no longer protects (so a crashed run cannot strand disk
    forever). An unreadable pin is treated as live — better to under-
    evict than to delete an in-flight checkpoint.
    """
    try:
        pid = int(pin_path.read_text().strip() or "0")
    except (OSError, ValueError):
        return pin_path.exists()
    return _pid_alive(pid)


@dataclass
class StoreEntry:
    """One logical entry of a store tier, as seen by gc/stats/verify."""

    key: str              # cache key (CAS) or file name (FileStore)
    path: Path            # index file (CAS) or the entry file itself
    size: int             # bytes charged against the tier budget
    last_access: float    # LRU clock: journal line (CAS) or mtime
    pinned: bool = False
    digest: str = ""      # blob sha256 (CAS only)


class _StoreBase:
    """Traffic registry, pins and LRU eviction shared by both flavours."""

    def __init__(self, directory, tier: str) -> None:
        self.directory = Path(directory)
        self.tier = tier
        self.prefix = f"store.{tier}."
        self.registry = MetricsRegistry()
        for event in ("hits", "misses", "writes", "evictions",
                      "quarantined", "pinned_skips", "gc_runs"):
            self.registry.counter(self.prefix + event)

    # -- pins ----------------------------------------------------------

    def _pin_path(self, entry_path: Path) -> Path:
        return entry_path.with_name(entry_path.name + ".pin")

    def pin_path_live(self, entry_path: Path) -> bool:
        pin = self._pin_path(entry_path)
        return pin.exists() and _pin_live(pin)

    def write_pin(self, entry_path: Path) -> None:
        pin = self._pin_path(entry_path)
        try:
            pin.parent.mkdir(parents=True, exist_ok=True)
            pin.write_text(str(os.getpid()))
        except OSError:  # pragma: no cover - read-only store
            pass

    def drop_pin(self, entry_path: Path) -> None:
        self._pin_path(entry_path).unlink(missing_ok=True)

    # -- shared eviction loop ------------------------------------------

    def _evict_lru(self, entries: List[StoreEntry], used: int,
                   max_bytes: int, dry_run: bool,
                   evict_entry: Callable[[StoreEntry], None]) -> dict:
        """Evict oldest-accessed unpinned entries until ``used`` fits."""
        report = {"tier": self.tier, "bytes_before": used,
                  "entries_before": len(entries), "evicted": [],
                  "pinned_kept": 0, "budget": max_bytes}
        survivors = []
        for entry in sorted(entries, key=lambda e: (e.last_access, e.key)):
            if used <= max_bytes:
                survivors.append(entry)
                continue
            if entry.pinned:
                report["pinned_kept"] += 1
                count(self.registry, self.prefix + "pinned_skips")
                survivors.append(entry)
                continue
            if not dry_run:
                evict_entry(entry)
                count(self.registry, self.prefix + "evictions")
            report["evicted"].append(entry.key)
            used -= entry.size
        report["bytes_after"] = used
        report["entries_after"] = len(survivors)
        return report


class ArtifactStore(_StoreBase):
    """sha256-addressed blob store with a key index and an LRU journal.

    Layout under ``directory``::

        index/<keydigest>.json   {"key", "digest", "size"}
        blobs/<aa>/<sha256>.blob payload bytes (shared across keys)
        journal.log              "<keydigest>\\n" per access, oldest first
        locks/<keydigest>.lock   advisory flock for writers of one key

    ``get_bytes`` verifies the payload digest on every read; an entry
    whose bytes no longer hash to its name is quarantined, never
    returned. Identical payloads stored under different keys share one
    blob (``dedup_hits`` counts the savings).
    """

    def __init__(self, directory, tier: str = "results",
                 budget_bytes: Optional[int] = None,
                 durable: bool = True) -> None:
        super().__init__(directory, tier)
        self.budget_bytes = budget_bytes
        self.durable = durable
        self.index_dir = self.directory / "index"
        self.blobs_dir = self.directory / "blobs"
        self.locks_dir = self.directory / "locks"
        self.journal_path = self.directory / _JOURNAL_NAME
        # Eager, so entry paths handed out by index_path() are writable
        # before the first put (tests inject corruption that way).
        self.index_dir.mkdir(parents=True, exist_ok=True)
        # Lazy local usage estimate: exact after each gc, bumped per
        # put; concurrent writers each overshoot by at most their own
        # in-flight bytes before their next gc re-measures the truth.
        self._approx_bytes: Optional[int] = None

    # -- paths ---------------------------------------------------------

    def index_path(self, key: str) -> Path:
        return self.index_dir / f"{key_digest(key)}.json"

    def blob_path(self, digest: str) -> Path:
        return self.blobs_dir / digest[:2] / f"{digest}.blob"

    # -- journal -------------------------------------------------------

    def _journal(self, digest_of_key: str) -> None:
        """Append one access record; O_APPEND keeps writers atomic.
        Line order is access order, so no timestamp (and no ties)."""
        try:
            with open(self.journal_path, "a") as handle:
                handle.write(f"{digest_of_key}\n")
        except OSError:  # pragma: no cover - read-only store
            pass

    def _access_ranks(self) -> Dict[str, int]:
        """Line number of each key digest's latest journaled access
        (older ``"<unix> <keydigest>"`` lines rank by position too)."""
        ranks: Dict[str, int] = {}
        try:
            with open(self.journal_path) as handle:
                for rank, line in enumerate(handle):
                    parts = line.split()
                    if parts and len(parts) <= 2:
                        ranks[parts[-1]] = rank
        except OSError:
            pass
        return ranks

    # -- core API ------------------------------------------------------

    def put_bytes(self, key: str, data: bytes, pin: bool = False) -> str:
        """Store ``data`` under ``key``; returns the content digest.

        The blob is published first, then the index entry — a reader
        that sees the index entry can always resolve the payload. Both
        writes go through the shared atomic path; the per-key flock
        serialises concurrent writers of the same key.
        """
        digest = hashlib.sha256(data).hexdigest()
        blob = self.blob_path(digest)
        if blob.exists():
            count(self.registry, self.prefix + "dedup_hits")
        else:
            atomic_write_bytes(blob, data, durable=self.durable)
        entry = {"key": key, "digest": digest, "size": len(data)}
        kd = key_digest(key)
        with file_lock(self.locks_dir / f"{kd}.lock"):
            atomic_write_bytes(self.index_path(key),
                               json.dumps(entry).encode(),
                               durable=self.durable)
        self._journal(kd)
        count(self.registry, self.prefix + "writes")
        if pin:
            self.write_pin(self.index_path(key))
        if self.budget_bytes is not None:
            if self._approx_bytes is None:
                self._approx_bytes = self.total_bytes()
            else:
                self._approx_bytes += len(data)
            if self._approx_bytes > self.budget_bytes:
                self.gc()
        return digest

    def _read_index(self, key: str) -> Optional[dict]:
        path = self.index_path(key)
        try:
            data = json.loads(path.read_text())
        except FileNotFoundError:
            return None
        except (json.JSONDecodeError, UnicodeDecodeError):
            self._quarantine(path)
            return None
        except OSError:
            return None  # read race (mid-replace), not corruption
        if not isinstance(data, dict):
            self._quarantine(path)
            return None
        # Key check before schema check: a record naming another key
        # (truncated-digest collision, or a legacy-format payload with
        # a different ``__key__``) is not ours to judge — a plain miss,
        # left in place. Only a record claiming *this* key with a
        # broken shape is corruption.
        if data.get("key", data.get("__key__")) != key:
            return None
        if not isinstance(data.get("digest"), str):
            self._quarantine(path)
            return None
        return data

    def get_bytes(self, key: str) -> Optional[bytes]:
        """Recall ``key``'s payload; corruption quarantines, never raises.

        A missing entry (never stored, or evicted) is a plain miss —
        the caller recomputes. A present entry whose blob is missing
        (raced gc) heals itself: the stale index record is dropped and
        the read degrades to a miss.
        """
        record = self._read_index(key)
        if record is None:
            count(self.registry, self.prefix + "misses")
            return None
        blob = self.blob_path(record["digest"])
        try:
            data = blob.read_bytes()
        except OSError:
            self.index_path(key).unlink(missing_ok=True)  # stale index
            count(self.registry, self.prefix + "misses")
            return None
        if hashlib.sha256(data).hexdigest() != record["digest"]:
            self._quarantine(blob)
            self.index_path(key).unlink(missing_ok=True)
            count(self.registry, self.prefix + "misses")
            return None
        self._journal(key_digest(key))
        count(self.registry, self.prefix + "hits")
        return data

    def contains(self, key: str) -> bool:
        """Existence probe: no read, no digest check, no counters."""
        return self.index_path(key).exists()

    def delete(self, key: str) -> None:
        path = self.index_path(key)
        self.drop_pin(path)
        path.unlink(missing_ok=True)
        # The blob may be shared; orphan blobs are collected by gc.

    def pin(self, key: str) -> None:
        self.write_pin(self.index_path(key))

    def unpin(self, key: str) -> None:
        self.drop_pin(self.index_path(key))

    def _quarantine(self, path: Path) -> None:
        if quarantine_file(path) is not None:
            count(self.registry, self.prefix + "quarantined")

    # -- scanning / gc -------------------------------------------------

    def entries(self) -> List[StoreEntry]:
        out: List[StoreEntry] = []
        ranks = self._access_ranks()
        for path in sorted(self.index_dir.glob("*.json")):
            try:
                record = json.loads(path.read_text())
                if (not isinstance(record, dict)
                        or not isinstance(record.get("digest"), str)):
                    raise ValueError("not an index record")
            except (OSError, ValueError):
                self._quarantine(path)
                continue
            out.append(StoreEntry(
                key=record.get("key", path.stem),
                path=path,
                size=int(record.get("size", 0)),
                # Never journaled (journal lost or unwritable): oldest.
                last_access=ranks.get(path.stem, -1),
                pinned=self.pin_path_live(path),
                digest=record["digest"]))
        return out

    def total_bytes(self) -> int:
        """Actual disk usage: unique blob bytes + index bytes."""
        total = 0
        for path in self.blobs_dir.glob("*/*.blob"):
            total += _size_or_zero(path)
        for path in self.index_dir.glob("*.json"):
            total += _size_or_zero(path)
        return total

    def gc(self, max_bytes: Optional[int] = None,
           dry_run: bool = False) -> dict:
        """Bound the tier: LRU-evict past budget, drop orphan blobs,
        heal dangling index entries, compact the journal.

        ``max_bytes`` overrides the store's configured budget for this
        pass; ``None`` with no configured budget only collects garbage
        (orphans, dangling entries, stale journal lines) without
        evicting live entries.
        """
        budget = max_bytes if max_bytes is not None else self.budget_bytes
        count(self.registry, self.prefix + "gc_runs")
        entries = self.entries()
        # Heal: an index entry whose blob vanished can never be read.
        live: List[StoreEntry] = []
        for entry in entries:
            if self.blob_path(entry.digest).exists():
                live.append(entry)
            elif not dry_run:
                self.drop_pin(entry.path)
                entry.path.unlink(missing_ok=True)
        used = self.total_bytes()
        report = self._evict_lru(
            live, used, budget if budget is not None else used,
            dry_run, lambda e: (self.drop_pin(e.path),
                                e.path.unlink(missing_ok=True)))
        if not dry_run:
            self._sweep_orphan_blobs(report)
            self._compact_journal()
            self._approx_bytes = self.total_bytes()
            report["bytes_after"] = self._approx_bytes
        return report

    def _sweep_orphan_blobs(self, report: dict) -> None:
        referenced = {entry.digest for entry in self.entries()}
        removed = 0
        for blob in self.blobs_dir.glob("*/*.blob"):
            if blob.stem not in referenced:
                blob.unlink(missing_ok=True)
                removed += 1
        report["orphan_blobs_removed"] = removed

    def _compact_journal(self) -> None:
        """Rewrite the journal with one line per surviving entry, in
        access order."""
        ranks = self._access_ranks()
        survivors = {path.stem for path in self.index_dir.glob("*.json")}
        lines = [f"{kd}\n" for kd in sorted(ranks, key=ranks.__getitem__)
                 if kd in survivors]
        if not lines and not self.journal_path.exists():
            return
        atomic_write_bytes(self.journal_path, "".join(lines).encode(),
                           durable=False)

    def verify(self, repair: bool = False) -> List[str]:
        """Check every entry end-to-end; returns human-readable problems.

        With ``repair=True`` corrupt entries are quarantined and
        dangling index records removed, so a following run starts
        clean (and recomputes what was lost).
        """
        problems: List[str] = []
        for path in sorted(self.index_dir.glob("*.json")):
            try:
                record = json.loads(path.read_text())
                if not isinstance(record, dict):
                    raise ValueError("index record is not an object")
                digest = record["digest"]
            except (OSError, ValueError, KeyError) as exc:
                problems.append(f"{path.name}: unreadable index ({exc})")
                if repair:
                    self._quarantine(path)
                continue
            blob = self.blob_path(digest)
            try:
                data = blob.read_bytes()
            except OSError:
                problems.append(
                    f"{path.name}: blob {digest[:12]}… missing")
                if repair:
                    path.unlink(missing_ok=True)
                continue
            if hashlib.sha256(data).hexdigest() != digest:
                problems.append(
                    f"{path.name}: blob {digest[:12]}… digest mismatch")
                if repair:
                    self._quarantine(blob)
                    path.unlink(missing_ok=True)
        return problems

    def stats(self) -> dict:
        entries = self.entries()
        return {
            "tier": self.tier,
            "directory": str(self.directory),
            "entries": len(entries),
            "bytes": self.total_bytes(),
            "budget_bytes": self.budget_bytes,
            "pinned": sum(1 for e in entries if e.pinned),
        }


class FileStore(_StoreBase):
    """Budget/pin/verify management for a directory of standalone files.

    Checkpoints (``ck-*.ckpt``) and job manifests (``j-*.json``) are
    addressed by path from outside the store, so their on-disk layout
    stays flat; this class brings them under the same eviction,
    pinning, and verification regime as the CAS tier. Each save
    rewrites the file (updating mtime), so mtime is the LRU clock.

    ``pinned_check`` marks entries eviction must never touch even
    without a ``.pin`` sibling — e.g. a job manifest whose recorded
    state is still ``queued``/``running``.
    """

    def __init__(self, directory, pattern: str, tier: str,
                 budget_bytes: Optional[int] = None,
                 pinned_check: Optional[Callable[[Path], bool]] = None,
                 validator: Optional[Callable[[Path], Optional[str]]] = None,
                 ) -> None:
        super().__init__(directory, tier)
        self.pattern = pattern
        self.budget_bytes = budget_bytes
        self.pinned_check = pinned_check
        self.validator = validator

    def entries(self) -> List[StoreEntry]:
        out: List[StoreEntry] = []
        for path in sorted(self.directory.glob(self.pattern)):
            if path.name.endswith((CORRUPT_SUFFIX, ".pin")) \
                    or ".tmp." in path.name:
                continue
            size = _size_or_zero(path)
            pinned = self.pin_path_live(path) or bool(
                self.pinned_check and self.pinned_check(path))
            out.append(StoreEntry(key=path.name, path=path, size=size,
                                  last_access=_mtime_or(path, 0.0),
                                  pinned=pinned))
        return out

    def total_bytes(self) -> int:
        return sum(entry.size for entry in self.entries())

    def gc(self, max_bytes: Optional[int] = None,
           dry_run: bool = False) -> dict:
        budget = max_bytes if max_bytes is not None else self.budget_bytes
        count(self.registry, self.prefix + "gc_runs")
        entries = self.entries()
        used = sum(entry.size for entry in entries)
        return self._evict_lru(
            entries, used, budget if budget is not None else used,
            dry_run, lambda e: (self.drop_pin(e.path),
                                e.path.unlink(missing_ok=True)))

    def verify(self, repair: bool = False) -> List[str]:
        problems: List[str] = []
        if self.validator is None:
            return problems
        for entry in self.entries():
            problem = self.validator(entry.path)
            if problem:
                problems.append(f"{entry.path.name}: {problem}")
                if repair and quarantine_file(entry.path) is not None:
                    count(self.registry, self.prefix + "quarantined")
        return problems

    def stats(self) -> dict:
        entries = self.entries()
        return {
            "tier": self.tier,
            "directory": str(self.directory),
            "entries": len(entries),
            "bytes": sum(e.size for e in entries),
            "budget_bytes": self.budget_bytes,
            "pinned": sum(1 for e in entries if e.pinned),
        }


def _size_or_zero(path: Path) -> int:
    try:
        return path.stat().st_size
    except OSError:
        return 0


def _mtime_or(path: Path, default: float) -> float:
    try:
        return path.stat().st_mtime
    except OSError:
        return float(default or 0.0)
