"""Golden equivalence for the hot-path kernel overhaul (PR 7).

The overhaul (slotted event core, flattened DRAM timing tables, hoisted
controller issue loops, inlined prewarm insert) is required to be
*bit-identical*: every :class:`~repro.sim.system.SimResult` field for a
3-memory x 2-benchmark matrix must match values captured on the
pre-refactor kernel, stored in ``tests/data/golden_kernel.json``.

Also here:

* cache-key stability — the disk-cache key format must survive
  refactors unchanged so warm caches keep hitting (``v8`` since the
  workload-registry refactor added the workload content token);
* a hypothesis property test that the tuple-heap event queue fires in
  exactly ``(time, seq)`` order with cancellation respected — the
  invariant the golden matrix relies on, checked in isolation over
  arbitrary schedules;
* a hypothesis soundness test of the controller's provably-idle tick:
  random request streams must produce the same commands and request
  times whether or not ticks may take the idle path.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dram.channel import Channel
from repro.dram.controller import ControllerConfig, MemoryController
from repro.dram.device import DDR3_DEVICE, LPDDR2_DEVICE, RLDRAM3_DEVICE
from repro.dram.request import DecodedAddress, MemoryRequest, RequestKind
from repro.dram.scheduler import SchedulingPolicy
from repro.dram.timing import (
    DDR3_TIMING,
    LPDDR2_TIMING,
    RLDRAM3_TIMING,
    TimingSet,
)
from repro.experiments.specs import (
    CACHE_KEY_VERSION,
    RunSpec,
    spec_cache_key,
)
from repro.sim.config import SimConfig
from repro.sim.system import run_benchmark
from repro.util.events import EventQueue

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_kernel.json"

with GOLDEN_PATH.open() as _handle:
    GOLDEN = json.load(_handle)

CELLS = sorted(GOLDEN["results"])


# ---------------------------------------------------------------------------
# Golden matrix: bit-identical SimResult across the refactor
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("cell", CELLS)
def test_simresult_matches_golden(cell):
    benchmark, memory = cell.split("/")
    config = SimConfig(memory=memory,
                       target_dram_reads=GOLDEN["target_dram_reads"])
    result = run_benchmark(benchmark, config)
    mismatches = {
        field: (getattr(result, field), expected)
        for field, expected in GOLDEN["results"][cell].items()
        if getattr(result, field) != expected
    }
    assert not mismatches, (
        f"{cell}: kernel output diverged from the pre-refactor golden "
        f"(field: (got, expected)): {mismatches}")


def test_golden_covers_all_controller_paths():
    """The matrix must keep exercising open-page, close-page/hetero, and
    shared-command-bus controllers, plus the prefetch-promotion, write-
    drain, 16-rank two-slot RLDRAM and LPDDR2 power-down/refresh paths
    of the bank-indexed scheduler — do not shrink it."""
    assert set(CELLS) == {
        "mcf/ddr3", "mcf/rl", "mcf/hmc_cwf",
        "leslie3d/ddr3", "leslie3d/rl", "leslie3d/hmc_cwf", "leslie3d/dl",
        "stream/ddr3", "stream/rl", "stream/rl_adaptive", "gobmk/rl",
    }


# ---------------------------------------------------------------------------
# Cache-key stability: warm v8 caches must keep hitting
# ---------------------------------------------------------------------------


class _KeyConfig:
    """Duck-typed ExperimentConfig: just what spec_cache_key consumes."""

    target_dram_reads = 600
    seed = 12345

    @staticmethod
    def sim_config(memory):
        return SimConfig(memory=memory, target_dram_reads=600, seed=12345)


def test_cache_key_version_unchanged():
    assert CACHE_KEY_VERSION == "v8"


def test_cache_key_format_unchanged():
    """Key layout: version|benchmark|memory|variant|runner|params|reads|
    seed|workload-token|config-digest. A layout change silently
    invalidates every cached result on disk, so it must be deliberate
    (bump the version), never a refactor side effect. v8 was such a
    deliberate bump: it inserted the workload content token (profile
    digest / trace-file sha256) before the config digest."""
    key = spec_cache_key(RunSpec("mcf", "rl"), _KeyConfig)
    parts = key.split("|")
    assert len(parts) == 10
    assert parts[0] == "v8"
    assert parts[1] == "mcf"
    assert parts[2] == "rl"
    assert parts[3] == ""          # variant
    assert parts[4] == ""          # runner
    assert parts[5] == "[]"        # params as sorted JSON
    assert parts[6] == "600"
    assert parts[7] == "12345"
    token = parts[8]               # workload content token
    assert len(token) == 16
    int(token, 16)
    digest = parts[9]
    assert len(digest) == 16
    int(digest, 16)  # hex sha256 prefix

    # Deterministic, and sensitive to what it must be sensitive to.
    assert key == spec_cache_key(RunSpec("mcf", "rl"), _KeyConfig)
    assert key == spec_cache_key(RunSpec("synthetic:mcf", "rl"), _KeyConfig)
    assert key != spec_cache_key(RunSpec("mcf", "ddr3"), _KeyConfig)
    assert key != spec_cache_key(RunSpec("leslie3d", "rl"), _KeyConfig)


# ---------------------------------------------------------------------------
# Event-queue ordering property (hypothesis)
# ---------------------------------------------------------------------------


@st.composite
def schedules(draw):
    """A schedule: per event a (time-offset, cancel?) pair.

    Offsets are small so ties are frequent — tie-breaking by seq is
    exactly what the tuple heap must preserve.
    """
    return draw(st.lists(
        st.tuples(st.integers(min_value=0, max_value=7), st.booleans()),
        min_size=0, max_size=40))


@settings(max_examples=200, deadline=None)
@given(schedules())
def test_events_fire_in_time_seq_order(plan):
    queue = EventQueue()
    fired = []
    events = []
    for index, (offset, _cancel) in enumerate(plan):
        events.append(
            (queue.schedule(offset, lambda i=index: fired.append(i)),
             offset))
    cancelled = set()
    for index, (_offset, cancel) in enumerate(plan):
        if cancel:
            events[index][0].cancel()
            cancelled.add(index)

    expected_live = len(plan) - len(cancelled)
    assert len(queue) == expected_live

    executed = queue.run()
    assert executed == expected_live

    # Live events fire in exactly (time, seq) order; seq is insertion
    # order here because nothing is scheduled from inside callbacks.
    expected = [index for index, (offset, _c) in sorted(
        enumerate(plan), key=lambda item: (item[1][0], item[0]))
        if index not in cancelled]
    assert fired == expected
    assert len(queue) == 0


@settings(max_examples=100, deadline=None)
@given(schedules(), st.data())
def test_cancel_after_partial_drain(plan, data):
    """Cancelling mid-drain (outside callbacks) still never fires the
    cancelled event and keeps the live count exact."""
    queue = EventQueue()
    fired = []
    handles = [queue.schedule(offset, lambda i=index: fired.append(i))
               for index, (offset, _c) in enumerate(plan)]
    steps = data.draw(st.integers(min_value=0, max_value=len(plan)))
    for _ in range(steps):
        if not queue.step():
            break
    survivors = [index for index in range(len(plan))
                 if index not in fired]
    late_cancels = {index for index in survivors
                    if data.draw(st.booleans())}
    for index in late_cancels:
        handles[index].cancel()
    queue.run()
    assert late_cancels.isdisjoint(fired)
    expected_tail = [index for index, (offset, _c) in sorted(
        enumerate(plan), key=lambda item: (item[1][0], item[0]))
        if index in survivors and index not in late_cancels]
    assert fired[len(fired) - len(expected_tail):] == expected_tail


# ---------------------------------------------------------------------------
# Provably-idle ticks: same commands with and without the idle path
# ---------------------------------------------------------------------------


class _CountingController(MemoryController):
    """The production controller, counting ticks and full-path wakes."""

    __slots__ = ("ticks", "wake_scans")

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.ticks = 0
        self.wake_scans = 0

    def _tick(self) -> None:
        self.ticks += 1
        super()._tick()

    def _next_wake_time(self, now: int) -> int:
        self.wake_scans += 1
        return super()._next_wake_time(now)


class _FullTickController(_CountingController):
    """Reference: the idle bound is never known, so every tick takes the
    full issue path."""

    __slots__ = ()

    def _next_wake_time(self, now: int) -> int:
        wake = super()._next_wake_time(now)
        self._idle_until = 0
        return wake


class _CommandLog:
    """Stands in for the protocol sanitizer and records every command."""

    def __init__(self) -> None:
        self.commands = []

    def note_wake(self, now, rank, ready_at):
        self.commands.append((now, "WAKE", rank, None))

    def note_act(self, now, rank, bank, row):
        self.commands.append((now, "ACT", rank, bank))

    def note_pre(self, now, rank, bank, scheduled=True):
        self.commands.append((now, "PRE" if scheduled else "PRE-hk",
                              rank, bank))

    def note_cas(self, now, rank, bank, row, is_read, data_start, end):
        self.commands.append((now, "RD" if is_read else "WR", rank, bank))

    def note_access(self, now, rank, bank, is_write, data_start, end):
        self.commands.append((now, "AWR" if is_write else "ARD", rank, bank))

    def note_refresh(self, now, rank, until):
        self.commands.append((now, "REF", rank, None))

    def note_power_down(self, now, rank):
        self.commands.append((now, "PDE", rank, None))


def _short_refresh(params):
    """Refresh every 1 us so short streams cross several refreshes."""
    return TimingSet(dataclasses.replace(params, t_refi=1000.0))


_QUEUES = dict(read_queue_size=12, write_queue_size=12, high_watermark=8,
               low_watermark=3, prefetch_age_threshold=400)

# name -> (device, timing, ranks, data buses, command slots, config)
IDLE_TICK_CONFIGS = {
    "ddr3-open-2rank": (DDR3_DEVICE, _short_refresh(DDR3_TIMING), 2, 1, 1,
                        ControllerConfig(**_QUEUES)),
    "lpddr2-powerdown": (LPDDR2_DEVICE, _short_refresh(LPDDR2_TIMING), 1,
                         1, 1, ControllerConfig(
                             aggressive_powerdown=True,
                             powerdown_idle_threshold=200, **_QUEUES)),
    "lpddr2-powerdown-2rank": (LPDDR2_DEVICE, _short_refresh(LPDDR2_TIMING),
                               2, 1, 1, ControllerConfig(
                                   aggressive_powerdown=True,
                                   powerdown_idle_threshold=200, **_QUEUES)),
    "rldram-close-4bus": (RLDRAM3_DEVICE, TimingSet(RLDRAM3_TIMING), 8, 4, 2,
                          ControllerConfig(**_QUEUES)),
    "ddr3-fcfs": (DDR3_DEVICE, _short_refresh(DDR3_TIMING), 2, 1, 1,
                  ControllerConfig(scheduling=SchedulingPolicy.FCFS,
                                   **_QUEUES)),
}


def _replay(cls, config_name, stream, bus_busy_until=0):
    """Feed ``stream`` into one controller of class ``cls``; return its
    command log, per-request (critical word, completion) times and the
    controller. ``bus_busy_until`` first books data bus 0 up to then."""
    device, timing, ranks, buses, slots, config = \
        IDLE_TICK_CONFIGS[config_name]
    events = EventQueue()
    channel = Channel(timing, num_data_buses=buses, cmd_slots_per_cycle=slots)
    mc = cls(device=device, timing=timing, channel=channel, num_ranks=ranks,
             events=events, config=config,
             rank_to_bus={i: i * buses // ranks for i in range(ranks)})
    if bus_busy_until:
        bus = channel.data_buses[0]
        bus.reserve(bus_busy_until - bus.t_burst, RequestKind.READ, 0)
    log = _CommandLog()
    mc._san = log
    times = {}

    def submit(i, rank, bank, row, is_write, is_prefetch):
        def attempt():
            req = MemoryRequest(
                kind=RequestKind.WRITE if is_write else RequestKind.READ,
                address=64 * i, is_prefetch=is_prefetch and not is_write,
                request_id=i,
                decoded=DecodedAddress(0, rank, bank, row, i % 128))
            req.on_critical_word = (
                lambda t: times.__setitem__((i, "cw"), t))
            req.on_complete = lambda t: times.__setitem__((i, "done"), t)
            if not mc.enqueue(req):
                events.schedule(events.now + 37, attempt)
        return attempt

    now = 0
    for i, (gap, rank, bank, row, is_write, is_prefetch) in enumerate(stream):
        now += gap
        events.schedule(now, submit(i, rank % ranks, bank % device.num_banks,
                                    row, is_write, is_prefetch))
    events.run_until(now + 40_000)
    return log.commands, times, mc


@st.composite
def request_streams(draw):
    """(arrival gap, rank, bank, row, write?, prefetch?) per request.

    Few banks and rows so row hits, conflicts and same-bank queues are
    common; bursts of zero gaps fill the queues and trigger write drains,
    long gaps let ranks power down and refreshes fall due mid-stream.
    """
    return draw(st.lists(st.tuples(
        st.one_of(st.integers(0, 3), st.integers(0, 400),
                  st.integers(2000, 6000)),
        st.integers(0, 7), st.integers(0, 3), st.integers(0, 2),
        st.booleans(), st.booleans()), min_size=1, max_size=70))


@pytest.mark.parametrize("config_name", sorted(IDLE_TICK_CONFIGS))
@settings(max_examples=40, deadline=None)
@given(stream=request_streams())
def test_idle_ticks_issue_the_same_commands(config_name, stream):
    commands, times, fast = _replay(_CountingController, config_name, stream)
    ref_commands, ref_times, full = _replay(_FullTickController,
                                            config_name, stream)
    assert commands == ref_commands
    assert times == ref_times
    assert fast.ticks == full.ticks
    # Every request was served: nothing starved behind an idle tick.
    assert len(times) == 2 * len(stream) - sum(
        1 for *_, is_write, _pf in stream if is_write)


@pytest.mark.parametrize("config_name", sorted(IDLE_TICK_CONFIGS))
def test_idle_path_is_taken(config_name):
    """The equivalence above is only evidence if the idle path runs: on a
    dense mixed stream it must replace some full-path ticks, except where
    aggressive power-down on several ranks rules it out."""
    stream = [((i * 7) % 5, i % 2, (i * 3) % 4, (i // 5) % 3, i % 4 == 0,
               i % 3 == 0) for i in range(60)]
    _, _, fast = _replay(_CountingController, config_name, stream)
    _, _, full = _replay(_FullTickController, config_name, stream)
    assert fast.ticks == full.ticks
    if config_name == "lpddr2-powerdown-2rank":
        assert fast.wake_scans == full.wake_scans
    else:
        assert fast.wake_scans < full.wake_scans


def test_prefetch_conflict_behind_blocked_row_hit():
    """A demand row hit waits on the data bus while a younger unpromoted
    prefetch to another row of the same bank becomes precharge-legal.
    The bank's demand head is a row hit, but its prefetch head may still
    precharge (demand class first, then prefetch class), so the idle
    bound must count that precharge too."""
    stream = [(0, 0, 0, 1, False, False), (0, 0, 0, 2, False, True)]
    commands, times, fast = _replay(_CountingController, "ddr3-open-2rank",
                                    stream, bus_busy_until=3000)
    ref_commands, ref_times, _ = _replay(_FullTickController,
                                         "ddr3-open-2rank", stream,
                                         bus_busy_until=3000)
    assert commands == ref_commands
    assert times == ref_times
    # The prefetch's precharge closes the row the demand needs, before
    # the bus frees up.
    kinds = [kind for _, kind, rank, _ in commands if rank == 0]
    assert kinds[:3] == ["ACT", "PRE", "ACT"]


def test_fcfs_oldest_behind_row_hit_head():
    """FCFS picks its oldest by (arrival time, request id), which need not
    be the first request its bank queued: with equal arrival times a
    younger-queued request with a lower id goes first. Here that request
    needs a precharge while the bank's first request is a row hit stuck
    behind a busy data bus, so the idle bound must count the precharge."""
    def run(cls):
        device, timing, ranks, buses, slots, config = \
            IDLE_TICK_CONFIGS["ddr3-fcfs"]
        events = EventQueue()
        channel = Channel(timing)
        mc = cls(device=device, timing=timing, channel=channel,
                 num_ranks=ranks, events=events, config=config)
        log = _CommandLog()
        mc._san = log
        mc.ranks[0].banks[0].activate(0, 1)
        channel.data_buses[0].reserve(2000, RequestKind.READ, 0)
        times = {}
        for request_id, row in ((10, 1), (5, 2)):
            req = MemoryRequest(kind=RequestKind.READ, address=0,
                                request_id=request_id,
                                decoded=DecodedAddress(0, 0, 0, row, 0))
            req.on_complete = (
                lambda t, i=request_id: times.__setitem__(i, t))
            assert mc.enqueue(req)
        events.run_until(6000)
        return log.commands, times

    commands, times = run(_CountingController)
    assert (commands, times) == run(_FullTickController)
    assert [kind for _, kind, _, _ in commands][:1] == ["PRE"]
    assert set(times) == {5, 10}
