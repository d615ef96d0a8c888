"""Per-channel memory controller.

Implements the paper's controller model (Section 5):

* separate read and write queues (48 entries each) with high/low
  watermark write draining (32/16),
* FR-FCFS scheduling for open-page devices, close-page single-command
  scheduling for RLDRAM3,
* demand-over-prefetch priority with age-based promotion,
* per-rank refresh every tREFI, and
* an aggressive idle power-down policy for low-power ranks.

The controller is event-driven: it ticks on bus-cycle boundaries only
while work is pending, and otherwise sleeps until the next request or
refresh.

The issue loops are the simulator's inner kernel, so the controller
follows the same discipline as the bank/rank/bus models: ``__slots__``,
per-command timing constraints flattened to integer attributes at
construction (bus-cycle alignment, CAS data latencies, the burst beat),
a per-rank data-bus table replacing the ``rank_to_bus`` dict lookup,
and a live count of unpromoted prefetches so the common no-prefetch
case skips the promotion scan entirely.

Each queue is also indexed by ``(rank, bank)``: a bank keeps its queued
requests in queue order, one list per demand class, plus a count per
row, and every request carries an enqueue sequence number. The
scheduler walks busy banks, not queued requests, and rejects a whole
rank or bank on rank/bank state (wake, open row, column/PRE/ACT
horizons, data-bus start). The FR-FCFS winner is the lowest sequence
number among legal bank heads of a demand class, which is exactly the
first legal request in queue order.

A non-issuing tick records ``_idle_until``: a lower bound on the first
cycle any queued command could become legal or refresh service could
change state. Until then
a tick is provably idle and takes an O(1) path that does only what the
full path would (drain flag, occupancy sample, due promotions) and
reschedules at the same time. Ticks themselves are never skipped: the
wake schedule fixes the event order of same-cycle enqueues and queue
checks, so dropping a tick changes results.

All of it is bit-identical to the straightforward form: the same
commands issue at the same cycles in the same order.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from operator import attrgetter
from typing import Dict, List, Optional

from repro.dram.bank import BankState
from repro.dram.channel import Channel
from repro.dram.device import DeviceConfig, PagePolicy
from repro.dram.request import MemoryRequest, RequestKind, WORDS_PER_LINE
from repro.dram.rank import PowerState, Rank
from repro.dram.scheduler import (
    SchedulingPolicy,
    select_oldest,
)
from repro.dram.timing import TimingSet
from repro.telemetry.registry import (
    MetricsRegistry,
    NULL_COUNTER,
    NULL_HISTOGRAM,
)
from repro.telemetry.trace import NULL_TRACER
from repro.util.events import EventQueue

FAR_FUTURE = 1 << 62

_queue_position = attrgetter("enqueue_seq")


class _DeliverCritical:
    """Scheduled critical-word delivery (picklable, not a closure)."""

    __slots__ = ("req",)

    def __init__(self, req: MemoryRequest) -> None:
        self.req = req

    def __call__(self) -> None:
        req = self.req
        req.on_critical_word(req.critical_word_time)


class _DeliverComplete:
    """Scheduled line-completion delivery (picklable, not a closure)."""

    __slots__ = ("req",)

    def __init__(self, req: MemoryRequest) -> None:
        self.req = req

    def __call__(self) -> None:
        req = self.req
        req.on_complete(req.completion_time)


class _BankQueue:
    """One queue's requests to one bank, per demand class in queue order.

    ``reqs`` holds demands and promoted prefetches, ``pfs`` unpromoted
    prefetches (read queue only), so each class head is its list's
    first entry. ``rows`` counts both lists' requests per row, so "does
    any request hit the open row?" and "does any conflict with it?" are
    O(1).
    """

    __slots__ = ("bank", "reqs", "pfs", "rows")

    def __init__(self, bank) -> None:
        self.bank = bank
        self.reqs: List[MemoryRequest] = []
        self.pfs: List[MemoryRequest] = []
        self.rows: Dict[int, int] = {}


@dataclass
class ControllerConfig:
    """Knobs from paper Table 1 plus policy switches."""

    read_queue_size: int = 48
    write_queue_size: int = 48
    high_watermark: int = 32
    low_watermark: int = 16
    scheduling: SchedulingPolicy = SchedulingPolicy.FR_FCFS
    prefetch_age_threshold: int = 2000   # CPU cycles before promotion
    powerdown_idle_threshold: int = 640  # CPU cycles (200 ns at 3.2 GHz)
    aggressive_powerdown: bool = False   # LPDRAM channels sleep eagerly
    refresh_enabled: bool = True


class ControllerStats:
    """Aggregated latency and throughput accounting.

    Slotted plain class: the counters are bumped on every completed
    command, and ``__slots__`` keeps those attribute writes off a dict.
    """

    __slots__ = (
        "reads_done", "writes_done", "sum_queue_latency",
        "sum_core_latency", "sum_total_latency", "sum_critical_latency",
        "refreshes", "prefetches_done",
    )

    def __init__(self) -> None:
        self.reads_done = 0
        self.writes_done = 0
        self.sum_queue_latency = 0
        self.sum_core_latency = 0
        self.sum_total_latency = 0
        self.sum_critical_latency = 0
        self.refreshes = 0
        self.prefetches_done = 0

    @property
    def avg_queue_latency(self) -> float:
        return self.sum_queue_latency / self.reads_done if self.reads_done else 0.0

    @property
    def avg_core_latency(self) -> float:
        return self.sum_core_latency / self.reads_done if self.reads_done else 0.0

    @property
    def avg_total_latency(self) -> float:
        return self.sum_total_latency / self.reads_done if self.reads_done else 0.0


class MemoryController:
    """One controller driving one channel of homogeneous DIMMs.

    ``rank_to_bus`` maps each rank to the data (sub-)bus it answers on;
    the default maps every rank to bus 0 (a conventional channel). The
    aggregated critical-word channel maps rank *i* to bus *i*.
    """

    __slots__ = (
        "device", "timing", "channel", "events", "config", "name",
        "ranks", "rank_to_bus", "read_queue", "write_queue", "stats",
        "_draining_writes", "_tick_event", "_next_refresh",
        "registry", "tracer",
        "_h_queue_lat", "_h_critical_lat", "_h_total_lat", "_h_occupancy",
        "_c_refreshes", "_c_promotions",
        # Precomputed hot-path constants and fast-path state.
        "_bus_cycle", "_t_rl", "_t_wl", "_t_rc", "_t_refi", "_t_rfc",
        "_beat", "_slots_per_cycle", "_cmd_bus", "_cmd_earliest",
        "_cmd_reserve", "_rank_bus",
        "_close_page", "_unpromoted_prefetches", "_refresh_due",
        "_telemetry",
        # Config knobs flattened to instance attributes: the config is
        # never mutated after construction, and these are read every tick.
        "_refresh_enabled", "_aggressive_pd", "_pd_threshold",
        "_age_threshold", "_fr_fcfs", "_rd_size", "_wr_size",
        "_high_wm", "_low_wm", "_idle_tick_ok",
        # Per-queue (rank, bank) index: busy ranks -> busy banks ->
        # _BankQueue, plus every bank's _BankQueue by [rank][bank].
        "_rd_index", "_wr_index", "_rd_banks", "_wr_banks", "_seq",
        # Earliest promotion time (a lower bound; FAR_FUTURE if none).
        "_promote_due",
        # Provably-idle state from the last non-issuing tick: the raw
        # wake bound and the first cycle anything could become legal.
        "_wake_bound", "_idle_until",
        # Optional protocol sanitizer (shadow timing/FSM model); None on
        # un-instrumented runs so every hook costs one identity check.
        "_san",
    )

    def __init__(self, device: DeviceConfig, timing: TimingSet,
                 channel: Channel, num_ranks: int,
                 events: EventQueue,
                 config: Optional[ControllerConfig] = None,
                 rank_to_bus: Optional[Dict[int, int]] = None,
                 name: str = "mc") -> None:
        self.device = device
        self.timing = timing
        self.channel = channel
        self.events = events
        self.config = config or ControllerConfig()
        self.name = name
        self.ranks: List[Rank] = [Rank(device, timing, i) for i in range(num_ranks)]
        self.rank_to_bus = rank_to_bus or {i: 0 for i in range(num_ranks)}
        self.read_queue: List[MemoryRequest] = []
        self.write_queue: List[MemoryRequest] = []
        self.stats = ControllerStats()
        self._draining_writes = False
        self._tick_event = None
        self._next_refresh = [
            (i + 1) * max(1, timing.t_refi // max(1, num_ranks))
            for i in range(num_ranks)
        ]
        # Telemetry handles default to the shared null sink; an
        # un-instrumented run pays only a single identity check.
        self.registry: Optional[MetricsRegistry] = None
        self.tracer = NULL_TRACER
        self._h_queue_lat = NULL_HISTOGRAM
        self._h_critical_lat = NULL_HISTOGRAM
        self._h_total_lat = NULL_HISTOGRAM
        self._h_occupancy = NULL_HISTOGRAM
        self._c_refreshes = NULL_COUNTER
        self._c_promotions = NULL_COUNTER
        self._telemetry = False
        # Flat per-command timing constants (CPU cycles).
        self._bus_cycle = timing.bus_cycle
        self._t_rl = timing.t_rl
        self._t_wl = timing.t_wl
        self._t_rc = timing.t_rc
        self._t_refi = timing.t_refi
        self._t_rfc = timing.t_rfc
        self._beat = max(1, timing.t_burst // WORDS_PER_LINE)
        self._slots_per_cycle = channel.cmd_bus.slots_per_cycle
        self._cmd_bus = channel.cmd_bus
        # Bound methods of the command bus, looked up once: every issue
        # attempt probes/reserves a command slot.
        self._cmd_earliest = channel.cmd_bus.earliest_slot
        self._cmd_reserve = channel.cmd_bus.reserve
        # Per-rank data bus, resolved once (replaces dict lookup per CAS).
        self._rank_bus = [channel.data_buses[self.rank_to_bus[i]]
                          for i in range(num_ranks)]
        self._close_page = device.page_policy is PagePolicy.CLOSE
        # Live count of queued unpromoted prefetches: while it is zero
        # promotion never scans the read queue.
        self._unpromoted_prefetches = 0
        self._promote_due = FAR_FUTURE
        self._rd_index: Dict[int, Dict[int, _BankQueue]] = {}
        self._wr_index: Dict[int, Dict[int, _BankQueue]] = {}
        self._rd_banks = [[_BankQueue(bank) for bank in rank.banks]
                          for rank in self.ranks]
        self._wr_banks = [[_BankQueue(bank) for bank in rank.banks]
                          for rank in self.ranks]
        self._seq = 0
        self._wake_bound = FAR_FUTURE
        self._idle_until = 0
        self._refresh_due = min(self._next_refresh) if num_ranks else FAR_FUTURE
        cfg = self.config
        self._refresh_enabled = cfg.refresh_enabled
        self._aggressive_pd = cfg.aggressive_powerdown
        self._pd_threshold = cfg.powerdown_idle_threshold
        self._age_threshold = cfg.prefetch_age_threshold
        self._fr_fcfs = cfg.scheduling is SchedulingPolicy.FR_FCFS
        self._rd_size = cfg.read_queue_size
        self._wr_size = cfg.write_queue_size
        self._high_wm = cfg.high_watermark
        self._low_wm = cfg.low_watermark
        # Aggressive power-down on a multi-rank channel may put an idle
        # rank to sleep while others have work, so no tick is provably
        # idle there.
        self._idle_tick_ok = not (self._aggressive_pd and num_ranks > 1)
        self._san = None

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------

    def attach_telemetry(self, registry: MetricsRegistry,
                         tracer=None) -> None:
        """Bind hot-path metric handles under ``dram.<name>.*``."""
        ns = f"dram.{self.name}"
        self.registry = registry
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._h_queue_lat = registry.histogram(f"{ns}.queue_latency_cycles")
        self._h_critical_lat = registry.histogram(
            f"{ns}.critical_latency_cycles")
        self._h_total_lat = registry.histogram(f"{ns}.total_latency_cycles")
        self._h_occupancy = registry.histogram(f"{ns}.read_queue_occupancy")
        self._c_refreshes = registry.counter(f"{ns}.refreshes")
        self._c_promotions = registry.counter(f"{ns}.prefetch_promotions")
        self._telemetry = True

    def export_telemetry(self, elapsed_cycles: int) -> None:
        """Publish end-of-run structural counters (per rank, per bank).

        These are read off the existing bank/rank statistics rather than
        incremented on the hot path, so the per-bank breakdown costs
        nothing during simulation.
        """
        if self.registry is None:
            return
        registry = self.registry
        ns = f"dram.{self.name}"
        registry.gauge(f"{ns}.reads_done").set(self.stats.reads_done)
        registry.gauge(f"{ns}.writes_done").set(self.stats.writes_done)
        registry.gauge(f"{ns}.prefetches_done").set(self.stats.prefetches_done)
        registry.gauge(f"{ns}.avg_queue_latency").set(
            self.stats.avg_queue_latency)
        self.channel.export_telemetry(registry, ns, elapsed_cycles)
        for rank in self.ranks:
            rns = f"{ns}.rank{rank.index}"
            for key, value in rank.telemetry_items(self.events.now).items():
                registry.gauge(f"{rns}.{key}").set(value)
            for bank in rank.banks:
                bns = f"{rns}.bank{bank.index}"
                for key, value in bank.telemetry_items().items():
                    registry.gauge(f"{bns}.{key}").set(value)

    # ------------------------------------------------------------------
    # Public interface
    # ------------------------------------------------------------------

    def enqueue(self, request: MemoryRequest) -> bool:
        """Accept a request; returns False if the target queue is full.

        Queue-order invariant: removal never reorders a queue, so queue
        order is enqueue order, and ``enqueue_seq`` numbers it. Within
        one demand class the first ready request in queue order is the
        FR-FCFS winner, i.e. the lowest ``enqueue_seq`` among the legal
        heads of the per-bank lists. Requests also arrive with monotone
        ``arrival_time`` and ``request_id``, so queue order is
        ``(arrival_time, request_id)`` order, and the oldest unpromoted
        prefetch is the first one in the read queue.
        """
        d = request.decoded
        if request.is_read:
            queue = self.read_queue
            if len(queue) >= self._rd_size:
                return False
            bq = self._rd_banks[d.rank][d.bank]
            index = self._rd_index
        else:
            queue = self.write_queue
            if len(queue) >= self._wr_size:
                return False
            bq = self._wr_banks[d.rank][d.bank]
            index = self._wr_index
        now = self.events.now
        request.arrival_time = now
        request.enqueue_seq = self._seq
        self._seq += 1
        queue.append(request)
        rows = bq.rows
        if not rows:
            banks = index.get(d.rank)
            if banks is None:
                banks = index[d.rank] = {}
            banks[d.bank] = bq
        rows[d.row] = rows.get(d.row, 0) + 1
        if request.is_prefetch and not request.promoted:
            if not self._unpromoted_prefetches:
                self._promote_due = now + self._age_threshold
            self._unpromoted_prefetches += 1
            bq.pfs.append(request)
        else:
            bq.reqs.append(request)
        self._idle_until = 0
        rank = self.ranks[d.rank]
        if rank.power_state in (PowerState.POWER_DOWN, PowerState.SELF_REFRESH):
            rank.wake(now)
            if self._san is not None:
                self._san.note_wake(now, d.rank, rank.wake_time)
        self._schedule_tick(now)
        return True

    @property
    def read_queue_free(self) -> int:
        return self.config.read_queue_size - len(self.read_queue)

    @property
    def write_queue_free(self) -> int:
        return self.config.write_queue_size - len(self.write_queue)

    def busy(self) -> bool:
        return bool(self.read_queue or self.write_queue)

    def finalize(self) -> None:
        """Fold power-state residency tallies up to the current time."""
        for rank in self.ranks:
            rank.finalize_tally(self.events.now)

    # ------------------------------------------------------------------
    # Tick machinery
    # ------------------------------------------------------------------

    def _schedule_tick(self, when: int) -> None:
        now = self.events.now
        if when < now:
            when = now
        # Align to the next bus-cycle boundary.
        bus = self._bus_cycle
        when = ((when + bus - 1) // bus) * bus
        tick = self._tick_event
        if tick is not None and not tick.cancelled:
            if tick.time <= when:
                return
            tick.cancel()
        self._tick_event = self.events.schedule(when, self._tick)

    def _tick(self) -> None:
        self._tick_event = None
        now = self.events.now
        idle = now < self._idle_until
        if (not idle and self._refresh_enabled
                and now >= self._refresh_due):
            self._service_refresh(now)
        if now >= self._promote_due:
            self._promote_aged(now)
        write_depth = len(self.write_queue)
        if self._draining_writes:
            if write_depth <= self._low_wm:
                self._draining_writes = False
        elif write_depth >= self._high_wm:
            self._draining_writes = True
        if self._telemetry:
            self._h_occupancy.observe(len(self.read_queue))

        if idle:
            # Provably idle: no queued command can become legal and
            # refresh service can change nothing before ``_idle_until``,
            # and nothing has changed since the tick that computed it
            # (enqueue resets it). The full path would issue nothing and
            # return this same wake time.
            next_time = self._wake_bound
            if next_time <= now:
                next_time = now + self._bus_cycle
            cap = now + self._t_rc
            if next_time > cap:
                next_time = cap
        else:
            # First slot unrolled: most channels have one command slot per
            # bus cycle, and the loop stops at the first idle slot anyway.
            issued_any = self._issue_one(now)
            if issued_any:
                for _ in range(self._slots_per_cycle - 1):
                    if not self._issue_one(now):
                        break

            if self._aggressive_pd:
                self._try_powerdown(now)

            if not (self.read_queue or self.write_queue):
                # Idle: wake for the next refresh, and — when the sleep
                # policy is on — once the idle threshold elapses so ranks
                # can actually enter power-down.
                target = FAR_FUTURE
                if self._refresh_enabled:
                    target = min(self._next_refresh)
                if self._aggressive_pd and any(
                        r.power_state is PowerState.STANDBY
                        for r in self.ranks):
                    target = min(target, now + self._pd_threshold)
                if target < FAR_FUTURE:
                    # Never reschedule at the current instant: an overdue
                    # refresh blocked on bank timing must wait for time
                    # to advance.
                    self._schedule_tick(max(target, now + self._bus_cycle))
                return
            next_time = (now + self._bus_cycle if issued_any
                         else self._next_wake_time(now))
        floor = now + 1
        self._schedule_tick(next_time if next_time > floor else floor)

    def _promote_aged(self, now: int) -> None:
        """Promote prefetches that waited ``prefetch_age_threshold``.

        The read queue is in arrival order, so the scan stops at the
        first unpromoted prefetch too young to promote, and its age-out
        time is the next due time. ``_promote_due`` may run early (an
        issued prefetch leaves it stale), never late.
        """
        threshold = self._age_threshold
        due = FAR_FUTURE
        promoted = 0
        if self._unpromoted_prefetches:
            rd_banks = self._rd_banks
            for req in self.read_queue:
                if req.is_prefetch and not req.promoted:
                    if now - req.arrival_time < threshold:
                        due = req.arrival_time + threshold
                        break
                    req.promoted = True
                    d = req.decoded
                    bq = rd_banks[d.rank][d.bank]
                    # The bank's oldest unpromoted prefetch joins the
                    # demand class at its queue position.
                    bq.pfs.remove(req)
                    insort(bq.reqs, req, key=_queue_position)
                    promoted += 1
        if promoted:
            self._unpromoted_prefetches -= promoted
            self._c_promotions.inc(promoted)
        self._promote_due = due

    def _next_wake_time(self, now: int) -> int:
        """Conservative earliest time any queued command could issue.

        One pass over the busy banks of both queues. A bank contributes
        the horizon of each command its requests could need: the column
        horizon if any request hits the open row, the precharge horizon
        if any conflicts with it, the activate horizon if it is closed
        (close-page: the access horizon). The minimum, taken without the
        present time, is kept as ``_wake_bound``.

        The same pass records ``_idle_until``: that minimum with the
        data-bus start folded into column and close-page access terms,
        a precharge term only where a class head conflicts, and capped
        by :meth:`_refresh_bound`. No command can be legal before it, so
        ticks before it are provably idle.
        """
        bound = FAR_FUTURE
        idle_until = FAR_FUTURE
        ranks = self.ranks
        rank_bus = self._rank_bus
        close = self._close_page
        fr_fcfs = self._fr_fcfs
        active = BankState.ACTIVE
        for index, is_read in ((self._rd_index, True),
                               (self._wr_index, False)):
            if not index:
                continue
            if is_read:
                kind = RequestKind.READ
                t_lat = self._t_rl
            else:
                kind = RequestKind.WRITE
                t_lat = self._t_wl
            for r_i, banks in index.items():
                rank = ranks[r_i]
                wake = rank.wake_time
                if close:
                    rank_t = rank.next_act_allowed
                    if wake > rank_t:
                        rank_t = wake
                    bus_t = None
                    for bq in banks.values():
                        t = bq.bank.next_activate
                        if rank_t > t:
                            t = rank_t
                        if t < bound:
                            bound = t
                        if t < idle_until:
                            if bus_t is None:
                                bus_t = (rank_bus[r_i].earliest_start(
                                    0, kind, r_i) - t_lat)
                            if bus_t > t:
                                t = bus_t
                            if t < idle_until:
                                idle_until = t
                    continue
                bus_t = None
                act_t = None
                for bq in banks.values():
                    bank = bq.bank
                    if bank.state is active:
                        hits = bq.rows.get(bank.open_row, 0)
                        if hits:
                            t = bank.next_read if is_read else bank.next_write
                            if wake > t:
                                t = wake
                            if t < bound:
                                bound = t
                            if t < idle_until:
                                if bus_t is None:
                                    bus_t = (rank_bus[r_i].earliest_start(
                                        0, kind, r_i) - t_lat)
                                if bus_t > t:
                                    t = bus_t
                                if t < idle_until:
                                    idle_until = t
                        reqs = bq.reqs
                        pfs = bq.pfs
                        if hits == len(reqs) + len(pfs):
                            continue
                        t = bank.next_precharge
                        if wake > t:
                            t = wake
                        if t < bound:
                            bound = t
                        # Under FR-FCFS only a class head may precharge.
                        # Without unpromoted prefetches the bank's one
                        # head is its first demand; with them, promotions
                        # can make any of them a head, so count every
                        # conflict (as for FCFS, whose oldest is picked
                        # by priority key, not queue position).
                        if (t < idle_until and (
                                pfs or reqs[0].decoded.row != bank.open_row
                                or not fr_fcfs)):
                            idle_until = t
                        continue
                    else:
                        if act_t is None:
                            # tRRD/tFAW/wake horizon, without the present.
                            act_t = rank.earliest_activate(0)
                        t = bank.next_activate
                        if act_t > t:
                            t = act_t
                    if t < bound:
                        bound = t
                    if t < idle_until:
                        idle_until = t
        if self._idle_tick_ok:
            if self._refresh_enabled and self._refresh_due < idle_until:
                idle_until = self._refresh_bound(idle_until)
            self._idle_until = idle_until
        self._wake_bound = bound
        if bound <= now:
            bound = now + self._bus_cycle
        cap = now + self._t_rc
        return bound if bound < cap else cap

    # ------------------------------------------------------------------
    # Issue logic
    # ------------------------------------------------------------------

    def _issue_one(self, now: int) -> bool:
        if self._draining_writes:
            is_read = False
        else:
            is_read = bool(self.read_queue)
        if not (self.read_queue if is_read else self.write_queue):
            return False
        # Every command class needs a command-bus slot at ``now``; when
        # none is free nothing can issue this tick.
        if self._cmd_earliest(now) != now:
            return False
        issue = (self._issue_close_page if self._close_page
                 else self._issue_open_page)
        if issue(now, is_read):
            return True
        # Drain gaps: while a write drain waits on bank timing, let a
        # ready read slip in rather than stalling the channel (and vice
        # versa when serving reads leaves the cycle idle).
        if not (self.write_queue if is_read else self.read_queue):
            return False
        return issue(now, not is_read)

    def _dequeue(self, req: MemoryRequest) -> None:
        """Remove an issued request from its queue and the bank index."""
        d = req.decoded
        if req.is_read:
            self.read_queue.remove(req)
            bq = self._rd_banks[d.rank][d.bank]
            index = self._rd_index
        else:
            self.write_queue.remove(req)
            bq = self._wr_banks[d.rank][d.bank]
            index = self._wr_index
        if req.is_prefetch and not req.promoted:
            self._unpromoted_prefetches -= 1
            bq.pfs.remove(req)
        else:
            bq.reqs.remove(req)
        rows = bq.rows
        count = rows[d.row] - 1
        if count:
            rows[d.row] = count
        else:
            del rows[d.row]
            if not rows:
                banks = index[d.rank]
                del banks[d.bank]
                if not banks:
                    del index[d.rank]

    # --- open-page (DDR3 / LPDDR2) -------------------------------------

    def _issue_open_page(self, now: int, is_read: bool) -> bool:
        """FR-FCFS over one queue's bank index, in a single bank pass.

        Demand requests (and promoted prefetches) strictly outrank
        unpromoted prefetches (paper Sec 5): prefetches only consume
        bandwidth no demand can use this cycle. Within a class a column-
        ready row hit beats a PRE/ACT, so four candidates are kept, each
        the lowest sequence number of its kind, and the first present of
        demand CAS, demand PRE/ACT, prefetch CAS, prefetch PRE/ACT
        issues. That is the first legal request in queue order of each
        class and step.

        PRE/ACT progress is oldest-first *per bank*: younger requests to
        ready banks must not stall behind one blocked oldest (bank-level
        parallelism), but only the class head of a bank may move its row,
        which prevents precharge ping-pong. The command slot was checked
        by _issue_one and nothing has reserved it since.
        """
        if not self._fr_fcfs:
            return self._issue_fcfs(now, is_read)
        ranks = self.ranks
        rank_bus = self._rank_bus
        active = BankState.ACTIVE
        if is_read:
            index = self._rd_index
            kind = RequestKind.READ
            t_data = now + self._t_rl
        else:
            index = self._wr_index
            kind = RequestKind.WRITE
            t_data = now + self._t_wl
        cas = act = pf_cas = pf_act = None
        cas_seq = act_seq = pf_cas_seq = pf_act_seq = FAR_FUTURE
        for r_i, banks in index.items():
            rank = ranks[r_i]
            if now < rank.wake_time:
                continue
            bus_ok = None
            can_act = None
            for bq in banks.values():
                bank = bq.bank
                if bank.state is active:
                    row = bank.open_row
                    if (row in bq.rows and now >= (
                            bank.next_read if is_read else bank.next_write)):
                        # The data bus must be free exactly when this
                        # burst would start; it is per rank and queue,
                        # and a bus busy past the start rules it out.
                        if bus_ok is None:
                            bus = rank_bus[r_i]
                            bus_ok = (t_data >= bus.free_at
                                      and bus.earliest_start(
                                          t_data, kind, r_i) == t_data)
                        if bus_ok:
                            for r in bq.reqs:
                                if r.decoded.row == row:
                                    if r.enqueue_seq < cas_seq:
                                        cas = r
                                        cas_seq = r.enqueue_seq
                                    break
                            for r in bq.pfs:
                                if r.decoded.row == row:
                                    if r.enqueue_seq < pf_cas_seq:
                                        pf_cas = r
                                        pf_cas_seq = r.enqueue_seq
                                    break
                    if now < bank.next_precharge:
                        continue
                else:
                    if now < bank.next_activate:
                        continue
                    if can_act is None:
                        can_act = rank.earliest_activate(now) <= now
                    if not can_act:
                        continue
                    row = None
                # This bank can take a PRE (if a class head misses the
                # open row) or an ACT (for a class head's row).
                reqs = bq.reqs
                if reqs:
                    head = reqs[0]
                    if (head.enqueue_seq < act_seq
                            and head.decoded.row != row):
                        act = head
                        act_seq = head.enqueue_seq
                pfs = bq.pfs
                if pfs:
                    head = pfs[0]
                    if (head.enqueue_seq < pf_act_seq
                            and head.decoded.row != row):
                        pf_act = head
                        pf_act_seq = head.enqueue_seq
        if cas is not None:
            self._issue_cas(now, cas)
            return True
        if act is None:
            if pf_cas is not None:
                self._issue_cas(now, pf_cas)
                return True
            act = pf_act
            if act is None:
                return False
        d = act.decoded
        rank = ranks[d.rank]
        bank = rank.banks[d.bank]
        self._cmd_reserve(now)
        if bank.state is active:
            bank.precharge(now)
            rank.touch(now)
            if self._san is not None:
                self._san.note_pre(now, d.rank, d.bank)
        else:
            bank.activate(now, d.row)
            rank.note_activate(now)
            if self._san is not None:
                self._san.note_act(now, d.rank, d.bank, d.row)
        if act.first_command_time is None:
            act.first_command_time = now
        return True

    def _issue_fcfs(self, now: int, is_read: bool) -> bool:
        """Strict FCFS: only the oldest request of a class may progress."""
        queue = self.read_queue if is_read else self.write_queue
        if is_read and self._unpromoted_prefetches:
            classes = (
                [r for r in queue if not r.is_prefetch or r.promoted],
                [r for r in queue if r.is_prefetch and not r.promoted],
            )
        else:
            classes = (queue,)
        for cls in classes:
            oldest = select_oldest(cls)
            if oldest is None:
                continue
            if self._cas_ready(now, oldest):
                self._issue_cas(now, oldest)
                return True
            if self._progress_act_pre(now, oldest):
                return True
        return False

    def _cas_ready(self, now: int, req: MemoryRequest) -> bool:
        d = req.decoded
        rank = self.ranks[d.rank]
        if now < rank.wake_time:
            return False
        bank = rank.banks[d.bank]
        if not bank.is_row_hit(d.row):
            return False
        next_col = bank.next_read if req.is_read else bank.next_write
        if now < next_col:
            return False
        # The data bus must be free exactly when this burst would start.
        t_data = now + (self._t_rl if req.is_read else self._t_wl)
        bus = self._rank_bus[d.rank]
        if bus.earliest_start(t_data, req.kind, d.rank) != t_data:
            return False
        return self._cmd_earliest(now) == now

    def _issue_cas(self, now: int, req: MemoryRequest) -> None:
        d = req.decoded
        rank = self.ranks[d.rank]
        bank = rank.banks[d.bank]
        rank.touch(now)
        self._cmd_reserve(now)
        if req.first_command_time is None:
            # CAS with no prior PRE/ACT for this request: a row-buffer hit.
            bank.row_hit_count += 1
        if req.is_read:
            data_start = bank.column_read(now)
        else:
            data_start = bank.column_write(now)
        bus = self._rank_bus[d.rank]
        end = bus.reserve(data_start, req.kind, d.rank)
        if self._san is not None:
            self._san.note_cas(now, d.rank, d.bank, d.row, req.is_read,
                               data_start, end)
        if req.first_command_time is None:
            req.first_command_time = now
        self._complete(req, data_start, end)
        self._dequeue(req)

    def _progress_act_pre(self, now: int, req: MemoryRequest) -> bool:
        """Issue the PRE or ACT the oldest request needs, if legal."""
        d = req.decoded
        rank = self.ranks[d.rank]
        if now < rank.wake_time:
            return False
        bank = rank.banks[d.bank]
        if bank.state is BankState.ACTIVE and bank.open_row != d.row:
            if bank.can_precharge(now) and \
                    self._cmd_earliest(now) == now:
                self._cmd_reserve(now)
                bank.precharge(now)
                rank.touch(now)
                if self._san is not None:
                    self._san.note_pre(now, d.rank, d.bank)
                if req.first_command_time is None:
                    req.first_command_time = now
                return True
            return False
        if bank.state is BankState.IDLE:
            if (bank.can_activate(now) and rank.can_activate(now)
                    and self._cmd_earliest(now) == now):
                self._cmd_reserve(now)
                bank.activate(now, d.row)
                rank.note_activate(now)
                if self._san is not None:
                    self._san.note_act(now, d.rank, d.bank, d.row)
                if req.first_command_time is None:
                    req.first_command_time = now
                return True
        return False

    # --- close-page (RLDRAM3) ------------------------------------------

    def _issue_close_page(self, now: int, is_read: bool) -> bool:
        """Single-command SRAM-style access with auto-precharge."""
        # Best = lowest (demand-class, enqueue_seq) among requests whose
        # rank and bank can take an access now: the lowest-sequence legal
        # demand head wins, else the lowest-sequence legal prefetch head.
        ranks = self.ranks
        rank_bus = self._rank_bus
        if is_read:
            index = self._rd_index
            kind = RequestKind.READ
            t_data = now + self._t_rl
        else:
            index = self._wr_index
            kind = RequestKind.WRITE
            t_data = now + self._t_wl
        best = None
        best_seq = FAR_FUTURE
        fallback = None
        fallback_seq = FAR_FUTURE
        for r_i, banks in index.items():
            rank = ranks[r_i]
            if now < rank.wake_time or now < rank.next_act_allowed:
                continue
            bus_ok = None
            for bq in banks.values():
                if now < bq.bank.next_activate:
                    continue
                if bus_ok is None:
                    bus = rank_bus[r_i]
                    bus_ok = (t_data >= bus.free_at
                              and bus.earliest_start(
                                  t_data, kind, r_i) == t_data)
                    if not bus_ok:
                        break
                reqs = bq.reqs
                if reqs:
                    head = reqs[0]
                    if head.enqueue_seq < best_seq:
                        best = head
                        best_seq = head.enqueue_seq
                elif best is None:
                    head = bq.pfs[0]
                    if head.enqueue_seq < fallback_seq:
                        fallback = head
                        fallback_seq = head.enqueue_seq
        if best is None:
            if fallback is None:
                return False
            best = fallback
        d = best.decoded
        rank = ranks[d.rank]
        bank = rank.banks[d.bank]
        rank.touch(now)
        self._cmd_reserve(now)
        data_start = bank.access(now, is_write=not is_read)
        rank.note_activate(now)
        bus = rank_bus[d.rank]
        end = bus.reserve(data_start, kind, d.rank)
        if self._san is not None:
            self._san.note_access(now, d.rank, d.bank,
                                  not is_read, data_start, end)
        if best.first_command_time is None:
            best.first_command_time = now
        self._complete(best, data_start, end)
        self._dequeue(best)
        return True

    # --- completion ------------------------------------------------------

    def _complete(self, req: MemoryRequest, data_start: int, end: int) -> None:
        req.data_start_time = data_start
        req.completion_time = end
        # Conventional critical-word-first on the bus: the requested word
        # is transferred in the first beat of the (reordered) burst.
        critical_time = data_start + self._beat
        req.critical_word_time = critical_time
        stats = self.stats
        if req.is_read:
            stats.reads_done += 1
            if req.is_prefetch:
                stats.prefetches_done += 1
            queue_latency = req.first_command_time - req.arrival_time
            total_latency = critical_time - req.arrival_time
            stats.sum_queue_latency += queue_latency
            stats.sum_core_latency += critical_time - req.first_command_time
            stats.sum_total_latency += total_latency
            stats.sum_critical_latency += total_latency
            if self._telemetry:
                self._h_queue_lat.observe(queue_latency)
                self._h_critical_lat.observe(total_latency)
                self._h_total_lat.observe(total_latency)
            if req.on_critical_word is not None:
                self.events.schedule(critical_time, _DeliverCritical(req))
        else:
            stats.writes_done += 1
        if self.tracer is not NULL_TRACER:
            self.tracer.record_request(req, self.name)
        if req.on_complete is not None:
            self.events.schedule(end, _DeliverComplete(req))

    # ------------------------------------------------------------------
    # Refresh and power-down
    # ------------------------------------------------------------------

    def _service_refresh(self, now: int) -> None:
        if not self._refresh_enabled:
            return
        next_refresh = self._next_refresh
        for i, rank in enumerate(self.ranks):
            if now < next_refresh[i]:
                continue
            # Close any open banks as they become precharge-legal.
            if rank.open_banks:
                for bank in rank.banks:
                    if (bank.state is BankState.ACTIVE
                            and bank.can_precharge(now)):
                        bank.precharge(now)
                        if self._san is not None:
                            self._san.note_pre(now, i, bank.index,
                                               scheduled=False)
                if rank.open_banks:
                    continue
            if now < rank.wake_time:
                continue
            until = now + self._t_rfc
            for bank in rank.banks:
                bank.refresh_block(now, until)
            rank.touch(now)
            if self._san is not None:
                self._san.note_refresh(now, i, until)
            next_refresh[i] = max(next_refresh[i] + self._t_refi,
                                  now + self._t_refi // 2)
            self.stats.refreshes += 1
            self._c_refreshes.inc()
        self._refresh_due = min(next_refresh)

    def _refresh_bound(self, limit: int) -> int:
        """Lower bound (at most ``limit``) on when refresh service could
        next change state.

        A due refresh first precharges its rank's open banks, each once
        ``next_precharge`` passes, and then refreshes once every bank is
        closed and the rank is awake. Until then a due refresh is
        pending and every service call is a no-op.
        """
        active = BankState.ACTIVE
        for i, due in enumerate(self._next_refresh):
            if due >= limit:
                continue
            rank = self.ranks[i]
            if rank.open_banks:
                t = min(bank.next_precharge for bank in rank.banks
                        if bank.state is active)
            else:
                t = rank.wake_time
            if due > t:
                t = due
            if t < limit:
                limit = t
        return limit

    def _try_powerdown(self, now: int) -> None:
        if not self._aggressive_pd:
            return
        threshold = self._pd_threshold
        ranks = self.ranks
        if len(ranks) == 1:
            # Single-rank channel (every bulk channel): any queued work
            # targets this rank, so the busy-set scan reduces to a
            # queue-emptiness check.
            rank = ranks[0]
            state = rank.power_state
            if (state is PowerState.POWER_DOWN
                    or state is PowerState.SELF_REFRESH
                    or self.read_queue or self.write_queue):
                return
            if rank.open_banks:
                for bank in rank.banks:
                    if (bank.state is BankState.ACTIVE
                            and now - bank.last_use >= threshold
                            and bank.can_precharge(now)):
                        bank.precharge(now)
                        if self._san is not None:
                            self._san.note_pre(now, 0, bank.index,
                                               scheduled=False)
            if rank.try_power_down(now, threshold) and self._san is not None:
                self._san.note_power_down(now, 0)
            return
        for i, rank in enumerate(ranks):
            # Already asleep: banks are closed and there is nothing to do.
            state = rank.power_state
            if state is PowerState.POWER_DOWN or state is PowerState.SELF_REFRESH:
                continue
            # Only sleep ranks with no queued work targeting them.
            if i in self._rd_index or i in self._wr_index:
                continue
            # Close rows that have idled past the threshold so the rank
            # can reach precharge power-down (open-page otherwise pins
            # banks active forever). The open-bank count skips the scan
            # for ranks whose rows are already all closed.
            if rank.open_banks:
                for bank in rank.banks:
                    if (bank.state is BankState.ACTIVE
                            and now - bank.last_use >= threshold
                            and bank.can_precharge(now)):
                        bank.precharge(now)
                        if self._san is not None:
                            self._san.note_pre(now, i, bank.index,
                                               scheduled=False)
            if rank.try_power_down(now, threshold) and self._san is not None:
                self._san.note_power_down(now, i)
