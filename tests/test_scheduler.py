"""Scheduler policy helpers."""

from repro.dram.channel import Channel
from repro.dram.controller import ControllerConfig, MemoryController
from repro.dram.device import DDR3_DEVICE
from repro.dram.request import DecodedAddress, MemoryRequest, RequestKind
from repro.dram.scheduler import (
    priority_key,
    select_oldest,
)
from repro.dram.timing import DDR3_TIMING, TimingSet
from repro.util.events import EventQueue


def req(arrival=0, is_prefetch=False, promoted=False):
    r = MemoryRequest(kind=RequestKind.READ, address=0,
                      is_prefetch=is_prefetch,
                      decoded=DecodedAddress(0, 0, 0, 0, 0))
    r.arrival_time = arrival
    r.promoted = promoted
    return r


class TestPriorityKey:
    def test_demand_outranks_older_prefetch(self):
        demand = req(arrival=100)
        prefetch = req(arrival=0, is_prefetch=True)
        assert priority_key(demand) < priority_key(prefetch)

    def test_promoted_prefetch_competes_as_demand(self):
        promoted = req(arrival=0, is_prefetch=True, promoted=True)
        demand = req(arrival=50)
        assert priority_key(promoted) < priority_key(demand)

    def test_age_breaks_ties(self):
        older = req(arrival=10)
        newer = req(arrival=20)
        assert priority_key(older) < priority_key(newer)


class TestPromotion:
    """Age-based promotion, as the controller runs it on its read queue."""

    @staticmethod
    def controller(age_threshold):
        timing = TimingSet(DDR3_TIMING)
        return MemoryController(
            device=DDR3_DEVICE, timing=timing, channel=Channel(timing),
            num_ranks=1, events=EventQueue(),
            config=ControllerConfig(prefetch_age_threshold=age_threshold,
                                    refresh_enabled=False))

    def test_promotes_only_aged(self):
        mc = self.controller(age_threshold=500)
        old = req(is_prefetch=True)
        young = req(is_prefetch=True)
        assert mc.enqueue(old) and mc.enqueue(young)
        young.arrival_time = 900
        mc._promote_aged(1000)
        assert old.promoted and not young.promoted
        assert mc._unpromoted_prefetches == 1
        # The next promotion falls due when the young prefetch ages out.
        assert mc._promote_due == 900 + 500

    def test_demands_untouched(self):
        mc = self.controller(age_threshold=1)
        demand = req()
        assert mc.enqueue(demand)
        mc._promote_aged(10_000)
        assert not demand.promoted
        assert mc._unpromoted_prefetches == 0


class TestSelection:
    def test_select_oldest(self):
        a, b = req(arrival=5), req(arrival=3)
        assert select_oldest([a, b]) is b
        assert select_oldest([]) is None
        # An older prefetch still ranks behind a demand.
        prefetch = req(arrival=0, is_prefetch=True)
        demand = req(arrival=100)
        assert select_oldest([prefetch, demand]) is demand
