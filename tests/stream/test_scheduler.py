"""Heap scheduler unit tests: ticks, ordering, grouping, lazy replay.

Pins the contracts the PR 8 rewrite introduced:

- integer-tick quantization groups packet slots by exact integer
  comparison (the float-`==` grouping regression test uses the
  adversarial 0.0333... s interval that splits slots under per-link
  float accumulation);
- the scheduler holds one pending event per source (O(links) memory);
- zero traces raise a clean ``ConfigurationError`` instead of the old
  ``min() arg is an empty sequence`` crash, both at the scheduler and
  the :class:`StreamSimulator` layers;
- ragged traces keep their established semantics: frames beyond the
  common slot window are still delivered while packets are truncated.
"""

from types import SimpleNamespace

import pytest

from repro.errors import ConfigurationError
from repro.stream.events import LinkTrace
from repro.stream.scheduler import (
    KIND_FRAME,
    KIND_PACKET,
    TICKS_PER_SECOND,
    EventScheduler,
    ReplayLinkSource,
    TickEvent,
    replay_scheduler,
    seconds_to_ticks,
    ticks_to_seconds,
)


def _fake_trace(link, frame_times, packet_times):
    """A duck-typed LinkTrace over synthetic float time grids."""
    packets = [SimpleNamespace(time_s=t) for t in packet_times]
    measurement_set = SimpleNamespace(
        frame_times=list(frame_times),
        packets=packets,
        num_packets=len(packets),
    )
    return LinkTrace(link=link, measurement_set=measurement_set)


class TestTicks:
    def test_round_trip_on_grid(self):
        for time_s in (0.0, 0.001, 0.05, 1.0, 12.345):
            tick = seconds_to_ticks(time_s)
            assert abs(ticks_to_seconds(tick) - time_s) < 1e-9

    def test_float_noise_collapses_onto_one_tick(self):
        # Two ways of computing "30 x 1/30 s" that differ in the last
        # ulp map to the same tick.
        interval = 1.0 / 30.0
        accumulated = 0.0
        for _ in range(30):
            accumulated += interval
        direct = 30 * interval
        assert accumulated != direct  # the float hazard is real
        assert seconds_to_ticks(accumulated) == seconds_to_ticks(direct)

    def test_millisecond_grid_never_merges(self):
        assert seconds_to_ticks(0.001) != seconds_to_ticks(0.002)
        assert (
            seconds_to_ticks(0.002) - seconds_to_ticks(0.001)
            == TICKS_PER_SECOND // 1000
        )


class TestOrdering:
    def test_frames_before_packets_at_equal_tick(self):
        frame = TickEvent(tick=100, kind=KIND_FRAME, link=5, index=0)
        packet = TickEvent(tick=100, kind=KIND_PACKET, link=0, index=0)
        assert frame.sort_key() < packet.sort_key()

    def test_link_breaks_ties_within_kind(self):
        a = TickEvent(tick=100, kind=KIND_PACKET, link=0, index=3)
        b = TickEvent(tick=100, kind=KIND_PACKET, link=1, index=3)
        assert a.sort_key() < b.sort_key()


class TestEventScheduler:
    def test_pending_is_one_per_live_source(self):
        traces = [
            _fake_trace(link, [0.0, 0.5], [0.1, 0.2, 0.3])
            for link in range(8)
        ]
        scheduler = replay_scheduler(traces)
        # 8 sources x 5 events each, but only 8 pending at once.
        assert scheduler.pending == 8
        scheduler.pop()
        assert scheduler.pending == 8  # popped source re-armed

    def test_drain_order_matches_dense_sort(self):
        traces = [
            _fake_trace(0, [0.0, 0.1], [0.05, 0.15]),
            _fake_trace(1, [0.0, 0.1], [0.05, 0.15]),
        ]
        drained = list(replay_scheduler(traces))
        keys = [event.sort_key() for event in drained]
        assert keys == sorted(keys)
        # At t=0.05 both links' packets group after both frames at 0.0.
        same_tick = [e for e in drained if e.tick == seconds_to_ticks(0.05)]
        assert [e.link for e in same_tick] == [0, 1]

    def test_pop_slot_group_stops_at_frames_and_other_ticks(self):
        traces = [
            _fake_trace(0, [0.05], [0.02, 0.08]),
            _fake_trace(1, [], [0.02, 0.08]),
        ]
        scheduler = replay_scheduler(traces)
        first = scheduler.pop_slot_group()
        assert [(e.link, e.index) for e in first] == [(0, 0), (1, 0)]
        # Next event is the frame at 0.05: the group scan returns [].
        assert scheduler.peek().kind == KIND_FRAME
        assert scheduler.pop_slot_group() == []
        scheduler.pop()
        second = scheduler.pop_slot_group()
        assert [(e.link, e.index) for e in second] == [(0, 1), (1, 1)]
        assert scheduler.pop() is None

    def test_empty_traces_raise_configuration_error(self):
        with pytest.raises(ConfigurationError):
            replay_scheduler([])
        with pytest.raises(ConfigurationError):
            replay_scheduler(iter(()))  # exhausted generators too

    def test_adversarial_interval_groups_by_tick(self):
        # 0.0333... s accumulated per link drifts in the last ulp at
        # different slot counts; the dense float-`==` scan split such
        # slots across links.  Integer ticks must group them.
        interval = 1.0 / 30.0
        times_a = [(i + 1) * interval for i in range(12)]
        accumulated = []
        acc = 0.0
        for _ in range(12):
            acc += interval
            accumulated.append(acc)
        assert times_a != accumulated  # per-link float drift is real
        traces = [
            _fake_trace(0, [], times_a),
            _fake_trace(1, [], accumulated),
        ]
        scheduler = replay_scheduler(traces)
        groups = []
        while scheduler.peek() is not None:
            groups.append(scheduler.pop_slot_group())
        assert len(groups) == 12
        assert all(len(group) == 2 for group in groups)


class TestRaggedTraces:
    def test_max_slots_truncates_packets_not_frames(self):
        trace = _fake_trace(0, [0.0, 0.1, 0.2, 0.3], [0.05, 0.15, 0.25])
        source = ReplayLinkSource(trace, max_slots=1)
        drained = []
        while True:
            event = source.next_event()
            if event is None:
                break
            drained.append(event)
        kinds = [(e.kind, e.index) for e in drained]
        # One packet survives; every frame — including those beyond the
        # truncated window — is still delivered.
        assert kinds == [
            (KIND_FRAME, 0),
            (KIND_PACKET, 0),
            (KIND_FRAME, 1),
            (KIND_FRAME, 2),
            (KIND_FRAME, 3),
        ]


class TestMergeEventStreams:
    def test_empty_iterable_raises(self):
        with pytest.raises(ConfigurationError):
            replay_scheduler([])
        with pytest.raises(ConfigurationError):
            replay_scheduler(trace for trace in ())


class TestSimulatorGuards:
    def test_zero_traces_raise_cleanly(self, smoke_config):
        # The PR 8 bugfix pin: this used to crash with
        # `ValueError: min() arg is an empty sequence` inside run().
        from repro.dataset import build_components
        from repro.stream import StreamSimulator, stream_link_config

        components = build_components(
            stream_link_config(smoke_config, 2, slots=20)
        )
        with pytest.raises(ConfigurationError):
            StreamSimulator(components, [])
        with pytest.raises(ConfigurationError):
            StreamSimulator(components, (t for t in ()))

    def test_ragged_run_filters_packets_keeps_frames(
        self, smoke_config, smoke_traces
    ):
        # A link with fewer packet slots shrinks the common window; the
        # replay must truncate *packets* to it while frames beyond the
        # window still arrive (the camera keeps filming), exactly as
        # the dense pre-sorted scan behaved.
        import dataclasses

        from repro.dataset import build_components
        from repro.stream import (
            StreamSimulator,
            build_policy,
            stream_link_config,
        )

        full, other = smoke_traces
        ragged = LinkTrace(
            link=other.link,
            measurement_set=dataclasses.replace(
                other.measurement_set,
                packets=other.measurement_set.packets[:10],
            ),
        )
        window = min(full.num_slots, ragged.num_slots)
        assert window == 10

        scheduler = replay_scheduler([full, ragged], max_slots=window)
        drained = list(scheduler)
        packet_ticks = [
            e.tick for e in drained if e.kind == KIND_PACKET
        ]
        frame_ticks = [e.tick for e in drained if e.kind == KIND_FRAME]
        assert sum(1 for e in drained if e.kind == KIND_PACKET) == (
            2 * window
        )
        # Frames keep arriving after the last common packet slot.
        assert max(frame_ticks) > max(packet_ticks)

        components = build_components(
            stream_link_config(smoke_config, 2, slots=20)
        )
        simulator = StreamSimulator(
            components, [full, ragged], deadline_slots=3
        )
        result = simulator.run(build_policy("genie"))
        assert result.num_slots == window
        for timeline in result.timelines:
            assert len(timeline.symbols) == window
