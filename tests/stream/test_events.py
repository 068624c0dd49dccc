"""Event-stream tests: derived configs, trace disjointness, ordering."""

import numpy as np
import pytest

from repro.campaign.cache import DatasetCache
from repro.errors import ConfigurationError
from repro.stream import (
    STREAM_SEED_OFFSET,
    build_link_traces,
    replay_scheduler,
    stream_link_config,
)
from repro.stream.scheduler import KIND_FRAME, KIND_PACKET


def merged_events(traces):
    """Every link's frames and packets as one time-ordered list."""
    return list(replay_scheduler(traces))


class TestStreamLinkConfig:
    def test_keeps_physics_redimensions_dataset(self, smoke_config):
        derived = stream_link_config(smoke_config, links=5, slots=30)
        assert derived.phy == smoke_config.phy
        assert derived.channel == smoke_config.channel
        assert derived.room == smoke_config.room
        assert derived.mobility == smoke_config.mobility
        assert derived.dataset.num_sets == 5
        assert derived.dataset.packets_per_set == 30

    def test_seed_is_disjoint_from_campaign(self, smoke_config):
        derived = stream_link_config(smoke_config, links=2)
        assert derived.seed == smoke_config.seed + STREAM_SEED_OFFSET

    def test_small_link_counts_keep_dataset_valid(self, smoke_config):
        # DatasetConfig requires >= 3 sets.
        derived = stream_link_config(smoke_config, links=1, slots=10)
        assert derived.dataset.num_sets == 3

    def test_validation(self, smoke_config):
        with pytest.raises(ConfigurationError):
            stream_link_config(smoke_config, links=0)
        with pytest.raises(ConfigurationError):
            stream_link_config(smoke_config, links=2, slots=1)

    def test_default_slots_follow_scenario(self, smoke_config):
        derived = stream_link_config(smoke_config, links=2)
        assert (
            derived.dataset.packets_per_set
            == smoke_config.dataset.packets_per_set
        )


class TestLinkTraces:
    def test_each_link_walks_its_own_trajectory(self, smoke_traces):
        a, b = smoke_traces
        assert a.link == 0 and b.link == 1
        assert not np.array_equal(
            a.measurement_set.human_positions,
            b.measurement_set.human_positions,
        )

    def test_traces_disjoint_from_campaign_sets(
        self, smoke_traces, smoke_dataset
    ):
        """No streamed walk replays a training/validation/test set."""
        trace_seeds = {
            p.noise_seed
            for t in smoke_traces
            for p in t.measurement_set.packets
        }
        campaign_seeds = {
            p.noise_seed for s in smoke_dataset for p in s.packets
        }
        assert not trace_seeds & campaign_seeds

    def test_cached_traces_match_generated(
        self, smoke_config, smoke_traces, tmp_path
    ):
        """Cache-resolved traces equal in-process generation, and the
        second resolution is a pure hit."""
        cache = DatasetCache(tmp_path / "cache")
        cached = build_link_traces(
            smoke_config, links=2, slots=20, cache=cache
        )
        assert cache.stats.misses == 1
        for fresh, stored in zip(smoke_traces, cached):
            for a, b in zip(
                fresh.measurement_set.packets,
                stored.measurement_set.packets,
            ):
                assert a.noise_seed == b.noise_seed
                np.testing.assert_array_equal(a.h_ls, b.h_ls)
        again = build_link_traces(
            smoke_config, links=2, slots=20, cache=cache
        )
        assert cache.stats.hits == 1
        assert len(again) == 2


class TestMergedEventStream:
    def test_time_ordered_and_complete(self, smoke_traces):
        events = merged_events(smoke_traces)
        ticks = [e.tick for e in events]
        assert ticks == sorted(ticks)
        packets = [e for e in events if e.kind == KIND_PACKET]
        frames = [e for e in events if e.kind == KIND_FRAME]
        assert len(packets) == sum(
            t.measurement_set.num_packets for t in smoke_traces
        )
        assert len(frames) == sum(
            t.measurement_set.num_frames for t in smoke_traces
        )

    def test_frames_precede_packets_at_equal_time(self, smoke_traces):
        events = merged_events(smoke_traces)
        for earlier, later in zip(events, events[1:]):
            if earlier.tick == later.tick:
                assert earlier.kind_rank <= later.kind_rank

    def test_deterministic_across_calls(self, smoke_traces):
        assert merged_events(smoke_traces) == merged_events(smoke_traces)

    def test_matched_frame_always_precedes_its_packet(
        self, smoke_traces
    ):
        """The LED-matched frame is delivered before the packet event,
        so the prediction service can always serve it in time."""
        events = merged_events(smoke_traces)
        seen: dict[int, int] = {}
        for event in events:
            if event.kind == KIND_FRAME:
                seen[event.link] = max(
                    seen.get(event.link, -1), event.index
                )
            else:
                record = smoke_traces[
                    event.link
                ].measurement_set.packets[event.index]
                assert record.frame_index <= seen.get(event.link, -1)

    def test_empty_traces_raise(self):
        with pytest.raises(ConfigurationError):
            merged_events([])
