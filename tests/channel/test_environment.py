"""Tests for blockage, noise, mobility, and the indoor environment."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channel import (
    IndoorEnvironment,
    RandomWaypointMobility,
    awgn,
    blockage_attenuation,
    noise_power_for_snr,
    sample_trajectory,
)
from repro.config import ChannelConfig, MobilityConfig, PhyConfig, RoomConfig
from repro.errors import ShapeError
from tests.oracles import is_los_blocked


@pytest.fixture(scope="module")
def environment():
    return IndoorEnvironment(RoomConfig(), ChannelConfig(), PhyConfig())


class TestBlockage:
    def test_deep_loss_inside_radius(self):
        factor = blockage_attenuation(0.0, 0.22, 20.0, 0.1)
        assert factor < 0.15

    def test_unity_far_away(self):
        factor = blockage_attenuation(5.0, 0.22, 20.0, 0.1)
        assert factor == pytest.approx(1.0, abs=1e-6)

    def test_monotone_in_clearance(self):
        factors = [
            blockage_attenuation(c, 0.22, 20.0, 0.2)
            for c in np.linspace(0, 2, 40)
        ]
        assert all(b >= a - 1e-12 for a, b in zip(factors, factors[1:]))

    def test_infinite_clearance(self):
        assert blockage_attenuation(np.inf, 0.22, 20.0, 0.1) == 1.0

    @given(clearance=st.floats(min_value=0.0, max_value=10.0))
    @settings(max_examples=30, deadline=None)
    def test_property_bounded(self, clearance):
        factor = blockage_attenuation(clearance, 0.22, 16.0, 0.25)
        floor = 10 ** (-16.0 / 20.0)
        assert floor * 0.99 <= factor <= 1.0 + 1e-9


class TestNoise:
    def test_power_for_snr(self):
        assert noise_power_for_snr(1.0, 10.0) == pytest.approx(0.1)
        assert noise_power_for_snr(2.0, 3.0) == pytest.approx(
            2.0 / 10 ** 0.3
        )

    def test_awgn_power(self, rng):
        samples = awgn(rng, 200_000, 0.25)
        assert np.mean(np.abs(samples) ** 2) == pytest.approx(0.25, rel=0.02)

    def test_awgn_deterministic_with_seed(self):
        a = awgn(np.random.default_rng(5), 100, 1.0)
        b = awgn(np.random.default_rng(5), 100, 1.0)
        assert np.array_equal(a, b)

    def test_rejects_negative(self, rng):
        with pytest.raises(ShapeError):
            awgn(rng, -1, 1.0)
        with pytest.raises(ShapeError):
            noise_power_for_snr(-1.0, 3.0)


class TestMobility:
    def test_positions_stay_inside_area(self):
        room = RoomConfig()
        walker = RandomWaypointMobility(
            room, MobilityConfig(), np.random.default_rng(0), 60.0
        )
        x0, y0, x1, y1 = room.movement_area
        times = np.linspace(0, 60, 600)
        for t in times:
            x, y = walker.position_at(float(t))
            assert x0 - 1e-9 <= x <= x1 + 1e-9
            assert y0 - 1e-9 <= y <= y1 + 1e-9

    def test_continuity(self):
        walker = RandomWaypointMobility(
            RoomConfig(), MobilityConfig(), np.random.default_rng(1), 30.0
        )
        prev = walker.position_at(0.0)
        max_speed = MobilityConfig().speed_max_mps
        for t in np.arange(0.05, 30, 0.05):
            cur = walker.position_at(float(t))
            assert np.linalg.norm(cur - prev) <= max_speed * 0.05 + 1e-6
            prev = cur

    def test_reproducible(self):
        a = RandomWaypointMobility(
            RoomConfig(), MobilityConfig(), np.random.default_rng(7), 10.0
        )
        b = RandomWaypointMobility(
            RoomConfig(), MobilityConfig(), np.random.default_rng(7), 10.0
        )
        times = np.linspace(0, 10, 50)
        assert np.allclose(sample_trajectory(a, times), sample_trajectory(b, times))


class TestIndoorEnvironment:
    def test_cir_length(self, environment):
        taps = environment.cir((3.0, 2.0))
        assert taps.shape == (ChannelConfig().num_taps,)
        assert taps.dtype == np.complex128

    def test_unblocked_power_near_unity(self, environment):
        assert environment.received_power((0.5, 0.5)) == pytest.approx(
            1.0, rel=0.1
        )

    def test_blockage_reduces_power(self, environment):
        free = environment.received_power((0.5, 0.5))
        blocked = environment.received_power((4.0, 3.0))
        assert blocked < 0.6 * free

    def test_los_blocked_detection(self, environment):
        assert is_los_blocked(environment, (4.0, 3.0))
        assert not is_los_blocked(environment, (4.0, 4.7))

    def test_dominant_taps_are_six_to_eight(self, environment):
        # Paper Fig. 5a: dominant energy at taps 6-8 (1-based).
        taps = np.abs(environment.cir((0.5, 0.5)))
        dominant = int(np.argmax(taps))
        assert dominant in (5, 6, 7)

    def test_hypothesis_1_mobility_changes_mpcs(self, environment):
        # Different displacement -> clearly different CIR (Sec. 2.2 H1).
        h_far = environment.cir((3.0, 4.5))
        h_blocking = environment.cir((4.0, 3.0))
        assert np.max(np.abs(h_far - h_blocking)) > 0.1

    def test_hypothesis_2_same_displacement_same_mpcs(self, environment):
        # Same position at different "times" -> identical CIR (H2).
        h_1 = environment.cir((3.7, 2.4))
        h_2 = environment.cir((3.7, 2.4))
        assert np.allclose(h_1, h_2)

    def test_cir_smooth_away_from_transition(self, environment):
        h_1 = environment.cir((3.0, 4.5))
        h_2 = environment.cir((3.05, 4.5))
        assert np.max(np.abs(h_1 - h_2)) < 0.05

    def test_determinism_across_instances(self):
        env_a = IndoorEnvironment(RoomConfig(), ChannelConfig(), PhyConfig())
        env_b = IndoorEnvironment(RoomConfig(), ChannelConfig(), PhyConfig())
        assert np.allclose(env_a.cir((3.3, 2.2)), env_b.cir((3.3, 2.2)))


class TestGroupedWalkers:
    def test_follower_tracks_leader_inside_area(self):
        from repro.channel import GroupedFollowerMobility

        room = RoomConfig()
        mobility = MobilityConfig(trajectory="grouped", num_humans=2)
        leader = RandomWaypointMobility(
            room, mobility, np.random.default_rng(3), 30.0
        )
        follower = GroupedFollowerMobility(
            leader, room, mobility, np.random.default_rng(4)
        )
        x0, y0, x1, y1 = room.movement_area
        for t in np.linspace(0, 30, 200):
            pos = follower.position_at(float(t))
            assert x0 - 1e-9 <= pos[0] <= x1 + 1e-9
            assert y0 - 1e-9 <= pos[1] <= y1 + 1e-9
            separation = np.linalg.norm(
                pos - leader.position_at(float(t))
            )
            # Clamping can only shrink the offset, never grow it.
            assert separation <= mobility.group_spread_m + 1e-9

    def test_speed_bands_partition_the_range(self):
        from repro.channel import walker_speed_band

        mobility = MobilityConfig(
            speed_min_mps=0.4,
            speed_max_mps=1.6,
            num_humans=3,
            speed_profile="heterogeneous",
        )
        bands = [walker_speed_band(mobility, i) for i in range(3)]
        assert bands[0][0] == pytest.approx(0.4)
        assert bands[-1][1] == pytest.approx(1.6)
        for (lo_a, hi_a), (lo_b, hi_b) in zip(bands, bands[1:]):
            assert hi_a == pytest.approx(lo_b)  # contiguous, disjoint
            assert lo_a < hi_a

    def test_uniform_profile_gives_everyone_the_full_range(self):
        from repro.channel import walker_speed_band

        mobility = MobilityConfig(num_humans=3)
        for index in range(3):
            assert walker_speed_band(mobility, index) == (
                mobility.speed_min_mps,
                mobility.speed_max_mps,
            )

    def test_build_walkers_primary_is_bit_identical_to_make_walker(self):
        # The single-human seed derivation must not change: existing
        # cached datasets replay through build_walkers.
        from repro.channel import build_walkers, make_walker

        room = RoomConfig()
        mobility = MobilityConfig()
        old = make_walker(
            room, mobility, np.random.default_rng([42, 101, 0]), 20.0
        )
        new = build_walkers(room, mobility, (42, 101, 0), 20.0)
        assert len(new) == 1
        times = np.linspace(0, 20, 100)
        assert np.array_equal(
            sample_trajectory(old, times),
            sample_trajectory(new[0], times),
        )

    def test_build_walkers_grouped_cluster(self):
        from repro.channel import GroupedFollowerMobility, build_walkers

        room = RoomConfig()
        mobility = MobilityConfig(
            trajectory="grouped",
            num_humans=3,
            speed_profile="heterogeneous",
        )
        walkers = build_walkers(room, mobility, (7, 101, 0), 15.0)
        assert len(walkers) == 3
        assert isinstance(walkers[0], RandomWaypointMobility)
        assert all(
            isinstance(w, GroupedFollowerMobility) for w in walkers[1:]
        )
        # Distinct follower seeds -> distinct offsets.
        t = 5.0
        assert not np.allclose(
            walkers[1].position_at(t), walkers[2].position_at(t)
        )
