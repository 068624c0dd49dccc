"""Tests for the depth camera, preprocessing and LED synchronization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import CameraConfig, ChannelConfig, RoomConfig
from repro.errors import ShapeError, SynchronizationError
from repro.vision import (
    DepthCamera,
    FrameTimeline,
    match_packet_to_frame,
    normalize_depth,
)
from repro.vision.rendering import (
    ray_box_intersection,
    ray_cylinder_intersection,
    ray_room_intersection,
)
from tests.oracles import (
    block_downsample,
    crop_depth,
    preprocess_720p,
    preprocess_depth,
)


@pytest.fixture(scope="module")
def camera():
    return DepthCamera(CameraConfig(), RoomConfig(), ChannelConfig())


class TestRayPrimitives:
    def test_ray_hits_box_front(self):
        t = ray_box_intersection(
            np.array([0.0, 0.0, 0.0]),
            np.array([[1.0, 0.0, 0.0]]),
            np.array([2.0, -1.0, -1.0]),
            np.array([3.0, 1.0, 1.0]),
        )
        assert t[0] == pytest.approx(2.0)

    def test_ray_misses_box(self):
        t = ray_box_intersection(
            np.array([0.0, 0.0, 0.0]),
            np.array([[0.0, 1.0, 0.0]]),
            np.array([2.0, -1.0, -1.0]),
            np.array([3.0, 1.0, 1.0]),
        )
        assert np.isinf(t[0])

    def test_ray_hits_cylinder_side(self):
        t = ray_cylinder_intersection(
            np.array([0.0, 0.0, 1.0]),
            np.array([[1.0, 0.0, 0.0]]),
            np.array([5.0, 0.0]),
            radius=0.5,
            height=2.0,
        )
        assert t[0] == pytest.approx(4.5)

    def test_ray_over_cylinder_head_misses(self):
        t = ray_cylinder_intersection(
            np.array([0.0, 0.0, 3.0]),
            np.array([[1.0, 0.0, 0.0]]),
            np.array([5.0, 0.0]),
            radius=0.5,
            height=2.0,
        )
        assert np.isinf(t[0])

    def test_ray_hits_cylinder_cap_from_above(self):
        t = ray_cylinder_intersection(
            np.array([5.0, 0.0, 5.0]),
            np.array([[0.0, 0.0, -1.0]]),
            np.array([5.0, 0.0]),
            radius=0.5,
            height=2.0,
        )
        assert t[0] == pytest.approx(3.0)

    def test_room_interior_hit(self):
        t = ray_room_intersection(
            np.array([4.0, 3.0, 1.5]),
            np.array([[0.0, 0.0, -1.0]]),
            8.0,
            6.0,
            3.0,
        )
        assert t[0] == pytest.approx(1.5)

    def test_cylinder_rejects_bad_args(self):
        with pytest.raises(ShapeError):
            ray_cylinder_intersection(
                np.zeros(3), np.ones((1, 3)), np.zeros(2), -1.0, 2.0
            )


class TestDepthCamera:
    def test_render_shape(self, camera):
        image = camera.render((4.0, 3.0))
        assert image.shape == CameraConfig().render_shape
        assert np.all(np.isfinite(image))

    def test_human_closer_than_background(self, camera):
        with_human = camera.render((4.0, 3.0))
        static = camera.static_depth
        assert np.all(with_human <= static + 1e-9)
        assert np.any(with_human < static - 0.1)

    def test_human_position_changes_image(self, camera):
        a = camera.render((3.0, 2.0))
        b = camera.render((5.0, 4.0))
        assert np.max(np.abs(a - b)) > 0.5

    def test_same_position_same_image(self, camera):
        assert np.array_equal(
            camera.render((4.2, 2.8)), camera.render((4.2, 2.8))
        )

    def test_depth_clipped_at_max(self, camera):
        assert camera.render((4.0, 3.0)).max() <= CameraConfig().max_depth_m


class TestPreprocessing:
    def test_block_downsample_means(self):
        image = np.arange(16, dtype=float).reshape(4, 4)
        down = block_downsample(image, 2)
        assert down.shape == (2, 2)
        assert down[0, 0] == pytest.approx(np.mean([0, 1, 4, 5]))

    def test_downsample_drops_partial_blocks(self):
        image = np.ones((7, 9))
        assert block_downsample(image, 2).shape == (3, 4)

    def test_downsample_rejects_tiny(self):
        with pytest.raises(ShapeError):
            block_downsample(np.ones((3, 3)), 4)

    def test_crop_window(self):
        config = CameraConfig()
        image = np.arange(72 * 108, dtype=float).reshape(72, 108)
        cropped = crop_depth(image, config)
        assert cropped.shape == config.output_shape
        assert cropped[0, 0] == image[config.crop_top, config.crop_left]

    def test_preprocess_depth_is_crop(self, camera):
        config = CameraConfig()
        image = camera.render((4.0, 3.0))
        assert preprocess_depth(image, config).shape == config.output_shape

    def test_720p_pipeline(self):
        config = CameraConfig()
        image = np.random.default_rng(0).uniform(0, 10, (720, 1080))
        out = preprocess_720p(image, config)
        assert out.shape == config.output_shape

    def test_720p_wrong_shape_rejected(self):
        with pytest.raises(ShapeError):
            preprocess_720p(np.ones((100, 100)), CameraConfig())

    def test_normalize_depth(self):
        out = normalize_depth(np.array([[0.0, 6.0, 24.0]]), 12.0)
        assert np.allclose(out, [[0.0, 0.5, 1.0]])

    @given(factor=st.sampled_from([2, 3, 5, 10]))
    @settings(max_examples=10, deadline=None)
    def test_property_downsample_preserves_range(self, factor):
        gen = np.random.default_rng(factor)
        image = gen.uniform(1.0, 9.0, (60, 60))
        down = block_downsample(image, factor)
        assert down.min() >= 1.0 and down.max() <= 9.0


class TestLEDSynchronization:
    def test_candidates_are_two_typically(self):
        timeline = FrameTimeline(300, 1 / 30)
        candidates = timeline.candidate_frames(0.1)
        assert len(candidates) == 2

    def test_match_is_containing_frame(self):
        timeline = FrameTimeline(300, 1 / 30)
        frame = match_packet_to_frame(timeline, 0.1)
        start, end = timeline.frame_interval(frame)
        assert start <= 0.1 < end

    def test_all_paper_packet_times_resolve(self):
        # Packets every 100 ms against 30 fps frames (Fig. 3 scenario).
        timeline = FrameTimeline(400, 1 / 30)
        for k in range(1, 100):
            t = k * 0.1
            frame = match_packet_to_frame(timeline, t)
            start, end = timeline.frame_interval(frame)
            assert start <= t < end

    def test_out_of_range_raises(self):
        timeline = FrameTimeline(10, 1 / 30)
        with pytest.raises(SynchronizationError):
            match_packet_to_frame(timeline, 100.0)

    def test_bad_construction(self):
        with pytest.raises(ShapeError):
            FrameTimeline(0, 1 / 30)
        with pytest.raises(ShapeError):
            FrameTimeline(10, 0.0)
