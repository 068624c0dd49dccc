"""Equivalence of the batched PHY paths against the scalar pipeline.

The batched engine must be a pure accelerator: every ``*_batch`` path is
asserted bit-exact (or ``allclose`` at 1e-10) against its scalar
counterpart over randomized packets, and the seeded-noise replay
contract of ``synthesize_received`` is pinned down explicitly.
"""

import gc
import weakref

import numpy as np
import pytest

from repro.channel.noise import awgn
from repro.config import SimulationConfig
from repro.dataset import (
    build_components,
    generate_measurement_set,
    synthesize_received,
    synthesize_received_batch,
)
from repro.dsp import (
    canonicalize_phase,
    canonicalize_phase_batch,
    equalizer_delay,
    ls_channel_estimate,
    zero_forcing_equalizer,
)
from repro.phy import get_batch_engine
from repro.phy.synchronization import correlate_sync, correlate_sync_batch

TOL = 1e-10


@pytest.fixture(scope="module")
def tiny_components():
    return build_components(SimulationConfig.tiny())


@pytest.fixture(scope="module")
def packet_batch(tiny_components):
    """Randomized packets: waveforms, channels, and received rows."""
    rng = np.random.default_rng(424242)
    transmitter = tiny_components.transmitter
    sequences = [0, 3, 1009, 40001, 65535, 17]
    waveforms = np.stack(
        [transmitter.transmit(s).waveform for s in sequences]
    )
    channels = rng.normal(size=(len(sequences), 11)) + 1j * rng.normal(
        size=(len(sequences), 11)
    )
    phases = rng.uniform(0.0, 2.0 * np.pi, len(sequences))
    seeds = rng.integers(0, 2**63 - 1, len(sequences))
    received = np.stack(
        [
            np.convolve(waveforms[i], channels[i])
            * np.exp(1j * phases[i])
            + awgn(
                np.random.default_rng(int(seeds[i])),
                waveforms.shape[1] + 10,
                0.05,
            )
            for i in range(len(sequences))
        ]
    )
    return {
        "sequences": sequences,
        "waveforms": waveforms,
        "channels": channels,
        "phases": phases,
        "seeds": seeds,
        "received": received,
    }


class TestDspBatchPrimitives:
    def test_zero_forcing_toeplitz_matches_lstsq(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            h = rng.normal(size=5) + 1j * rng.normal(size=5)
            h[0] += 2.0
            fast = zero_forcing_equalizer(h, 21)
            dense = zero_forcing_equalizer(h, 21, method="lstsq")
            assert np.allclose(fast, dense, atol=1e-8)

    def test_canonicalize_phase_batch(self):
        rng = np.random.default_rng(8)
        reference = rng.normal(size=11) + 1j * rng.normal(size=11)
        batch = rng.normal(size=(6, 11)) + 1j * rng.normal(size=(6, 11))
        rotated, thetas = canonicalize_phase_batch(batch, reference)
        for i in range(6):
            scalar_rot, scalar_theta = canonicalize_phase(
                batch[i], reference
            )
            assert np.allclose(rotated[i], scalar_rot, atol=TOL)
            assert abs(thetas[i] - scalar_theta) < TOL


class TestPhyBatchPaths:
    def test_template_delta_reconstruction_bit_exact(
        self, tiny_components, packet_batch
    ):
        engine = get_batch_engine(tiny_components.transmitter, 11)
        for i, seq in enumerate(packet_batch["sequences"]):
            recon = engine._template.copy()
            for start, span in engine.packet_deltas(seq):
                recon[start : start + len(span)] += span
            assert np.array_equal(recon, packet_batch["waveforms"][i])

    def test_batched_synthesis_matches_scalar(
        self, tiny_components, packet_batch
    ):
        engine = get_batch_engine(tiny_components.transmitter, 11)
        deltas = [
            engine.packet_deltas(s) for s in packet_batch["sequences"]
        ]
        rows = engine.synthesize_received(
            deltas,
            packet_batch["channels"],
            packet_batch["phases"],
            packet_batch["seeds"],
            0.05,
        )
        assert np.allclose(rows, packet_batch["received"], atol=TOL)

    def test_batched_full_ls_matches_scalar(
        self, tiny_components, packet_batch
    ):
        engine = get_batch_engine(tiny_components.transmitter, 11)
        deltas = [
            engine.packet_deltas(s) for s in packet_batch["sequences"]
        ]
        estimates = engine.full_ls_estimates(
            packet_batch["received"], deltas
        )
        for i in range(len(deltas)):
            scalar = ls_channel_estimate(
                packet_batch["waveforms"][i],
                packet_batch["received"][i],
                11,
                mode="full",
            )
            assert np.allclose(estimates[i], scalar, atol=TOL)

    def test_dropped_components_free_transmitter_without_gc(self):
        """The engine cached on a transmitter holds it only weakly, so
        its packet LRU is freed by reference counting alone."""
        components = build_components(SimulationConfig.tiny())
        records = generate_measurement_set(components, 0).packets[:4]
        synthesize_received_batch(components, records)
        assert components.transmitter.batch_engines
        transmitter = weakref.ref(components.transmitter)
        gc.disable()
        try:
            del components
            assert transmitter() is None
        finally:
            gc.enable()

    def test_batched_preamble_ls_matches_scalar(
        self, tiny_components, packet_batch
    ):
        receiver = tiny_components.receiver
        batch = receiver.preamble_ls_estimate_batch(
            packet_batch["received"], 11
        )
        for i in range(len(batch)):
            scalar = receiver.preamble_ls_estimate(
                packet_batch["received"][i], 11
            )
            assert np.allclose(batch[i], scalar, atol=TOL)

    def test_batched_sync_partial_overlap_lags(self):
        """Short rows where the search window runs past the full-overlap
        range must still match the scalar (partial) correlation."""
        rng = np.random.default_rng(11)
        reference = rng.normal(size=32) + 1j * rng.normal(size=32)
        received = np.zeros((2, 40), dtype=np.complex128)
        received[0, 12:] = reference[:28]  # true delay 12, truncated
        received[1, 3:35] = reference
        offsets, metrics = correlate_sync_batch(received, reference, 24)
        for i in range(2):
            scalar = correlate_sync(received[i], reference, 24)
            assert offsets[i] == scalar.offset
            assert abs(metrics[i] - scalar.metric) < TOL

    def test_batched_sync_matches_scalar(
        self, tiny_components, packet_batch
    ):
        receiver = tiny_components.receiver
        reference = receiver._reference_shr
        window = receiver.config.sync_search_window
        offsets, metrics = correlate_sync_batch(
            packet_batch["received"], reference, window
        )
        for i in range(len(offsets)):
            scalar = correlate_sync(
                packet_batch["received"][i], reference, window
            )
            assert offsets[i] == scalar.offset
            assert abs(metrics[i] - scalar.metric) < TOL

    def test_decode_batch_matches_scalar(
        self, tiny_components, packet_batch
    ):
        receiver = tiny_components.receiver
        # Use realistic (near-true) estimates so equalization is sane.
        estimates = packet_batch["channels"] * np.exp(
            1j * packet_batch["phases"]
        )[:, None]
        batch_results = receiver.decode_batch(
            packet_batch["received"], estimates
        )
        for i, result in enumerate(batch_results):
            scalar = receiver.decode_with_estimate(
                packet_batch["received"][i], estimates[i]
            )
            assert result.psdu == scalar.psdu
            assert result.fcs_ok == scalar.fcs_ok
            assert np.array_equal(result.hard_chips, scalar.hard_chips)
            assert np.allclose(
                result.soft_chips, scalar.soft_chips, atol=TOL
            )

    def test_equalizer_cache_reuses_taps(self, tiny_components):
        receiver = tiny_components.receiver
        receiver._equalizer_cache.clear()
        h = np.array([1.0 + 0j, 0.4, 0.1j])
        delay = equalizer_delay(3, receiver.config.equalizer_taps)
        first = receiver._equalizer_for(h, delay)
        second = receiver._equalizer_for(h, delay)
        assert first is second
        assert len(receiver._equalizer_cache) == 1


class TestGeneratorEquivalence:
    def test_seeded_noise_reproducibility(self, tiny_components):
        """synthesize_received must replay identical samples per seed."""
        measurement = generate_measurement_set(
            tiny_components, 0, engine="batch"
        )
        record = measurement.packets[5]
        first = synthesize_received(tiny_components, record)
        second = synthesize_received(tiny_components, record)
        assert np.array_equal(first, second)

    def test_split_normal_draws_equal_single_draw(self):
        """The batch noise path draws 2n normals in one call; the scalar
        path draws n twice — both must consume the stream identically."""
        a = np.random.default_rng(123)
        b = np.random.default_rng(123)
        split = np.concatenate(
            [a.normal(0.0, 1.0, 500), a.normal(0.0, 1.0, 500)]
        )
        joint = b.normal(0.0, 1.0, 1000)
        assert np.array_equal(split, joint)

    def test_batch_and_scalar_engines_agree(self):
        config = SimulationConfig.tiny()
        comp_scalar = build_components(config)
        comp_batch = build_components(config)
        set_scalar = generate_measurement_set(
            comp_scalar, 2, engine="scalar"
        )
        set_batch = generate_measurement_set(
            comp_batch, 2, engine="batch"
        )
        assert np.array_equal(set_scalar.frames, set_batch.frames)
        for a, b in zip(set_scalar.packets, set_batch.packets):
            assert a.sequence_number == b.sequence_number
            assert a.noise_seed == b.noise_seed
            assert a.phase_offset == b.phase_offset
            assert a.preamble_detected == b.preamble_detected
            assert a.los_blocked == b.los_blocked
            assert np.allclose(a.h_true, b.h_true, atol=TOL)
            assert np.allclose(a.h_ls, b.h_ls, atol=TOL)
            assert np.allclose(a.h_preamble, b.h_preamble, atol=TOL)
            assert np.allclose(
                a.h_ls_canonical, b.h_ls_canonical, atol=TOL
            )
            assert abs(a.preamble_metric - b.preamble_metric) < TOL
            assert abs(a.los_clearance_m - b.los_clearance_m) < TOL

    def test_synthesize_received_batch_matches_scalar(
        self, tiny_components
    ):
        measurement = generate_measurement_set(
            tiny_components, 1, engine="batch"
        )
        records = measurement.packets[:8]
        rows = synthesize_received_batch(tiny_components, records)
        for i, record in enumerate(records):
            scalar = synthesize_received(tiny_components, record)
            assert np.allclose(rows[i], scalar, atol=TOL)
