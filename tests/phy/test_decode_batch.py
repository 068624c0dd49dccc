"""The batched receiver against its scalar oracles.

``Receiver.decode_batch`` folds the chip pulse into each row's ZF
equalizer and decodes estimate-less rows the standard way in the same
call; ``blind_phase_shift_batch`` aligns blind estimates with one
matmul.  Hard decisions and PSDUs must equal the scalar
``decode_with_estimate`` / ``decode_standard`` row by row and soft
values agree within ``1e-10``, which is what keeps stream payloads
byte-identical to per-packet decoding.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import SimulationConfig
from repro.dataset import (
    build_components,
    generate_measurement_set,
    synthesize_received_batch,
)
from repro.dsp.phase import correct_phase
from repro.estimation.base import ChannelEstimate
from repro.experiments.runner import EvaluationRunner

TOL = 1e-10


@pytest.fixture(scope="module")
def components():
    return build_components(SimulationConfig.tiny())


@pytest.fixture(scope="module")
def packets(components):
    """Received rows of recorded packets, with their LS estimates."""
    measurement = generate_measurement_set(components, 0)
    records = measurement.packets[:12]
    received = synthesize_received_batch(components, records)
    return records, received


def _estimates(records):
    """Per row: standard (None), a rotated blind estimate, or 7 taps."""
    rng = np.random.default_rng(5)
    estimates = []
    for row, record in enumerate(records):
        if row % 4 == 0:
            estimates.append(None)
        elif row % 4 == 3:
            estimates.append(record.h_ls[:7])
        else:
            theta = rng.uniform(0.0, 2.0 * np.pi)
            estimates.append(record.h_ls_canonical * np.exp(1j * theta))
    return estimates


def test_mixed_rows_match_the_scalar_decoders(components, packets):
    receiver = components.receiver
    records, received = packets
    estimates = _estimates(records)
    batch = receiver.decode_batch(received, estimates)
    assert len(batch) == len(records)
    for row, (result, estimate) in enumerate(zip(batch, estimates)):
        if estimate is None:
            scalar = receiver.decode_standard(received[row])
        else:
            scalar = receiver.decode_with_estimate(received[row], estimate)
        assert result.psdu == scalar.psdu
        assert result.fcs_ok == scalar.fcs_ok
        assert result.sequence_number == scalar.sequence_number
        assert np.array_equal(result.hard_chips, scalar.hard_chips)
        assert np.array_equal(result.symbols, scalar.symbols)
        np.testing.assert_allclose(
            result.soft_chips, scalar.soft_chips, rtol=0, atol=TOL
        )


def test_matrix_estimates_still_decode(components, packets):
    receiver = components.receiver
    records, received = packets
    estimates = np.stack([record.h_ls for record in records])
    for row, result in enumerate(receiver.decode_batch(received, estimates)):
        scalar = receiver.decode_with_estimate(received[row], estimates[row])
        assert np.array_equal(result.hard_chips, scalar.hard_chips)
        assert result.psdu == scalar.psdu


def test_blind_phase_shift_batch_matches_scalar(components, packets):
    receiver = components.receiver
    records, received = packets
    estimates = np.stack([record.h_ls_canonical for record in records])
    thetas = receiver.blind_phase_shift_batch(received, estimates)
    for row, theta in enumerate(thetas):
        scalar = receiver.blind_phase_shift(received[row], estimates[row])
        assert abs(theta - scalar) < TOL
    zero = receiver.blind_phase_shift_batch(
        received[:2], np.zeros_like(estimates[:2])
    )
    assert np.array_equal(zero, [0.0, 0.0])


def test_decode_packets_equals_decode_packet(components, packets):
    records, received = packets
    runner = EvaluationRunner(components, [])
    estimates = []
    for row, record in enumerate(records):
        if row % 5 == 0:
            estimates.append(None)  # preamble-detection failure
        elif row % 5 == 1:
            estimates.append(ChannelEstimate(taps=None))
        elif row % 5 == 2:
            estimates.append(
                ChannelEstimate(
                    taps=record.h_ls,
                    canonical_taps=record.h_ls_canonical,
                )
            )
        else:
            estimates.append(
                ChannelEstimate(
                    taps=correct_phase(record.h_ls_canonical, 1.0 + row),
                    needs_phase_alignment=True,
                    canonical_taps=record.h_ls_canonical,
                )
            )
    batch = runner.decode_packets(estimates, received, records)
    for row, (estimate, record) in enumerate(zip(estimates, records)):
        packet = components.transmitter.transmit(record.sequence_number)
        scalar = runner.decode_packet(
            estimate, packet, received[row], record
        )
        assert batch[row] == scalar
