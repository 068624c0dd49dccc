"""Property-based tests over the full PHY chain."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import PhyConfig, ReceiverConfig
from repro.phy import Receiver, Transmitter
from tests.oracles import full_ls_estimate


@pytest.fixture(scope="module")
def chain():
    phy = PhyConfig(psdu_bytes=8)
    tx = Transmitter(phy)
    rx = Receiver(phy, ReceiverConfig(), tx)
    return tx, rx


class TestFullChainProperties:
    @given(seq=st.integers(min_value=0, max_value=65535))
    @settings(max_examples=20, deadline=None)
    def test_any_sequence_number_round_trips(self, chain, seq):
        tx, rx = chain
        packet = tx.transmit(seq)
        result = rx.decode_standard(packet.waveform)
        assert result.sequence_number == seq
        assert result.fcs_ok

    @given(
        seq=st.integers(min_value=0, max_value=65535),
        phase=st.floats(min_value=-3.14, max_value=3.14),
    )
    @settings(max_examples=15, deadline=None)
    def test_crystal_phase_never_breaks_standard_decode(
        self, chain, seq, phase
    ):
        # Standard decoding scalar-gain-corrects any global rotation.
        tx, rx = chain
        packet = tx.transmit(seq)
        rotated = packet.waveform * np.exp(1j * phase)
        result = rx.decode_standard(rotated)
        assert result.psdu == packet.psdu

    @given(
        delay=st.integers(min_value=0, max_value=10),
        seq=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=15, deadline=None)
    def test_pure_delay_channels_decode_with_gt(self, chain, delay, seq):
        tx, rx = chain
        packet = tx.transmit(seq)
        h = np.zeros(11, complex)
        h[delay] = 1.0
        received = np.convolve(packet.waveform, h)
        estimate = full_ls_estimate(received, packet.waveform, 11)
        result = rx.decode_with_estimate(received, estimate)
        assert result.psdu == packet.psdu

    @given(
        scale=st.floats(min_value=0.2, max_value=5.0),
        seq=st.integers(min_value=0, max_value=500),
    )
    @settings(max_examples=10, deadline=None)
    def test_amplitude_scaling_invariance(self, chain, scale, seq):
        # ZF equalization with the scaled estimate cancels any gain.
        tx, rx = chain
        packet = tx.transmit(seq)
        received = scale * packet.waveform
        estimate = full_ls_estimate(received, packet.waveform, 11)
        result = rx.decode_with_estimate(received, estimate)
        assert result.psdu == packet.psdu
