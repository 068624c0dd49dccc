"""Tests for framing and the full TX -> channel -> RX chain."""

import numpy as np
import pytest

from repro.config import PhyConfig, ReceiverConfig
from repro.errors import ConfigurationError, ShapeError
from repro.phy import FrameLayout, Receiver, Transmitter, make_psdu, parse_psdu
from repro.phy.frame import psdu_from_symbols
from tests.oracles import (
    detect_preamble,
    full_ls_estimate,
    preamble_ls_estimate,
)


@pytest.fixture(scope="module")
def phy():
    return PhyConfig(psdu_bytes=16)


@pytest.fixture(scope="module")
def tx(phy):
    return Transmitter(phy)


@pytest.fixture(scope="module")
def rx(phy, tx):
    return Receiver(phy, ReceiverConfig(), tx)


class TestFrameLayout:
    def test_paper_chip_counts(self):
        layout = FrameLayout(preamble_bytes=4, psdu_bytes=127)
        # 127-byte PSDU -> 8128 chips (Sec. 5.5.2).
        psdu_slice = layout.psdu_chip_slice
        assert psdu_slice.stop - psdu_slice.start == 8128
        # SHR = 4 B preamble + 1 B SFD = 10 symbols = 320 chips.
        assert layout.shr_chips == 320

    def test_total_symbols(self):
        layout = FrameLayout(preamble_bytes=4, psdu_bytes=16)
        assert layout.total_symbols == (4 + 1 + 1 + 16) * 2

    def test_frame_bytes_structure(self):
        layout = FrameLayout(preamble_bytes=4, psdu_bytes=16)
        psdu = make_psdu(5, 16)
        frame = layout.frame_bytes(psdu)
        assert frame[:4] == b"\x00\x00\x00\x00"
        assert frame[4] == 0xA7
        assert frame[5] == 16
        assert frame[6:] == psdu

    def test_wrong_psdu_length_rejected(self):
        layout = FrameLayout(psdu_bytes=16)
        with pytest.raises(ShapeError):
            layout.frame_bytes(b"\x00" * 10)

    def test_psdu_from_symbols_round_trip(self):
        layout = FrameLayout(preamble_bytes=4, psdu_bytes=16)
        psdu = make_psdu(77, 16)
        symbols = layout.frame_symbols(psdu)
        assert psdu_from_symbols(symbols, layout) == psdu


class TestMakePsdu:
    def test_sequence_number_embedded(self):
        psdu = make_psdu(0x1234, 32)
        seq, ok = parse_psdu(psdu)
        assert seq == 0x1234
        assert ok

    def test_same_payload_except_seq_and_crc(self):
        a = make_psdu(1, 32)
        b = make_psdu(2, 32)
        assert a[2:-2] == b[2:-2]
        assert a[:2] != b[:2]
        assert a[-2:] != b[-2:]

    def test_bad_lengths(self):
        with pytest.raises(ConfigurationError):
            make_psdu(0, 4)
        with pytest.raises(ConfigurationError):
            make_psdu(1 << 16, 16)


class TestEndToEndChain:
    def test_clean_channel_decodes(self, tx, rx):
        packet = tx.transmit(3)
        result = rx.decode_standard(packet.waveform)
        assert result.fcs_ok
        assert result.sequence_number == 3
        assert result.psdu == packet.psdu

    def test_multipath_with_gt_estimate(self, tx, rx, rng):
        packet = tx.transmit(9)
        h = np.zeros(11, complex)
        h[5], h[7], h[8] = 1.0, 0.5 * np.exp(0.9j), 0.3 * np.exp(-1.7j)
        received = np.convolve(packet.waveform, h) * np.exp(1.3j)
        received += 0.05 * (
            rng.normal(size=len(received))
            + 1j * rng.normal(size=len(received))
        )
        estimate = full_ls_estimate(received, packet.waveform, 11)
        result = rx.decode_with_estimate(received, estimate)
        assert result.psdu == packet.psdu

    def test_preamble_estimate_close_to_full(self, tx, rx, rng):
        packet = tx.transmit(11)
        h = np.zeros(11, complex)
        h[5], h[6] = 1.0, 0.4j
        received = np.convolve(packet.waveform, h)
        received += 0.02 * (
            rng.normal(size=len(received))
            + 1j * rng.normal(size=len(received))
        )
        full = full_ls_estimate(received, packet.waveform, 11)
        pre = preamble_ls_estimate(rx, received, 11)
        assert np.max(np.abs(full - pre)) < 0.1

    def test_sync_finds_channel_delay(self, tx, rx):
        packet = tx.transmit(2)
        h = np.zeros(11, complex)
        h[6] = 1.0
        received = np.convolve(packet.waveform, h)
        sync = rx.synchronize(received)
        assert sync.offset == 6

    def test_detection_fails_in_deep_fade(self, tx, rx, rng):
        packet = tx.transmit(4)
        received = 0.05 * packet.waveform + 0.3 * (
            rng.normal(size=len(packet.waveform))
            + 1j * rng.normal(size=len(packet.waveform))
        )
        detected, metric = detect_preamble(rx, received)
        assert not detected

    def test_detection_succeeds_clean(self, tx, rx):
        packet = tx.transmit(4)
        detected, metric = detect_preamble(rx, packet.waveform)
        assert detected
        assert metric > 0.5

    def test_blind_phase_shift_alignment(self, tx, rx, rng):
        packet = tx.transmit(6)
        h = np.zeros(11, complex)
        h[5], h[6] = 1.0, 0.3 + 0.2j
        theta = 2.4
        received = np.convolve(packet.waveform, h) * np.exp(1j * theta)
        received += 0.02 * (
            rng.normal(size=len(received))
            + 1j * rng.normal(size=len(received))
        )
        estimated = rx.blind_phase_shift(received, h)
        assert abs(np.angle(np.exp(1j * (estimated - theta)))) < 0.05

    def test_decode_with_bad_estimate_fails(self, tx, rx, rng):
        packet = tx.transmit(8)
        h = np.zeros(11, complex)
        h[5], h[7] = 1.0, 0.8 * np.exp(2.0j)
        received = np.convolve(packet.waveform, h)
        received += 0.3 * (
            rng.normal(size=len(received))
            + 1j * rng.normal(size=len(received))
        )
        wrong = np.zeros(11, complex)
        wrong[5], wrong[7] = 1.0, 0.8 * np.exp(-2.0j)
        good = rx.decode_with_estimate(
            received, full_ls_estimate(received, packet.waveform, 11)
        )
        bad = rx.decode_with_estimate(received, wrong)
        good_errors = np.sum(good.hard_chips != packet.chips)
        bad_errors = np.sum(bad.hard_chips != packet.chips)
        assert bad_errors > good_errors
