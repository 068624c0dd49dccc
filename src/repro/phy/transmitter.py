"""Transmit chain: PSDU -> symbols -> chips -> O-QPSK baseband waveform."""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from ..config import PhyConfig
from .frame import FrameLayout, make_psdu
from .oqpsk import oqpsk_modulate


@dataclass(frozen=True)
class TransmittedPacket:
    """Everything the evaluation needs to know about one transmission."""

    sequence_number: int
    psdu: bytes
    symbols: np.ndarray
    chips: np.ndarray
    waveform: np.ndarray

    @property
    def num_chips(self) -> int:
        return len(self.chips)


class Transmitter:
    """IEEE 802.15.4 transmitter for the measurement campaign.

    Packets share a constant payload except for sequence number and FCS
    (Sec. 3), so consecutive calls differ only in a few symbols.  Built
    packets are cached per sequence number (bounded LRU): the scalar
    pipeline re-transmits the same frames every time a packet is
    re-synthesized, and re-modulating them dominated it.  The batched
    paths read chips with :meth:`frame_chips` and modulate nothing.
    """

    def __init__(
        self, phy: PhyConfig | None = None, cache_size: int = 256
    ) -> None:
        self.phy = phy or PhyConfig()
        self.layout = FrameLayout(
            preamble_bytes=self.phy.preamble_bytes,
            psdu_bytes=self.phy.psdu_bytes,
            samples_per_chip=self.phy.samples_per_chip,
        )
        self._cache_size = max(1, cache_size)
        self._cache: OrderedDict[int, TransmittedPacket] = OrderedDict()
        #: Batch engines built on this transmitter, keyed by channel
        #: order (:func:`repro.phy.batch.get_batch_engine`).
        self.batch_engines: dict = {}
        # The SHR+PHR prefix never changes; cache its clean waveform for
        # the receiver's synchronization and detection reference.
        template = self.transmit(0)
        self._reference_shr = template.waveform[: self.layout.shr_samples]
        self._reference_shr.setflags(write=False)

    @property
    def reference_shr_waveform(self) -> np.ndarray:
        """Clean SHR-region waveform (preamble + SFD), noise/channel free."""
        return self._reference_shr

    def frame_chips(self, sequence_number: int) -> np.ndarray:
        """Chip stream of one packet without modulating it (read-only)."""
        cached = self._cache.get(sequence_number)
        if cached is not None:
            return cached.chips
        psdu = make_psdu(sequence_number, self.phy.psdu_bytes)
        chips = self.layout.frame_chips(psdu)
        chips.setflags(write=False)
        return chips

    def transmit(self, sequence_number: int) -> TransmittedPacket:
        """Build (or fetch from cache) the baseband waveform of a packet."""
        cached = self._cache.get(sequence_number)
        if cached is not None:
            self._cache.move_to_end(sequence_number)
            return cached
        psdu = make_psdu(sequence_number, self.phy.psdu_bytes)
        symbols = self.layout.frame_symbols(psdu)
        chips = self.layout.frame_chips(psdu)
        waveform = oqpsk_modulate(chips, self.phy.samples_per_chip)
        for array in (symbols, chips, waveform):
            array.setflags(write=False)
        packet = TransmittedPacket(
            sequence_number=sequence_number,
            psdu=psdu,
            symbols=symbols,
            chips=chips,
            waveform=waveform,
        )
        self._cache[sequence_number] = packet
        if len(self._cache) > self._cache_size:
            self._cache.popitem(last=False)
        return packet
