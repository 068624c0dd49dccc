"""Receive chain: sync, preamble handling, equalization, despreading.

The receiver implements the processing shared by every compared technique
(Sec. 5.1): frame synchronization and phase-offset correction are always
performed; the techniques differ only in where the channel estimate comes
from.  ``decode_with_estimate`` applies LS zero-forcing equalization with
the supplied estimate, ``decode_standard`` performs the plain IEEE
802.15.4 decoding without equalization.

Batched variants (``*_batch`` / ``decode_batch``) process a ``(P,
samples)`` packet matrix at once: the preamble LS operator, the SHR
delay matrix of the blind phase alignment and the ZF equalizers are
cached per receiver, and synchronization, equalization, demodulation
and despreading run as matrix operations.  Every program path decodes
through ``decode_batch``; the scalar decoders are its reference
semantics, kept as the tests' oracles.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..config import PhyConfig, ReceiverConfig
from ..dsp.convolution import convolution_matrix
from ..dsp.equalization import (
    equalize,
    equalizer_delay,
    zero_forcing_equalizer,
)
from ..dsp.estimation import valid_ls_operator
from ..dsp.phase import estimate_waveform_phase_shift
from ..errors import ShapeError
from .frame import FrameLayout, parse_psdu, psdu_from_symbols
from .oqpsk import half_sine_pulse, oqpsk_demodulate, oqpsk_demodulate_batch
from .spreading import despread_chips, despread_chips_batch
from .synchronization import SyncResult, correlate_sync, correlate_sync_batch
from .transmitter import Transmitter

_GAIN_EPS = 1e-12
_EQUALIZER_CACHE_SIZE = 512


@dataclass
class DecodeResult:
    """Outcome of decoding one received packet."""

    symbols: np.ndarray
    hard_chips: np.ndarray
    soft_chips: np.ndarray
    psdu: bytes
    sequence_number: int
    fcs_ok: bool


class Receiver:
    """IEEE 802.15.4 receiver with pluggable channel estimates."""

    def __init__(
        self,
        phy: PhyConfig | None = None,
        config: ReceiverConfig | None = None,
        transmitter: Transmitter | None = None,
    ) -> None:
        self.phy = phy or PhyConfig()
        self.config = config or ReceiverConfig()
        self._transmitter = transmitter or Transmitter(self.phy)
        self.layout: FrameLayout = self._transmitter.layout
        self._reference_shr = self._transmitter.reference_shr_waveform
        self._reference_shr_energy = float(
            np.sum(np.abs(self._reference_shr) ** 2)
        )
        #: Cached pseudo-inverse of the SHR window matrix per tap count —
        #: the matrix depends only on the constant preamble waveform.
        self._preamble_operators: dict[int, np.ndarray] = {}
        #: Conjugated SHR delay (convolution) matrix per tap count, the
        #: operator of :meth:`blind_phase_shift_batch`.
        self._phase_operators: dict[int, np.ndarray] = {}
        #: LRU of ZF equalizers keyed by the exact estimate bytes.
        self._equalizer_cache: OrderedDict[
            tuple[bytes, int, int], np.ndarray
        ] = OrderedDict()

    # -- synchronization and detection ----------------------------------
    def synchronize(self, received: np.ndarray) -> SyncResult:
        """Correlation frame sync against the clean SHR reference."""
        return correlate_sync(
            received, self._reference_shr, self.config.sync_search_window
        )

    def synchronize_batch(
        self, received: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Frame-sync every row of a packet batch; ``(offsets, metrics)``."""
        return correlate_sync_batch(
            received, self._reference_shr, self.config.sync_search_window
        )

    def detect_preamble_batch(
        self, received: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Preamble detection per row via the normalized sync-peak metric.

        Returns ``(detected, metrics)``.  Detection fails in deep fades,
        which is what holds the preamble-based technique back in
        Fig. 12.
        """
        _, metrics = self.synchronize_batch(received)
        detected = metrics >= self.config.preamble_detection_threshold
        return detected, metrics

    # -- channel estimates ------------------------------------------------
    def _preamble_operator(self, num_taps: int) -> np.ndarray:
        operator = self._preamble_operators.get(num_taps)
        if operator is None:
            region = self.layout.shr_samples
            operator = valid_ls_operator(
                np.asarray(self._reference_shr, dtype=np.complex128),
                num_taps,
            )
            assert operator.shape[1] == region - num_taps + 1
            self._preamble_operators[num_taps] = operator
        return operator

    def preamble_ls_estimate_batch(
        self, received: np.ndarray, num_taps: int
    ) -> np.ndarray:
        """LS estimates from each row's SHR region (Fig. 9, preamble-based).

        Only the steady-state samples of the SHR enter, through one
        cached pseudo-inverse per tap count
        (:func:`~repro.dsp.estimation.valid_ls_operator`).
        """
        received = np.asarray(received, dtype=np.complex128)
        if received.ndim != 2:
            raise ShapeError("received batch must be 2-D")
        region = self.layout.shr_samples
        operator = self._preamble_operator(num_taps)
        return received[:, num_taps - 1 : region] @ operator.T

    def blind_phase_shift(
        self, received: np.ndarray, estimate: np.ndarray
    ) -> float:
        """Footnote-4 phase alignment of a blind estimate to this packet."""
        region = self.layout.shr_samples
        return estimate_waveform_phase_shift(
            received[: region + len(estimate) - 1],
            self._reference_shr,
            estimate,
        )

    def blind_phase_shift_batch(
        self, received: np.ndarray, estimates: np.ndarray
    ) -> np.ndarray:
        """Row-wise :meth:`blind_phase_shift`; the ``(P,)`` angles.

        The SHR re-synthesized through estimate ``h`` is ``D @ h`` for
        the SHR's delay matrix ``D``, so the correlation of received
        row ``y`` with it is ``sum(conj(h) * (y @ conj(D)))``: one
        matmul for the whole batch against the cached ``conj(D)``.
        The angles match the scalar method within rounding.
        """
        received = np.asarray(received, dtype=np.complex128)
        estimates = np.asarray(estimates, dtype=np.complex128)
        if received.ndim != 2 or estimates.ndim != 2:
            raise ShapeError(
                "blind_phase_shift_batch expects 2-D received and "
                "estimate batches"
            )
        if received.shape[0] != estimates.shape[0]:
            raise ShapeError(
                f"batch size mismatch: {received.shape[0]} received rows "
                f"vs {estimates.shape[0]} estimates"
            )
        num_taps = estimates.shape[1]
        operator = self._phase_operators.get(num_taps)
        if operator is None:
            operator = np.conj(
                convolution_matrix(self._reference_shr, num_taps)
            )
            self._phase_operators[num_taps] = operator
        length = min(operator.shape[0], received.shape[1])
        correlation = received[:, :length] @ operator[:length]
        inner = np.sum(correlation * np.conj(estimates), axis=1)
        thetas = np.angle(inner)
        thetas[inner == 0] = 0.0
        return thetas

    # -- equalizer construction -------------------------------------------
    def _equalizer_for(
        self, estimate: np.ndarray, delay: int
    ) -> np.ndarray:
        """ZF equalizer for an estimate, LRU-cached per distinct estimate."""
        key = (estimate.tobytes(), self.config.equalizer_taps, delay)
        cached = self._equalizer_cache.get(key)
        if cached is not None:
            self._equalizer_cache.move_to_end(key)
            return cached
        taps = zero_forcing_equalizer(
            estimate, self.config.equalizer_taps, delay
        )
        self._equalizer_cache[key] = taps
        if len(self._equalizer_cache) > _EQUALIZER_CACHE_SIZE:
            self._equalizer_cache.popitem(last=False)
        return taps

    # -- decoding ---------------------------------------------------------
    def _despread_and_parse(
        self, equalized: np.ndarray
    ) -> DecodeResult:
        spc = self.phy.samples_per_chip
        soft, hard = oqpsk_demodulate(
            equalized, self.layout.total_chips, spc
        )
        # The paper's receiver correlates hard chip decisions against the
        # 16 PN sequences (Sec. 6.2), which is why it observes a CER
        # reliability threshold around 2-3e-2.
        symbols = despread_chips(hard)
        psdu = psdu_from_symbols(symbols, self.layout)
        sequence_number, fcs_ok = parse_psdu(psdu)
        return DecodeResult(
            symbols=symbols,
            hard_chips=hard,
            soft_chips=soft,
            psdu=psdu,
            sequence_number=sequence_number,
            fcs_ok=fcs_ok,
        )

    def decode_with_estimate(
        self, received: np.ndarray, estimate: np.ndarray
    ) -> DecodeResult:
        """ZF-equalize with ``estimate`` (Eqs. 6-7) and decode."""
        estimate = np.asarray(estimate, dtype=np.complex128)
        if estimate.ndim != 1:
            raise ShapeError("channel estimate must be 1-D")
        delay = equalizer_delay(len(estimate), self.config.equalizer_taps)
        eq_taps = self._equalizer_for(estimate, delay)
        aligned = equalize(
            received,
            eq_taps,
            delay,
            output_length=self.layout.waveform_samples,
        )
        return self._despread_and_parse(aligned)

    def decode_batch(
        self,
        received: np.ndarray,
        estimates: "np.ndarray | Sequence[np.ndarray | None]",
    ) -> list[DecodeResult]:
        """Row-wise decoding of a packet batch, equalized or standard.

        Parameters
        ----------
        received:
            ``(P, samples)`` complex received matrix (one packet per
            row, equal lengths).
        estimates:
            ``(P, taps)`` complex channel estimates, or one entry per
            row: a 1-D estimate, which the row is equalized with
            (:meth:`decode_with_estimate`), or ``None``, which decodes
            the row the standard way (:meth:`decode_standard`, framed
            by one :meth:`synchronize_batch` call).  Rows with equal
            tap counts share one equalizer delay and are demodulated
            together.

        Returns
        -------
        list[DecodeResult]
            One result per row, matching the scalar method of the row
            (hard decisions and PSDUs are identical; soft values agree
            within ``1e-10``).  Equalization and chip projection run
            as one matmul: the half-sine chip pulse is folded into
            each row's ZF equalizer (:meth:`_equalized_soft`), so the
            equalized waveform is never formed.  ZF equalizers are
            LRU-cached per distinct estimate, so repeated estimates
            (e.g. a technique tracking slowly) cost one design each.
        """
        received = np.asarray(received, dtype=np.complex128)
        if received.ndim != 2:
            raise ShapeError("decode_batch expects a 2-D received batch")
        if isinstance(estimates, np.ndarray) and estimates.ndim != 2:
            raise ShapeError("decode_batch expects a 2-D estimate batch")
        if len(estimates) != received.shape[0]:
            raise ShapeError(
                f"batch size mismatch: {received.shape[0]} received rows "
                f"vs {len(estimates)} estimates"
            )
        standard: list[int] = []
        by_taps: dict[int, list[int]] = {}
        for row, estimate in enumerate(estimates):
            if estimate is None:
                standard.append(row)
                continue
            if np.ndim(estimate) != 1:
                raise ShapeError("channel estimate must be 1-D")
            by_taps.setdefault(len(estimate), []).append(row)
        soft = np.empty((received.shape[0], self.layout.total_chips))
        for num_taps, rows in by_taps.items():
            delay = equalizer_delay(num_taps, self.config.equalizer_taps)
            equalizers = np.stack(
                [
                    self._equalizer_for(
                        np.asarray(estimates[row], dtype=np.complex128),
                        delay,
                    )
                    for row in rows
                ]
            )
            soft[rows] = self._equalized_soft(
                received[rows], equalizers, delay
            )
        if standard:
            soft[standard] = self._standard_soft(received[standard])
        hard = (soft > 0).astype(np.int8)
        symbols = despread_chips_batch(hard)
        results = []
        for row in range(received.shape[0]):
            psdu = psdu_from_symbols(symbols[row], self.layout)
            sequence_number, fcs_ok = parse_psdu(psdu)
            results.append(
                DecodeResult(
                    symbols=symbols[row],
                    hard_chips=hard[row],
                    soft_chips=soft[row],
                    psdu=psdu,
                    sequence_number=sequence_number,
                    fcs_ok=fcs_ok,
                )
            )
        return results

    def _equalized_soft(
        self, received: np.ndarray, equalizers: np.ndarray, delay: int
    ) -> np.ndarray:
        """Soft chips of ZF-equalized rows without forming the waveform.

        Chip ``j``'s projection ``sum_m pulse[m] * z[j*spc + m]`` of the
        equalized ``z[n] = sum_l eq[l] * y[n + delay - l]`` is the inner
        product of ``y``, from sample ``j*spc + delay - (L - 1)`` on,
        with the kernel ``g = convolve(pulse, eq[::-1])`` (``L + 2*spc
        - 1`` taps for an ``L``-tap equalizer).  An even chip keeps the
        real part of that product and an odd chip the imaginary part,
        so on the rows' interleaved real view one window per chip pair
        and two real kernels (``Re g`` for the even chip, ``Im g``
        shifted by ``spc`` for the odd one) give both: one matmul of
        every row's windows against its kernels yields all chips.
        """
        spc = self.phy.samples_per_chip
        num_chips = self.layout.total_chips
        pulse = half_sine_pulse(spc)
        num_rows, num_eq = equalizers.shape
        width = num_eq + len(pulse) - 1
        kernels = np.zeros((num_rows, width), dtype=np.complex128)
        reversed_eq = equalizers[:, ::-1]
        for m, weight in enumerate(pulse):
            kernels[:, m : m + num_eq] += weight * reversed_eq
        # Real coefficients over interleaved (re, im) samples of a pair
        # window: Re(g . w) for the even chip, Im(g . w[spc:]) for the odd.
        pair = np.zeros((num_rows, width + spc, 2, 2))
        pair[:, :width, 0, 0] = kernels.real
        pair[:, :width, 1, 0] = -kernels.imag
        pair[:, spc:, 0, 1] = kernels.imag
        pair[:, spc:, 1, 1] = kernels.real
        # padded[:, k] = received[:, k - lead], zero outside the rows.
        lead = num_eq - 1 - delay
        padded = np.zeros(
            (num_rows, (num_chips - 1) * spc + width), dtype=np.complex128
        )
        src = max(0, -lead)
        dst = max(0, lead)
        count = max(0, min(received.shape[1] - src, padded.shape[1] - dst))
        padded[:, dst : dst + count] = received[:, src : src + count]
        windows = sliding_window_view(
            padded.view(np.float64), 2 * (width + spc), axis=1
        )[:, :: 4 * spc]
        soft = np.matmul(windows, pair.reshape(num_rows, -1, 2))
        return soft.reshape(num_rows, num_chips)

    def _standard_soft(self, received: np.ndarray) -> np.ndarray:
        """Soft chips of rows decoded the standard way (sync + gain)."""
        offsets, _ = self.synchronize_batch(received)
        samples = self.layout.waveform_samples
        corrected = np.zeros(
            (received.shape[0], samples), dtype=np.complex128
        )
        for row, offset in enumerate(offsets):
            aligned = received[row, offset:]
            rescaled = aligned[:samples] / self._standard_gain(aligned)
            corrected[row, : len(rescaled)] = rescaled
        soft, _ = oqpsk_demodulate_batch(
            corrected, self.layout.total_chips, self.phy.samples_per_chip
        )
        return soft

    def _standard_gain(self, aligned: np.ndarray) -> complex:
        """Scalar channel gain of a synchronized packet from its SHR."""
        region = min(len(aligned), self.layout.shr_samples)
        reference = self._reference_shr[:region]
        energy = float(np.sum(np.abs(reference) ** 2))
        if energy > 0:
            gain = np.vdot(reference, aligned[:region]) / energy
        else:
            gain = 1.0
        # Near-zero gains in deep fades would blow the correction up to
        # numerical garbage; compare by magnitude, not complex equality.
        if abs(gain) < _GAIN_EPS:
            gain = 1.0
        return gain

    def decode_standard(self, received: np.ndarray) -> DecodeResult:
        """Plain 802.15.4 decoding: sync + scalar gain, no equalization."""
        sync = self.synchronize(received)
        aligned = received[sync.offset :]
        corrected = aligned / self._standard_gain(aligned)
        if len(corrected) < self.layout.waveform_samples:
            corrected = np.concatenate(
                [
                    corrected,
                    np.zeros(
                        self.layout.waveform_samples - len(corrected),
                        dtype=corrected.dtype,
                    ),
                ]
            )
        return self._despread_and_parse(corrected)
