"""Batched packet synthesis and whole-packet LS estimation.

The campaign transmits near-identical frames: every packet shares the
template payload and differs only in sequence number and FCS (Sec. 3).
The batch engine exploits that structure twice:

1. **Synthesis** — ``conv(x_p, h_p)`` splits into ``conv(t, h_p)`` (one
   BLAS matmul of the channel batch against the template's delayed-copy
   matrix) plus tiny corrections ``conv(d_p, h_p)`` on the sparse chip
   spans where packet ``p`` deviates from the template.
2. **Estimation** — the LS normal equations need only the reference
   autocorrelation at lags ``0..N-1`` and the cross-correlation
   ``X^H y`` at the same lags.  Both decompose the same way: one shared
   template term (a second matmul) plus per-span corrections, so no
   per-packet FFT over the full waveform is ever taken.

Everything matches the seed's scalar pipeline (the test oracles of
``tests/oracles``) to numerical precision; the per-packet noise is drawn
from the identical per-seed generators, so a recorded packet replays
bit-exactly.
"""

from __future__ import annotations

import weakref
from collections import OrderedDict

import numpy as np

from ..errors import ShapeError
from .oqpsk import half_sine_pulse

#: Sequence number whose frame acts as the shared template.
_TEMPLATE_SEQUENCE = 0

#: Cached per-sequence delta spans (a few KB each).
_DELTA_CACHE_SIZE = 1024


class BatchPhyEngine:
    """Template-factorized batch synthesis/LS engine for one transmitter.

    All batch methods operate on ``(P, ...)`` matrices — one packet per
    row — in ``complex128`` and reproduce the scalar pipeline row by
    row: ``tests/test_batch_equivalence.py`` asserts agreement within
    ``1e-10`` absolute tolerance for waveforms and LS estimates, and the
    per-seed AWGN draws are bit-exact (the replay contract of
    :func:`repro.dataset.generator.synthesize_received_batch`).

    Parameters
    ----------
    transmitter:
        The campaign :class:`~repro.phy.transmitter.Transmitter`.
    num_taps:
        FIR channel model order ``N`` (11 throughout the paper).

    Attributes
    ----------
    waveform_length:
        Samples of one clean packet waveform.
    received_length:
        Samples after channel convolution:
        ``waveform_length + num_taps - 1``; the row width of every
        received matrix.
    """

    def __init__(self, transmitter, num_taps: int) -> None:
        if num_taps < 1:
            raise ShapeError(f"num_taps must be >= 1, got {num_taps}")
        # Weak: the transmitter caches this engine (``batch_engines``),
        # and a strong back-reference would keep both, with the
        # transmitter's packet LRU, alive until a full collection.
        self._transmitter = weakref.proxy(transmitter)
        self.num_taps = int(num_taps)
        self.samples_per_chip = transmitter.phy.samples_per_chip
        template = transmitter.transmit(_TEMPLATE_SEQUENCE)
        self._template_chips = np.asarray(template.chips)
        t = np.asarray(template.waveform, dtype=np.complex128)
        self._template = t
        self.waveform_length = len(t)
        self.received_length = len(t) + self.num_taps - 1

        # Delayed-copy matrix: row j holds the template delayed by j
        # samples, so ``h @ matrix`` equals ``np.convolve(t, h)`` and
        # ``y @ conj(matrix).T`` equals the cross-correlation X^H y at
        # lags 0..N-1 (up to the sparse per-packet corrections).
        matrix = np.zeros(
            (self.num_taps, self.received_length), dtype=np.complex128
        )
        for j in range(self.num_taps):
            matrix[j, j : j + len(t)] = t
        self._delay_matrix = matrix
        self._corr_matrix = np.ascontiguousarray(np.conj(matrix).T)

        # Template autocorrelation at lags 0..N-1 and a zero-guarded
        # copy of the template for span-local correlations.
        pad = np.zeros(self.num_taps - 1, dtype=np.complex128)
        self._template_guarded = np.concatenate([pad, t, pad])
        self._template_autocorr = np.correlate(
            np.concatenate([t, pad]), t, mode="valid"
        )
        self._pulse = half_sine_pulse(self.samples_per_chip)
        #: Reusable scratch (received matrix + noise draw row): avoids
        #: re-faulting tens of megabytes of fresh pages per chunk.
        self._received_scratch: np.ndarray | None = None
        self._draws_scratch = np.empty(
            2 * self.received_length, dtype=np.float64
        )
        #: LRU of per-sequence delta spans — the evaluation re-visits the
        #: same test packets once per Table 2 combination.
        self._delta_cache: OrderedDict[
            int, list[tuple[int, np.ndarray]]
        ] = OrderedDict()
        # Merge chip runs whose waveform supports come within N samples
        # of each other so span cross-terms vanish by construction.
        self._merge_gap_chips = (
            2 + (self.num_taps + self.samples_per_chip - 1)
            // self.samples_per_chip
        )

    # -- per-packet sparse deltas ----------------------------------------
    def packet_deltas(
        self, sequence_number: int
    ) -> list[tuple[int, np.ndarray]]:
        """Sparse waveform difference of one packet vs the template.

        Returns ``(start_sample, delta)`` spans — ``delta`` a 1-D
        ``complex128`` segment — such that the packet's clean waveform
        equals the template plus the spans (bit-exact: same-parity
        half-sine pulses never overlap, so patching replaces each
        sample's single chip contribution).  Spans are LRU-cached per
        sequence number; treat them as read-only.
        """
        cached = self._delta_cache.get(sequence_number)
        if cached is not None:
            self._delta_cache.move_to_end(sequence_number)
            return cached
        chips = np.asarray(
            self._transmitter.frame_chips(sequence_number)
        )
        changed = np.nonzero(chips != self._template_chips)[0]
        if changed.size == 0:
            self._store_deltas(sequence_number, [])
            return []
        gaps = np.nonzero(
            np.diff(changed) > self._merge_gap_chips
        )[0]
        run_starts = np.concatenate([[0], gaps + 1])
        run_stops = np.concatenate([gaps, [changed.size - 1]])
        spc = self.samples_per_chip
        pulse = self._pulse
        spans: list[tuple[int, np.ndarray]] = []
        for lo, hi in zip(run_starts, run_stops):
            c0 = int(changed[lo])
            c1 = int(changed[hi])
            delta_bip = 2.0 * (
                chips[c0 : c1 + 1].astype(np.float64)
                - self._template_chips[c0 : c1 + 1]
            )
            span = np.zeros((c1 - c0 + 2) * spc, dtype=np.complex128)
            for parity, rail in ((0, span.real), (1, span.imag)):
                first = c0 if c0 % 2 == parity else c0 + 1
                if first > c1:
                    continue
                weights = delta_bip[first - c0 :: 2]
                start = (first - c0) * spc
                # Same-parity pulses are adjacent and non-overlapping, so
                # the outer product lays them out back-to-back exactly.
                flat = np.outer(weights, pulse).reshape(-1)
                rail[start : start + flat.size] = flat
            spans.append((c0 * spc, span))
        self._store_deltas(sequence_number, spans)
        return spans

    def _store_deltas(
        self,
        sequence_number: int,
        spans: list[tuple[int, np.ndarray]],
    ) -> None:
        self._delta_cache[sequence_number] = spans
        if len(self._delta_cache) > _DELTA_CACHE_SIZE:
            self._delta_cache.popitem(last=False)

    # -- batched synthesis ------------------------------------------------
    def clean_waveforms_convolved(
        self,
        deltas: list[list[tuple[int, np.ndarray]]],
        channels: np.ndarray,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """``np.convolve(waveform_p, channels[p])`` for a packet batch.

        Parameters
        ----------
        deltas:
            Per-packet :meth:`packet_deltas` span lists, length ``P``.
        channels:
            ``(P, num_taps)`` complex FIR channels.
        out:
            Optional ``(P, received_length)`` complex128 output buffer.

        Returns
        -------
        numpy.ndarray
            ``(P, received_length)`` complex128 matrix; row ``p``
            matches the scalar convolution of packet ``p``'s clean
            waveform with ``channels[p]`` within ``1e-10``.
        """
        channels = np.asarray(channels, dtype=np.complex128)
        if channels.ndim != 2 or channels.shape[1] != self.num_taps:
            raise ShapeError(
                f"channels must be (P, {self.num_taps}), got "
                f"{channels.shape}"
            )
        if len(deltas) != channels.shape[0]:
            raise ShapeError("deltas/channels batch size mismatch")
        if out is None:
            clean = channels @ self._delay_matrix
        else:
            clean = np.matmul(channels, self._delay_matrix, out=out)
        for row, spans in enumerate(deltas):
            for start, span in spans:
                segment = np.convolve(span, channels[row])
                clean[row, start : start + len(segment)] += segment
        return clean

    def synthesize_received(
        self,
        deltas: list[list[tuple[int, np.ndarray]]],
        channels: np.ndarray,
        phase_offsets: np.ndarray,
        noise_seeds: np.ndarray,
        noise_power: float,
        reuse_buffer: bool = False,
    ) -> np.ndarray:
        """Received rows of a packet batch, one per recorded packet.

        ``conv(x_p, h_p)`` rotated by each packet's phase plus the AWGN
        its seed draws — the same per-seed noise realizations as the
        seed's per-packet synthesis.

        Parameters
        ----------
        deltas:
            Per-packet :meth:`packet_deltas` span lists, length ``P``.
        channels:
            ``(P, num_taps)`` complex FIR channels (``h_true``).
        phase_offsets:
            ``(P,)`` float64 crystal phases in radians.
        noise_seeds:
            ``(P,)`` uint64 per-packet AWGN seeds.
        noise_power:
            Shared complex noise power (one SNR operating point).
        reuse_buffer:
            With ``True`` the returned matrix aliases an internal
            scratch buffer that the next ``reuse_buffer`` call
            overwrites; use it when the rows are consumed before the
            engine is invoked again (the chunked generator/runner
            loops).

        Returns
        -------
        numpy.ndarray
            ``(P, received_length)`` complex128 received matrix.  The
            clean part matches the scalar path within ``1e-10``; the
            noise realization per seed is bit-exact, so recorded
            campaigns replay identically under either engine.
        """
        channels = np.asarray(channels, dtype=np.complex128)
        phases = np.exp(
            1j * np.asarray(phase_offsets, dtype=np.float64)
        )
        out = None
        if reuse_buffer:
            rows = channels.shape[0]
            scratch = self._received_scratch
            if scratch is None or scratch.shape[0] < rows:
                scratch = np.empty(
                    (rows, self.received_length), dtype=np.complex128
                )
                self._received_scratch = scratch
            out = scratch[:rows]
        # The crystal rotation commutes with the convolution, so rotating
        # the 11-tap channels instead of the waveforms saves one full
        # pass over the sample matrix.
        received = self.clean_waveforms_convolved(
            deltas, channels * phases[:, None], out=out
        )
        length = received.shape[1]
        scale = np.sqrt(noise_power / 2.0)
        draws = self._draws_scratch
        for row in range(received.shape[0]):
            line = received[row]
            np.random.default_rng(
                int(noise_seeds[row])
            ).standard_normal(out=draws)
            draws *= scale
            line.real += draws[:length]
            line.imag += draws[length:]
        return received

    # -- batched whole-packet LS -----------------------------------------
    def full_ls_estimates(
        self,
        received: np.ndarray,
        deltas: list[list[tuple[int, np.ndarray]]],
    ) -> np.ndarray:
        """Whole-packet LS estimates for a batch of received rows.

        Parameters
        ----------
        received:
            ``(P, received_length)`` complex received matrix.
        deltas:
            Per-packet :meth:`packet_deltas` span lists, length ``P``.

        Returns
        -------
        numpy.ndarray
            ``(P, num_taps)`` complex128 tap matrix; row ``p`` matches
            the whole-packet LS estimate of ``received[p]`` against
            ``x_p`` (the oracle ``ls_channel_estimate(x_p, received[p],
            N, mode="full")``) within ``1e-10`` without materializing
            any per-packet reference ``x_p``.
        """
        from ..dsp.estimation import solve_ls_normal_equations

        received = np.asarray(received, dtype=np.complex128)
        if received.ndim != 2 or received.shape[1] != self.received_length:
            raise ShapeError(
                f"received must be (P, {self.received_length}), got "
                f"{received.shape}"
            )
        num_taps = self.num_taps
        cross = received @ self._corr_matrix
        guarded = self._template_guarded
        offset = num_taps - 1
        estimates = np.empty(
            (received.shape[0], num_taps), dtype=np.complex128
        )
        for row, spans in enumerate(deltas):
            autocorr = self._template_autocorr
            if spans:
                autocorr = autocorr.copy()
                cross_row = cross[row]
                for start, span in spans:
                    length = len(span)
                    # X^H y correction on the span.
                    cross_row += np.correlate(
                        received[row, start : start + length + offset],
                        span,
                        mode="valid",
                    )
                    # Autocorrelation corrections: template x delta (both
                    # orders) and delta x delta.
                    base = start + offset
                    autocorr += np.correlate(
                        guarded[base : base + length + offset],
                        span,
                        mode="valid",
                    )
                    flipped = np.correlate(
                        guarded[start : start + length + offset],
                        span,
                        mode="valid",
                    )
                    autocorr += np.conj(flipped[::-1])
                    autocorr += np.correlate(
                        np.concatenate(
                            [span, np.zeros(offset, dtype=np.complex128)]
                        ),
                        span,
                        mode="valid",
                    )
            estimates[row] = solve_ls_normal_equations(
                autocorr, cross[row]
            )
        return estimates


def get_batch_engine(transmitter, num_taps: int) -> BatchPhyEngine:
    """Fetch (or lazily build) the batch engine cached on a transmitter.

    The engine lives in ``transmitter.batch_engines`` and refers back to
    its transmitter only weakly, so dropping the transmitter frees both.
    """
    engine = transmitter.batch_engines.get(num_taps)
    if engine is None:
        engine = BatchPhyEngine(transmitter, num_taps)
        transmitter.batch_engines[num_taps] = engine
    return engine
