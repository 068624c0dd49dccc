"""The evaluation loop (paper Sec. 6).

For each Table 2 combination: prepare every technique on the training +
validation sets, then decode every test-set packet with every technique
under identical receiver processing.  Per packet the received waveform is
re-synthesized once and shared across techniques — only the channel
estimate differs, as in the paper.

Both loops decode through the batched receiver
(:meth:`EvaluationRunner.decode_packets`, one
:meth:`~repro.phy.receiver.Receiver.decode_batch` call per batch): the
offline loop decodes each chunk's (packet, technique) rows in calls of
at most :data:`DECODE_SAMPLES` received samples, the closed-loop stream
each slot's packets in one call.  The per-packet scalar decode
(:meth:`EvaluationRunner.decode_packet`) stays as the tests' oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..config import SimulationConfig
from ..dataset.generator import (
    SimulationComponents,
    build_components,
    synthesize_received_batch,
)
from ..dataset.sets import SetCombination
from ..dataset.trace import MeasurementSet, PacketRecord
from ..dsp.metrics import complex_mse
from ..dsp.phase import correct_phase
from ..errors import DatasetError
from ..obs import log
from ..estimation.base import (
    ChannelEstimate,
    ChannelEstimator,
    PacketContext,
)
from ..phy.frame import make_psdu
from ..phy.receiver import DecodeResult
from ..phy.transmitter import TransmittedPacket
from .metrics import PacketOutcome, TechniqueResult

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..campaign.cache import DatasetCache

#: Test packets re-synthesized together by :meth:`EvaluationRunner.
#: run_combination`.
CHUNK_PACKETS = 64

#: Received samples (complex128, 8 MiB) one offline decode call holds.
#: A call's working set is a few copies of its rows, so capping the
#: samples keeps it flat in the suite size and the packet length: a
#: smoke chunk decodes in one call, a chunk of 127-byte packets in
#: calls of 15 rows.
DECODE_SAMPLES = 1 << 19


@dataclass
class CombinationResult:
    """All technique results for one Table 2 combination."""

    combination: SetCombination
    techniques: dict[str, TechniqueResult]

    def technique(self, name: str) -> TechniqueResult:
        """The result of technique ``name`` (raises if it did not run)."""
        if name not in self.techniques:
            raise DatasetError(
                f"no result for technique {name!r}; have "
                f"{sorted(self.techniques)}"
            )
        return self.techniques[name]


class EvaluationRunner:
    """Evaluates estimator suites over set combinations."""

    def __init__(
        self,
        components: SimulationComponents,
        sets: Sequence[MeasurementSet],
    ) -> None:
        self.components = components
        self.sets = list(sets)

    @classmethod
    def from_cache(
        cls,
        config: SimulationConfig,
        cache: "DatasetCache",
        workers: int | None = None,
    ) -> "EvaluationRunner":
        """Build a runner whose sets resolve through the dataset cache.

        Used by :func:`~repro.experiments.snr_sweep.evaluate_snr_point`
        (and thus the campaign CLI): components are constructed from
        ``config`` and the measurement sets are loaded from (or, on a
        miss, generated into) ``cache``.
        """
        components = build_components(config)
        sets = cache.load_or_generate(config, workers=workers)
        return cls(components, sets)

    # -- single-packet decoding ------------------------------------------
    def decode_packet(
        self,
        estimate: ChannelEstimate | None,
        packet: TransmittedPacket,
        received: np.ndarray,
        record: PacketRecord,
    ) -> PacketOutcome:
        """Decode one packet with one technique's estimate (Sec. 5.5).

        The scalar reference of :meth:`decode_packets`, which the
        evaluation and the stream use; tests keep it as their oracle.
        """
        receiver = self.components.receiver
        decoded = None
        if estimate is not None:
            if estimate.taps is None:
                decoded = receiver.decode_standard(received)
            else:
                taps = estimate.taps
                if estimate.needs_phase_alignment:
                    theta = receiver.blind_phase_shift(received, taps)
                    taps = correct_phase(taps, theta)
                decoded = receiver.decode_with_estimate(received, taps)
        return self._outcome(
            estimate, decoded, packet.chips, packet.psdu, record
        )

    def decode_packets(
        self,
        estimates: Sequence[ChannelEstimate | None],
        received: np.ndarray,
        records: Sequence[PacketRecord],
    ) -> list[PacketOutcome]:
        """Row-wise :meth:`decode_packet` with one batched decode.

        ``received[i]`` is the waveform of ``records[i]``, decoded with
        ``estimates[i]``.  Blind estimates (all of one tap count) are
        phase-aligned in one :meth:`~repro.phy.receiver.Receiver.
        blind_phase_shift_batch` call, then every row with an estimate,
        standard rows included, goes through one :meth:`~repro.phy.
        receiver.Receiver.decode_batch` call.  The reference chips and
        PSDU come from the packet's sequence number, without modulating
        its waveform.  Phase angles and soft chips differ from the
        scalar path's by rounding only, so the hard decisions, and with
        them the outcomes, are :meth:`decode_packet`'s.
        """
        receiver = self.components.receiver
        transmitter = self.components.transmitter
        received = np.asarray(received)
        rows = [
            row for row, estimate in enumerate(estimates)
            if estimate is not None
        ]
        taps = [estimates[row].taps for row in rows]
        align = [
            index
            for index, row in enumerate(rows)
            if taps[index] is not None
            and estimates[row].needs_phase_alignment
        ]
        if align:
            blind = np.stack([taps[index] for index in align])
            thetas = receiver.blind_phase_shift_batch(
                received[[rows[index] for index in align]], blind
            )
            aligned = blind * np.exp(1j * thetas)[:, None]
            for index, row_taps in zip(align, aligned):
                taps[index] = row_taps
        decoded: dict[int, DecodeResult] = {}
        if rows:
            decoded = dict(
                zip(rows, receiver.decode_batch(received[rows], taps))
            )
        psdu_bytes = transmitter.phy.psdu_bytes
        # Rows of one packet (one per technique) share its reference.
        references: dict[int, tuple[np.ndarray, bytes]] = {}
        for record in records:
            number = record.sequence_number
            if number not in references:
                references[number] = (
                    transmitter.frame_chips(number),
                    make_psdu(number, psdu_bytes),
                )
        return [
            self._outcome(
                estimate,
                decoded.get(row),
                *references[record.sequence_number],
                record,
            )
            for row, (estimate, record) in enumerate(zip(estimates, records))
        ]

    def _outcome(
        self,
        estimate: ChannelEstimate | None,
        decoded: DecodeResult | None,
        frame_chips: np.ndarray,
        psdu: bytes,
        record: PacketRecord,
    ) -> PacketOutcome:
        """Score one decode against the transmitted chips and PSDU."""
        psdu_slice = self.components.receiver.layout.psdu_chip_slice
        reference_chips = frame_chips[psdu_slice]
        total_chips = len(reference_chips)
        if estimate is None:
            # Preamble-detection failure: the signal is assumed erroneous.
            return PacketOutcome(
                packet_error=True,
                chip_errors=total_chips,
                total_chips=total_chips,
                mse=None,
                estimate_available=False,
            )
        chip_errors = int(
            np.sum(decoded.hard_chips[psdu_slice] != reference_chips)
        )
        mse = None
        if estimate.canonical_taps is not None:
            mse = complex_mse(
                estimate.canonical_taps, record.h_ls_canonical
            )
        return PacketOutcome(
            packet_error=decoded.psdu != psdu,
            chip_errors=chip_errors,
            total_chips=total_chips,
            mse=mse,
            estimate_available=True,
        )

    # -- combination loop --------------------------------------------------
    def run_combination(
        self,
        combination: SetCombination,
        estimators: Sequence[ChannelEstimator],
        skip_initial: int | None = None,
        verbose: bool = False,
    ) -> CombinationResult:
        """Evaluate ``estimators`` on one Table 2 combination."""
        config = self.components.config
        if skip_initial is None:
            skip_initial = config.dataset.skip_initial
        training = [self.sets[i] for i in combination.training_indices()]
        validation = [self.sets[combination.validation_index]]
        test = self.sets[combination.test_index]

        for estimator in estimators:
            estimator.prepare(training, validation, config)
            estimator.reset(test)

        results = {
            estimator.name: TechniqueResult(estimator.name)
            for estimator in estimators
        }
        # Waveform re-synthesis is shared across techniques and batched
        # over packet chunks.  The estimator loop stays sequential,
        # because tracking techniques (Kalman, previous) carry state from
        # packet to packet, but no estimate depends on a decode outcome:
        # each chunk's (packet, technique) rows decode afterwards, in
        # row-capped batches, in packet order per technique.
        for lo in range(0, len(test.packets), CHUNK_PACKETS):
            chunk = test.packets[lo : lo + CHUNK_PACKETS]
            received = synthesize_received_batch(
                self.components, chunk, reuse_buffer=True
            )
            rows: list[tuple[int, str, ChannelEstimate | None]] = []
            for offset, record in enumerate(chunk):
                ctx = PacketContext(
                    measurement_set=test,
                    index=lo + offset,
                    record=record,
                    received=received[offset],
                    receiver=self.components.receiver,
                )
                for estimator in estimators:
                    rows.append(
                        (offset, estimator.name, estimator.estimate(ctx))
                    )
                for estimator in estimators:
                    estimator.observe(ctx)
            per_call = max(1, DECODE_SAMPLES // received.shape[1])
            for start in range(0, len(rows), per_call):
                batch = rows[start : start + per_call]
                offsets = [offset for offset, _, _ in batch]
                outcomes = self.decode_packets(
                    [estimate for _, _, estimate in batch],
                    received[offsets],
                    [chunk[offset] for offset in offsets],
                )
                for (offset, name, _), outcome in zip(batch, outcomes):
                    if lo + offset >= skip_initial:
                        results[name].add(outcome)
        if verbose:
            summary = ", ".join(
                f"{name}: PER={result.per:.3f}"
                for name, result in results.items()
            )
            log.info(
                f"combination {combination.number}: {summary}"
            )
        return CombinationResult(
            combination=combination, techniques=results
        )
