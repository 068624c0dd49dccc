"""Online VVD inference service with cross-link micro-batching.

The closed-loop simulator produces one prediction request per link per
packet slot.  :class:`PredictionService` queues concurrently pending
requests from *all* links and serves them in micro-batched forward
passes — the serving-side analogue of the batched PHY engine.
``benchmarks/test_stream_throughput.py`` pins the throughput at 64
concurrent links against the per-request serving layer one would write
on the seed codebase (reference conv engine, one forward per frame).
:meth:`~repro.nn.model.Sequential.predict` runs the convolution stages
over cache-sized chunks of frames, so a frame costs no more in a batch
of 64 than alone.

The flush composition is part of the payload contract.  Links are
served in sorted order, in chunks of ``max_batch`` (16), and neither
may change without changing stream payloads: the convolution stages
compute every frame on its own, bit-identically under any chunking,
but the dense tail multiplies a chunk's rows in one GEMM whose bits
depend on the row count.  The same 16 frames predicted 1 or 2 rows at
a time, or 64 frames 4 to 8 rows at a time, differ in the last bits.

Models resolve through the content-addressed
:class:`~repro.campaign.models.ModelCheckpointRegistry`
(:meth:`PredictionService.from_registry`), so a warmed registry brings a
service up without training and repeat campaign runs are pure
checkpoint hits.

The service tracks per-request latency and aggregate throughput
counters (:class:`ServiceStats`).  They measure *wall time* and are
intentionally excluded from the deterministic stream-metric payloads.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .. import faults
from ..core.blockage import BlockageDetector
from ..core.training import TrainedVVD
from ..errors import ConfigurationError
from ..experiments.metrics import LatencyReservoir
from ..obs import trace
from ..vision.preprocessing import normalize_depth_batch

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..campaign.models import ModelCheckpointRegistry
    from ..config import SimulationConfig
    from ..dataset.trace import MeasurementSet


@dataclass
class ServiceStats:
    """Latency/throughput accounting of one :class:`PredictionService`."""

    #: Requests accepted by :meth:`PredictionService.submit`.
    requests: int = 0
    #: Predictions returned (micro-batched path).
    predictions: int = 0
    #: Forward passes executed by :meth:`PredictionService.flush`.
    batches: int = 0
    #: Largest micro-batch served so far.
    max_batch: int = 0
    #: Wall time spent inside micro-batched forward passes.
    flush_seconds: float = 0.0
    #: Predictions served through the per-request baseline path.
    singles: int = 0
    #: Wall time spent inside per-request forward passes.
    single_seconds: float = 0.0
    #: Requests rejected by admission control (``admission_limit``).
    shed_requests: int = 0
    #: Bounded per-request latency accounting (submit -> completed
    #: flush).  The old unbounded ``latencies_s`` list leaked one float
    #: per request forever — fatal at 10k links; the reservoir keeps a
    #: deterministic fixed-size sample plus exact count / sum / max.
    latency: LatencyReservoir = field(
        default_factory=lambda: LatencyReservoir(seed="service")
    )

    @property
    def latencies_s(self) -> list[float]:
        """Latency samples currently held by the reservoir (bounded
        back-compat view of the old unbounded list)."""
        return self.latency.samples

    def record_latency(self, value_s: float) -> None:
        """Record one request latency sample (seconds)."""
        self.latency.add(value_s)

    def observe_flush(
        self,
        chunk_size: int,
        started_at: float,
        completed_at: float,
        submitted_ats: "Sequence[float]",
    ) -> None:
        """Account one micro-batched forward pass.

        Exactly one ``(started_at, completed_at)`` clock pair per
        chunk feeds *both* the running counters and the per-request
        latency reservoir, so ``flush_seconds`` and every reservoir
        sample are mutually consistent by construction —
        ``latency_quantiles`` and ``latency_sla`` can never disagree
        about which events they summarize (pinned in
        ``tests/stream/test_service.py``).
        """
        self.batches += 1
        self.predictions += chunk_size
        if chunk_size > self.max_batch:
            self.max_batch = chunk_size
        self.flush_seconds += completed_at - started_at
        for submitted_at in submitted_ats:
            self.latency.add(completed_at - submitted_at)

    def observe_single(
        self, started_at: float, completed_at: float
    ) -> None:
        """Account one per-request baseline forward pass."""
        self.singles += 1
        self.single_seconds += completed_at - started_at

    def predictions_per_second(self) -> float:
        """Aggregate micro-batched throughput (0.0 before any flush)."""
        if self.flush_seconds <= 0.0:
            return 0.0
        return self.predictions / self.flush_seconds

    def latency_quantiles(self) -> tuple[float, float]:
        """(median, p95) per-request latency in seconds (0.0 when idle)."""
        if self.latency.count == 0:
            return 0.0, 0.0
        p50, p95 = self.latency.percentiles([50, 95])
        return p50, p95

    def latency_sla(self) -> tuple[float, float, float]:
        """(p50, p99, p999) per-request latency in seconds — the SLA
        trio reported by capacity runs (0.0 each when idle)."""
        return self.latency.quantiles()

    def mean_batch_size(self) -> float:
        """Average micro-batch size (0.0 before any flush)."""
        if self.batches == 0:
            return 0.0
        return self.predictions / self.batches

    def summary(self) -> str:
        """One-line human-readable form used by the CLI."""
        p50, p95 = self.latency_quantiles()
        return (
            f"{self.predictions} prediction(s) in {self.batches} "
            f"batch(es) (mean {self.mean_batch_size():.1f}, max "
            f"{self.max_batch}); {self.predictions_per_second():.0f} "
            f"pred/s, latency p50 {1e3 * p50:.2f} ms / p95 "
            f"{1e3 * p95:.2f} ms"
        )


@dataclass
class _PendingRequest:
    link: int
    frame: np.ndarray
    submitted_at: float


@dataclass
class Prediction:
    """One served request: canonical CIR estimate + blockage probability.

    ``blockage_probability`` is ``None`` when the service carries no
    :class:`~repro.core.blockage.BlockageDetector` (prediction-only
    deployments).
    """

    taps: np.ndarray
    blockage_probability: float | None = None


class PredictionService:
    """Micro-batching depth-frame -> CIR inference front-end.

    Requests accumulate via :meth:`submit` and are served together by
    :meth:`flush`: pending frames are stacked, normalized in one
    vectorized pass (:func:`~repro.vision.preprocessing.
    normalize_depth_batch`) and pushed through
    :meth:`~repro.core.training.TrainedVVD.predict_cir` in chunks of at
    most ``max_batch``.  Predictions are deterministic functions of the
    frames *and* of that composition: a chunk's dense layers run on its
    rows together, and their bits depend on the row count.  Links are
    always served in sorted order and ``max_batch`` is part of the
    stream payload contract, so a replay reproduces every bit; other
    compositions agree with these predictions to float32 rounding.
    """

    def __init__(
        self,
        trained: TrainedVVD,
        max_depth_m: float,
        max_batch: int = 16,
        detector: BlockageDetector | None = None,
        admission_limit: int | None = None,
    ) -> None:
        if max_batch < 1:
            raise ConfigurationError(
                f"max_batch must be >= 1, got {max_batch}"
            )
        if admission_limit is not None and admission_limit < 1:
            raise ConfigurationError(
                f"admission_limit must be >= 1, got {admission_limit}"
            )
        self.trained = trained
        self.max_depth_m = float(max_depth_m)
        self.max_batch = int(max_batch)
        #: Admission control: at most this many links pending per flush
        #: cycle; excess submits are shed (``None`` = accept all, the
        #: pre-SLA behavior).
        self.admission_limit = (
            None if admission_limit is None else int(admission_limit)
        )
        #: Optional Sec. 6.4 blockage head served alongside the CIR
        #: prediction (one pooled matmul per micro-batch — negligible
        #: next to the CNN forward).
        self.detector = detector
        self.stats = ServiceStats()
        self._pending: dict[int, _PendingRequest] = {}

    @classmethod
    def from_registry(
        cls,
        registry: "ModelCheckpointRegistry",
        config: "SimulationConfig",
        training_sets: "Sequence[MeasurementSet]",
        validation_sets: "Sequence[MeasurementSet]",
        horizon_frames: int = 0,
        seed: int = 7,
        engine: str = "batch",
        verbose: bool = False,
        max_batch: int = 16,
        with_blockage_detector: bool = True,
    ) -> "PredictionService":
        """Bring a service up through the model checkpoint registry.

        The CNN resolves content-addressed — training runs only when the
        (config, split, horizon, seed) key has no checkpoint — so a
        service restart over a warmed registry is load-only.  The
        Sec. 6.4 blockage head (``with_blockage_detector``) is a
        deterministic logistic fit over the same training sets; it
        trains in milliseconds, so it is simply re-fit at service
        construction rather than checkpointed.
        """
        trained = registry.load_or_train(
            training_sets,
            validation_sets,
            config,
            horizon_frames=horizon_frames,
            seed=seed,
            engine=engine,
            verbose=verbose,
        )
        detector = None
        if with_blockage_detector:
            detector = BlockageDetector().fit(training_sets, config)
        return cls(
            trained,
            config.camera.max_depth_m,
            max_batch=max_batch,
            detector=detector,
        )

    # -- request path -----------------------------------------------------
    def submit(self, link: int, frame: np.ndarray) -> bool:
        """Queue one link's depth frame for the next :meth:`flush`.

        A second submit from the same link before the flush replaces the
        earlier frame — the service always answers with the freshest
        camera output, exactly like a real serving queue coalescing
        stale requests.  With ``admission_limit`` set, a *new* link
        beyond the limit is shed instead of queued (returns ``False``
        and counts in ``stats.shed_requests``); refreshing an
        already-pending link is always admitted.
        """
        if (
            self.admission_limit is not None
            and link not in self._pending
            and len(self._pending) >= self.admission_limit
        ):
            self.stats.shed_requests += 1
            return False
        self._pending[link] = _PendingRequest(
            link=link,
            frame=np.asarray(frame),
            submitted_at=time.perf_counter(),
        )
        self.stats.requests += 1
        return True

    @property
    def pending(self) -> int:
        """Requests waiting for the next flush."""
        return len(self._pending)

    def flush(self) -> dict[int, Prediction]:
        """Serve every pending request in micro-batched forward passes.

        Returns ``{link: Prediction}`` for each pending link.  Links are
        processed in sorted order and chunked by ``max_batch``; results
        agree with per-request inference to float32 rounding and repeat
        bit for bit for the same pending links, because the chunk rows
        the dense layers see are fixed by that order.  When the service
        carries a blockage detector, its probabilities come from the
        same normalized micro-batch.
        """
        if not self._pending:
            return {}
        if faults.active_plan() is not None:
            # Chaos hook: an io_error spec here simulates a serving
            # outage, a stall spec a slow forward pass — the simulator's
            # degraded mode must absorb both.
            faults.inject("service.flush", f"batch@{self.stats.batches}")
        requests = [
            self._pending[link] for link in sorted(self._pending)
        ]
        self._pending.clear()
        results: dict[int, Prediction] = {}
        with trace.span("service.flush", pending=len(requests)):
            for lo in range(0, len(requests), self.max_batch):
                chunk = requests[lo : lo + self.max_batch]
                start = time.perf_counter()
                frames = np.stack(
                    [request.frame for request in chunk]
                )
                images = normalize_depth_batch(
                    frames, self.max_depth_m
                )
                taps = self.trained.predict_cir(images)
                probabilities = None
                if self.detector is not None:
                    probabilities = self.detector.predict_proba(images)
                completed = time.perf_counter()
                self.stats.observe_flush(
                    len(chunk),
                    start,
                    completed,
                    [request.submitted_at for request in chunk],
                )
                for row, request in enumerate(chunk):
                    results[request.link] = Prediction(
                        taps=taps[row],
                        blockage_probability=(
                            None
                            if probabilities is None
                            else float(probabilities[row])
                        ),
                    )
        return results

    def predict_one(self, frame: np.ndarray) -> Prediction:
        """Per-request baseline: one frame, one forward pass.

        This is the path micro-batching replaces; the stream-throughput
        benchmark measures its predictions/s against :meth:`flush` at 64
        concurrent links.
        """
        start = time.perf_counter()
        frames = np.asarray(frame)[None, ...]
        images = normalize_depth_batch(frames, self.max_depth_m)
        taps = self.trained.predict_cir(images)[0]
        probability = None
        if self.detector is not None:
            probability = float(self.detector.predict_proba(images)[0])
        completed = time.perf_counter()
        self.stats.observe_single(start, completed)
        return Prediction(taps=taps, blockage_probability=probability)
