"""Comparison metrics (paper Sec. 5.5), stream metrics and box statistics.

- **PER**: erroneous packets / transmitted packets.  A packet is erroneous
  when no estimate was available (preamble-detection failure for the
  preamble-based technique) or when the decoded PSDU differs from the
  transmitted one (FCS mismatch).
- **CER**: erroneous chips / total PSDU chips after equalization
  (8128 chips per 127-byte packet).
- **MSE**: Eq. 9 against the perfect (whole-packet LS) estimate, computed
  in the canonical phase domain.

:class:`StreamMetrics` aggregates the closed-loop link-adaptation
counters of :mod:`repro.stream.simulator` (goodput, outage,
deadline-miss, deferral).  Every ratio is defined for empty runs — zero
attempts, zero offered packets — so stream payloads never contain NaN
or raise on division (the edge cases are pinned in
``tests/experiments/test_stream_metrics.py``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from ..errors import ShapeError

#: Default bound of a :class:`LatencyReservoir`.  Big enough that p999
#: over a capacity run is estimated from thousands of samples, small
#: enough that 10k links cannot grow service memory without bound.
RESERVOIR_CAPACITY = 4096


@dataclass
class PacketOutcome:
    """Per-packet, per-technique decoding outcome."""

    packet_error: bool
    chip_errors: int
    total_chips: int
    mse: float | None
    estimate_available: bool


@dataclass
class TechniqueResult:
    """Aggregated outcomes of one technique over one test set."""

    name: str
    outcomes: list[PacketOutcome] = field(default_factory=list)

    def add(self, outcome: PacketOutcome) -> None:
        self.outcomes.append(outcome)

    @property
    def num_packets(self) -> int:
        return len(self.outcomes)

    @property
    def per(self) -> float:
        """Packet error rate; raises :class:`ShapeError` on zero packets
        (never a 0/0 NaN — an empty result is a caller bug)."""
        if not self.outcomes:
            raise ShapeError(f"no outcomes recorded for {self.name!r}")
        return float(np.mean([o.packet_error for o in self.outcomes]))

    @property
    def cer(self) -> float:
        """Chip error rate; raises :class:`ShapeError` on zero packets or
        zero recorded chips instead of dividing by zero.  All-unavailable
        results are well-defined (every chip counts as erroneous)."""
        if not self.outcomes:
            raise ShapeError(f"no outcomes recorded for {self.name!r}")
        chips = sum(o.total_chips for o in self.outcomes)
        errors = sum(o.chip_errors for o in self.outcomes)
        if chips == 0:
            raise ShapeError(f"no chips recorded for {self.name!r}")
        return errors / chips

    @property
    def mse(self) -> float:
        """Mean Eq. 9 MSE over packets that carried a canonical estimate;
        NaN when none did (zero-packet and all-unavailable results)."""
        values = [o.mse for o in self.outcomes if o.mse is not None]
        if not values:
            return float("nan")
        return float(np.mean(values))

    @property
    def availability(self) -> float:
        """Fraction of packets for which an estimate existed (0.0 for
        all-unavailable results); raises on zero packets like :attr:`per`."""
        if not self.outcomes:
            raise ShapeError(f"no outcomes recorded for {self.name!r}")
        return float(np.mean([o.estimate_available for o in self.outcomes]))


class LatencyReservoir:
    """Bounded, deterministic latency sample (Algorithm R) + exact sums.

    ``ServiceStats.latencies_s`` used to append every request forever —
    an unbounded memory leak at 10k links.  The reservoir keeps a
    uniform sample of at most ``capacity`` values plus *exact* running
    count / sum / max, so means stay exact while quantiles (p50 / p99 /
    p999) are estimated from the sample.  Replacement indices come from
    a :class:`random.Random` seeded with a *string* (string seeding
    hashes via sha512, so the stream is identical across processes and
    platforms) — the reservoir is a pure function of the seed and the
    value sequence, which keeps SLA payloads byte-identical across
    repeat runs and ``--jobs N``.
    """

    def __init__(
        self,
        capacity: int = RESERVOIR_CAPACITY,
        seed: str = "latency",
    ) -> None:
        if capacity < 1:
            raise ShapeError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self.seed = str(seed)
        self.count = 0
        self.total_s = 0.0
        self.max_s = 0.0
        self.samples: list[float] = []
        self._rng = random.Random(f"reservoir:{self.seed}")
        #: Persisted (p50, p99, p999) of a payload-reloaded reservoir —
        #: samples are not persisted, only their summary, so reloaded
        #: metrics answer :meth:`quantiles` from here.
        self._loaded_quantiles: tuple[float, float, float] | None = None

    def add(self, value_s: float) -> None:
        """Record one latency sample (seconds)."""
        value_s = float(value_s)
        self.count += 1
        self.total_s += value_s
        if value_s > self.max_s:
            self.max_s = value_s
        if len(self.samples) < self.capacity:
            self.samples.append(value_s)
            return
        slot = self._rng.randrange(self.count)
        if slot < self.capacity:
            self.samples[slot] = value_s

    def extend(self, values_s) -> None:
        for value_s in values_s:
            self.add(value_s)

    @property
    def mean_s(self) -> float:
        """Exact mean latency (0.0 when empty)."""
        if self.count == 0:
            return 0.0
        return self.total_s / self.count

    def percentiles(self, qs) -> list[float]:
        """Sample-estimated percentiles, ``0.0`` each when empty."""
        if not self.samples:
            return [0.0 for _ in qs]
        values = np.percentile(self.samples, list(qs))
        return [float(v) for v in values]

    def quantiles(self) -> tuple[float, float, float]:
        """(p50, p99, p999) latency in seconds — the SLA trio.

        Falls back to the persisted summary when the reservoir was
        reloaded from a payload (samples are never persisted)."""
        if not self.samples and self._loaded_quantiles is not None:
            return self._loaded_quantiles
        p50, p99, p999 = self.percentiles([50, 99, 99.9])
        return p50, p99, p999

    def merge(self, other: "LatencyReservoir") -> "LatencyReservoir":
        """Fold another reservoir in (replays its sample through
        Algorithm R, so the merge is deterministic; exact count / sum /
        max stay exact)."""
        self.total_s += other.total_s
        if other.max_s > self.max_s:
            self.max_s = other.max_s
        for value_s in other.samples:
            self.count += 1
            if len(self.samples) < self.capacity:
                self.samples.append(value_s)
                continue
            slot = self._rng.randrange(self.count)
            if slot < self.capacity:
                self.samples[slot] = value_s
        self.count += other.count - len(other.samples)
        return self

    def as_dict(self) -> dict:
        """Deterministic JSON-able summary (not the raw sample)."""
        p50, p99, p999 = self.quantiles()
        return {
            "count": self.count,
            "mean_s": self.mean_s,
            "max_s": self.max_s,
            "p50_s": p50,
            "p99_s": p99,
            "p999_s": p999,
        }


@dataclass
class ClassMetrics:
    """Per-QoS-class SLA counters of one capacity / stream run.

    Mirrors the :class:`StreamMetrics` philosophy: plain summing
    counters, total-function ratios (zero offered / zero duration are
    well-defined), :meth:`merge` for per-link -> aggregate folding.
    Latency is carried as a :class:`LatencyReservoir` so per-class
    p50/p99/p999 survive into payloads without unbounded lists.
    """

    #: Packets that arrived for this class.
    offered: int = 0
    #: Arrivals accepted by admission control.
    admitted: int = 0
    #: Arrivals rejected (load shedding / admission limit).
    shed: int = 0
    #: Admitted packets delivered within their deadline.
    delivered: int = 0
    #: Admitted packets dropped because their deadline passed.
    deadline_misses: int = 0
    #: Simulated time covered by the counters.
    duration_s: float = 0.0
    #: Prediction latency of served requests in this class.
    latency: LatencyReservoir = field(
        default_factory=lambda: LatencyReservoir(seed="class")
    )

    @property
    def shed_rate(self) -> float:
        """Shed arrivals / offered arrivals (0.0 when idle)."""
        if self.offered == 0:
            return 0.0
        return self.shed / self.offered

    @property
    def deadline_miss_rate(self) -> float:
        """Deadline misses / *offered* arrivals — shedding a packet
        never improves the SLO (0.0 when idle)."""
        if self.offered == 0:
            return 0.0
        return self.deadline_misses / self.offered

    @property
    def slo_miss_rate(self) -> float:
        """(deadline misses + shed) / offered — the rate SLO verdicts
        use: shedding a packet never improves the SLO (0.0 when idle)."""
        if self.offered == 0:
            return 0.0
        return (self.deadline_misses + self.shed) / self.offered

    @property
    def delivery_rate(self) -> float:
        """Delivered / offered arrivals (0.0 when idle)."""
        if self.offered == 0:
            return 0.0
        return self.delivered / self.offered

    @property
    def goodput_pps(self) -> float:
        """Delivered packets per second of simulated time."""
        if self.duration_s <= 0.0:
            return 0.0
        return self.delivered / self.duration_s

    def merge(self, other: "ClassMetrics") -> "ClassMetrics":
        """Accumulate another link's class counters into this one."""
        self.offered += other.offered
        self.admitted += other.admitted
        self.shed += other.shed
        self.delivered += other.delivered
        self.deadline_misses += other.deadline_misses
        self.duration_s = max(self.duration_s, other.duration_s)
        self.latency.merge(other.latency)
        return self

    def as_dict(self) -> dict:
        """Deterministic JSON-able form (counters + ratios + latency)."""
        return {
            "offered": self.offered,
            "admitted": self.admitted,
            "shed": self.shed,
            "delivered": self.delivered,
            "deadline_misses": self.deadline_misses,
            "duration_s": self.duration_s,
            "shed_rate": self.shed_rate,
            "deadline_miss_rate": self.deadline_miss_rate,
            "slo_miss_rate": self.slo_miss_rate,
            "delivery_rate": self.delivery_rate,
            "goodput_pps": self.goodput_pps,
            "latency": self.latency.as_dict(),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ClassMetrics":
        """Rebuild counters from :meth:`as_dict` output.

        The latency reservoir is summary-only in payloads, so the
        rebuilt instance carries the exact count / sum / max but an
        empty sample (quantiles of reloaded metrics read from the
        persisted summary, not from here).
        """
        metrics = cls(
            offered=int(payload.get("offered", 0)),
            admitted=int(payload.get("admitted", 0)),
            shed=int(payload.get("shed", 0)),
            delivered=int(payload.get("delivered", 0)),
            deadline_misses=int(payload.get("deadline_misses", 0)),
            duration_s=float(payload.get("duration_s", 0.0)),
        )
        latency = payload.get("latency", {})
        metrics.latency.count = int(latency.get("count", 0))
        metrics.latency.total_s = float(
            latency.get("count", 0)
        ) * float(latency.get("mean_s", 0.0))
        metrics.latency.max_s = float(latency.get("max_s", 0.0))
        metrics.latency._loaded_quantiles = (
            float(latency.get("p50_s", 0.0)),
            float(latency.get("p99_s", 0.0)),
            float(latency.get("p999_s", 0.0)),
        )
        return metrics


@dataclass
class StreamMetrics:
    """Closed-loop counters of one policy over one (or many) links.

    Counters are plain sums, so per-link instances combine into an
    aggregate with :meth:`merge`.  The derived ratios are total
    functions: a run with zero attempts has outage 0.0 (nothing was
    transmitted, nothing failed), a run with zero offered packets has
    deadline-miss rate 0.0, and a zero-duration run has goodput 0.0 —
    no division by zero, no NaN in persisted payloads.
    """

    #: Packets that arrived at the link's transmit queue.
    offered: int = 0
    #: Packets successfully delivered (decoded with matching PSDU).
    delivered: int = 0
    #: Transmission attempts (retransmissions included).
    attempts: int = 0
    #: Attempts that failed to decode.
    failures: int = 0
    #: Slots where the policy chose not to transmit.
    deferrals: int = 0
    #: Offered packets dropped because their deadline passed undelivered.
    deadline_misses: int = 0
    #: Packet slots this link served inside a *degraded* prediction
    #: round — the service raised or blew the round deadline, so the
    #: proactive policy could not be consulted (merged totals sum
    #: link-slots, so N links in one degraded round count N).
    degraded_rounds: int = 0
    #: Decisions delegated to the reactive fallback policy during
    #: degraded rounds.
    fallback_decisions: int = 0
    #: Simulated wall time covered by the counters.
    duration_s: float = 0.0
    #: Per-QoS-class SLA breakdown (empty for homogeneous replay runs —
    #: and *elided* from payloads when empty, so pre-SLA stream
    #: payloads stay byte-identical).
    classes: dict[str, ClassMetrics] = field(default_factory=dict)

    @property
    def goodput_pps(self) -> float:
        """Delivered packets per second of simulated time."""
        if self.duration_s <= 0.0:
            return 0.0
        return self.delivered / self.duration_s

    @property
    def outage(self) -> float:
        """Failed transmission attempts / attempts (0.0 when idle)."""
        if self.attempts == 0:
            return 0.0
        return self.failures / self.attempts

    @property
    def deadline_miss_rate(self) -> float:
        """Deadline-expired packets / offered packets (0.0 when idle)."""
        if self.offered == 0:
            return 0.0
        return self.deadline_misses / self.offered

    @property
    def defer_rate(self) -> float:
        """Deferred slots / decision slots (0.0 when idle)."""
        decisions = self.attempts + self.deferrals
        if decisions == 0:
            return 0.0
        return self.deferrals / decisions

    @property
    def delivery_rate(self) -> float:
        """Delivered / offered packets (0.0 when idle)."""
        if self.offered == 0:
            return 0.0
        return self.delivered / self.offered

    def merge(self, other: "StreamMetrics") -> "StreamMetrics":
        """Accumulate another link's counters into this instance."""
        self.offered += other.offered
        self.delivered += other.delivered
        self.attempts += other.attempts
        self.failures += other.failures
        self.deferrals += other.deferrals
        self.deadline_misses += other.deadline_misses
        self.degraded_rounds += other.degraded_rounds
        self.fallback_decisions += other.fallback_decisions
        self.duration_s = max(self.duration_s, other.duration_s)
        for name, theirs in other.classes.items():
            if name in self.classes:
                self.classes[name].merge(theirs)
            else:
                mine = ClassMetrics()
                mine.merge(theirs)
                self.classes[name] = mine
        return self

    def as_dict(self) -> dict:
        """Deterministic JSON-able form (counters + derived ratios).

        ``classes`` is emitted only when non-empty: homogeneous replay
        payloads (the byte-identity back-compat pin) never carried the
        key and must not start doing so.
        """
        payload = {
            "offered": self.offered,
            "delivered": self.delivered,
            "attempts": self.attempts,
            "failures": self.failures,
            "deferrals": self.deferrals,
            "deadline_misses": self.deadline_misses,
            "degraded_rounds": self.degraded_rounds,
            "fallback_decisions": self.fallback_decisions,
            "duration_s": self.duration_s,
            "goodput_pps": self.goodput_pps,
            "outage": self.outage,
            "deadline_miss_rate": self.deadline_miss_rate,
            "defer_rate": self.defer_rate,
            "delivery_rate": self.delivery_rate,
        }
        if self.classes:
            payload["classes"] = {
                name: self.classes[name].as_dict()
                for name in sorted(self.classes)
            }
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "StreamMetrics":
        """Rebuild the counters from :meth:`as_dict` output.

        The degraded-mode counters default to 0 and ``classes`` to an
        empty map, so payloads persisted before they existed keep
        loading.
        """
        return cls(
            offered=int(payload["offered"]),
            delivered=int(payload["delivered"]),
            attempts=int(payload["attempts"]),
            failures=int(payload["failures"]),
            deferrals=int(payload["deferrals"]),
            deadline_misses=int(payload["deadline_misses"]),
            degraded_rounds=int(payload.get("degraded_rounds", 0)),
            fallback_decisions=int(
                payload.get("fallback_decisions", 0)
            ),
            duration_s=float(payload["duration_s"]),
            classes={
                name: ClassMetrics.from_dict(entry)
                for name, entry in sorted(
                    payload.get("classes", {}).items()
                )
            },
        )


@dataclass(frozen=True)
class BoxStats:
    """Five-number summary used to reproduce the paper's box plots."""

    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float
    mean: float

    def as_row(self) -> str:
        return (
            f"min={self.minimum:.3e} q1={self.q1:.3e} "
            f"med={self.median:.3e} q3={self.q3:.3e} "
            f"max={self.maximum:.3e} mean={self.mean:.3e}"
        )


def box_stats(values) -> BoxStats:
    """Five-number summary of the 15 per-combination means (Sec. 6)."""
    array = np.asarray(list(values), dtype=np.float64)
    if array.size == 0:
        raise ShapeError("box_stats of an empty sequence")
    finite = array[np.isfinite(array)]
    if finite.size == 0:
        raise ShapeError("box_stats of all-NaN values")
    q1, median, q3 = np.percentile(finite, [25, 50, 75])
    return BoxStats(
        minimum=float(finite.min()),
        q1=float(q1),
        median=float(median),
        q3=float(q3),
        maximum=float(finite.max()),
        mean=float(finite.mean()),
    )
