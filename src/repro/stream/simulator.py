"""Closed-loop link-adaptation simulation over merged event streams.

:class:`StreamSimulator` consumes the time-ordered event stream of N
concurrent links (:mod:`repro.stream.events`) and runs one policy
through it end to end: frames update each link's camera state, packet
slots trigger an arrival, a deadline sweep, a (micro-batched) prediction
round, the policy decision, and — for transmitting links — waveform
synthesis and decoding under the offline receiver processing.  A slot's
transmitting links are synthesized together and decoded together: one
:meth:`~repro.experiments.runner.EvaluationRunner.decode_packets` call,
hence one :meth:`~repro.phy.receiver.Receiver.decode_batch`, per slot
round that transmits.  The batched receiver's hard decisions equal the
scalar receiver's, so every outcome is the one per-packet decoding
would give; ``tests/stream/test_slot_work.py`` pins the call counts.

Per slot and link the simulator runs plain ARQ with a deadline: a new
packet joins the link's queue every 100 ms, the head-of-line packet is
attempted (or deferred) once per slot, failures retry on later slots,
and packets whose deadline passes undelivered are dropped as misses.
Waveforms re-synthesize bit-exactly from the recorded noise seeds, and
every data path is deterministic, so one (scenario, seed, policy) tuple
produces bit-identical :class:`~repro.experiments.metrics.StreamMetrics`
across runs and worker settings — pinned by
``tests/stream/test_stream_determinism.py``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from ..channel.blockage import shadow_clearance_m
from ..dataset.generator import (
    SimulationComponents,
    synthesize_received_batch,
)
from ..errors import ConfigurationError, ServiceDeadlineError
from ..obs import log, trace
from ..experiments.metrics import (
    PacketOutcome,
    StreamMetrics,
    TechniqueResult,
)
from ..experiments.runner import EvaluationRunner
from .scheduler import KIND_FRAME, TickEvent, replay_scheduler
from .events import LinkTrace
from .policy import (
    LinkAdaptationPolicy,
    ReactivePreviousPolicy,
    SlotContext,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .service import PredictionService

#: Timeline symbols: delivered / failed attempt / deferred slot.
_SYMBOL_SUCCESS = "."
_SYMBOL_FAILURE = "X"
_SYMBOL_DEFER = "d"


@dataclass
class LinkTimeline:
    """Per-slot strip of one link's closed-loop run (for figures)."""

    #: One symbol per slot (see module constants).
    symbols: str
    #: ``#`` where the walker shadows the LoS, space otherwise.
    blocked: str

    def as_dict(self) -> dict:
        """JSON-able form stored in campaign step payloads."""
        return {"symbols": self.symbols, "blocked": self.blocked}


@dataclass
class StreamPolicyResult:
    """Everything one policy's simulation pass produced."""

    policy: str
    links: int
    num_slots: int
    metrics: StreamMetrics
    per_link: list[StreamMetrics]
    #: Decode outcomes of every transmission attempt (PER/CER/MSE over
    #: attempts, reusing the offline aggregation).
    technique: TechniqueResult
    timelines: list[LinkTimeline]

    def payload(self) -> dict:
        """Deterministic JSON-able payload persisted by campaign steps.

        Wall-time service statistics are deliberately *not* part of the
        payload: everything here is a pure function of (scenario, seed,
        policy), which is what the determinism acceptance test hashes.
        """
        mse = self.technique.mse
        return {
            "policy": self.policy,
            "links": self.links,
            "num_slots": self.num_slots,
            "metrics": self.metrics.as_dict(),
            "per_link": [m.as_dict() for m in self.per_link],
            "attempt_per": (
                self.technique.per if self.technique.outcomes else None
            ),
            "attempt_mse": None if math.isnan(mse) else mse,
            "timelines": [t.as_dict() for t in self.timelines],
        }


@dataclass
class _LinkState:
    """Mutable per-link bookkeeping of one simulation pass."""

    queue: list[int]  # arrival slots of undelivered packets, FIFO
    metrics: StreamMetrics
    symbols: list[str]
    blocked: list[str]
    outcomes: list[PacketOutcome]
    latest_frame: int = -1


class StreamSimulator:
    """Runs link-adaptation policies through one merged event stream.

    Every slot round does its work in batches across links: one
    prediction flush for the links pending at the slot time, one
    waveform synthesis for the links that transmit, and one batched
    decode of them (:meth:`~repro.experiments.runner.EvaluationRunner.
    decode_packets`).  Policies observe the outcomes afterwards, link
    by link in link order, as they decided.
    """

    def __init__(
        self,
        components: SimulationComponents,
        traces: Sequence[LinkTrace],
        deadline_slots: int = 3,
        round_deadline_s: float | None = None,
    ) -> None:
        # Normalize before the emptiness check: an exhausted *generator*
        # is truthy, so guarding the raw argument lets an empty stream
        # through and `run` later dies on `min()` of an empty sequence.
        traces = list(traces)
        if not traces:
            raise ConfigurationError("StreamSimulator needs link traces")
        if deadline_slots < 1:
            raise ConfigurationError(
                f"deadline_slots must be >= 1, got {deadline_slots}"
            )
        if round_deadline_s is not None and round_deadline_s <= 0.0:
            raise ConfigurationError(
                f"round_deadline_s must be > 0, got {round_deadline_s}"
            )
        self.components = components
        self.traces = traces
        self.deadline_slots = int(deadline_slots)
        #: Wall-time budget of one micro-batched prediction round; a
        #: round that raises or overruns it degrades to the reactive
        #: fallback instead of crashing (``None`` disables the budget).
        self.round_deadline_s = (
            None if round_deadline_s is None else float(round_deadline_s)
        )
        #: Offline decode reuse: identical receiver processing per attempt.
        self.runner = EvaluationRunner(
            components, [t.measurement_set for t in self.traces]
        )
        self._shadow = shadow_clearance_m(components.config.channel)

    # -- event loop -------------------------------------------------------
    def run(
        self,
        policy: LinkAdaptationPolicy,
        service: "PredictionService | None" = None,
        verbose: bool = False,
    ) -> StreamPolicyResult:
        """Simulate one policy over the full event stream.

        Each policy gets its own pass over the *same* events, packets
        and noise realizations, so policies are compared on identical
        channels.  Prediction-driven policies require ``service``; its
        micro-batching happens here — all links pending at one slot time
        are flushed in a single forward pass.

        Prediction rounds degrade gracefully: when the service raises,
        or when ``round_deadline_s`` is set and the round overruns it,
        the affected slot's decisions fall back to a warm
        :class:`~repro.stream.policy.ReactivePreviousPolicy` (fed every
        slot outcome, so its last-delivered estimates are current) and
        the degradation is counted in the per-link
        :class:`~repro.experiments.metrics.StreamMetrics`
        (``degraded_rounds`` / ``fallback_decisions``) instead of
        aborting the pass.
        """
        if policy.uses_predictions and service is None:
            raise ConfigurationError(
                f"policy {policy.name!r} needs a PredictionService"
            )
        if not self.traces:
            raise ConfigurationError(
                "StreamSimulator.run needs at least one link trace"
            )
        num_links = len(self.traces)
        interval = self.components.config.dataset.packet_interval_s
        num_slots = min(trace.num_slots for trace in self.traces)
        states = [
            _LinkState(
                queue=[],
                metrics=StreamMetrics(duration_s=num_slots * interval),
                symbols=[],
                blocked=[],
                outcomes=[],
            )
            for _ in range(num_links)
        ]
        policy.reset(num_links)
        fallback: ReactivePreviousPolicy | None = None
        if policy.uses_predictions:
            # Degraded-mode understudy: observes every slot so its
            # last-delivered estimates stay warm, decides only for
            # rounds whose prediction service failed or overran.
            fallback = ReactivePreviousPolicy()
            fallback.reset(num_links)

        # Lazy heap replay: the scheduler holds one pending event per
        # link (O(links) memory, never a dense event list) and groups
        # packet slots by exact integer-tick equality — no more relying
        # on float sums of the slot interval comparing `==` across
        # links.  Packet events past the common `num_slots` window are
        # truncated at the source; frames beyond it still arrive and
        # advance `latest_frame` (the camera keeps filming).
        scheduler = replay_scheduler(self.traces, max_slots=num_slots)
        while True:
            event = scheduler.peek()
            if event is None:
                break
            if event.kind == KIND_FRAME:
                scheduler.pop()
                state = states[event.link]
                state.latest_frame = max(state.latest_frame, event.index)
                continue
            slot_events = scheduler.pop_slot_group()
            if slot_events:
                with trace.span(
                    "stream.round",
                    t=slot_events[0].time_s,
                    links=len(slot_events),
                ):
                    self._run_slot(
                        slot_events, states, policy, service, fallback
                    )

        per_link = [state.metrics for state in states]
        total = StreamMetrics()
        for metrics in per_link:
            total.merge(metrics)
        technique = TechniqueResult(policy.name)
        for state in states:
            for outcome in state.outcomes:
                technique.add(outcome)
        result = StreamPolicyResult(
            policy=policy.name,
            links=num_links,
            num_slots=num_slots,
            metrics=total,
            per_link=per_link,
            technique=technique,
            timelines=[
                LinkTimeline(
                    symbols="".join(state.symbols),
                    blocked="".join(state.blocked),
                )
                for state in states
            ],
        )
        if verbose:
            log.info(
                f"[stream] {policy.name}: goodput "
                f"{total.goodput_pps:.2f} pkt/s, outage "
                f"{total.outage:.3f}, deadline-miss "
                f"{total.deadline_miss_rate:.3f}, defer-rate "
                f"{total.defer_rate:.3f}"
            )
        return result

    def _run_slot(
        self,
        slot_events: Sequence[TickEvent],
        states: list[_LinkState],
        policy: LinkAdaptationPolicy,
        service: "PredictionService | None",
        fallback: ReactivePreviousPolicy | None = None,
    ) -> None:
        """One synchronized slot: arrivals, predictions, decisions, decodes."""
        contexts: dict[int, SlotContext] = {}
        for event in slot_events:
            link, slot = event.link, event.index
            state = states[link]
            record = self.traces[link].measurement_set.packets[slot]
            # Arrival + deadline sweep.
            state.queue.append(slot)
            state.metrics.offered += 1
            while (
                state.queue
                and state.queue[0] + self.deadline_slots <= slot
            ):
                state.queue.pop(0)
                state.metrics.deadline_misses += 1
            contexts[link] = SlotContext(
                link=link, slot=slot, record=record
            )

        degraded_reason: str | None = None
        if policy.uses_predictions and service is not None:
            # Horizon-trained models predict the CIR `horizon` frames
            # after their input frame (core/targets.py), so serving one
            # means submitting an *older* frame — the same clamped
            # offset VVDEstimator.estimate uses offline.
            horizon = service.trained.horizon_frames
            round_start = time.perf_counter()
            try:
                for link, ctx in sorted(contexts.items()):
                    frame_index = max(
                        ctx.record.frame_index - horizon, 0
                    )
                    state = states[link]
                    # The LED-matched frame is captured at or before the
                    # blink; the event stream must have delivered it.
                    frame_index = min(
                        frame_index, max(state.latest_frame, 0)
                    )
                    frames = self.traces[link].measurement_set.frames
                    service.submit(link, frames[frame_index])
                predictions = service.flush()  # one batched forward
            except Exception as exc:
                # Serving outage: degrade this round, never abort the
                # pass (KeyboardInterrupt/SystemExit still propagate).
                predictions = {}
                degraded_reason = f"{type(exc).__name__}: {exc}"
            else:
                elapsed = time.perf_counter() - round_start
                if (
                    self.round_deadline_s is not None
                    and elapsed > self.round_deadline_s
                ):
                    # Late answers are as useless as no answers: the
                    # slot's transmit decision could not have waited.
                    predictions = {}
                    overrun = ServiceDeadlineError(
                        f"prediction round took {elapsed:.3f}s "
                        f"(deadline {self.round_deadline_s:g}s)"
                    )
                    degraded_reason = (
                        f"{type(overrun).__name__}: {overrun}"
                    )
            if degraded_reason is None:
                for link, prediction in predictions.items():
                    contexts[link].prediction = prediction
            else:
                log.warning(
                    "warning: prediction round degraded at "
                    f"t={slot_events[0].time_s:g}s — {degraded_reason}; "
                    f"falling back to {fallback.name}"
                )

        decisions = {}
        for link, ctx in sorted(contexts.items()):
            if degraded_reason is not None and fallback is not None:
                states[link].metrics.degraded_rounds += 1
                states[link].metrics.fallback_decisions += 1
                decisions[link] = fallback.decide(ctx)
            else:
                decisions[link] = policy.decide(ctx)
        transmitting = [
            link
            for link in sorted(decisions)
            if decisions[link].transmit
        ]
        outcomes = {}
        if transmitting:
            records = [contexts[link].record for link in transmitting]
            outcomes = dict(
                zip(
                    transmitting,
                    self.runner.decode_packets(
                        [decisions[link].estimate for link in transmitting],
                        synthesize_received_batch(self.components, records),
                        records,
                    ),
                )
            )

        for link in sorted(contexts):
            ctx = contexts[link]
            state = states[link]
            decision = decisions[link]
            blocked_symbol = (
                "#" if ctx.record.los_clearance_m <= self._shadow else " "
            )
            state.blocked.append(blocked_symbol)
            if not decision.transmit:
                state.metrics.deferrals += 1
                state.symbols.append(_SYMBOL_DEFER)
                policy.observe(ctx, None)
                if fallback is not None:
                    fallback.observe(ctx, None)
                continue
            outcome = outcomes[link]
            state.metrics.attempts += 1
            state.outcomes.append(outcome)
            if outcome.packet_error:
                state.metrics.failures += 1
                state.symbols.append(_SYMBOL_FAILURE)
            else:
                # The attempt delivered the head-of-line packet.
                if state.queue:
                    state.queue.pop(0)
                state.metrics.delivered += 1
                state.symbols.append(_SYMBOL_SUCCESS)
            policy.observe(ctx, outcome)
            if fallback is not None:
                fallback.observe(ctx, outcome)
