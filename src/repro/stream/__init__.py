"""Streaming inference and closed-loop link adaptation.

The serving layer on top of the batched-PHY / cached-dataset /
checkpointed-model stack (see docs/ARCHITECTURE.md):

- :mod:`repro.stream.events` — deterministic, seed-reproducible
  replay of any registered scenario as a time-ordered event stream of
  depth frames and packet slots across N concurrent links.
- :mod:`repro.stream.scheduler` — the heap-based discrete-event core:
  integer-tick :class:`TickEvent` records, lazy per-link
  :class:`EventSource` cursors and the O(links)-memory
  :class:`EventScheduler` both the replay and capacity paths share.
- :mod:`repro.stream.traffic` — heterogeneous per-link arrival
  processes (periodic/Poisson/on-off/diurnal) and QoS class mixes
  with deadlines, all string-seeded for cross-process determinism.
- :mod:`repro.stream.capacity` — the modeled serving-fleet queueing
  simulation: admission control, load shedding, per-class SLA metrics
  and the links-sustained-vs-SLO capacity curve.
- :mod:`repro.stream.service` — :class:`PredictionService`, the
  micro-batching VVD inference front-end (models resolve through the
  content-addressed checkpoint registry; per-request latency and
  aggregate throughput counters).
- :mod:`repro.stream.policy` — pluggable link-adaptation policies:
  proactive VVD (predict, defer into predicted blockage), reactive
  previous-estimation, and a genie upper bound.
- :mod:`repro.stream.simulator` — the closed loop: ARQ with deadlines
  per link, micro-batched prediction rounds, offline-identical decode,
  and goodput/outage/deadline-miss metrics per policy.

Campaign integration (``repro stream`` CLI, the resumable ``stream``
campaign step and the proactive-vs-reactive timeline figure) lives in
:mod:`repro.campaign` and :mod:`repro.experiments.figures.stream_timeline`.
"""

from .capacity import (
    CapacityCurve,
    CapacityResult,
    ServiceModel,
    capacity_curve,
    simulate_capacity,
)
from .events import (
    STREAM_SEED_OFFSET,
    LinkTrace,
    build_link_traces,
    stream_link_config,
)
from .policy import (
    POLICY_BUILDERS,
    GeniePolicy,
    LinkAdaptationPolicy,
    LinkDecision,
    ProactiveVVDPolicy,
    ReactivePreviousPolicy,
    SlotContext,
    build_policy,
)
from .scheduler import (
    TICKS_PER_SECOND,
    EventScheduler,
    ReplayLinkSource,
    TickEvent,
    replay_scheduler,
    seconds_to_ticks,
    ticks_to_seconds,
)
from .service import Prediction, PredictionService, ServiceStats
from .simulator import (
    LinkTimeline,
    StreamPolicyResult,
    StreamSimulator,
)
from .traffic import (
    QOS_MIXES,
    ArrivalSource,
    ClassAssigner,
    QoSClass,
    TrafficSpec,
    get_qos_mix,
    link_traffic_spec,
    parse_traffic_spec,
    validate_traffic,
)

__all__ = [
    "STREAM_SEED_OFFSET",
    "LinkTrace",
    "build_link_traces",
    "stream_link_config",
    "TICKS_PER_SECOND",
    "EventScheduler",
    "ReplayLinkSource",
    "TickEvent",
    "replay_scheduler",
    "seconds_to_ticks",
    "ticks_to_seconds",
    "QOS_MIXES",
    "ArrivalSource",
    "ClassAssigner",
    "QoSClass",
    "TrafficSpec",
    "get_qos_mix",
    "link_traffic_spec",
    "parse_traffic_spec",
    "validate_traffic",
    "CapacityCurve",
    "CapacityResult",
    "ServiceModel",
    "capacity_curve",
    "simulate_capacity",
    "POLICY_BUILDERS",
    "GeniePolicy",
    "LinkAdaptationPolicy",
    "LinkDecision",
    "ProactiveVVDPolicy",
    "ReactivePreviousPolicy",
    "SlotContext",
    "build_policy",
    "Prediction",
    "PredictionService",
    "ServiceStats",
    "LinkTimeline",
    "StreamPolicyResult",
    "StreamSimulator",
]
