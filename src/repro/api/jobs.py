"""Typed job specifications: the nouns of the programmatic surface.

One frozen dataclass per campaign kind (sweep/train/figure/stream/
capacity/grid).  A job spec is pure data — scenario names, grids,
seeds — and is the same object whether it arrives from an argparse
namespace, a notebook or a ``POST /v1/jobs`` body; the facade
(:func:`repro.api.prepare`) turns it into a runnable campaign.

Each field is declared once, on its dataclass: the annotation gives
its type (element types included, e.g. ``tuple[float, ...] | None``),
the default its default, and its :func:`~repro.campaign.params.param`
declaration its help text and allowed values.  ``build_parser``
renders the ``repro`` campaign subcommands from these declarations,
and the field walker of :mod:`repro.campaign.params`, which also checks
scenarios and rooms, validates every spec on construction, so the CLI,
:mod:`repro.api` and ``POST /v1/jobs`` accept exactly the same values.
Job specs set ``coerce_fields``: numbers and numeric strings convert to
the declared number type, and the first bad field raises.  The run and
host options of :mod:`repro.api.facade` are declared and checked the
same way.

Every spec round-trips through JSON (:meth:`to_dict` /
:func:`job_from_dict`).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from typing import ClassVar

from ..campaign.params import check_fields, param
from ..errors import ConfigurationError, NotFoundError

#: kind name -> spec class; populated by :func:`_register`.
JOB_KINDS: dict[str, type] = {}


def _register(cls):
    """Class decorator adding a spec to the :data:`JOB_KINDS` registry."""
    JOB_KINDS[cls.kind] = cls
    return cls


def _canonical(data: dict) -> str:
    """Canonical JSON: sorted keys, no whitespace — diff/hash friendly."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class JobSpec:
    """Base class of all job specs: validation and JSON round-trip.

    The class docstring's first line is the subcommand's help.
    """

    kind: ClassVar[str] = ""
    #: Numbers and numeric strings convert; the first bad field raises.
    coerce_fields: ClassVar[bool] = True
    #: Option groups the kind takes besides its own fields, ``--fresh``
    #: and ``--trace``: ``jobs`` (DAG-level worker processes),
    #: ``robustness`` (``--retries``/``--step-timeout``/
    #: ``--no-quarantine``/``--faults``) and ``model_dir``.
    takes: ClassVar[frozenset[str]] = frozenset()

    def __post_init__(self):
        check_fields(self, f"{self.kind} job field")

    def to_dict(self) -> dict:
        """Plain-data form, including the ``kind`` discriminator."""
        data = asdict(self)
        data["kind"] = self.kind
        return data

    def to_json(self) -> str:
        """Canonical JSON form (sorted keys, compact separators)."""
        return _canonical(self.to_dict())

    @classmethod
    def from_dict(cls, data: dict) -> "JobSpec":
        """Build a spec from plain data, rejecting unknown fields."""
        payload = dict(data)
        payload.pop("kind", None)
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ConfigurationError(
                f"unknown {cls.kind} job field(s) "
                f"{', '.join(unknown)}; accepted: {', '.join(sorted(known))}"
            )
        return cls(**payload)


def _suites() -> list[str]:
    from ..experiments.suite import SUITE_BUILDERS

    return sorted(SUITE_BUILDERS)


def _policies() -> list[str]:
    from ..stream.policy import POLICY_BUILDERS

    return sorted(POLICY_BUILDERS)


def _figures() -> tuple[str, ...]:
    from ..campaign.runner import FIGURE_NAMES

    return FIGURE_NAMES + ("all",)


_SCENARIO_HELP = "scenario preset name"


@_register
@dataclass(frozen=True)
class SweepJob(JobSpec):
    """Run the resumable SNR-sweep campaign of a scenario."""

    kind: ClassVar[str] = "sweep"
    takes: ClassVar[frozenset[str]] = frozenset({"robustness"})
    scenario: str = param("reduced", _SCENARIO_HELP)
    snrs: tuple[float, ...] | None = param(
        None, "SNR grid in dB (default: the scenario's grid)"
    )
    num_sets: int | None = param(
        None, "limit the measurement sets per point"
    )
    suite: str = param(
        "baseline",
        "estimator line-up evaluated per point",
        choices=_suites,
    )


@_register
@dataclass(frozen=True)
class TrainJob(JobSpec):
    """Train every Table 2 VVD variant through the checkpoint registry."""

    kind: ClassVar[str] = "train"
    takes: ClassVar[frozenset[str]] = frozenset({"robustness", "model_dir"})
    scenario: str = param("reduced", _SCENARIO_HELP)
    combinations: int | None = param(
        None, "limit the Table 2 combinations trained (default: all)"
    )
    horizons: tuple[int, ...] = param(
        (0,),
        "prediction horizons in camera frames (0 = VVD-Current; "
        "'0 1 3' pre-trains every Fig. 11 variant)",
    )
    seed: int = param(7, "weight-init / shuffle seed of every variant")


@_register
@dataclass(frozen=True)
class FigureJob(JobSpec):
    """Render paper tables/figures from the cached evaluation bundle."""

    kind: ClassVar[str] = "figure"
    takes: ClassVar[frozenset[str]] = frozenset({"model_dir"})
    names: tuple[str, ...] = param(
        (),
        "figures/tables to render ('all' = the full report)",
        choices=_figures,
        unknown=NotFoundError,
        positional=True,
    )
    scenario: str = param("reduced", _SCENARIO_HELP)
    combinations: int = param(
        3, "Table 2 combinations evaluated (15 = full)"
    )
    seed: int = param(
        7,
        "VVD training seed; match the `repro train --seed` that warmed "
        "the model registry so figures retrain nothing",
    )

    def __post_init__(self):
        super().__post_init__()
        if not self.names:
            raise ConfigurationError(
                "figure job needs at least one figure name "
                "('all' = the full report)"
            )


@_register
@dataclass(frozen=True)
class StreamJob(JobSpec):
    """Run closed-loop link adaptation over N concurrent links."""

    kind: ClassVar[str] = "stream"
    takes: ClassVar[frozenset[str]] = frozenset(
        {"jobs", "robustness", "model_dir"}
    )
    scenario: str = param("stream-smoke", _SCENARIO_HELP)
    links: int | None = param(
        None,
        "concurrent links replayed (default: the scenario's "
        "stream_links)",
    )
    slots: int | None = param(
        None,
        "packet slots per link (default: the scenario's packets-per-set)",
    )
    policies: tuple[str, ...] = param(
        ("proactive", "reactive"),
        "link-adaptation policies simulated (each gets its own pass "
        "over the same event stream)",
        choices=_policies,
    )
    deadline_slots: int = param(
        3, "slots a packet may wait before it counts as a deadline miss"
    )
    horizon: int = param(
        0,
        "prediction horizon in camera frames of the serving model "
        "(compensates camera->decision latency)",
    )
    seed: int = param(
        7,
        "serving-model training seed; match `repro train --seed` to "
        "reuse its checkpoints",
    )
    defer_threshold: float | None = param(
        None,
        "proactive blockage-probability defer threshold (default: the "
        "policy's 0.9; 1.0 disables deferral)",
    )
    round_deadline: float | None = param(
        None,
        "wall-time budget in seconds of one micro-batched prediction "
        "round; an overrunning or failing round degrades to the "
        "reactive fallback for that slot instead of aborting",
    )
    traffic: str | None = param(
        None,
        "arrival-process spec for the modeled SLA appendix "
        "(periodic[:pps], poisson:pps, onoff:pps:on_s:off_s, "
        "diurnal:pps:period_s:depth, or 'mixed'; default: the "
        "scenario's traffic, usually 'periodic' = replay only)",
    )
    qos: str | None = param(
        None,
        "QoS class mix of the modeled SLA appendix ('uniform' or "
        "'triple'; default: the scenario's qos)",
    )

    def __post_init__(self):
        super().__post_init__()
        if not self.policies:
            raise ConfigurationError("stream job needs at least one policy")


@_register
@dataclass(frozen=True)
class CapacityJob(JobSpec):
    """Sweep a modeled serving fleet over link counts (pure queueing)."""

    kind: ClassVar[str] = "capacity"
    takes: ClassVar[frozenset[str]] = frozenset({"jobs", "robustness"})
    links: tuple[int, ...] = param(
        (16, 32, 64, 96, 128),
        "link counts swept (one modeled capacity point each)",
    )
    duration: float = param(
        30.0, "simulated horizon in seconds per point"
    )
    traffic: str = param(
        "mixed",
        "per-link arrival-process spec (periodic[:pps], poisson:pps, "
        "onoff:pps:on_s:off_s, diurnal:pps:period_s:depth or 'mixed' = "
        "rotate all four across links)",
    )
    qos: str = param(
        "triple",
        "QoS class mix ('uniform' or 'triple' = gold/silver/bronze "
        "deadlines)",
    )
    seed: int = param(
        7,
        "arrival-process / class-assignment seed (same seed, "
        "byte-identical payloads — across --jobs and machines)",
    )
    service_pps: float = param(
        900.0, "modeled prediction-backend throughput in predictions/s"
    )
    admission_limit: int = param(
        512,
        "admission-controlled queue depth; arrivals beyond it shed the "
        "youngest lower-priority request (or themselves)",
    )

    def __post_init__(self):
        super().__post_init__()
        if not self.links:
            raise ConfigurationError(
                "capacity job needs at least one link count"
            )


@_register
@dataclass(frozen=True)
class GridJob(JobSpec):
    """Expand a parametric scenario grid and evaluate every member."""

    kind: ClassVar[str] = "grid"
    takes: ClassVar[frozenset[str]] = frozenset(
        {"jobs", "robustness", "model_dir"}
    )
    grid: str = param("smoke-grid", "grid spec name (see list-scenarios)")
    suite: str = param(
        "quick",
        "estimator line-up evaluated per derived scenario",
        choices=_suites,
    )
    vvd: bool = param(
        False,
        "resolve a VVD model per grid point through the model "
        "checkpoint registry (implied by a 'horizon' grid axis)",
    )
    horizon: int = param(
        0,
        "VVD prediction horizon used with --vvd (a 'horizon' grid axis "
        "overrides it per member)",
    )
    seed: int = param(
        7, "VVD training seed of --vvd / horizon-axis members"
    )


def job_from_dict(data: dict) -> JobSpec:
    """Dispatch plain data to the right spec class via its ``kind``."""
    if not isinstance(data, dict):
        raise ConfigurationError(
            f"job spec must be an object, got {type(data).__name__}"
        )
    kind = data.get("kind")
    if kind not in JOB_KINDS:
        raise ConfigurationError(
            f"unknown job kind {kind!r}; accepted: "
            f"{', '.join(sorted(JOB_KINDS))}"
        )
    return JOB_KINDS[kind].from_dict(data)


@dataclass(frozen=True)
class StepEvent:
    """One manifest transition: the unit of campaign progress."""

    step: str
    status: str
    detail: str = ""
    updated: float = 0.0
    attempts: int = 0

    def to_dict(self) -> dict:
        """Plain-data form of the event."""
        return asdict(self)

    def to_json(self) -> str:
        """Canonical JSON form of the event."""
        return _canonical(self.to_dict())


@dataclass(frozen=True)
class CampaignStatus:
    """Point-in-time view of one campaign's manifest."""

    #: Stable campaign id (the campaign directory basename).
    job_id: str
    #: Derived state: pending/running/done/failed/quarantined.
    state: str
    #: status -> count histogram over the manifest's steps.
    counts: dict = field(default_factory=dict)
    #: Every recorded step transition, sorted by update time.
    events: tuple = ()

    def to_dict(self) -> dict:
        """Plain-data form of the status snapshot."""
        return {
            "job_id": self.job_id,
            "state": self.state,
            "counts": dict(self.counts),
            "events": [event.to_dict() for event in self.events],
        }

    def to_json(self) -> str:
        """Canonical JSON form of the status snapshot."""
        return _canonical(self.to_dict())


@dataclass(frozen=True)
class CampaignOutcome:
    """The result of one completed :meth:`CampaignHandle.run`."""

    #: Stable campaign id (the campaign directory basename).
    job_id: str
    #: Step ids executed by this run.
    executed: tuple
    #: Step ids resumed from the manifest.
    skipped: tuple
    #: Step ids quarantined by this run.
    quarantined: tuple
    #: Total step attempts retried by this run.
    retried: int
    #: Process exit code from the outcome table (0 or 3).
    exit_code: int
    #: The run's human-readable summary — byte-identical to the text
    #: the equivalent CLI invocation prints.
    text: str

    def to_dict(self) -> dict:
        """Plain-data form of the outcome."""
        return {
            "job_id": self.job_id,
            "executed": list(self.executed),
            "skipped": list(self.skipped),
            "quarantined": list(self.quarantined),
            "retried": self.retried,
            "exit_code": self.exit_code,
            "text": self.text,
        }

    def to_json(self) -> str:
        """Canonical JSON form of the outcome."""
        return _canonical(self.to_dict())
