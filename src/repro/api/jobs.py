"""Typed job specifications: the nouns of the programmatic surface.

One frozen dataclass per campaign kind (sweep/train/figure/stream/
capacity/grid).  A job spec is pure data — scenario names, grids,
seeds — and is the same object whether it arrives from an argparse
namespace, a notebook or a ``POST /v1/jobs`` body; the facade
(:func:`repro.api.prepare`) turns it into a runnable campaign.

Each kind is declared once, in its module of :mod:`repro.api.kinds`:
its spec's fields, its step builder, its stale-step rule and its run
summary.  This module holds what the kinds share — the
:class:`JobSpec` base class, which states the hooks every kind
implements, and :data:`JOB_KINDS`, the one registry of kinds that
:func:`~repro.api.prepare`, ``build_parser`` and :func:`job_from_dict`
read — plus the status and outcome records of a run.

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
from typing import ClassVar, NamedTuple

from ..campaign.params import check_fields
from ..config import SimulationConfig
from ..errors import ConfigurationError

#: kind name -> spec class, in ``repro --help`` order; filled by
#: :func:`register` as :mod:`repro.api.kinds` imports each kind.
JOB_KINDS: dict[str, type] = {}

#: Entry-count bounds of a list field that needs at least one entry.
NON_EMPTY = (1, 1024)

#: Help text of the ``scenario`` field of the kinds that run one preset.
SCENARIO_HELP = "scenario preset name"


def register(cls):
    """Class decorator adding a spec to the :data:`JOB_KINDS` registry."""
    JOB_KINDS[cls.kind] = cls
    return cls


def suites() -> list[str]:
    """The estimator line-ups a sweep or grid evaluates per point."""
    from ..experiments.suite import SUITE_BUILDERS

    return sorted(SUITE_BUILDERS)


def _canonical(data: dict) -> str:
    """Canonical JSON: sorted keys, no whitespace — diff/hash friendly."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


class Target(NamedTuple):
    """The campaign a spec names, as :meth:`JobSpec.resolve` returns it."""

    #: Name hashed into the campaign directory (scenario, grid, QoS mix).
    name: str
    #: The configuration the steps read as ``ctx.config``.
    config: SimulationConfig
    #: Options hashed into the campaign directory; also ``ctx.options``.
    options: dict
    #: Whether the campaign context gets the model checkpoint registry.
    models: bool = False
    #: The campaign's title, ``<kind>[<title>]`` (default: ``name``).
    title: str | None = None


@dataclass(frozen=True)
class JobSpec:
    """Base class of all job specs: validation, JSON and the kind hooks.

    The class docstring's first line is the subcommand's help.  A kind
    implements :meth:`resolve`, :meth:`steps` and :meth:`summary`, and
    states its stale-step rule in :attr:`model_steps` and
    :meth:`model_key`.
    """

    kind: ClassVar[str] = ""
    #: Numbers and numeric strings convert; the first bad field raises.
    coerce_fields: ClassVar[bool] = True
    #: Option groups the kind takes besides its own fields, ``--fresh``
    #: and ``--trace``: ``jobs`` (DAG-level worker processes),
    #: ``robustness`` (``--retries``/``--step-timeout``/
    #: ``--no-quarantine``/``--faults``) and ``model_dir``.
    takes: ClassVar[frozenset[str]] = frozenset()
    #: Id prefix of the steps whose payload names a model checkpoint.
    #: A resumed run re-opens such a ``done`` step, and the report,
    #: when its checkpoint is gone from the registry (``None``: the
    #: kind has no such steps).
    model_steps: ClassVar[str | None] = None

    def __post_init__(self):
        check_fields(self, f"{self.kind} job field")

    def resolve(self) -> Target:
        """Look up the named scenario or grid; validate what fields can't.

        Raises :class:`~repro.errors.NotFoundError` for unknown names.
        """
        raise NotImplementedError

    def steps(self, config: SimulationConfig) -> list:
        """The campaign's step DAG over the resolved ``config``."""
        raise NotImplementedError

    def summary(self, handle, result, plan, options) -> list[str]:
        """The lines a run prints: the CLI summary, byte for byte.

        ``handle`` is the prepared :class:`~repro.api.CampaignHandle`,
        ``result`` the run's :class:`~repro.campaign.CampaignResult`,
        ``plan`` the armed fault plan (or ``None``) and ``options`` the
        run's :class:`~repro.api.RunOptions`.
        """
        raise NotImplementedError

    @staticmethod
    def model_key(payload: dict) -> str | None:
        """The checkpoint key a :attr:`model_steps` payload records."""
        return payload["key"]

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


# The kind modules subclass JobSpec and register themselves; importing
# them here fills JOB_KINDS for every reader of this module.
from .kinds import (  # noqa: E402,F401
    CapacityJob,
    FigureJob,
    GridJob,
    StreamJob,
    SweepJob,
    TrainJob,
)
