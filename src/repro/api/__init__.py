"""``repro.api`` — the supported programmatic surface of the repo.

Everything the CLI can do, as typed calls: build a
:class:`~repro.api.jobs.JobSpec` (one dataclass per campaign kind),
:func:`~repro.api.facade.prepare` it into a
:class:`~repro.api.facade.CampaignHandle`, then ``run()`` it (blocking)
or poll ``status()``/``events()``/``results()`` from any process
sharing the cache root.  The ``repro`` CLI subcommands and the
``repro serve`` REST handlers are both thin shells over this module —
third-party code gets the exact same entry point they use.

Quickstart::

    from repro.api import GridJob, RunOptions, prepare

    handle = prepare(GridJob(grid="smoke-grid"), cache_dir=".cache")
    outcome = handle.run(RunOptions(jobs=2))
    print(outcome.text)           # the CLI summary, byte-identical
    print(handle.results())       # the parsed results.json aggregate

Exit codes and HTTP statuses come from one table in
:mod:`repro.api.errors`; job option validation shares its table with
the argparse parsers (:mod:`repro.campaign.options`), so the CLI, the
API and the service can never drift.
"""

from __future__ import annotations

from .errors import (
    EXIT_ERROR,
    EXIT_OK,
    EXIT_QUARANTINED,
    OUTCOME_TABLE,
    classify_exception,
    exit_code_for,
    http_status_for,
)
from .facade import (
    CampaignHandle,
    RunOptions,
    campaign_dir,
    prepare,
    run_campaign,
    self_healing_lines,
)
from .jobs import (
    JOB_KINDS,
    CampaignOutcome,
    CampaignStatus,
    CapacityJob,
    FigureJob,
    GridJob,
    JobSpec,
    StepEvent,
    StreamJob,
    SweepJob,
    TrainJob,
    job_from_dict,
)

__all__ = [
    # job specs
    "JobSpec",
    "SweepJob",
    "TrainJob",
    "FigureJob",
    "StreamJob",
    "CapacityJob",
    "GridJob",
    "JOB_KINDS",
    "job_from_dict",
    # status / results
    "StepEvent",
    "CampaignStatus",
    "CampaignOutcome",
    # facade
    "prepare",
    "run_campaign",
    "CampaignHandle",
    "RunOptions",
    "campaign_dir",
    "self_healing_lines",
    # exit-code / HTTP table
    "OUTCOME_TABLE",
    "classify_exception",
    "exit_code_for",
    "http_status_for",
    "EXIT_OK",
    "EXIT_ERROR",
    "EXIT_QUARANTINED",
]
