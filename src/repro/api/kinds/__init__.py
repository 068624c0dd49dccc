"""The campaign kinds, one module each.

A kind module declares everything about its kind in one place: the
:class:`~repro.api.jobs.JobSpec` subclass with its fields, and on it
the step builder (:meth:`~repro.api.jobs.JobSpec.steps`, over the
resolved configuration), the stale-step rule
(:attr:`~repro.api.jobs.JobSpec.model_steps` and
:meth:`~repro.api.jobs.JobSpec.model_key`) and the run summary
(:meth:`~repro.api.jobs.JobSpec.summary`).  Each registers its spec in
:data:`~repro.api.jobs.JOB_KINDS`; :mod:`repro.api.kinds.common` holds
what they share.  Importing this package registers the six kinds, in
the order ``repro --help`` lists them.
"""

from .sweep import SweepJob
from .train import TrainJob
from .figure import FigureJob
from .stream import StreamJob
from .capacity import CapacityJob
from .grid import GridJob

__all__ = [
    "SweepJob",
    "TrainJob",
    "FigureJob",
    "StreamJob",
    "CapacityJob",
    "GridJob",
]
