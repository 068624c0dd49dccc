"""Campaign orchestration: scenarios, dataset cache, resumable runs.

The subsystem that turns the reproduction into an orchestrated,
restartable system (see docs/ARCHITECTURE.md):

- :mod:`repro.campaign.scenario` — declarative :class:`Scenario`
  dataclasses and a registry of named presets (the paper's
  configurations plus multi-human crossings, varied walking speeds,
  dense-office and corridor geometries, grouped walkers).
- :mod:`repro.campaign.params` — the one field walker that checks
  scenarios, rooms, job specs and run options against their dataclass
  declarations (aggregated :class:`ValidationReport` errors for
  scenarios and rooms), TOML/JSON scenario files and seeded sampling
  of the scenario space.
- :mod:`repro.campaign.cache` — a content-addressed on-disk cache of
  generated measurement sets, keyed by a stable hash of the resolved
  configuration plus a code-version salt.
- :mod:`repro.campaign.models` — the matching content-addressed registry
  of trained VVD model checkpoints, keyed by the dataset cache key, the
  Table 2 split, the prediction horizon and the seed.
- :mod:`repro.campaign.manifest` — the per-step JSON journal that makes
  killed campaigns resumable (lock-guarded against concurrent writers).
- :mod:`repro.campaign.grid` — parametric scenario grids
  (:class:`GridSpec`): declarative axes expanded into derived,
  registry-integrated scenarios.
- :mod:`repro.campaign.results` — the aggregated per-grid-point
  :class:`ResultsStore` (records keyed by grid coordinates).
- :mod:`repro.campaign.locking` — the cross-process :class:`FileLock`
  guarding index mutation under the parallel executor.
- :mod:`repro.campaign.runner` — campaign DAG execution: one
  topological-wavefront executor for every ``--jobs`` value.  The steps
  of each campaign kind are declared with the kind, in
  :mod:`repro.api.kinds`.
- :mod:`repro.campaign.cli` — the ``repro`` / ``python -m repro``
  command line.
"""

from .cache import (
    CacheEntry,
    CacheStats,
    DatasetCache,
    config_fingerprint,
    default_cache_dir,
)
from .grid import (
    GridPoint,
    GridPointTask,
    GridSpec,
    get_grid,
    list_grids,
    register_grid,
    run_grid_point_task,
)
from .locking import FileLock, sweep_stale_tmp
from .params import (
    ValidationReport,
    check_values,
    describe_parameters,
    load_scenario_file,
    sample_scenarios,
)
from .manifest import STATUS_QUARANTINED, CampaignManifest
from .results import ResultsStore, coords_key
from .models import (
    ModelCheckpointRegistry,
    ModelEntry,
    ModelRegistryStats,
    default_model_dir,
    model_fingerprint,
)
from .runner import (
    Campaign,
    CampaignContext,
    CampaignResult,
    CampaignStep,
    RetryPolicy,
)
from .scenario import (
    ROOM_PRESETS,
    Scenario,
    get_scenario,
    list_scenarios,
    register_scenario,
)

__all__ = [
    "CacheEntry",
    "CacheStats",
    "DatasetCache",
    "config_fingerprint",
    "default_cache_dir",
    "CampaignManifest",
    "STATUS_QUARANTINED",
    "FileLock",
    "sweep_stale_tmp",
    "GridPoint",
    "GridPointTask",
    "GridSpec",
    "ResultsStore",
    "coords_key",
    "get_grid",
    "list_grids",
    "register_grid",
    "run_grid_point_task",
    "ModelCheckpointRegistry",
    "ModelEntry",
    "ModelRegistryStats",
    "default_model_dir",
    "model_fingerprint",
    "Campaign",
    "CampaignContext",
    "CampaignResult",
    "CampaignStep",
    "RetryPolicy",
    "ROOM_PRESETS",
    "Scenario",
    "get_scenario",
    "list_scenarios",
    "register_scenario",
    "ValidationReport",
    "check_values",
    "describe_parameters",
    "load_scenario_file",
    "sample_scenarios",
]
