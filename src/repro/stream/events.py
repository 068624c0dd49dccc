"""Deterministic, time-ordered event streams over N concurrent links.

The batch campaign machinery (PRs 1-3) generates *sets* and scores them
offline; the streaming subsystem replays a registered
:class:`~repro.campaign.scenario.Scenario` as what a serving system
would actually see: per link, a camera produces a depth frame every
33.3 ms and the mote transmits a packet every 100 ms, and
:func:`~repro.stream.scheduler.replay_scheduler` interleaves every
link's events into one time-ordered stream.

Each link walks its own human (or humans, for multi-walker scenarios)
through the room: link ``l`` is one measurement take of a *derived*
configuration whose seed is disjoint from the scenario's own campaign
(:func:`stream_link_config`), so streamed trajectories are never part of
any training split.  Generation rides the existing vectorized engines —
:meth:`~repro.channel.environment.IndoorEnvironment.cir_batch` /
``cir_multi_batch`` for the channels and
:meth:`~repro.vision.camera.DepthCamera.render_batch` /
``render_multi_batch`` for the frames — and resolves through the
content-addressed :class:`~repro.campaign.cache.DatasetCache`, so link
traces are seed-reproducible, cache-hit on repeat runs and fan out over
``workers`` processes like any other campaign dataset.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..config import SimulationConfig
from ..dataset.generator import build_components, generate_measurement_set
from ..dataset.trace import MeasurementSet
from ..errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..campaign.cache import DatasetCache

#: Added to ``config.seed`` when deriving link-trace configurations so
#: streamed walks never replay a trajectory any training/validation/test
#: set of the same scenario was generated from.
STREAM_SEED_OFFSET = 100_003

#: ``DatasetConfig`` requires >= 3 sets; small link counts still
#: materialize this many (extra sets are cached but not replayed).
_MIN_SETS = 3

@dataclass
class LinkTrace:
    """One link's replayable walk: a measurement set plus its link id."""

    link: int
    measurement_set: MeasurementSet

    @property
    def num_slots(self) -> int:
        """Packet transmission slots available on this link."""
        return self.measurement_set.num_packets


def stream_link_config(
    config: SimulationConfig,
    links: int,
    slots: int | None = None,
) -> SimulationConfig:
    """Derive the configuration whose sets are the scenario's link traces.

    The derived config keeps the scenario's PHY/channel/room/mobility
    parameters — streamed links experience exactly the campaign's
    physics, including the scenario-language axes (grouped walkers,
    heterogeneous ``speed_profile`` bands, custom rooms) which flow
    through untouched — but re-dimensions the dataset (one set per
    link, ``slots`` packets each) and offsets the seed by
    :data:`STREAM_SEED_OFFSET`, so
    link trajectories are disjoint from every set of the scenario's own
    campaign (no train/serve leakage).  Because the result is a plain
    :class:`~repro.config.SimulationConfig`, the dataset cache keys it
    like any other campaign and repeat runs are pure cache hits.
    """
    if links < 1:
        raise ConfigurationError(f"links must be >= 1, got {links}")
    if slots is None:
        slots = config.dataset.packets_per_set
    if slots < 2:
        raise ConfigurationError(f"slots must be >= 2, got {slots}")
    return config.replace(
        seed=config.seed + STREAM_SEED_OFFSET,
        dataset=dataclasses.replace(
            config.dataset,
            num_sets=max(links, _MIN_SETS),
            packets_per_set=slots,
            # Streams replay every slot; the offline skip-warm-up
            # convention does not apply (kept minimal for validation).
            skip_initial=1,
        ),
    )


def build_link_traces(
    config: SimulationConfig,
    links: int,
    slots: int | None = None,
    cache: "DatasetCache | None" = None,
    workers: int | None = None,
    verbose: bool = False,
    sets: list[MeasurementSet] | None = None,
) -> list[LinkTrace]:
    """Materialize ``links`` independent link traces for a scenario config.

    With ``cache`` given, the derived link-trace campaign resolves
    through the content-addressed dataset cache (set-granular resume,
    process-pool fan-out over ``workers``); otherwise the sets are
    generated in-process.  ``sets`` short-circuits resolution entirely
    with already-loaded measurement sets of the derived configuration
    (the campaign runner hands over the ``links`` step's freshly
    generated stash this way).  Link ``l`` replays set ``l`` of the
    derived configuration, so the mapping is stable across runs and
    worker counts.
    """
    derived = stream_link_config(config, links, slots=slots)
    if sets is None:
        if cache is not None:
            sets = cache.load_or_generate(
                derived, workers=workers, verbose=verbose
            )
        else:
            components = build_components(derived)
            sets = [
                generate_measurement_set(components, set_index)
                for set_index in range(derived.dataset.num_sets)
            ]
    return [
        LinkTrace(link=link, measurement_set=sets[link])
        for link in range(links)
    ]

