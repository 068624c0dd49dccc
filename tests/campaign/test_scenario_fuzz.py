"""Seeded scenario fuzzing: every sampled scenario validates and resolves.

Property-based coverage of the scenario language against the full
PHY/vision/campaign stack: uniform draws from the declared field
ranges must (a) pass validation, (b) resolve to consistent
``SimulationConfig`` objects, (c) replay identically for one seed —
in-process and across interpreter invocations — and (d) at tiny scale,
drive the actual generate→decode pipeline end to end.

``REPRO_FUZZ_COUNT`` scales the sample size (the nightly fuzz smoke
raises it; the default keeps tier-1 fast).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.campaign.cache import config_fingerprint
from repro.campaign.params import sample_scenarios
from repro.dataset import build_components, generate_measurement_set
from repro.errors import ConfigurationError

_SRC = Path(__file__).resolve().parents[2] / "src"

#: Samples drawn by the validate+resolve sweep (nightly raises this).
FUZZ_COUNT = int(os.environ.get("REPRO_FUZZ_COUNT", "200"))


class TestSampledSpecsAreValid:
    def test_every_sampled_spec_validates_and_resolves(self):
        scenarios = sample_scenarios(seed=1234, count=FUZZ_COUNT)
        assert len(scenarios) == FUZZ_COUNT
        fingerprints = set()
        for scenario in scenarios:
            report = scenario.validate()
            assert report.ok, report.errors
            config = scenario.resolve()  # dataclass validation runs
            fingerprints.add(config_fingerprint(config))
        # The sampler actually roams the space: the overwhelming
        # majority of draws must resolve to distinct configurations.
        assert len(fingerprints) > FUZZ_COUNT * 0.9

    def test_sampled_scenarios_cover_the_new_axes(self):
        scenarios = sample_scenarios(seed=99, count=100)
        trajectories = {s.trajectory for s in scenarios}
        profiles = {s.speed_profile for s in scenarios}
        rooms = {s.room for s in scenarios}
        assert "grouped" in trajectories
        assert "heterogeneous" in profiles
        assert "corridor" in rooms
        # The rejection sampler must never emit the invalid combo.
        assert not any(
            s.trajectory == "grouped" and s.num_humans < 2
            for s in scenarios
        )

    def test_tiny_scale_clamps_dimensions(self):
        for scenario in sample_scenarios(seed=5, count=20, scale="tiny"):
            assert scenario.base == "tiny"
            assert scenario.num_sets == 3
            assert 6 <= scenario.packets_per_set <= 10

    def test_bad_sampler_arguments_rejected(self):
        with pytest.raises(ConfigurationError, match="scale"):
            sample_scenarios(seed=1, count=1, scale="huge")
        with pytest.raises(ConfigurationError, match="count"):
            sample_scenarios(seed=1, count=0)


class TestDeterminism:
    def test_same_seed_same_specs_in_process(self):
        first = sample_scenarios(seed=7, count=50)
        second = sample_scenarios(seed=7, count=50)
        assert [s.canonical_json() for s in first] == [
            s.canonical_json() for s in second
        ]

    def test_different_seeds_differ(self):
        a = sample_scenarios(seed=7, count=10)
        b = sample_scenarios(seed=8, count=10)
        assert [s.canonical_json() for s in a] != [
            s.canonical_json() for s in b
        ]

    def test_same_seed_same_specs_across_processes(self):
        # The cross-process contract behind the nightly determinism
        # sentinel: a fresh interpreter must print byte-identical
        # canonical JSON for the same seed.
        local = [
            s.canonical_json()
            for s in sample_scenarios(seed=7, count=20)
        ]
        script = (
            "import json\n"
            "from repro.campaign.params import sample_scenarios\n"
            "print(json.dumps([s.canonical_json() for s in "
            "sample_scenarios(seed=7, count=20)]))\n"
        )
        output = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            check=True,
            env={"PYTHONPATH": str(_SRC), "PATH": "/usr/bin:/bin"},
        ).stdout
        assert json.loads(output) == local


class TestTinyScaleRoundTrip:
    def test_sampled_specs_generate_and_decode(self):
        # Drive the full stack — channel render, depth camera, PHY
        # synthesis, receiver decode — for a handful of tiny sampled
        # scenarios, including the new grouped/heterogeneous/corridor
        # axes the sampler roams.
        scenarios = sample_scenarios(seed=11, count=5, scale="tiny")
        for scenario in scenarios:
            config = scenario.resolve()
            components = build_components(config)
            measurement = generate_measurement_set(components, 0)
            assert (
                len(measurement.packets)
                == config.dataset.packets_per_set
            )
            assert len(measurement.frames) > 0
            for record in measurement.packets[:3]:
                assert np.all(np.isfinite(record.h_ls))
                assert np.all(np.isfinite(record.h_true))
