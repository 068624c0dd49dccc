"""Typed job specs: JSON round-trips and CLI-default drift detection.

A spec built with no arguments must describe exactly the campaign the
bare CLI subcommand runs — the defaults live in two renderings (the
dataclass and the argparse parser) and this module keeps them pinned
together.
"""

from __future__ import annotations

import json

import pytest

from repro.api.jobs import (
    JOB_KINDS,
    CapacityJob,
    FigureJob,
    GridJob,
    StreamJob,
    SweepJob,
    TrainJob,
    job_from_dict,
)
from repro.campaign.cli import build_parser
from repro.errors import ConfigurationError

ALL_SPECS = [SweepJob, TrainJob, FigureJob, StreamJob, CapacityJob, GridJob]


def _spec_instance(cls):
    if cls is FigureJob:
        return cls(names=("table2",))
    return cls()


class TestRoundTrip:
    @pytest.mark.parametrize("cls", ALL_SPECS, ids=lambda c: c.kind)
    def test_json_round_trip_is_identity(self, cls):
        spec = _spec_instance(cls)
        data = json.loads(spec.to_json())
        assert data["kind"] == cls.kind
        rebuilt = job_from_dict(data)
        assert rebuilt == spec
        assert rebuilt.to_json() == spec.to_json()

    @pytest.mark.parametrize("cls", ALL_SPECS, ids=lambda c: c.kind)
    def test_canonical_json_is_sorted_and_compact(self, cls):
        text = _spec_instance(cls).to_json()
        data = json.loads(text)
        assert text == json.dumps(
            data, sort_keys=True, separators=(",", ":")
        )

    def test_registry_covers_every_spec(self):
        assert sorted(JOB_KINDS) == sorted(c.kind for c in ALL_SPECS)

    def test_list_fields_normalize_to_tuples(self):
        spec = job_from_dict(
            {"kind": "sweep", "snrs": [0, 5.0], "suite": "quick"}
        )
        assert spec.snrs == (0.0, 5.0)
        spec = job_from_dict({"kind": "train", "horizons": [0, 1, 3]})
        assert spec.horizons == (0, 1, 3)


class TestRejection:
    def test_unknown_kind(self):
        with pytest.raises(ConfigurationError, match="unknown job kind"):
            job_from_dict({"kind": "bake-cake"})

    def test_missing_kind(self):
        with pytest.raises(ConfigurationError, match="unknown job kind"):
            job_from_dict({"scenario": "reduced"})

    def test_non_dict_payload(self):
        with pytest.raises(ConfigurationError, match="must be an object"):
            job_from_dict(["grid"])

    def test_unknown_field_names_the_field(self):
        with pytest.raises(
            ConfigurationError, match="unknown grid job field.*gird"
        ):
            job_from_dict({"kind": "grid", "gird": "smoke-grid"})

    def test_scalar_where_list_expected(self):
        with pytest.raises(ConfigurationError, match="expects a list"):
            job_from_dict({"kind": "sweep", "snrs": 5.0})

    def test_wrong_element_type_in_list(self):
        with pytest.raises(ConfigurationError, match="expects a list of"):
            job_from_dict({"kind": "train", "horizons": ["soon"]})

    def test_figure_requires_names(self):
        with pytest.raises(ConfigurationError, match="needs between 1 and"):
            FigureJob()


class TestCliDefaultDrift:
    """Spec defaults == argparse defaults, field by field."""

    #: kind -> (cli argv, spec fields that mirror parser dests).
    CASES = {
        "sweep": (["sweep"], ["scenario", "snrs", "num_sets", "suite"]),
        "train": (
            ["train"],
            ["scenario", "combinations", "horizons", "seed"],
        ),
        "figure": (["figure", "table2"], ["scenario", "combinations", "seed"]),
        "stream": (
            ["stream"],
            [
                "scenario",
                "links",
                "slots",
                "policies",
                "deadline_slots",
                "horizon",
                "seed",
                "defer_threshold",
                "round_deadline",
                "traffic",
                "qos",
            ],
        ),
        "capacity": (
            ["capacity"],
            [
                "links",
                "duration",
                "traffic",
                "qos",
                "seed",
                "service_pps",
                "admission_limit",
            ],
        ),
        "grid": (["grid"], ["grid", "suite", "vvd", "horizon", "seed"]),
    }

    @pytest.mark.parametrize("kind", sorted(CASES))
    def test_defaults_match_parser(self, kind):
        argv, fields = self.CASES[kind]
        args = build_parser().parse_args(argv)
        spec = _spec_instance(JOB_KINDS[kind])
        for name in fields:
            cli_value = getattr(args, name)
            spec_value = getattr(spec, name)
            if isinstance(spec_value, tuple):
                cli_value = (
                    tuple(cli_value) if cli_value is not None else None
                )
            assert spec_value == cli_value, (
                f"{kind}.{name}: spec default {spec_value!r} drifted "
                f"from CLI default {cli_value!r}"
            )
