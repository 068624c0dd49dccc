"""Scenario language: field checks, conditions, aggregation, variants."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import pytest

from repro.campaign.params import (
    ValidationReport,
    check_values,
    describe_parameters,
    field_problems,
    field_shapes,
    load_scenario_file,
)
from repro.campaign.scenario import ROOM_PRESETS, Scenario, get_scenario
from repro.config import RoomConfig
from repro.errors import ConfigurationError


def _valid_values(**overrides):
    values = {"name": "t", "description": "test spec"}
    values.update(overrides)
    return values


def _report(**overrides) -> ValidationReport:
    return check_values(Scenario, _valid_values(**overrides), "scenario")[1]


def _bounds(name: str) -> tuple:
    return Scenario.__dataclass_fields__[name].metadata["bounds"]


class TestParameter:
    def test_type_enforced(self):
        assert field_problems(Scenario, "num_humans", 2) == []
        problems = field_problems(Scenario, "num_humans", "two")
        assert len(problems) == 1
        assert "expected int" in problems[0]

    def test_bool_is_not_an_int(self):
        # isinstance(True, int) is True in Python; the walker closes
        # that hole so a grid axis of (True, False) cannot masquerade
        # as a num_humans axis.
        problems = field_problems(Scenario, "num_humans", True)
        assert problems and "expected int" in problems[0]

    def test_int_accepted_where_float_expected(self):
        assert field_problems(Scenario, "snr_db", 9) == []
        # ...and kept an int: scenarios never convert values.
        values, report = check_values(
            Scenario, _valid_values(snr_db=9), "scenario"
        )
        assert report.ok and type(values["snr_db"]) is int
        assert type(Scenario(**_valid_values(snr_db=9)).snr_db) is int

    def test_numeric_strings_and_floats_are_not_ints(self):
        # Unlike job fields, scenario fields convert nothing.
        for value in ("2", 2.0):
            problems = field_problems(Scenario, "num_humans", value)
            assert problems and "expected int" in problems[0]

    def test_bounds_enforced_inclusive(self):
        low, high = _bounds("num_humans")
        assert field_problems(Scenario, "num_humans", low) == []
        assert field_problems(Scenario, "num_humans", high) == []
        assert field_problems(Scenario, "num_humans", low - 1)
        assert field_problems(Scenario, "num_humans", high + 1)

    def test_bounds_elementwise_on_tuples(self):
        assert field_problems(Scenario, "speed_range_mps", (0.3, 0.8)) == []
        problems = field_problems(Scenario, "speed_range_mps", (0.3, 99.0))
        assert len(problems) == 1
        assert "99.0" in problems[0]

    def test_tuple_length_enforced(self):
        # speed_range_mps: tuple[float, float] — a fixed length read
        # from the annotation; snr_grid_db: a declared length range.
        problems = field_problems(
            Scenario, "speed_range_mps", (0.3, 0.5, 0.8)
        )
        assert any("entries" in p for p in problems)
        problems = field_problems(Scenario, "snr_grid_db", ())
        assert any("entries" in p for p in problems)

    def test_choices_with_label_phrase(self):
        problems = field_problems(Scenario, "base", "huge")
        assert problems and "base preset" in problems[0]
        problems = field_problems(Scenario, "room", "warehouse")
        assert problems and "room preset" in problems[0]

    def test_optional_none_allowed_required_none_rejected(self):
        assert field_problems(Scenario, "snr_db", None) == []
        problems = field_problems(Scenario, "stream_links", None)
        assert problems and "required" in problems[0]

    def test_every_violation_reported_not_just_first(self):
        # One bad tuple: wrong element type AND an out-of-range value.
        problems = field_problems(Scenario, "snr_grid_db", ("high", 99.0))
        assert len(problems) == 2

    def test_unknown_parameter_lookup_raises(self):
        # An unknown key is an error naming every known field.
        report = _report(no_such_parameter=1)
        assert len(report.errors) == 1
        assert "num_humans" in report.errors[0]

    def test_custom_parameter_allowed_predicate(self):
        @dataclass(frozen=True)
        class Even:
            p: int = field(
                metadata={
                    "allowed": lambda v: None if v % 2 == 0 else "must be even"
                }
            )

        assert check_values(Even, {"p": 2}, "even")[1].errors == ()
        assert check_values(Even, {"p": 3}, "even")[1].errors == (
            "p: must be even",
        )

    def test_shapes_come_from_the_annotations(self):
        shapes = {f.name: shape for f, shape in field_shapes(Scenario)}
        assert shapes["snr_db"].kind is float and shapes["snr_db"].optional
        assert shapes["speed_range_mps"].length == 2
        assert shapes["snr_grid_db"].element.kind is float
        scatterers = dict(
            (f.name, shape) for f, shape in field_shapes(RoomConfig)
        )["scatterers"]
        assert scatterers.kind is tuple and scatterers.length is None
        assert scatterers.element.kind is tuple
        assert scatterers.element.length == 4
        assert scatterers.element.element.kind is float


class TestConditions:
    def test_declared_evaluation_order(self):
        # Conditions evaluate (and report) in declared order; this pin
        # is the order tests and docs rely on.
        assert [c.name for c in Scenario.conditions] == [
            "speed-range-ordered",
            "grouped-needs-company",
            "solo-crossing",
            "snr-grid-sorted-unique",
        ]

    def test_violations_report_in_declared_order(self):
        report = _report(
            speed_range_mps=(1.6, 1.0),
            trajectory="grouped",
            num_humans=1,
            snr_grid_db=(9.5, 3.0),
        )
        names = [e.split(":")[0] for e in report.errors]
        assert names == [
            "speed-range-ordered",
            "grouped-needs-company",
            "snr-grid-sorted-unique",
        ]

    def test_condition_skipped_when_required_parameter_failed(self):
        # num_humans is type-broken AND the grouped condition would
        # fire; only the field violation must be reported — a
        # type-broken field never cascades into condition noise.
        report = _report(trajectory="grouped", num_humans="many")
        assert len(report.errors) == 1
        assert "expected int" in report.errors[0]
        assert not any(
            "grouped-needs-company" in e for e in report.errors
        )

    def test_grouped_condition_fires_when_parameters_valid(self):
        report = _report(trajectory="grouped", num_humans=1)
        assert len(report.errors) == 1
        assert "grouped-needs-company" in report.errors[0]

    def test_solo_crossing_is_warning_not_error(self):
        report = _report(trajectory="crossing", num_humans=1)
        assert report.ok
        assert any("solo-crossing" in w for w in report.warnings)

    def test_snr_grid_must_be_strictly_ascending(self):
        for grid in ((9.5, 3.0), (6.0, 6.0, 9.5)):
            report = _report(snr_grid_db=grid)
            assert any(
                "snr-grid-sorted-unique" in e for e in report.errors
            )

    def test_speed_range_min_le_max(self):
        report = _report(speed_range_mps=(1.6, 1.0))
        assert any(
            "speed-range-ordered" in e for e in report.errors
        )


class TestAggregation:
    def test_all_violations_listed_in_one_error(self):
        report = _report(
            base="huge",
            room="warehouse",
            snr_grid_db=(),
            stream_links=0,
        )
        assert len(report.errors) == 4
        with pytest.raises(
            ConfigurationError, match="4 violation"
        ) as excinfo:
            report.raise_for_errors()
        message = str(excinfo.value)
        for fragment in (
            "base preset",
            "room preset",
            "snr_grid_db",
            "stream_links",
        ):
            assert fragment in message

    def test_unknown_keys_are_errors(self):
        report = _report(walkers=3)
        assert any("unknown parameter" in e for e in report.errors)

    def test_missing_required_keys_are_errors(self):
        report = check_values(Scenario, {"name": "t"}, "scenario")[1]
        assert report.errors == ("description: value is required",)

    def test_ok_report_raises_nothing(self):
        report = _report()
        assert report.ok
        report.raise_for_errors()
        assert report.summary().endswith("ok")

    def test_report_summary_counts(self):
        report = ValidationReport(
            subject="x", errors=("a", "b"), warnings=("c",)
        )
        assert "2 error(s)" in report.summary()
        assert "1 warning(s)" in report.summary()

    def test_construction_reports_every_violation(self):
        with pytest.raises(ConfigurationError, match="2 violation"):
            Scenario(name="x", description="", num_humans="2", seed=-1)


class TestDeltaCopies:
    def test_delta_overlays_and_validates(self):
        variant = get_scenario("tiny").variant(name="tiny-2h", num_humans=2)
        assert variant.validate().ok
        assert variant.num_humans == 2
        assert variant.base == "tiny"  # untouched fields survive

    def test_delta_does_not_mutate_the_original(self):
        scenario = get_scenario("tiny")
        before = scenario.canonical_json()
        scenario.variant(num_humans=5)
        assert scenario.canonical_json() == before

    def test_inconsistent_delta_fails_at_materialization(self):
        with pytest.raises(
            ConfigurationError, match="grouped-needs-company"
        ):
            get_scenario("tiny").variant(
                trajectory="grouped", num_humans=1
            )

    def test_scenario_variant_routes_through_the_schema(self):
        scenario = get_scenario("tiny")
        variant = scenario.variant(
            name="tiny-crossing", trajectory="crossing", num_humans=2
        )
        assert isinstance(variant, Scenario)
        assert variant == dataclasses.replace(
            scenario,
            name="tiny-crossing",
            trajectory="crossing",
            num_humans=2,
        )
        with pytest.raises(ConfigurationError, match="violation"):
            scenario.variant(name="bad", base="huge", stream_links=0)

    def test_lists_normalize_to_tuples(self):
        values, report = check_values(
            Scenario, _valid_values(speed_range_mps=[0.3, 0.8]), "s"
        )
        assert report.ok and values["speed_range_mps"] == (0.3, 0.8)
        scenario = Scenario(**_valid_values(speed_range_mps=[0.3, 0.8]))
        assert scenario.speed_range_mps == (0.3, 0.8)


class TestRoomSchema:
    def _room_values(self, **overrides):
        values = {
            "width_m": 9.0,
            "depth_m": 7.0,
            "tx_position": (1.0, 3.5, 1.2),
            "rx_position": (8.0, 3.5, 1.2),
            "movement_area": (2.0, 1.0, 7.0, 6.0),
        }
        values.update(overrides)
        return values

    def _report(self, **overrides) -> ValidationReport:
        return check_values(RoomConfig, self._room_values(**overrides), "r")[1]

    def test_valid_room_builds(self):
        values, report = check_values(
            RoomConfig, self._room_values(), "room"
        )
        assert report.ok
        room = RoomConfig(**values)
        assert room.width_m == 9.0

    def test_movement_area_must_fit_the_room(self):
        report = self._report(movement_area=(2.0, 1.0, 12.0, 6.0))
        assert any(
            "movement-area-in-room" in e for e in report.errors
        )
        with pytest.raises(ConfigurationError, match="movement-area"):
            RoomConfig(movement_area=(2.0, 1.0, 12.0, 6.0))

    def test_devices_must_be_inside(self):
        report = self._report(tx_position=(20.0, 3.5, 1.2))
        assert any("devices-in-room" in e for e in report.errors)
        with pytest.raises(ConfigurationError, match="devices-in-room"):
            RoomConfig(tx_position=(20.0, 3.5, 1.2))

    def test_aggregates_all_room_violations(self):
        report = self._report(width_m=0.1, wall_reflectivity=2.0, bogus=1)
        assert len(report.errors) >= 3

    def test_geometry_fields_are_required_in_tables(self):
        values = self._room_values()
        del values["width_m"]
        report = check_values(RoomConfig, values, "room")[1]
        # The geometry rules reading width_m are skipped.
        assert report.errors == ("width_m: value is required",)

    def test_scatterer_entries_are_checked(self):
        report = self._report(scatterers=((3.0, 3.0, 1.2),))
        assert any("scatterers[0]" in e for e in report.errors)


class TestScenarioFiles:
    def test_toml_round_trip(self, tmp_path):
        path = tmp_path / "extra.toml"
        path.write_text(
            """
[rooms.test-hall]
width_m = 11.0
depth_m = 9.0
tx_position = [1.0, 4.5, 1.2]
rx_position = [10.0, 4.5, 1.2]
movement_area = [2.0, 1.5, 9.0, 7.5]

[[scenarios]]
name = "hall-walk"
description = "one walker in the test hall"
room = "test-hall"
snr_grid_db = [3.0, 9.5]
tags = ["file"]
"""
        )
        try:
            loaded = load_scenario_file(path)
            assert [s.name for s in loaded] == ["hall-walk"]
            assert "test-hall" in ROOM_PRESETS
            config = get_scenario("hall-walk").resolve()
            assert config.room.width_m == 11.0
            # A room table without scatterers has none (the paper
            # lab's cabinets are not inherited).
            assert config.room.scatterers == ()
            assert loaded[0].snr_grid_db == (3.0, 9.5)
        finally:
            ROOM_PRESETS.pop("test-hall", None)

    def test_json_files_load_too(self, tmp_path):
        path = tmp_path / "extra.json"
        path.write_text(
            '{"scenarios": [{"name": "json-walk", '
            '"description": "from json", "num_humans": 2}]}'
        )
        loaded = load_scenario_file(path, register=False)
        assert loaded[0].num_humans == 2

    def test_broken_file_registers_nothing(self, tmp_path):
        path = tmp_path / "broken.toml"
        path.write_text(
            """
[rooms.shoebox]
width_m = 2.0
depth_m = 2.0
tx_position = [1.0, 1.0, 1.2]
rx_position = [1.5, 1.0, 1.2]
movement_area = [0.5, 0.5, 3.5, 1.5]

[[scenarios]]
name = "broken-grouped"
description = "grouped needs company"
trajectory = "grouped"
num_humans = 1
"""
        )
        with pytest.raises(
            ConfigurationError, match="violation"
        ) as excinfo:
            load_scenario_file(path)
        message = str(excinfo.value)
        assert "movement-area-in-room" in message
        assert "grouped-needs-company" in message
        assert "shoebox" not in ROOM_PRESETS

    def test_unknown_suffix_rejected(self, tmp_path):
        path = tmp_path / "scenarios.yaml"
        path.write_text("scenarios: []")
        with pytest.raises(ConfigurationError, match="toml"):
            load_scenario_file(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match="no such"):
            load_scenario_file(tmp_path / "nope.toml")


class TestSchemaCatalog:
    def test_every_scenario_field_is_declared(self):
        # Every field carries the help text `scenarios describe` prints.
        for spec_field in dataclasses.fields(Scenario):
            assert spec_field.metadata["help"]

    def test_describe_lists_every_parameter_and_condition(self):
        text = describe_parameters()
        for spec_field in dataclasses.fields(Scenario):
            assert spec_field.name in text
        for condition in Scenario.conditions:
            assert condition.name in text
