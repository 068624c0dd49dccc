"""Scenario registry: presets, resolution, registration errors."""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from repro.campaign.cache import config_fingerprint
from repro.campaign.cli import main
from repro.campaign.params import load_scenario_file
from repro.campaign.scenario import (
    ROOM_PRESETS,
    Scenario,
    get_scenario,
    list_scenarios,
    register_scenario,
)
from repro.config import SimulationConfig
from repro.errors import ConfigurationError


class TestRegistry:
    def test_builtin_presets_present(self):
        names = {s.name for s in list_scenarios()}
        assert {
            "paper",
            "reduced",
            "tiny",
            "smoke",
            "multi-human-crossing",
            "slow-walk",
            "brisk-walk",
            "dense-office",
        } <= names

    def test_unknown_scenario_raises_with_known_names(self):
        with pytest.raises(ConfigurationError, match="reduced"):
            get_scenario("no-such-scenario")

    def test_duplicate_registration_rejected(self):
        scenario = get_scenario("tiny")
        with pytest.raises(ConfigurationError, match="already registered"):
            register_scenario(scenario)
        # replace=True is the explicit override.
        register_scenario(scenario, replace=True)

    def test_unknown_base_and_room_rejected(self):
        with pytest.raises(ConfigurationError, match="base preset"):
            Scenario(name="x", description="", base="huge")
        with pytest.raises(ConfigurationError, match="room preset"):
            Scenario(name="x", description="", room="warehouse")


class TestResolve:
    def test_reduced_resolves_to_reduced_preset(self):
        assert (
            get_scenario("reduced").resolve() == SimulationConfig.reduced()
        )

    def test_smoke_overrides_dimensions(self):
        config = get_scenario("smoke").resolve()
        assert config.dataset.num_sets == 3
        assert config.dataset.packets_per_set == 8
        assert config.dataset.skip_initial < 8

    def test_multi_human_crossing_mobility(self):
        config = get_scenario("multi-human-crossing").resolve()
        assert config.mobility.num_humans == 2
        assert config.mobility.trajectory == "crossing"

    def test_speed_range_override(self):
        config = get_scenario("slow-walk").resolve()
        assert config.mobility.speed_min_mps == pytest.approx(0.15)
        assert config.mobility.speed_max_mps == pytest.approx(0.35)

    def test_dense_office_room(self):
        config = get_scenario("dense-office").resolve()
        assert config.room == ROOM_PRESETS["dense-office"]
        assert len(config.room.scatterers) > len(
            ROOM_PRESETS["paper-lab"].scatterers
        )

    def test_snr_and_seed_overrides(self):
        scenario = Scenario(
            name="x",
            description="",
            base="tiny",
            snr_db=4.5,
            seed=77,
        )
        config = scenario.resolve()
        assert config.channel.snr_db == pytest.approx(4.5)
        assert config.seed == 77


class TestNewAxes:
    def test_corridor_commute_resolves_grouped_heterogeneous(self):
        config = get_scenario("corridor-commute").resolve()
        assert config.room == ROOM_PRESETS["corridor"]
        assert config.mobility.trajectory == "grouped"
        assert config.mobility.num_humans == 3
        assert config.mobility.speed_profile == "heterogeneous"

    def test_grouped_requires_company_at_construction(self):
        # The scenario language's construction-time guard: a grouped
        # trajectory with a single walker has no group to follow.
        with pytest.raises(
            ConfigurationError, match="grouped-needs-company"
        ):
            Scenario(
                name="lonely-group",
                description="",
                trajectory="grouped",
                num_humans=1,
            )

    def test_solo_crossing_stays_valid(self):
        # Deliberate deviation from a stricter rule: crossing with one
        # walker is the established streaming showcase workload
        # (brisk-crossing, stream-smoke, half the mobility-snr grid),
        # so it validates fine — the language flags it as a warning
        # only (see test_params.py), never a construction error.
        scenario = Scenario(
            name="solo-cross",
            description="",
            trajectory="crossing",
            num_humans=1,
        )
        assert scenario.resolve().mobility.trajectory == "crossing"
        assert get_scenario("brisk-crossing").num_humans == 1
        assert get_scenario("stream-smoke").num_humans == 1

    def test_uniform_profile_leaves_config_at_default(self):
        # speed_profile="uniform" must not touch the resolved config:
        # the field is elided from cache canonicalization at its
        # default, which is what keeps pre-existing keys byte-stable.
        config = get_scenario("reduced").resolve()
        assert config.mobility.speed_profile == "uniform"
        assert config == SimulationConfig.reduced()


class TestCacheKeyRegression:
    """Every pre-existing scenario and grid member must keep its key.

    The fingerprints below were captured from the seed revision before
    the scenario-language port (PR 7).  A mismatch here means existing
    on-disk dataset caches — and every model checkpoint keyed off them
    — would silently regenerate; that is a breaking change and must be
    deliberate (bump DATASET_CACHE_SALT and re-pin).
    """

    PINNED_FINGERPRINTS = {
        "brisk-crossing": "4b116c50de210ae1",
        "brisk-walk": "3e7dbad435684abc",
        "dense-office": "bff7fb9bd122d84a",
        "mobility-snr/num_humans=1,speed=0.15-0.35,snr_db=3": "4fdf9a2b3e1b6dff",
        "mobility-snr/num_humans=1,speed=0.15-0.35,snr_db=9.5": "669805d08394d0a8",
        "mobility-snr/num_humans=1,speed=1-1.6,snr_db=3": "955bd9de593f5a9a",
        "mobility-snr/num_humans=1,speed=1-1.6,snr_db=9.5": "4b116c50de210ae1",
        "mobility-snr/num_humans=2,speed=0.15-0.35,snr_db=3": "8ed60175e4c8602b",
        "mobility-snr/num_humans=2,speed=0.15-0.35,snr_db=9.5": "9130b9ebcd7ea640",
        "mobility-snr/num_humans=2,speed=1-1.6,snr_db=3": "5a3615d5dcb90677",
        "mobility-snr/num_humans=2,speed=1-1.6,snr_db=9.5": "45abb680f6a34475",
        "multi-human-crossing": "cee47a668d502a42",
        "paper": "2e88ce7d02d325a2",
        "reduced": "5262ac2cbc5c0888",
        "slow-walk": "f560bb41ca46b217",
        "smoke": "db7c0893a69e4d0c",
        "smoke-grid/snr_db=12,seed=0,speed=0.4-0.8": "5a721dfea46ca339",
        "smoke-grid/snr_db=12,seed=0,speed=1-1.6": "d6c1c7370f27186e",
        "smoke-grid/snr_db=12,seed=1,speed=0.4-0.8": "9eb7df212aadd737",
        "smoke-grid/snr_db=12,seed=1,speed=1-1.6": "97cec3babc38af2f",
        "smoke-grid/snr_db=6,seed=0,speed=0.4-0.8": "9104bfa73a5b8595",
        "smoke-grid/snr_db=6,seed=0,speed=1-1.6": "10e3e0eeb9266995",
        "smoke-grid/snr_db=6,seed=1,speed=0.4-0.8": "50ffa879df327c7f",
        "smoke-grid/snr_db=6,seed=1,speed=1-1.6": "bd8ea8409fec2184",
        "smoke-grid/snr_db=9.5,seed=0,speed=0.4-0.8": "ee3882570bca3de9",
        "smoke-grid/snr_db=9.5,seed=0,speed=1-1.6": "46bf3c568efbf76c",
        "smoke-grid/snr_db=9.5,seed=1,speed=0.4-0.8": "77fbca8dfd266475",
        "smoke-grid/snr_db=9.5,seed=1,speed=1-1.6": "b67fdae36a5946ed",
        "stream-smoke": "a602e225613ae344",
        "tiny": "e309363ebc0f1638",
    }

    def test_every_preexisting_name_still_registered(self):
        registered = {s.name for s in list_scenarios()}
        missing = set(self.PINNED_FINGERPRINTS) - registered
        assert not missing, missing

    def test_every_preexisting_key_is_byte_identical(self):
        from repro.campaign.cache import config_fingerprint

        mismatched = {}
        for name, pinned in self.PINNED_FINGERPRINTS.items():
            actual = config_fingerprint(
                get_scenario(name).resolve()
            )
            if actual != pinned:
                mismatched[name] = (pinned, actual)
        assert not mismatched, mismatched


_EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


class TestScenarioLanguagePins:
    """Outputs of the scenario language that refactors must not move."""

    def test_sample_output_bytes(self, capsys):
        argv = ["scenarios", "sample", "--seed", "7", "--count", "10"]
        assert main(argv) == 0
        output = capsys.readouterr().out
        digest = hashlib.sha256(output.encode()).hexdigest()
        assert digest == (
            "46fb0bf2f3e68fd39e254facd653a1a767bd589f0e42429c78e27013d749e4e6"
        )

    @pytest.mark.parametrize(
        "text, room, keys",
        [
            (
                None,
                "atrium",
                {
                    "atrium-stroll": "11708f866eda6fde",
                    "atrium-commuters": "002319f51800bdc3",
                },
            ),
            # Integer room sizes stay integers, and so keep their own
            # cache keys: scenario and room values are never converted.
            (
                "width_m = 12\ndepth_m = 12\nheight_m = 6\n",
                "atriumint",
                {
                    "atriumint-stroll": "856acddc11fbc9f8",
                    "atriumint-commuters": "cb87a053e3aa0250",
                },
            ),
        ],
    )
    def test_example_file_cache_keys(self, tmp_path, text, room, keys):
        source = (_EXAMPLES / "scenarios.toml").read_text()
        if text is not None:
            source = source.replace(
                "width_m = 12.0\ndepth_m = 12.0\nheight_m = 6.0\n", text
            ).replace("atrium", room)
        path = tmp_path / "scenarios.toml"
        path.write_text(source)
        try:
            fingerprints = {
                scenario.name: config_fingerprint(scenario.resolve())
                for scenario in load_scenario_file(path, register=False)
            }
        finally:
            ROOM_PRESETS.pop(room, None)
        assert fingerprints == keys
