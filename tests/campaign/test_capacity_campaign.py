"""Capacity campaign wiring: steps, determinism, grid axes, schema.

The ``capacity@<links>`` steps are pure queueing simulations, so the
campaign layer's strongest guarantee applies to them in full: serial
and ``jobs=N`` runs produce byte-identical step payloads, and the
report renders the SLA summary + capacity curve purely from persisted
JSON (``run_on_partial`` — quarantined points are named, not fatal).
"""

import dataclasses
import json

import pytest

from repro.api import CapacityJob
from repro.campaign import Campaign, CampaignContext, DatasetCache
from repro.campaign.grid import AXIS_FIELDS, get_grid
from repro.campaign.scenario import Scenario, get_scenario
from repro.config import SimulationConfig
from repro.errors import ConfigurationError

_LINKS = (4, 8)


def _context(tmp_path, workers=None) -> CampaignContext:
    return CampaignContext(
        SimulationConfig.tiny(),
        DatasetCache(tmp_path / "cache"),
        tmp_path / "campaign",
        workers=workers,
    )


def _run(tmp_path, jobs=1):
    campaign = Campaign(
        "capacity[test]",
        CapacityJob(links=_LINKS, duration=4.0).steps(
            SimulationConfig.tiny()
        ),
        tmp_path / "campaign",
    )
    context = _context(tmp_path)
    campaign.run(context, jobs=jobs)
    payloads = {
        links: context.read_output(f"capacity@{links}")
        for links in _LINKS
    }
    return payloads, context.read_output("report")


class TestCapacitySteps:
    def test_serial_and_parallel_runs_are_byte_identical(
        self, tmp_path
    ):
        serial, serial_report = _run(tmp_path / "serial", jobs=1)
        parallel, parallel_report = _run(tmp_path / "parallel", jobs=2)
        assert serial == parallel
        assert serial_report == parallel_report

    def test_report_carries_sla_summary_and_curve(self, tmp_path):
        _, report = _run(tmp_path)
        # The nightly CI sentinel plus the figure headline.
        assert f"SLA summary — {max(_LINKS)} link(s)" in report
        assert "Capacity curve —" in report
        assert "sustained capacity:" in report

    def test_payloads_are_valid_step_json(self, tmp_path):
        payloads, _ = _run(tmp_path)
        for links, raw in payloads.items():
            payload = json.loads(raw)
            assert payload["links"] == links
            assert payload["metrics"]["classes"]

    def test_empty_link_counts_raise(self):
        with pytest.raises(ConfigurationError):
            CapacityJob(links=())


class TestGridWiring:
    def test_capacity_axis_aliases_stream_links(self):
        assert AXIS_FIELDS["capacity"] == "stream_links"
        assert AXIS_FIELDS["traffic"] == "traffic"
        assert AXIS_FIELDS["qos"] == "qos"

    def test_capacity_smoke_grid_expands(self):
        spec = get_grid("capacity-smoke")
        points = spec.expand()
        assert len(points) == spec.num_points
        links = {p.scenario.stream_links for p in points}
        assert links == {16, 64, 128}
        assert {p.scenario.qos for p in points} == {"triple"}
        assert {p.scenario.traffic for p in points} == {
            "periodic:10",
            "mixed",
        }


class TestScenarioSchema:
    def test_traffic_and_qos_have_parameters(self):
        declared = Scenario.__dataclass_fields__
        assert declared["traffic"].metadata["help"]
        assert declared["qos"].metadata["help"]

    def test_bad_traffic_fails_validation(self):
        with pytest.raises(ConfigurationError, match="traffic"):
            Scenario(
                name="bad-traffic",
                description="x",
                base="tiny",
                traffic="warp:10",
            )

    def test_bad_qos_fails_validation(self):
        with pytest.raises(ConfigurationError, match="qos"):
            Scenario(
                name="bad-qos",
                description="x",
                base="tiny",
                qos="platinum",
            )

    def test_defaults_stay_out_of_resolve(self):
        # Stream-only fields: the dataset configuration (and with it
        # every cache key) must not depend on traffic/qos.
        base = get_scenario("stream-smoke")
        variant = dataclasses.replace(
            base, name="qos-variant", traffic="mixed", qos="triple"
        )
        assert variant.resolve() == base.resolve()
