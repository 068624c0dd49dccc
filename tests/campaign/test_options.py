"""The shared option declarations: parser rendering and REST validation.

The fields of :class:`~repro.api.facade.RunOptions` and
:class:`~repro.api.facade.HostOptions` drive every subcommand's
argparse flags and the daemon's job-option validation, so these tests
are drift detectors: if a subcommand stops rendering the declarations,
or the service accepts an option the CLI doesn't (or vice versa),
something here fails.
"""

from __future__ import annotations

import argparse
from dataclasses import fields

import pytest

from repro.api.facade import (
    SERVICE_OPTIONS,
    HostOptions,
    RunOptions,
    default_workers,
    validate_job_options,
)
from repro.api.jobs import JOB_KINDS
from repro.campaign.cli import build_parser
from repro.errors import ConfigurationError

#: Option gates each campaign kind takes (the contract between the CLI
#: surface and the service job options).
EXPECTED_TAKES = {
    "sweep": {"robustness"},
    "train": {"model_dir", "robustness"},
    "figure": {"model_dir"},
    "stream": {"jobs", "model_dir", "robustness"},
    "capacity": {"jobs", "robustness"},
    "grid": {"jobs", "model_dir", "robustness"},
}


def _cli_default(option):
    if "cli_default" in option.metadata:
        return option.metadata["cli_default"]()
    return option.default


def _parse_defaults(command: str) -> argparse.Namespace:
    argv = {"figure": [command, "table2"]}.get(command, [command])
    return build_parser().parse_args(argv)


class TestParserRendersTable:
    @pytest.mark.parametrize("command", sorted(EXPECTED_TAKES))
    def test_subcommand_defaults_match_table(self, command, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_WORKERS", raising=False)
        assert JOB_KINDS[command].takes == EXPECTED_TAKES[command]
        args = _parse_defaults(command)
        for cls in (RunOptions, HostOptions):
            for option in fields(cls):
                gate = option.metadata.get("gate")
                if gate is not None and gate not in EXPECTED_TAKES[command]:
                    # Gated options (e.g. sweep takes --fresh but not
                    # --jobs) are covered separately.
                    assert not hasattr(args, option.name)
                    continue
                assert getattr(args, option.name) == _cli_default(option), (
                    f"{command} --{option.name} default drifted from "
                    "its declaration"
                )

    @pytest.mark.parametrize("command", sorted(EXPECTED_TAKES))
    def test_subcommand_accepts_common_flags(self, command):
        argv = {"figure": [command, "table2"]}.get(command, [command])
        args = build_parser().parse_args(
            argv + ["--cache-dir", "/tmp/x", "--workers", "4", "--verbose"]
        )
        assert args.cache_dir == "/tmp/x"
        assert args.workers == 4
        assert args.verbose is True

    def test_sweep_has_fresh_but_not_jobs(self):
        args = _parse_defaults("sweep")
        assert hasattr(args, "fresh")
        assert not hasattr(args, "jobs")

    @pytest.mark.parametrize("command", ["stream", "capacity", "grid"])
    def test_parallel_commands_expose_jobs(self, command):
        args = _parse_defaults(command)
        assert args.jobs == 1

    def test_workers_default_tracks_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_WORKERS", "3")
        assert default_workers() == 3
        monkeypatch.setenv("REPRO_BENCH_WORKERS", "0")
        assert default_workers() is None
        monkeypatch.setenv("REPRO_BENCH_WORKERS", "junk")
        assert default_workers() is None


class TestServiceOptions:
    def test_host_side_options_are_excluded(self):
        # The daemon owns its cache/model roots and stdout: these are
        # never accepted inside a job submission.
        for name in ("cache_dir", "quiet", "model_dir"):
            assert name not in SERVICE_OPTIONS

    def test_service_names_are_a_subset_of_the_table(self):
        table_names = {
            option.name
            for cls in (RunOptions, HostOptions)
            for option in fields(cls)
        }
        assert set(SERVICE_OPTIONS) <= table_names

    def test_defaults_fill_missing_options(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_WORKERS", raising=False)
        resolved = validate_job_options(None)
        assert resolved["jobs"] == 1
        assert resolved["retries"] == 3
        assert resolved["fresh"] is False
        assert resolved["faults"] is None
        assert resolved["workers"] is None

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown job option"):
            validate_job_options({"bogus": 1})

    def test_host_side_key_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown job option"):
            validate_job_options({"cache_dir": "/tmp/x"})

    def test_bool_flag_requires_bool(self):
        with pytest.raises(ConfigurationError, match="expects a boolean"):
            validate_job_options({"fresh": 1})

    def test_int_option_rejects_bool_and_junk(self):
        with pytest.raises(ConfigurationError, match="expects int"):
            validate_job_options({"jobs": True})
        with pytest.raises(ConfigurationError, match="expects int"):
            validate_job_options({"jobs": "two"})

    def test_valid_payload_coerces_types(self):
        resolved = validate_job_options(
            {"jobs": 2, "step_timeout": "1.5", "faults": "flaky-io"}
        )
        assert resolved["jobs"] == 2
        assert resolved["step_timeout"] == 1.5
        assert resolved["faults"] == "flaky-io"

    def test_string_option_rejects_non_string(self):
        with pytest.raises(ConfigurationError, match="expects a string"):
            validate_job_options({"faults": 3})
