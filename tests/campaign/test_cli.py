"""CLI smoke tests: list-scenarios, generate, sweep resume, cache."""

from __future__ import annotations

import argparse

import pytest

from repro.api.jobs import JOB_KINDS
from repro.campaign.cli import build_parser, main


@pytest.fixture(scope="module")
def populated_cache(tmp_path_factory):
    """One cached 'smoke' campaign shared by the read-only CLI tests."""
    cache_dir = tmp_path_factory.mktemp("cli-cache")
    code = main(
        ["generate", "--scenario", "smoke", "--cache-dir", str(cache_dir)]
    )
    assert code == 0
    return cache_dir


class TestHelp:
    def test_every_subcommand_formats_its_help(self):
        # argparse %-formats help text only when asked: a stray "%" in
        # a declared help string passes every parse and breaks --help.
        parser = build_parser()
        (subparsers,) = [
            action
            for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        assert set(JOB_KINDS) <= set(subparsers.choices)
        assert parser.format_help()
        for name, subparser in subparsers.choices.items():
            assert subparser.format_help().startswith(
                f"usage: repro {name}"
            )


class TestListScenarios:
    def test_lists_builtins(self, capsys):
        assert main(["list-scenarios"]) == 0
        out = capsys.readouterr().out
        for name in ("reduced", "smoke", "multi-human-crossing"):
            assert name in out

    def test_unknown_scenario_is_an_error(self, tmp_path, capsys):
        code = main(
            [
                "generate",
                "--scenario",
                "nope",
                "--cache-dir",
                str(tmp_path),
            ]
        )
        assert code == 2
        assert "unknown scenario" in capsys.readouterr().err


class TestGenerate:
    def test_generate_populates_cache(self, populated_cache, capsys):
        # Second generate over the same cache dir is a pure hit.
        code = main(
            [
                "generate",
                "--scenario",
                "smoke",
                "--cache-dir",
                str(populated_cache),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "1 hit(s), 0 miss(es)" in out
        assert "0 set(s) generated" in out


class TestCacheSubcommand:
    def test_stats_and_list(self, populated_cache, capsys):
        assert (
            main(["cache", "list", "--cache-dir", str(populated_cache)])
            == 0
        )
        assert "complete" in capsys.readouterr().out
        assert (
            main(["cache", "stats", "--cache-dir", str(populated_cache)])
            == 0
        )
        assert "entr(ies)" in capsys.readouterr().out

    def test_clear(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        assert (
            main(
                [
                    "generate",
                    "--scenario",
                    "smoke",
                    "--cache-dir",
                    str(cache_dir),
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert (
            main(["cache", "clear", "--cache-dir", str(cache_dir)]) == 0
        )
        assert "removed 1" in capsys.readouterr().out


class TestSweep:
    def test_generate_feeds_the_sweeps_matching_point(
        self, populated_cache, capsys
    ):
        # The smoke grid includes the base 9.5 dB operating point, so a
        # sweep over a cache populated by `generate` hits that entry.
        assert (
            main(
                [
                    "sweep",
                    "--scenario",
                    "smoke",
                    "--suite",
                    "quick",
                    "--cache-dir",
                    str(populated_cache),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "1 hit(s), 2 miss(es)" in out


    def test_sweep_twice_hits_cache_and_resumes(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        argv = [
            "sweep",
            "--scenario",
            "smoke",
            "--suite",
            "quick",
            "--cache-dir",
            cache_dir,
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "SNR sweep" in first
        assert "7 executed, 0 resumed" in first

        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "0 executed, 7 resumed" in second
        assert "no measurement sets regenerated (100% cache hits)" in second
        # The replayed report is identical.
        assert first.splitlines()[:6] == second.splitlines()[:6]


class TestSelfHealing:
    def test_sweep_under_fault_plan_retries_and_reports(
        self, tmp_path, capsys
    ):
        import json

        plan_path = tmp_path / "plan.json"
        plan_path.write_text(
            json.dumps(
                {
                    "name": "cli-chaos",
                    "specs": [
                        {
                            "site": "step.body",
                            "kind": "io_error",
                            "match": "eval@*",
                            "times": 1,
                        }
                    ],
                }
            )
        )
        code = main(
            [
                "sweep",
                "--scenario",
                "smoke",
                "--suite",
                "quick",
                "--snrs",
                "6",
                "12",
                "--cache-dir",
                str(tmp_path / "cache"),
                "--faults",
                str(plan_path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "fault plan 'cli-chaos' armed" in out
        assert (
            "self-healing: 1 step attempt(s) retried, "
            "0 step(s) quarantined" in out
        )
        assert "SNR sweep" in out  # the campaign still delivered

    def test_unknown_fault_plan_is_an_error(self, tmp_path, capsys):
        code = main(
            [
                "sweep",
                "--scenario",
                "smoke",
                "--suite",
                "quick",
                "--snrs",
                "6",
                "12",
                "--cache-dir",
                str(tmp_path / "cache"),
                "--faults",
                "no-such-plan",
            ]
        )
        assert code == 2
        assert "unknown fault plan" in capsys.readouterr().err


class TestScenariosSubcommand:
    def test_describe_prints_the_catalog(self, capsys):
        assert main(["scenarios", "describe"]) == 0
        out = capsys.readouterr().out
        for fragment in (
            "speed_profile",
            "grouped-needs-company",
            "solo-crossing",
        ):
            assert fragment in out

    def test_describe_one_scenario(self, capsys):
        assert (
            main(["scenarios", "describe", "--scenario", "tiny"]) == 0
        )
        out = capsys.readouterr().out
        assert '"name":"tiny"' in out
        assert "ok" in out

    def test_sample_prints_canonical_json_lines(self, capsys):
        assert (
            main(["scenarios", "sample", "--seed", "3", "--count", "4"])
            == 0
        )
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 4
        import json as _json

        for line in lines:
            spec = _json.loads(line)
            assert spec["name"].startswith("sampled-3-")

    def test_sample_is_deterministic_per_seed(self, capsys):
        main(["scenarios", "sample", "--seed", "9", "--count", "5"])
        first = capsys.readouterr().out
        main(["scenarios", "sample", "--seed", "9", "--count", "5"])
        assert capsys.readouterr().out == first

    def test_load_registers_scenarios_from_toml(
        self, tmp_path, capsys
    ):
        path = tmp_path / "extra.toml"
        path.write_text(
            "[[scenarios]]\n"
            'name = "cli-loaded"\n'
            'description = "from the cli test"\n'
            "num_humans = 2\n"
        )
        assert main(["scenarios", "load", str(path)]) == 0
        assert "cli-loaded" in capsys.readouterr().out
        assert main(["list-scenarios"]) == 0
        assert "cli-loaded" in capsys.readouterr().out

    def test_load_without_file_is_an_error(self, capsys):
        assert main(["scenarios", "load"]) == 2
        assert "file argument" in capsys.readouterr().err

    def test_broken_file_is_an_error_exit(self, tmp_path, capsys):
        path = tmp_path / "broken.toml"
        path.write_text(
            "[[scenarios]]\n"
            'name = "nope"\n'
            'description = "x"\n'
            'trajectory = "grouped"\n'
            "num_humans = 1\n"
        )
        assert main(["scenarios", "load", str(path)]) == 2
        assert "grouped-needs-company" in capsys.readouterr().err
