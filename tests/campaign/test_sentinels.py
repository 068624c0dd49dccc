"""Pin the CI-grepped sentinel strings at the one site that writes each.

Nightly CI greps exact sentinel lines out of stdout ("100% cache
hits", "self-healing: ...", "cache corruption detected") and
byte-diffs serial-vs-parallel capacity logs.  The summary lines every
CLI subcommand and every ``repro serve`` worker shares are assembled by
:mod:`repro.api.kinds.common` and the kind modules, and must not move
or reformat a single character: this module pins each sentinel at its
source site and proves the default log level emits them verbatim on
stdout.
"""

from __future__ import annotations

import inspect
import re

import pytest

from repro.api import facade as facade_module
from repro.api.kinds import capacity as capacity_module
from repro.api.kinds import common as common_module
from repro.api.kinds import figure as figure_module
from repro.api.kinds import grid as grid_module
from repro.api.kinds import stream as stream_module
from repro.api.kinds import sweep as sweep_module
from repro.api.kinds import train as train_module
from repro.campaign import cache as cache_module
from repro.campaign import cli as cli_module
from repro.campaign import results as results_module
from repro.campaign import runner as runner_module
from repro.obs import log
from repro.serve import daemon as daemon_module
from repro.serve import queue as queue_module

#: (module, sentinel fragment) pairs the nightly jobs grep for.
SENTINELS = [
    (common_module, "no measurement sets regenerated (100% cache hits)"),
    (common_module, "no models retrained (100% checkpoint hits)"),
    (common_module, "step attempt(s) retried, "),
    (common_module, "self-healing: "),
    (facade_module, "fault plan {plan.name!r} armed: "),
    (grid_module, " derived scenario(s) over "),
    (common_module, " executed, "),
    (common_module, " resumed from manifest "),
    (capacity_module, " modeled point(s) over "),
    (capacity_module, " job(s); no datasets or checkpoints touched"),
    (cache_module, "warning: cache corruption detected in "),
    (results_module, "warning: corrupt grid record "),
]

#: Modules whose output must flow through the logger, never print().
ROUTED_MODULES = [
    cli_module,
    facade_module,
    common_module,
    sweep_module,
    train_module,
    figure_module,
    stream_module,
    capacity_module,
    grid_module,
    cache_module,
    results_module,
    runner_module,
    daemon_module,
    queue_module,
]


class TestSentinelSources:
    @pytest.mark.parametrize(
        "module, sentinel",
        SENTINELS,
        ids=[sentinel.strip() for _, sentinel in SENTINELS],
    )
    def test_sentinel_still_present(self, module, sentinel):
        assert sentinel in inspect.getsource(module)

    @pytest.mark.parametrize(
        "module",
        ROUTED_MODULES,
        ids=[module.__name__ for module in ROUTED_MODULES],
    )
    def test_no_bare_print_calls_remain(self, module):
        source = inspect.getsource(module)
        # `fingerprint(` must not count; only real print() call sites.
        assert re.search(r"(?<![\w.])print\(", source) is None

    def test_cli_no_longer_owns_sentinel_text(self):
        """The CLI is a shell: summary text belongs to the kinds."""
        source = inspect.getsource(cli_module)
        assert "100% cache hits" not in source
        assert "self-healing: " not in source


class TestSentinelEmission:
    def test_default_level_emits_sentinels_byte_exact(self, capsys):
        log.reset()
        sentinels = [
            "no measurement sets regenerated (100% cache hits)",
            "no models retrained (100% checkpoint hits)",
            "self-healing: 2 step attempt(s) retried, "
            "1 step(s) quarantined: point@x",
        ]
        for line in sentinels:
            log.info(line)
        log.warning("warning: cache corruption detected in set_0003.npz")
        out = capsys.readouterr().out
        assert out == (
            "\n".join(sentinels)
            + "\nwarning: cache corruption detected in set_0003.npz\n"
        )

    def test_self_healing_lines_when_plan_armed(self):
        class _Result:
            retried = 0
            quarantined: list = []

        lines = common_module.self_healing_lines(_Result(), plan=object())
        assert lines == [
            "self-healing: 0 step attempt(s) retried, "
            "0 step(s) quarantined"
        ]

    def test_self_healing_lines_empty_on_clean_unarmed_run(self):
        class _Result:
            retried = 0
            quarantined: list = []

        assert common_module.self_healing_lines(_Result(), plan=None) == []

    def test_self_healing_lines_name_quarantined_steps(self):
        class _Result:
            retried = 2
            quarantined = ["point@x", "point@y"]

        assert common_module.self_healing_lines(_Result(), plan=None) == [
            "self-healing: 2 step attempt(s) retried, "
            "2 step(s) quarantined: point@x, point@y"
        ]
