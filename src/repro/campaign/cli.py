"""The ``repro`` command line: a thin shell over :mod:`repro.api`.

Installed as the ``repro`` console script (``setup.py``) and runnable as
``python -m repro``.  Subcommands:

``list-scenarios``
    Print every registered scenario preset.
``generate``
    Materialize a scenario's measurement sets in the dataset cache.
``sweep``
    Run the SNR-sweep campaign of a scenario as a resumable step DAG.
``train``
    Train every Table 2 VVD variant of a scenario through the
    content-addressed model checkpoint registry (zero retraining on
    repeat runs).
``figure``
    Render paper tables/figures from the cached evaluation bundle.
``stream``
    Replay a scenario as N concurrent links and run closed-loop link
    adaptation (proactive VVD vs reactive vs genie) as a resumable
    campaign: cached link traces, checkpoint-resolved serving model,
    per-policy goodput/outage/deadline metrics and a timeline figure.
``capacity``
    Sweep a modeled serving fleet over link counts: heterogeneous
    per-link arrival processes (``--traffic``), QoS classes with
    deadlines (``--qos``), admission control and load shedding on the
    modeled prediction backend — reported as a per-class SLA summary
    (p50/p99/p999, deadline-miss and shed rates vs. targets) plus the
    links-sustained-vs-SLO capacity curve.  Pure queueing simulation:
    no PHY, no datasets, no checkpoints; byte-identical across
    ``--jobs`` and repeat runs.
``grid``
    Expand a parametric scenario grid, evaluate every derived scenario
    as an independent campaign step (scheduled as a topological
    wavefront over ``--jobs`` worker processes) and render the
    cross-scenario summary table from the aggregated results store.
``serve``
    Run the campaign-as-a-service daemon: a crash-persistent job queue
    under ``<cache-dir>/jobs/`` plus a REST API (``POST /v1/jobs`` et
    al.) through which many clients share one cache and one run of any
    campaign (see docs/ARCHITECTURE.md, "Campaign-as-a-service").
``scenarios``
    The scenario language: ``load`` validates and registers scenarios
    (and custom rooms) from a TOML/JSON file, ``sample`` draws seeded
    uniformly-valid scenarios from the declared field ranges (one
    canonical JSON line per scenario — diffable, so two runs with the
    same seed must print byte-identical output), and ``describe`` prints
    the declared field/condition catalog.
``cache``
    Inspect (``stats``/``list``) or invalidate (``clear``) the cache.

Every subcommand accepts ``--cache-dir`` (default: ``$REPRO_CACHE_DIR``
or ``~/.cache/repro-vvd/datasets``); model-training commands accept
``--model-dir`` (default: ``$REPRO_MODEL_DIR`` or
``~/.cache/repro-vvd/models``); dataset generation fans out over
``--workers`` processes (default: ``$REPRO_BENCH_WORKERS``); DAG-level
parallelism is ``--jobs`` (``repro grid``, ``repro stream``).

The campaign commands (``sweep``/``train``/``stream``/``grid``)
self-heal by default: transient step failures retry with deterministic
backoff (``--retries``), a worker attempt exceeding ``--step-timeout``
is killed and requeued, and a step that still fails is *quarantined* —
independent DAG branches finish and the report names the missing
points (``--no-quarantine`` restores abort-on-first-failure).
``--faults <plan>`` arms a seeded fault-injection plan (chaos testing);
runs that quarantined anything exit 3.

Orchestration itself lives in :mod:`repro.api`.  The six campaign
subcommands are rendered from the job dataclasses and the run/host
option classes, field by field; each builds its typed
:class:`~repro.api.jobs.JobSpec` from the parsed arguments and hands
it to :func:`repro.api.prepare` — the same facade the ``repro serve``
HTTP handlers and third-party code call — so a campaign behaves
identically no matter which surface submitted it.  Exit codes come
from the :mod:`repro.api.errors` table.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path

from ..api import errors as api_errors
from ..api.facade import HostOptions, RunOptions, prepare
from ..api.jobs import JOB_KINDS
from ..errors import ReproError
from ..obs import analysis as obs_analysis, log
from .cache import DatasetCache
from .grid import list_grids
from .params import SAMPLE_SCALES, field_shapes
from .scenario import get_scenario, list_scenarios


def _add_fields(
    parser: argparse.ArgumentParser,
    cls: type,
    takes: frozenset[str] = frozenset(),
) -> None:
    """Render the declared fields of a dataclass as ``parser`` arguments.

    Flag, type, ``nargs``, default, choices and help all come from the
    field's declaration (:func:`repro.campaign.params.param`); a field
    with a ``gate`` is rendered only when ``takes`` names the gate.
    """
    for spec_field, shape in field_shapes(cls):
        kind = shape.kind
        meta = spec_field.metadata
        gate = meta.get("gate")
        if gate is not None and gate not in takes:
            continue
        kwargs = {"help": meta["help"]}
        choices = meta.get("choices")
        if choices is not None:
            kwargs["choices"] = choices() if callable(choices) else choices
        if kind is bool:
            kwargs["action"] = "store_true"
        if kind is tuple:
            kwargs["nargs"] = "+"
            kind = shape.element.kind
        if kind in (int, float):
            kwargs["type"] = kind
        if meta.get("positional"):
            parser.add_argument(spec_field.name, **kwargs)
            continue
        default = spec_field.default
        if "cli_default" in meta:
            default = meta["cli_default"]()
        # argparse hands nargs="+" values over as lists.
        if isinstance(default, tuple):
            default = list(default)
        parser.add_argument(
            "--" + spec_field.name.replace("_", "-"),
            default=default,
            **kwargs,
        )


def _from_args(cls: type, args: argparse.Namespace):
    """An instance of ``cls`` from the parsed values of its fields."""
    return cls(
        **{
            f.name: getattr(args, f.name)
            for f in fields(cls)
            if hasattr(args, f.name)
        }
    )


# -- subcommands --------------------------------------------------------
def _cmd_campaign(args: argparse.Namespace) -> int:
    """Prepare, run and print one campaign; returns the exit code."""
    host = _from_args(HostOptions, args)
    handle = prepare(
        _from_args(JOB_KINDS[args.command], args),
        cache_dir=host.cache_dir,
        model_dir=host.model_dir,
        workers=host.workers,
        verbose=host.verbose,
    )
    outcome = handle.run(_from_args(RunOptions, args))
    log.info(outcome.text)
    return outcome.exit_code


def _cmd_list_scenarios(args: argparse.Namespace) -> int:
    scenarios = list_scenarios()
    name_width = max(len(s.name) for s in scenarios)
    log.info(f"{'scenario':<{name_width}}  {'base':<8} description")
    log.info("-" * (name_width + 60))
    for scenario in scenarios:
        tags = f"  [{', '.join(scenario.tags)}]" if scenario.tags else ""
        log.info(
            f"{scenario.name:<{name_width}}  {scenario.base:<8} "
            f"{scenario.description}{tags}"
        )
    log.info(
        f"\n{len(scenarios)} scenario(s); run one with e.g. "
        "`python -m repro generate --scenario <name>`"
    )
    grids = list_grids()
    if grids:
        log.info("")
        grid_width = max(len(g.name) for g in grids)
        log.info(f"{'grid':<{grid_width}}  {'members':>7}  axes")
        log.info("-" * (grid_width + 60))
        for spec in grids:
            axes = " x ".join(
                f"{axis}[{len(values)}]" for axis, values in spec.axes
            )
            log.info(
                f"{spec.name:<{grid_width}}  {spec.num_points:>7}  "
                f"{axes} — {spec.description}"
            )
        log.info(
            f"\n{len(grids)} grid(s); run one with e.g. "
            "`python -m repro grid --grid <name> --jobs 4`"
        )
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    scenario = get_scenario(args.scenario)
    config = scenario.resolve()
    cache = DatasetCache(args.cache_dir)
    sets = cache.load_or_generate(
        config,
        workers=args.workers,
        engine=args.engine,
        verbose=args.verbose,
        force=args.force,
    )
    log.info(
        f"scenario {scenario.name!r}: {len(sets)} set(s) ready under "
        f"{cache.entry_dir(config, engine=args.engine)}"
    )
    log.info(f"cache: {cache.stats.summary()}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from ..serve.daemon import serve_forever

    return serve_forever(
        cache_dir=args.cache_dir,
        model_dir=args.model_dir,
        host=args.host,
        port=args.port,
        slots=args.slots,
        workers=args.workers,
        verbose=args.verbose,
    )


def _cmd_scenarios(args: argparse.Namespace) -> int:
    from .params import (
        describe_parameters,
        load_scenario_file,
        sample_scenarios,
    )

    if args.action == "describe":
        if args.scenario is not None:
            scenario = get_scenario(args.scenario)
            report = scenario.validate()
            log.info(scenario.canonical_json())
            log.info(report.summary())
            for line in report.warnings:
                log.warning(f"warning: {line}")
            return 0
        log.info(describe_parameters())
        return 0
    if args.action == "load":
        if args.file is None:
            raise ReproError(
                "scenarios load needs a file argument, e.g. "
                "`repro scenarios load my-scenarios.toml`"
            )
        loaded = load_scenario_file(
            args.file, register=True, replace=args.replace
        )
        for scenario in loaded:
            log.info(f"registered scenario {scenario.name!r}")
        log.info(f"{len(loaded)} scenario(s) loaded from {args.file}")
        return 0
    if args.action == "sample":
        scenarios = sample_scenarios(
            args.seed, args.count, scale=args.scale
        )
        for scenario in scenarios:
            log.info(scenario.canonical_json())
        if args.register:
            from .scenario import register_scenario

            for scenario in scenarios:
                register_scenario(scenario, replace=True)
            log.info(f"{len(scenarios)} sampled scenario(s) registered")
        return 0
    raise ReproError(f"unknown scenarios action {args.action!r}")


def _cmd_cache(args: argparse.Namespace) -> int:
    cache = DatasetCache(args.cache_dir)
    if args.action == "stats":
        entries = cache.entries()
        total = sum(entry.size_bytes for entry in entries)
        complete = sum(1 for entry in entries if entry.complete)
        log.info(f"cache root: {cache.root}")
        log.info(
            f"{len(entries)} entr(ies), {complete} complete, "
            f"{total / 1e6:.1f} MB"
        )
        return 0
    if args.action == "list":
        entries = cache.entries()
        if not entries:
            log.info(f"cache root {cache.root} is empty")
            return 0
        for entry in entries:
            state = "complete" if entry.complete else "partial"
            log.info(
                f"{entry.key}  {entry.num_sets_present} set(s)  "
                f"{entry.size_bytes / 1e6:8.1f} MB  {state}  "
                f"{entry.description}"
            )
        return 0
    if args.action == "clear":
        if args.key:
            removed = cache.invalidate(key=args.key)
        else:
            removed = cache.clear()
        log.info(f"removed {removed} cache entr(ies) from {cache.root}")
        return 0
    raise ReproError(f"unknown cache action {args.action!r}")


def _cmd_trace(args: argparse.Namespace) -> int:
    """Inspect the span journal of a traced campaign run.

    Journal resolution: ``--journal`` wins; otherwise the newest
    ``campaigns/*/trace/trace.jsonl`` under the cache root.  A missing
    or empty journal is reported and exits 0 — `repro trace summary`
    must be safe to run on a box that never traced anything.
    """
    if args.journal is not None:
        journal = Path(args.journal)
    else:
        cache = DatasetCache(args.cache_dir)
        journal = obs_analysis.discover_journal(cache.root)
        if journal is None:
            log.info(
                f"no trace journal under {cache.root / 'campaigns'} — "
                "run a campaign with --trace first"
            )
            return 0
    records = obs_analysis.load_journal(journal)
    if args.action == "summary":
        log.info(obs_analysis.render_summary(records))
        return 0
    if args.action == "timeline":
        log.info(obs_analysis.render_timeline(records))
        return 0
    if args.action == "critical-path":
        log.info(obs_analysis.render_critical_path(records))
        return 0
    if args.action == "export":
        if not args.chrome:
            raise ReproError(
                "trace export currently supports only --chrome"
            )
        output = (
            Path(args.output)
            if args.output is not None
            else Path(journal).with_name("trace.chrome.json")
        )
        obs_analysis.write_chrome(records, output)
        log.info(
            f"wrote {len(records)} record(s) as Chrome trace JSON to "
            f"{output} (open via chrome://tracing or ui.perfetto.dev)"
        )
        return 0
    raise ReproError(f"unknown trace action {args.action!r}")


def build_parser() -> argparse.ArgumentParser:
    """The ``repro`` argument parser (exposed for tests and docs).

    The campaign subcommands are rendered from the job dataclasses
    (:data:`~repro.api.jobs.JOB_KINDS`), :class:`RunOptions` and
    :class:`HostOptions` — the same declarations that validate
    :mod:`repro.api` calls and ``repro serve`` submissions — so flags
    cannot drift between the CLI and the service.
    """
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Campaign orchestration for the VVD reproduction: "
        "named scenarios, a content-addressed dataset cache and "
        "resumable sweep/figure campaigns.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser(
        "list-scenarios", help="print every registered scenario preset"
    )
    p_list.set_defaults(func=_cmd_list_scenarios)

    p_generate = sub.add_parser(
        "generate",
        help="materialize a scenario's measurement sets in the cache",
    )
    p_generate.add_argument(
        "--scenario", default="reduced", help="scenario preset name"
    )
    p_generate.add_argument(
        "--engine",
        choices=("batch", "scalar"),
        default="batch",
        help="packet-processing engine",
    )
    p_generate.add_argument(
        "--force",
        action="store_true",
        help="discard any cached entry and regenerate",
    )
    _add_fields(p_generate, HostOptions)
    p_generate.set_defaults(func=_cmd_generate)

    for kind, cls in JOB_KINDS.items():
        # Help in the style of the other subcommands: "run the ...".
        summary = cls.__doc__.splitlines()[0].rstrip(".")
        p_kind = sub.add_parser(kind, help=summary[0].lower() + summary[1:])
        for options in (cls, RunOptions, HostOptions):
            _add_fields(p_kind, options, cls.takes)
        p_kind.set_defaults(func=_cmd_campaign)

    p_serve = sub.add_parser(
        "serve",
        help="run the campaign-as-a-service daemon: persistent job "
        "queue + REST API over the shared cache",
    )
    p_serve.add_argument(
        "--port",
        type=int,
        default=8315,
        help="TCP port of the REST API (0 = pick a free port)",
    )
    p_serve.add_argument(
        "--host",
        default="127.0.0.1",
        help="bind address of the REST API",
    )
    p_serve.add_argument(
        "--slots",
        type=int,
        default=1,
        help="campaign worker slots: jobs executed concurrently "
        "(further submissions queue)",
    )
    _add_fields(p_serve, HostOptions, frozenset({"model_dir"}))
    p_serve.set_defaults(func=_cmd_serve)

    p_scenarios = sub.add_parser(
        "scenarios",
        help="scenario language: load TOML/JSON files, sample seeded "
        "scenarios, describe the declared fields",
    )
    p_scenarios.add_argument(
        "action",
        choices=("load", "sample", "describe"),
        help="load = validate+register a scenario file, sample = draw "
        "seeded valid scenarios, describe = print the field catalog",
    )
    p_scenarios.add_argument(
        "file",
        nargs="?",
        default=None,
        help="with 'load': the .toml/.json scenario file",
    )
    p_scenarios.add_argument(
        "--replace",
        action="store_true",
        help="with 'load': overwrite already-registered names",
    )
    p_scenarios.add_argument(
        "--seed",
        type=int,
        default=7,
        help="with 'sample': the draw seed (same seed, same scenarios "
        "— across processes and machines)",
    )
    p_scenarios.add_argument(
        "--count",
        type=int,
        default=10,
        help="with 'sample': number of valid scenarios to draw",
    )
    p_scenarios.add_argument(
        "--scale",
        choices=SAMPLE_SCALES,
        default="full",
        help="with 'sample': 'tiny' clamps dimensions to seconds-scale "
        "scenarios (used by the fuzz round-trip tests)",
    )
    p_scenarios.add_argument(
        "--register",
        action="store_true",
        help="with 'sample': also register the sampled scenarios",
    )
    p_scenarios.add_argument(
        "--scenario",
        default=None,
        help="with 'describe': print one registered scenario's "
        "fields + validation summary instead of the catalog",
    )
    p_scenarios.set_defaults(func=_cmd_scenarios)

    p_cache = sub.add_parser(
        "cache", help="inspect or invalidate the dataset cache"
    )
    p_cache.add_argument(
        "action",
        choices=("stats", "list", "clear"),
        help="stats = totals, list = per-entry, clear = invalidate",
    )
    p_cache.add_argument(
        "--key",
        default=None,
        help="with 'clear': remove only this cache key",
    )
    _add_fields(p_cache, HostOptions)
    p_cache.set_defaults(func=_cmd_cache)

    p_trace = sub.add_parser(
        "trace",
        help="inspect the span journal of a traced campaign run "
        "(arm one with `repro <cmd> ... --trace`)",
    )
    p_trace.add_argument(
        "action",
        choices=("summary", "timeline", "critical-path", "export"),
        help="summary = wall-time accounting + per-site totals, "
        "timeline = chronological nested listing, critical-path = "
        "dominant-child drill-down, export = write a viewer file",
    )
    p_trace.add_argument(
        "--journal",
        default=None,
        help="trace.jsonl path (default: the newest "
        "campaigns/*/trace/trace.jsonl under the cache root)",
    )
    p_trace.add_argument(
        "--chrome",
        action="store_true",
        help="with 'export': write Chrome trace-viewer JSON "
        "(chrome://tracing / ui.perfetto.dev)",
    )
    p_trace.add_argument(
        "--output",
        default=None,
        help="with 'export': output path (default: trace.chrome.json "
        "beside the journal)",
    )
    p_trace.add_argument(
        "--cache-dir",
        default=None,
        help="dataset cache root searched for journals (default: "
        "$REPRO_CACHE_DIR or ~/.cache/repro-vvd/datasets)",
    )
    p_trace.set_defaults(func=_cmd_trace)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.

    :class:`~repro.errors.ReproError` failures map to their exit code
    through the one outcome table in :mod:`repro.api.errors` — the
    same table the service maps HTTP statuses from.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    quiet = getattr(args, "quiet", False)
    if quiet:
        log.set_level("WARNING")
    try:
        return args.func(args)
    except ReproError as exc:
        log.error(f"error: {exc}")
        return api_errors.exit_code_for(
            api_errors.classify_exception(exc)
        )
    finally:
        if quiet:
            log.reset()


if __name__ == "__main__":  # pragma: no cover - python -m repro.campaign.cli
    sys.exit(main())
