"""What the campaign kinds share: dataset steps, reports and summaries.

Every kind's ``report`` step renders the stored payloads of the steps it
summarizes, naming the ones a quarantining run fenced off
(:func:`report_step`); every kind's run summary ends with the same
step, self-healing and cache/model sentinel lines
(:func:`summary_lines`).  Nightly CI greps those sentinels, so they are
written here once.
"""

from __future__ import annotations

import json
from typing import Callable

from ...campaign.runner import CampaignContext, CampaignStep
from ...config import SimulationConfig
from ...dataset import build_components
from ...errors import ConfigurationError


def materialize(
    ctx: CampaignContext, config: SimulationConfig, components: bool = False
) -> str:
    """Dataset-step body: ensure ``config`` is cached.

    A complete on-disk entry is left untouched (the consuming step loads
    it once); otherwise the missing sets are generated and the loaded
    campaign is stashed under ``ctx.shared['sets:<key>']`` for the
    consumer to pop, avoiding an immediate reload.  With ``components``
    the :class:`~repro.dataset.SimulationComponents` that generated them
    go along under ``components:<key>``, so an evaluating consumer does
    not build them again.  Returns the JSON payload persisted for the
    step.
    """
    key = ctx.cache.key_for(config)
    if ctx.cache.has(config):
        return json.dumps({"key": key, "sets_generated": 0})
    generated_before = ctx.cache.stats.sets_generated
    built = build_components(config) if components else None
    ctx.shared[f"sets:{key}"] = ctx.cache.load_or_generate(
        config, workers=ctx.workers, verbose=ctx.verbose, components=built
    )
    if built is not None:
        ctx.shared[f"components:{key}"] = built
    return json.dumps(
        {
            "key": key,
            "sets_generated": ctx.cache.stats.sets_generated
            - generated_before,
        }
    )


def dataset_step(description: str) -> CampaignStep:
    """The ``dataset`` step caching the campaign's own configuration."""
    return CampaignStep(
        step_id="dataset",
        description=description,
        run=lambda ctx: materialize(ctx, ctx.config),
    )


def campaign_sets(ctx: CampaignContext) -> list:
    """The campaign's measurement sets, loaded once per run.

    Unlike the producer/consumer stash of :func:`materialize` (whose
    entry its consumer *pops*), the steps that train models share one
    in-memory copy: the first caller resolves the sets through the
    cache — or takes the ones the ``dataset`` step just generated — and
    later callers, including steps re-executed after a resume, when the
    ``dataset`` step itself was skipped, reuse it.
    """
    key = f"sets:{ctx.cache.key_for(ctx.config)}"
    sets = ctx.shared.get(key)
    if sets is None:
        sets = ctx.cache.load_or_generate(
            ctx.config, workers=ctx.workers, verbose=ctx.verbose
        )
        ctx.shared[key] = sets
    return sets


def report_step(
    step_ids: list[str],
    render: Callable[[list[dict], str | None], str],
    description: str,
    none_done: str,
    missing: str,
) -> CampaignStep:
    """The ``report`` step of a kind, over the payloads of ``step_ids``.

    Under a quarantining run the report still renders, from the steps
    that completed: ``render`` gets their parsed JSON payloads, in
    ``step_ids`` order, and the line naming the others
    (``<count> <missing> quarantined: <ids>``), or ``None`` when every
    step completed.  With no completed step the report fails with
    ``none_done``, whose ``{count}`` is the number of steps.
    """

    def _run(ctx: CampaignContext) -> str:
        available = [
            step_id
            for step_id in step_ids
            if step_id not in ctx.quarantined
            and ctx.output_path(step_id).exists()
        ]
        if not available:
            raise ConfigurationError(none_done.format(count=len(step_ids)))
        absent = [s for s in step_ids if s not in available]
        note = (
            f"{len(absent)} {missing} quarantined: " + ", ".join(absent)
            if absent
            else None
        )
        payloads = [json.loads(ctx.read_output(s)) for s in available]
        return render(payloads, note)

    return CampaignStep(
        step_id="report",
        description=description,
        run=_run,
        depends_on=tuple(step_ids),
        run_on_partial=True,
    )


def self_healing_lines(result, plan) -> list[str]:
    """The retry/quarantine sentinel line of one campaign run.

    Emitted whenever something actually self-healed — or whenever a
    fault plan is armed, so chaos CI can grep the sentinels
    unconditionally (a clean chaos run prints ``... 0 step(s)
    quarantined``).
    """
    if plan is None and not result.retried and not result.quarantined:
        return []
    line = (
        f"self-healing: {result.retried} step attempt(s) retried, "
        f"{len(result.quarantined)} step(s) quarantined"
    )
    if result.quarantined:
        line += ": " + ", ".join(result.quarantined)
    return [line]


def summary_lines(
    handle,
    result,
    plan,
    stats: list[str],
    *,
    extra: tuple[str, ...] = (),
    sets_generated: int | None = None,
    models_trained: int | None = None,
) -> list[str]:
    """A run summary: report, step counts, self-healing and sentinels.

    The stored report comes first, then the ``extra`` lines, the
    ``steps: N executed, M resumed`` footer, the self-healing line and
    the kind's ``stats`` lines.  The cache-hit sentinel follows when
    ``sets_generated`` is 0, and the checkpoint-hit sentinel when
    ``models_trained`` is 0; ``None`` claims neither.
    """
    lines = [
        handle.context.read_output("report"),
        *extra,
        f"\nsteps: {len(result.executed)} executed, "
        f"{len(result.skipped)} resumed from manifest "
        f"({handle.directory / 'manifest.json'})",
        *self_healing_lines(result, plan),
        *stats,
    ]
    if sets_generated == 0:
        lines.append("no measurement sets regenerated (100% cache hits)")
    if models_trained == 0:
        lines.append("no models retrained (100% checkpoint hits)")
    return lines
