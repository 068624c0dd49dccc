"""ASCII rendering of evaluation results.

The paper presents box plots over the 15 per-combination means; the
benchmark harness prints the same five-number summaries as tables so the
figures can be compared row by row.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .metrics import BoxStats


def format_box_table(
    title: str,
    rows: Mapping[str, BoxStats],
    value_name: str = "value",
) -> str:
    """Render technique -> five-number-summary as an aligned table."""
    name_width = max([len(name) for name in rows] + [len("technique")])
    header = (
        f"{'technique':<{name_width}}  "
        f"{'min':>10} {'q1':>10} {'median':>10} {'q3':>10} "
        f"{'max':>10} {'mean':>10}"
    )
    lines = [title, "=" * len(header), header, "-" * len(header)]
    for name, stats in rows.items():
        lines.append(
            f"{name:<{name_width}}  "
            f"{stats.minimum:>10.3e} {stats.q1:>10.3e} "
            f"{stats.median:>10.3e} {stats.q3:>10.3e} "
            f"{stats.maximum:>10.3e} {stats.mean:>10.3e}"
        )
    lines.append(f"({value_name}; box over per-combination means)")
    return "\n".join(lines)


def format_series_table(
    title: str,
    x_label: str,
    x_values: Sequence,
    series: Mapping[str, Sequence[float]],
) -> str:
    """Render one row per x value with one column per series."""
    names = list(series)
    widths = [max(len(n), 10) for n in names]
    header = f"{x_label:>12}  " + "  ".join(
        f"{n:>{w}}" for n, w in zip(names, widths)
    )
    lines = [title, "=" * len(header), header, "-" * len(header)]
    for i, x in enumerate(x_values):
        cells = "  ".join(
            f"{series[n][i]:>{w}.3e}" for n, w in zip(names, widths)
        )
        lines.append(f"{str(x):>12}  {cells}")
    return "\n".join(lines)


def format_grid_table(
    title: str,
    axis_names: Sequence[str],
    rows: Sequence[tuple[Mapping[str, str], Mapping[str, float]]],
) -> str:
    """Cross-scenario summary of a grid campaign.

    ``rows`` pairs each grid cell's coordinates (axis -> formatted
    value) with its metrics (name -> float); one table row per cell,
    one left-aligned column per axis and one right-aligned column per
    metric.  Metric columns follow the first row's ordering, so the
    rendering is a pure function of the rows — the grid report step
    relies on that for byte-identical ``--jobs 1`` / ``--jobs N``
    output.
    """
    axis_names = list(axis_names)
    metric_names = list(rows[0][1]) if rows else []
    axis_widths = [
        max([len(name)] + [len(str(coords.get(name, ""))) for coords, _ in rows])
        for name in axis_names
    ]
    metric_widths = [max(len(name), 10) for name in metric_names]
    header = "  ".join(
        [
            f"{name:<{w}}"
            for name, w in zip(axis_names, axis_widths)
        ]
        + [
            f"{name:>{w}}"
            for name, w in zip(metric_names, metric_widths)
        ]
    )
    lines = [title, "=" * len(header), header, "-" * len(header)]
    for coords, metrics in rows:
        cells = [
            f"{str(coords.get(name, '')):<{w}}"
            for name, w in zip(axis_names, axis_widths)
        ] + [
            f"{metrics[name]:>{w}.3e}"
            for name, w in zip(metric_names, metric_widths)
        ]
        lines.append("  ".join(cells))
    return "\n".join(lines)


def format_timeline(
    successes: Sequence[bool],
    blocked: Sequence[bool],
    width: int = 100,
) -> str:
    """Fig. 15-style strip: decoding success/failure vs LoS blockage."""
    n = min(len(successes), width)
    decode_row = "".join("." if successes[i] else "X" for i in range(n))
    block_row = "".join("#" if blocked[i] else " " for i in range(n))
    return (
        "decode : " + decode_row + "\n"
        "blocked: " + block_row + "\n"
        "('.'=success, 'X'=packet error, '#'=LoS blocked)"
    )


def format_policy_timeline(
    rows: Mapping[str, str],
    blocked: Sequence[bool],
    width: int = 100,
    offset: int = 0,
) -> str:
    """Aligned multi-row timeline: one symbol strip per policy vs blockage.

    ``rows`` maps a policy name to its per-slot symbol string (``.``
    success, ``X`` failed attempt, ``d`` deferred slot); ``blocked``
    flags the slots where the walker shadows the LoS.  ``offset``/
    ``width`` window the strips onto the interesting span (e.g. around a
    blockage event).  Used by the streaming link-adaptation figure.
    """
    name_width = max([len(name) for name in rows] + [len("blocked")])
    lo = max(0, offset)
    hi = lo + width
    lines = [
        f"{'blocked':<{name_width}}: "
        + "".join("#" if b else " " for b in list(blocked)[lo:hi])
    ]
    for name, symbols in rows.items():
        lines.append(f"{name:<{name_width}}: " + symbols[lo:hi])
    lines.append(
        "('.'=delivered, 'X'=failed attempt, 'd'=deferred, "
        "'#'=LoS blocked)"
    )
    return "\n".join(lines)
