"""One module per paper table/figure (plus post-paper figures).

Every module exposes ``generate(...)`` returning the figure's data and a
``render(...)`` producing the ASCII form printed by the benchmarks (see
README.md, "Tests and benchmarks").  ``stream_timeline`` is a
post-paper figure: the closed-loop proactive-vs-reactive companion of
Fig. 15, rendered by ``repro stream``.
"""

from . import (
    fig5,
    fig11,
    fig12,
    fig13,
    fig14,
    fig15,
    fig16,
    fig17,
    stream_timeline,
    table1,
    table2,
)

__all__ = [
    "table1",
    "table2",
    "fig5",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "fig17",
    "stream_timeline",
]
