"""Percentile rule, self-time subtraction and failure accounting."""

from __future__ import annotations

import pytest

from perfbench.stats import (
    Span,
    Tally,
    covered,
    percentile,
    samples_beyond,
    self_times,
    tail_percentile,
)


def test_percentile_interpolates_linearly():
    assert percentile([4.0, 1.0, 3.0, 2.0], 50) == 2.5
    assert percentile([1.0, 2.0, 3.0], 0) == 1.0
    assert percentile([1.0, 2.0, 3.0], 100) == 3.0
    with pytest.raises(ValueError):
        percentile([], 50)


@pytest.mark.parametrize(
    "count, q, beyond",
    [(99, 90, 9), (100, 90, 10), (199, 95, 9), (200, 95, 10), (12, 50, 6)],
)
def test_samples_beyond(count, q, beyond):
    assert samples_beyond(count, q) == beyond


def test_tail_needs_ten_samples_beyond():
    assert tail_percentile([float(i) for i in range(99)], 90) is None
    values = [float(i) for i in range(100)]
    assert tail_percentile(values, 90) == pytest.approx(percentile(values, 90))


def test_covered_is_an_interval_union_clipped_to_the_window():
    assert covered([(0, 2), (1, 3), (5, 6)], 0, 10) == 4
    assert covered([(0, 2), (1, 3)], 1.5, 2.5) == 1
    assert covered([], 0, 1) == 0


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span("outer", 0.0, 10.0, "1:1", None, 1),
        # Overlapping children, one from a forked worker (other pid).
        Span("a", 1.0, 4.0, "1:2", "1:1", 1),
        Span("b", 3.0, 6.0, "2:3", "1:1", 2),
        Span("leaf", 1.5, 2.0, "1:4", "1:2", 1),
    ]
    self_time = self_times(spans)
    assert self_time["1:1"] == pytest.approx(10.0 - 5.0)
    assert self_time["1:2"] == pytest.approx(3.0 - 0.5)
    assert self_time["2:3"] == pytest.approx(3.0)
    assert self_time["1:4"] == pytest.approx(0.5)


def test_tally_counts_an_op_with_any_problem_as_failed():
    tally = Tally()
    tally.add([])
    tally.add(["payload differs", "sentinel missing"])
    tally.add([])
    assert (tally.attempted, tally.failed) == (3, 1)
    assert tally.problems == ["payload differs", "sentinel missing"]
