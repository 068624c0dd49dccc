"""Count pins for the stream slot loop: the work it does, not its time.

Each slot round synthesizes its transmitting links together and decodes
them with one batched receiver call; no link is decoded on its own and
no waveform is modulated just to read its chips.  Counts repeat exactly
for a seeded run, so these pins hold on any host where a wall-clock
floor would not.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.phy.receiver import Receiver
from repro.phy.transmitter import Transmitter
from repro.stream import (
    GeniePolicy,
    ProactiveVVDPolicy,
    ReactivePreviousPolicy,
)

_COUNTED = (
    (Receiver, "decode_with_estimate"),
    (Receiver, "decode_standard"),
    (Receiver, "decode_batch"),
    (Transmitter, "transmit"),
)


@pytest.fixture
def calls(monkeypatch):
    """Count calls of the receiver's decoders and ``transmit``."""
    counts: Counter[str] = Counter()

    def counting(name, original):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for owner, name in _COUNTED:
        monkeypatch.setattr(
            owner, name, counting(name, getattr(owner, name))
        )
    return counts


def _transmitting_rounds(result) -> int:
    """Slot rounds in which at least one link attempted a packet."""
    strips = [timeline.symbols for timeline in result.timelines]
    return sum(
        any(strip[slot] != "d" for strip in strips)
        for slot in range(result.num_slots)
    )


@pytest.mark.parametrize(
    "make_policy",
    [
        ReactivePreviousPolicy,
        lambda: ProactiveVVDPolicy(defer_threshold=0.5),
        GeniePolicy,
    ],
    ids=["reactive", "proactive", "genie"],
)
def test_one_batched_decode_per_transmitting_round(
    smoke_simulator, smoke_service, make_policy, request
):
    # Build the batch synthesis engine outside the counted pass.
    smoke_simulator.run(GeniePolicy())
    calls = request.getfixturevalue("calls")
    policy = make_policy()
    result = smoke_simulator.run(policy, service=smoke_service)

    rounds = _transmitting_rounds(result)
    assert rounds > 0
    assert result.metrics.attempts > rounds  # rounds decode several links
    assert calls["decode_batch"] == rounds
    assert calls["decode_with_estimate"] == 0
    assert calls["decode_standard"] == 0
    assert calls["transmit"] == 0


def test_warmup_rows_decode_in_the_batch(smoke_simulator, calls):
    # Reactive links start without an estimate: their standard decodes
    # must ride in the slot's batch, not fall back to the scalar path.
    result = smoke_simulator.run(ReactivePreviousPolicy())
    assert result.metrics.attempts > 0
    assert calls["decode_standard"] == 0
    assert calls["decode_batch"] == _transmitting_rounds(result)
