"""Count and oracle pins for the offline evaluation's decode.

``EvaluationRunner.run_combination`` estimates packet by packet but
decodes each chunk's (packet, technique) rows through the batched
receiver, in calls capped at ``DECODE_SAMPLES`` received samples.  No
row is decoded on its own and no waveform is modulated just to read its
chips.  Counts repeat exactly for a seeded run, so these pins hold on
any host; the outcomes must equal the per-packet scalar decode
(``EvaluationRunner.decode_packet``), packet by packet.
"""

from __future__ import annotations

import math
from collections import Counter

import pytest

from repro.dataset import synthesize_received_batch
from repro.dataset.sets import rotating_set_combinations
from repro.estimation.base import PacketContext
from repro.experiments import runner as runner_module
from repro.experiments.runner import EvaluationRunner
from repro.experiments.suite import build_full_suite
from repro.phy.batch import get_batch_engine
from repro.phy.receiver import Receiver
from repro.phy.transmitter import Transmitter

_SCALAR = (
    (EvaluationRunner, "decode_packet"),
    (Receiver, "decode_with_estimate"),
    (Receiver, "decode_standard"),
    (Receiver, "blind_phase_shift"),
    (Transmitter, "transmit"),
)


@pytest.fixture(scope="module")
def evaluation(tiny_config, tiny_components, tiny_dataset):
    """The tiny campaign's runner, first combination and full suite."""
    runner = EvaluationRunner(tiny_components, tiny_dataset)
    combination = rotating_set_combinations(
        tiny_config.dataset.num_sets
    )[0]
    suite = build_full_suite(tiny_config)
    # Train once and build the batch synthesis engine before counting.
    runner.run_combination(combination, suite)
    return runner, combination, suite


@pytest.fixture
def calls(monkeypatch):
    """Count the scalar decoders and ``transmit``; log batch row counts."""
    counts: Counter[str] = Counter()
    batch_rows: list[int] = []

    def counting(name, original):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for owner, name in _SCALAR:
        monkeypatch.setattr(
            owner, name, counting(name, getattr(owner, name))
        )
    decode_batch = Receiver.decode_batch

    def logging_decode_batch(self, received, estimates):
        batch_rows.append(len(estimates))
        return decode_batch(self, received, estimates)

    monkeypatch.setattr(Receiver, "decode_batch", logging_decode_batch)
    return counts, batch_rows


def _received_length(runner) -> int:
    config = runner.components.config
    return get_batch_engine(
        runner.components.transmitter, config.channel.num_taps
    ).received_length


def _expected_calls(num_packets, num_techniques, chunk, per_call) -> int:
    """Decode calls of chunks of ``chunk`` packets, ``per_call`` rows each."""
    return sum(
        math.ceil(min(chunk, num_packets - lo) * num_techniques / per_call)
        for lo in range(0, num_packets, chunk)
    )


@pytest.mark.parametrize(
    "chunk, rows_per_call",
    [(None, None), (10, 7)],
    ids=["defaults", "small-chunks"],
)
def test_decode_calls_follow_chunks_and_row_cap(
    evaluation, calls, monkeypatch, chunk, rows_per_call
):
    runner, combination, suite = evaluation
    counts, batch_rows = calls
    length = _received_length(runner)
    if chunk is not None:
        monkeypatch.setattr(runner_module, "CHUNK_PACKETS", chunk)
        monkeypatch.setattr(
            runner_module, "DECODE_SAMPLES", rows_per_call * length
        )

    result = runner.run_combination(combination, suite, skip_initial=0)

    assert counts == Counter()
    chunk = runner_module.CHUNK_PACKETS
    per_call = runner_module.DECODE_SAMPLES // length
    num_packets = len(runner.sets[combination.test_index].packets)
    assert len(batch_rows) == _expected_calls(
        num_packets, len(suite), chunk, per_call
    )
    assert max(batch_rows) <= per_call
    decoded = sum(
        outcome.estimate_available
        for technique in result.techniques.values()
        for outcome in technique.outcomes
    )
    assert sum(batch_rows) == decoded


def _scalar_outcomes(runner, combination, estimators):
    """The per-packet loop with one scalar ``decode_packet`` per row."""
    components = runner.components
    config = components.config
    training = [runner.sets[i] for i in combination.training_indices()]
    validation = [runner.sets[combination.validation_index]]
    test = runner.sets[combination.test_index]
    for estimator in estimators:
        estimator.prepare(training, validation, config)
        estimator.reset(test)
    received = synthesize_received_batch(components, test.packets)
    outcomes = {estimator.name: [] for estimator in estimators}
    for index, record in enumerate(test.packets):
        packet = components.transmitter.transmit(record.sequence_number)
        ctx = PacketContext(
            measurement_set=test,
            index=index,
            record=record,
            received=received[index],
            receiver=components.receiver,
        )
        for estimator in estimators:
            outcomes[estimator.name].append(
                runner.decode_packet(
                    estimator.estimate(ctx), packet, received[index], record
                )
            )
        for estimator in estimators:
            estimator.observe(ctx)
    return outcomes


def test_outcomes_equal_the_scalar_oracle(evaluation):
    runner, combination, suite = evaluation
    batched = runner.run_combination(combination, suite, skip_initial=0)
    scalar = _scalar_outcomes(runner, combination, suite)
    assert list(batched.techniques) == list(scalar)
    # Blind (phase-aligned) and standard rows ride in the batches.
    assert {"Kalman AR(5)", "VVD-Current", "Standard Decoding"} <= set(
        scalar
    )
    for name, outcomes in scalar.items():
        assert batched.technique(name).outcomes == outcomes, name
