"""Estimator interface shared by every compared technique.

The evaluation loop calls, per test packet::

    estimate = estimator.estimate(ctx)   # the estimate to decode with
    estimator.observe(ctx)               # tracking updates

and decodes the packets with their estimates afterwards, in batches: an
estimator sees no decode outcome, so ``observe`` may use only what
``ctx`` carries.

``estimate`` returns:

- ``None`` — no estimate is available and the packet is lost (the
  preamble-based technique without preamble detection, Sec. 5.5);
- :class:`ChannelEstimate` with ``taps=None`` — decode without
  equalization (standard decoding);
- :class:`ChannelEstimate` with taps — ZF-equalize with those taps.
  ``needs_phase_alignment`` marks blind estimates whose mean phase must be
  rotated onto the received block (footnote 4) before equalization.

``capabilities`` encodes the Table 1 comparison axes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..dataset.trace import MeasurementSet, PacketRecord
    from ..phy.receiver import Receiver
    from ..config import SimulationConfig


@dataclass(frozen=True)
class Capabilities:
    """Table 1 axes: is the technique reliable / scalable / dynamic?"""

    reliable: bool
    scalable: bool
    dynamic: bool


@dataclass
class ChannelEstimate:
    """A channel estimate handed to the receiver for equalization.

    ``taps`` drive the equalizer.  ``canonical_taps`` (same estimate
    rotated onto the dataset's phase reference) feed the MSE metric of
    Eq. 9; blind estimates are already canonical, same-packet estimates
    carry their stored canonical twin.  ``None`` excludes the technique
    from MSE (standard decoding has no estimate at all).
    """

    taps: Optional[np.ndarray]
    needs_phase_alignment: bool = False
    canonical_taps: Optional[np.ndarray] = None


@dataclass
class PacketContext:
    """Everything an estimator may inspect for one test packet."""

    measurement_set: "MeasurementSet"
    index: int
    record: "PacketRecord"
    received: np.ndarray
    receiver: "Receiver"


class ChannelEstimator:
    """Base class of all techniques (Sec. 5)."""

    #: Display name used in tables and figures.
    name: str = "abstract"
    #: Table 1 capability flags.
    capabilities: Capabilities = Capabilities(False, False, False)

    def prepare(
        self,
        training_sets: Sequence["MeasurementSet"],
        validation_sets: Sequence["MeasurementSet"],
        config: "SimulationConfig",
    ) -> None:
        """Fit anything that depends on training data (VVD CNN, AR fit)."""

    def reset(self, test_set: "MeasurementSet") -> None:
        """Clear per-test-set state before an evaluation pass."""

    def estimate(self, ctx: PacketContext) -> Optional[ChannelEstimate]:
        """Produce the estimate used to decode packet ``ctx.index``."""
        raise NotImplementedError

    def observe(self, ctx: PacketContext) -> None:
        """Tracking hook after every technique's ``estimate`` of the
        packet (e.g. Kalman update with the GT estimate)."""


@dataclass
class EstimatorSuite:
    """A named, ordered collection of estimators for an evaluation run."""

    estimators: list[ChannelEstimator] = field(default_factory=list)

    def add(self, estimator: ChannelEstimator) -> "EstimatorSuite":
        self.estimators.append(estimator)
        return self

    def names(self) -> list[str]:
        return [e.name for e in self.estimators]

    def __iter__(self):
        return iter(self.estimators)

    def __len__(self) -> int:
        return len(self.estimators)
