"""The indoor environment: human position -> complex channel impulse
response.

This is the physical core of the dataset substitution: the
CIR is a deterministic function of the room geometry and the human's
position, exactly the property the paper's hypotheses (Sec. 2.2) assert —
mobility changes MPC amplitude/phase; identical displacement yields
near-identical MPCs.

The geometric path delays are stretched (``ChannelConfig.delay_stretch``)
and a static device-response FIR is appended so that the resulting 11-tap
LS footprint matches the paper's measurements (dominant taps 6-8 with
pre-cursor energy, Fig. 5a).
"""

from __future__ import annotations

import numpy as np

from ..config import ChannelConfig, PhyConfig, RoomConfig
from ..dsp.taps import fractional_delay_taps, synthesize_taps
from ..errors import ShapeError
from .blockage import path_blockage_factor, path_blockage_factor_batch
from .geometry import path_clearance_batch
from .multipath import (
    PropagationPath,
    build_static_paths,
    human_scatter_path,
)

_TORSO_HEIGHT_M = 1.1
_REFERENCE_HUMAN_XY = (0.45, 0.45)


class IndoorEnvironment:
    """Room + static objects + mobile human -> tapped-delay-line CIR."""

    def __init__(
        self,
        room: RoomConfig,
        channel: ChannelConfig,
        phy: PhyConfig,
    ) -> None:
        self.room = room
        self.channel = channel
        self.phy = phy
        self.wavelength_m = 299_792_458.0 / phy.carrier_frequency_hz
        self.static_paths: list[PropagationPath] = build_static_paths(
            room, self.wavelength_m
        )
        self._los_length = self.static_paths[0].length_m
        self._device_response = np.asarray(
            channel.device_response, dtype=np.complex128
        )
        self._scale = 1.0
        reference = self._raw_cir(np.asarray(_REFERENCE_HUMAN_XY))
        power = float(np.sum(np.abs(reference) ** 2))
        if power <= 0:
            raise ValueError("degenerate environment: zero reference power")
        self._scale = 1.0 / np.sqrt(power)

    # -- helpers -----------------------------------------------------------
    def _delay_samples(self, length_m: float) -> float:
        excess = max(length_m - self._los_length, 0.0)
        excess_s = excess / 299_792_458.0 * self.channel.delay_stretch
        return self.channel.pre_cursor + excess_s * self.phy.sample_rate_hz

    def _active_paths(
        self, human_xy: np.ndarray
    ) -> tuple[list[complex], list[float]]:
        gains: list[complex] = []
        delays: list[float] = []
        for path in self.static_paths:
            factor = path_blockage_factor(path, human_xy, self.channel)
            gains.append(path.gain * factor)
            delays.append(self._delay_samples(path.length_m))
        # The human path's carrier phase is evaluated at a configurable
        # spatial scale: with reduced-scale campaigns the training set
        # cannot sample positions at the true 12 cm carrier wavelength, so
        # the phase gradient is stretched to keep the image -> CIR mapping
        # as resolvable as it was at the paper's dataset density.
        human_path = human_scatter_path(
            self.room,
            self.channel.human_phase_wavelength_m,
            human_xy,
            _TORSO_HEIGHT_M,
            self.channel.human_scatter_gain,
        )
        gains.append(human_path.gain)
        delays.append(self._delay_samples(human_path.length_m))
        return gains, delays

    def _raw_cir(self, human_xy: np.ndarray) -> np.ndarray:
        gains, delays = self._active_paths(human_xy)
        geometric = synthesize_taps(
            np.asarray(gains), np.asarray(delays), self.channel.num_taps
        )
        combined = np.convolve(geometric, self._device_response)
        return combined[: self.channel.num_taps]

    # -- public API ---------------------------------------------------------
    def cir(self, human_xy) -> np.ndarray:
        """Complex CIR (``num_taps`` taps) for the human at ``human_xy``."""
        human_xy = np.asarray(human_xy, dtype=np.float64)
        return self._scale * self._raw_cir(human_xy)

    def _static_batch_state(self) -> tuple[np.ndarray, np.ndarray]:
        """Static-path gains and windowed-sinc kernels, built once.

        Static paths have position-independent delays, so their
        fractional-delay kernels never change; only the blockage factor
        of each path depends on the human position.
        """
        state = getattr(self, "_static_state", None)
        if state is None:
            num_taps = self.channel.num_taps
            gains = np.array(
                [path.gain for path in self.static_paths],
                dtype=np.complex128,
            )
            kernels = np.stack(
                [
                    fractional_delay_taps(
                        self._delay_samples(path.length_m), num_taps
                    )
                    for path in self.static_paths
                ]
            )
            # Device-response convolution as a small matrix: column l of
            # ``device_matrix`` holds the device tap contributing to
            # output tap l from geometric tap j.
            device = self._device_response
            device_matrix = np.zeros(
                (num_taps, num_taps), dtype=np.complex128
            )
            for j in range(num_taps):
                stop = min(num_taps, j + len(device))
                device_matrix[j, j:stop] = device[: stop - j]
            state = (gains, kernels, device_matrix)
            self._static_state = state
        return state

    def _human_scatter_batch(self, humans_xy: np.ndarray) -> np.ndarray:
        """Additive scatter-path taps of one human per batch row.

        ``humans_xy`` is ``(P, 2)`` float64; returns the ``(P, num_taps)``
        complex128 geometric-tap contribution of the (never self-blocked)
        mobile scatter path, windowed-sinc interpolated onto the tap grid
        exactly as in the scalar :meth:`cir` path.
        """
        num_taps = self.channel.num_taps
        tx = np.asarray(self.room.tx_position, dtype=np.float64)
        rx = np.asarray(self.room.rx_position, dtype=np.float64)
        scatter = np.concatenate(
            [
                humans_xy,
                np.full((len(humans_xy), 1), _TORSO_HEIGHT_M),
            ],
            axis=1,
        )
        d1 = np.linalg.norm(scatter - tx[None, :], axis=1)
        d2 = np.linalg.norm(rx[None, :] - scatter, axis=1)
        total = d1 + d2
        spreading = 1.0 / np.maximum(total, 0.1)
        phase = np.exp(
            -2j
            * np.pi
            * total
            / self.channel.human_phase_wavelength_m
        )
        human_gains = self.channel.human_scatter_gain * spreading * phase
        excess = np.maximum(total - self._los_length, 0.0)
        human_delays = (
            self.channel.pre_cursor
            + excess
            / 299_792_458.0
            * self.channel.delay_stretch
            * self.phy.sample_rate_hz
        )
        indices = np.arange(num_taps, dtype=np.float64)
        offsets = indices[None, :] - human_delays[:, None]
        sinc = np.sinc(offsets)
        clipped = np.clip(offsets / 5.0, -1.0, 1.0)
        window = 0.5 * (1.0 + np.cos(np.pi * clipped))
        return human_gains[:, None] * (sinc * window)

    def cir_batch(self, humans_xy) -> np.ndarray:
        """Complex CIRs for a batch of human positions.

        Parameters
        ----------
        humans_xy:
            ``(P, 2)`` float64 xy positions, one human per batch row.

        Returns
        -------
        numpy.ndarray
            ``(P, num_taps)`` complex128 matrix whose row ``p`` matches
            ``cir(humans_xy[p])`` to numerical precision (the batch
            equivalence suite bounds the difference at ``1e-10``):
            per-path blockage factors and the human scatter path are
            evaluated vectorized, static-path kernels are reused across
            the batch.
        """
        humans_xy = np.asarray(humans_xy, dtype=np.float64)
        if humans_xy.ndim != 2 or humans_xy.shape[1] != 2:
            raise ShapeError(
                f"humans_xy must be (P, 2), got {humans_xy.shape}"
            )
        return self.cir_multi_batch(humans_xy[:, None, :])

    def cir_multi_batch(self, humans_xy) -> np.ndarray:
        """CIRs for batches of *multiple* simultaneous humans.

        First-order multi-body model used by the campaign scenarios:
        every static path is attenuated by the product of the per-human
        knife-edge blockage factors (each body can shadow the path
        independently) and one scatter path is added per human.

        Parameters
        ----------
        humans_xy:
            ``(P, H, 2)`` float64 positions — ``H`` humans per row.

        Returns
        -------
        numpy.ndarray
            ``(P, num_taps)`` complex128 tap matrix.  With ``H == 1``
            this reduces exactly to :meth:`cir_batch`.
        """
        humans_xy = np.asarray(humans_xy, dtype=np.float64)
        if humans_xy.ndim != 3 or humans_xy.shape[2] != 2:
            raise ShapeError(
                f"humans_xy must be (P, H, 2), got {humans_xy.shape}"
            )
        num_humans = humans_xy.shape[1]
        gains, kernels, device_matrix = self._static_batch_state()
        factors = np.ones(
            (humans_xy.shape[0], len(self.static_paths)), dtype=np.float64
        )
        for h in range(num_humans):
            factors *= np.stack(
                [
                    path_blockage_factor_batch(
                        path, humans_xy[:, h, :], self.channel
                    )
                    for path in self.static_paths
                ],
                axis=1,
            )
        geometric = (factors * gains[None, :]).astype(
            np.complex128
        ) @ kernels.astype(np.complex128)
        for h in range(num_humans):
            geometric += self._human_scatter_batch(humans_xy[:, h, :])
        return self._scale * (geometric @ device_matrix)

    def los_clearance_batch(self, humans_xy) -> np.ndarray:
        """Horizontal clearance between each human and the LoS path.

        ``(P, 2)`` positions in, ``(P,)`` clearances in metres out; a
        clearance within the body radius blocks the LoS
        (:meth:`los_blocked_from_clearance`, the Fig. 1b scenario).
        """
        return path_clearance_batch(
            np.asarray(self.static_paths[0].points, dtype=np.float64),
            np.asarray(humans_xy, dtype=np.float64),
            self.channel.human_height_m,
        )

    def los_clearance_multi_batch(self, humans_xy) -> np.ndarray:
        """Smallest per-row LoS clearance over ``(P, H, 2)`` positions.

        The LoS is blocked when *any* human intrudes, so the campaign
        blockage annotation uses the minimum clearance across humans.
        """
        humans_xy = np.asarray(humans_xy, dtype=np.float64)
        if humans_xy.ndim != 3 or humans_xy.shape[2] != 2:
            raise ShapeError(
                f"humans_xy must be (P, H, 2), got {humans_xy.shape}"
            )
        clearances = np.stack(
            [
                self.los_clearance_batch(humans_xy[:, h, :])
                for h in range(humans_xy.shape[1])
            ],
            axis=1,
        )
        return clearances.min(axis=1)

    def los_blocked_from_clearance(self, clearance_m: float) -> bool:
        """The blockage criterion applied to a precomputed clearance."""
        return bool(clearance_m <= self.channel.human_radius_m)

    def received_power(self, human_xy) -> float:
        """Total CIR energy — proxies received signal power."""
        taps = self.cir(human_xy)
        return float(np.sum(np.abs(taps) ** 2))
