"""Adaptive complementary filter for roll/pitch, gyro-integrated yaw, bias calibration.

The estimator blends gyro-propagated angles with accelerometer gravity angles:

    roll_i  = alpha * (roll_{i-1}  + gx * dt) + (1 - alpha) * roll_acc
    pitch_i = alpha * (pitch_{i-1} + gy * dt) + (1 - alpha) * pitch_acc

where the blending weight ``alpha`` rises from ``alpha_base`` toward 1.0 as the
measured acceleration norm departs from gravity (a dynamic-motion indicator),
saturating at 1.0 once the deviation reaches ``delta_a_threshold``. Yaw is
obtained by integrating the z gyro alone and therefore drifts; it can be reset
externally with :func:`set_yaw`.

Units: all angles radians, accel m/s^2, gyro rad/s, time seconds. All
operations are pure functions over an explicitly passed state value; a single
filter state must be stepped from one logical thread at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

__all__ = [
    "Attitude",
    "ImuSample",
    "FilterConfig",
    "FilterState",
    "wrap_angle",
    "accel_angles",
    "adaptive_alpha",
    "filter_step",
    "calibrate_bias",
    "set_yaw",
]

_TWO_PI = 2.0 * math.pi


def wrap_angle(angle: float) -> float:
    """Wrap an angle to the half-open interval (-pi, pi]."""
    wrapped = (angle + math.pi) % _TWO_PI - math.pi
    if wrapped <= -math.pi:
        wrapped = math.pi
    return wrapped


@dataclass(frozen=True)
class Attitude:
    """Z-Y-X Euler angles in radians: roll in (-pi, pi], pitch in [-pi/2, pi/2], yaw in (-pi, pi]."""

    roll: float = 0.0
    pitch: float = 0.0
    yaw: float = 0.0


@dataclass(frozen=True)
class ImuSample:
    """One timestamped IMU reading: body-frame accel [m/s^2] and gyro [rad/s]."""

    timestamp: float
    accel: np.ndarray
    gyro: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "accel", np.asarray(self.accel, dtype=float))
        object.__setattr__(self, "gyro", np.asarray(self.gyro, dtype=float))


@dataclass(frozen=True)
class FilterConfig:
    """Filter tuning constants.

    alpha_base: steady-state gyro weight, in [0, 1].
    delta_a_threshold: accel-norm deviation [m/s^2] at which alpha saturates at 1.
    gravity: local gravity magnitude [m/s^2].
    bias_calibration_count: idle samples averaged for the gyro bias estimate.
    """

    alpha_base: float = 0.9
    delta_a_threshold: float = 1.0
    gravity: float = 9.80665
    bias_calibration_count: int = 1000

    def __post_init__(self):
        if not 0.0 <= self.alpha_base <= 1.0:
            raise ValueError(f"alpha_base must be in [0, 1], got {self.alpha_base}")
        if self.delta_a_threshold <= 0.0:
            raise ValueError(
                f"delta_a_threshold must be positive, got {self.delta_a_threshold}"
            )
        if self.gravity <= 0.0:
            raise ValueError(f"gravity must be positive, got {self.gravity}")
        if self.bias_calibration_count < 1:
            raise ValueError(
                f"bias_calibration_count must be >= 1, got {self.bias_calibration_count}"
            )


@dataclass(frozen=True)
class FilterState:
    """Filter recurrence state.

    ``last_timestamp`` is None until the first sample seeds the state.
    ``last_alpha`` is diagnostic: the blend weight used on the most recent step
    (0.0 right after seeding, where the accelerometer fully determines the pose).
    """

    attitude: Attitude = Attitude()
    last_timestamp: float | None = None
    gyro_bias: np.ndarray = field(default_factory=lambda: np.zeros(3))
    last_alpha: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "gyro_bias", np.asarray(self.gyro_bias, dtype=float))


def accel_angles(accel) -> tuple[float, float]:
    """Roll and pitch implied by the gravity direction in an accel reading.

    roll = atan2(ay, az); pitch = atan2(-ax, sqrt(ay^2 + az^2)). Valid when the
    reading is dominated by gravity; a level sensor reads (0, 0, +g).

    Raises ValueError if the reading has zero norm (no usable gravity reference).
    """
    ax, ay, az = (float(c) for c in np.asarray(accel, dtype=float))
    if ax == 0.0 and ay == 0.0 and az == 0.0:
        raise ValueError("accelerometer reading has zero norm; no usable gravity reference")
    roll = wrap_angle(math.atan2(ay, az))
    pitch = math.atan2(-ax, math.hypot(ay, az))
    return roll, pitch


def adaptive_alpha(accel, cfg: FilterConfig) -> float:
    """Dynamic gyro confidence in [alpha_base, 1.0].

    alpha = min(1, alpha_base + (1 - alpha_base) * |  ||a|| - g | / threshold).
    """
    norm = float(np.linalg.norm(np.asarray(accel, dtype=float)))
    delta_a = abs(norm - cfg.gravity)
    return min(
        1.0, cfg.alpha_base + (1.0 - cfg.alpha_base) * delta_a / cfg.delta_a_threshold
    )


def _check_sample(sample: ImuSample, last_timestamp: float | None) -> None:
    """Reject a non-finite sample or one stamped before ``last_timestamp``."""
    ax, ay, az = sample.accel.tolist()
    gx, gy, gz = sample.gyro.tolist()
    if not all(map(math.isfinite, (sample.timestamp, ax, ay, az, gx, gy, gz))):
        raise ValueError(f"non-finite IMU sample at t={sample.timestamp!r}")
    if last_timestamp is not None and sample.timestamp < last_timestamp:
        raise ValueError(f"non-monotone IMU timestamp: {sample.timestamp} < {last_timestamp}")


def filter_step(state: FilterState, sample: ImuSample, cfg: FilterConfig) -> FilterState:
    """Advance the filter by one IMU sample and return the new state.

    The first sample seeds roll/pitch from the accelerometer (yaw is kept,
    default 0); subsequent samples apply the complementary blend with dt taken
    from consecutive timestamps. ``state.gyro_bias`` is subtracted from the
    gyro reading. Output angles satisfy the Attitude range invariants.
    """
    _check_sample(sample, state.last_timestamp)

    if state.last_timestamp is None:
        roll, pitch = accel_angles(sample.accel)
        seeded = Attitude(roll=roll, pitch=pitch, yaw=wrap_angle(state.attitude.yaw))
        return replace(
            state, attitude=seeded, last_timestamp=sample.timestamp, last_alpha=0.0
        )

    dt = sample.timestamp - state.last_timestamp
    gx, gy, gz = (float(g) for g in (sample.gyro - state.gyro_bias))
    roll_acc, pitch_acc = accel_angles(sample.accel)
    alpha = adaptive_alpha(sample.accel, cfg)

    att = state.attitude
    roll = alpha * (att.roll + gx * dt) + (1.0 - alpha) * roll_acc
    pitch = alpha * (att.pitch + gy * dt) + (1.0 - alpha) * pitch_acc
    yaw = att.yaw + gz * dt

    new_att = Attitude(
        roll=wrap_angle(roll),
        pitch=min(math.pi / 2, max(-math.pi / 2, pitch)),
        yaw=wrap_angle(yaw),
    )
    return replace(
        state, attitude=new_att, last_timestamp=sample.timestamp, last_alpha=alpha
    )


def calibrate_bias(samples: Sequence[ImuSample], min_count: int = 1000) -> np.ndarray:
    """Component-wise mean of the gyro readings over an idle segment.

    Raises ValueError when fewer than ``min_count`` samples are supplied.
    """
    if len(samples) < min_count:
        raise ValueError(
            f"gyro bias calibration needs at least {min_count} samples, got {len(samples)}"
        )
    gyros = np.array([s.gyro for s in samples])
    return gyros.mean(axis=0)


def set_yaw(state: FilterState, yaw: float) -> FilterState:
    """Replace the yaw estimate (wrapped to (-pi, pi]); roll/pitch untouched."""
    if not math.isfinite(yaw):
        raise ValueError(f"yaw must be finite, got {yaw}")
    att = state.attitude
    return replace(
        state, attitude=Attitude(roll=att.roll, pitch=att.pitch, yaw=wrap_angle(yaw))
    )
