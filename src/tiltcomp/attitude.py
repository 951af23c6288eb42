"""Adaptive complementary filter for roll/pitch, gyro-integrated yaw, bias calibration.

The estimator blends gyro-propagated angles with accelerometer gravity angles:

    roll_i  = alpha * (roll_{i-1}  + gx * dt) + (1 - alpha) * roll_acc
    pitch_i = alpha * (pitch_{i-1} + gy * dt) + (1 - alpha) * pitch_acc

where the blending weight ``alpha`` rises from ``alpha_base`` toward 1.0 as the
measured acceleration norm departs from gravity (a dynamic-motion indicator),
saturating at 1.0 once the deviation reaches ``delta_a_threshold``. Yaw is
obtained by integrating the z gyro alone and therefore drifts; it can be reset
externally with :func:`set_yaw`.

One private scalar kernel, ``_step``, holds the recurrence: it validates a
sample and maps the previous roll, pitch, yaw and timestamp, as floats, to
the new ``(roll, pitch, yaw, alpha)``. :func:`filter_step` unpacks a
:class:`FilterState` into it and packs the result; the streaming pipeline
keeps its state as floats and calls the kernel directly, so both paths run
the same arithmetic. :func:`accel_angles` and :func:`adaptive_alpha` share the
kernel's formulas.

Units: all angles radians, accel m/s^2, gyro rad/s, time seconds. All
operations are pure functions over an explicitly passed state value; a single
filter state must be stepped from one logical thread at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from ._fields import _check_fields, _finite, _integer, _ranged, _vec3

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
_HALF_PI = math.pi / 2


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
    """One timestamped IMU reading: body-frame accel [m/s^2] and gyro [rad/s].

    ``accel`` and ``gyro`` are stored as float arrays of shape (3,); any other
    shape raises ValueError.
    """

    timestamp: float
    accel: np.ndarray
    gyro: np.ndarray

    def __post_init__(self):
        accel = np.asarray(self.accel, dtype=float)
        gyro = np.asarray(self.gyro, dtype=float)
        if accel.shape != (3,) or gyro.shape != (3,):
            raise ValueError(
                f"IMU accel and gyro readings must have shape (3,), "
                f"got {accel.shape} and {gyro.shape}"
            )
        object.__setattr__(self, "accel", accel)
        object.__setattr__(self, "gyro", gyro)


def _imu_sample(timestamp: float, accel: np.ndarray, gyro: np.ndarray) -> ImuSample:
    """An :class:`ImuSample` of a float and two (3,) float arrays the caller has
    already checked, built without ``__post_init__``'s conversions."""
    sample = object.__new__(ImuSample)
    object.__setattr__(sample, "timestamp", timestamp)
    object.__setattr__(sample, "accel", accel)
    object.__setattr__(sample, "gyro", gyro)
    return sample


@dataclass(frozen=True)
class FilterConfig:
    """Filter tuning constants; each field's range is declared with its default.

    alpha_base: steady-state gyro weight, in [0, 1].
    delta_a_threshold: accel-norm deviation [m/s^2] at which alpha saturates at 1.
    gravity: local gravity magnitude [m/s^2].
    bias_calibration_count: idle samples averaged for the gyro bias estimate.
    """

    alpha_base: float = _ranged(0.9, 0.0, 1.0)
    delta_a_threshold: float = _ranged(1.0, 0.0, math.inf, above=True)
    gravity: float = _ranged(9.80665, 0.0, math.inf, above=True)
    bias_calibration_count: int = _ranged(1000, 1, math.inf)

    def __post_init__(self):
        _check_fields(self)


@dataclass(frozen=True)
class FilterState:
    """Filter recurrence state.

    ``last_timestamp`` is None until the first sample seeds the state.
    ``last_alpha`` is diagnostic: the blend weight used on the most recent step
    (0.0 right after seeding, where the accelerometer fully determines the pose).
    ``gyro_bias`` must be a finite 3-vector; it is stored as a (3,) float array.
    """

    attitude: Attitude = Attitude()
    last_timestamp: float | None = None
    gyro_bias: np.ndarray = field(default_factory=lambda: np.zeros(3))
    last_alpha: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "gyro_bias", _vec3(self.gyro_bias, "gyro_bias"))


def _gravity_angles(ax: float, ay: float, az: float) -> tuple[float, float]:
    if ax == 0.0 and ay == 0.0 and az == 0.0:
        raise ValueError("accelerometer reading has zero norm; no usable gravity reference")
    return wrap_angle(math.atan2(ay, az)), math.atan2(-ax, math.hypot(ay, az))


def _alpha(accel_norm: float, cfg: FilterConfig) -> float:
    delta_a = abs(accel_norm - cfg.gravity)
    return min(
        1.0, cfg.alpha_base + (1.0 - cfg.alpha_base) * delta_a / cfg.delta_a_threshold
    )


def _accel_norm(accel: np.ndarray) -> float:
    """``||accel||`` for a (3,) float array, bit-identical to ``np.linalg.norm``.

    Both take the square root of the BLAS dot product, which accumulates with
    fused multiply-adds; ``math.sqrt(ax*ax + ay*ay + az*az)`` or
    ``math.hypot`` round differently.
    """
    return math.sqrt(accel.dot(accel))


def accel_angles(accel) -> tuple[float, float]:
    """Roll and pitch implied by the gravity direction in an accel reading.

    roll = atan2(ay, az); pitch = atan2(-ax, sqrt(ay^2 + az^2)). Valid when the
    reading is dominated by gravity; a level sensor reads (0, 0, +g).

    Raises ValueError if the reading has zero norm (no usable gravity reference).
    """
    ax, ay, az = (float(c) for c in np.asarray(accel, dtype=float))
    return _gravity_angles(ax, ay, az)


def adaptive_alpha(accel, cfg: FilterConfig) -> float:
    """Dynamic gyro confidence in [alpha_base, 1.0].

    alpha = min(1, alpha_base + (1 - alpha_base) * |  ||a|| - g | / threshold).
    """
    return _alpha(_accel_norm(np.asarray(accel, dtype=float)), cfg)


def _check_sample(sample: ImuSample, last_timestamp: float | None) -> tuple[float, ...]:
    """The sample's seven numbers ``(t, ax, ay, az, gx, gy, gz)``; rejects a
    non-finite sample or one stamped before ``last_timestamp``."""
    t = sample.timestamp
    ax, ay, az = sample.accel.tolist()
    gx, gy, gz = sample.gyro.tolist()
    if not _finite(t, ax, ay, az, gx, gy, gz):
        raise ValueError(f"non-finite IMU sample at t={t!r}")
    if last_timestamp is not None and t < last_timestamp:
        raise ValueError(f"non-monotone IMU timestamp: {t} < {last_timestamp}")
    return t, ax, ay, az, gx, gy, gz


def _step(
    roll: float,
    pitch: float,
    yaw: float,
    last_timestamp: float | None,
    sample: ImuSample,
    gyro_bias: tuple[float, float, float],
    cfg: FilterConfig,
) -> tuple[float, float, float, float]:
    """The filter kernel: one sample maps the previous angles to the new
    ``(roll, pitch, yaw, alpha)``, all plain floats.

    ``last_timestamp`` None seeds roll and pitch from the accelerometer and
    wraps ``yaw``, with alpha 0. Raises ValueError for a non-finite or
    out-of-order sample and for a zero-norm accel reading.
    """
    t, ax, ay, az, gx, gy, gz = _check_sample(sample, last_timestamp)
    roll_acc, pitch_acc = _gravity_angles(ax, ay, az)
    if last_timestamp is None:
        return roll_acc, pitch_acc, wrap_angle(yaw), 0.0

    dt = t - last_timestamp
    bx, by, bz = gyro_bias
    alpha = _alpha(_accel_norm(sample.accel), cfg)
    roll = alpha * (roll + (gx - bx) * dt) + (1.0 - alpha) * roll_acc
    pitch = alpha * (pitch + (gy - by) * dt) + (1.0 - alpha) * pitch_acc
    return (
        wrap_angle(roll),
        min(_HALF_PI, max(-_HALF_PI, pitch)),
        wrap_angle(yaw + (gz - bz) * dt),
        alpha,
    )


def filter_step(state: FilterState, sample: ImuSample, cfg: FilterConfig) -> FilterState:
    """Advance the filter by one IMU sample and return the new state.

    The first sample seeds roll/pitch from the accelerometer (yaw is kept,
    default 0); subsequent samples apply the complementary blend with dt taken
    from consecutive timestamps. ``state.gyro_bias`` is subtracted from the
    gyro reading. Output angles satisfy the Attitude range invariants.
    """
    att = state.attitude
    roll, pitch, yaw, alpha = _step(
        att.roll, att.pitch, att.yaw, state.last_timestamp,
        sample, state.gyro_bias.tolist(), cfg,
    )
    return FilterState(
        attitude=Attitude(roll=roll, pitch=pitch, yaw=yaw),
        last_timestamp=sample.timestamp,
        gyro_bias=state.gyro_bias,
        last_alpha=alpha,
    )


def calibrate_bias(samples: Sequence[ImuSample], min_count: int = 1000) -> np.ndarray:
    """Component-wise mean of the gyro readings over an idle segment.

    Raises ValueError unless ``min_count`` is an integer >= 1, and when fewer
    than ``min_count`` samples are supplied.
    """
    if not _integer(min_count) or min_count < 1:
        raise ValueError(f"min_count must be an integer >= 1, got {min_count!r}")
    if len(samples) < min_count:
        raise ValueError(
            f"gyro bias calibration needs at least {min_count} samples, got {len(samples)}"
        )
    gyros = np.array([s.gyro for s in samples])
    return gyros.mean(axis=0)


def _wrapped_yaw(yaw: float) -> float:
    """A heading set from outside, wrapped to (-pi, pi]; ValueError unless finite."""
    if not math.isfinite(yaw):
        raise ValueError(f"yaw must be finite, got {yaw}")
    return wrap_angle(yaw)


def set_yaw(state: FilterState, yaw: float) -> FilterState:
    """Replace the yaw estimate (wrapped to (-pi, pi]); roll/pitch untouched."""
    att = state.attitude
    return replace(
        state, attitude=Attitude(roll=att.roll, pitch=att.pitch, yaw=_wrapped_yaw(yaw))
    )
