"""Ground-truth scenario generator: a pole pivoting about a fixed ground point.

The point of interest (pole tip) stays fixed while roll and pitch follow
sinusoid profiles; the prism and IMU ride the rigid body above it. The
generator synthesizes the three streams a real rig would produce:

* IMU specific force = body-frame gravity plus the kinematic acceleration of
  the IMU point implied by the pivoting motion, plus white noise;
* gyro = body rates derived from the Euler-angle profile through the
  Euler-kinematics matrix, plus a constant per-run bias and white noise;
* total-station observations = exact polar coordinates of the prism from the
  station, perturbed by range and angle noise.

Every run starts with an idle segment (zero rates, level pose) long enough
for downstream gyro-bias calibration. All randomness flows from the seed, so
identical configs produce bit-identical streams.

One function, ``_motion``, gives the Euler angles and their rates at any
times; one, ``_points``, places a body point (IMU or prism) from the fixed
POI and its body lever. Kinematic accelerations difference the analytic IMU
position with step 1e-4 s through one second-difference stencil, central or
forward by sample: forward just after the idle/motion boundary, central
elsewhere, and exact zeros during idle (the rate profile has a kink at motion
start that a crossing stencil would smear into a spurious spike).

Every stream number has one source, ``_scenario``, which returns each stream
as arrays and checks the observations' rules over whole columns. It has two
consumers: ``simulate`` formats the arrays straight into its files, and
:func:`generate_scenario` fills the IMU and observation objects from them
directly, each holding the same floats and array rows its dataclass
constructor would. Ground truth is one table in both: an ``(n, 10)`` float64
array whose columns follow :data:`~tiltcomp.codec.TRUTH_CSV_HEADER`, angles
in radians.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from ._fields import _check_fields, _ranged, _vector
from .attitude import ImuSample, _imu_sample
from .geodesy import RtsObservation, _check_observations, _observations
from .kinematics import LeverArms, _zyx_rows, prism_to_poi_body

__all__ = [
    "NoiseSpec",
    "ScenarioConfig",
    "generate_scenario",
]

_DIFF_STEP = 1e-4


@dataclass(frozen=True)
class NoiseSpec:
    """Sensor error magnitudes, each >= 0; all zero disables the RNG's influence entirely.

    gyro_noise_density_deg: gyro white noise density, deg/(s*sqrt(Hz)); the
        per-sample sigma is density * sqrt(imu_rate).
    gyro_bias_deg_per_h: magnitude of a constant per-run gyro bias, deg/h;
        its direction is drawn from the seed.
    accel_sigma: accelerometer white noise per sample, m/s^2.
    rts_range_sigma_m / rts_angle_sigma_rad: total-station distance and angle
        noise per observation.
    """

    gyro_noise_density_deg: float = _ranged(0.0005, 0.0, math.inf)
    gyro_bias_deg_per_h: float = _ranged(0.3, 0.0, math.inf)
    accel_sigma: float = _ranged(0.01, 0.0, math.inf)
    rts_range_sigma_m: float = _ranged(0.001, 0.0, math.inf)
    rts_angle_sigma_rad: float = _ranged(5e-6, 0.0, math.inf)

    def __post_init__(self):
        _check_fields(self)

    @classmethod
    def zero(cls) -> "NoiseSpec":
        return cls(**{f.name: 0.0 for f in fields(cls)})


@dataclass(frozen=True)
class ScenarioConfig:
    """Scenario description; each numeric field's range is declared with its default.

    Tilt profiles: each of roll and pitch follows
    amplitude * (sin(2*pi*f*tau + phase) - sin(phase)) for tau = t - idle
    seconds after motion starts (the offset keeps the angle continuous at the
    boundary), and is exactly zero during the idle segment; pitch must peak
    below 90 degrees. Yaw ramps at yaw_rate_deg_s from yaw_deg once motion
    starts. idle_duration_s, shorter than duration_s, must cover the
    consumer's bias calibration (1000 samples at 100 Hz needs 10 s).
    """

    duration_s: float = _ranged(60.0, 0.0, math.inf, above=True)
    imu_rate_hz: float = _ranged(100.0, 0.0, math.inf, above=True)
    rts_rate_hz: float = _ranged(5.0, 0.0, math.inf, above=True)
    idle_duration_s: float = _ranged(10.0, 0.0, math.inf)
    poi_nav: np.ndarray = _vector(5.0, 0.0, 0.0)
    rts_station: np.ndarray = _vector(0.0, 0.0, 0.0)
    lever_arms: LeverArms = field(default_factory=LeverArms)
    roll_amplitude_deg: float = _ranged(60.0, 0.0, 60.0)
    roll_frequency_hz: float = _ranged(0.010, 0.0, math.inf)
    roll_phase_rad: float = _ranged(0.0, -math.inf, math.inf)
    pitch_amplitude_deg: float = _ranged(60.0, 0.0, 60.0)
    pitch_frequency_hz: float = _ranged(0.008, 0.0, math.inf)
    pitch_phase_rad: float = _ranged(0.0, -math.inf, math.inf)
    yaw_deg: float = _ranged(0.0, -math.inf, math.inf)
    yaw_rate_deg_s: float = _ranged(0.0, -math.inf, math.inf)
    gravity: float = _ranged(9.80665, 0.0, math.inf, above=True)
    noise: NoiseSpec = field(default_factory=NoiseSpec)
    seed: int = _ranged(0, 0, math.inf)

    def __post_init__(self):
        _check_fields(self)
        if self.duration_s <= self.idle_duration_s:
            raise ValueError(
                f"duration_s ({self.duration_s}) must exceed idle_duration_s "
                f"({self.idle_duration_s})"
            )
        # The phase offset shift can push the excursion past the amplitude.
        pitch_peak = self.pitch_amplitude_deg * (1.0 + abs(math.sin(self.pitch_phase_rad)))
        if pitch_peak >= 90.0:
            raise ValueError(
                f"pitch profile peaks at {pitch_peak:.1f} degrees; must stay below 90"
            )


def _wrap_array(angles: np.ndarray) -> np.ndarray:
    wrapped = np.mod(angles + np.pi, 2.0 * np.pi) - np.pi
    return np.where(wrapped <= -np.pi, np.pi, wrapped)


def _motion(cfg: ScenarioConfig, t: np.ndarray):
    """True (roll, pitch, yaw) [rad] and their rates [rad/s] at each time;
    level and still during idle."""
    tau = np.asarray(t, dtype=float) - cfg.idle_duration_s
    active = tau >= 0.0
    tau_m = np.where(active, tau, 0.0)

    def sinusoid(amp_deg, freq, phase):
        amp = math.radians(amp_deg)
        w = 2.0 * math.pi * freq
        arg = w * tau_m + phase
        return (
            np.where(active, amp * (np.sin(arg) - math.sin(phase)), 0.0),
            np.where(active, amp * w * np.cos(arg), 0.0),
        )

    roll, roll_rate = sinusoid(cfg.roll_amplitude_deg, cfg.roll_frequency_hz, cfg.roll_phase_rad)
    pitch, pitch_rate = sinusoid(
        cfg.pitch_amplitude_deg, cfg.pitch_frequency_hz, cfg.pitch_phase_rad
    )
    yaw_rate = np.where(active, math.radians(cfg.yaw_rate_deg_s), 0.0)
    yaw = _wrap_array(math.radians(cfg.yaw_deg) + yaw_rate * tau_m)
    return (roll, pitch, yaw), (roll_rate, pitch_rate, yaw_rate)


def _rotations(roll, pitch, yaw) -> np.ndarray:
    """C-contiguous stack of body-to-navigation matrices, shape (n, 3, 3)."""
    rows = _zyx_rows(
        np.cos(roll), np.sin(roll), np.cos(pitch), np.sin(pitch), np.cos(yaw), np.sin(yaw)
    )
    return np.stack([np.stack(row, axis=-1) for row in rows], axis=-2)


def _points(cfg: ScenarioConfig, t: np.ndarray, lever_b: np.ndarray) -> np.ndarray:
    """Navigation-frame positions, shape (n, 3), of the body point whose lever
    to the fixed POI is ``lever_b``: poi_nav - R(t) @ lever_b."""
    angles, _ = _motion(cfg, t)
    return cfg.poi_nav - np.einsum("nij,j->ni", _rotations(*angles), lever_b)


def _kinematic_accels(cfg: ScenarioConfig, t: np.ndarray) -> np.ndarray:
    """Second derivative of the IMU position at each time, shape (n, 3)."""
    t = np.asarray(t, dtype=float)
    h = _DIFF_STEP
    moving = t >= cfg.idle_duration_s
    tm = t[moving]
    central = tm >= cfg.idle_duration_s + h
    lo = np.where(central, tm - h, tm)
    mid = np.where(central, tm, tm + h)
    hi = np.where(central, tm + h, tm + 2.0 * h)
    lever = cfg.lever_arms.imu_to_poi_b
    accel = np.zeros(t.shape + (3,))
    accel[moving] = (
        _points(cfg, lo, lever) - 2.0 * _points(cfg, mid, lever) + _points(cfg, hi, lever)
    ) / (h * h)
    return accel


def _scenario(cfg: ScenarioConfig):
    """The scenario as arrays, one per stream with its columns in wire order:
    IMU ``(t, accel, gyro)``; observations ``(t, distance, azimuth,
    zenith)``; ``t`` is ``(n,)`` and accel and gyro ``(n, 3)``. Truth is
    :func:`generate_scenario`'s table. Grids, draw order and errors are
    :func:`generate_scenario`'s.
    """
    rng = np.random.default_rng(cfg.seed)
    noise = cfg.noise

    n_imu = int(math.floor(cfg.duration_s * cfg.imu_rate_hz))
    n_rts = int(math.floor(cfg.duration_s * cfg.rts_rate_hz))
    t_imu = np.arange(n_imu) / cfg.imu_rate_hz
    t_rts = np.arange(n_rts) / cfg.rts_rate_hz

    bias_direction = rng.standard_normal(3)
    bias_direction /= np.linalg.norm(bias_direction)
    bias = math.radians(noise.gyro_bias_deg_per_h) / 3600.0 * bias_direction

    gyro_sigma = math.radians(noise.gyro_noise_density_deg) * math.sqrt(cfg.imu_rate_hz)
    gyro_noise = gyro_sigma * rng.standard_normal((n_imu, 3))
    accel_noise = noise.accel_sigma * rng.standard_normal((n_imu, 3))
    range_noise = noise.rts_range_sigma_m * rng.standard_normal(n_rts)
    hz_noise = noise.rts_angle_sigma_rad * rng.standard_normal(n_rts)
    v_noise = noise.rts_angle_sigma_rad * rng.standard_normal(n_rts)

    (roll, pitch, yaw), (roll_rate, pitch_rate, yaw_rate) = _motion(cfg, t_imu)
    rot = _rotations(roll, pitch, yaw)

    sr, cr = np.sin(roll), np.cos(roll)
    sp, cp = np.sin(pitch), np.cos(pitch)
    body_p = roll_rate - yaw_rate * sp
    body_q = pitch_rate * cr + yaw_rate * cp * sr
    body_r = -pitch_rate * sr + yaw_rate * cp * cr
    gyro = np.column_stack([body_p, body_q, body_r]) + bias + gyro_noise

    accel_nav = _kinematic_accels(cfg, t_imu)
    accel_nav[:, 2] += cfg.gravity
    specific_force = np.einsum("nji,nj->ni", rot, accel_nav) + accel_noise

    lever = prism_to_poi_body(cfg.lever_arms)
    prism = _points(cfg, t_imu, lever)

    diff = _points(cfg, t_rts, lever) - cfg.rts_station
    horiz = np.hypot(diff[:, 0], diff[:, 1])
    slant = np.linalg.norm(diff, axis=1)
    if np.any(horiz < 1e-9):
        bad = float(t_rts[np.argmax(horiz < 1e-9)])
        raise ValueError(
            f"infeasible geometry at t={bad}: prism on the station's vertical axis, "
            "zenith angle undefined"
        )
    zenith = np.arctan2(horiz, diff[:, 2]) + v_noise
    azimuth = np.arctan2(diff[:, 1], diff[:, 0]) + hz_noise
    distance = slant + range_noise
    _check_observations(t_rts, distance, azimuth, zenith)

    poi = np.broadcast_to(cfg.poi_nav, prism.shape)
    return (
        (t_imu, specific_force, gyro),
        (t_rts, distance, azimuth, zenith),
        np.column_stack((t_imu, roll, pitch, yaw, prism, poi)),
    )


def generate_scenario(
    cfg: ScenarioConfig,
) -> tuple[list[ImuSample], list[RtsObservation], np.ndarray]:
    """Synthesize the IMU stream, the observation stream, and ground truth.

    Stream grids are i / rate starting at zero; counts are
    floor(duration * rate). RNG draw order is fixed: bias direction, gyro
    noise, accel noise, then range / horizontal-angle / zenith-angle noise.
    Each sample's accel and gyro are rows of its stream's one ``(n, 3)``
    array.

    Ground truth is one ``(n, 10)`` float64 table on the IMU grid (which
    contains every observation timestamp when the IMU rate is an integer
    multiple of the observation rate), its columns those of
    :data:`~tiltcomp.codec.TRUTH_CSV_HEADER`: ``t`` (the IMU timestamps),
    roll, pitch and yaw in radians, the prism position, and the POI, every
    row of which equals ``cfg.poi_nav``.

    Raises ValueError when the prism crosses the station's vertical axis,
    where the polar angles degenerate, or as :class:`RtsObservation` does for
    the first observation that breaks one of its rules (noise can push a
    distance below zero or a zenith angle past 0 or pi).
    """
    (t_imu, accel, gyro), rts, truth = _scenario(cfg)
    imu_stream = list(map(_imu_sample, t_imu.tolist(), accel, gyro))
    return imu_stream, _observations(*rts), truth
