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

Kinematic accelerations are obtained by differencing the analytic IMU
position with step 1e-4 s: central stencils away from the idle/motion
boundary, a forward stencil just after it, and exact zeros during idle (the
rate profile has a kink at motion start that a crossing stencil would smear
into a spurious spike).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .attitude import Attitude, ImuSample
from .geodesy import RtsObservation
from .kinematics import LeverArms, _vec3, _zyx_rows, prism_to_poi_body

__all__ = [
    "NoiseSpec",
    "ScenarioConfig",
    "GroundTruthSample",
    "truth_attitude",
    "generate_scenario",
]

_DIFF_STEP = 1e-4


@dataclass(frozen=True)
class NoiseSpec:
    """Sensor error magnitudes; all zero disables the RNG's influence entirely.

    gyro_noise_density_deg: gyro white noise density, deg/(s*sqrt(Hz)); the
        per-sample sigma is density * sqrt(imu_rate).
    gyro_bias_deg_per_h: magnitude of a constant per-run gyro bias, deg/h;
        its direction is drawn from the seed.
    accel_sigma: accelerometer white noise per sample, m/s^2.
    rts_range_sigma_m / rts_angle_sigma_rad: total-station distance and angle
        noise per observation.
    """

    gyro_noise_density_deg: float = 0.0005
    gyro_bias_deg_per_h: float = 0.3
    accel_sigma: float = 0.01
    rts_range_sigma_m: float = 0.001
    rts_angle_sigma_rad: float = 5e-6

    def __post_init__(self):
        for name in (
            "gyro_noise_density_deg",
            "gyro_bias_deg_per_h",
            "accel_sigma",
            "rts_range_sigma_m",
            "rts_angle_sigma_rad",
        ):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise ValueError(f"{name} must be finite and >= 0, got {value}")

    @classmethod
    def zero(cls) -> "NoiseSpec":
        return cls(0.0, 0.0, 0.0, 0.0, 0.0)


@dataclass(frozen=True)
class ScenarioConfig:
    """Scenario description.

    Tilt profiles: each of roll and pitch follows
    amplitude * (sin(2*pi*f*tau + phase) - sin(phase)) for tau = t - idle
    seconds after motion starts (the offset keeps the angle continuous at the
    boundary), and is exactly zero during the idle segment. Yaw ramps at
    yaw_rate_deg_s from yaw_deg once motion starts. idle_duration_s must
    cover the consumer's bias calibration (1000 samples at 100 Hz needs 10 s).
    """

    duration_s: float = 60.0
    imu_rate_hz: float = 100.0
    rts_rate_hz: float = 5.0
    idle_duration_s: float = 10.0
    poi_nav: np.ndarray = field(default_factory=lambda: np.array([5.0, 0.0, 0.0]))
    rts_station: np.ndarray = field(default_factory=lambda: np.zeros(3))
    lever_arms: LeverArms = field(default_factory=LeverArms)
    roll_amplitude_deg: float = 60.0
    roll_frequency_hz: float = 0.010
    roll_phase_rad: float = 0.0
    pitch_amplitude_deg: float = 60.0
    pitch_frequency_hz: float = 0.008
    pitch_phase_rad: float = 0.0
    yaw_deg: float = 0.0
    yaw_rate_deg_s: float = 0.0
    gravity: float = 9.80665
    noise: NoiseSpec = field(default_factory=NoiseSpec)
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.duration_s) and self.duration_s > 0.0):
            raise ValueError(f"duration_s must be positive, got {self.duration_s}")
        for name in ("imu_rate_hz", "rts_rate_hz", "gravity"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be positive, got {value}")
        if not (math.isfinite(self.idle_duration_s) and self.idle_duration_s >= 0.0):
            raise ValueError(f"idle_duration_s must be >= 0, got {self.idle_duration_s}")
        if self.duration_s <= self.idle_duration_s:
            raise ValueError(
                f"duration_s ({self.duration_s}) must exceed idle_duration_s "
                f"({self.idle_duration_s})"
            )
        for name in ("roll_amplitude_deg", "pitch_amplitude_deg"):
            value = getattr(self, name)
            if not (math.isfinite(value) and 0.0 <= value <= 60.0):
                raise ValueError(f"{name} must lie in [0, 60] degrees, got {value}")
        for name in (
            "roll_frequency_hz",
            "pitch_frequency_hz",
            "roll_phase_rad",
            "pitch_phase_rad",
            "yaw_deg",
            "yaw_rate_deg_s",
        ):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.roll_frequency_hz < 0.0 or self.pitch_frequency_hz < 0.0:
            raise ValueError("tilt frequencies must be >= 0")
        # The phase offset shift can push the excursion past the amplitude.
        pitch_peak = self.pitch_amplitude_deg * (1.0 + abs(math.sin(self.pitch_phase_rad)))
        if pitch_peak >= 90.0:
            raise ValueError(
                f"pitch profile peaks at {pitch_peak:.1f} degrees; must stay below 90"
            )
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
        object.__setattr__(self, "poi_nav", _vec3(self.poi_nav, "poi_nav"))
        object.__setattr__(self, "rts_station", _vec3(self.rts_station, "rts_station"))


@dataclass(frozen=True)
class GroundTruthSample:
    """True attitude and positions at one instant; poi_nav is constant per run."""

    timestamp: float
    attitude: Attitude
    prism_nav: np.ndarray
    poi_nav: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "prism_nav", np.asarray(self.prism_nav, dtype=float))
        object.__setattr__(self, "poi_nav", np.asarray(self.poi_nav, dtype=float))


def _wrap_array(angles: np.ndarray) -> np.ndarray:
    wrapped = np.mod(angles + np.pi, 2.0 * np.pi) - np.pi
    return np.where(wrapped <= -np.pi, np.pi, wrapped)


def _angle_arrays(cfg: ScenarioConfig, t: np.ndarray):
    """True (roll, pitch, yaw) [rad] at each time; zero tilt during idle."""
    tau = np.asarray(t, dtype=float) - cfg.idle_duration_s
    active = tau >= 0.0
    tau_m = np.where(active, tau, 0.0)

    def sinusoid(amp_deg, freq, phase):
        amp = math.radians(amp_deg)
        w = 2.0 * math.pi * freq
        return np.where(
            active, amp * (np.sin(w * tau_m + phase) - math.sin(phase)), 0.0
        )

    roll = sinusoid(cfg.roll_amplitude_deg, cfg.roll_frequency_hz, cfg.roll_phase_rad)
    pitch = sinusoid(cfg.pitch_amplitude_deg, cfg.pitch_frequency_hz, cfg.pitch_phase_rad)
    yaw = math.radians(cfg.yaw_deg) + np.where(
        active, math.radians(cfg.yaw_rate_deg_s) * tau_m, 0.0
    )
    return roll, pitch, _wrap_array(yaw)


def _rate_arrays(cfg: ScenarioConfig, t: np.ndarray):
    """Euler-angle rates [rad/s] matching :func:`_angle_arrays`."""
    tau = np.asarray(t, dtype=float) - cfg.idle_duration_s
    active = tau >= 0.0
    tau_m = np.where(active, tau, 0.0)

    def sinusoid_rate(amp_deg, freq, phase):
        amp = math.radians(amp_deg)
        w = 2.0 * math.pi * freq
        return np.where(active, amp * w * np.cos(w * tau_m + phase), 0.0)

    roll_rate = sinusoid_rate(cfg.roll_amplitude_deg, cfg.roll_frequency_hz, cfg.roll_phase_rad)
    pitch_rate = sinusoid_rate(
        cfg.pitch_amplitude_deg, cfg.pitch_frequency_hz, cfg.pitch_phase_rad
    )
    yaw_rate = np.where(active, math.radians(cfg.yaw_rate_deg_s), 0.0)
    return roll_rate, pitch_rate, yaw_rate


def _rotations(roll, pitch, yaw) -> np.ndarray:
    """C-contiguous stack of body-to-navigation matrices, shape (n, 3, 3)."""
    rows = _zyx_rows(
        np.cos(roll), np.sin(roll), np.cos(pitch), np.sin(pitch), np.cos(yaw), np.sin(yaw)
    )
    return np.stack([np.stack(row, axis=-1) for row in rows], axis=-2)


def truth_attitude(cfg: ScenarioConfig, t: float) -> Attitude:
    """True attitude of the scenario at time ``t`` seconds."""
    roll, pitch, yaw = _angle_arrays(cfg, np.array([float(t)]))
    return Attitude(roll=float(roll[0]), pitch=float(pitch[0]), yaw=float(yaw[0]))


def _imu_positions(cfg: ScenarioConfig, t: np.ndarray) -> np.ndarray:
    """Navigation-frame IMU positions implied by pivoting about the fixed POI."""
    rot = _rotations(*_angle_arrays(cfg, t))
    return cfg.poi_nav - np.einsum("nij,j->ni", rot, cfg.lever_arms.imu_to_poi_b)


def _kinematic_accels(cfg: ScenarioConfig, t: np.ndarray) -> np.ndarray:
    """Second derivative of the IMU position at each time, shape (n, 3)."""
    t = np.asarray(t, dtype=float)
    h = _DIFF_STEP
    boundary = cfg.idle_duration_s
    accel = np.zeros(t.shape + (3,))
    central = t >= boundary + h
    forward = (t >= boundary) & ~central
    if np.any(central):
        tc = t[central]
        accel[central] = (
            _imu_positions(cfg, tc - h)
            - 2.0 * _imu_positions(cfg, tc)
            + _imu_positions(cfg, tc + h)
        ) / (h * h)
    if np.any(forward):
        tf = t[forward]
        accel[forward] = (
            _imu_positions(cfg, tf)
            - 2.0 * _imu_positions(cfg, tf + h)
            + _imu_positions(cfg, tf + 2.0 * h)
        ) / (h * h)
    return accel


def generate_scenario(
    cfg: ScenarioConfig,
) -> tuple[list[ImuSample], list[RtsObservation], list[GroundTruthSample]]:
    """Synthesize the IMU stream, the observation stream, and ground truth.

    Stream grids are i / rate starting at zero; counts are
    floor(duration * rate). Truth samples share the IMU grid (which contains
    every observation timestamp when the IMU rate is an integer multiple of
    the observation rate). RNG draw order is fixed: bias direction, gyro
    noise, accel noise, then range / horizontal-angle / zenith-angle noise.

    Raises ValueError when the prism crosses the station's vertical axis,
    where the polar angles degenerate.
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

    roll, pitch, yaw = _angle_arrays(cfg, t_imu)
    rot = _rotations(roll, pitch, yaw)
    roll_rate, pitch_rate, yaw_rate = _rate_arrays(cfg, t_imu)

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
    prism = cfg.poi_nav - np.einsum("nij,j->ni", rot, lever)

    imu_stream = [
        ImuSample(timestamp=float(t_imu[i]), accel=specific_force[i], gyro=gyro[i])
        for i in range(n_imu)
    ]
    truth_stream = [
        GroundTruthSample(
            timestamp=float(t_imu[i]),
            attitude=Attitude(roll=float(roll[i]), pitch=float(pitch[i]), yaw=float(yaw[i])),
            prism_nav=prism[i],
            poi_nav=cfg.poi_nav,
        )
        for i in range(n_imu)
    ]

    rot_rts = _rotations(*_angle_arrays(cfg, t_rts))
    prism_rts = cfg.poi_nav - np.einsum("nij,j->ni", rot_rts, lever)
    diff = prism_rts - cfg.rts_station
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

    rts_stream = [
        RtsObservation(
            timestamp=float(t_rts[j]),
            slant_distance=float(distance[j]),
            horizontal_angle=float(azimuth[j]),
            zenith_angle=float(zenith[j]),
        )
        for j in range(n_rts)
    ]
    return imu_stream, rts_stream, truth_stream
