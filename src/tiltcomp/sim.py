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

One function, ``_motion``, gives the Euler angles, their rates and their
accelerations at any times; one, ``_place``, places a body point (IMU or
prism) from the fixed POI, its body lever and a stack of rotations. The
specific force is the rigid body's in closed form: body-frame gravity
``g * (-sin(pitch), cos(pitch) sin(roll), cos(pitch) cos(roll))`` minus the
lever swing ``dw x l + w x (w x l)`` of the IMU about the POI, where ``w`` is
the body rate, ``dw`` its derivative and ``l`` the IMU-to-POI lever. It is
exact at every sample, the first moving one too; the swing is zero during idle.

Every stream number has one source, ``_scenario``, which returns each stream
as arrays and checks the observations' rules over whole columns. Its working
set is its outputs plus one block of rows: the noise is drawn first,
whole-stream and in a fixed order, and becomes the returned streams, into
which each block of the time grid adds its signal. It has two
consumers: ``simulate`` formats the arrays straight into its files, and
:func:`generate_scenario` fills the IMU and observation objects from them in
one bulk pass per stream (``_fields._fill``), each holding the same floats
and array rows its dataclass constructor would. Ground truth is one table in
both: an ``(n, 10)`` float64 array whose columns follow
:data:`~tiltcomp.codec.TRUTH_CSV_HEADER`, angles in radians.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from ._fields import _check_fields, _fill, _ranged, _vector
from .attitude import ImuSample
from .geodesy import RtsObservation, _check_observations
from .kinematics import LeverArms, _zyx_rows, prism_to_poi_body

__all__ = [
    "NoiseSpec",
    "ScenarioConfig",
    "generate_scenario",
]


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


# Rows of a grid that _scenario computes at a time: its temporaries beyond
# the returned arrays are a block long. Any size >= 1 gives the same bits.
_BLOCK = 4096


def _wrap_array(angles: np.ndarray) -> np.ndarray:
    wrapped = np.mod(angles + np.pi, 2.0 * np.pi) - np.pi
    return np.where(wrapped <= -np.pi, np.pi, wrapped)


def _motion(cfg: ScenarioConfig, t: np.ndarray):
    """True (roll, pitch, yaw) [rad], their rates [rad/s] and their
    accelerations [rad/s^2] at each time; level and still during idle."""
    tau = np.asarray(t, dtype=float) - cfg.idle_duration_s
    active = tau >= 0.0
    tau_m = np.where(active, tau, 0.0)

    def sinusoid(amp_deg, freq, phase):
        amp = math.radians(amp_deg)
        w = 2.0 * math.pi * freq
        arg = w * tau_m + phase
        sin_arg = np.sin(arg)
        return (
            np.where(active, amp * (sin_arg - math.sin(phase)), 0.0),
            np.where(active, amp * w * np.cos(arg), 0.0),
            np.where(active, -amp * w * w * sin_arg, 0.0),
        )

    roll = sinusoid(cfg.roll_amplitude_deg, cfg.roll_frequency_hz, cfg.roll_phase_rad)
    pitch = sinusoid(cfg.pitch_amplitude_deg, cfg.pitch_frequency_hz, cfg.pitch_phase_rad)
    yaw_rate = np.where(active, math.radians(cfg.yaw_rate_deg_s), 0.0)
    yaw = _wrap_array(math.radians(cfg.yaw_deg) + yaw_rate * tau_m)
    return tuple(zip(roll, pitch, (yaw, yaw_rate, np.zeros_like(yaw))))


def _rotations(rows) -> np.ndarray:
    """C-contiguous stack of body-to-navigation matrices, shape (n, 3, 3), filled
    entry by entry from the rows :func:`~tiltcomp.kinematics._zyx_rows` gives."""
    rot = np.empty((len(rows[2][2]), 3, 3))
    for i, j in np.ndindex(3, 3):
        rot[:, i, j] = rows[i][j]
    return rot


def _place(cfg: ScenarioConfig, rot: np.ndarray, lever_b: np.ndarray) -> np.ndarray:
    """Navigation-frame positions, shape (n, 3), of the body point whose lever
    to the fixed POI is ``lever_b``, for each rotation of the stack ``rot``:
    poi_nav - R @ lever_b. The product stays ``np.einsum``, whose sums give
    the streams' bits."""
    return cfg.poi_nav - np.einsum("nij,j->ni", rot, lever_b)


def _points(cfg: ScenarioConfig, t: np.ndarray, lever_b: np.ndarray) -> np.ndarray:
    """:func:`_place` of the body point at each time."""
    roll, pitch, yaw = _motion(cfg, t)[0]
    rows = _zyx_rows(
        np.cos(roll), np.sin(roll), np.cos(pitch), np.sin(pitch), np.cos(yaw), np.sin(yaw)
    )
    return _place(cfg, _rotations(rows), lever_b)


def _scenario(cfg: ScenarioConfig):
    """The scenario as arrays, one per stream with its columns in wire order:
    IMU ``(t, accel, gyro)``, ``t`` ``(n,)`` and accel and gyro ``(n, 3)``;
    observations one checked ``(4, n)`` array whose rows are ``(t, distance,
    azimuth, zenith)``. Truth is :func:`generate_scenario`'s table. Grids,
    draw order and errors are :func:`generate_scenario`'s.

    The working set is the outputs plus one block. Every draw comes first,
    whole-stream and in its fixed order: the IMU noise draws are the accel
    and gyro arrays returned, and the observation draws fill the rows of the
    observation table. Then each :data:`_BLOCK` rows of a grid add their
    signal into their noise in place (``noise + signal`` has the bits of
    ``signal + noise``) and fill their rows of the truth table, so no
    per-sample temporary outgrows a block and the block size moves no bit.
    """
    rng = np.random.default_rng(cfg.seed)
    noise = cfg.noise

    # The decimal product's floor: 2.3 s at 100 Hz is 230 samples, not 229.99999999999997.
    n_imu = math.floor(round(cfg.duration_s * cfg.imu_rate_hz, 9))
    n_rts = math.floor(round(cfg.duration_s * cfg.rts_rate_hz, 9))

    bias_direction = rng.standard_normal(3)
    bias_direction /= np.linalg.norm(bias_direction)
    bias = math.radians(noise.gyro_bias_deg_per_h) / 3600.0 * bias_direction

    gyro = rng.standard_normal((n_imu, 3))
    gyro *= math.radians(noise.gyro_noise_density_deg) * math.sqrt(cfg.imu_rate_hz)
    accel = rng.standard_normal((n_imu, 3))
    accel *= noise.accel_sigma
    obs = np.empty((4, n_rts))
    obs[0] = np.arange(n_rts) / cfg.rts_rate_hz
    angle_sigma = noise.rts_angle_sigma_rad
    for row, sigma in zip(obs[1:], (noise.rts_range_sigma_m, angle_sigma, angle_sigma)):
        rng.standard_normal(out=row)
        row *= sigma

    # Observations first: a faulty scenario raises before the IMU stream is built.
    lever = prism_to_poi_body(cfg.lever_arms)
    for start in range(0, n_rts, _BLOCK):
        t, distance, azimuth, zenith = obs[:, start : start + _BLOCK]
        diff = _points(cfg, t, lever) - cfg.rts_station
        horiz = np.hypot(diff[:, 0], diff[:, 1])
        if np.any(horiz < 1e-9):
            bad = float(t[np.argmax(horiz < 1e-9)])
            raise ValueError(
                f"infeasible geometry at t={bad}: prism on the station's vertical axis, "
                "zenith angle undefined"
            )
        zenith += np.arctan2(horiz, diff[:, 2])
        azimuth += np.arctan2(diff[:, 1], diff[:, 0])
        distance += np.linalg.norm(diff, axis=1)
    rts = _check_observations(*obs)
    del obs  # rts is a checked copy

    t_imu = np.arange(n_imu) / cfg.imu_rate_hz
    truth = np.empty((n_imu, 10))
    truth[:, 0] = t_imu
    truth[:, 7:] = cfg.poi_nav
    lx, ly, lz = cfg.lever_arms.imu_to_poi_b.tolist()
    for start in range(0, n_imu, _BLOCK):
        rows = slice(start, start + _BLOCK)
        # One rotation per IMU-grid time serves the specific force and the truth prism.
        (roll, pitch, yaw), rates, (roll_acc, pitch_acc, _) = _motion(cfg, t_imu[rows])
        sr, cr = np.sin(roll), np.cos(roll)
        sp, cp = np.sin(pitch), np.cos(pitch)
        rot = _rotations(_zyx_rows(cr, sr, cp, sp, np.cos(yaw), np.sin(yaw)))

        roll_rate, pitch_rate, yaw_rate = rates
        p = roll_rate - yaw_rate * sp
        q = pitch_rate * cr + yaw_rate * cp * sr
        r = -pitch_rate * sr + yaw_rate * cp * cr
        gyro[rows] += np.column_stack((p, q, r)) + bias

        # The body rates' derivative by the chain rule; yaw's acceleration is 0.
        turn = yaw_rate * pitch_rate
        p_dot = roll_acc - turn * cp
        q_dot = pitch_acc * cr - turn * sp * sr + roll_rate * r
        r_dot = -pitch_acc * sr - turn * sp * cr - roll_rate * q

        # The IMU sits at poi - R l, so its acceleration is -R (dw x l + w x (w x l)).
        # Each cross product is written out as np.cross computes it, a1*b2 - a2*b1.
        # Gravity in the body frame is g times R's last row; the + 0.0 keeps a
        # level row's x, g * -0.0, at 0.0 whatever the sign of a zero noise draw.
        wx, wy, wz = q * lz - r * ly, r * lx - p * lz, p * ly - q * lx
        specific_force = cfg.gravity * rot[:, 2] + 0.0
        specific_force[:, 0] -= (q_dot * lz - r_dot * ly) + (q * wz - r * wy)
        specific_force[:, 1] -= (r_dot * lx - p_dot * lz) + (r * wx - p * wz)
        specific_force[:, 2] -= (p_dot * ly - q_dot * lx) + (p * wy - q * wx)
        accel[rows] += specific_force

        truth[rows, 1] = roll
        truth[rows, 2] = pitch
        truth[rows, 3] = yaw
        truth[rows, 4:7] = _place(cfg, rot, lever)
    return (t_imu, accel, gyro), rts, truth


def generate_scenario(
    cfg: ScenarioConfig,
) -> tuple[list[ImuSample], list[RtsObservation], np.ndarray]:
    """Synthesize the IMU stream, the observation stream, and ground truth.

    Stream grids are i / rate starting at zero; counts are floor(duration *
    rate), the product first rounded to 9 decimals. RNG draw order is fixed:
    bias direction, gyro noise, accel noise, then range / horizontal-angle /
    zenith-angle noise. Every draw is whole-stream and made before any
    signal is computed; an error source added later draws from a generator
    of its own, so that these draws stay as they are. Both streams are
    filled in bulk from checked columns; each sample's accel and gyro are
    rows of its stream's one ``(n, 3)`` array. Beyond the returned streams
    and table, generation holds one block of rows at a time.

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
    imu_stream = _fill(ImuSample, t_imu.tolist(), accel, gyro)
    return imu_stream, _fill(RtsObservation, *rts.tolist()), truth
