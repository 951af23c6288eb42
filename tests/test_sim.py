import dataclasses
import hashlib
import math
import re
import sys
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from tiltcomp import (
    TRUTH_CSV_HEADER,
    Attitude,
    FilterConfig,
    HelmertParams,
    ImuSample,
    LeverArms,
    NoiseSpec,
    PipelineConfig,
    RtsObservation,
    ScenarioConfig,
    generate_scenario,
    poi_position,
    polar_to_cartesian,
    rotation_b_to_n,
    write_imu_line,
    write_rts_line,
    write_truth_csv,
)
from tiltcomp import codec, sim
from tiltcomp._fields import _fill
from tiltcomp.cli import main, parse_scenario_config
from tiltcomp.sim import _motion, _scenario

G = 9.80665
DIFF_STEP = 1e-4


def lever_kinematic_accel(attitude_at, arms, t, *, step=DIFF_STEP, motion_start=None):
    """Reference acceleration of the IMU point for a body pivoting about a fixed POI.

    ``attitude_at`` maps time [s] to the true attitude; the IMU position is
    then -R(t) @ imu_to_poi (the fixed POI drops out of the derivative).
    Differencing is central with the given step, except around an optional
    ``motion_start`` kink: exact zero before it, forward stencil within one
    step after it.
    """

    def position(s):
        return -(rotation_b_to_n(attitude_at(s)) @ arms.imu_to_poi_b)

    if motion_start is not None:
        if t < motion_start:
            return np.zeros(3)
        if t < motion_start + step:
            return (position(t) - 2.0 * position(t + step) + position(t + 2.0 * step)) / (
                step * step
            )
    return (position(t - step) - 2.0 * position(t) + position(t + step)) / (step * step)


def attitude_at(cfg, t):
    """The scenario's true attitude at time ``t``, between samples too."""
    roll, pitch, yaw = _motion(cfg, np.array([t]))[0]
    return Attitude(roll=float(roll[0]), pitch=float(pitch[0]), yaw=float(yaw[0]))


def quiet(**kwargs):
    kwargs.setdefault("noise", NoiseSpec.zero())
    kwargs.setdefault("duration_s", 3.0)
    kwargs.setdefault("idle_duration_s", 1.0)
    return ScenarioConfig(**kwargs)


def test_sample_counts_follow_rates():
    imu, rts, truth = generate_scenario(quiet())
    assert len(imu) == 300
    assert len(rts) == 15
    assert truth.shape == (300, 10)

    imu, rts, _ = generate_scenario(
        quiet(duration_s=0.999, idle_duration_s=0.5)
    )
    assert len(imu) == 99
    assert len(rts) == 4


@pytest.mark.parametrize(
    "duration_s, imu_rate_hz, rts_rate_hz, n_imu, n_rts",
    [
        (2.3, 100.0, 5.0, 230, 11),  # 2.3 * 100 is 229.99999999999997
        (4.35, 100.0, 20.0, 435, 87),  # 4.35 * 100 is 434.99999999999994
        (2.18, 100.0, 5.0, 218, 10),  # 2.18 * 100 is 218.00000000000003
        (2.3, 100.0, 5.1, 230, 11),  # 11.73 samples of the tracker: floored
    ],
)
def test_sample_counts_floor_the_decimal_product(
    duration_s, imu_rate_hz, rts_rate_hz, n_imu, n_rts
):
    cfg = quiet(
        duration_s=duration_s, imu_rate_hz=imu_rate_hz, rts_rate_hz=rts_rate_hz,
        idle_duration_s=0.5,
    )
    imu, rts, truth = generate_scenario(cfg)
    assert (len(imu), len(rts), len(truth)) == (n_imu, n_rts, n_imu)
    assert imu[-1].timestamp == (n_imu - 1) / imu_rate_hz


def test_streams_start_at_zero_on_exact_grids():
    imu, rts, truth = generate_scenario(quiet())
    assert imu[0].timestamp == 0.0
    assert imu[1].timestamp == 0.01
    assert rts[1].timestamp == 0.2
    # observation timestamps all appear on the IMU/truth grid
    assert all(rts[j].timestamp == imu[20 * j].timestamp for j in range(len(rts)))
    assert truth[:, 0].tolist() == [s.timestamp for s in imu]


def test_static_scene_reads_gravity_and_zero_rates():
    cfg = quiet(roll_amplitude_deg=0.0, pitch_amplitude_deg=0.0)
    imu, _, truth = generate_scenario(cfg)
    for sample in imu[::17]:
        assert np.array_equal(sample.gyro, np.zeros(3))
        assert_allclose(sample.accel, [0.0, 0.0, G], atol=1e-12)
    assert np.array_equal(truth[:, 1:4], np.zeros((300, 3)))
    assert_allclose(truth[:, 4:7], np.tile([5.0, 0.0, 1.0676], (300, 1)), rtol=1e-12)
    assert np.array_equal(truth[:, 7:10], np.tile([5.0, 0.0, 0.0], (300, 1)))


def test_idle_segment_is_level_even_in_motion_scenarios():
    cfg = quiet(noise=NoiseSpec(
        gyro_noise_density_deg=0.0,
        gyro_bias_deg_per_h=0.3,
        accel_sigma=0.0,
        rts_range_sigma_m=0.0,
        rts_angle_sigma_rad=0.0,
    ))
    imu, _, truth = generate_scenario(cfg)
    idle = [s for s in imu if s.timestamp < cfg.idle_duration_s]
    assert len(idle) == 100
    bias = idle[0].gyro
    assert np.linalg.norm(bias) == pytest.approx(math.radians(0.3) / 3600.0, rel=1e-12)
    for sample in idle:
        assert np.array_equal(sample.gyro, bias)
        assert_allclose(sample.accel, [0.0, 0.0, G], atol=1e-12)
    assert np.array_equal(truth[:100, 1:4], np.zeros((100, 3)))


def test_zero_noise_idle_rows_print_unsigned_zeros(tmp_path, capsys):
    """A level row's x is g * -sin(0) = -0.0 before noise, and a zero-sigma
    noise draw keeps its normal's sign; every idle zero is still written
    0.000000, never -0.000000."""
    zero_noise = "".join(f"{f.name} = 0\n" for f in dataclasses.fields(NoiseSpec))
    code, out = simulate(tmp_path, "duration_s = 3\nidle_duration_s = 1\n" + zero_noise)
    assert code == 0
    idle = (out / "imu.txt").read_text().splitlines()[:100]
    assert idle == [
        f"IMU,{i / 100:.6f},0.000000,0.000000,9.806650,0.000000,0.000000,0.000000"
        for i in range(100)
    ]


def test_motion_follows_offset_sinusoid():
    cfg = quiet()
    assert attitude_at(cfg, 0.5) == Attitude()
    # tilt starts from zero at motion onset and stays continuous
    assert attitude_at(cfg, cfg.idle_duration_s) == Attitude()
    amp = math.radians(60.0)
    w = 2.0 * math.pi * 0.010
    att = attitude_at(cfg, cfg.idle_duration_s + 12.5)
    assert att.roll == pytest.approx(amp * math.sin(w * 12.5), rel=1e-12)

    peak = amp * 2.0  # amplitude plus phase offset can reach double
    roll, pitch, _ = _motion(quiet(duration_s=300.0), np.linspace(0.0, 200.0, 400))[0]
    assert np.abs(roll).max() <= peak + 1e-12
    assert np.abs(pitch).max() <= peak + 1e-12


def test_truth_rows_are_self_consistent():
    """prism - POI = R @ lever in every row: the prism, rotated back through
    the row's own angles, lands on the row's POI."""
    cfg = quiet()
    _, _, truth = generate_scenario(cfg)
    for row in truth[::23]:
        rebuilt = poi_position(row[4:7], Attitude(*row[1:4]), cfg.lever_arms)
        assert_allclose(rebuilt, row[7:10], atol=1e-12)


def test_prism_actually_moves_while_poi_stays_fixed():
    cfg = quiet()
    _, _, truth = generate_scenario(cfg)
    assert np.array_equal(truth[:, 7:10], np.broadcast_to(cfg.poi_nav, (len(truth), 3)))
    assert np.ptp(truth[:, 4:7], axis=0).max() > 0.05


def test_observations_back_convert_to_true_prism():
    cfg = quiet()
    _, rts, truth = generate_scenario(cfg)
    for j, obs in enumerate(rts):
        prism = polar_to_cartesian(obs) + cfg.rts_station
        assert_allclose(prism, truth[20 * j, 4:7], atol=1e-9)


def test_gyro_encodes_body_rates_for_euler_motion():
    # independent check: body rates from finite differences of the true angles
    cfg = quiet(yaw_rate_deg_s=2.0)
    imu, _, truth = generate_scenario(cfg)
    h = 1e-6
    for i in (150, 211, 299):
        t = imu[i].timestamp
        before = attitude_at(cfg, t - h)
        after = attitude_at(cfg, t + h)
        roll_rate = (after.roll - before.roll) / (2.0 * h)
        pitch_rate = (after.pitch - before.pitch) / (2.0 * h)
        yaw_rate = (after.yaw - before.yaw) / (2.0 * h)
        att = Attitude(*truth[i, 1:4])
        sr, cr = math.sin(att.roll), math.cos(att.roll)
        sp, cp = math.sin(att.pitch), math.cos(att.pitch)
        expected = [
            roll_rate - yaw_rate * sp,
            pitch_rate * cr + yaw_rate * cp * sr,
            -pitch_rate * sr + yaw_rate * cp * cr,
        ]
        assert_allclose(imu[i].gyro, expected, atol=1e-7)


def richardson(estimate, step, orders):
    """Richardson extrapolation of ``estimate(h)``, whose error series has a
    term in h**p for each p of ``orders``: each pass over the estimates at
    step, step/2, step/4, ... cancels the next term."""
    table = [estimate(step / 2**k) for k in range(len(orders) + 1)]
    for p in orders:
        table = [(2**p * fine - coarse) / (2**p - 1) for coarse, fine in zip(table, table[1:])]
    return table[0]


def reference_accel(cfg, t):
    """The IMU point's acceleration at ``t`` from its positions alone:
    :func:`lever_kinematic_accel` extrapolated to ~1e-9 m/s^2 from central
    differences (error terms h^2, h^4), or to ~1e-7 from forward ones (h,
    h^2, h^3) at the first moving sample, where the motion starts."""

    def differences(step):
        return lever_kinematic_accel(
            lambda s: attitude_at(cfg, s), cfg.lever_arms, t,
            step=step, motion_start=cfg.idle_duration_s,
        )

    if t == cfg.idle_duration_s:
        return richardson(differences, 2e-3, (1, 2, 3))
    return richardson(differences, 4e-3, (2, 4))


SLANTED = LeverArms(imu_to_prism_b=(0.05, 0.1, 0.08), imu_to_poi_b=(0.3, -0.2, -0.9))
TURNING = {"yaw_rate_deg_s": 30.0, "roll_phase_rad": 0.4, "pitch_phase_rad": -0.3}
SWINGS = {
    "default": {},
    "turning": TURNING,
    "slanted_lever": {"lever_arms": SLANTED},
    "fast_turning_slanted": {
        "roll_frequency_hz": 1.0, "pitch_frequency_hz": 1.0, "lever_arms": SLANTED, **TURNING
    },
}


@pytest.mark.parametrize("kwargs", SWINGS.values(), ids=SWINGS)
def test_specific_force_matches_lever_swing_acceleration(kwargs):
    """R @ f - g is the IMU point's acceleration: exactly zero during idle,
    and within the reference's own error at the first moving sample and
    after it (a 1e-4 s difference stencil misses by up to 2e-5 and 1e-1)."""
    cfg = quiet(**kwargs)
    imu, _, truth = generate_scenario(cfg)
    for i, atol in ((50, 0.0), (100, 1e-6), (101, 2e-8), (150, 2e-8), (237, 2e-8), (299, 2e-8)):
        sample = imu[i]
        r = rotation_b_to_n(Attitude(*truth[i, 1:4]))
        a_nav = r @ sample.accel - np.array([0.0, 0.0, cfg.gravity])
        assert_allclose(a_nav, reference_accel(cfg, sample.timestamp), rtol=0.0, atol=atol)


@pytest.mark.parametrize("kwargs", SWINGS.values(), ids=SWINGS)
def test_motion_accelerations_are_the_derivative_of_its_rates(kwargs):
    """_motion's angular accelerations equal a central difference of its own
    rates while moving, and are exactly zero during idle."""
    cfg = quiet(**kwargs)
    h = 4e-6
    t = np.linspace(cfg.idle_duration_s + 2.0 * h, cfg.duration_s, 41)
    lo, hi = t - h, t + h
    rates_lo, rates_hi = _motion(cfg, lo)[1], _motion(cfg, hi)[1]
    # Divided by the step the rounded times really take.
    for before, after, accel in zip(rates_lo, rates_hi, _motion(cfg, t)[2], strict=True):
        assert_allclose(accel, (after - before) / (hi - lo), rtol=0.0, atol=2e-8)
    idle = np.linspace(0.0, cfg.idle_duration_s, 20, endpoint=False)
    for accel in _motion(cfg, idle)[2]:
        assert np.array_equal(accel, np.zeros(20))


def test_no_acceleration_glitch_at_motion_onset():
    cfg = quiet()
    imu, _, _ = generate_scenario(cfg)
    deviation = np.array([abs(np.linalg.norm(s.accel) - G) for s in imu])
    # a swing differenced across the idle/motion kink would blow this up by orders
    assert deviation.max() < 0.05


def test_lever_accel_static_is_exactly_zero():
    arms = LeverArms()
    att = Attitude(roll=0.3, pitch=-0.2)
    accel = lever_kinematic_accel(lambda s: att, arms, 5.0)
    assert np.array_equal(accel, np.zeros(3))
    accel = lever_kinematic_accel(lambda s: att, arms, 1.0, motion_start=2.0)
    assert np.array_equal(accel, np.zeros(3))


def test_lever_accel_is_centripetal_for_constant_spin():
    arms = LeverArms(imu_to_prism_b=(0.0, 0.0, 0.0756), imu_to_poi_b=(0.0, 0.0, -0.992))
    omega = 0.5
    accel = lever_kinematic_accel(
        lambda s: Attitude(roll=omega * s), arms, 2.0
    )
    assert np.linalg.norm(accel) == pytest.approx(omega**2 * 0.992, rel=1e-5)

    faster = lever_kinematic_accel(
        lambda s: Attitude(roll=2.0 * omega * s), arms, 2.0
    )
    assert np.linalg.norm(faster) / np.linalg.norm(accel) == pytest.approx(
        4.0, rel=1e-4
    )


def test_same_seed_reproduces_streams_bitwise():
    a_imu, a_rts, _ = generate_scenario(ScenarioConfig(duration_s=2.0, idle_duration_s=1.0, seed=7))
    b_imu, b_rts, _ = generate_scenario(ScenarioConfig(duration_s=2.0, idle_duration_s=1.0, seed=7))
    assert all(
        np.array_equal(x.accel, y.accel) and np.array_equal(x.gyro, y.gyro)
        for x, y in zip(a_imu, b_imu)
    )
    assert all(
        (x.slant_distance, x.horizontal_angle, x.zenith_angle)
        == (y.slant_distance, y.horizontal_angle, y.zenith_angle)
        for x, y in zip(a_rts, b_rts)
    )


def test_different_seeds_differ():
    a_imu, _, _ = generate_scenario(ScenarioConfig(duration_s=2.0, idle_duration_s=1.0, seed=1))
    b_imu, _, _ = generate_scenario(ScenarioConfig(duration_s=2.0, idle_duration_s=1.0, seed=2))
    assert any(
        not np.array_equal(x.accel, y.accel) for x, y in zip(a_imu, b_imu)
    )


def test_yaw_profile():
    cfg = quiet(yaw_deg=90.0, yaw_rate_deg_s=3.0)
    assert attitude_at(cfg, 0.5).yaw == pytest.approx(math.pi / 2, abs=1e-12)
    att = attitude_at(cfg, cfg.idle_duration_s + 10.0)
    expected = math.radians(90.0 + 30.0)
    assert att.yaw == pytest.approx(expected, abs=1e-12)


def test_prism_over_station_is_rejected():
    cfg = quiet(poi_nav=np.zeros(3))
    with pytest.raises(ValueError, match="vertical axis"):
        generate_scenario(cfg)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"duration_s": 0.0},
        {"duration_s": 5.0, "idle_duration_s": 5.0},
        {"idle_duration_s": -1.0},
        {"imu_rate_hz": 0.0},
        {"rts_rate_hz": -5.0},
        {"roll_amplitude_deg": 61.0},
        {"roll_amplitude_deg": -1.0},
        {"pitch_amplitude_deg": 60.0, "pitch_phase_rad": math.pi / 2},
        {"seed": -1},
        {"seed": 1.5},
        {"gravity": 0.0},
    ],
)
def test_scenario_config_validation(kwargs):
    with pytest.raises(ValueError):
        ScenarioConfig(**kwargs)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"gyro_noise_density_deg": -1e-4},
        {"gyro_bias_deg_per_h": -0.3},
        {"accel_sigma": -0.01},
        {"rts_range_sigma_m": -1.0},
        {"rts_angle_sigma_rad": -1e-6},
    ],
)
def test_noise_spec_validation(kwargs):
    with pytest.raises(ValueError):
        NoiseSpec(**kwargs)


TINY = math.ulp(0.0)
BIG = sys.float_info.max
CONFIG_CLASSES = (FilterConfig, PipelineConfig, NoiseSpec, ScenarioConfig, LeverArms, HelmertParams)

# Every number field of the config classes: its class and name, the words of
# its range fault, the values just outside its range, and the values at its
# bounds (the least value above an open bound) that it accepts.
RANGED_FIELDS = [
    (FilterConfig, "alpha_base", "in [0, 1]", (-TINY, math.nextafter(1.0, 2.0)), (0.0, 1.0)),
    (FilterConfig, "delta_a_threshold", "positive", (0.0,), (TINY,)),
    (FilterConfig, "gravity", "positive", (0.0,), (TINY,)),
    (FilterConfig, "bias_calibration_count", "finite and >= 1", (0,), (1,)),
    (PipelineConfig, "rts_buffer_capacity", "finite and >= 1", (0,), (1,)),
    (PipelineConfig, "pairing_tolerance_s", "finite and >= 0", (-TINY,), (0.0,)),
    (PipelineConfig, "rts_latency_s", "finite and >= 0", (-TINY,), (0.0,)),
    *[
        (NoiseSpec, f.name, "finite and >= 0", (-1.0, -TINY), (0.0,))
        for f in dataclasses.fields(NoiseSpec)
    ],
    (ScenarioConfig, "duration_s", "positive", (0.0,), (TINY,)),
    (ScenarioConfig, "imu_rate_hz", "positive", (0.0,), (TINY,)),
    (ScenarioConfig, "rts_rate_hz", "positive", (0.0,), (TINY,)),
    (ScenarioConfig, "idle_duration_s", "finite and >= 0", (-TINY,), (0.0,)),
    (ScenarioConfig, "roll_amplitude_deg", "in [0, 60]", (-TINY, math.nextafter(60.0, 90.0)), (0.0, 60.0)),
    (ScenarioConfig, "roll_frequency_hz", "finite and >= 0", (-TINY,), (0.0,)),
    (ScenarioConfig, "roll_phase_rad", "finite", (), (-BIG, BIG)),
    (ScenarioConfig, "pitch_amplitude_deg", "in [0, 60]", (-TINY, math.nextafter(60.0, 90.0)), (0.0, 60.0)),
    (ScenarioConfig, "pitch_frequency_hz", "finite and >= 0", (-TINY,), (0.0,)),
    # Any larger phase would lift the default 60 degree pitch profile to 90.
    (ScenarioConfig, "pitch_phase_rad", "finite", (), (-math.pi, math.pi)),
    (ScenarioConfig, "yaw_deg", "finite", (), (-BIG, BIG)),
    (ScenarioConfig, "yaw_rate_deg_s", "finite", (), (-BIG, BIG)),
    (ScenarioConfig, "gravity", "positive", (0.0,), (TINY,)),
    (ScenarioConfig, "seed", "finite and >= 0", (-1,), (0,)),
    (HelmertParams, "scale", "positive", (0.0,), (TINY,)),
]
# A duration at its bound needs an idle segment shorter still.
CONTEXT = {(ScenarioConfig, "duration_s"): {"idle_duration_s": 0.0}}


def _out_of_range_cases():
    for cls, name, words, outside, bounds in RANGED_FIELDS:
        integral = isinstance(bounds[0], int)
        # An int field rejects a float and a bool, an int to isinstance.
        for value in (*outside, math.nan, math.inf, -math.inf, *((2.5, True) if integral else ())):
            rule = "an integer" if integral and type(value) is not int else words
            # The NoiseSpec ids are the ones this test had when it covered only NoiseSpec.
            case_id = f"{name}-{value}" if cls is NoiseSpec else f"{cls.__name__}.{name}-{value}"
            yield pytest.param(cls, name, value, f"{name} must be {rule}, got {value}", id=case_id)


def test_the_range_table_lists_every_number_field():
    numbers = {
        (cls, f.name)
        for cls in CONFIG_CLASSES
        for f in dataclasses.fields(cls)
        if type(f.default) in (float, int)
    }
    assert sorted((cls.__name__, name) for cls, name, *_ in RANGED_FIELDS) == sorted(
        (cls.__name__, name) for cls, name in numbers
    )


@pytest.mark.parametrize("cls, name, value, message", _out_of_range_cases())
def test_noise_spec_rejects_each_field_out_of_range(cls, name, value, message):
    """Every number field of every config class, NoiseSpec's among them:
    NaN, +-inf and the values just outside the range are rejected, and an int
    field also rejects a float and a bool."""
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        cls(**{name: value})


@pytest.mark.parametrize(
    "cls, name, value",
    [
        pytest.param(cls, name, value, id=f"{cls.__name__}.{name}-{value}")
        for cls, name, _, _, bounds in RANGED_FIELDS
        for value in bounds
    ],
)
def test_each_config_field_accepts_its_bounds(cls, name, value):
    config = cls(**CONTEXT.get((cls, name), {}), **{name: value})
    assert getattr(config, name) == value
    assert type(getattr(config, name)) is type(value)


VECTOR_FIELDS = [
    (ScenarioConfig, "poi_nav"),
    (ScenarioConfig, "rts_station"),
    (LeverArms, "imu_to_prism_b"),
    (LeverArms, "imu_to_poi_b"),
    (HelmertParams, "translation"),
]


@pytest.mark.parametrize("cls, name", VECTOR_FIELDS)
def test_each_config_vector_rejects_a_non_finite_coordinate(cls, name):
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=f"^{name} must be finite, got "):
            cls(**{name: [0.0, bad, 0.0]})
    with pytest.raises(ValueError, match=rf"^{name} must be a 3-vector, got shape \(2,\)$"):
        cls(**{name: [0.0, 0.0]})
    config = cls(**{name: [BIG, -BIG, 1]})
    np.testing.assert_array_equal(getattr(config, name), [BIG, -BIG, 1.0])
    assert getattr(config, name).dtype == float


def test_noise_zero_factory():
    spec = NoiseSpec.zero()
    assert spec.gyro_noise_density_deg == 0.0
    assert spec.gyro_bias_deg_per_h == 0.0
    assert spec.accel_sigma == 0.0
    assert spec.rts_range_sigma_m == 0.0
    assert spec.rts_angle_sigma_rad == 0.0
    assert all(getattr(spec, f.name) == 0.0 for f in dataclasses.fields(NoiseSpec))


# sha256 of simulate's imu.txt, rts.txt and truth.csv. The text, not the float
# bits, is pinned, so the last bit of the platform's sin cannot move it.
PINNED_STREAMS = {
    # defaults: the first moving row, t = 10.0 s, is on the IMU grid
    "duration_s = 30\n": {
        "imu.txt": "551cc497974435ed6f4c2d69a70f1e5344575675e5f70009cfedc5a087dcf5a7",
        "rts.txt": "d71e65c1248f1a76fe72d005b8116bf55f92e1733ef22088ec3c3100448a19b9",
        "truth.csv": "fe3852982c62b6d90b743d002d80b6f0da41c679972246e6c536bc755b28493d",
    },
    "duration_s = 30\nseed = 5\nrts_rate_hz = 100\nroll_amplitude_deg = 20\n"
    "roll_frequency_hz = 0.3\npitch_amplitude_deg = 20\npitch_frequency_hz = 0.24\n": {
        "imu.txt": "9c8704215ed3b33f57e6bf08c0b9ccfdddac5508a46b17e49aee669b6d7e5c6a",
        "rts.txt": "d5f77edaf346a4e0ef5ae3ced781bc5d0892d29f67c2efce90ec195f517ed39a",
        "truth.csv": "e9ccf6c283bef1a2f8d6a7e68d43aac7fcfcfccae8979b2be2155d2e803d2ef2",
    },
    "duration_s = 40\nseed = 9\nyaw_deg = 30\nyaw_rate_deg_s = -7\nroll_phase_rad = 0.4\n"
    "pitch_phase_rad = -0.3\nrts_rate_hz = 7\n": {
        "imu.txt": "114b811f182966cd764fe5372ce2b0d1929be0d7f86d15c60fcbe6907392bf1c",
        "rts.txt": "de17702ea3c227a331fc244b1631e9f5b69cecf7749edc10fc52ec340ff5a923",
        "truth.csv": "53dd1dc7c486fe09ca42554ffc3ffdaf8ff591935edae06a7a952aa81bdc0b0d",
    },
    # slanted levers: R @ lever sums three non-zero products per row
    "duration_s = 30\nseed = 3\nimu_to_poi_b = 0.3,-0.2,-0.9\nimu_to_prism_b = 0.05,0.1,0.08\n": {
        "imu.txt": "7ab010988947eb0c981f8f4053f94d0cf48ed6128c9ba22da93e13ba1f52a35c",
        "rts.txt": "1e6ab56cbc4c9071ba8df088c8e5c4ccf108a5e03918775932a93c71466c49e9",
        "truth.csv": "c75bee09819755a43f9350902d2d54b1235ea55becc33a693dcb75f0f9a24a5e",
    },
    # 10 000 IMU rows: _scenario's blocks meet twice, and the last is partial
    "duration_s = 100\nseed = 11\nrts_rate_hz = 7\nyaw_deg = -40\nyaw_rate_deg_s = 3\n"
    "roll_frequency_hz = 0.05\npitch_frequency_hz = 0.04\n"
    "imu_to_poi_b = 0.3,-0.2,-0.9\nimu_to_prism_b = 0.05,0.1,0.08\n": {
        "imu.txt": "adb8a3b8c51314592a0160f7a83f471726bd915bff4556a569700e8e072d36e3",
        "rts.txt": "6bfd680ae4e52345078abb348cde1fd85f611f335d36e6e9b3ada19496fce384",
        "truth.csv": "922d9666b59bd907ef15ce9aa6acd0332981bb46167e8baf98e86f451491f59f",
    },
}
PINNED_IDS = ["defaults", "tracker_100hz", "yaw_7hz", "slanted_levers", "multi_block"]


@pytest.mark.parametrize("config", PINNED_STREAMS, ids=PINNED_IDS)
def test_streams_match_pinned_fingerprints(tmp_path, capsys, config):
    (tmp_path / "scenario.cfg").write_text(config)
    assert main(["simulate", "--config", str(tmp_path / "scenario.cfg"), "--out-dir", str(tmp_path)]) == 0
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in PINNED_STREAMS[config]
    }
    assert digests == PINNED_STREAMS[config]


NO_SAMPLES = "duration_s = 0.005\nidle_duration_s = 0.001\n"
CONSUMER_CONFIGS = [*PINNED_STREAMS, NO_SAMPLES]
CONSUMER_IDS = [*PINNED_IDS, "no_samples"]


def simulate(tmp_path, config):
    """Run ``simulate`` on ``config`` text; its exit code and output directory."""
    (tmp_path / "scenario.cfg").write_text(config)
    out = tmp_path / "out"
    argv = ["simulate", "--config", str(tmp_path / "scenario.cfg"), "--out-dir", str(out)]
    return main(argv), out


@pytest.mark.parametrize("config", CONSUMER_CONFIGS, ids=CONSUMER_IDS)
def test_the_public_writers_reproduce_simulates_files(tmp_path, capsys, config):
    """simulate formats the scenario's arrays; the public writers, run over
    generate_scenario's objects and truth table, write the same bytes."""
    code, out = simulate(tmp_path, config)
    assert code == 0
    imu, rts, truth = generate_scenario(parse_scenario_config(config))
    write_truth_csv(truth, tmp_path / "truth.csv")
    assert (out / "imu.txt").read_bytes() == "".join(write_imu_line(s) + "\n" for s in imu).encode()
    assert (out / "rts.txt").read_bytes() == "".join(write_rts_line(o) + "\n" for o in rts).encode()
    assert (out / "truth.csv").read_bytes() == (tmp_path / "truth.csv").read_bytes()


def constructed(cfg):
    """The scenario's objects as the dataclass constructors build them from
    its arrays, one row at a time."""
    (t, accel, gyro), rts, _ = _scenario(cfg)
    imu = [ImuSample(float(t[i]), accel[i], gyro[i]) for i in range(len(t))]
    obs = [RtsObservation(*map(float, row)) for row in zip(*rts)]
    return imu, obs


def assert_same_fields(made, built):
    """Field by field, in declaration order, each slot filled: float64 (3,)
    arrays and Python floats of the same bits."""
    assert type(made) is type(built) and not hasattr(made, "__dict__")
    for f in dataclasses.fields(built):
        name, value = f.name, getattr(built, f.name)
        got = getattr(made, name)  # AttributeError for a slot left unfilled
        if isinstance(value, np.ndarray):
            assert type(got) is np.ndarray and got.dtype == np.float64 and got.shape == (3,)
            assert got.tobytes() == value.tobytes(), name
        else:
            assert type(got) is float and got.hex() == value.hex(), name


@pytest.mark.parametrize("config", CONSUMER_CONFIGS, ids=CONSUMER_IDS)
def test_generated_objects_equal_those_the_dataclass_constructors_build(config):
    """generate_scenario fills its objects without their constructors; each
    holds what the constructor would store. The arrays are rows of one array
    per stream. Truth is one float64 table on the IMU grid: its angles are
    the motion profile's at its times, and every POI row is the config's POI."""
    cfg = parse_scenario_config(config)
    imu, rts, truth = generate_scenario(cfg)
    for stream, reference in zip((imu, rts), constructed(cfg), strict=True):
        assert len(stream) == len(reference)
        for item, built in zip(stream, reference):
            assert_same_fields(item, built)
    for arrays in ([s.accel for s in imu], [s.gyro for s in imu]):
        assert all(a.base is not None and a.base is arrays[0].base for a in arrays)
        assert all(a.base.shape == (len(arrays), 3) for a in arrays)
    assert type(truth) is np.ndarray and truth.dtype == np.float64
    assert truth.shape == (len(imu), len(TRUTH_CSV_HEADER.split(",")))
    assert [t.hex() for t in truth[:, 0].tolist()] == [s.timestamp.hex() for s in imu]
    assert np.array_equal(truth[:, 7:10], np.broadcast_to(cfg.poi_nav, (len(imu), 3)))
    rows = truth[:: max(1, len(truth) // 7)]
    assert_allclose(rows[:, 1:4], np.transpose(_motion(cfg, rows[:, 0])[0]), atol=1e-15)


def random_columns(n, seed):
    """Valid columns of ``n`` IMU samples (times, two (n, 3) tables) and of
    ``n`` observations (four lists of floats)."""
    rng = np.random.default_rng(seed)
    t = np.cumsum(rng.uniform(0.001, 0.02, n)).tolist()
    imu = (t, rng.normal(0.0, 5.0, (n, 3)), rng.normal(0.0, 0.5, (n, 3)))
    rts = (t, rng.uniform(1.0, 100.0, n).tolist(), rng.uniform(-math.pi, math.pi, n).tolist(),
           rng.uniform(0.1, 3.0, n).tolist())
    return imu, rts


def assert_constructed(made, cls, rows):
    """``made`` holds, object by object, what ``cls(*row)`` builds of each row."""
    assert type(made) is list and len(made) == len(rows)
    for item, row in zip(made, rows, strict=True):
        assert_same_fields(item, cls(*row))


@pytest.mark.parametrize("n", [0, 1, 500])
def test_fill_makes_what_the_dataclass_constructors_make(n):
    """_fill stores each column's values as they are: the objects equal the
    constructors', and each sample's arrays are rows of the given tables."""
    imu, rts = random_columns(n, seed=n)
    samples = _fill(ImuSample, *imu)
    assert_constructed(samples, ImuSample, list(zip(*imu)))
    assert all(s.accel.base is imu[1] and s.gyro.base is imu[2] for s in samples)
    assert_constructed(_fill(RtsObservation, *rts), RtsObservation, list(zip(*rts)))
    with pytest.raises(ValueError):
        _fill(RtsObservation, *rts[:3])


@pytest.mark.parametrize("n", [0, 1, 500])
def test_bulk_readers_make_what_the_dataclass_constructors_make(tmp_path, n):
    """_read_imu and _read_rts fill their objects with _fill; each equals the
    constructor's of its row of the file's table, angles in radians."""
    imu, rts = random_columns(n, seed=100 + n)
    imu_path, rts_path = tmp_path / "imu.txt", tmp_path / "rts.txt"
    imu_path.write_text("".join(write_imu_line(s) + "\n" for s in _fill(ImuSample, *imu)))
    rts_path.write_text("".join(write_rts_line(o) + "\n" for o in _fill(RtsObservation, *rts)))

    table = codec._read_records(imu_path, codec._IMU)
    samples = codec._read_imu(imu_path)
    assert_constructed(samples, ImuSample, [(r[0], r[1:4], r[4:7]) for r in table.tolist()])
    assert all(s.accel.base is samples[0].accel.base is s.gyro.base for s in samples)
    table = codec._read_records(rts_path, codec._RTS) * codec._RTS.radians
    assert_constructed(codec._read_rts(rts_path), RtsObservation, table.tolist())


# Messages the parent printed for each fault, pinned.
SCENARIO_FAULTS = {
    "rts_range_sigma_m = 50\n": "slant distance must be positive, got -22.07482646651928",
    "rts_angle_sigma_rad = 3\n":
        "zenith angle must lie strictly between 0 and pi, got 3.917439573473869",
    "poi_nav = 0,0,0\n":
        "infeasible geometry at t=0.0: prism on the station's vertical axis, "
        "zenith angle undefined",
}


@pytest.mark.parametrize(
    "config", SCENARIO_FAULTS, ids=["negative_distance", "zenith_past_pi", "vertical_axis"]
)
def test_a_faulty_scenario_raises_and_simulate_writes_nothing(tmp_path, capsys, config):
    message = SCENARIO_FAULTS[config]
    with pytest.raises(ValueError) as raised:
        generate_scenario(parse_scenario_config(config))
    assert str(raised.value) == message
    code, out = simulate(tmp_path, config)
    assert code == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not out.exists()


# Three IMU blocks at the default block size, the last partial; a 7 Hz
# tracker off the 333 Hz IMU grid, slanted levers and a yaw rate.
MULTI_BLOCK = ScenarioConfig(
    duration_s=27.3, imu_rate_hz=333.0, rts_rate_hz=7.0, seed=13,
    lever_arms=LeverArms(np.array([0.05, 0.1, 0.08]), np.array([0.3, -0.2, -0.9])),
    yaw_deg=170.0, yaw_rate_deg_s=11.0, roll_phase_rad=0.7, pitch_phase_rad=-0.2,
)


def scenario_bytes(cfg):
    """Every array _scenario returns, as (shape, raw bytes): signed zeros count."""
    (t, accel, gyro), rts, truth = _scenario(cfg)
    return [(a.shape, a.tobytes()) for a in (t, accel, gyro, rts, truth)]


@pytest.mark.parametrize("block", [1, 7, 10_000])
def test_the_block_size_moves_no_bit(monkeypatch, block):
    """_scenario computes its grids a block of rows at a time; any block size,
    one row, an odd size or the whole stream, gives the default's bytes."""
    reference = scenario_bytes(MULTI_BLOCK)
    n_imu = reference[0][0][0]
    assert n_imu == 9090 and n_imu > 2 * sim._BLOCK and n_imu % sim._BLOCK
    monkeypatch.setattr(sim, "_BLOCK", block)
    assert scenario_bytes(MULTI_BLOCK) == reference


def test_a_faulty_scenario_raises_alike_one_row_at_a_time(monkeypatch):
    """Each fault's message is the whole-stream one with one-row blocks too."""
    monkeypatch.setattr(sim, "_BLOCK", 1)
    for config, message in SCENARIO_FAULTS.items():
        with pytest.raises(ValueError) as raised:
            _scenario(parse_scenario_config(config))
        assert str(raised.value) == message


# Beyond its ~8.3 MB of outputs, a 600 s scenario's temporaries (one
# 4096-row block, and the observation check's copy) trace to ~2.0 MB;
# whole-stream temporaries took its peak to ~28 MB.
WORKING_SET_MARGIN = 3_000_000


def test_the_generator_holds_its_outputs_plus_one_block():
    """_scenario's traced peak on a 600 s scenario, 60 000 IMU rows, stays
    within the bytes of the arrays it returns plus one block's margin."""
    tracemalloc.start()
    try:
        (t, accel, gyro), rts, truth = _scenario(ScenarioConfig(duration_s=600.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    outputs = sum(a.nbytes for a in (t, accel, gyro, rts, truth))
    assert len(t) == 60_000 and outputs > 8_000_000
    assert peak <= outputs + WORKING_SET_MARGIN, f"peak {peak} B, outputs {outputs} B"


def test_a_scenario_with_no_samples_writes_empty_streams(tmp_path, capsys):
    code, out = simulate(tmp_path, NO_SAMPLES)
    assert code == 0
    printed = capsys.readouterr().out
    assert printed == f"wrote 0 IMU samples, 0 observations, 0 truth rows to {out}\n"
    assert (out / "imu.txt").read_bytes() == b""
    assert (out / "rts.txt").read_bytes() == b""
    assert (out / "truth.csv").read_bytes() == f"{TRUTH_CSV_HEADER}\n".encode()
    imu, rts, truth = generate_scenario(parse_scenario_config(NO_SAMPLES))
    assert imu == [] and rts == []
    assert truth.shape == (0, 10) and truth.dtype == np.float64


def test_halving_gyro_density_halves_attitude_wander():
    # with a noiseless accelerometer the filter is linear in the gyro noise,
    # so scaling the density scales the static attitude error exactly
    from tiltcomp import FilterConfig, FilterState, filter_step, calibrate_bias

    def run(density):
        cfg = ScenarioConfig(
            duration_s=15.0,
            idle_duration_s=10.0,
            roll_amplitude_deg=0.0,
            pitch_amplitude_deg=0.0,
            noise=NoiseSpec(
                gyro_noise_density_deg=density,
                gyro_bias_deg_per_h=0.0,
                accel_sigma=0.0,
                rts_range_sigma_m=0.0,
                rts_angle_sigma_rad=0.0,
            ),
            seed=31,
        )
        imu, _, _ = generate_scenario(cfg)
        fc = FilterConfig()
        bias = calibrate_bias(imu[:1000], fc.bias_calibration_count)
        state = FilterState(gyro_bias=bias)
        rolls = []
        for sample in imu[999:]:
            state = filter_step(state, sample, fc)
            rolls.append(state.attitude.roll)
        return np.asarray(rolls)

    full = run(0.0005)
    half = run(0.00025)
    assert np.any(full != 0.0)
    # exact up to the absolute rounding floor the angle wrap introduces
    assert_allclose(half, full * 0.5, rtol=0.0, atol=5e-15)
    assert np.std(half) / np.std(full) == pytest.approx(0.5, abs=1e-6)
