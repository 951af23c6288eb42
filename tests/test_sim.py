import dataclasses
import hashlib
import math
import re
import sys

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
    (roll, pitch, yaw), _ = _motion(cfg, np.array([t]))
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
    (roll, pitch, _), _ = _motion(quiet(duration_s=300.0), np.linspace(0.0, 200.0, 400))
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


def test_specific_force_matches_lever_swing_acceleration():
    cfg = quiet()
    imu, _, truth = generate_scenario(cfg)
    for i in (150, 237):
        sample = imu[i]
        r = rotation_b_to_n(Attitude(*truth[i, 1:4]))
        a_nav = r @ sample.accel - np.array([0.0, 0.0, cfg.gravity])
        expected = lever_kinematic_accel(
            lambda s: attitude_at(cfg, s),
            cfg.lever_arms,
            sample.timestamp,
            motion_start=cfg.idle_duration_s,
        )
        assert_allclose(a_nav, expected, atol=1e-6)


def test_no_acceleration_glitch_at_motion_onset():
    cfg = quiet()
    imu, _, _ = generate_scenario(cfg)
    deviation = np.array([abs(np.linalg.norm(s.accel) - G) for s in imu])
    # a stencil crossing the idle/motion kink would blow this up by orders
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
    # defaults: the IMU grid holds the forward-stencil row at t = 10.0 s
    "duration_s = 30\n": (
        "be356ccf0207df678a8cf32f8f886e152ecfe602108509cbac80c85974883f26",
        "d71e65c1248f1a76fe72d005b8116bf55f92e1733ef22088ec3c3100448a19b9",
        "fe3852982c62b6d90b743d002d80b6f0da41c679972246e6c536bc755b28493d",
    ),
    "duration_s = 30\nseed = 5\nrts_rate_hz = 100\nroll_amplitude_deg = 20\n"
    "roll_frequency_hz = 0.3\npitch_amplitude_deg = 20\npitch_frequency_hz = 0.24\n": (
        "38b86ed97af73cace26af5ffc0e68cfc6f392954dec2afc6d598f69f0129e9c1",
        "d5f77edaf346a4e0ef5ae3ced781bc5d0892d29f67c2efce90ec195f517ed39a",
        "e9ccf6c283bef1a2f8d6a7e68d43aac7fcfcfccae8979b2be2155d2e803d2ef2",
    ),
    "duration_s = 40\nseed = 9\nyaw_deg = 30\nyaw_rate_deg_s = -7\nroll_phase_rad = 0.4\n"
    "pitch_phase_rad = -0.3\nrts_rate_hz = 7\n": (
        "a05a9f2b29094101b942e9013204b2db2ec4ec8975472d67451e0dea79ef5a5b",
        "de17702ea3c227a331fc244b1631e9f5b69cecf7749edc10fc52ec340ff5a923",
        "53dd1dc7c486fe09ca42554ffc3ffdaf8ff591935edae06a7a952aa81bdc0b0d",
    ),
}


@pytest.mark.parametrize("config", PINNED_STREAMS, ids=["defaults", "tracker_100hz", "yaw_7hz"])
def test_streams_match_pinned_fingerprints(tmp_path, capsys, config):
    (tmp_path / "scenario.cfg").write_text(config)
    assert main(["simulate", "--config", str(tmp_path / "scenario.cfg"), "--out-dir", str(tmp_path)]) == 0
    digests = tuple(
        hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in ("imu.txt", "rts.txt", "truth.csv")
    )
    assert digests == PINNED_STREAMS[config]


NO_SAMPLES = "duration_s = 0.005\nidle_duration_s = 0.001\n"
CONSUMER_CONFIGS = [*PINNED_STREAMS, NO_SAMPLES]
CONSUMER_IDS = ["defaults", "tracker_100hz", "yaw_7hz", "no_samples"]


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
    """Field by field: float64 (3,) arrays and Python floats of the same bits."""
    assert type(made) is type(built) and list(vars(made)) == list(vars(built))
    for name, value in vars(built).items():
        got = getattr(made, name)
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
