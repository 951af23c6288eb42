import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from tiltcomp import (
    Attitude,
    LeverArms,
    NoiseSpec,
    ScenarioConfig,
    generate_scenario,
    poi_position,
    polar_to_cartesian,
    rotation_b_to_n,
    truth_attitude,
)

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


def quiet(**kwargs):
    kwargs.setdefault("noise", NoiseSpec.zero())
    kwargs.setdefault("duration_s", 3.0)
    kwargs.setdefault("idle_duration_s", 1.0)
    return ScenarioConfig(**kwargs)


def test_sample_counts_follow_rates():
    imu, rts, truth = generate_scenario(quiet())
    assert len(imu) == 300
    assert len(rts) == 15
    assert len(truth) == 300

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
    assert all(truth[i].timestamp == imu[i].timestamp for i in range(300))


def test_static_scene_reads_gravity_and_zero_rates():
    cfg = quiet(roll_amplitude_deg=0.0, pitch_amplitude_deg=0.0)
    imu, _, truth = generate_scenario(cfg)
    for sample in imu[::17]:
        assert np.array_equal(sample.gyro, np.zeros(3))
        assert_allclose(sample.accel, [0.0, 0.0, G], atol=1e-12)
    for s in truth[::17]:
        assert s.attitude == Attitude()
        assert_allclose(s.prism_nav, [5.0, 0.0, 1.0676], rtol=1e-12)
        assert_allclose(s.poi_nav, [5.0, 0.0, 0.0], atol=0.0)


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
    for s in truth[:100]:
        assert s.attitude == Attitude()


def test_truth_attitude_follows_offset_sinusoid():
    cfg = quiet()
    assert truth_attitude(cfg, 0.5) == Attitude()
    # tilt starts from zero at motion onset and stays continuous
    assert truth_attitude(cfg, cfg.idle_duration_s) == Attitude()
    amp = math.radians(60.0)
    w = 2.0 * math.pi * 0.010
    att = truth_attitude(cfg, cfg.idle_duration_s + 12.5)
    assert att.roll == pytest.approx(amp * math.sin(w * 12.5), rel=1e-12)

    peak = amp * 2.0  # amplitude plus phase offset can reach double
    for t in np.linspace(0.0, 200.0, 400):
        a = truth_attitude(quiet(duration_s=300.0), t)
        assert abs(a.roll) <= peak + 1e-12
        assert abs(a.pitch) <= peak + 1e-12


def test_truth_samples_are_self_consistent():
    cfg = quiet()
    _, _, truth = generate_scenario(cfg)
    for s in truth[::23]:
        rebuilt = poi_position(s.prism_nav, s.attitude, cfg.lever_arms)
        assert_allclose(rebuilt, s.poi_nav, atol=1e-12)


def test_prism_actually_moves_while_poi_stays_fixed():
    _, _, truth = generate_scenario(quiet())
    prism = np.array([s.prism_nav for s in truth])
    poi = np.array([s.poi_nav for s in truth])
    assert np.ptp(poi, axis=0).max() == 0.0
    assert np.ptp(prism, axis=0).max() > 0.05


def test_observations_back_convert_to_true_prism():
    cfg = quiet()
    _, rts, truth = generate_scenario(cfg)
    for j, obs in enumerate(rts):
        prism = polar_to_cartesian(obs) + cfg.rts_station
        assert_allclose(prism, truth[20 * j].prism_nav, atol=1e-9)


def test_gyro_encodes_body_rates_for_euler_motion():
    # independent check: body rates from finite differences of the true angles
    cfg = quiet(yaw_rate_deg_s=2.0)
    imu, _, _ = generate_scenario(cfg)
    h = 1e-6
    for i in (150, 211, 299):
        t = imu[i].timestamp
        before = truth_attitude(cfg, t - h)
        after = truth_attitude(cfg, t + h)
        roll_rate = (after.roll - before.roll) / (2.0 * h)
        pitch_rate = (after.pitch - before.pitch) / (2.0 * h)
        yaw_rate = (after.yaw - before.yaw) / (2.0 * h)
        att = truth_attitude(cfg, t)
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
    imu, _, _ = generate_scenario(cfg)
    for i in (150, 237):
        sample = imu[i]
        att = truth_attitude(cfg, sample.timestamp)
        r = rotation_b_to_n(att)
        a_nav = r @ sample.accel - np.array([0.0, 0.0, cfg.gravity])
        expected = lever_kinematic_accel(
            lambda s: truth_attitude(cfg, s),
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
    assert truth_attitude(cfg, 0.5).yaw == pytest.approx(math.pi / 2, abs=1e-12)
    att = truth_attitude(cfg, cfg.idle_duration_s + 10.0)
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


def test_noise_zero_factory():
    spec = NoiseSpec.zero()
    assert spec.gyro_noise_density_deg == 0.0
    assert spec.gyro_bias_deg_per_h == 0.0
    assert spec.accel_sigma == 0.0
    assert spec.rts_range_sigma_m == 0.0
    assert spec.rts_angle_sigma_rad == 0.0


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
