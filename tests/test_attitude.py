import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from tiltcomp import (
    Attitude,
    FilterConfig,
    FilterState,
    ImuSample,
    accel_angles,
    adaptive_alpha,
    calibrate_bias,
    filter_step,
    set_yaw,
    wrap_angle,
)

G = 9.80665


def static_accel(roll, pitch, gravity=G):
    """Specific force a level-frame accelerometer reads at the given tilt."""
    return np.array(
        [
            -gravity * math.sin(pitch),
            gravity * math.sin(roll) * math.cos(pitch),
            gravity * math.cos(roll) * math.cos(pitch),
        ]
    )


@pytest.mark.parametrize(
    "angle, expected",
    [
        (0.0, 0.0),
        (math.pi, math.pi),
        (-math.pi, math.pi),
        (3 * math.pi, math.pi),
        (-3 * math.pi, math.pi),
        (math.pi / 2, math.pi / 2),
        (2 * math.pi, 0.0),
        (7.0, 7.0 - 2 * math.pi),
    ],
)
def test_wrap_angle_values(angle, expected):
    assert wrap_angle(angle) == pytest.approx(expected, abs=1e-12)


def test_wrap_angle_range_random():
    rng = np.random.default_rng(11)
    for angle in rng.uniform(-50.0, 50.0, size=500):
        wrapped = wrap_angle(angle)
        assert -math.pi < wrapped <= math.pi
        # wrapping must preserve the angle modulo a full turn
        assert math.remainder(wrapped - angle, 2 * math.pi) == pytest.approx(
            0.0, abs=1e-9
        )


@settings(max_examples=500, deadline=None)
@given(
    st.one_of(
        st.floats(-1e6, 1e6),
        st.floats(-math.pi, math.pi),
        st.sampled_from([math.pi, -math.pi, math.nextafter(-math.pi, 0.0), -0.0, 5e-324]),
    )
)
def test_wrap_angle_is_idempotent(angle):
    """Bit for bit, so a yaw wrapped once (Pipeline.set_yaw) is the yaw the
    filter's seed step, which wraps it again, starts the stream with."""
    wrapped = wrap_angle(angle)
    assert wrap_angle(wrapped).hex() == wrapped.hex()


def test_accel_angles_level():
    roll, pitch = accel_angles(np.array([0.0, 0.0, G]))
    assert roll == 0.0
    assert pitch == 0.0


def test_accel_angles_diagonal_roll():
    roll, pitch = accel_angles(np.array([0.0, 6.9367, 6.9367]))
    assert roll == pytest.approx(math.pi / 4, abs=1e-15)
    assert pitch == 0.0


def test_accel_angles_nose_down_singularity():
    roll, pitch = accel_angles(np.array([-9.81, 0.0, 0.0]))
    assert pitch == pytest.approx(math.pi / 2, abs=1e-15)


def test_accel_angles_zero_norm_rejected():
    with pytest.raises(ValueError, match="zero"):
        accel_angles(np.zeros(3))


@pytest.mark.parametrize("roll_deg", [-60.0, -30.0, 0.0, 30.0, 60.0])
@pytest.mark.parametrize("pitch_deg", [-60.0, -30.0, 0.0, 30.0, 60.0])
def test_accel_angles_recovers_static_tilt(roll_deg, pitch_deg):
    roll = math.radians(roll_deg)
    pitch = math.radians(pitch_deg)
    got_roll, got_pitch = accel_angles(static_accel(roll, pitch))
    assert got_roll == pytest.approx(roll, abs=1e-12)
    assert got_pitch == pytest.approx(pitch, abs=1e-12)


def test_accel_angles_ranges_random():
    rng = np.random.default_rng(7)
    count = 0
    while count < 300:
        accel = rng.standard_normal(3) * 10.0
        if np.linalg.norm(accel) < 1e-6:
            continue
        roll, pitch = accel_angles(accel)
        assert -math.pi <= roll <= math.pi
        assert -math.pi / 2 <= pitch <= math.pi / 2
        count += 1


def test_adaptive_alpha_at_rest_and_saturated():
    cfg = FilterConfig()
    assert adaptive_alpha(np.array([0.0, 0.0, G]), cfg) == cfg.alpha_base
    # half the threshold puts alpha halfway between the base and 1
    assert adaptive_alpha(np.array([0.0, 0.0, G + 0.5]), cfg) == pytest.approx(
        0.95, abs=1e-12
    )
    assert adaptive_alpha(np.array([0.0, 0.0, G + 1.0]), cfg) == 1.0
    assert adaptive_alpha(np.array([0.0, 0.0, G + 7.3]), cfg) == 1.0
    assert adaptive_alpha(np.array([0.0, 0.0, G - 2.0]), cfg) == 1.0


def test_adaptive_alpha_monotone_in_disturbance():
    cfg = FilterConfig()
    deltas = np.linspace(0.0, 5.0, 101)
    alphas = [adaptive_alpha(np.array([0.0, 0.0, G + d]), cfg) for d in deltas]
    assert all(b >= a for a, b in zip(alphas, alphas[1:]))
    assert all(cfg.alpha_base <= a <= 1.0 for a in alphas)


def test_filter_step_seeds_from_first_sample():
    state = FilterState(attitude=Attitude(yaw=1.0))
    sample = ImuSample(0.0, static_accel(0.3, -0.2), np.zeros(3))
    state = filter_step(state, sample, FilterConfig())
    assert state.attitude.roll == pytest.approx(0.3, abs=1e-12)
    assert state.attitude.pitch == pytest.approx(-0.2, abs=1e-12)
    assert state.attitude.yaw == 1.0
    assert state.last_alpha == 0.0
    assert state.last_timestamp == 0.0


def test_filter_step_blends_toward_accel():
    # stationary sensor held at 10 deg roll, accel reporting level
    cfg = FilterConfig(gravity=9.81)
    state = FilterState(
        attitude=Attitude(roll=math.radians(10.0)), last_timestamp=0.0
    )
    sample = ImuSample(0.01, np.array([0.0, 0.0, 9.81]), np.zeros(3))
    state = filter_step(state, sample, cfg)
    assert state.attitude.roll == pytest.approx(math.radians(9.0), rel=1e-14)
    assert state.last_alpha == 0.9


def test_filter_step_pure_integration_when_disturbed():
    state = FilterState(attitude=Attitude(), last_timestamp=0.0)
    sample = ImuSample(0.01, np.array([0.0, 0.0, G + 2.0]), np.array([0.1, 0.0, 0.0]))
    state = filter_step(state, sample, FilterConfig())
    assert state.last_alpha == 1.0
    assert state.attitude.roll == pytest.approx(0.001, rel=1e-12)


def test_filter_matches_gyro_integration_when_saturated():
    # accel far from gravity on every step: the accel term gets zero weight
    cfg = FilterConfig()
    accel = np.array([0.0, 11.0, 0.0])
    gyro = np.array([0.2, -0.1, 0.05])
    state = FilterState(attitude=Attitude(), last_timestamp=0.0)
    roll = pitch = yaw = 0.0
    for k in range(1, 51):
        state = filter_step(state, ImuSample(0.01 * k, accel, gyro), cfg)
        dt = 0.01 * k - 0.01 * (k - 1)
        roll = wrap_angle(roll + gyro[0] * dt)
        pitch = pitch + gyro[1] * dt
        yaw = wrap_angle(yaw + gyro[2] * dt)
        assert state.last_alpha == 1.0
    assert state.attitude.roll == roll
    assert state.attitude.pitch == pitch
    assert state.attitude.yaw == yaw


def test_bias_subtraction_is_exact_for_representable_rates():
    # bias and rates chosen so that (true + bias) - bias is exact in floats
    bias = np.array([0.25, -0.125, 0.5])
    true_rate = np.array([0.5, 0.25, -0.75])
    accel = np.array([0.0, 11.0, 0.0])

    biased = FilterState(attitude=Attitude(), last_timestamp=0.0, gyro_bias=bias)
    clean = FilterState(attitude=Attitude(), last_timestamp=0.0)
    for k in range(1, 101):
        sample_biased = ImuSample(0.01 * k, accel, true_rate + bias)
        sample_clean = ImuSample(0.01 * k, accel, true_rate)
        biased = filter_step(biased, sample_biased, FilterConfig())
        clean = filter_step(clean, sample_clean, FilterConfig())
    assert biased.attitude.roll == clean.attitude.roll
    assert biased.attitude.pitch == clean.attitude.pitch
    assert biased.attitude.yaw == clean.attitude.yaw


@pytest.mark.parametrize("offset", [-0.5, -0.1, 0.05, 0.3, 1.0])
def test_static_error_contracts_geometrically(offset):
    # under static accel the error must shrink at least as fast as alpha_base**n
    cfg = FilterConfig()
    target_roll, target_pitch = 0.2, -0.15
    accel = static_accel(target_roll, target_pitch)
    state = FilterState(
        attitude=Attitude(roll=target_roll + offset, pitch=target_pitch),
        last_timestamp=0.0,
    )
    err0 = abs(offset)
    for n in range(1, 201):
        state = filter_step(state, ImuSample(0.01 * n, accel, np.zeros(3)), cfg)
        bound = cfg.alpha_base**n * err0 * (1.0 + 1e-12) + 1e-12
        assert abs(state.attitude.roll - target_roll) <= bound


def test_yaw_integrates_and_wraps():
    cfg = FilterConfig()
    state = FilterState(attitude=Attitude(yaw=3.0), last_timestamp=0.0)
    gyro = np.array([0.0, 0.0, 1.0])
    state = filter_step(
        state, ImuSample(0.5, np.array([0.0, 0.0, G]), gyro), cfg
    )
    # 3.0 + 0.5 exceeds pi and must wrap to the negative side
    assert state.attitude.yaw == pytest.approx(3.5 - 2 * math.pi, abs=1e-12)


def test_pitch_estimate_stays_clamped():
    cfg = FilterConfig()
    state = FilterState(attitude=Attitude(pitch=1.5), last_timestamp=0.0)
    sample = ImuSample(0.01, np.array([0.0, 11.0, 0.0]), np.array([0.0, 50.0, 0.0]))
    state = filter_step(state, sample, cfg)
    assert state.attitude.pitch == math.pi / 2


def test_filter_step_rejects_decreasing_time():
    cfg = FilterConfig()
    state = FilterState(attitude=Attitude(), last_timestamp=1.0)
    sample = ImuSample(0.99, np.array([0.0, 0.0, G]), np.zeros(3))
    with pytest.raises(ValueError, match="timestamp"):
        filter_step(state, sample, cfg)
    # an identical timestamp is allowed and advances nothing
    repeat = ImuSample(1.0, np.array([0.0, 0.0, G]), np.zeros(3))
    state = filter_step(state, repeat, cfg)
    assert state.attitude.roll == 0.0


def test_filter_step_rejects_non_finite_sample():
    cfg = FilterConfig()
    state = FilterState(attitude=Attitude(), last_timestamp=0.0)
    sample = ImuSample(0.01, np.array([0.0, np.nan, G]), np.zeros(3))
    with pytest.raises(ValueError):
        filter_step(state, sample, cfg)


IMU_FIELDS = ("t", "ax", "ay", "az", "gx", "gy", "gz")


def imu_sample_with(field, value, t=0.01):
    """A level sample at ``t`` with one of its seven numbers set to ``value``."""
    numbers = [t, 0.0, 0.0, G, 0.0, 0.0, 0.0]
    numbers[IMU_FIELDS.index(field)] = value
    return ImuSample(numbers[0], numbers[1:4], numbers[4:7])


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", IMU_FIELDS)
def test_filter_step_rejects_each_non_finite_field(field, value):
    cfg = FilterConfig()
    for state in (FilterState(), FilterState(attitude=Attitude(), last_timestamp=0.0)):
        with pytest.raises(ValueError, match="non-finite"):
            filter_step(state, imu_sample_with(field, value), cfg)


def test_calibrate_bias_averages_samples():
    rng = np.random.default_rng(42)
    gyros = rng.normal(0.0, 0.001, size=(1000, 3))
    samples = [
        ImuSample(i * 0.01, np.array([0.0, 0.0, G]), gyros[i]) for i in range(1000)
    ]
    bias = calibrate_bias(samples)
    assert_allclose(bias, gyros.mean(axis=0), rtol=0.0, atol=1e-15)


def test_calibrate_bias_requires_enough_samples():
    samples = [ImuSample(i * 0.01, np.array([0.0, 0.0, G]), np.zeros(3)) for i in range(10)]
    with pytest.raises(ValueError, match="1000"):
        calibrate_bias(samples)
    bias = calibrate_bias(samples, min_count=10)
    assert_allclose(bias, np.zeros(3))


@pytest.mark.parametrize("min_count", [math.nan, math.inf, 0, -1, 2.5, 10.0, "10", True, False])
def test_calibrate_bias_rejects_a_count_that_is_not_an_integer_of_at_least_one(min_count):
    samples = [ImuSample(i * 0.01, np.array([0.0, 0.0, G]), np.ones(3)) for i in range(10)]
    with pytest.raises(ValueError, match="min_count must be an integer >= 1"):
        calibrate_bias(samples, min_count)
    assert_allclose(calibrate_bias(samples[:1], 1), np.ones(3))


@pytest.mark.parametrize(
    "bias, message",
    [
        ([math.nan, 0.0, 0.0], "must be finite"),
        ([0.0, math.inf, 0.0], "must be finite"),
        ([0.0, 0.0, -math.inf], "must be finite"),
        ([0.0, 0.0], r"must be a 3-vector, got shape \(2,\)"),
        ([0.0, 0.0, 0.0, 0.0], r"must be a 3-vector, got shape \(4,\)"),
        (np.zeros((3, 1)), r"must be a 3-vector, got shape \(3, 1\)"),
    ],
)
def test_filter_state_rejects_a_gyro_bias_that_is_not_a_finite_3_vector(bias, message):
    with pytest.raises(ValueError, match="gyro_bias " + message):
        FilterState(gyro_bias=bias)
    state = FilterState(gyro_bias=[1, 2, 3])
    assert state.gyro_bias.dtype == float
    assert state.gyro_bias.tolist() == [1.0, 2.0, 3.0]


def test_set_yaw_preserves_roll_and_pitch():
    state = FilterState(
        attitude=Attitude(roll=0.1, pitch=-0.2, yaw=0.5), last_timestamp=3.0
    )
    updated = set_yaw(state, 3 * math.pi)
    assert updated.attitude.yaw == pytest.approx(math.pi, abs=1e-12)
    assert updated.attitude.roll == state.attitude.roll
    assert updated.attitude.pitch == state.attitude.pitch
    assert updated.last_timestamp == 3.0
    # original state is untouched
    assert state.attitude.yaw == 0.5


@pytest.mark.parametrize(
    "kwargs",
    [
        {"alpha_base": 1.5},
        {"alpha_base": -0.1},
        {"delta_a_threshold": 0.0},
        {"delta_a_threshold": -1.0},
        {"gravity": 0.0},
        {"bias_calibration_count": 0},
        {"gravity": math.nan},
        {"gravity": math.inf},
        {"delta_a_threshold": math.nan},
        {"delta_a_threshold": math.inf},
    ],
)
def test_filter_config_validation(kwargs):
    with pytest.raises(ValueError):
        FilterConfig(**kwargs)


def test_imu_sample_converts_sequences_to_arrays():
    accel = [0.0, 0.0, G]
    sample = ImuSample(0.0, accel, [0.1, 0.2, 0.3])
    assert isinstance(sample.accel, np.ndarray)
    assert sample.accel.shape == (3,)
    assert sample.gyro.shape == (3,)


BAD_READINGS = {
    "3x1": np.array([[0.0], [0.0], [G]]),
    "2": [0.0, G],
    "4": [0.0, 0.0, G, 0.0],
}


@pytest.mark.parametrize("reading", BAD_READINGS.values(), ids=BAD_READINGS.keys())
@pytest.mark.parametrize("which", ["accel", "gyro"])
def test_readings_not_of_shape_3_are_rejected(which, reading):
    readings = {"accel": [0.0, 0.0, G], "gyro": [0.0, 0.0, 0.0], which: reading}
    with pytest.raises(ValueError, match=r"shape \(3,\)"):
        ImuSample(0.01, **readings)
    cfg = FilterConfig()
    for state in (FilterState(), FilterState(attitude=Attitude(), last_timestamp=0.0)):
        with pytest.raises(ValueError, match=r"shape \(3,\)"):
            filter_step(state, ImuSample(0.01, **readings), cfg)


def test_kernel_accel_norm_is_bitwise_numpy_norm():
    from tiltcomp.attitude import _accel_norm

    rng = np.random.default_rng(23)
    readings = np.concatenate(
        [
            rng.normal(0.0, 1.0, size=(5000, 3)) + np.array([0.0, 0.0, G]),
            rng.uniform(-40.0, 40.0, size=(5000, 3)),
            rng.normal(0.0, 1e-3, size=(2000, 3)),
        ]
    )
    naive_differs = 0
    for accel in readings:
        norm = _accel_norm(accel)
        assert norm.hex() == float(np.linalg.norm(accel)).hex(), accel.tolist()
        ax, ay, az = accel.tolist()
        naive_differs += math.sqrt(ax * ax + ay * ay + az * az) != norm
    # numpy's norm rounds through fused multiply-adds: a plain sum of squares
    # differs on some of these readings, so they can tell the two apart.
    assert naive_differs > 0
