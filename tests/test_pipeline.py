import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from tiltcomp import (
    Attitude,
    FilterConfig,
    HelmertParams,
    ImuSample,
    LeverArms,
    Pipeline,
    PipelineConfig,
    RtsObservation,
    apply_helmert,
    poi_position,
    polar_to_cartesian,
)

G = 9.80665
LEVEL = np.array([0.0, 0.0, G])


def imu_at(i, accel=LEVEL, gyro=(0.0, 0.0, 0.0)):
    """Sample on the exact i/100 second grid."""
    return ImuSample(i / 100.0, accel, np.asarray(gyro, dtype=float))


def obs_at(t):
    return RtsObservation(t, 5.0, 0.3, 1.5)


def fast_config(**kwargs):
    kwargs.setdefault("filter_config", FilterConfig(bias_calibration_count=10))
    return PipelineConfig(**kwargs)


def test_no_output_during_calibration():
    pipe = Pipeline(fast_config())
    pipe.push_rts(obs_at(0.02))
    for i in range(9):
        pipe.push_imu(imu_at(i))
    assert not pipe.calibrated
    assert pipe.gyro_bias is None
    assert pipe.latest_attitude is None
    assert pipe.drain() == []
    assert pipe.rts_buffered == 1


def test_calibration_completes_on_nth_sample():
    gyro = (0.01, -0.02, 0.005)
    pipe = Pipeline(fast_config())
    for i in range(10):
        pipe.push_imu(imu_at(i, gyro=gyro))
    assert pipe.calibrated
    assert_allclose(pipe.gyro_bias, gyro, rtol=1e-12)
    t, att = pipe.latest_attitude
    assert t == 0.09
    # seeded from the level accelerometer
    assert att.roll == 0.0
    assert att.pitch == 0.0


def test_bias_correction_holds_attitude_level():
    # a constant bias present during calibration must not tilt the estimate
    gyro = (0.01, -0.02, 0.005)
    pipe = Pipeline(fast_config())
    for i in range(200):
        pipe.push_imu(imu_at(i, gyro=gyro))
    _, att = pipe.latest_attitude
    assert abs(att.roll) < 1e-12
    assert abs(att.pitch) < 1e-12
    assert att.yaw == 0.0


def test_one_second_of_streams_gives_five_records(replay):
    imu = [imu_at(i) for i in range(200)]
    rts = [obs_at((100 + 20 * k) / 100.0) for k in range(5)]
    records, pipe = replay(imu, rts, fast_config())
    assert len(records) == 5
    assert pipe.rts_buffered == 0
    for record, obs in zip(records, rts):
        assert record.timestamp == obs.timestamp
        assert record.imu_timestamp_used == obs.timestamp


def test_unaligned_observation_uses_latest_earlier_attitude(replay):
    imu = [imu_at(i) for i in range(200)]
    rts = [RtsObservation(1.213, 5.0, 0.3, 1.5)]
    records, _ = replay(imu, rts, fast_config())
    assert len(records) == 1
    assert records[0].imu_timestamp_used == 1.21


def test_latency_shifts_the_pairing_time(replay):
    imu = [imu_at(i) for i in range(200)]
    rts = [RtsObservation(3.5, 5.0, 0.3, 1.5)]
    records, _ = replay(imu, rts, fast_config(rts_latency_s=2.0))
    assert len(records) == 1
    assert records[0].timestamp == 3.5
    assert records[0].imu_timestamp_used == 1.5


def test_tolerance_allows_slightly_later_attitude():
    imu = [imu_at(i) for i in range(200)]
    obs = RtsObservation(1.003, 5.0, 0.3, 1.5)

    strict = Pipeline(fast_config())
    for s in imu:
        strict.push_imu(s)
    strict.push_rts(obs)
    assert strict.drain()[0].imu_timestamp_used == 1.0

    loose = Pipeline(fast_config(pairing_tolerance_s=0.25))
    for s in imu:
        loose.push_imu(s)
    loose.push_rts(obs)
    assert loose.drain()[0].imu_timestamp_used == 1.25


def test_observation_before_first_attitude_blocks_the_queue():
    pipe = Pipeline(fast_config())
    for i in range(200):
        pipe.push_imu(imu_at(i))
    pipe.push_rts(obs_at(0.01))
    pipe.push_rts(obs_at(1.5))
    # the head has no eligible attitude, so nothing behind it is emitted either
    assert pipe.drain() == []
    assert pipe.rts_buffered == 2


def test_ring_buffer_drops_oldest_past_capacity():
    pipe = Pipeline(fast_config(rts_buffer_capacity=4))
    for k in range(10):
        pipe.push_rts(obs_at(20 * k / 100.0))
    assert pipe.rts_buffered == 4
    assert pipe.rts_dropped == 6

    # the survivors are the newest four
    for i in range(200):
        pipe.push_imu(imu_at(i))
    records = pipe.drain()
    assert [r.timestamp for r in records] == [1.2, 1.4, 1.6, 1.8]


def test_records_come_out_in_observation_order(replay):
    imu = [imu_at(i) for i in range(400)]
    rts = [obs_at((100 + 20 * k) / 100.0) for k in range(14)]
    records, _ = replay(imu, rts, fast_config())
    times = [r.timestamp for r in records]
    assert times == sorted(times)
    assert len(records) == 14


def test_records_are_self_consistent(replay):
    cfg = fast_config(
        helmert=HelmertParams(translation=np.array([100.0, 200.0, 300.0]))
    )
    imu = [imu_at(i) for i in range(200)]
    rts = [obs_at(1.5)]
    records, _ = replay(imu, rts, cfg)
    record = records[0]

    prism_expected = apply_helmert(cfg.helmert, polar_to_cartesian(rts[0]))
    assert np.array_equal(record.prism_nav, prism_expected)
    poi_expected = poi_position(record.prism_nav, record.attitude_used, cfg.lever_arms)
    assert np.array_equal(record.poi_nav, poi_expected)
    assert record.alpha_used == 0.9


def test_replay_is_bit_deterministic(replay):
    rng = np.random.default_rng(23)
    imu = [
        imu_at(i, accel=LEVEL + rng.normal(0.0, 0.01, size=3), gyro=rng.normal(0.0, 1e-4, size=3))
        for i in range(300)
    ]
    rts = [obs_at((100 + 20 * k) / 100.0) for k in range(9)]
    first, _ = replay(imu, rts, fast_config())
    second, _ = replay(imu, rts, fast_config())
    assert len(first) == len(second) == 9
    for a, b in zip(first, second):
        assert a.timestamp == b.timestamp
        assert np.array_equal(a.prism_nav, b.prism_nav)
        assert np.array_equal(a.poi_nav, b.poi_nav)
        assert a.attitude_used == b.attitude_used
        assert a.alpha_used == b.alpha_used
        assert a.imu_timestamp_used == b.imu_timestamp_used


def test_drain_timing_does_not_change_strict_replay_output(replay):
    imu = [imu_at(i) for i in range(300)]
    rts = [obs_at((100 + 20 * k) / 100.0) for k in range(9)]
    interleaved, _ = replay(imu, rts, fast_config())

    batch = Pipeline(fast_config())
    for s in imu:
        batch.push_imu(s)
    for o in rts:
        batch.push_rts(o)
    single = batch.drain()

    assert len(interleaved) == len(single)
    for a, b in zip(interleaved, single):
        assert a.timestamp == b.timestamp
        assert a.imu_timestamp_used == b.imu_timestamp_used
        assert np.array_equal(a.poi_nav, b.poi_nav)


def test_hold_yaw_pins_heading_while_gyro_spins():
    imu_idle = [imu_at(i) for i in range(10)]
    imu_turn = [imu_at(10 + i, gyro=(0.0, 0.0, 0.1)) for i in range(100)]

    held = Pipeline(fast_config())
    free = Pipeline(fast_config(hold_yaw=False))
    for s in imu_idle + imu_turn:
        held.push_imu(s)
        free.push_imu(s)

    assert held.latest_attitude[1].yaw == 0.0
    assert free.latest_attitude[1].yaw == pytest.approx(0.1, rel=1e-9)


def test_set_yaw_feeds_through_to_records(replay):
    heading = math.radians(30.0)
    pipe = Pipeline(fast_config())
    pipe.set_yaw(heading)
    for i in range(200):
        pipe.push_imu(imu_at(i))
    pipe.push_rts(obs_at(1.5))
    record = pipe.drain()[0]
    assert record.attitude_used.yaw == pytest.approx(heading, abs=1e-15)

    # changing the heading later affects later records only
    pipe.set_yaw(0.0)
    for i in range(200, 250):
        pipe.push_imu(imu_at(i))
    pipe.push_rts(obs_at(2.3))
    assert pipe.drain()[0].attitude_used.yaw == 0.0


def test_pipeline_rejects_decreasing_imu_time():
    pipe = Pipeline(fast_config())
    pipe.push_imu(imu_at(5))
    with pytest.raises(ValueError, match="timestamp"):
        pipe.push_imu(imu_at(4))


def test_pipeline_rejects_non_finite_imu():
    pipe = Pipeline(fast_config())
    with pytest.raises(ValueError, match="non-finite"):
        pipe.push_imu(ImuSample(0.0, [0.0, np.nan, G], np.zeros(3)))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", range(7), ids=["t", "ax", "ay", "az", "gx", "gy", "gz"])
@pytest.mark.parametrize("calibrated", [False, True], ids=["calibrating", "calibrated"])
def test_pipeline_rejects_each_non_finite_imu_field(field, value, calibrated):
    pipe, clean = Pipeline(fast_config()), Pipeline(fast_config())
    start = 15 if calibrated else 5
    for i in range(start):
        pipe.push_imu(imu_at(i))
        clean.push_imu(imu_at(i))
    assert pipe.calibrated == calibrated
    numbers = [start / 100.0, *LEVEL, 0.0, 0.0, 0.0]
    numbers[field] = value
    with pytest.raises(ValueError, match="non-finite"):
        pipe.push_imu(ImuSample(numbers[0], numbers[1:4], numbers[4:7]))
    # the rejected sample leaves no trace
    for i in range(start, 20):
        pipe.push_imu(imu_at(i))
        clean.push_imu(imu_at(i))
    assert pipe.latest_attitude == clean.latest_attitude
    assert_allclose(pipe.gyro_bias, clean.gyro_bias, rtol=0, atol=0)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"rts_buffer_capacity": 0},
        {"pairing_tolerance_s": -0.1},
        {"pairing_tolerance_s": math.nan},
        {"rts_latency_s": -1.0},
    ],
)
def test_pipeline_config_validation(kwargs):
    with pytest.raises(ValueError):
        PipelineConfig(**kwargs)


def test_rejected_seed_sample_leaves_no_trace_in_the_bias():
    pipe = Pipeline(fast_config(filter_config=FilterConfig(bias_calibration_count=3)))
    pipe.push_imu(imu_at(0))
    pipe.push_imu(imu_at(1))
    with pytest.raises(ValueError, match="zero norm"):
        pipe.push_imu(imu_at(2, accel=np.zeros(3), gyro=(9.0, 9.0, 9.0)))
    assert not pipe.calibrated
    pipe.push_imu(imu_at(3))
    assert pipe.calibrated
    assert_allclose(pipe.gyro_bias, np.zeros(3), atol=0.0)


def test_default_config_uses_full_calibration_count():
    pipe = Pipeline()
    for i in range(999):
        pipe.push_imu(imu_at(i))
    assert not pipe.calibrated
    pipe.push_imu(imu_at(999))
    assert pipe.calibrated


def test_tilted_static_scene_produces_corrected_poi(replay):
    # constant 30 degree roll: the POI offset must swing sideways by sin(30)
    roll = math.radians(30.0)
    accel = np.array(
        [0.0, G * math.sin(roll), G * math.cos(roll)]
    )
    imu = [imu_at(i, accel=accel) for i in range(200)]
    rts = [obs_at(1.5)]
    records, _ = replay(imu, rts, fast_config())
    record = records[0]
    assert record.attitude_used.roll == pytest.approx(roll, abs=1e-9)

    offset = record.poi_nav - record.prism_nav
    assert offset[1] == pytest.approx(1.0676 * math.sin(roll), rel=1e-9)
    assert offset[2] == pytest.approx(-1.0676 * math.cos(roll), rel=1e-9)
