import dataclasses
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from tiltcomp import (
    Attitude,
    FilterConfig,
    FilterState,
    FusedRecord,
    HelmertParams,
    ImuSample,
    LeverArms,
    Pipeline,
    PipelineConfig,
    RtsObservation,
    ScenarioConfig,
    apply_helmert,
    calibrate_bias,
    filter_step,
    generate_scenario,
    poi_position,
    polar_to_cartesian,
    prism_to_poi_body,
    rotation_b_to_n,
    set_yaw,
    wrap_angle,
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


def test_observation_before_first_attitude_is_dropped():
    pipe = Pipeline(fast_config())
    for i in range(200):
        pipe.push_imu(imu_at(i))
    pipe.push_rts(obs_at(0.01))
    pipe.push_rts(obs_at(1.5))
    # IMU time only grows, so the head can never be paired: it is dropped, and
    # the observation behind it is paired in the same drain
    (record,) = pipe.drain()
    assert record.timestamp == 1.5
    assert pipe.rts_buffered == 0
    assert pipe.rts_dropped == 1


def test_a_live_loop_emits_each_record_before_the_next_observation():
    imu, rts, _ = generate_scenario(ScenarioConfig(duration_s=30.0, seed=3))
    pipe = Pipeline()
    records, i = 0, 0
    for obs in rts:
        while i < len(imu) and imu[i].timestamp <= obs.timestamp:
            pipe.push_imu(imu[i])
            i += 1
        pipe.push_rts(obs)
        out = pipe.drain()
        assert [r.timestamp for r in out] in ([], [obs.timestamp])
        if pipe.calibrated:
            assert pipe.rts_buffered == 0
        records += len(out)
    first_attitude = imu[pipe.config.filter_config.bias_calibration_count - 1].timestamp
    idle = sum(obs.timestamp < first_attitude for obs in rts)
    # more idle observations than the ring buffer holds: none waits for eviction
    assert idle > pipe.config.rts_buffer_capacity
    assert pipe.rts_dropped == idle
    assert records == len(rts) - idle


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


def test_a_capacity_beyond_what_a_deque_holds_still_builds_a_working_buffer():
    # a deque refuses a maxlen above sys.maxsize; the pipeline clamps to it
    pipe = Pipeline(fast_config(rts_buffer_capacity=2**70))
    for k in range(10):
        pipe.push_rts(obs_at(20 * k / 100.0))
    assert (pipe.rts_buffered, pipe.rts_dropped) == (10, 0)

    # nothing was evicted: only the one stamped before the first attitude drops
    for i in range(200):
        pipe.push_imu(imu_at(i))
    records = pipe.drain()
    assert [r.timestamp for r in records] == [0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.4, 1.6, 1.8]
    assert (pipe.rts_buffered, pipe.rts_dropped) == (0, 1)


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


@pytest.mark.parametrize("yaw", [math.nan, math.inf, -math.inf])
def test_both_set_yaw_paths_reject_a_heading_that_is_not_finite(yaw):
    with pytest.raises(ValueError, match=f"^yaw must be finite, got {yaw}$"):
        set_yaw(FilterState(), yaw)
    pipe = Pipeline()
    with pytest.raises(ValueError, match=f"^yaw must be finite, got {yaw}$"):
        pipe.set_yaw(yaw)
    assert pipe.latest_attitude is None


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


@pytest.mark.parametrize(
    "sample, message",
    [(imu_at(13), "non-monotone"), (imu_at(15, accel=np.zeros(3)), "zero norm")],
    ids=["out-of-order", "zero-norm-accel"],
)
def test_a_rejected_sample_after_calibration_leaves_no_trace(sample, message):
    pipe, clean = Pipeline(fast_config()), Pipeline(fast_config())
    for i in range(15):
        pipe.push_imu(imu_at(i))
        clean.push_imu(imu_at(i))
    with pytest.raises(ValueError, match=message):
        pipe.push_imu(sample)
    # the history's newest entry is the filter state: nothing was appended
    assert pipe.latest_attitude == clean.latest_attitude
    for i in range(15, 20):
        pipe.push_imu(imu_at(i))
        clean.push_imu(imu_at(i))
    for t in (0.125, 0.135, 0.145, 0.155, 0.195):
        pipe.push_rts(obs_at(t))
        clean.push_rts(obs_at(t))
    fields = ("timestamp", "attitude_used", "alpha_used", "imu_timestamp_used")
    got, want = pipe.drain(), clean.drain()
    assert [[getattr(r, f) for f in fields] for r in got] == [
        [getattr(r, f) for f in fields] for r in want
    ]
    assert [r.imu_timestamp_used for r in got] == [0.12, 0.13, 0.14, 0.15, 0.19]


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


BAD_READINGS = {
    "3x1": np.array([[0.0], [0.0], [G]]),
    "2": [0.0, G],
    "4": [0.0, 0.0, G, 0.0],
}


@pytest.mark.parametrize("reading", BAD_READINGS.values(), ids=BAD_READINGS.keys())
@pytest.mark.parametrize("which", ["accel", "gyro"])
@pytest.mark.parametrize("calibrated", [False, True], ids=["calibrating", "calibrated"])
def test_pipeline_rejects_readings_not_of_shape_3(which, reading, calibrated):
    pipe, clean = Pipeline(fast_config()), Pipeline(fast_config())
    start = 15 if calibrated else 5
    for i in range(start):
        pipe.push_imu(imu_at(i))
        clean.push_imu(imu_at(i))
    assert pipe.calibrated == calibrated
    readings = {"accel": LEVEL, "gyro": np.zeros(3), which: reading}
    with pytest.raises(ValueError, match=r"shape \(3,\)"):
        pipe.push_imu(ImuSample(start / 100.0, **readings))
    for i in range(start, 20):
        pipe.push_imu(imu_at(i))
        clean.push_imu(imu_at(i))
    assert pipe.latest_attitude == clean.latest_attitude
    assert_allclose(pipe.gyro_bias, clean.gyro_bias, rtol=0, atol=0)


def reference_history(imu, cfg, hold_yaw, initial_yaw, reset_index, reset_yaw):
    """``{imu timestamp: (attitude, alpha)}`` from one FilterState stepped by the
    public filter_step, with set_yaw for the held heading and the reset."""
    n = cfg.bias_calibration_count
    held = wrap_angle(initial_yaw)
    state = FilterState(attitude=Attitude(yaw=held), gyro_bias=calibrate_bias(imu[:n], n))
    history = {}
    for i in range(n - 1, len(imu)):
        if i == reset_index:
            held = wrap_angle(reset_yaw)
            state = set_yaw(state, held)
        state = filter_step(state, imu[i], cfg)
        if hold_yaw and i >= n:
            state = set_yaw(state, held)
        history[imu[i].timestamp] = (state.attitude, state.last_alpha)
    return history


def bits(*values):
    return [float(v).hex() for v in values]


@pytest.mark.parametrize("initial_deg, reset_deg", [(37.0, 200.0), (-250.0, 12.5)])
@pytest.mark.parametrize("hold_yaw", [True, False], ids=["hold", "integrate"])
def test_paired_attitudes_match_a_filter_step_loop_bitwise(hold_yaw, initial_deg, reset_deg):
    initial, reset = math.radians(initial_deg), math.radians(reset_deg)
    # wrap_angle changes these headings in the last bit, so a held yaw that
    # skipped a wrap would show.
    assert wrap_angle(initial) != initial and wrap_angle(reset) != reset
    imu, rts, _ = generate_scenario(ScenarioConfig(duration_s=60.0, rts_rate_hz=100.0, seed=5))
    config = PipelineConfig(hold_yaw=hold_yaw)
    reset_index = len(imu) // 2
    expected = reference_history(
        imu, config.filter_config, hold_yaw, initial, reset_index, reset
    )

    pipe = Pipeline(config)
    pipe.set_yaw(initial)
    t_reset = imu[reset_index].timestamp
    records = pipe.replay(imu[:reset_index], [o for o in rts if o.timestamp < t_reset])
    pipe.set_yaw(reset)
    records += pipe.replay(imu[reset_index:], [o for o in rts if o.timestamp >= t_reset])

    assert len(records) > 4500
    for record in records:
        want, alpha = expected[record.imu_timestamp_used]
        got = record.attitude_used
        assert bits(got.roll, got.pitch, got.yaw, record.alpha_used) == bits(
            want.roll, want.pitch, want.yaw, alpha
        ), record.timestamp


def same_records(a, b):
    return (
        a.timestamp == b.timestamp
        and np.array_equal(a.prism_nav, b.prism_nav)
        and np.array_equal(a.poi_nav, b.poi_nav)
        and a.attitude_used == b.attitude_used
        and a.alpha_used == b.alpha_used
        and a.imu_timestamp_used == b.imu_timestamp_used
    )


INTERLEAVE_IMU = [imu_at(i, gyro=(0.02 * math.sin(i / 7.0), 0.01, -0.03)) for i in range(120)]
INTERLEAVE_RTS = [obs_at(0.1 + 0.037 * k) for k in range(28)]


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_any_causal_interleaving_gives_the_replay_records(data):
    """Each stream keeps its own order, an observation is pushed only once the
    IMU stream has reached its time, and drains come anywhere: the records are
    exactly those of Pipeline.replay (tolerance 0, a buffer that never
    overflows)."""
    config = fast_config(rts_buffer_capacity=len(INTERLEAVE_RTS))
    expected = Pipeline(config).replay(INTERLEAVE_IMU, INTERLEAVE_RTS)

    # Push position of each observation: the number of IMU samples pushed
    # before it, never fewer than those at or before its timestamp.
    positions, earliest = [], 0
    for obs in INTERLEAVE_RTS:
        due = sum(s.timestamp <= obs.timestamp for s in INTERLEAVE_IMU)
        earliest = max(earliest, due)
        earliest = data.draw(st.integers(earliest, len(INTERLEAVE_IMU)))
        positions.append(earliest)
    events, j = [], 0
    for i in range(len(INTERLEAVE_IMU) + 1):
        while j < len(positions) and positions[j] == i:
            events.append(("rts", INTERLEAVE_RTS[j]))
            j += 1
        if i < len(INTERLEAVE_IMU):
            events.append(("imu", INTERLEAVE_IMU[i]))
    drains = data.draw(st.sets(st.integers(0, len(events) - 1), max_size=len(events)))

    pipe, records = Pipeline(config), []
    for k, (kind, item) in enumerate(events):
        if kind == "imu":
            pipe.push_imu(item)
        else:
            pipe.push_rts(item)
        if k in drains:
            records += pipe.drain()
    records += pipe.drain()

    assert len(records) == len(expected)
    assert all(same_records(a, b) for a, b in zip(records, expected))


def finite(low, high):
    return st.floats(low, high, allow_nan=False, allow_infinity=False)


def float_bits(array):
    return [v.hex() for v in np.asarray(array, dtype=float).tolist()]


def drain_one(config, obs, roll, pitch, yaw):
    """The record drain makes for ``obs`` once a single IMU sample has seeded the
    filter near (roll, pitch) from its gravity reading, with ``yaw`` held."""
    pipe = Pipeline(config)
    pipe.set_yaw(yaw)
    gravity = G * np.array(
        [-math.sin(pitch), math.cos(pitch) * math.sin(roll), math.cos(pitch) * math.cos(roll)]
    )
    pipe.push_imu(ImuSample(0.0, gravity, np.zeros(3)))
    pipe.push_rts(obs)
    return pipe.drain()


def rotated(rows, vector):
    """``rows @ vector`` in the placement kernel's order: each component the
    left-to-right sum ``r0 * v0 + r1 * v1 + r2 * v2`` on Python floats."""
    v0, v1, v2 = vector
    return [r0 * v0 + r1 * v1 + r2 * v2 for r0, r1, r2 in rows]


def assert_near_matmul(rows, vector, got):
    """Each component of ``got`` lies within 4 ulp of ``sum |r_i * v_i|`` of
    numpy's ``rows @ vector``, whose bits depend on the BLAS kernel the CPU
    selects (a fused multiply-add rounds once, a multiply and an add twice)."""
    rows, vector = np.array(rows), np.array(vector)
    bound = 4.0 * np.spacing(np.abs(rows) @ np.abs(vector))
    assert np.all(np.abs(np.array(got) - rows @ vector) <= bound)


ONE_SAMPLE = FilterConfig(bias_calibration_count=1)
TRIPLE = st.tuples(finite(-2.0, 2.0), finite(-2.0, 2.0), finite(-2.0, 2.0))


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    distance=finite(0.01, 5000.0),
    hz=finite(-2 * math.pi, 2 * math.pi),
    zenith=finite(1e-6, math.pi - 1e-6),
    roll=finite(-math.pi, math.pi),
    pitch=finite(-math.pi / 2, math.pi / 2),
    yaw=finite(-math.pi, math.pi),
    frame=st.tuples(finite(-math.pi, math.pi), finite(-1.5, 1.5), finite(-math.pi, math.pi)),
    scale=finite(0.5, 2.0),
    translation=st.tuples(finite(-1e5, 1e5), finite(-1e5, 1e5), finite(-1e5, 1e5)),
    imu_to_prism=TRIPLE,
    imu_to_poi=TRIPLE,
)
def test_drain_places_an_observation_as_the_public_functions_do(
    distance, hz, zenith, roll, pitch, yaw, frame, scale, translation, imu_to_prism, imu_to_poi
):
    """drain's float kernel gives the prism and POI of polar_to_cartesian,
    apply_helmert and poi_position bit for bit, and those of the float
    formulas ``s * R @ p + t`` and ``prism + R_b2n @ lever`` summed in the
    kernel's order; each product lies within a few ulp of numpy's ``@``."""
    helmert = HelmertParams(scale, rotation_b_to_n(Attitude(*frame)), np.array(translation))
    arms = LeverArms(np.array(imu_to_prism), np.array(imu_to_poi))
    config = PipelineConfig(filter_config=ONE_SAMPLE, lever_arms=arms, helmert=helmert)
    obs = RtsObservation(1.0, distance, hz, zenith)
    [record] = drain_one(config, obs, roll, pitch, yaw)

    prism = apply_helmert(helmert, polar_to_cartesian(obs))
    assert float_bits(record.prism_nav) == float_bits(prism)
    assert float_bits(record.poi_nav) == float_bits(
        poi_position(prism, record.attitude_used, arms)
    )
    p, frame_rows = polar_to_cartesian(obs).tolist(), helmert.rotation.tolist()
    q = rotated(frame_rows, p)
    mapped = [helmert.scale * c + t for c, t in zip(q, helmert.translation.tolist())]
    assert float_bits(prism) == float_bits(mapped)
    assert_near_matmul(frame_rows, p, q)
    body_rows = rotation_b_to_n(record.attitude_used).tolist()
    lever = prism_to_poi_body(arms).tolist()
    d = rotated(body_rows, lever)
    assert float_bits(record.poi_nav) == float_bits([a + b for a, b in zip(prism.tolist(), d)])
    assert_near_matmul(body_rows, lever, d)
    # A large translation or prism absorbs the last bits of the products;
    # with neither, the products' own bits show.
    unmoved = HelmertParams(1.0, helmert.rotation)
    assert float_bits(apply_helmert(unmoved, p)) == float_bits([c + 0.0 for c in q])
    origin = poi_position(np.zeros(3), record.attitude_used, arms)
    assert float_bits(origin) == float_bits([0.0 + c for c in d])


def test_drain_rejects_a_prism_that_is_not_finite():
    config = PipelineConfig(filter_config=ONE_SAMPLE, helmert=HelmertParams(scale=1e10))
    with pytest.raises(ValueError, match="prism_nav must be finite"):
        drain_one(config, RtsObservation(1.0, 1e300, 0.3, 1.5), 0.1, 0.2, 0.0)


def test_drain_accepts_a_finite_prism_whose_coordinate_sum_overflows():
    # x and y near 1e308 each: their sum is inf, every coordinate is finite.
    obs = RtsObservation(1.0, 1.4e308, math.pi / 4, math.pi / 2)
    assert math.isinf(sum(polar_to_cartesian(obs).tolist()))
    [record] = drain_one(PipelineConfig(filter_config=ONE_SAMPLE), obs, 0.1, 0.2, 0.0)
    assert np.all(np.isfinite(record.prism_nav)) and np.all(np.isfinite(record.poi_nav))
    assert float_bits(record.prism_nav) == float_bits(polar_to_cartesian(obs))


def field_values(obj):
    """``name -> value`` of each field of the dataclass ``obj``, in declaration
    order; a slot left unfilled raises AttributeError."""
    return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}


def test_drain_records_equal_those_the_dataclass_constructor_builds():
    """drain builds its records without FusedRecord's and Attitude's __init__:
    each holds what the constructor would store, field by field, with arrays
    no other record shares."""
    records = Pipeline(fast_config()).replay(INTERLEAVE_IMU, INTERLEAVE_RTS)
    assert records
    for record in records:
        att = record.attitude_used
        built = FusedRecord(
            timestamp=record.timestamp,
            prism_nav=record.prism_nav.tolist(),
            poi_nav=record.poi_nav.tolist(),
            attitude_used=Attitude(att.roll, att.pitch, att.yaw),
            alpha_used=record.alpha_used,
            imu_timestamp_used=record.imu_timestamp_used,
        )
        assert not hasattr(record, "__dict__") and not hasattr(att, "__dict__")
        assert list(field_values(record)) == list(field_values(built))
        assert same_records(record, built) and repr(record) == repr(built)
        assert type(att) is Attitude and field_values(att) == field_values(built.attitude_used)
        for name in ("prism_nav", "poi_nav"):
            array = getattr(record, name)
            assert type(array) is np.ndarray and array.dtype == np.float64
            assert array.shape == (3,) and array.flags.owndata
        for name in ("timestamp", "alpha_used", "imu_timestamp_used"):
            assert type(getattr(record, name)) is float
        assert all(type(v) is float for v in field_values(att).values())
    arrays = [a for r in records for a in (r.prism_nav, r.poi_nav)]
    assert len({id(a) for a in arrays}) == len(arrays)
    assert not any(
        np.shares_memory(a, b) for i, a in enumerate(arrays) for b in arrays[i + 1 :]
    )


class CallLog(Pipeline):
    """A pipeline that logs each public call it gets, in order."""

    def __init__(self, config):
        super().__init__(config)
        self.calls = []

    def push_imu(self, sample):
        self.calls.append(("imu", sample.timestamp))
        super().push_imu(sample)

    def push_rts(self, obs):
        self.calls.append(("rts", obs.timestamp))
        super().push_rts(obs)

    def drain(self):
        self.calls.append(("drain",))
        return super().drain()


def merge_replay(pipe, imu, rts):
    """Pipeline.replay as a two-pointer merge of the two streams: the order oracle."""
    records = []
    i = j = 0
    while i < len(imu) or j < len(rts):
        if j >= len(rts) or (i < len(imu) and imu[i].timestamp <= rts[j].timestamp):
            pipe.push_imu(imu[i])
            i += 1
        else:
            pipe.push_rts(rts[j])
            j += 1
            records.extend(pipe.drain())
    records.extend(pipe.drain())
    return records


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    imu_ticks=st.lists(st.integers(0, 30), max_size=40).map(sorted),
    rts_ticks=st.lists(st.integers(-3, 33), max_size=15),
    capacity=st.integers(1, 4),
)
def test_replay_pushes_in_the_merge_order(imu_ticks, rts_ticks, capacity):
    """replay walks the observations, feeding the IMU samples stamped at or
    before each one first: the same calls, in the same order, as a merge of
    the streams, with equal records and counters, for ties, unsorted
    observations, empty streams and a ring buffer that overflows."""
    imu = [imu_at(i, gyro=(0.01 * i, -0.02, 0.03)) for i in imu_ticks]
    rts = [obs_at(k / 100.0) for k in rts_ticks]
    config = fast_config(
        filter_config=FilterConfig(bias_calibration_count=3), rts_buffer_capacity=capacity
    )
    walked, merged = CallLog(config), CallLog(config)
    got = walked.replay(imu, rts)
    want = merge_replay(merged, imu, rts)
    assert walked.calls == merged.calls
    assert len(got) == len(want) and all(map(same_records, got, want))
    assert (walked.rts_dropped, walked.rts_buffered) == (merged.rts_dropped, merged.rts_buffered)


CONFIG_VECTORS = [
    (LeverArms, "imu_to_prism_b"),
    (LeverArms, "imu_to_poi_b"),
    (HelmertParams, "translation"),
    (HelmertParams, "rotation"),
    (ScenarioConfig, "poi_nav"),
    (ScenarioConfig, "rts_station"),
]


@pytest.mark.parametrize(
    "cls, name", CONFIG_VECTORS, ids=[f"{c.__name__}.{n}" for c, n in CONFIG_VECTORS]
)
def test_a_config_keeps_a_read_only_copy_of_each_vector(cls, name):
    caller = np.array(getattr(cls(), name), copy=True)
    config = cls(**{name: caller})
    stored = getattr(config, name)
    assert stored is not caller and not np.shares_memory(stored, caller)
    caller.flat[0] += 100.0
    assert stored.flat[0] == caller.flat[0] - 100.0
    with pytest.raises(ValueError, match="read-only"):
        stored.flat[0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        getattr(cls(), name)[0] += 1.0


def test_a_caller_array_cannot_move_a_running_pipeline():
    """The pipeline reads the lever arms once; the caller's array is not the
    config's, so writing into it leaves the next POI where it was."""
    tip = np.array([0.0, 0.0, -0.9920])
    config = fast_config(lever_arms=LeverArms(imu_to_poi_b=tip))
    pipe, clean = Pipeline(config), Pipeline(fast_config())
    first = pipe.replay(INTERLEAVE_IMU[:60], INTERLEAVE_RTS[:10])
    tip[2] = -5.0
    second = pipe.replay(INTERLEAVE_IMU[60:], INTERLEAVE_RTS[10:])
    expected = clean.replay(INTERLEAVE_IMU, INTERLEAVE_RTS)
    assert first and second
    assert all(map(same_records, first + second, expected))
    assert pipe.config.lever_arms.imu_to_poi_b[2] == -0.9920


def test_pipeline_config_is_read_only():
    config = fast_config()
    pipe = Pipeline(config)
    assert pipe.config is config
    with pytest.raises(AttributeError):
        pipe.config = PipelineConfig()
    assert pipe.config is config
