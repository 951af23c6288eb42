import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.spatial.transform import Rotation

from tiltcomp import (
    HelmertParams,
    RtsObservation,
    apply_helmert,
    fit_helmert,
    polar_to_cartesian,
)
from tiltcomp.geodesy import _check_observations


def test_polar_horizontal_shot_along_x():
    obs = RtsObservation(0.0, 10.0, 0.0, math.pi / 2)
    assert_allclose(polar_to_cartesian(obs), [10.0, 0.0, 0.0], atol=1e-12)


def test_polar_elevated_shot():
    obs = RtsObservation(0.0, 2.0, math.pi / 2, math.pi / 3)
    assert_allclose(
        polar_to_cartesian(obs), [0.0, math.sqrt(3.0), 1.0], atol=1e-12
    )


def test_polar_zenith_angle_measured_from_up_axis():
    # a nearly vertical shot lands almost directly above the instrument
    obs = RtsObservation(0.0, 5.0, 1.3, 0.01)
    p = polar_to_cartesian(obs)
    assert p[2] == pytest.approx(5.0, rel=1e-4)
    assert math.hypot(p[0], p[1]) < 0.06


def test_polar_preserves_slant_distance():
    rng = np.random.default_rng(17)
    for _ in range(500):
        d = rng.uniform(0.1, 1000.0)
        hz = rng.uniform(-math.pi, math.pi)
        v = rng.uniform(1e-3, math.pi - 1e-3)
        p = polar_to_cartesian(RtsObservation(0.0, d, hz, v))
        assert np.linalg.norm(p) == pytest.approx(d, rel=1e-12)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"slant_distance": 0.0},
        {"slant_distance": -2.0},
        {"zenith_angle": 0.0},
        {"zenith_angle": math.pi},
        {"zenith_angle": -0.3},
        {"slant_distance": math.nan},
        {"horizontal_angle": math.inf},
    ],
)
def test_rts_observation_validation(kwargs):
    fields = {
        "timestamp": 0.0,
        "slant_distance": 5.0,
        "horizontal_angle": 0.2,
        "zenith_angle": 1.5,
    }
    fields.update(kwargs)
    with pytest.raises(ValueError):
        RtsObservation(**fields)


RTS_FIELDS = ("timestamp", "slant_distance", "horizontal_angle", "zenith_angle")


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", RTS_FIELDS)
def test_rts_observation_rejects_each_non_finite_field(field, value):
    fields = dict(zip(RTS_FIELDS, (0.0, 5.0, 0.2, 1.5)), **{field: value})
    with pytest.raises(ValueError, match="^RTS observation has non-finite fields: "):
        RtsObservation(**fields)


def observation_table():
    """A valid ``(4, 3)`` observation table: rows t, distance, Hz, V."""
    return np.array([[0.0, 0.2, 0.4], [5.0, 6.0, 7.0], [0.2, -0.1, 3.0], [1.5, 0.1, 3.1]])


def test_the_observation_check_returns_a_float64_table_itself():
    table = observation_table()
    before = table.tobytes()
    assert _check_observations(table) is table
    assert table.tobytes() == before
    view = table.T.copy().T  # one observation per row, as a stream file reads
    assert _check_observations(view) is view
    whole = _check_observations(np.array([[0, 1], [5, 6], [0, 1], [1, 2]]))
    assert whole.dtype == np.float64 and whole.tolist() == [[0, 1], [5, 6], [0, 1], [1, 2]]


# The first observation that breaks a rule raises RtsObservation's message;
# a later fault in another field is not the one named.
OBSERVATION_FAULTS = [
    (1, -2.5, "slant distance must be positive, got -2.5"),
    (1, 0.0, "slant distance must be positive, got 0.0"),
    (3, 0.0, "zenith angle must lie strictly between 0 and pi, got 0.0"),
    (3, math.pi, "zenith angle must lie strictly between 0 and pi, got 3.141592653589793"),
    (3, 4.0, "zenith angle must lie strictly between 0 and pi, got 4.0"),
    (0, math.nan, "RTS observation has non-finite fields: (nan, 6.0, -0.1, 0.1)"),
    (2, math.inf, "RTS observation has non-finite fields: (0.2, 6.0, inf, 0.1)"),
]


@pytest.mark.parametrize("row, value, message", OBSERVATION_FAULTS)
def test_the_observation_check_names_the_first_faulty_observation(row, value, message):
    table = observation_table()
    table[row, 1] = value
    table[1, 2] = -1.0
    with pytest.raises(ValueError) as raised:
        _check_observations(table)
    assert str(raised.value) == message


def test_rts_observation_accepts_finite_fields_whose_sum_overflows():
    obs = RtsObservation(1e308, 1e308, 0.2, 1.5)
    assert math.isinf(obs.timestamp + obs.slant_distance)


@pytest.mark.parametrize("point", [[1.0, 2.0], [1.0, 2.0, 3.0, 4.0], [[1.0], [2.0], [3.0]]])
def test_apply_rejects_a_point_that_is_not_a_3_vector(point):
    with pytest.raises(ValueError, match="point must be a 3-vector"):
        apply_helmert(HelmertParams(), point)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_apply_rejects_a_point_that_is_not_finite(bad):
    with pytest.raises(ValueError, match="^point must be finite, got "):
        apply_helmert(HelmertParams(), [1.0, bad, 3.0])


def test_apply_identity_is_a_no_op():
    p = np.array([1.2, -3.4, 5.6])
    assert_allclose(apply_helmert(HelmertParams(), p), p, atol=0.0)


def test_apply_scale_rotation_translation():
    # yaw by 90 degrees, double, then shift
    rot = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    params = HelmertParams(scale=2.0, rotation=rot, translation=np.array([10.0, 0.0, -1.0]))
    assert_allclose(
        apply_helmert(params, [1.0, 0.0, 0.0]), [10.0, 2.0, -1.0], atol=1e-12
    )


@pytest.mark.parametrize(
    "kwargs",
    [
        {"scale": 0.0},
        {"scale": -1.0},
        {"scale": math.nan},
        {"rotation": np.eye(3) * 2.0},
        {"rotation": np.diag([1.0, 1.0, -1.0])},
        {"rotation": np.zeros((3, 3))},
        {"rotation": np.eye(2)},
        {"translation": np.zeros(2)},
        {"translation": np.array([0.0, math.nan, 0.0])},
    ],
)
def test_helmert_params_validation(kwargs):
    with pytest.raises(ValueError):
        HelmertParams(**kwargs)


def test_fit_identity_from_exact_pairs():
    points = [
        np.array([0.0, 0.0, 0.0]),
        np.array([1.0, 0.0, 0.0]),
        np.array([0.0, 1.0, 0.0]),
        np.array([0.0, 0.0, 1.0]),
    ]
    params = fit_helmert([(p, p) for p in points])
    assert params.scale == pytest.approx(1.0, abs=1e-15)
    assert_allclose(params.rotation, np.eye(3), atol=1e-15)
    assert_allclose(params.translation, np.zeros(3), atol=1e-15)


def test_fit_pure_translation():
    rng = np.random.default_rng(1)
    src = rng.standard_normal((6, 3))
    shift = np.array([4.0, -2.0, 0.5])
    params = fit_helmert(list(zip(src, src + shift)))
    assert params.scale == pytest.approx(1.0, rel=1e-12)
    assert_allclose(params.rotation, np.eye(3), atol=1e-9)
    assert_allclose(params.translation, shift, atol=1e-9)


def test_fit_recovers_random_similarity():
    rng = np.random.default_rng(2024)
    for _ in range(100):
        rotation = Rotation.random(rng=rng).as_matrix()
        scale = rng.uniform(0.5, 2.0)
        translation = rng.uniform(-100.0, 100.0, size=3)
        truth = HelmertParams(scale=scale, rotation=rotation, translation=translation)
        src = rng.uniform(-10.0, 10.0, size=(10, 3))
        pairs = [(p, apply_helmert(truth, p)) for p in src]
        fitted = fit_helmert(pairs)
        assert abs(fitted.scale - scale) <= 1e-9
        assert np.max(np.abs(fitted.rotation - rotation)) <= 1e-9
        assert np.max(np.abs(fitted.translation - translation)) <= 1e-9


def test_fit_residuals_land_near_targets():
    rng = np.random.default_rng(8)
    rotation = Rotation.random(rng=rng).as_matrix()
    truth = HelmertParams(scale=1.3, rotation=rotation, translation=np.array([5.0, 6.0, 7.0]))
    src = rng.uniform(-10.0, 10.0, size=(8, 3))
    noise = rng.normal(0.0, 0.001, size=(8, 3))
    pairs = [(p, apply_helmert(truth, p) + e) for p, e in zip(src, noise)]
    fitted = fit_helmert(pairs)
    residuals = np.array([apply_helmert(fitted, s) - t for s, t in pairs])
    rms = math.sqrt(float(np.mean(np.sum(residuals**2, axis=1))))
    assert rms <= 2.0 * 0.001 * math.sqrt(3.0)


def test_fit_is_order_invariant():
    rng = np.random.default_rng(31)
    rotation = Rotation.random(rng=rng).as_matrix()
    truth = HelmertParams(scale=0.9, rotation=rotation, translation=np.array([1.0, 2.0, 3.0]))
    src = rng.uniform(-5.0, 5.0, size=(7, 3))
    pairs = [(p, apply_helmert(truth, p)) for p in src]
    shuffled = list(pairs)
    rng.shuffle(shuffled)
    a = fit_helmert(pairs)
    b = fit_helmert(shuffled)
    assert a.scale == pytest.approx(b.scale, rel=1e-12)
    assert_allclose(a.rotation, b.rotation, atol=1e-12)
    assert_allclose(a.translation, b.translation, atol=1e-10)


def test_fit_needs_three_pairs():
    pairs = [(np.zeros(3), np.zeros(3)), (np.ones(3), np.ones(3))]
    with pytest.raises(ValueError, match="at least 3"):
        fit_helmert(pairs)


def test_fit_rejects_collinear_sources():
    src = [np.array([float(i), 0.0, 0.0]) for i in range(5)]
    pairs = [(p, p + 1.0) for p in src]
    with pytest.raises(ValueError, match="collinear"):
        fit_helmert(pairs)


def test_fit_rejects_coincident_sources():
    p = np.array([1.0, 2.0, 3.0])
    pairs = [(p, p), (p, p), (p, p)]
    with pytest.raises(ValueError, match="degenerate"):
        fit_helmert(pairs)


def test_fit_rejects_bad_shapes_and_values():
    good = np.zeros(3)
    with pytest.raises(ValueError):
        fit_helmert([(np.zeros(2), good), (good, good), (good, good)])
    with pytest.raises(ValueError):
        fit_helmert(
            [
                (np.array([math.nan, 0.0, 0.0]), good),
                (np.ones(3), good),
                (np.array([0.0, 1.0, 0.0]), good),
            ]
        )
