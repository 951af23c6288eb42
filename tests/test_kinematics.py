import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.spatial.transform import Rotation

from tiltcomp import (
    Attitude,
    LeverArms,
    poi_position,
    prism_to_poi_body,
    rotation_b_to_n,
)

ANGLE_GRID = [math.radians(d) for d in (-60.0, -30.0, 0.0, 30.0, 60.0)]


def test_identity_attitude_gives_identity_matrix():
    assert_allclose(rotation_b_to_n(Attitude()), np.eye(3), atol=1e-15)


def test_pure_yaw_rotates_x_to_y():
    r = rotation_b_to_n(Attitude(yaw=math.pi / 2))
    assert_allclose(r @ [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], atol=1e-12)


def test_matches_elementary_matrix_product():
    roll, pitch, yaw = math.radians(30), math.radians(20), math.radians(10)
    cr, sr = math.cos(roll), math.sin(roll)
    cp, sp = math.cos(pitch), math.sin(pitch)
    cy, sy = math.cos(yaw), math.sin(yaw)
    rx = np.array([[1, 0, 0], [0, cr, -sr], [0, sr, cr]])
    ry = np.array([[cp, 0, sp], [0, 1, 0], [-sp, 0, cp]])
    rz = np.array([[cy, -sy, 0], [sy, cy, 0], [0, 0, 1]])
    assert_allclose(
        rotation_b_to_n(Attitude(roll, pitch, yaw)), rz @ ry @ rx, atol=1e-15
    )


def test_matches_scipy_euler_convention():
    rng = np.random.default_rng(3)
    for _ in range(50):
        roll, pitch, yaw = rng.uniform(-math.pi / 2, math.pi / 2, size=3)
        expected = Rotation.from_euler("ZYX", [yaw, pitch, roll]).as_matrix()
        assert_allclose(
            rotation_b_to_n(Attitude(roll, pitch, yaw)), expected, atol=1e-12
        )


@pytest.mark.parametrize("roll", ANGLE_GRID)
@pytest.mark.parametrize("pitch", ANGLE_GRID)
def test_rotation_is_orthonormal(roll, pitch):
    r = rotation_b_to_n(Attitude(roll, pitch, math.radians(25.0)))
    assert_allclose(r.T @ r, np.eye(3), atol=1e-12)
    assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-12)


def test_rotation_round_trip():
    rng = np.random.default_rng(9)
    for _ in range(100):
        att = Attitude(*rng.uniform(-1.5, 1.5, size=3))
        r = rotation_b_to_n(att)
        v = rng.standard_normal(3)
        assert_allclose(r.T @ (r @ v), v, atol=1e-12)


def test_default_lever_arms():
    arms = LeverArms()
    assert_allclose(arms.imu_to_prism_b, [0.0, 0.0, 0.0756])
    assert_allclose(arms.imu_to_poi_b, [0.0, 0.0, -0.9920])


def test_prism_to_poi_difference():
    offset = prism_to_poi_body(LeverArms())
    assert_allclose(offset, [0.0, 0.0, -1.0676], rtol=1e-12, atol=0.0)

    arms = LeverArms(imu_to_prism_b=(1.0, 2.0, 3.0), imu_to_poi_b=(4.0, 6.0, 8.0))
    assert_allclose(prism_to_poi_body(arms), [3.0, 4.0, 5.0], atol=0.0)

    same = LeverArms(imu_to_prism_b=(0.5, 0.5, 0.5), imu_to_poi_b=(0.5, 0.5, 0.5))
    assert_allclose(prism_to_poi_body(same), np.zeros(3), atol=0.0)


def test_rotate_lever_identity_and_roll():
    offset = prism_to_poi_body(LeverArms())
    assert_allclose(rotation_b_to_n(Attitude()) @ offset, offset, atol=0.0)

    r = rotation_b_to_n(Attitude(roll=math.radians(60.0)))
    assert_allclose(
        r @ offset,
        [0.0, 0.9245687210802668, -0.5338000000000002],
        atol=1e-15,
    )


def test_poi_position_level():
    poi = poi_position([1.0, 2.0, 3.0], Attitude(), LeverArms())
    assert_allclose(poi, [1.0, 2.0, 1.9324], rtol=1e-12, atol=1e-15)


def test_poi_position_zero_offset_returns_prism():
    arms = LeverArms(imu_to_prism_b=(0.0, 0.0, 0.2), imu_to_poi_b=(0.0, 0.0, 0.2))
    rng = np.random.default_rng(21)
    for _ in range(20):
        att = Attitude(*rng.uniform(-1.0, 1.0, size=3))
        prism = rng.standard_normal(3) * 10.0
        assert_allclose(poi_position(prism, att, arms), prism, atol=1e-12)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("axis", range(3))
def test_poi_position_rejects_a_prism_that_is_not_finite(axis, value):
    prism = [1.0, 2.0, 3.0]
    prism[axis] = value
    with pytest.raises(ValueError, match="^prism_nav must be finite"):
        poi_position(prism, Attitude(), LeverArms())


def test_poi_position_accepts_a_finite_prism_whose_sum_overflows():
    poi = poi_position([1e308, 1e308, 0.0], Attitude(roll=0.1), LeverArms())
    assert np.all(np.isfinite(poi))


def test_lever_length_is_invariant_under_rotation():
    arms = LeverArms()
    length = np.linalg.norm(prism_to_poi_body(arms))
    rng = np.random.default_rng(5)
    for _ in range(100):
        att = Attitude(*rng.uniform(-math.pi / 2, math.pi / 2, size=3))
        prism = rng.standard_normal(3) * 5.0
        poi = poi_position(prism, att, arms)
        assert np.linalg.norm(poi - prism) == pytest.approx(length, rel=1e-12)


def test_tilt_moves_poi_toward_the_tilt_side():
    # rolling right (positive roll) swings a below-prism target toward +y
    arms = LeverArms()
    poi = poi_position(np.zeros(3), Attitude(roll=math.radians(10.0)), arms)
    assert poi[1] > 0.0
    assert poi[2] > -1.0676


@pytest.mark.parametrize(
    "kwargs",
    [
        {"imu_to_prism_b": (0.0, 0.0)},
        {"imu_to_prism_b": (0.0, 0.0, math.nan)},
        {"imu_to_poi_b": (0.0, math.inf, 0.0)},
        {"imu_to_poi_b": "abc"},
    ],
)
def test_lever_arms_validation(kwargs):
    with pytest.raises(ValueError):
        LeverArms(**kwargs)
