"""Rigid-body kinematics: body->navigation rotation and lever-arm transfer.

Frame conventions used throughout the package:

- Navigation frame: right-handed, z up, fixed to the ground.
- Body frame: rigidly attached to the prism/IMU assembly; coincides with the
  navigation frame at the level pose.
- Attitude: Z-Y-X Euler angles (yaw about z, then pitch about y, then roll
  about x), so ``R_b2n = Rz(yaw) @ Ry(pitch) @ Rx(roll)``.

A level sensor therefore maps body vectors to identical navigation vectors,
which is consistent with the accelerometer convention in :mod:`tiltcomp.attitude`
(a level accelerometer reads (0, 0, +g)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._fields import _check_fields, _finite, _vec3, _vector
from .attitude import Attitude

__all__ = [
    "LeverArms",
    "rotation_b_to_n",
    "prism_to_poi_body",
    "poi_position",
]


@dataclass(frozen=True)
class LeverArms:
    """Body-frame offsets from the IMU center to the prism and to the POI.

    Units are meters. The defaults are the rod geometry this toolkit models:
    prism mounted 75.6 mm above the IMU, POI (rod tip) 992.0 mm below it.
    """

    imu_to_prism_b: np.ndarray = _vector(0.0, 0.0, 0.0756)
    imu_to_poi_b: np.ndarray = _vector(0.0, 0.0, -0.9920)

    def __post_init__(self):
        _check_fields(self)


def _zyx_rows(cr, sr, cp, sp, cy, sy):
    """Rows of ``Rz(yaw) @ Ry(pitch) @ Rx(roll)`` from the cosines and sines of
    roll, pitch and yaw; elementwise, so it takes floats or equal-shape arrays."""
    return (
        (cy * cp, cy * sp * sr - sy * cr, cy * sp * cr + sy * sr),
        (sy * cp, sy * sp * sr + cy * cr, sy * sp * cr - cy * sr),
        (-sp, cp * sr, cp * cr),
    )


def _rotation(roll: float, pitch: float, yaw: float) -> np.ndarray:
    return np.array(
        _zyx_rows(
            math.cos(roll), math.sin(roll),
            math.cos(pitch), math.sin(pitch),
            math.cos(yaw), math.sin(yaw),
        )
    )


def rotation_b_to_n(att: Attitude) -> np.ndarray:
    """Rotation matrix from the body frame to the navigation frame.

    Composition order is exactly ``Rz(yaw) @ Ry(pitch) @ Rx(roll)``; the
    returned 3x3 matrix is orthonormal with determinant +1.
    """
    return _rotation(att.roll, att.pitch, att.yaw)


def prism_to_poi_body(arms: LeverArms) -> np.ndarray:
    """Lever arm from the prism center to the POI, in the body frame."""
    return arms.imu_to_poi_b - arms.imu_to_prism_b


def _poi(
    px: float, py: float, pz: float, roll: float, pitch: float, yaw: float, lever: np.ndarray
) -> tuple[float, float, float]:
    """``prism + R_b2n @ lever`` on floats: the placement kernel's last formula.

    ``lever`` is the (3,) prism->POI body lever. The rotation product stays
    the BLAS ``ndarray.dot``, bit-identical to ``@``. Raises ValueError for a
    non-finite prism.
    """
    if not _finite(px, py, pz):
        raise ValueError(f"prism_nav must be finite, got {np.array((px, py, pz))}")
    dx, dy, dz = _rotation(roll, pitch, yaw).dot(lever).tolist()
    return px + dx, py + dy, pz + dz


def poi_position(prism_nav, att: Attitude, arms: LeverArms) -> np.ndarray:
    """Tilt-compensated POI position in the navigation frame.

    Adds the attitude-rotated prism->POI lever arm to the prism position:
    ``poi = prism + R_b2n(att) @ (imu_to_poi_b - imu_to_prism_b)``. Raises
    ValueError unless ``prism_nav`` is a finite 3-vector.
    """
    prism = _vec3(prism_nav, "prism_nav").tolist()
    return np.array(_poi(*prism, att.roll, att.pitch, att.yaw, prism_to_poi_body(arms)))
