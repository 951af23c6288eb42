"""Polar-to-Cartesian conversion for total-station observations and the 3D
Helmert similarity transform (scale, rotation, translation) between the
instrument frame and the navigation frame.

Conventions: the zenith angle V is measured down from the zenith, so a
horizontal sight has V = pi/2 and z = D*cos(V). The horizontal angle Hz is
counterclockwise mathematical, x = R_h*cos(Hz), y = R_h*sin(Hz). Radians
everywhere; wire formats that carry degrees convert at the boundary.

Streams of observations are checked as columns: ``_check_observations``
applies :class:`RtsObservation`'s rules to every row at once and lets the
constructor raise for the first row that breaks one, and ``_observations``
then fills the objects directly. The simulator and the stream reader use them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ._fields import _check_fields, _finite, _ranged, _vec3, _vector

__all__ = [
    "RtsObservation",
    "HelmertParams",
    "polar_to_cartesian",
    "apply_helmert",
    "fit_helmert",
]

_ORTHO_TOL = 1e-9


@dataclass(frozen=True)
class RtsObservation:
    """One total-station measurement: slant distance [m], horizontal angle and
    zenith angle [rad], at ``timestamp`` seconds."""

    timestamp: float
    slant_distance: float
    horizontal_angle: float
    zenith_angle: float

    def __post_init__(self):
        t, d, hz, v = self.timestamp, self.slant_distance, self.horizontal_angle, self.zenith_angle
        if not _finite(t, d, hz, v):
            raise ValueError(f"RTS observation has non-finite fields: {(t, d, hz, v)}")
        if self.slant_distance <= 0.0:
            raise ValueError(f"slant distance must be positive, got {self.slant_distance}")
        if not 0.0 < self.zenith_angle < math.pi:
            raise ValueError(
                f"zenith angle must lie strictly between 0 and pi, got {self.zenith_angle}"
            )


def _check_observations(t, distance, hz, v) -> np.ndarray:
    """The ``(4, n)`` float array of four observation columns (timestamp,
    slant distance, horizontal and zenith angle), each row tested by
    :class:`RtsObservation`'s rules, all rows at once. The first row that
    breaks one goes through the constructor, which raises its ValueError."""
    columns = np.array((t, distance, hz, v), dtype=float)
    bad = ~np.isfinite(columns).all(axis=0)
    bad |= ~(columns[1] > 0.0) | ~((columns[3] > 0.0) & (columns[3] < math.pi))
    if bad.any():
        RtsObservation(*columns[:, np.argmax(bad)].tolist())
    return columns


def _observations(t, distance, hz, v) -> list[RtsObservation]:
    """The :class:`RtsObservation` of each row of four float columns, checked
    by :func:`_check_observations` and then filled directly: the floats are
    what the dataclass constructor would store."""
    new, put = object.__new__, object.__setattr__
    observations = []
    for ti, di, hzi, vi in zip(*_check_observations(t, distance, hz, v).tolist()):
        obs = new(RtsObservation)
        put(obs, "timestamp", ti)
        put(obs, "slant_distance", di)
        put(obs, "horizontal_angle", hzi)
        put(obs, "zenith_angle", vi)
        observations.append(obs)
    return observations


@dataclass(frozen=True)
class HelmertParams:
    """Similarity transform nav = scale * rotation @ point + translation; the
    rotation must be a finite, orthonormal 3x3 matrix with det +1."""

    scale: float = _ranged(1.0, 0.0, math.inf, above=True)
    rotation: np.ndarray = field(default_factory=lambda: np.eye(3))
    translation: np.ndarray = _vector(0.0, 0.0, 0.0)

    def __post_init__(self):
        _check_fields(self)
        rot = np.asarray(self.rotation, dtype=float)
        if rot.shape != (3, 3) or not np.all(np.isfinite(rot)):
            raise ValueError("rotation must be a finite 3x3 matrix")
        if not np.allclose(rot.T @ rot, np.eye(3), atol=1e-8):
            raise ValueError("rotation must be orthonormal")
        if np.linalg.det(rot) < 0.0:
            raise ValueError("rotation must be proper (det +1), got a reflection")
        object.__setattr__(self, "rotation", rot)


def _polar(distance: float, hz: float, v: float) -> tuple[float, float, float]:
    """Polar to Cartesian on floats: the placement kernel's first formula."""
    r_h = distance * math.sin(v)
    return r_h * math.cos(hz), r_h * math.sin(hz), distance * math.cos(v)


def _helmert(params: HelmertParams, x: float, y: float, z: float) -> tuple[float, float, float]:
    """``s * R @ p + t`` on floats: the placement kernel's second formula.

    ``R @ p`` stays a BLAS product: ``ndarray.dot`` makes the same call as
    ``@`` and is bit-identical to it, while the three-term sums
    ``r0 * x + r1 * y + r2 * z`` round differently.
    """
    qx, qy, qz = params.rotation.dot((x, y, z)).tolist()
    tx, ty, tz = params.translation.tolist()
    s = params.scale
    return s * qx + tx, s * qy + ty, s * qz + tz


def polar_to_cartesian(obs: RtsObservation) -> np.ndarray:
    """Cartesian prism position in the instrument frame, meters.

    The returned vector has norm equal to the slant distance.
    """
    return np.array(_polar(obs.slant_distance, obs.horizontal_angle, obs.zenith_angle))


def apply_helmert(params: HelmertParams, point) -> np.ndarray:
    """Map a point through the similarity transform: s * R @ p + t.

    Raises ValueError unless ``point`` is a finite 3-vector.
    """
    return np.array(_helmert(params, *_vec3(point, "point").tolist()))


def fit_helmert(pairs: Sequence[tuple]) -> HelmertParams:
    """Least-squares similarity transform from (source, target) point pairs.

    Closed-form solution: remove centroids, factor the cross-covariance by SVD
    with a reflection correction so the rotation stays proper, take scale as
    the ratio of RMS spreads, then solve the translation from the centroids.
    Needs at least three pairs in general position.

    Raises ValueError for fewer than three pairs, a point that is not a finite
    3-vector, or a degenerate (collinear) source configuration.
    """
    if len(pairs) < 3:
        raise ValueError(f"Helmert fit needs at least 3 point pairs, got {len(pairs)}")
    src = np.array([_vec3(s, "source point") for s, _ in pairs])
    dst = np.array([_vec3(t, "target point") for _, t in pairs])

    src_centroid = src.mean(axis=0)
    dst_centroid = dst.mean(axis=0)
    src_c = src - src_centroid
    dst_c = dst - dst_centroid

    cross_cov = dst_c.T @ src_c
    u, singular, vt = np.linalg.svd(cross_cov)
    # Collinear sources leave the rotation about their axis unobservable.
    if singular[1] < _ORTHO_TOL * singular[0]:
        raise ValueError(
            "degenerate point configuration: source points are collinear or coincident"
        )
    d = np.sign(np.linalg.det(u) * np.linalg.det(vt))
    rotation = u @ np.diag([1.0, 1.0, d]) @ vt

    src_spread = float(np.sum(src_c**2))
    dst_spread = float(np.sum(dst_c**2))
    if src_spread <= 0.0:
        raise ValueError("degenerate point configuration: source points are coincident")
    scale = math.sqrt(dst_spread / src_spread)

    translation = dst_centroid - scale * (rotation @ src_centroid)
    return HelmertParams(scale=scale, rotation=rotation, translation=translation)
