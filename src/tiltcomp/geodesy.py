"""Polar-to-Cartesian conversion for total-station observations and the 3D
Helmert similarity transform (scale, rotation, translation) between the
instrument frame and the navigation frame.

Conventions: the zenith angle V is measured down from the zenith, so a
horizontal sight has V = pi/2 and z = D*cos(V). The horizontal angle Hz is
counterclockwise mathematical, x = R_h*cos(Hz), y = R_h*sin(Hz). Radians
everywhere; wire formats that carry degrees convert at the boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

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
        # A finite sum implies four finite fields; only a non-finite sum (which
        # finite fields can reach by overflow) needs the field-by-field test.
        if not math.isfinite(t + d + hz + v) and not all(map(math.isfinite, (t, d, hz, v))):
            raise ValueError(f"RTS observation has non-finite fields: {(t, d, hz, v)}")
        if self.slant_distance <= 0.0:
            raise ValueError(f"slant distance must be positive, got {self.slant_distance}")
        if not 0.0 < self.zenith_angle < math.pi:
            raise ValueError(
                f"zenith angle must lie strictly between 0 and pi, got {self.zenith_angle}"
            )


def _identity_rotation() -> np.ndarray:
    return np.eye(3)


@dataclass(frozen=True)
class HelmertParams:
    """Similarity transform nav = scale * rotation @ point + translation."""

    scale: float = 1.0
    rotation: np.ndarray = field(default_factory=_identity_rotation)
    translation: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        rot = np.asarray(self.rotation, dtype=float)
        trans = np.asarray(self.translation, dtype=float)
        if rot.shape != (3, 3) or not np.all(np.isfinite(rot)):
            raise ValueError("rotation must be a finite 3x3 matrix")
        if trans.shape != (3,) or not np.all(np.isfinite(trans)):
            raise ValueError("translation must be a finite 3-vector")
        if not (math.isfinite(self.scale) and self.scale > 0.0):
            raise ValueError(f"scale must be positive, got {self.scale}")
        if not np.allclose(rot.T @ rot, np.eye(3), atol=1e-8):
            raise ValueError("rotation must be orthonormal")
        if np.linalg.det(rot) < 0.0:
            raise ValueError("rotation must be proper (det +1), got a reflection")
        object.__setattr__(self, "rotation", rot)
        object.__setattr__(self, "translation", trans)

    @classmethod
    def identity(cls) -> "HelmertParams":
        return cls()


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
    """Map a point through the similarity transform: s * R @ p + t."""
    p = np.asarray(point, dtype=float)
    if p.shape != (3,):
        raise ValueError(f"point must be a 3-vector, got shape {p.shape}")
    return np.array(_helmert(params, *p.tolist()))


def fit_helmert(pairs: Sequence[tuple]) -> HelmertParams:
    """Least-squares similarity transform from (source, target) point pairs.

    Closed-form solution: remove centroids, factor the cross-covariance by SVD
    with a reflection correction so the rotation stays proper, take scale as
    the ratio of RMS spreads, then solve the translation from the centroids.
    Needs at least three pairs in general position.

    Raises ValueError for fewer than three pairs or a degenerate (collinear)
    source configuration.
    """
    if len(pairs) < 3:
        raise ValueError(f"Helmert fit needs at least 3 point pairs, got {len(pairs)}")
    src = np.array([np.asarray(s, dtype=float) for s, _ in pairs])
    dst = np.array([np.asarray(t, dtype=float) for _, t in pairs])
    if src.shape[1:] != (3,) or dst.shape[1:] != (3,):
        raise ValueError("point pairs must be 3-vectors")
    if not (np.all(np.isfinite(src)) and np.all(np.isfinite(dst))):
        raise ValueError("point pairs must be finite")

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
