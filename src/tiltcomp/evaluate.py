"""Per-axis error statistics against a fixed reference point.

Residuals are estimate minus reference, reported in millimeters: per-axis
mean and sample standard deviation (n-1 divisor, zero when n = 1) and the
3D root-mean-square error

    rmse3d = sqrt(mean of (dx^2 + dy^2 + dz^2)),

which satisfies rmse3d^2 = sum over axes of (mean^2 + (n-1)/n * std^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._fields import _integer, _vec3

__all__ = [
    "ErrorStats",
    "compute_stats",
    "render_report",
    "STATS_CSV_HEADER",
    "stats_csv_row",
]

STATS_CSV_HEADER = "id,mean_x_mm,mean_y_mm,mean_z_mm,std_x_mm,std_y_mm,std_z_mm,rmse3d_mm,n"


@dataclass(frozen=True)
class ErrorStats:
    """Residual statistics of a measurement series, all lengths in mm.

    ``n`` must be an integer >= 1 and ``rmse3d_mm`` >= 0; an infinite RMSE,
    which finite estimates can reach by overflow, is kept.
    """

    mean_mm: np.ndarray
    std_mm: np.ndarray
    rmse3d_mm: float
    n: int

    def __post_init__(self):
        object.__setattr__(self, "mean_mm", np.asarray(self.mean_mm, dtype=float))
        object.__setattr__(self, "std_mm", np.asarray(self.std_mm, dtype=float))
        if not _integer(self.n) or self.n < 1:
            raise ValueError(f"n must be an integer >= 1, got {self.n!r}")
        if not self.rmse3d_mm >= 0.0:
            raise ValueError(f"rmse3d_mm must be >= 0, got {self.rmse3d_mm}")


def compute_stats(estimates: Sequence, reference) -> ErrorStats:
    """Statistics of the deviations of position estimates from a known point.

    ``estimates`` is a sequence of navigation-frame 3-vectors in meters;
    ``reference`` the true position in meters. Raises ValueError on empty
    input, or unless the estimates and the reference are finite 3-vectors.
    """
    points = np.atleast_2d(np.asarray(estimates, dtype=float))
    if points.size == 0:
        raise ValueError("cannot compute statistics of an empty estimate series")
    if points.shape[1] != 3:
        raise ValueError(f"estimates must be 3-vectors, got shape {points.shape}")
    ref = _vec3(reference, "reference")

    residuals_mm = (points - ref) * 1000.0
    squares = residuals_mm * residuals_mm
    rmse3d = float(np.sqrt(np.mean(squares[:, 0] + squares[:, 1] + squares[:, 2])))
    # A finite RMSE implies finite estimates; only a non-finite one (which
    # finite estimates can reach by overflow) needs the elementwise test.
    if not math.isfinite(rmse3d) and not np.all(np.isfinite(points)):
        raise ValueError("estimates must be finite")
    # The sums and divisions of ndarray.mean and ndarray.std(ddof=1), one sum shared.
    n = len(residuals_mm)
    mean = residuals_mm.sum(axis=0) / n
    if n > 1:
        residuals_mm -= mean
        residuals_mm *= residuals_mm
        std = np.sqrt(residuals_mm.sum(axis=0) / (n - 1))
    else:
        std = np.zeros(3)
    return ErrorStats(mean_mm=mean, std_mm=std, rmse3d_mm=rmse3d, n=n)


def render_report(rows: Sequence[tuple[str, ErrorStats]]) -> str:
    """Fixed-width summary table, one row per labeled series, values in mm."""
    label_width = max([len(str(label)) for label, _ in rows] + [2])
    header = (
        f"{'ID':<{label_width}}  "
        f"{'mean_X':>9} {'mean_Y':>9} {'mean_Z':>9}  "
        f"{'std_X':>9} {'std_Y':>9} {'std_Z':>9}  "
        f"{'RMSE_3D':>9} {'n':>6}"
    )
    lines = ["Position error statistics (all values in mm)", header]
    for label, stats in rows:
        mx, my, mz = stats.mean_mm
        sx, sy, sz = stats.std_mm
        lines.append(
            f"{str(label):<{label_width}}  "
            f"{mx:>9.3f} {my:>9.3f} {mz:>9.3f}  "
            f"{sx:>9.3f} {sy:>9.3f} {sz:>9.3f}  "
            f"{stats.rmse3d_mm:>9.3f} {stats.n:>6d}"
        )
    return "\n".join(lines)


def _check_label(label: str) -> str:
    """A stats CSV id: a comma or line break would break the row."""
    if any(c in label for c in ",\r\n"):
        raise ValueError(f"label must not hold a comma or line break, got {label!r}")
    return label


def stats_csv_row(label: str, stats: ErrorStats) -> str:
    """One machine-readable line matching :data:`STATS_CSV_HEADER`; raises
    ValueError for a label holding a comma or line break."""
    _check_label(label)
    mx, my, mz = stats.mean_mm
    sx, sy, sz = stats.std_mm
    return (
        f"{label},{mx:.6f},{my:.6f},{mz:.6f},"
        f"{sx:.6f},{sy:.6f},{sz:.6f},{stats.rmse3d_mm:.6f},{stats.n}"
    )
