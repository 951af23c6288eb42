import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from tiltcomp import (
    ErrorStats,
    STATS_CSV_HEADER,
    compute_stats,
    render_report,
    stats_csv_row,
)

# Field-trial benchmark rows this toolkit is judged against:
# per-axis means, per-axis sample stds, 3D RMSE (all mm), sample count.
BENCHMARK_ROWS = [
    ("1", (-0.046, -0.160, 0.006), (2.037, 1.809, 0.906), 2.867, 154),
    ("2", (-0.290, 0.239, 0.077), (8.570, 4.930, 1.052), 9.887, 80),
    ("3", (-0.337, -1.072, -1.651), (7.967, 4.779, 9.652), 13.472, 92),
    ("4", (-1.797, -0.511, 2.030), (19.211, 9.625, 9.727), 23.640, 111),
    ("5", (-2.184, -0.422, 0.483), (10.566, 9.644, 9.767), 17.406, 134),
]


def test_zero_residuals_give_zero_stats():
    ref = np.array([5.0, 0.0, 0.0])
    stats = compute_stats([ref, ref, ref], ref)
    assert_allclose(stats.mean_mm, np.zeros(3), atol=0.0)
    assert_allclose(stats.std_mm, np.zeros(3), atol=0.0)
    assert stats.rmse3d_mm == 0.0
    assert stats.n == 3


def test_millimeter_offsets_in_two_axes():
    ref = np.zeros(3)
    estimates = [
        ref + np.array([0.001, 0.0, 0.0]),
        ref + np.array([0.0, 0.001, 0.0]),
    ]
    stats = compute_stats(estimates, ref)
    assert_allclose(stats.mean_mm, [0.5, 0.5, 0.0], atol=1e-12)
    assert stats.rmse3d_mm == pytest.approx(1.0, rel=1e-12)


def test_constant_bias_shows_in_mean_not_std():
    ref = np.array([1.0, 2.0, 3.0])
    offset = np.array([0.004, -0.002, 0.001])
    stats = compute_stats([ref + offset] * 10, ref)
    assert_allclose(stats.mean_mm, [4.0, -2.0, 1.0], atol=1e-9)
    assert_allclose(stats.std_mm, np.zeros(3), atol=1e-9)
    assert stats.rmse3d_mm == pytest.approx(math.sqrt(16.0 + 4.0 + 1.0), rel=1e-9)


def test_single_estimate_has_zero_std():
    stats = compute_stats([np.array([0.003, 0.0, 0.0])], np.zeros(3))
    assert stats.n == 1
    assert_allclose(stats.std_mm, np.zeros(3), atol=0.0)
    assert stats.rmse3d_mm == pytest.approx(3.0, rel=1e-12)


def test_rmse_decomposes_into_mean_and_std():
    rng = np.random.default_rng(44)
    for _ in range(50):
        n = int(rng.integers(2, 40))
        estimates = rng.normal(0.0, 0.01, size=(n, 3))
        stats = compute_stats(estimates, np.zeros(3))
        recon = math.sqrt(
            float(
                np.sum(
                    stats.mean_mm**2 + (n - 1) / n * stats.std_mm**2
                )
            )
        )
        assert stats.rmse3d_mm == pytest.approx(recon, rel=1e-9)


def test_benchmark_rows_satisfy_the_rmse_identity():
    # published per-axis statistics must reproduce the published 3D RMSE
    for label, means, stds, rmse, n in BENCHMARK_ROWS:
        recon = math.sqrt(
            sum(m * m + (n - 1) / n * s * s for m, s in zip(means, stds))
        )
        assert abs(recon - rmse) <= 0.05, f"row {label}: {recon:.4f} vs {rmse}"


def test_stats_are_order_invariant():
    rng = np.random.default_rng(45)
    estimates = rng.normal(0.0, 0.005, size=(30, 3))
    shuffled = estimates[rng.permutation(30)]
    a = compute_stats(estimates, np.zeros(3))
    b = compute_stats(shuffled, np.zeros(3))
    assert_allclose(a.mean_mm, b.mean_mm, atol=1e-12)
    assert_allclose(a.std_mm, b.std_mm, atol=1e-12)
    assert a.rmse3d_mm == pytest.approx(b.rmse3d_mm, rel=1e-12)


def test_compute_stats_input_validation():
    with pytest.raises(ValueError, match="empty"):
        compute_stats([], np.zeros(3))
    with pytest.raises(ValueError, match="3-vector"):
        compute_stats([np.zeros(4)], np.zeros(3))
    with pytest.raises(ValueError, match="reference"):
        compute_stats([np.zeros(3)], np.zeros(2))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_compute_stats_rejects_a_value_that_is_not_finite(bad):
    with pytest.raises(ValueError, match="^estimates must be finite$"):
        compute_stats([np.zeros(3), [0.0, bad, 0.0]], np.zeros(3))
    with pytest.raises(ValueError, match="^reference must be finite, got "):
        compute_stats([np.zeros(3)], [0.0, 0.0, bad])


def test_compute_stats_accepts_finite_estimates_whose_rmse_overflows():
    with pytest.warns(RuntimeWarning, match="overflow"):
        stats = compute_stats([[1e200, 0.0, 0.0]], np.zeros(3))
    assert math.isinf(stats.rmse3d_mm)
    assert stats.mean_mm[0] == 1e203


def numpy_stats(estimates, reference):
    """(mean, std, rmse) by numpy's own reductions: the formula compute_stats
    must match bit for bit."""
    residuals = (np.asarray(estimates, dtype=float) - reference) * 1000.0
    rmse = float(np.sqrt(np.mean(np.sum(residuals**2, axis=1))))
    std = residuals.std(axis=0, ddof=1) if len(residuals) > 1 else np.zeros(3)
    return residuals.mean(axis=0), std, rmse


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 72_000),
    seed=st.integers(0, 2**32 - 1),
    spread=st.sampled_from([0.0, 1e-9, 1e-4, 1.0, 1e3, 1e9]),
    offset=st.floats(-1e6, 1e6),
)
@example(n=1, seed=0, spread=1.0, offset=0.0)
@example(n=2, seed=1, spread=1e-4, offset=5.0)
@example(n=72_000, seed=2, spread=0.01, offset=-3.0)
def test_compute_stats_matches_numpy_mean_and_std_bit_for_bit(n, seed, spread, offset):
    rng = np.random.default_rng(seed)
    estimates = offset + spread * rng.standard_normal((n, 3))
    reference = rng.standard_normal(3)
    stats = compute_stats(estimates, reference)
    mean, std, rmse = numpy_stats(estimates, reference)
    assert stats.mean_mm.tobytes() == mean.tobytes()
    assert stats.std_mm.tobytes() == std.tobytes()
    assert stats.rmse3d_mm.hex() == rmse.hex()
    assert stats.n == n


def test_error_stats_validation():
    with pytest.raises(ValueError):
        ErrorStats(np.zeros(3), np.zeros(3), rmse3d_mm=1.0, n=0)
    with pytest.raises(ValueError):
        ErrorStats(np.zeros(3), np.zeros(3), rmse3d_mm=-1.0, n=5)


@pytest.mark.parametrize("n", [2.5, 2.0, math.nan, "2", None, True])
def test_error_stats_rejects_a_count_that_is_not_an_integer(n):
    with pytest.raises(ValueError, match="n must be an integer >= 1"):
        ErrorStats(np.zeros(3), np.zeros(3), rmse3d_mm=1.0, n=n)


def test_error_stats_rejects_a_nan_rmse_and_keeps_an_infinite_one():
    with pytest.raises(ValueError, match="rmse3d_mm must be >= 0, got nan"):
        ErrorStats(np.zeros(3), np.zeros(3), rmse3d_mm=math.nan, n=2)
    assert ErrorStats(np.zeros(3), np.zeros(3), rmse3d_mm=math.inf, n=2).rmse3d_mm == math.inf


def test_report_lists_all_rows_with_values():
    rows = [
        (label, ErrorStats(np.asarray(means), np.asarray(stds), rmse, n))
        for label, means, stds, rmse, n in BENCHMARK_ROWS
    ]
    report = render_report(rows)
    lines = report.splitlines()
    assert lines[0] == "Position error statistics (all values in mm)"
    assert "RMSE_3D" in lines[1]
    assert len(lines) == 2 + len(rows)
    assert "2.867" in lines[2]
    assert "154" in lines[2]
    assert "23.640" in lines[5]
    # columns line up because every data cell is fixed width
    assert len(set(len(line) for line in lines[1:])) == 1


def test_report_pads_long_labels():
    rows = [
        ("short", ErrorStats(np.zeros(3), np.zeros(3), 0.0, 1)),
        ("a-much-longer-label", ErrorStats(np.ones(3), np.ones(3), 1.7, 2)),
    ]
    lines = render_report(rows).splitlines()
    assert len(set(len(line) for line in lines[1:])) == 1


def test_stats_csv_row_matches_header():
    stats = ErrorStats(
        np.array([-0.046, -0.160, 0.006]),
        np.array([2.037, 1.809, 0.906]),
        2.867,
        154,
    )
    row = stats_csv_row("run", stats)
    assert len(row.split(",")) == len(STATS_CSV_HEADER.split(","))
    assert row == "run,-0.046000,-0.160000,0.006000,2.037000,1.809000,0.906000,2.867000,154"


@pytest.mark.parametrize("label", ["north, run 2", "a\nb", "a\r", ","])
def test_stats_csv_row_rejects_a_label_that_would_break_the_row(label):
    stats = ErrorStats(np.zeros(3), np.zeros(3), 0.0, 1)
    with pytest.raises(ValueError, match="label"):
        stats_csv_row(label, stats)
