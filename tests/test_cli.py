import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.spatial.transform import Rotation

from tiltcomp import (
    Attitude,
    FusedRecord,
    GroundTruthSample,
    HelmertParams,
    ImuSample,
    Pipeline,
    RtsObservation,
    apply_helmert,
    decode_can_frames,
    parse_can_dump_line,
    parse_imu_line,
    parse_rts_line,
    read_fused_csv,
    read_helmert_file,
    write_fused_csv,
    write_imu_line,
    write_rts_line,
    write_truth_csv,
)
from tiltcomp.cli import ConfigError, main, parse_scenario_config
from tiltcomp.evaluate import STATS_CSV_HEADER

G = 9.80665

QUIET_CONFIG = """\
# pole pivot run, noiseless
duration_s = 20
idle_duration_s = 10
seed = 0
gyro_noise_density_deg = 0
gyro_bias_deg_per_h = 0
accel_sigma = 0
rts_range_sigma_m = 0
rts_angle_sigma_rad = 0
"""


def write_level_streams(tmp_path, n_imu=100, rts_times=(0.25, 0.5, 0.75), gyro_z=0.0, idle=0):
    """Small grid-aligned streams: level accel, optional yaw rate after idle."""
    imu_path = tmp_path / "imu.txt"
    with open(imu_path, "w") as f:
        for i in range(n_imu):
            gz = gyro_z if i >= idle else 0.0
            sample = ImuSample(i / 100.0, [0.0, 0.0, G], [0.0, 0.0, gz])
            f.write(write_imu_line(sample) + "\n")
    rts_path = tmp_path / "rts.txt"
    with open(rts_path, "w") as f:
        for t in rts_times:
            f.write(write_rts_line(RtsObservation(t, 5.0, 0.3, 1.5)) + "\n")
    return imu_path, rts_path


def test_parse_config_full_round():
    cfg = parse_scenario_config(
        "duration_s = 30\n"
        "idle_duration_s = 5\n"
        "poi_nav = 5, 0, 0\n"
        "rts_station = 1,2,3\n"
        "roll_amplitude_deg = 45\n"
        "accel_sigma = 0.02\n"
        "seed = 9\n"
    )
    assert cfg.duration_s == 30.0
    assert cfg.idle_duration_s == 5.0
    assert_allclose(cfg.rts_station, [1.0, 2.0, 3.0])
    assert cfg.roll_amplitude_deg == 45.0
    assert cfg.noise.accel_sigma == 0.02
    # untouched keys keep their defaults
    assert cfg.noise.rts_range_sigma_m == 0.001
    assert cfg.seed == 9


def test_parse_config_merges_lever_arm_keys():
    cfg = parse_scenario_config("imu_to_poi_b = 0, 0, -1.5\n")
    assert_allclose(cfg.lever_arms.imu_to_poi_b, [0.0, 0.0, -1.5])
    assert_allclose(cfg.lever_arms.imu_to_prism_b, [0.0, 0.0, 0.0756])


def test_parse_config_comments_and_blanks():
    cfg = parse_scenario_config("\n# nothing but comments\n  \nduration_s = 12 # trailing\n")
    assert cfg.duration_s == 12.0


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("duration_s 30\n", "key = value"),
        ("duration_s = 30\nduration_s = 40\n", "duplicate"),
        ("unknown_thing = 1\n", "unknown_thing"),
        ("duration_s = fast\n", "duration_s"),
        ("poi_nav = 1,2\n", "poi_nav"),
        ("seed = 1.5\n", "seed"),
        ("roll_amplitude_deg = 75\n", "roll_amplitude_deg"),
        ("accel_sigma = -1\n", "accel_sigma"),
    ],
)
def test_parse_config_rejects_malformed(text, fragment):
    with pytest.raises(ConfigError, match=fragment):
        parse_scenario_config(text)


def test_simulate_writes_streams(tmp_path, capsys):
    config = tmp_path / "scenario.cfg"
    config.write_text(QUIET_CONFIG)
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(config), "--out-dir", str(out)]) == 0

    assert len((out / "imu.txt").read_text().splitlines()) == 2000
    assert len((out / "rts.txt").read_text().splitlines()) == 100
    assert len((out / "truth.csv").read_text().splitlines()) == 2001
    captured = capsys.readouterr()
    assert "2000 IMU samples" in captured.out
    assert "100 observations" in captured.out


def test_simulate_is_reproducible(tmp_path):
    config = tmp_path / "scenario.cfg"
    config.write_text(QUIET_CONFIG)
    for name in ("a", "b"):
        assert main(["simulate", "--config", str(config), "--out-dir", str(tmp_path / name)]) == 0
    for name in ("imu.txt", "rts.txt", "truth.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_full_chain_simulate_fuse_eval(tmp_path, capsys):
    config = tmp_path / "scenario.cfg"
    config.write_text(QUIET_CONFIG)
    run = tmp_path / "run"
    assert main(["simulate", "--config", str(config), "--out-dir", str(run)]) == 0

    fused = tmp_path / "fused.csv"
    rc = main(
        [
            "fuse",
            "--imu", str(run / "imu.txt"),
            "--rts", str(run / "rts.txt"),
            "--out", str(fused),
        ]
    )
    assert rc == 0

    records = read_fused_csv(fused)
    # the idle-period observations are evicted unpaired; motion ones all pair
    assert len(records) == 50
    times = [r.timestamp for r in records]
    assert times == sorted(times)
    assert times[0] >= 10.0
    for record in records[:5]:
        assert record.imu_timestamp_used == record.timestamp

    stats_path = tmp_path / "stats.csv"
    rc = main(
        [
            "eval",
            "--fused", str(fused),
            "--truth", str(run / "truth.csv"),
            "--out", str(stats_path),
            "--label", "quiet",
        ]
    )
    assert rc == 0
    captured = capsys.readouterr()
    assert "Position error statistics" in captured.out

    header, row = stats_path.read_text().splitlines()
    assert header == STATS_CSV_HEADER
    fields = row.split(",")
    assert fields[0] == "quiet"
    assert int(fields[8]) == 50
    assert float(fields[7]) < 5.0  # noiseless run lands within millimeters


def test_fuse_is_deterministic(tmp_path):
    imu, rts = write_level_streams(tmp_path)
    outputs = []
    for name in ("one.csv", "two.csv"):
        out = tmp_path / name
        assert main(
            ["fuse", "--imu", str(imu), "--rts", str(rts), "--out", str(out),
             "--bias-count", "10"]
        ) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_fuse_defaults_match_library_replay(tmp_path):
    config = tmp_path / "scenario.cfg"
    config.write_text("duration_s = 60\nseed = 3\n")
    run = tmp_path / "run"
    assert main(["simulate", "--config", str(config), "--out-dir", str(run)]) == 0
    cli_out = tmp_path / "cli.csv"
    assert main(
        ["fuse", "--imu", str(run / "imu.txt"), "--rts", str(run / "rts.txt"),
         "--out", str(cli_out)]
    ) == 0

    def read(path, parse_line):
        lines = path.read_text().splitlines()
        return [parse_line(line, line_number=i) for i, line in enumerate(lines, 1)]

    records = Pipeline().replay(
        read(run / "imu.txt", parse_imu_line), read(run / "rts.txt", parse_rts_line)
    )
    lib_out = tmp_path / "library.csv"
    write_fused_csv(records, lib_out)
    assert lib_out.read_bytes() == cli_out.read_bytes()


def test_fuse_pairs_on_the_grid(tmp_path, capsys):
    imu, rts = write_level_streams(tmp_path)
    out = tmp_path / "fused.csv"
    assert main(
        ["fuse", "--imu", str(imu), "--rts", str(rts), "--out", str(out),
         "--bias-count", "10"]
    ) == 0
    records = read_fused_csv(out)
    assert [r.timestamp for r in records] == [0.25, 0.5, 0.75]
    assert [r.imu_timestamp_used for r in records] == [0.25, 0.5, 0.75]
    assert "wrote 3 fused records" in capsys.readouterr().out


def test_fuse_latency_flag_shifts_pairing(tmp_path):
    imu, rts = write_level_streams(tmp_path, rts_times=(0.5,))
    out = tmp_path / "fused.csv"
    assert main(
        ["fuse", "--imu", str(imu), "--rts", str(rts), "--out", str(out),
         "--bias-count", "10", "--rts-latency", "0.2"]
    ) == 0
    record = read_fused_csv(out)[0]
    assert record.timestamp == 0.5
    assert record.imu_timestamp_used == 0.3


def test_fuse_tolerance_flag_rescues_observation_before_first_attitude(tmp_path):
    # the first attitude estimate appears at t = 0.09 (tenth sample); an
    # observation just before that is unpairable under the strict replay rule
    imu, rts = write_level_streams(tmp_path, rts_times=(0.085,))
    out = tmp_path / "fused.csv"
    assert main(
        ["fuse", "--imu", str(imu), "--rts", str(rts), "--out", str(out),
         "--bias-count", "10"]
    ) == 0
    assert read_fused_csv(out) == []

    assert main(
        ["fuse", "--imu", str(imu), "--rts", str(rts), "--out", str(out),
         "--bias-count", "10", "--pairing-tolerance", "0.05"]
    ) == 0
    records = read_fused_csv(out)
    assert len(records) == 1
    assert records[0].imu_timestamp_used == 0.13


def test_fuse_yaw_modes(tmp_path):
    imu, rts = write_level_streams(tmp_path, gyro_z=0.1, idle=10, rts_times=(0.75,))
    out = tmp_path / "fused.csv"

    assert main(
        ["fuse", "--imu", str(imu), "--rts", str(rts), "--out", str(out),
         "--bias-count", "10", "--initial-yaw-deg", "30"]
    ) == 0
    held = read_fused_csv(out)[0]
    assert math.degrees(held.attitude_used.yaw) == pytest.approx(30.0, abs=1e-6)

    assert main(
        ["fuse", "--imu", str(imu), "--rts", str(rts), "--out", str(out),
         "--bias-count", "10", "--initial-yaw-deg", "30", "--integrate-yaw"]
    ) == 0
    integrated = read_fused_csv(out)[0]
    assert math.degrees(integrated.attitude_used.yaw) > 31.0


def test_fuse_reports_unpaired_observations(tmp_path, capsys):
    # observations from before the first attitude estimate block the queue
    # and end the replay still buffered
    imu, rts = write_level_streams(tmp_path, rts_times=(0.03, 0.5))
    out = tmp_path / "fused.csv"
    assert main(
        ["fuse", "--imu", str(imu), "--rts", str(rts), "--out", str(out),
         "--bias-count", "10"]
    ) == 0
    assert "2 observations left unpaired" in capsys.readouterr().out
    assert read_fused_csv(out) == []


def test_fuse_applies_helmert_file(tmp_path):
    imu, rts = write_level_streams(tmp_path, rts_times=(0.5,))
    params = HelmertParams(translation=np.array([100.0, 0.0, 0.0]))
    helmert_path = tmp_path / "frame.txt"
    from tiltcomp import write_helmert_file

    write_helmert_file(params, helmert_path)
    out = tmp_path / "fused.csv"
    assert main(
        ["fuse", "--imu", str(imu), "--rts", str(rts), "--out", str(out),
         "--bias-count", "10", "--helmert", str(helmert_path)]
    ) == 0
    record = read_fused_csv(out)[0]
    assert record.prism_nav[0] > 100.0


def test_fuse_writes_can_dump(tmp_path):
    imu, rts = write_level_streams(tmp_path)
    out = tmp_path / "fused.csv"
    dump = tmp_path / "frames.dump"
    assert main(
        ["fuse", "--imu", str(imu), "--rts", str(rts), "--out", str(out),
         "--bias-count", "10", "--can-out", str(dump), "--can-base-id", "0x300"]
    ) == 0
    records = read_fused_csv(out)
    lines = dump.read_text().splitlines()
    assert len(lines) == 3 * len(records)

    frames = [parse_can_dump_line(line) for line in lines[:3]]
    assert frames[0].can_id == 0x300
    prism, poi = decode_can_frames(frames)
    assert_allclose(prism, records[0].prism_nav, atol=5.1e-5)
    assert_allclose(poi, records[0].poi_nav, atol=5.1e-5)


def test_helmert_fit_recovers_transform(tmp_path, capsys):
    rng = np.random.default_rng(50)
    truth = HelmertParams(
        scale=1.2,
        rotation=Rotation.random(rng=rng).as_matrix(),
        translation=np.array([3.0, -4.0, 5.0]),
    )
    pairs_path = tmp_path / "pairs.csv"
    with open(pairs_path, "w") as f:
        f.write("sx,sy,sz,tx,ty,tz\n")
        for _ in range(8):
            src = rng.uniform(-10.0, 10.0, size=3)
            dst = apply_helmert(truth, src)
            f.write(",".join(f"{v:.17g}" for v in (*src, *dst)) + "\n")

    out = tmp_path / "frame.txt"
    assert main(["helmert-fit", "--pairs", str(pairs_path), "--out", str(out)]) == 0
    assert "rms residual" in capsys.readouterr().out

    fitted = read_helmert_file(out)
    assert fitted.scale == pytest.approx(1.2, abs=1e-9)
    assert_allclose(fitted.rotation, truth.rotation, atol=1e-9)
    assert_allclose(fitted.translation, truth.translation, atol=1e-9)


def test_eval_fixed_reference_zero_error(tmp_path, capsys):
    poi = np.array([1.0, 2.0, 3.0])
    records = [
        FusedRecord(
            timestamp=i / 5.0,
            prism_nav=poi + np.array([0.0, 0.0, 1.0676]),
            poi_nav=poi,
            attitude_used=Attitude(),
            alpha_used=0.9,
            imu_timestamp_used=i / 5.0,
        )
        for i in range(4)
    ]
    fused = tmp_path / "fused.csv"
    write_fused_csv(records, fused)
    stats_path = tmp_path / "stats.csv"
    assert main(
        ["eval", "--fused", str(fused), "--ref", "1,2,3", "--out", str(stats_path)]
    ) == 0
    row = stats_path.read_text().splitlines()[1]
    fields = row.split(",")
    assert float(fields[7]) == 0.0
    assert int(fields[8]) == 4
    assert "0.000" in capsys.readouterr().out


def test_eval_rejects_non_overlapping_truth(tmp_path, capsys):
    records = [
        FusedRecord(
            timestamp=999.5,
            prism_nav=np.zeros(3),
            poi_nav=np.zeros(3),
            attitude_used=Attitude(),
            alpha_used=0.9,
            imu_timestamp_used=999.5,
        )
    ]
    fused = tmp_path / "fused.csv"
    write_fused_csv(records, fused)
    truth = tmp_path / "truth.csv"
    write_truth_csv(
        [GroundTruthSample(0.0, Attitude(), np.zeros(3), np.zeros(3))], truth
    )
    rc = main(
        ["eval", "--fused", str(fused), "--truth", str(truth), "--out", str(tmp_path / "s.csv")]
    )
    assert rc == 2
    assert "overlap" in capsys.readouterr().err


def test_eval_rejects_moving_truth_poi(tmp_path, capsys):
    records = [
        FusedRecord(
            timestamp=i / 5.0,
            prism_nav=np.zeros(3),
            poi_nav=np.zeros(3),
            attitude_used=Attitude(),
            alpha_used=0.9,
            imu_timestamp_used=i / 5.0,
        )
        for i in range(2)
    ]
    fused = tmp_path / "fused.csv"
    write_fused_csv(records, fused)
    truth = tmp_path / "truth.csv"
    write_truth_csv(
        [
            GroundTruthSample(0.0, Attitude(), np.zeros(3), np.zeros(3)),
            GroundTruthSample(0.2, Attitude(), np.zeros(3), np.array([0.5, 0.0, 0.0])),
        ],
        truth,
    )
    rc = main(
        ["eval", "--fused", str(fused), "--truth", str(truth), "--out", str(tmp_path / "s.csv")]
    )
    assert rc == 2
    assert "varies" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["bogus"],
        ["fuse"],
        ["simulate", "--config"],
        ["eval", "--fused", "x.csv", "--out", "y.csv"],
        ["eval", "--fused", "x.csv", "--truth", "t.csv", "--ref", "1,2,3", "--out", "y.csv"],
    ],
)
def test_usage_errors_exit_one(argv):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 1


def test_help_exits_zero():
    with pytest.raises(SystemExit) as excinfo:
        main(["--help"])
    assert excinfo.value.code == 0


def test_data_errors_exit_two(tmp_path, capsys):
    missing = tmp_path / "nope.cfg"
    assert main(["simulate", "--config", str(missing), "--out-dir", str(tmp_path)]) == 2
    assert "error:" in capsys.readouterr().err

    bad_cfg = tmp_path / "bad.cfg"
    bad_cfg.write_text("roll_amplitude_deg = 75\n")
    assert main(["simulate", "--config", str(bad_cfg), "--out-dir", str(tmp_path)]) == 2

    imu, rts = write_level_streams(tmp_path, n_imu=5)
    (tmp_path / "broken.txt").write_text(
        write_imu_line(ImuSample(0.0, [0, 0, G], [0, 0, 0])) + "\nIMU,oops\n"
    )
    rc = main(
        ["fuse", "--imu", str(tmp_path / "broken.txt"), "--rts", str(rts),
         "--out", str(tmp_path / "f.csv"), "--bias-count", "2"]
    )
    assert rc == 2
    assert "line 2" in capsys.readouterr().err

    empty = tmp_path / "empty.txt"
    empty.write_text("")
    rc = main(
        ["fuse", "--imu", str(empty), "--rts", str(rts),
         "--out", str(tmp_path / "f.csv")]
    )
    assert rc == 2
    assert "no IMU samples" in capsys.readouterr().err

    rc = main(
        ["fuse", "--imu", str(imu), "--rts", str(rts),
         "--out", str(tmp_path / "f.csv"), "--imu-to-prism", "1,2"]
    )
    assert rc == 2

    rc = main(
        ["eval", "--fused", str(tmp_path / "missing.csv"), "--ref", "0,0,0",
         "--out", str(tmp_path / "s.csv")]
    )
    assert rc == 2


def test_helmert_fit_degenerate_exits_two(tmp_path, capsys):
    pairs_path = tmp_path / "pairs.csv"
    with open(pairs_path, "w") as f:
        f.write("sx,sy,sz,tx,ty,tz\n")
        for i in range(4):
            f.write(f"{i},0,0,{i},0,0\n")
    rc = main(["helmert-fit", "--pairs", str(pairs_path), "--out", str(tmp_path / "h.txt")])
    assert rc == 2
    assert "collinear" in capsys.readouterr().err
