import dataclasses
import errno
import hashlib
import math
import os
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.spatial.transform import Rotation

from tiltcomp import (
    FUSED_CSV_HEADER,
    PAIRS_CSV_HEADER,
    TRUTH_CSV_HEADER,
    Attitude,
    FormatError,
    FusedRecord,
    HelmertParams,
    ImuSample,
    LeverArms,
    NoiseSpec,
    Pipeline,
    PipelineConfig,
    RtsObservation,
    ScenarioConfig,
    apply_helmert,
    decode_can_frames,
    parse_can_dump_line,
    parse_imu_line,
    parse_rts_line,
    read_csv_record,
    read_fused_csv,
    read_helmert_file,
    read_pairs_csv,
    read_truth_csv,
    write_csv_record,
    write_fused_csv,
    write_helmert_file,
    write_imu_line,
    write_rts_line,
    write_truth_csv,
)
from tiltcomp import cli
from tiltcomp.cli import ConfigError, main, parse_scenario_config
from tiltcomp.evaluate import STATS_CSV_HEADER, compute_stats, stats_csv_row

G = 9.80665

# Columns of the table read_fused_csv returns, by FUSED_CSV_HEADER name.
COLUMN = {name: k for k, name in enumerate(FUSED_CSV_HEADER.split(","))}
T, IMU_T, YAW = COLUMN["t_s"], COLUMN["imu_t_s"], COLUMN["yaw_deg"]
PRISM = [COLUMN[f"prism_{axis}_m"] for axis in "xyz"]
POI = [COLUMN[f"poi_{axis}_m"] for axis in "xyz"]

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


def level_truth(times, pois=None):
    """A ground-truth table of level rows at ``times``: the prism at the
    origin, the POI there too or at ``pois``, one per row."""
    table = np.zeros((len(times), len(TRUTH_CSV_HEADER.split(","))))
    table[:, 0] = times
    if pois is not None:
        table[:, 7:10] = pois
    return table


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


# Every key a scenario config accepts: the number, integer and x,y,z fields of
# ScenarioConfig, NoiseSpec and LeverArms, each with a non-default value.
ALL_CONFIG_KEYS = {
    "duration_s": ("40", 40.0),
    "imu_rate_hz": ("200", 200.0),
    "rts_rate_hz": ("10", 10.0),
    "idle_duration_s": ("6", 6.0),
    "poi_nav": ("4, 1, -0.5", [4.0, 1.0, -0.5]),
    "rts_station": ("0.5, -0.25, 1", [0.5, -0.25, 1.0]),
    "roll_amplitude_deg": ("15", 15.0),
    "roll_frequency_hz": ("0.05", 0.05),
    "roll_phase_rad": ("0.3", 0.3),
    "pitch_amplitude_deg": ("12", 12.0),
    "pitch_frequency_hz": ("0.04", 0.04),
    "pitch_phase_rad": ("-0.2", -0.2),
    "yaw_deg": ("30", 30.0),
    "yaw_rate_deg_s": ("0.5", 0.5),
    "gravity": ("9.81", 9.81),
    "seed": ("3", 3),
    "gyro_noise_density_deg": ("0.001", 0.001),
    "gyro_bias_deg_per_h": ("0.5", 0.5),
    "accel_sigma": ("0.02", 0.02),
    "rts_range_sigma_m": ("0.002", 0.002),
    "rts_angle_sigma_rad": ("1e-5", 1e-5),
    "imu_to_prism_b": ("0.01, 0, 0.08", [0.01, 0.0, 0.08]),
    "imu_to_poi_b": ("0, 0.005, -1.2", [0.0, 0.005, -1.2]),
}


def test_parse_config_accepts_exactly_the_config_field_keys():
    text = "".join(f"{key} = {text}\n" for key, (text, _) in ALL_CONFIG_KEYS.items())
    cfg = parse_scenario_config(text)
    for key, (_, expected) in ALL_CONFIG_KEYS.items():
        owner = next(obj for obj in (cfg, cfg.noise, cfg.lever_arms) if hasattr(obj, key))
        np.testing.assert_array_equal(getattr(owner, key), expected)

    field_names = {
        f.name for cls in (ScenarioConfig, NoiseSpec, LeverArms) for f in dataclasses.fields(cls)
    }
    assert field_names - set(ALL_CONFIG_KEYS) == {"noise", "lever_arms"}
    for name in ("noise", "lever_arms"):
        with pytest.raises(ConfigError, match=f"unknown config key '{name}'"):
            parse_scenario_config(f"{name} = 1\n")


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


VALUE_FAULTS = [
    ("duration_s", "fast", "could not convert string to float: 'fast'"),
    ("seed", "1.5", "invalid literal for int() with base 10: '1.5'"),
    ("poi_nav", "1,2", "expected three comma-separated numbers, got '1,2'"),
]


@pytest.mark.parametrize("key, value, reason", VALUE_FAULTS)
def test_parse_config_names_the_line_of_a_value_fault(key, value, reason):
    with pytest.raises(ConfigError) as info:
        parse_scenario_config(f"# scenario\nrts_rate_hz = 10\n\n{key} = {value}\n")
    assert str(info.value) == f"line 4: config key {key!r}: {reason}"


@pytest.mark.parametrize("key, value, reason", VALUE_FAULTS)
def test_simulate_names_the_config_line_of_a_value_fault(tmp_path, capsys, key, value, reason):
    config = tmp_path / "scenario.cfg"
    config.write_text(f"rts_rate_hz = 10\n# the fault\n{key} = {value}\n")
    assert main(["simulate", "--config", str(config), "--out-dir", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err == f"error: line 3: config key {key!r}: {reason}\n"
    assert not (tmp_path / "run").exists()


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

    table = read_fused_csv(fused)
    # the idle-period observations are dropped unpaired; motion ones all pair
    assert table.shape == (50, len(COLUMN))
    times = table[:, T].tolist()
    assert times == sorted(times)
    assert times[0] >= 10.0
    assert table[:5, IMU_T].tolist() == table[:5, T].tolist()

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


def test_fuse_pushes_each_record_line_to_the_pipeline_once(tmp_path, monkeypatch):
    """One Pipeline.push_imu call per IMU line and one push_rts call per
    observation line, blank lines skipped: the calls the benchmark's traced
    runs count against the streams' line counts."""
    imu, rts = write_level_streams(tmp_path, n_imu=40, rts_times=(0.15, 0.2, 0.25, 0.3, 0.35))
    for path in (imu, rts):
        path.write_text(path.read_text().replace("\n", "\n\n  \n", 3))
    calls = {"push_imu": 0, "push_rts": 0}
    for name in calls:
        def counted(self, item, _push=getattr(Pipeline, name), _name=name):
            calls[_name] += 1
            return _push(self, item)

        monkeypatch.setattr(Pipeline, name, counted)
    out = tmp_path / "fused.csv"
    assert main(["fuse", "--imu", str(imu), "--rts", str(rts), "--out", str(out),
                 "--bias-count", "10"]) == 0
    assert calls == {"push_imu": 40, "push_rts": 5}
    assert len(read_fused_csv(out)) == 5


def assert_same_config(actual, expected):
    for f in dataclasses.fields(expected):
        a, b = getattr(actual, f.name), getattr(expected, f.name)
        if dataclasses.is_dataclass(b):
            assert_same_config(a, b)
        else:
            np.testing.assert_array_equal(a, b, err_msg=f.name)


def fuse_config(tmp_path, monkeypatch, options):
    """The one config ``fuse`` builds its pipeline from, given ``options``."""
    configs = []

    class RecordingPipeline(Pipeline):
        def __init__(self, config=None):
            configs.append(config)
            super().__init__(config)

    monkeypatch.setattr(cli, "Pipeline", RecordingPipeline)
    imu, rts = write_level_streams(tmp_path)
    argv = ["fuse", "--imu", str(imu), "--rts", str(rts), "--out", str(tmp_path / "f.csv")]
    assert main(argv + options) == 0
    assert len(configs) == 1
    return configs[0]


def test_fuse_flag_defaults_build_the_default_pipeline_config(tmp_path, monkeypatch):
    assert_same_config(fuse_config(tmp_path, monkeypatch, []), PipelineConfig())


def replaced(config, path, value):
    """``config`` with the field at the attribute ``path`` set to ``value``."""
    name, *rest = path
    inner = replaced(getattr(config, name), rest, value) if rest else value
    return dataclasses.replace(config, **{name: inner})


SITE = HelmertParams(
    scale=1.5,
    rotation=Rotation.from_euler("z", 30, degrees=True).as_matrix(),
    translation=[100.0, -20.0, 3.0],
)

# Each fuse option that sets a config field: its argv, the field's path and
# the value the field then holds (None: the site transform file).
FUSE_FIELD_OPTIONS = {
    "--alpha-base": (["0.75"], ("filter_config", "alpha_base"), 0.75),
    "--delta-a-threshold": (["0.5"], ("filter_config", "delta_a_threshold"), 0.5),
    "--gravity": (["9.81"], ("filter_config", "gravity"), 9.81),
    "--bias-count": (["12"], ("filter_config", "bias_calibration_count"), 12),
    "--imu-to-prism": (["0.01,0.02,0.08"], ("lever_arms", "imu_to_prism_b"), [0.01, 0.02, 0.08]),
    "--imu-to-poi": (["0, 0, -1.5"], ("lever_arms", "imu_to_poi_b"), [0.0, 0.0, -1.5]),
    "--pairing-tolerance": (["0.05"], ("pairing_tolerance_s",), 0.05),
    "--rts-latency": (["0.2"], ("rts_latency_s",), 0.2),
    "--integrate-yaw": ([], ("hold_yaw",), False),
    "--helmert": (None, ("helmert",), SITE),
}


@pytest.mark.parametrize("option", FUSE_FIELD_OPTIONS)
def test_each_fuse_option_sets_exactly_its_field(tmp_path, monkeypatch, option):
    values, path, value = FUSE_FIELD_OPTIONS[option]
    if values is None:
        write_helmert_file(SITE, tmp_path / "site.helmert")
        values = [str(tmp_path / "site.helmert")]
    config = fuse_config(tmp_path, monkeypatch, [option, *values])
    expected = replaced(PipelineConfig(), path, value)
    assert_same_config(config, expected)
    with pytest.raises(AssertionError):  # the value is not the field's default
        assert_same_config(config, PipelineConfig())


@pytest.mark.parametrize(
    "option, value, code",
    [
        ("--alpha-base", "abc", 1),
        ("--bias-count", "2.5", 1),
        ("--imu-to-poi", "1,2", 2),
        ("--imu-to-prism", "0,0,x", 2),
        ("--alpha-base", "1.5", 2),
        ("--bias-count", "0", 2),
    ],
)
def test_a_bad_fuse_option_value_exits_with_its_code(tmp_path, capsys, option, value, code):
    # A non-finite filter constant (exit 2) is test_fuse_rejects_non_finite_filter_constants.
    imu, rts = write_level_streams(tmp_path)
    argv = ["fuse", "--imu", str(imu), "--rts", str(rts), "--out", str(tmp_path / "f.csv"),
            f"{option}={value}"]
    if code == 1:
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 1
        assert f"{option}: invalid" in capsys.readouterr().err
    else:
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "f.csv").exists()


def help_text(capsys, command):
    """The ``--help`` output of ``command``, its whitespace runs made single spaces."""
    with pytest.raises(SystemExit) as excinfo:
        main([command, "--help"])
    assert excinfo.value.code == 0
    return " ".join(capsys.readouterr().out.split())


# Every fuse option and its help text.
FUSE_HELP = {
    "--imu": "IMU stream file",
    "--rts": "observation stream file",
    "--out": "fused CSV output path",
    "--can-out": "also write a CAN frame hex dump here",
    "--can-base-id": "base identifier for the three coordinate frames (default 0x300)",
    "--helmert": "transform file from helmert-fit (default identity)",
    "--imu-to-prism": "body lever arm IMU->prism, meters",
    "--imu-to-poi": "body lever arm IMU->POI, meters",
    "--alpha-base": "steady-state gyro weight, unitless; in [0, 1] (default 0.9)",
    "--delta-a-threshold": "accel-norm error at full gyro weight, m/s^2; positive (default 1)",
    "--gravity": "local gravity magnitude, m/s^2; positive (default 9.80665)",
    "--bias-count": "idle samples averaged for the gyro bias; finite and >= 1 (default 1000)",
    "--pairing-tolerance": "pairing slack past an observation, s; finite and >= 0 (default 0)",
    "--rts-latency": (
        "age of observation timestamps on the IMU clock, s; finite and >= 0 (default 0)"
    ),
    "--integrate-yaw": "let yaw follow the gyro integral instead of holding the initial value",
    "--initial-yaw-deg": "start yaw, degrees; finite (default 0)",
}


def test_fuse_help_lists_every_option_with_its_help(capsys):
    text = help_text(capsys, "fuse")
    assert set(re.findall(r"--[a-z][a-z-]*", text)) == {*FUSE_HELP, "--help"}
    options = text.split(" options: ", 1)[1]
    for option, words in FUSE_HELP.items():
        # Each option is listed once with its metavar, then its help text.
        listed = re.findall(rf"{option}(?: [A-Z_]+)?(?= |$)", options)
        assert len(listed) == 1, option
        assert f"{listed[0]} {words}" in options


# The scenario keys in the order simulate --help lists them: a walk over the
# config fields, depth first, each config class at the field that holds it.
SIMULATE_HELP_KEYS = [
    "duration_s", "imu_rate_hz", "rts_rate_hz", "idle_duration_s", "poi_nav",
    "rts_station", "imu_to_prism_b", "imu_to_poi_b", "roll_amplitude_deg",
    "roll_frequency_hz", "roll_phase_rad", "pitch_amplitude_deg",
    "pitch_frequency_hz", "pitch_phase_rad", "yaw_deg", "yaw_rate_deg_s",
    "gravity", "gyro_noise_density_deg", "gyro_bias_deg_per_h", "accel_sigma",
    "rts_range_sigma_m", "rts_angle_sigma_rad", "seed",
]


def test_simulate_help_lists_every_config_key(capsys):
    text = help_text(capsys, "simulate")
    assert sorted(SIMULATE_HELP_KEYS) == sorted(ALL_CONFIG_KEYS)
    assert ": " + ", ".join(SIMULATE_HELP_KEYS) + ". " in text


def test_fuse_pairs_on_the_grid(tmp_path, capsys):
    imu, rts = write_level_streams(tmp_path)
    out = tmp_path / "fused.csv"
    assert main(
        ["fuse", "--imu", str(imu), "--rts", str(rts), "--out", str(out),
         "--bias-count", "10"]
    ) == 0
    table = read_fused_csv(out)
    assert table[:, T].tolist() == [0.25, 0.5, 0.75]
    assert table[:, IMU_T].tolist() == [0.25, 0.5, 0.75]
    assert "wrote 3 fused records" in capsys.readouterr().out


def test_fuse_latency_flag_shifts_pairing(tmp_path):
    imu, rts = write_level_streams(tmp_path, rts_times=(0.5,))
    out = tmp_path / "fused.csv"
    assert main(
        ["fuse", "--imu", str(imu), "--rts", str(rts), "--out", str(out),
         "--bias-count", "10", "--rts-latency", "0.2"]
    ) == 0
    (row,) = read_fused_csv(out)
    assert row[T] == 0.5
    assert row[IMU_T] == 0.3


def test_fuse_tolerance_flag_rescues_observation_before_first_attitude(tmp_path):
    # the first attitude estimate appears at t = 0.09 (tenth sample); an
    # observation just before that is unpairable under the strict replay rule
    imu, rts = write_level_streams(tmp_path, rts_times=(0.085,))
    out = tmp_path / "fused.csv"
    assert main(
        ["fuse", "--imu", str(imu), "--rts", str(rts), "--out", str(out),
         "--bias-count", "10"]
    ) == 0
    assert read_fused_csv(out).shape == (0, len(COLUMN))

    assert main(
        ["fuse", "--imu", str(imu), "--rts", str(rts), "--out", str(out),
         "--bias-count", "10", "--pairing-tolerance", "0.05"]
    ) == 0
    (row,) = read_fused_csv(out)
    assert row[IMU_T] == 0.13


def test_fuse_yaw_modes(tmp_path):
    imu, rts = write_level_streams(tmp_path, gyro_z=0.1, idle=10, rts_times=(0.75,))
    out = tmp_path / "fused.csv"

    assert main(
        ["fuse", "--imu", str(imu), "--rts", str(rts), "--out", str(out),
         "--bias-count", "10", "--initial-yaw-deg", "30"]
    ) == 0
    (held,) = read_fused_csv(out)
    assert math.degrees(held[YAW]) == pytest.approx(30.0, abs=1e-6)

    assert main(
        ["fuse", "--imu", str(imu), "--rts", str(rts), "--out", str(out),
         "--bias-count", "10", "--initial-yaw-deg", "30", "--integrate-yaw"]
    ) == 0
    (integrated,) = read_fused_csv(out)
    assert math.degrees(integrated[YAW]) > 31.0


def test_fuse_reports_unpaired_observations(tmp_path, capsys):
    # an observation from before the first attitude estimate is dropped; the
    # one behind it is still paired
    imu, rts = write_level_streams(tmp_path, rts_times=(0.03, 0.5))
    out = tmp_path / "fused.csv"
    assert main(
        ["fuse", "--imu", str(imu), "--rts", str(rts), "--out", str(out),
         "--bias-count", "10"]
    ) == 0
    note = capsys.readouterr().out
    assert note.startswith(f"wrote 1 fused record to {out},")
    assert note.endswith(", 1 observation dropped from the calibration window\n")
    assert read_fused_csv(out)[:, T].tolist() == [0.5]


def test_fuse_reports_observations_a_never_completed_calibration_left_buffered(tmp_path, capsys):
    # 100 samples never complete a 200-sample calibration: the ring buffer keeps
    # the newest 32 of 40 observations and evicted the oldest 8
    imu, rts = write_level_streams(tmp_path, rts_times=[k / 50.0 for k in range(40)])
    out = tmp_path / "fused.csv"
    assert main(
        ["fuse", "--imu", str(imu), "--rts", str(rts), "--out", str(out),
         "--bias-count", "200"]
    ) == 0
    assert capsys.readouterr().out.endswith(
        ", 8 observations dropped from the calibration window"
        ", 32 observations left unpaired (calibration never completed)\n"
    )
    assert len(read_fused_csv(out)) == 0


def test_idle_observations_do_not_hold_back_a_slow_tracker(tmp_path, capsys):
    # 10 idle-period observations at 1 Hz, fewer than the ring buffer holds,
    # are dropped at once instead of blocking the 20 motion ones
    config = tmp_path / "scenario.cfg"
    config.write_text("duration_s = 30\nrts_rate_hz = 1\n")
    run = tmp_path / "run"
    assert main(["simulate", "--config", str(config), "--out-dir", str(run)]) == 0
    out = tmp_path / "fused.csv"
    assert main(["fuse", "--imu", str(run / "imu.txt"), "--rts", str(run / "rts.txt"),
                 "--out", str(out)]) == 0
    note = capsys.readouterr().out.splitlines()[-1]
    assert note.startswith("wrote 20 fused records")
    assert note.endswith(", 10 observations dropped from the calibration window")
    assert read_fused_csv(out)[:, T].tolist() == [float(t) for t in range(10, 30)]


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
    (row,) = read_fused_csv(out)
    assert row[PRISM[0]] > 100.0


def test_fuse_writes_can_dump(tmp_path):
    imu, rts = write_level_streams(tmp_path)
    out = tmp_path / "fused.csv"
    dump = tmp_path / "frames.dump"
    assert main(
        ["fuse", "--imu", str(imu), "--rts", str(rts), "--out", str(out),
         "--bias-count", "10", "--can-out", str(dump), "--can-base-id", "0x300"]
    ) == 0
    table = read_fused_csv(out)
    lines = dump.read_text().splitlines()
    assert len(lines) == 3 * len(table)

    frames = [parse_can_dump_line(line) for line in lines[:3]]
    assert frames[0].can_id == 0x300
    prism, poi = decode_can_frames(frames)
    assert_allclose(prism, table[0, PRISM], atol=5.1e-5)
    assert_allclose(poi, table[0, POI], atol=5.1e-5)


def test_fuse_can_out_rejects_coordinates_past_the_can_range(tmp_path, capsys):
    imu, rts = write_level_streams(tmp_path)
    utm = HelmertParams(translation=np.array([500000.0, 5000000.0, 300.0]))
    helmert_path = tmp_path / "utm.txt"
    write_helmert_file(utm, helmert_path)
    dump = tmp_path / "frames.dump"
    rc = main(
        ["fuse", "--imu", str(imu), "--rts", str(rts), "--out", str(tmp_path / "f.csv"),
         "--bias-count", "10", "--helmert", str(helmert_path), "--can-out", str(dump)]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert f"{dump}: prism_x = " in err
    assert "exceeds the encodable range" in err
    # Every coordinate is checked before either output is opened.
    assert not (tmp_path / "f.csv").exists() and not dump.exists()


def test_fuse_can_out_rejects_a_coordinate_whose_count_overflows(tmp_path, capsys):
    imu, rts = write_level_streams(tmp_path)
    rts.write_text("RTS,0.015,1e306,0,90\n")
    dump = tmp_path / "frames.dump"
    rc = main(
        ["fuse", "--imu", str(imu), "--rts", str(rts), "--out", str(tmp_path / "f.csv"),
         "--bias-count", "1", "--can-out", str(dump)]
    )
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: {dump}: prism_x = 1e+306 m exceeds the encodable range of +/-214748.3647 m\n"
    )
    assert not (tmp_path / "f.csv").exists() and not dump.exists()


# sha256 of the fused CSV and CAN dump that fuse --can-out writes for 25 s of
# dense_100hz-style streams: 1501 records, so the dump spans two blocks.
DENSE_CONFIG = (
    "duration_s = 25\nseed = 5\nrts_rate_hz = 100\nroll_amplitude_deg = 20\n"
    "roll_frequency_hz = 0.3\npitch_amplitude_deg = 20\npitch_frequency_hz = 0.24\n"
)
PINNED_FUSE_OUTPUT = {
    "fused.csv": "f4f7f775adbb9af21fa2c4187171615c7584f68d24dcc6203c6fd32ba5a0f0fd",
    "can.txt": "9179b71aac420c8d345fbf0a55073762e9f66647393230ed648bd69c08f5bf68",
}


def test_fuse_output_matches_pinned_fingerprints(tmp_path, capsys):
    (tmp_path / "scenario.cfg").write_text(DENSE_CONFIG)
    assert main(["simulate", "--config", str(tmp_path / "scenario.cfg"), "--out-dir", str(tmp_path)]) == 0
    fused, dump = tmp_path / "fused.csv", tmp_path / "can.txt"
    assert main(
        ["fuse", "--imu", str(tmp_path / "imu.txt"), "--rts", str(tmp_path / "rts.txt"),
         "--out", str(fused), "--can-out", str(dump)]
    ) == 0
    assert "wrote 1501 fused records" in capsys.readouterr().out
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in (fused, dump)
    }
    assert digests == PINNED_FUSE_OUTPUT


def test_fused_table_holds_what_the_line_reader_reads_of_each_line(tmp_path):
    """read_fused_csv of the fused CSV fuse writes: one float64 row per line,
    bit for bit the fields read_csv_record reads of it, angles included."""
    (tmp_path / "scenario.cfg").write_text(DENSE_CONFIG)
    assert main(["simulate", "--config", str(tmp_path / "scenario.cfg"), "--out-dir", str(tmp_path)]) == 0
    fused = tmp_path / "fused.csv"
    assert main(["fuse", "--imu", str(tmp_path / "imu.txt"), "--rts", str(tmp_path / "rts.txt"),
                 "--out", str(fused)]) == 0
    table = read_fused_csv(fused)
    assert table.dtype == np.float64 and table.shape == (1501, len(COLUMN))
    stacked = []
    for i, line in enumerate(fused.read_text().splitlines()[1:], 2):
        record = read_csv_record(line, i)
        att = record.attitude_used
        stacked.append([record.timestamp, *record.prism_nav.tolist(), *record.poi_nav.tolist(),
                        att.roll, att.pitch, att.yaw, record.alpha_used, record.imu_timestamp_used])
    assert [[v.hex() for v in row] for row in table.tolist()] == [
        [v.hex() for v in row] for row in stacked
    ]


@pytest.mark.parametrize("base_id", ["0x1FFFFFFE", "0x1FFFFFFF", "-1"])
def test_fuse_rejects_a_can_base_id_without_room_before_replay(tmp_path, capsys, base_id):
    imu, rts = write_level_streams(tmp_path)
    out = tmp_path / "f.csv"
    dump = tmp_path / "frames.dump"
    rc = main(
        ["fuse", "--imu", str(imu), "--rts", str(rts), "--out", str(out),
         "--bias-count", "10", "--can-out", str(dump), f"--can-base-id={base_id}"]
    )
    assert rc == 2
    got = int(base_id, 0)
    assert capsys.readouterr().err == (
        f"error: base_id must leave room for three 29-bit ids, got {got:#x}\n"
    )
    assert not out.exists() and not dump.exists()


@pytest.mark.parametrize("base_id", ["zz", "0xZZ", "1.5", ""])
def test_fuse_refuses_a_can_base_id_that_is_not_an_integer(tmp_path, capsys, base_id):
    imu, rts = write_level_streams(tmp_path)
    with pytest.raises(SystemExit) as excinfo:
        main(["fuse", "--imu", str(imu), "--rts", str(rts), "--out", str(tmp_path / "f.csv"),
              f"--can-base-id={base_id}"])
    assert excinfo.value.code == 1
    err = capsys.readouterr().err
    assert (
        f"argument --can-base-id: expected a decimal or 0x-prefixed hex integer, got {base_id!r}"
        in err
    )
    assert "<lambda>" not in err
    assert not (tmp_path / "f.csv").exists()


def test_fuse_accepts_the_highest_can_base_id(tmp_path):
    imu, rts = write_level_streams(tmp_path)
    dump = tmp_path / "frames.dump"
    assert main(
        ["fuse", "--imu", str(imu), "--rts", str(rts), "--out", str(tmp_path / "f.csv"),
         "--bias-count", "10", "--can-out", str(dump), "--can-base-id", "0x1FFFFFFD"]
    ) == 0
    ids = [parse_can_dump_line(line).can_id for line in dump.read_text().splitlines()]
    assert ids[:3] == [0x1FFFFFFD, 0x1FFFFFFE, 0x1FFFFFFF]


@pytest.mark.parametrize(
    "flag, value", [("--gravity", "nan"), ("--gravity", "inf"), ("--delta-a-threshold", "nan")]
)
def test_fuse_rejects_non_finite_filter_constants(tmp_path, capsys, flag, value):
    imu, rts = write_level_streams(tmp_path)
    rc = main(
        ["fuse", "--imu", str(imu), "--rts", str(rts), "--out", str(tmp_path / "f.csv"),
         "--bias-count", "10", flag, value]
    )
    assert rc == 2
    assert f"must be positive, got {value}" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_fuse_names_a_non_finite_initial_yaw_option(tmp_path, capsys, value):
    imu, rts = write_level_streams(tmp_path)
    out = tmp_path / "f.csv"
    rc = main(["fuse", "--imu", str(imu), "--rts", str(rts), "--out", str(out),
               "--bias-count", "10", f"--initial-yaw-deg={value}"])
    assert rc == 2
    assert capsys.readouterr().err == f"error: --initial-yaw-deg must be finite, got {value}\n"
    assert not out.exists()


def _spoil(path):
    """Put a byte that is not UTF-8 at the end of a text file's first line."""
    data = path.read_bytes()
    path.write_bytes(data.replace(b"\n", b"\xff\n", 1) if b"\n" in data else data + b"\xff")


@pytest.mark.parametrize(
    "command, spoiled", [
        ("simulate", "cfg"), ("fuse", "imu"), ("fuse", "rts"), ("fuse", "helmert"),
        ("helmert-fit", "pairs"), ("eval", "fused"), ("eval", "truth"),
    ]
)
def test_input_that_is_not_utf8_is_a_data_error(tmp_path, capsys, command, spoiled):
    files = {name: tmp_path / f"{name}.txt" for name in ("cfg", "helmert", "pairs")}
    files["cfg"].write_text(QUIET_CONFIG, encoding="utf-8")
    files["pairs"].write_text("sx,sy,sz,tx,ty,tz\n" + "".join(
        f"{x},{y},{z},{x},{y},{z}\n" for x, y, z in [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
    ), encoding="utf-8")
    write_helmert_file(HelmertParams(), files["helmert"])
    files["imu"], files["rts"] = write_level_streams(tmp_path)
    files["fused"] = tmp_path / "fused.csv"
    assert main(["fuse", "--imu", str(files["imu"]), "--rts", str(files["rts"]),
                 "--out", str(files["fused"]), "--bias-count", "10"]) == 0
    files["truth"] = tmp_path / "truth.csv"
    write_truth_csv(level_truth([0.25]), files["truth"])
    capsys.readouterr()
    _spoil(files[spoiled])

    argv = {
        "simulate": ["--config", str(files["cfg"]), "--out-dir", str(tmp_path / "sim")],
        "fuse": ["--imu", str(files["imu"]), "--rts", str(files["rts"]),
                 "--helmert", str(files["helmert"]), "--out", str(tmp_path / "out.csv"),
                 "--bias-count", "10"],
        "helmert-fit": ["--pairs", str(files["pairs"]), "--out", str(tmp_path / "h.txt")],
        "eval": ["--fused", str(files["fused"]), "--truth", str(files["truth"]),
                 "--out", str(tmp_path / "stats.csv")],
    }[command]
    assert main([command, *argv]) == 2
    assert f"{files[spoiled]}: not UTF-8 text" in capsys.readouterr().err


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


@pytest.mark.parametrize("ref", ["nan,0,0", "0,1e999,0", "0,0,-inf"])
def test_eval_rejects_a_reference_that_is_not_finite(tmp_path, capsys, ref):
    record = FusedRecord(
        timestamp=0.0,
        prism_nav=np.zeros(3),
        poi_nav=np.zeros(3),
        attitude_used=Attitude(),
        alpha_used=0.9,
        imu_timestamp_used=0.0,
    )
    fused = tmp_path / "fused.csv"
    write_fused_csv([record], fused)
    stats_path = tmp_path / "stats.csv"
    assert main(["eval", "--fused", str(fused), "--ref", ref, "--out", str(stats_path)]) == 2
    assert capsys.readouterr().err.startswith("error: reference must be finite, got ")
    assert not stats_path.exists()


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
    write_truth_csv(level_truth([0.0]), truth)
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
    write_truth_csv(level_truth([0.0, 0.2], [[0.0, 0.0, 0.0], [0.5, 0.0, 0.0]]), truth)
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


# Characters that str.splitlines breaks at but an editor does not.
NOT_LINE_BREAKS = ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
LINE_BREAK_CASES = [("\n", char) for char in NOT_LINE_BREAKS] + [
    ("\r\n", ""), ("\r", ""), ("\r\n", "\f"), ("\r", "\x85"),
]


def _text_with_a_bad_line(reader, filler):
    """Lines of a valid file for ``reader``, then ``filler`` on a line of its
    own, then a bad line; returns the lines and the bad line's number."""
    row = write_csv_record(FusedRecord(0.5, np.zeros(3), np.zeros(3), Attitude(), 0.9, 0.5))
    lines = {
        "fused": [FUSED_CSV_HEADER, row, filler, "1,2"],
        "truth": [TRUTH_CSV_HEADER, ",".join(["0.5"] * 10), filler, "1,2"],
        "pairs": [PAIRS_CSV_HEADER, "1,2,3,4,5,6", filler, "1,2"],
        "transform": ["# site", "scale = 1", filler, "rotation 1"],
        "config": ["# run", "seed = 1", filler, "seed 1"],
        "simulate": ["# run", "seed = 1", filler, "seed 1"],
        "imu": [write_imu_line(ImuSample(0.0, [0, 0, G], [0, 0, 0])), filler, "IMU,oops"],
        "rts": [write_rts_line(RtsObservation(0.25, 5.0, 0.3, 1.5)), filler, "RTS,oops"],
    }[reader]
    return lines, len(lines)


@pytest.mark.parametrize("separator, filler", LINE_BREAK_CASES)
@pytest.mark.parametrize(
    "reader", ["fused", "truth", "pairs", "transform", "config", "simulate", "imu", "rts"]
)
def test_every_reader_numbers_lines_as_an_editor_shows_them(
    tmp_path, capsys, reader, separator, filler
):
    lines, bad_line = _text_with_a_bad_line(reader, filler)
    text = separator.join(lines) + separator
    path = tmp_path / "input.txt"
    path.write_bytes(text.encode("utf-8"))
    library = {"fused": read_fused_csv, "truth": read_truth_csv, "pairs": read_pairs_csv,
               "transform": read_helmert_file, "config": parse_scenario_config}
    if reader in library:
        with pytest.raises((FormatError, ConfigError)) as info:
            library[reader](text if reader == "config" else path)
        message = str(info.value)
    else:
        imu, rts = write_level_streams(tmp_path, n_imu=20)
        streams = {"imu": imu, "rts": rts, reader: path}
        argv = (["simulate", "--config", str(path), "--out-dir", str(tmp_path / "sim")]
                if reader == "simulate" else
                ["fuse", "--imu", str(streams["imu"]), "--rts", str(streams["rts"]),
                 "--out", str(tmp_path / "fused.csv"), "--bias-count", "2"])
        assert main(argv) == 2
        message = capsys.readouterr().err.removeprefix("error: ")
    assert message.startswith(f"line {bad_line}: "), message


def test_fuse_rejects_a_transform_file_with_an_unknown_key(tmp_path, capsys):
    imu, rts = write_level_streams(tmp_path)
    helmert = tmp_path / "site.helmert"
    write_helmert_file(HelmertParams(), helmert)
    helmert.write_text(helmert.read_text() + "scael = 2\n")
    rc = main(["fuse", "--imu", str(imu), "--rts", str(rts), "--helmert", str(helmert),
               "--out", str(tmp_path / "fused.csv"), "--bias-count", "10"])
    assert rc == 2
    assert capsys.readouterr().err == "error: line 5: unknown transform key 'scael'\n"
    assert not (tmp_path / "fused.csv").exists()


def _command_argv(tmp_path):
    """Flag -> value for a run of each command that succeeds."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(QUIET_CONFIG)
    imu, rts = write_level_streams(tmp_path)
    helmert = tmp_path / "site.helmert"
    write_helmert_file(HelmertParams(), helmert)
    pairs = tmp_path / "pairs.csv"
    pairs.write_text("sx,sy,sz,tx,ty,tz\n" + "".join(
        f"{x},{y},{z},{x},{y},{z}\n" for x, y, z in [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
    ))
    fused = tmp_path / "fused.csv"
    write_fused_csv([FusedRecord(0.25, np.zeros(3), np.zeros(3), Attitude(), 0.9, 0.25)], fused)
    truth = tmp_path / "truth.csv"
    write_truth_csv(level_truth([0.25]), truth)
    return {
        "simulate": {"--config": cfg, "--out-dir": tmp_path / "sim"},
        "fuse": {"--imu": imu, "--rts": rts, "--helmert": helmert,
                 "--out": tmp_path / "out.csv", "--bias-count": 10},
        "helmert-fit": {"--pairs": pairs, "--out": tmp_path / "fit.helmert"},
        "eval": {"--fused": fused, "--truth": truth, "--out": tmp_path / "stats.csv"},
    }


def _run(command, flags):
    return main([command, *(str(item) for pair in flags.items() for item in pair)])


@pytest.mark.parametrize("command, flag", [
    ("simulate", "--out-dir"), ("fuse", "--out"), ("fuse", "--can-out"),
    ("helmert-fit", "--out"), ("eval", "--out"),
])
def test_an_output_that_cannot_be_written_is_a_data_error(tmp_path, capsys, command, flag):
    flags = _command_argv(tmp_path)[command]
    assert _run(command, flags) == 0
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory\n")
    flags[flag] = blocker / "output"
    capsys.readouterr()
    assert _run(command, flags) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(blocker / "output") in err


@pytest.mark.parametrize("command, flag", [
    ("simulate", "--config"), ("fuse", "--imu"), ("fuse", "--rts"), ("fuse", "--helmert"),
    ("helmert-fit", "--pairs"), ("eval", "--fused"), ("eval", "--truth"),
])
def test_an_input_that_cannot_be_read_is_a_data_error(tmp_path, capsys, command, flag):
    flags = _command_argv(tmp_path)[command]
    missing = tmp_path / "missing.txt"
    flags[flag] = missing
    assert _run(command, flags) == 2
    reason = os.strerror(errno.ENOENT)
    assert capsys.readouterr().err == f"error: [Errno {errno.ENOENT}] {reason}: '{missing}'\n"


@pytest.mark.parametrize("label", ["north, run 2", "north\nrun 2", "north\r"])
def test_eval_rejects_a_label_that_would_break_the_stats_csv(tmp_path, capsys, label):
    stats = tmp_path / "stats.csv"
    with pytest.raises(SystemExit) as info:
        main(["eval", "--fused", str(tmp_path / "missing.csv"), "--ref", "0,0,0",
              "--out", str(stats), "--label", label])
    assert info.value.code == 1
    assert "--label" in capsys.readouterr().err
    assert not stats.exists()


# eval joins the fused and truth tables on their columns. The oracle is the
# row-by-row join eval made before: each fused row looked up by its time in a
# dict from truth time to POI.


def record_join(fused_path, truth_path):
    """(estimates, reference, skipped) of the row-by-row join."""
    rows = read_fused_csv(fused_path)
    poi_by_time = {row[0]: np.array(row[7:10]) for row in read_truth_csv(truth_path).tolist()}
    estimates, references = [], []
    for row in rows:
        ref = poi_by_time.get(float(row[T]))
        if ref is not None:
            estimates.append(row[POI])
            references.append(ref)
    return estimates, references[0], len(rows) - len(estimates)


@pytest.fixture(scope="module")
def default_noise_run(tmp_path_factory):
    """Streams, truth and fused CSV of a 40 s scenario with default noise."""
    run = tmp_path_factory.mktemp("default_noise")
    config = run / "scenario.cfg"
    config.write_text("duration_s = 40\nseed = 11\nrts_rate_hz = 20\n")
    assert main(["simulate", "--config", str(config), "--out-dir", str(run)]) == 0
    fused = run / "fused.csv"
    assert main(["fuse", "--imu", str(run / "imu.txt"), "--rts", str(run / "rts.txt"),
                 "--out", str(fused)]) == 0
    return fused, run / "truth.csv"


def run_eval(tmp_path, fused, reference_flags, label="run"):
    stats = tmp_path / "stats.csv"
    code = main(["eval", "--fused", str(fused), *reference_flags, "--out", str(stats),
                 "--label", label])
    return code, stats


def write_truth_lines(path, lines):
    path.write_text(TRUTH_CSV_HEADER + "\n" + "".join(line + "\n" for line in lines))


def truth_lines(truth):
    return truth.read_text().splitlines()[1:]


def test_eval_stats_match_the_record_join(tmp_path, capsys, default_noise_run):
    fused, truth = default_noise_run
    code, stats = run_eval(tmp_path, fused, ["--truth", str(truth)], label="noisy")
    assert code == 0
    estimates, reference, skipped = record_join(fused, truth)
    assert skipped == 0 and len(estimates) > 500
    row = stats_csv_row("noisy", compute_stats(estimates, reference))
    assert stats.read_bytes() == f"{STATS_CSV_HEADER}\n{row}\n".encode()
    assert "warning" not in capsys.readouterr().err


def test_eval_partial_overlap_warns_and_uses_the_matched_rows(
    tmp_path, capsys, default_noise_run
):
    fused, truth = default_noise_run
    fused_times = {float(line.split(",")[0]) for line in fused.read_text().splitlines()[1:]}
    lines = truth_lines(truth)
    # Drop every third truth row that a fused record would match.
    matched = [k for k, line in enumerate(lines) if float(line.split(",")[0]) in fused_times]
    dropped = set(matched[::3])
    partial = tmp_path / "partial.csv"
    write_truth_lines(partial, [line for k, line in enumerate(lines) if k not in dropped])

    code, stats = run_eval(tmp_path, fused, ["--truth", str(partial)])
    assert code == 0
    estimates, reference, skipped = record_join(fused, partial)
    assert skipped == len(dropped) > 0
    err = capsys.readouterr().err
    assert err == f"warning: {skipped} fused records without matching truth timestamp\n"
    row = stats_csv_row("run", compute_stats(estimates, reference))
    assert stats.read_text().splitlines() == [STATS_CSV_HEADER, row]
    assert int(row.split(",")[8]) == len(matched) - len(dropped)


def test_eval_warns_of_one_unmatched_record_in_the_singular(tmp_path, capsys, default_noise_run):
    fused, truth = default_noise_run
    first = fused.read_text().splitlines()[1].split(",")[0]
    lines = [line for line in truth_lines(truth) if line.split(",")[0] != first]
    partial = tmp_path / "partial.csv"
    write_truth_lines(partial, lines)
    code, _ = run_eval(tmp_path, fused, ["--truth", str(partial)])
    assert code == 0
    assert capsys.readouterr().err == "warning: 1 fused record without matching truth timestamp\n"


def shifted_poi(line, dx):
    fields = line.split(",")
    fields[7] = f"{float(fields[7]) + dx:.9f}"
    return ",".join(fields)


def test_eval_keeps_the_last_row_of_a_repeated_truth_timestamp(
    tmp_path, capsys, default_noise_run
):
    fused, truth = default_noise_run
    lines = truth_lines(truth)
    # A moved POI before each seventh row: ignored, as the last row wins. The
    # fused records match every fifth row, so a first-row rule would move the
    # POI of one in seven of them.
    first_wins_would_move = []
    for k, line in enumerate(lines):
        if k % 7 == 0:
            first_wins_would_move.append(shifted_poi(line, 0.5))
        first_wins_would_move.append(line)
    repeated = tmp_path / "repeated.csv"
    write_truth_lines(repeated, first_wins_would_move)
    code, stats = run_eval(tmp_path, fused, ["--truth", str(repeated)])
    assert code == 0
    estimates, reference, skipped = record_join(fused, repeated)
    row = stats_csv_row("run", compute_stats(estimates, reference))
    assert stats.read_text().splitlines() == [STATS_CSV_HEADER, row]
    assert run_eval(tmp_path, fused, ["--truth", str(truth)])[0] == 0
    assert stats.read_text().splitlines() == [STATS_CSV_HEADER, row]

    # The moved POI after each seventh row wins, so the reference varies.
    last_wins_moves = []
    for k, line in enumerate(lines):
        last_wins_moves.append(line)
        if k % 7 == 0:
            last_wins_moves.append(shifted_poi(line, 0.5))
    write_truth_lines(repeated, last_wins_moves)
    capsys.readouterr()
    assert run_eval(tmp_path, fused, ["--truth", str(repeated)])[0] == 2
    assert "truth POI varies over the joined rows" in capsys.readouterr().err


def test_eval_joins_shuffled_truth_rows_as_the_record_join(tmp_path, capsys, default_noise_run):
    """The join sorts the truth times, so truth rows in any order join as the
    row-by-row join does: a repeated time keeps its last row in file order."""
    fused, truth = default_noise_run
    lines = truth_lines(truth)
    order = np.random.default_rng(5).permutation(len(lines))
    # Every eleventh row gone, so some fused records go unmatched; each
    # seventh row a second time, before all others and with a moved POI.
    kept = [k for k in order if k % 11]
    shuffled = [shifted_poi(lines[k], 0.5) for k in kept if k % 7 == 0]
    shuffled += [lines[k] for k in kept]
    path = tmp_path / "shuffled.csv"
    write_truth_lines(path, shuffled)
    code, stats = run_eval(tmp_path, fused, ["--truth", str(path)])
    assert code == 0
    estimates, reference, skipped = record_join(fused, path)
    assert skipped > 0
    err = capsys.readouterr().err
    assert err == f"warning: {skipped} fused records without matching truth timestamp\n"
    row = stats_csv_row("run", compute_stats(estimates, reference))
    assert stats.read_text().splitlines() == [STATS_CSV_HEADER, row]


def test_eval_joins_a_negative_zero_truth_time_to_zero(tmp_path, capsys):
    poi = [1.0, 2.0, 3.0]
    record = FusedRecord(0.0, np.zeros(3), np.array(poi), Attitude(), 0.9, 0.0)
    fused = tmp_path / "fused.csv"
    write_fused_csv([record], fused)
    truth = tmp_path / "truth.csv"
    write_truth_lines(truth, ["-0.0,0,0,0,0,0,0,1,2,3"])
    assert read_truth_csv(truth)[0, 0].hex() == "-0x0.0p+0"
    code, stats = run_eval(tmp_path, fused, ["--truth", str(truth)])
    assert code == 0
    row = stats_csv_row("run", compute_stats([poi], poi))
    assert stats.read_text().splitlines() == [STATS_CSV_HEADER, row]
    assert capsys.readouterr().err == ""


def test_eval_against_a_fixed_reference_matches_the_records(tmp_path, default_noise_run):
    fused, _ = default_noise_run
    code, stats = run_eval(tmp_path, fused, ["--ref", "0.1,-0.2,0.05"], label="ref")
    assert code == 0
    estimates = list(read_fused_csv(fused)[:, POI])
    row = stats_csv_row("ref", compute_stats(estimates, np.array([0.1, -0.2, 0.05])))
    assert stats.read_text().splitlines() == [STATS_CSV_HEADER, row]


@pytest.mark.parametrize("reference_flag", ["--truth", "--ref"])
def test_eval_of_an_empty_fused_csv_is_a_data_error(
    tmp_path, capsys, default_noise_run, reference_flag
):
    empty = tmp_path / "empty.csv"
    empty.write_text(FUSED_CSV_HEADER + "\n")
    reference = str(default_noise_run[1]) if reference_flag == "--truth" else "0,0,0"
    code, stats = run_eval(tmp_path, empty, [reference_flag, reference])
    assert code == 2
    assert capsys.readouterr().err == f"error: {empty}: no fused records\n"
    assert not stats.exists()
