import bz2
import dataclasses
import gzip
import lzma
import math
import re
import struct
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.spatial.transform import Rotation

from tiltcomp import (
    Attitude,
    CanFrame,
    FormatError,
    FusedRecord,
    HelmertParams,
    ImuSample,
    RtsObservation,
    decode_can_frames,
    encode_can_frames,
    format_can_dump_line,
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
from tiltcomp import codec
from tiltcomp.codec import FUSED_CSV_HEADER, PAIRS_CSV_HEADER, TRUTH_CSV_HEADER


def random_record(rng):
    return FusedRecord(
        timestamp=float(rng.uniform(0.0, 1000.0)),
        prism_nav=rng.uniform(-50.0, 50.0, size=3),
        poi_nav=rng.uniform(-50.0, 50.0, size=3),
        attitude_used=Attitude(
            roll=float(rng.uniform(-math.pi, math.pi)),
            pitch=float(rng.uniform(-math.pi / 2, math.pi / 2)),
            yaw=float(rng.uniform(-math.pi, math.pi)),
        ),
        alpha_used=float(rng.uniform(0.9, 1.0)),
        imu_timestamp_used=float(rng.uniform(0.0, 1000.0)),
    )


def test_imu_line_example():
    line = "IMU,0.010000,0.000000,0.000000,9.806650,0.001000,-0.002000,0.000500"
    sample = parse_imu_line(line)
    assert sample.timestamp == 0.01
    assert_allclose(sample.accel, [0.0, 0.0, 9.80665])
    assert_allclose(sample.gyro, [0.001, -0.002, 0.0005])
    assert write_imu_line(sample) == line


def test_imu_line_tolerates_whitespace():
    sample = parse_imu_line(" IMU , 1.0 , 0, 0, 9.8, 0 ,0, 0 ")
    assert sample.timestamp == 1.0


@pytest.mark.parametrize(
    "line",
    [
        "",
        "IMU,1.0,0,0,9.8,0,0",
        "IMU,1.0,0,0,9.8,0,0,0,extra",
        "RTS,1.0,0,0,9.8,0,0,0",
        "IMU,abc,0,0,9.8,0,0,0",
        "IMU,1.0,0,0,nan,0,0,0",
        "IMU,1.0,0,0,inf,0,0,0",
        "IMU;1.0;0;0;9.8;0;0;0",
    ],
)
def test_imu_line_rejects_malformed(line):
    with pytest.raises(FormatError):
        parse_imu_line(line)


def test_imu_line_error_carries_line_number():
    with pytest.raises(FormatError, match="line 17"):
        parse_imu_line("IMU,bad", line_number=17)


def imu_parse_outcome(line, line_number):
    """The bits of the sample parse_imu_line makes of a line, or its error."""
    try:
        sample = parse_imu_line(line, line_number)
    except FormatError as exc:
        return "error", str(exc)
    return "sample", float(sample.timestamp).hex(), sample.accel.tobytes(), sample.gyro.tobytes()


_NUMBER = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(-1e6, 1e6).map("{:.6f}".format),
    st.integers(-(10**6), 10**6).map(str),
)
_ODD_TOKEN = st.one_of(
    st.sampled_from(["nan", "-inf", "1e999", "", "x", "1_0", " 2.5 ", "\t+.5", "0x1", "IMU"]),
    st.text(max_size=4),
)


@st.composite
def record_lines(draw, tag, count, numbers=_NUMBER, odd=_ODD_TOKEN):
    """Well-formed record lines of ``count`` numbers after ``tag`` (None for a
    CSV row), and the same lines with one or two faults: an odd field, tag or
    field count, padding, or a random character edit."""
    fields = [tag] if tag else []
    fields += draw(st.lists(numbers, min_size=count, max_size=count))
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        fault = draw(st.sampled_from(["field", "tag", "count", "pad", "edit"]))
        at = draw(st.integers(0, len(fields) - 1))
        if fault == "field" or (fault == "tag" and not tag):
            fields[at] = draw(odd)
        elif fault == "tag":
            other = "RTS" if tag == "IMU" else "IMU"
            fields[0] = draw(st.sampled_from([tag.lower(), other, " " + tag, tag + " ", ""]))
        elif fault == "count":
            fields = fields[:-1] if draw(st.booleans()) else [*fields, draw(numbers)]
        elif fault == "pad":
            fields[at] = draw(st.sampled_from([" ", "\t", "\u00a0"])) + fields[at] + " "
        else:
            line = ",".join(fields)
            pos = draw(st.integers(0, len(line)))
            fields = (line[:pos] + draw(st.text(max_size=2)) + line[pos + 1 :]).split(",")
    return ",".join(fields) + draw(st.sampled_from(["", "\n", "\r\n"]))


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(record_lines("IMU", 7), st.one_of(st.none(), st.integers(1, 10**6)))
def test_imu_line_reads_alike_when_padded(line, line_number):
    """A leading blank changes nothing: bit for bit the same sample, or the
    same FormatError message."""
    assert imu_parse_outcome(line, line_number) == imu_parse_outcome(" " + line, line_number)


def rts_parse_outcome(line, line_number):
    """The bits of the observation parse_rts_line makes of a line, or its error."""
    try:
        obs = parse_rts_line(line, line_number)
    except FormatError as exc:
        return "error", str(exc)
    fields = (obs.timestamp, obs.slant_distance, obs.horizontal_angle, obs.zenith_angle)
    return "observation", [float(v).hex() for v in fields]


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(record_lines("RTS", 4), st.one_of(st.none(), st.integers(1, 10**6)))
def test_rts_line_reads_alike_when_padded(line, line_number):
    """A leading blank changes nothing: bit for bit the same observation, or
    the same FormatError message."""
    assert rts_parse_outcome(line, line_number) == rts_parse_outcome(" " + line, line_number)


def row_outcome(parse, *args):
    """The bits of the numbers ``parse(*args)`` reads from a CSV row, or its error."""
    try:
        values = parse(*args)
    except FormatError as exc:
        return "error", str(exc)
    return "row", [v.hex() for v in values]


def field_by_field_row(line, names, what, line_number):
    """A CSV row read one field at a time, blanks around commas stripped."""
    fields = [f.strip() for f in line.strip().split(",")]
    if len(fields) != len(names):
        message = f"{what} needs {len(names)} comma-separated fields, got {len(fields)}"
        raise FormatError(message if line_number is None else f"line {line_number}: {message}")
    return [codec._parse_float(tok, name, line_number) for tok, name in zip(fields, names)]


_TABLES = {
    "fused": (codec._FUSED, FUSED_CSV_HEADER, "fused CSV record"),
    "truth": (codec._TRUTH, TRUTH_CSV_HEADER, "truth CSV record"),
    "pairs": (codec._PAIRS, PAIRS_CSV_HEADER, "point pairs CSV record"),
}


@pytest.mark.parametrize("table", sorted(_TABLES))
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), line_number=st.one_of(st.none(), st.integers(1, 10**6)))
def test_csv_row_reads_as_field_by_field(table, data, line_number):
    """Bit for bit the same numbers, or the same FormatError message."""
    fmt, header, what = _TABLES[table]
    names = header.split(",")
    assert fmt.names == tuple(names)
    line = data.draw(record_lines(None, len(names)))
    expected = row_outcome(field_by_field_row, line, names, what, line_number)
    assert row_outcome(codec._numbers, line, fmt, line_number) == expected


@pytest.mark.parametrize("table", sorted(_TABLES))
def test_a_csv_field_that_is_not_a_number_is_named(table):
    fmt = _TABLES[table][0]
    names = fmt.names
    row = ",".join(f"{0.125 * i - 1:.9f}" for i in range(len(names)))
    assert codec._numbers(row + "\n", fmt, 2) == [0.125 * i - 1 for i in range(len(names))]
    with pytest.raises(FormatError, match=f"line 2: field {names[-1]}: 'x'"):
        codec._numbers(row.rsplit(",", 1)[0] + ",x", fmt, 2)


# The writers' formatting before they shared one template per format.
def f_string_imu_line(sample):
    ax, ay, az = sample.accel
    gx, gy, gz = sample.gyro
    return (
        f"IMU,{sample.timestamp:.6f},{ax:.6f},{ay:.6f},{az:.6f},"
        f"{gx:.6f},{gy:.6f},{gz:.6f}"
    )


def f_string_rts_line(obs):
    return (
        f"RTS,{obs.timestamp:.6f},{obs.slant_distance:.6f},"
        f"{math.degrees(obs.horizontal_angle):.6f},{math.degrees(obs.zenith_angle):.6f}"
    )


def f_string_csv_line(values):
    return ",".join(f"{v:.9f}" for v in values)


def f_string_fused_row(r):
    att = r.attitude_used
    angles = (math.degrees(att.roll), math.degrees(att.pitch), math.degrees(att.yaw))
    return f_string_csv_line(
        (r.timestamp, *r.prism_nav, *r.poi_nav, *angles, r.alpha_used, r.imu_timestamp_used)
    )


def f_string_truth_row(row):
    return f_string_csv_line((row[0], *map(math.degrees, row[1:4]), *row[4:10]))


# Values at the edge of the row writer kernel's exactness rule: scaled to 6
# or 9 decimals, each is a half, exact (0.0078125, 1/1024, 2.5e-6) or a few
# ulps off (45.96051251349999, a pitch extreme of simulate's), or at least
# 2**53 counts.
_KERNEL_EDGES = [
    0.0078125, 3 / 128, 1 / 1024, 2.5e-6, 2.5e-9, -2.5e-9, 1.0000005, 45.96051251349999,
    2**53 / 1e6, 2**53 / 1e9, -(2**53) / 1e9, math.nextafter(2**53 / 1e9, 0.0), 1e300,
]


@pytest.mark.parametrize(
    "v",
    [-0.0, 1e300, 5e-7, -5e-7, 5e-10, -5e-10, np.float64(-5e-10), np.float64(1e300), 7,
     5e-324, -5e-324, -4e-7, *_KERNEL_EDGES[:-1]],
    ids=repr,
)
def test_writers_match_the_f_string_formatting(tmp_path, v):
    sample = ImuSample(v, [v, -v, 9.8], [-v, 0.5, v])
    assert write_imu_line(sample) == f_string_imu_line(sample)

    obs = RtsObservation(v, v if v > 0 else 5e-7, v, v if 0 < v < math.pi else 1.5)
    assert write_rts_line(obs) == f_string_rts_line(obs)

    record = FusedRecord(
        timestamp=v,
        prism_nav=[v, -v, 1.0],
        poi_nav=np.array([-v, v, 0.0]),
        attitude_used=Attitude(v, -v, v),
        alpha_used=v,
        imu_timestamp_used=v,
    )
    assert write_csv_record(record) == f_string_fused_row(record)
    write_fused_csv([record, record], tmp_path / "fused.csv")
    expected = [FUSED_CSV_HEADER, f_string_fused_row(record), f_string_fused_row(record)]
    assert (tmp_path / "fused.csv").read_text() == "\n".join(expected) + "\n"

    truth = (v, -v, v, v, v, 0.0, -v, 1.0, v, -v)
    write_truth_csv([truth], tmp_path / "truth.csv")
    expected = [TRUTH_CSV_HEADER, f_string_truth_row(truth)]
    assert (tmp_path / "truth.csv").read_text() == "\n".join(expected) + "\n"


_KERNEL_FORMATS = {fmt.noun: fmt for fmt in (codec._IMU, codec._RTS, codec._FUSED, codec._TRUTH)}
_BLOCK_ROWS = codec._ROW_BLOCK


def scaled_half(d):
    """A value at, or a few ulps from, a half of its last decimal at ``d``
    decimals."""

    def value(k, steps, sign):
        half = (k + 0.5) / 10**d
        return sign * (half + steps * math.ulp(half))

    signs = st.sampled_from([1.0, -1.0])
    return st.builds(value, st.integers(0, 10**12), st.integers(-3, 3), signs)


_SPECIAL = st.one_of(
    scaled_half(6),
    scaled_half(9),
    st.integers(-(2**20), 2**20).map(lambda k: k / 128),
    st.integers(-(2**20), 2**20).map(lambda k: k / 1024),
    st.sampled_from([-0.0, 5e-7, -5e-7, 5e-10, -5e-10, 5e-324, -5e-324, *_KERNEL_EDGES]),
    st.floats(2**53 / 1e9, 1e300),
    st.floats(-1e300, 1e300),  # finite in degrees too
)
# Rows at a block's first and last rows, in the middle, and adjacent.
_BLOCK_EDGES = [0, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, _BLOCK_ROWS // 2]


@pytest.mark.parametrize("noun", sorted(_KERNEL_FORMATS))
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@example(n=_BLOCK_ROWS + 2, seed=0, placed=[(r, r % 4, 2.5e-6) for r in _BLOCK_EDGES])
@example(n=_BLOCK_ROWS + 2, seed=1, placed=[(r, 0, v) for r, v in zip(_BLOCK_EDGES, _KERNEL_EDGES)])
@example(n=3, seed=2, placed=[(0, 0, 1e300), (1, 0, 0.0078125), (2, 0, -0.0)])
@given(
    n=st.sampled_from([1, 2, 3, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 2]),
    seed=st.integers(0, 2**32 - 1),
    placed=st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 11), _SPECIAL), max_size=12),
)
def test_row_writer_kernel_writes_what_the_template_writes(noun, n, seed, placed):
    fmt = _KERNEL_FORMATS[noun]
    k = len(fmt.names)
    rng = np.random.default_rng(seed)
    table = rng.uniform(-1.0, 1.0, (n, k)) * 10.0 ** rng.integers(-8, 6, (n, k))
    for row, col, value in placed:
        table[row % n, col % k] = value
    # Through _lines the angle columns are scaled to degrees; the kernel
    # alone writes the placed values as they are.
    wire = codec._wire(fmt, table)
    expected = "".join(fmt.template % tuple(row) + "\n" for row in wire.tolist())
    assert "".join(codec._lines(fmt, table)) == expected
    expected = "".join(fmt.template % tuple(row) + "\n" for row in table.tolist())
    assert codec._text(fmt, table) == expected


def test_line_writers_format_by_the_template_not_the_kernel(tmp_path):
    record = random_record(np.random.default_rng(3))
    with mock.patch.object(codec, "_text", wraps=codec._text) as kernel:
        assert write_imu_line(ImuSample(0.01, [0.0, 0.0, 9.80665], [0.001, -0.002, 0.0005])) == (
            "IMU,0.010000,0.000000,0.000000,9.806650,0.001000,-0.002000,0.000500"
        )
        assert write_rts_line(RtsObservation(0.5, 5.0, 0.0, math.pi / 2)) == (
            "RTS,0.500000,5.000000,0.000000,90.000000"
        )
        assert write_csv_record(record) == f_string_fused_row(record)
        assert kernel.call_count == 0
        write_truth_csv(truth_table(), tmp_path / "truth.csv")  # a table goes through it
        assert kernel.call_count == 1


def test_writing_a_truth_table_holds_one_copy_of_it_and_a_block_at_a_time(tmp_path):
    table = np.random.default_rng(6).uniform(-500.0, 500.0, (30_000, 10))
    tracemalloc.start()
    try:
        write_truth_csv(table, tmp_path / "truth.csv")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * table.nbytes


def test_writers_reject_a_coordinate_triple_of_another_length(tmp_path):
    record = FusedRecord(0.0, np.zeros(4), np.zeros(3), Attitude(), 0.9, 0.0)
    with pytest.raises(ValueError):
        write_csv_record(record)


@pytest.mark.parametrize(
    "table",
    [np.zeros((2, 9)), np.zeros((2, 11)), np.zeros(10), np.zeros((1, 2, 10)), np.float64(0.0)],
    ids=["n_by_9", "n_by_11", "one_row_1d", "3d", "scalar"],
)
def test_truth_writer_rejects_a_table_of_another_shape_and_writes_nothing(tmp_path, table):
    path = tmp_path / "truth.csv"
    message = rf"^truth table must have shape \(n, 10\), got {re.escape(str(table.shape))}$"
    with pytest.raises(ValueError, match=message):
        write_truth_csv(table, path)
    assert not path.exists()


# A field a writer would write as nan or inf, which every reader refuses: the
# writer raises instead, naming the row and the field. A finite angle whose
# degrees overflow is one too.
def truth_table(n=5):
    table = np.zeros((n, 10))
    table[:, 0] = np.arange(n) * 0.01
    return table


@pytest.mark.parametrize(
    "row, column, value, field",
    [(2, 5, math.nan, "prism_y_m"), (0, 0, math.inf, "t_s"), (4, 9, -math.inf, "poi_z_m"),
     (3, 1, 1e308, "roll_deg"), (1, 3, -1e307, "yaw_deg")],
)
def test_truth_writer_refuses_a_non_finite_field_and_writes_nothing(
    tmp_path, row, column, value, field
):
    table = truth_table()
    table[row, column] = value
    path = tmp_path / "truth.csv"
    with pytest.raises(FormatError, match=f"^row {row}: field {field}: cannot write non-finite"):
        write_truth_csv(table, path)
    assert not path.exists()
    # A huge value that stays finite as written (in degrees for an angle) is written.
    table[row, column] = 1e300
    write_truth_csv(table, path)
    assert read_truth_csv(path)[row, column] == pytest.approx(1e300, rel=1e-15)


def test_row_writer_names_the_row_of_the_whole_column_past_the_first_block():
    n = 3 * codec._ROW_BLOCK
    t = np.arange(n) * 0.01
    accel, gyro = np.zeros((n, 3)), np.zeros((n, 3))
    gyro[2500, 1] = math.nan
    with pytest.raises(FormatError, match="^row 2500: field gy: cannot write non-finite value nan$"):
        codec._lines(codec._IMU, t, accel, gyro)  # raises when called, before any line


def test_line_writers_refuse_a_non_finite_field():
    sample = ImuSample(0.5, np.array([0.0, math.inf, 9.8]), np.zeros(3))
    with pytest.raises(FormatError, match="^row 0: field ay: "):
        write_imu_line(sample)
    obs = RtsObservation(0.5, 5.0, 1e308, 1.5)
    with pytest.raises(FormatError, match="^row 0: field Hz_deg: cannot write non-finite value inf$"):
        write_rts_line(obs)


@pytest.mark.parametrize(
    "change, field",
    [({"prism_nav": [0.0, math.inf, 0.0]}, "prism_y_m"),
     ({"poi_nav": [math.nan, 0.0, 0.0]}, "poi_x_m"),
     ({"attitude_used": Attitude(pitch=1e307)}, "pitch_deg"),
     ({"alpha_used": math.nan}, "alpha"),
     ({"timestamp": -math.inf}, "t_s")],
)
def test_fused_writers_refuse_a_non_finite_field(tmp_path, change, field):
    record = dataclasses.replace(random_record(np.random.default_rng(41)), **change)
    with pytest.raises(FormatError, match=f"^row 0: field {field}: cannot write non-finite value"):
        write_csv_record(record)
    # A refused record leaves no file, even after a record the writer accepts.
    path, ok = tmp_path / "fused.csv", random_record(np.random.default_rng(42))
    for records, row in (([record], 0), ([ok, record], 1)):
        with pytest.raises(FormatError, match=f"^row {row}: field {field}: "):
            write_fused_csv(records, path)
        assert not path.exists()


def test_fused_writer_writes_huge_finite_fields():
    record = FusedRecord(1.0, [1e308, 1e308, 0.0], [0.0, 0.0, 0.0], Attitude(), 0.9, 1.0)
    back = read_csv_record(write_csv_record(record))
    assert back.prism_nav.tolist() == [1e308, 1e308, 0.0]


def test_rts_line_example_converts_degrees():
    line = "RTS,2.400000,5.125000,45.000000,88.500000"
    obs = parse_rts_line(line)
    assert obs.timestamp == 2.4
    assert obs.slant_distance == 5.125
    assert obs.horizontal_angle == pytest.approx(math.radians(45.0), abs=1e-15)
    assert obs.zenith_angle == pytest.approx(math.radians(88.5), abs=1e-15)
    assert write_rts_line(obs) == line


@pytest.mark.parametrize(
    "line",
    [
        "RTS,1.0,5.0,10.0",
        "IMU,1.0,5.0,10.0,90.0",
        "RTS,1.0,-5.0,10.0,90.0",
        "RTS,1.0,0.0,10.0,90.0",
        "RTS,1.0,5.0,10.0,0.0",
        "RTS,1.0,5.0,10.0,180.0",
        "RTS,1.0,5.0,10.0,270.0",
        "RTS,x,5.0,10.0,90.0",
    ],
)
def test_rts_line_rejects_malformed(line):
    with pytest.raises(FormatError):
        parse_rts_line(line)


def test_imu_round_trip_precision():
    rng = np.random.default_rng(4)
    from tiltcomp import ImuSample

    for _ in range(200):
        sample = ImuSample(
            float(rng.uniform(0.0, 3600.0)),
            rng.uniform(-40.0, 40.0, size=3),
            rng.uniform(-10.0, 10.0, size=3),
        )
        back = parse_imu_line(write_imu_line(sample))
        assert back.timestamp == pytest.approx(sample.timestamp, abs=5e-7)
        assert_allclose(back.accel, sample.accel, atol=5e-7)
        assert_allclose(back.gyro, sample.gyro, atol=5e-7)


def test_rts_round_trip_precision():
    rng = np.random.default_rng(5)
    from tiltcomp import RtsObservation

    for _ in range(200):
        obs = RtsObservation(
            float(rng.uniform(0.0, 3600.0)),
            float(rng.uniform(0.1, 500.0)),
            float(rng.uniform(-math.pi, math.pi)),
            float(rng.uniform(0.01, math.pi - 0.01)),
        )
        back = parse_rts_line(write_rts_line(obs))
        assert back.slant_distance == pytest.approx(obs.slant_distance, abs=5e-7)
        assert back.horizontal_angle == pytest.approx(obs.horizontal_angle, abs=1e-8)
        assert back.zenith_angle == pytest.approx(obs.zenith_angle, abs=1e-8)


def test_fused_record_round_trip_precision():
    rng = np.random.default_rng(6)
    for _ in range(200):
        record = random_record(rng)
        back = read_csv_record(write_csv_record(record))
        assert back.timestamp == pytest.approx(record.timestamp, abs=5e-10)
        assert_allclose(back.prism_nav, record.prism_nav, atol=5e-10)
        assert_allclose(back.poi_nav, record.poi_nav, atol=5e-10)
        assert back.attitude_used.roll == pytest.approx(
            record.attitude_used.roll, abs=1e-11
        )
        assert back.attitude_used.pitch == pytest.approx(
            record.attitude_used.pitch, abs=1e-11
        )
        assert back.attitude_used.yaw == pytest.approx(
            record.attitude_used.yaw, abs=1e-11
        )
        assert back.alpha_used == pytest.approx(record.alpha_used, abs=5e-10)


def test_fused_csv_file_round_trip(tmp_path):
    rng = np.random.default_rng(12)
    records = [random_record(rng) for _ in range(25)]
    path = tmp_path / "fused.csv"
    write_fused_csv(records, path)

    text = path.read_text().splitlines()
    assert text[0] == FUSED_CSV_HEADER
    assert len(text) == 26

    back = read_fused_csv(path)
    assert back.shape == (25, len(FUSED_CSV_HEADER.split(",")))
    poi = [FUSED_CSV_HEADER.split(",").index(f"poi_{axis}_m") for axis in "xyz"]
    for a, b in zip(records, back):
        assert_allclose(b[poi], a.poi_nav, atol=5e-10)


def test_fused_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "fused.csv"
    path.write_text("time,stuff\n1,2\n")
    with pytest.raises(FormatError, match="header"):
        read_fused_csv(path)
    path.write_text("")
    with pytest.raises(FormatError, match="empty"):
        read_fused_csv(path)


def test_fused_csv_error_names_offending_line(tmp_path):
    rng = np.random.default_rng(13)
    path = tmp_path / "fused.csv"
    lines = [FUSED_CSV_HEADER, write_csv_record(random_record(rng)), "0,1,2"]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError, match="line 3"):
        read_fused_csv(path)


def test_fused_csv_skips_blank_lines(tmp_path):
    rng = np.random.default_rng(14)
    record = random_record(rng)
    path = tmp_path / "fused.csv"
    path.write_text(FUSED_CSV_HEADER + "\n\n" + write_csv_record(record) + "\n\n")
    assert len(read_fused_csv(path)) == 1


def test_truth_csv_round_trip(tmp_path):
    """Nine decimals on the wire: 5e-10 for times and positions, and for the
    angles, written in degrees, 5e-10 degrees (~1e-11 rad)."""
    rng = np.random.default_rng(15)
    table = np.column_stack([
        np.arange(20) * 0.01,
        rng.uniform(-1.0, 1.0, size=(20, 3)),
        rng.uniform(-10.0, 10.0, size=(20, 6)),
    ])
    path = tmp_path / "truth.csv"
    write_truth_csv(table, path)
    assert path.read_text().splitlines()[0] == TRUTH_CSV_HEADER

    back = read_truth_csv(path)
    assert type(back) is np.ndarray and back.dtype == np.float64 and back.shape == (20, 10)
    assert_allclose(back[:, 0], table[:, 0], rtol=0.0, atol=5e-10)
    assert_allclose(back[:, 1:4], table[:, 1:4], rtol=0.0, atol=1e-11)
    assert_allclose(back[:, 4:10], table[:, 4:10], rtol=0.0, atol=5e-10)

    write_truth_csv(np.empty((0, 10)), path)
    assert path.read_text() == TRUTH_CSV_HEADER + "\n"
    assert read_truth_csv(path).shape == (0, 10)


def test_truth_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "truth.csv"
    path.write_text(FUSED_CSV_HEADER + "\n")
    with pytest.raises(FormatError, match="header"):
        read_truth_csv(path)


def test_can_frame_validation():
    with pytest.raises(ValueError):
        CanFrame(-1, bytes(8))
    with pytest.raises(ValueError):
        CanFrame(1 << 29, bytes(8))
    with pytest.raises(ValueError):
        CanFrame(0x300, bytes(7))
    with pytest.raises(ValueError):
        CanFrame(0x300, bytes(9))
    frame = CanFrame((1 << 29) - 1, bytearray(8))
    assert isinstance(frame.payload, bytes)


def test_can_encoding_packs_tenth_millimeter_counts():
    record = FusedRecord(
        timestamp=0.0,
        prism_nav=np.array([1.2345, -0.5, 2.0]),
        poi_nav=np.array([0.1, 0.2, -0.3]),
        attitude_used=Attitude(),
        alpha_used=0.9,
        imu_timestamp_used=0.0,
    )
    frames = encode_can_frames(record, 0x300)
    assert [f.can_id for f in frames] == [0x300, 0x301, 0x302]
    assert frames[0].payload == struct.pack("<ii", 12345, -5000)
    assert frames[1].payload == struct.pack("<ii", 20000, 1000)
    assert frames[2].payload == struct.pack("<ii", 2000, -3000)


def test_can_round_trip_quantization():
    rng = np.random.default_rng(16)
    for _ in range(200):
        record = random_record(rng)
        prism, poi = decode_can_frames(encode_can_frames(record, 0x300))
        assert_allclose(prism, record.prism_nav, atol=5.01e-5)
        assert_allclose(poi, record.poi_nav, atol=5.01e-5)


def test_can_range_limits():
    def record_with_x(x):
        return FusedRecord(
            timestamp=0.0,
            prism_nav=np.array([x, 0.0, 0.0]),
            poi_nav=np.zeros(3),
            attitude_used=Attitude(),
            alpha_used=0.9,
            imu_timestamp_used=0.0,
        )

    # the largest encodable magnitude is one count below 2**31
    encode_can_frames(record_with_x(214748.3647), 0x300)
    with pytest.raises(FormatError, match="encodable range"):
        encode_can_frames(record_with_x(214748.3648), 0x300)
    with pytest.raises(FormatError, match="encodable range"):
        encode_can_frames(record_with_x(-250000.0), 0x300)
    # a finite coordinate whose count overflows a float
    with pytest.raises(
        FormatError,
        match=r"^prism_x = 1e\+306 m exceeds the encodable range of \+/-214748.3647 m$",
    ):
        encode_can_frames(record_with_x(1e306), 0x300)


def test_can_decode_rejects_wrong_frame_sets():
    record = FusedRecord(
        timestamp=0.0,
        prism_nav=np.zeros(3),
        poi_nav=np.zeros(3),
        attitude_used=Attitude(),
        alpha_used=0.9,
        imu_timestamp_used=0.0,
    )
    frames = encode_can_frames(record, 0x300)
    with pytest.raises(FormatError, match="3 frames"):
        decode_can_frames(frames[:2])
    shuffled = [frames[0], frames[2], frames[1]]
    with pytest.raises(FormatError, match="consecutive"):
        decode_can_frames(shuffled)


def test_can_base_id_leaves_room_for_every_frame():
    record = FusedRecord(
        timestamp=0.0,
        prism_nav=np.zeros(3),
        poi_nav=np.zeros(3),
        attitude_used=Attitude(),
        alpha_used=0.9,
        imu_timestamp_used=0.0,
    )
    top = (1 << 29) - 1
    assert encode_can_frames(record, top - 2)[-1].can_id == top
    for bad in (top - 1, top, -1):
        with pytest.raises(ValueError, match=f"^base_id must leave room for three 29-bit ids, got {bad:#x}$"):
            encode_can_frames(record, bad)


def test_dump_line_round_trip():
    frame = CanFrame(0x300, struct.pack("<ii", 12345, -5000))
    line = format_can_dump_line(frame)
    assert line == "00000300#3930000078ECFFFF"
    back = parse_can_dump_line(line)
    assert back == frame


@pytest.mark.parametrize(
    "line",
    [
        "",
        "00000300",
        "00000300#",
        "00000300#AABB",
        "00000300#AABBCCDDEEFF00112233",
        "XYZ#3930000078ECFFFF",
        "00000300#393000QQ78ECFFFF",
        "00000300#39#30",
        "20000000#3930000078ECFFFF",
    ],
)
def test_dump_line_rejects_malformed(line):
    with pytest.raises(FormatError):
        parse_can_dump_line(line)


def test_helmert_file_round_trips_exactly(tmp_path):
    rng = np.random.default_rng(19)
    params = HelmertParams(
        scale=float(rng.uniform(0.5, 2.0)),
        rotation=Rotation.random(rng=rng).as_matrix(),
        translation=rng.uniform(-1000.0, 1000.0, size=3),
    )
    path = tmp_path / "helmert.txt"
    write_helmert_file(params, path)
    back = read_helmert_file(path)
    assert back.scale == params.scale
    assert np.array_equal(back.rotation, params.rotation)
    assert np.array_equal(back.translation, params.translation)


def test_helmert_file_accepts_comments_and_blank_lines(tmp_path):
    path = tmp_path / "helmert.txt"
    path.write_text(
        "# fitted on 2024-05-02\n"
        "\n"
        "scale = 1.0\n"
        "rotation = 1 0 0 0 1 0 0 0 1  # identity\n"
        "translation = 0 0 0\n"
    )
    params = read_helmert_file(path)
    assert params.scale == 1.0


@pytest.mark.parametrize(
    "text",
    [
        "scale = 1.0\nrotation = 1 0 0 0 1 0 0 0 1\n",
        "scale = 1.0 2.0\nrotation = 1 0 0 0 1 0 0 0 1\ntranslation = 0 0 0\n",
        "scale = 1.0\nrotation = 1 0 0\ntranslation = 0 0 0\n",
        "scale = 1.0\nrotation = 2 0 0 0 2 0 0 0 2\ntranslation = 0 0 0\n",
        "scale = 0\nrotation = 1 0 0 0 1 0 0 0 1\ntranslation = 0 0 0\n",
        "scale one\nrotation = 1 0 0 0 1 0 0 0 1\ntranslation = 0 0 0\n",
        "scale = abc\nrotation = 1 0 0 0 1 0 0 0 1\ntranslation = 0 0 0\n",
        "scale = 1\nscale = 2\nrotation = 1 0 0 0 1 0 0 0 1\ntranslation = 0 0 0\n",
        "scale = 1\nscael = 2\nrotation = 1 0 0 0 1 0 0 0 1\ntranslation = 0 0 0\n",
    ],
)
def test_helmert_file_rejects_malformed(tmp_path, text):
    path = tmp_path / "helmert.txt"
    path.write_text(text)
    with pytest.raises(FormatError):
        read_helmert_file(path)


def test_helmert_file_names_the_duplicate_key(tmp_path):
    path = tmp_path / "helmert.txt"
    path.write_text("scale = 1\nscale = 2\nrotation = 1 0 0 0 1 0 0 0 1\ntranslation = 0 0 0\n")
    with pytest.raises(FormatError, match="^line 2: duplicate key 'scale'$"):
        read_helmert_file(path)


def test_helmert_file_names_an_unknown_key(tmp_path):
    path = tmp_path / "helmert.txt"
    path.write_text("scale = 1\nscael = 2\nrotation = 1 0 0 0 1 0 0 0 1\ntranslation = 0 0 0\n")
    with pytest.raises(FormatError, match="^line 2: unknown transform key 'scael'$"):
        read_helmert_file(path)


def test_pairs_csv_reads_rows(tmp_path):
    path = tmp_path / "pairs.csv"
    path.write_text(
        PAIRS_CSV_HEADER + "\n" + "1,2,3,4,5,6\n" + "0.5,0,0,-0.5,0,0\n"
    )
    pairs = read_pairs_csv(path)
    assert len(pairs) == 2
    assert_allclose(pairs[0][0], [1.0, 2.0, 3.0])
    assert_allclose(pairs[0][1], [4.0, 5.0, 6.0])


def test_pairs_csv_rejects_malformed(tmp_path):
    path = tmp_path / "pairs.csv"
    path.write_text("a,b,c\n")
    with pytest.raises(FormatError):
        read_pairs_csv(path)
    path.write_text(PAIRS_CSV_HEADER + "\n1,2,3,4,5\n")
    with pytest.raises(FormatError, match="line 2"):
        read_pairs_csv(path)


@pytest.mark.parametrize(
    "reader, header",
    [
        (read_fused_csv, FUSED_CSV_HEADER),
        (read_truth_csv, TRUTH_CSV_HEADER),
        (read_pairs_csv, PAIRS_CSV_HEADER),
    ],
    ids=["fused", "truth", "pairs"],
)
def test_csv_tables_share_one_reader(tmp_path, reader, header):
    path = tmp_path / "table.csv"
    n_fields = len(header.split(","))
    row = ",".join(f"{0.25 * i:.9f}" for i in range(n_fields))

    path.write_text("")
    with pytest.raises(FormatError, match="empty file"):
        reader(path)
    path.write_text("a,b,c\n" + row + "\n")
    with pytest.raises(FormatError, match="header mismatch"):
        reader(path)

    path.write_text(header + "\n\n" + row + "\n  \n" + row + "\n\n")
    assert len(reader(path)) == 2

    short_row = row.rsplit(",", 1)[0]
    non_finite_row = "nan" + row[row.index(","):]
    for bad in (short_row, non_finite_row):
        path.write_text(header + "\n" + row + "\n\n" + bad + "\n" + row + "\n")
        with pytest.raises(FormatError, match="line 4"):
            reader(path)


MUTATION_ALPHABET = "0123456789.,-+eEIMURTSX# abc"


def _mutate(line, rng):
    ops = rng.integers(0, 5)
    if not line:
        return line + "X"
    pos = int(rng.integers(0, len(line)))
    if ops == 0:
        return line[:pos] + line[pos + 1 :]
    if ops == 1:
        ch = MUTATION_ALPHABET[int(rng.integers(0, len(MUTATION_ALPHABET)))]
        return line[:pos] + ch + line[pos:]
    if ops == 2:
        ch = MUTATION_ALPHABET[int(rng.integers(0, len(MUTATION_ALPHABET)))]
        return line[:pos] + ch + line[pos + 1 :]
    if ops == 3:
        return line[:pos]
    return line + "," + line[:pos]


@pytest.mark.parametrize(
    "parser, valid",
    [
        (parse_imu_line, "IMU,0.010000,0.000000,0.000000,9.806650,0.001000,-0.002000,0.000500"),
        (parse_rts_line, "RTS,2.400000,5.125000,45.000000,88.500000"),
        (read_csv_record, None),
        (parse_can_dump_line, "00000300#3930000078ECFFFF"),
    ],
)
def test_parsers_fail_only_with_format_errors(parser, valid):
    # mutated input must either parse or raise FormatError, nothing else
    rng = np.random.default_rng(99)
    if valid is None:
        valid = write_csv_record(random_record(rng))
    for _ in range(400):
        line = _mutate(valid, rng)
        try:
            parser(line)
        except FormatError:
            pass


def test_can_encoding_rejects_non_finite_coordinates():
    for value in (math.inf, -math.inf, math.nan):
        record = FusedRecord(0.0, [0.0, 0.0, 0.0], [0.0, value, 0.0], Attitude(), 0.9, 0.0)
        with pytest.raises(FormatError, match="poi_y = .* not a finite coordinate"):
            encode_can_frames(record, 0x300)


def _helmert_text():
    return (
        "# 3D similarity transform\n"
        "scale = 1.5\n"
        "rotation = 0 -1 0 1 0 0 0 0 1\n"
        "translation = 10 -20 30\n"
    )


def _fused_text():
    rng = np.random.default_rng(21)
    rows = [write_csv_record(random_record(rng)) for _ in range(2)]
    return "\n".join([FUSED_CSV_HEADER, *rows]) + "\n"


def _truth_text():
    return TRUTH_CSV_HEADER + "\n" + ",".join(["0.5"] * 10) + "\n"


FILE_READERS = [
    (read_fused_csv, _fused_text()),
    (read_truth_csv, _truth_text()),
    (read_pairs_csv, PAIRS_CSV_HEADER + "\n1,2,3,4,5,6\n0.5,0,0,-0.5,0,0\n"),
    (read_helmert_file, _helmert_text()),
]
FILE_READER_IDS = ["fused", "truth", "pairs", "helmert"]


@pytest.mark.parametrize("reader, valid", FILE_READERS, ids=FILE_READER_IDS)
def test_file_readers_decode_utf8_and_reject_other_bytes(tmp_path, reader, valid):
    path = tmp_path / "input.txt"
    path.write_bytes(valid.encode("utf-8"))
    reader(path)
    # a comment in UTF-8 reads whatever the locale
    if reader is read_helmert_file:
        path.write_bytes(("# réseau géodésique\n" + valid).encode("utf-8"))
        reader(path)
    path.write_bytes(valid.encode("utf-8").replace(b"\n", b"\xff\n", 2))
    with pytest.raises(FormatError, match=r"input\.txt: not UTF-8 text"):
        reader(path)


@st.composite
def mangled(draw, valid, alphabet):
    """``valid`` with up to four random splices drawn from ``alphabet``."""
    text = valid
    for _ in range(draw(st.integers(0, 4))):
        start = draw(st.integers(0, len(text)))
        end = draw(st.integers(start, min(len(text), start + 3)))
        text = text[:start] + draw(alphabet) + text[end:]
    return text


_ANY_TEXT = st.text(st.characters(exclude_categories=()), max_size=3)
_LINE_PARSERS = [
    (parse_imu_line, "IMU,0.010000,0.000000,0.000000,9.806650,0.001000,-0.002000,0.000500"),
    (parse_rts_line, "RTS,2.400000,5.125000,45.000000,88.500000"),
    (read_csv_record, _fused_text().splitlines()[1]),
    (parse_can_dump_line, "00000300#3930000078ECFFFF"),
]


@pytest.mark.parametrize(
    "parser, valid", _LINE_PARSERS, ids=["imu", "rts", "csv_record", "can_dump"]
)
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_line_parsers_raise_only_format_errors(parser, valid, data):
    line = data.draw(
        st.one_of(st.text(st.characters(exclude_categories=())), mangled(valid, _ANY_TEXT))
    )
    try:
        parser(line, 3)
    except FormatError:
        pass


@pytest.mark.parametrize("reader, valid", FILE_READERS, ids=FILE_READER_IDS)
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_file_readers_raise_only_format_errors(tmp_path_factory, reader, valid, data):
    content = data.draw(
        st.one_of(st.binary(), mangled(valid.encode("utf-8"), st.binary(max_size=3)))
    )
    path = tmp_path_factory.mktemp("fuzz") / "input.txt"
    path.write_bytes(content)
    try:
        reader(path)
    except FormatError:
        pass


# Whole record files: the record reader against the line-by-line reader it
# falls back to, which parses each non-blank line on its own.


def read_line_by_line(path, parse, header=None, what=""):
    """``parse(line, number)`` for each non-blank line; a CSV table's header
    must be line 1."""
    with open(path, encoding="utf-8") as f:
        try:
            if header is not None:
                first = f.readline()
                if not first:
                    raise FormatError(f"{path}: empty file, expected {what} header")
                if first.strip() != header:
                    got = first.removesuffix("\n")
                    raise FormatError(f"{path}: header mismatch: expected {header!r}, got {got!r}")
            return [parse(line, i) for i, line in enumerate(f, 2 if header else 1) if line.strip()]
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: not UTF-8 text ({exc.reason})") from exc


def _table_kind(fmt, header, bulk=None, parse=None):
    """A CSV table's kind: by default the record reader's table rows against
    each line's numbers; a table with angles passes its reader and line
    parser."""
    assert ",".join(fmt.names) == header
    if bulk is None:
        def bulk(path):
            return codec._read_records(path, fmt).tolist()

    if parse is None:
        def parse(line, i):
            return codec._numbers(line, fmt, i)

    def line_by_line(path):
        return read_line_by_line(path, parse, header, fmt.noun)

    return None, header, len(fmt.names), bulk, line_by_line


def fused_row(record):
    """A fused record's fields stacked in FUSED_CSV_HEADER order, angles in radians."""
    att = record.attitude_used
    return [record.timestamp, *record.prism_nav.tolist(), *record.poi_nav.tolist(),
            att.roll, att.pitch, att.yaw, record.alpha_used, record.imu_timestamp_used]


def _truth_row(line, i):
    """One truth CSV row read as the per-value rule reads it: each ``_deg``
    field through ``math.radians``."""
    names = TRUTH_CSV_HEADER.split(",")
    values = codec._numbers(line, codec._TRUTH, i)
    return [math.radians(v) if name.endswith("_deg") else v for v, name in zip(values, names)]


RECORD_FILES = {
    # kind: (tag, header, field count, bulk reader, line-by-line reader)
    "imu": ("IMU", None, 7, codec._read_imu, lambda p: read_line_by_line(p, parse_imu_line)),
    "rts": ("RTS", None, 4, codec._read_rts, lambda p: read_line_by_line(p, parse_rts_line)),
    "fused": _table_kind(
        codec._FUSED, FUSED_CSV_HEADER, lambda p: read_fused_csv(p).tolist(),
        lambda line, i: fused_row(read_csv_record(line, i)),
    ),
    "truth": _table_kind(
        codec._TRUTH, TRUTH_CSV_HEADER, lambda p: read_truth_csv(p).tolist(), _truth_row
    ),
    "pairs": _table_kind(codec._PAIRS, PAIRS_CSV_HEADER),
}


def record_bits(item):
    """The exact values a reader made of one record line."""
    if isinstance(item, ImuSample):
        arrays = [(a.dtype.str, a.shape) for a in (item.accel, item.gyro)]
        values = [item.timestamp, *item.accel.tolist(), *item.gyro.tolist()]
        return arrays, [float(v).hex() for v in values]
    if isinstance(item, RtsObservation):
        values = [item.timestamp, item.slant_distance, item.horizontal_angle, item.zenith_angle]
        return [float(v).hex() for v in values]
    return [float(v).hex() for v in item]


def read_outcome(read, path):
    """The bits of every record ``read(path)`` returns, or its error."""
    try:
        records = read(path)
    except FormatError as exc:
        return "error", str(exc)
    return "records", [record_bits(item) for item in records]


# Finite values whose sum overflows, and tokens float() reads but the C pass
# does not, or neither does: '#' (no comment character), non-ASCII digits and
# blanks, the ASCII separators str.strip takes for blanks, non-finite spellings.
_FILE_NUMBER = st.one_of(_NUMBER, st.sampled_from(["1e308", "-1.7976931348623157e308"]))
_FILE_ODD = st.one_of(
    _ODD_TOKEN,
    st.sampled_from(["#1", "1#", "١٢", "٣.5", "\x1c3\x1f", " 5 ",
                     "inf", "Infinity", "+nan", "1 2", "1\x00", "'1'"]),
)
_BLANK_LINE = st.sampled_from(["", " ", "\t", "\x1c", "  "])


# Numbers the file pass reads but an observation refuses: a distance not above
# zero, a zenith angle at or beyond 0 or 180 degrees.
_RTS_NO_DISTANCE = ["0", "-0.0", "-1e-300", "-2.5", "-1e6"]
_RTS_NO_ZENITH = ["0", "-0.0", "-0.000001", "180", "180.0", "180.000001", "359.9", "-90", "1e300"]


def clean_record_line(kind, tag, count, in_range=True):
    """A well-formed record line, an RTS one with values in range unless
    ``in_range`` is false."""
    if kind == "rts":
        distance = st.floats(1e-3, 1e6).map(repr)
        zenith = st.floats(1e-3, 179.999).map("{:.6f}".format)
        if not in_range:
            distance = st.one_of(distance, st.sampled_from(_RTS_NO_DISTANCE))
            zenith = st.one_of(zenith, st.sampled_from(_RTS_NO_ZENITH))
        fields = st.tuples(_FILE_NUMBER, distance, _FILE_NUMBER, zenith).map(list)
    else:
        fields = st.lists(_FILE_NUMBER, min_size=count, max_size=count)
    return fields.map(lambda values: ",".join([tag, *values] if tag else values))


@st.composite
def record_file(draw, kind):
    """The text of a record file of ``kind`` and whether it is clean: each
    line well-formed or blank, any line break, the header exact. A file that
    is only well-formed may also hold observations out of range; a faulty one
    may also hold faulty lines, a faulty header or none (so an empty file),
    blanks around commas or the tag."""
    tag, header, count, _, _ = RECORD_FILES[kind]
    kind_of_file = draw(st.sampled_from(["clean", "well-formed", "faulty"]))
    line = clean_record_line(kind, tag, count, in_range=kind_of_file == "clean")
    if kind_of_file == "faulty":
        line = st.one_of(line, record_lines(tag, count, _FILE_NUMBER, _FILE_ODD))
    lines = draw(st.lists(st.one_of(line, _BLANK_LINE), max_size=8))
    if header is not None:
        variants = [header] if kind_of_file != "faulty" else [
            header, None, " " + header + " ", header.upper(), header.rsplit(",", 1)[0], ""
        ]
        first = draw(st.sampled_from(variants))
        lines = lines if first is None else [first, *lines]
    separator = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return separator.join(lines) + draw(st.sampled_from(["", separator])), kind_of_file == "clean"


@pytest.mark.parametrize("kind", sorted(RECORD_FILES))
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_bulk_reader_agrees_with_the_line_by_line_reader(tmp_path_factory, kind, data):
    """Bit for bit the same records, or the same FormatError message; a clean
    file is read by the file pass alone, with no line parsed on its own."""
    text, clean = data.draw(record_file(kind))
    path = tmp_path_factory.mktemp("records") / f"{kind}.txt"
    path.write_bytes(text.encode("utf-8", "surrogatepass"))
    _, _, _, bulk, line_by_line = RECORD_FILES[kind]
    expected = read_outcome(line_by_line, path)
    with mock.patch.object(codec, "_numbers", wraps=codec._numbers) as per_line:
        assert read_outcome(bulk, path) == expected
    if clean:
        assert expected[0] == "records"
        assert not per_line.called


@pytest.mark.parametrize(
    "distance, zenith",
    [(d, "90") for d in _RTS_NO_DISTANCE] + [("5", v) for v in _RTS_NO_ZENITH],
)
def test_bulk_reader_refuses_an_observation_out_of_range_as_the_line_reader(
    tmp_path, distance, zenith
):
    """A file the file pass reads whole whose third observation breaks a rule:
    the same FormatError, naming line 3."""
    good = "RTS,0.2,5.0,10.0,90.0"
    path = tmp_path / "rts.txt"
    path.write_text("\n".join([good, good, f"RTS,0.4,{distance},10.0,{zenith}", good]) + "\n")
    expected = read_outcome(RECORD_FILES["rts"][4], path)
    assert expected[0] == "error" and expected[1].startswith("line 3: "), expected
    assert read_outcome(codec._read_rts, path) == expected


def test_every_reader_converts_its_angle_fields_as_math_radians_does():
    """One angle rule for every reader: the product by its format's
    ``radians`` factors, on a whole table or on one record, turns the
    ``_deg`` fields to the bits math.radians gives value by value and leaves
    the other fields untouched."""
    rng = np.random.default_rng(31)
    degrees = np.concatenate([
        rng.uniform(-360.0, 360.0, 3000),
        10.0 ** rng.uniform(-320.0, 308.0, 3000) * rng.choice([-1.0, 1.0], 3000),
        [0.0, -0.0, 5e-324, 1e-300, 180.0, -90.0, 1.7976931348623157e308],
    ])
    expected_angles = {"RTS": (2, 3), "fused": (7, 8, 9), "truth": (1, 2, 3)}
    for name, fmt in [("RTS", codec._RTS), ("fused", codec._FUSED), ("truth", codec._TRUTH)]:
        assert fmt.angles == expected_angles[name]
        k = len(fmt.names)
        rows = degrees[: len(degrees) // k * k].reshape(-1, k)
        expected = [
            [math.radians(v).hex() if i in fmt.angles else v.hex() for i, v in enumerate(row)]
            for row in rows.tolist()
        ]
        table = rows * fmt.radians
        assert [[v.hex() for v in row] for row in table.tolist()] == expected, name
        for row, want in zip(rows[:300], expected):
            got = (row * fmt.radians).tolist()
            assert [v.hex() for v in got] == want, name


def test_every_writer_converts_its_angle_fields_as_math_degrees_does():
    """The write side of the angle rule: the row writer's product gives the
    ``_deg`` fields of each format the bits math.degrees gives value by
    value, as the writers did one Python float at a time, and leaves the
    other fields untouched."""
    rng = np.random.default_rng(32)
    radians = np.concatenate([
        rng.uniform(-2 * math.pi, 2 * math.pi, 3000),
        10.0 ** rng.uniform(-320.0, 306.0, 3000) * rng.choice([-1.0, 1.0], 3000),
        [0.0, -0.0, 5e-324, 1e-300, math.pi, -math.pi / 2, 3e306],
    ])
    for fmt in (codec._IMU, codec._RTS, codec._TRUTH):
        k = len(fmt.names)
        rows = radians[: len(radians) // k * k].reshape(-1, k)
        expected = [
            [math.degrees(v).hex() if i in fmt.angles else v.hex() for i, v in enumerate(row)]
            for row in rows.tolist()
        ]
        before = rows.copy()
        wire = codec._wire(fmt, rows)
        assert [[v.hex() for v in row] for row in wire.tolist()] == expected, fmt.noun
        assert np.array_equal(rows, before)  # a new array: the caller's rows stay as they were


def _tokens_around(char):
    return ["1" + char, char + "1", char, "1" + char + "5", "1e" + char + "5", char + char + "2"]


# Every ASCII character, every character str.strip takes for a blank, and a
# few non-ASCII digits.
_TOKEN_CHARS = sorted(
    ({chr(c) for c in range(128)}
     | {chr(c) for c in range(0x110000) if chr(c).isspace()}
     | set("٠٣۵०１"))
    - set(",\n\r")
)


ONE_FIELD = codec._declare("row", None, ["x"], None)
ONE_TAGGED_FIELD = codec._declare("row", "ROW", ["x"], None)


# Every record file is read straight from its file (codec._read_table); the
# line parser is that pass's one fallback.


@pytest.mark.parametrize("kind", sorted(RECORD_FILES))
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_a_clean_table_is_read_by_the_file_pass_alone(tmp_path_factory, kind, data):
    """A clean record file, any line break, empty or blank-only lines, at
    least one row: the line parser never runs, and the table is the line
    parser's, bit for bit."""
    tag, header, count, bulk, line_by_line = RECORD_FILES[kind]
    rows = data.draw(st.lists(clean_record_line(kind, tag, count), min_size=1, max_size=8))
    blanks = data.draw(st.lists(st.sampled_from(["", " ", "\t", "\x1c"]), max_size=2))
    rows = data.draw(st.permutations(rows + blanks))
    separator = data.draw(st.sampled_from(["\n", "\r\n", "\r"]))
    lines = rows if header is None else [header, *rows]
    text = separator.join(lines) + data.draw(st.sampled_from(["", separator]))
    path = tmp_path_factory.mktemp("table") / f"{kind}.txt"
    path.write_bytes(text.encode("utf-8"))
    expected = read_outcome(line_by_line, path)
    with (mock.patch.object(codec, "_numbers", wraps=codec._numbers) as per_line,
          mock.patch.object(codec, "parse_imu_line", wraps=codec.parse_imu_line) as imu_line,
          mock.patch.object(codec, "parse_rts_line", wraps=codec.parse_rts_line) as rts_line):
        assert read_outcome(bulk, path) == expected
    assert expected[0] == "records"
    assert not per_line.called and not imu_line.called and not rts_line.called


def test_file_pass_reads_each_token_as_the_line_parser_reads_it(tmp_path):
    """Each token as the one field of a one-row file: a CSV row under a
    one-name header, and a stream line after its tag. What the file pass
    accepts, the line parser reads to the same bits; a token it refuses goes
    to the line parser anyway."""
    path = tmp_path / "row.txt"
    for fmt, header in ((ONE_FIELD, "x\n"), (ONE_TAGGED_FIELD, "")):
        accepted = 0
        for char in _TOKEN_CHARS:
            for token in _tokens_around(char):
                line = token if fmt.tag is None else f"{fmt.tag},{token}"
                path.write_bytes(f"{header}{line}\n".encode("utf-8"))
                table = codec._read_table(path, fmt)
                if table is None:
                    continue
                accepted += 1
                (value,) = codec._numbers(line, fmt, None)
                assert table.shape == (1, 1)
                assert table[0, 0].hex() == value.hex(), (fmt.tag, token)
        assert accepted > 50, fmt.tag


@pytest.mark.parametrize("end", ["\n", ""], ids=["newline", "no-newline"])
def test_file_pass_refuses_no_data_a_missing_tag_field_count_or_non_finite_value(tmp_path, end):
    """A tagged file holding a line that lacks its exact tag and comma, has
    nothing but blanks after them, another field count or a non-finite
    value, or no line at all, is doubted: the line parser reads it."""
    good = "IMU," + ",".join(["0.5"] * 7)
    path = tmp_path / "imu.txt"

    def read(*lines):
        path.write_bytes(("\n".join(lines) + end if lines else "").encode("utf-8"))
        return codec._read_table(path, codec._IMU)

    assert read(good, good).tolist() == [[0.5] * 7] * 2
    assert read() is None
    assert read("IMU,") is None
    for bad in (" " + good, "RTS" + good[3:], good + ",1", good.rsplit(",", 1)[0],
                good[:-3] + "nan", good[:-3] + "1e999", "IMU,", "IMU, ", "IMU,\t\x1c",
                good + "\x00"):
        assert read(good, bad) is None, repr(bad)


@pytest.mark.parametrize("kind", ["imu", "rts"])
@pytest.mark.parametrize("rest", ["", " ", "\t\x1c "])
@pytest.mark.parametrize("last", [False, True], ids=["inside", "last"])
def test_a_tag_with_nothing_after_it_is_the_line_parsers_error(tmp_path, kind, rest, last):
    """A bare tag and comma, or blanks alone after them, in an otherwise
    clean stream: the line parser's FormatError naming that line, though
    numpy's C reader would skip the empty rest of it."""
    tag, _, count, read, line_by_line = RECORD_FILES[kind]
    good = ",".join([tag, *["0.5"] * count])
    lines = [good, f"{tag},{rest}"] if last else [good, f"{tag},{rest}", good]
    path = tmp_path / f"{kind}.txt"
    path.write_bytes("\n".join(lines).encode("utf-8"))
    expected = read_outcome(line_by_line, path)
    assert expected == ("error", f"line 2: {tag} line needs {count + 1} comma-separated fields, got 2")
    assert read_outcome(read, path) == expected


@pytest.mark.parametrize("suffix, compress", [
    (".gz", gzip.compress), (".bz2", bz2.compress), (".xz", lzma.compress),
])
def test_a_compressed_table_is_not_utf8_text(tmp_path, suffix, compress):
    """The file pass opens the file itself: a valid fused CSV compressed under
    a name numpy would decompress is refused as bytes that are not UTF-8."""
    path = tmp_path / f"fused.csv{suffix}"
    path.write_bytes(compress(_fused_text().encode("utf-8")))
    with pytest.raises(FormatError, match=rf"fused\.csv\{suffix}: not UTF-8 text"):
        read_fused_csv(path)


CSV_TABLES = {"fused": codec._FUSED, "truth": codec._TRUTH, "pairs": codec._PAIRS}


@pytest.mark.parametrize("kind", sorted(CSV_TABLES))
@pytest.mark.parametrize("rest", ["", "\n", "\n\n", " \n\t\n\x1c\n", "\r\n  \r\n"])
def test_a_table_with_no_row_is_empty_and_warns_nothing(tmp_path, kind, rest):
    fmt = CSV_TABLES[kind]
    path = tmp_path / f"{kind}.csv"
    path.write_bytes((",".join(fmt.names) + rest).encode("utf-8"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert codec._read_records(path, fmt).shape == (0, len(fmt.names))
        reader = {"fused": read_fused_csv, "truth": read_truth_csv, "pairs": read_pairs_csv}[kind]
        assert len(reader(path)) == 0


# A 30 000-row truth table is 2.4 MB. Read through a whole-file string and
# its line lists, the traced peak is ~10.6 MB; straight from the file, ~3.0 MB.
TABLE_READ_MARGIN = 1_000_000


def traced_peak(read, path):
    """``read(path)`` and the peak of the memory traced while it ran."""
    tracemalloc.start()
    try:
        return read(path), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_reading_a_truth_table_holds_the_table_and_little_more(tmp_path):
    """read_truth_csv's traced peak stays within the table's bytes plus a
    fixed margin: no copy of the file's text, its lines or the table."""
    path = tmp_path / "truth.csv"
    write_truth_csv(np.random.default_rng(7).uniform(-500.0, 500.0, (30_000, 10)), path)
    table, peak = traced_peak(read_truth_csv, path)
    assert table.shape == (30_000, 10)
    assert peak <= table.nbytes + TABLE_READ_MARGIN, f"peak {peak} B, table {table.nbytes} B"


# A 30 000-line IMU stream's table is 1.68 MB. Read through a whole-file
# string and its line lists, the traced peak is ~9.7 MB; straight from the
# file, ~1.9 MB.
def test_reading_an_imu_stream_holds_the_table_and_little_more(tmp_path):
    """The record reader's traced peak on an IMU stream stays within its
    table's bytes plus a fixed margin: no copy of the file's text or lines."""
    rng = np.random.default_rng(8)
    n = 30_000
    path = tmp_path / "imu.txt"
    columns = (np.arange(n) * 0.01, rng.normal(0.0, 3.0, (n, 3)), rng.normal(0.0, 0.1, (n, 3)))
    codec._write_text(path, codec._lines(codec._IMU, *columns))
    table, peak = traced_peak(lambda p: codec._read_records(p, codec._IMU), path)
    assert table.shape == (n, 7)
    assert peak <= table.nbytes + TABLE_READ_MARGIN, f"peak {peak} B, table {table.nbytes} B"


def test_samples_read_in_bulk_give_the_kernel_the_accel_norms_of_fresh_arrays(tmp_path):
    """The bulk reader's accel arrays are rows of one table; the filter's
    BLAS norm of each is bit for bit that of a fresh (3,) array."""
    rng = np.random.default_rng(31)
    path = tmp_path / "imu.txt"
    samples = [
        ImuSample(i * 0.01, rng.normal(0.0, 3.0, 3) + [0.0, 0.0, 9.8], rng.normal(0.0, 0.1, 3))
        for i in range(3000)
    ]
    path.write_text("".join(write_imu_line(s) + "\n" for s in samples))
    read = codec._read_imu(path)
    for sample, line in zip(read, path.read_text().splitlines()):
        fresh = parse_imu_line(line)
        assert sample.accel.tobytes() == fresh.accel.tobytes()
        norms = [math.sqrt(accel.dot(accel)).hex() for accel in (sample.accel, fresh.accel)]
        assert norms[0] == norms[1]


def coordinate_record(coords):
    """A record holding the six coordinates ``coords`` in CAN field order."""
    return FusedRecord(0.0, coords[:3], coords[3:], Attitude(), 0.9, 0.0)


def per_record_dump(records, base_id):
    return [
        format_can_dump_line(frame)
        for record in records
        for frame in encode_can_frames(record, base_id)
    ]


def reference_dump(records, base_id):
    """The dump lines of ``records`` by Python's ``round`` and ``struct``."""
    lines = []
    for record in records:
        counts = [round(v / 1e-4) for v in (*record.prism_nav.tolist(), *record.poi_nav.tolist())]
        for k in range(3):
            payload = struct.pack("<ii", *counts[2 * k : 2 * k + 2])
            lines.append(f"{base_id + k:08X}#{payload.hex().upper()}")
    return lines


_BLOCK = codec._ROW_BLOCK
# Half-count ties: each of these over 1e-4 is exactly k + 0.5, as are most of
# the drawn (k + 0.5) * 1e-4. Then the largest encodable magnitudes, and -0.0.
_CAN_EDGES = [0.5e-4, 2.5e-4, -3.5e-4, 214748.3647, -214748.3647, -0.0]
_CAN_COORDINATE = st.one_of(
    st.floats(-214748.3647, 214748.3647),
    st.integers(-(2**31) + 10, 2**31 - 10).map(lambda k: (k + 0.5) * 1e-4),
    st.sampled_from(_CAN_EDGES),
)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@example(n=1, seed=0, placed=list(zip([0] * 6, range(6), _CAN_EDGES)), base_id=0x300)
@given(
    n=st.sampled_from([0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1]),
    seed=st.integers(0, 2**32 - 1),
    placed=st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 5), _CAN_COORDINATE)),
    base_id=st.sampled_from([0, 0x300, (1 << 29) - 3]),
)
def test_block_can_dump_matches_the_per_record_encoder(n, seed, placed, base_id):
    coords = np.random.default_rng(seed).uniform(-3000.0, 3000.0, (n, 6))
    for row, col, value in placed:
        if n:
            coords[row % n, col] = value
    records = list(map(coordinate_record, coords))
    expected = reference_dump(records, base_id)
    blocks = list(codec._can_dump_lines(coords, base_id))
    assert "".join(blocks) == "".join(f"{line}\n" for line in expected)
    # One string per block of at most _ROW_BLOCK records, none empty.
    assert [block.count("\n") for block in blocks] == [
        3 * min(_BLOCK, n - start) for start in range(0, n, _BLOCK)
    ]
    assert per_record_dump(records, base_id) == expected


@pytest.mark.parametrize("field", range(6))
@pytest.mark.parametrize(
    "value, words",
    [
        (math.nan, "is not a finite coordinate"),
        (math.inf, "is not a finite coordinate"),
        (-math.inf, "is not a finite coordinate"),
        (214748.36475, "exceeds the encodable range"),
        (-250000.0, "exceeds the encodable range"),
        (1e306, "exceeds the encodable range"),
    ],
)
@pytest.mark.parametrize("row", [0, _BLOCK + 2])
def test_block_can_dump_names_the_first_faulty_field_as_the_per_record_encoder(
    field, value, words, row
):
    coords = np.random.default_rng(field).uniform(-3000.0, 3000.0, (_BLOCK + 5, 6))
    # Later faults, in this record and the next, are not the first.
    coords[row, 5:] = coords[row + 1, :] = 1e300
    coords[row, field] = value
    records = list(map(coordinate_record, coords))
    name = codec._CAN_FIELDS[field]
    with pytest.raises(FormatError) as per_record:
        per_record_dump(records, 0x300)
    assert str(per_record.value).startswith(f"{name} = {value} m {words}")
    # Every count is checked when called: no line is produced.
    with pytest.raises(FormatError) as block:
        codec._can_dump_lines(coords, 0x300)
    assert str(block.value) == str(per_record.value)


def table_record(row):
    """The record of one fused table row, angles in radians."""
    return FusedRecord(row[0], row[1:4], row[4:7], Attitude(*row[7:10]), row[10], row[11])


# Huge finite values, -0.0, angles at +/-pi, and values whose degrees overflow
# (the last two), placed in any field of any row.
_FUSED_EDGES = [1e300, -1e300, -0.0, math.pi, -math.pi, 5e-324, 1e307, -1.7e308]


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@example(n=1, seed=0, placed=[(0, k, -0.0) for k in range(12)])
@example(n=_BLOCK + 1, seed=1, placed=[(_BLOCK, 8, 1e307), (_BLOCK, 2, 1e300)])
@given(
    n=st.sampled_from([0, 1, _BLOCK - 1, _BLOCK + 1]),
    seed=st.integers(0, 2**32 - 1),
    placed=st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 11),
                              st.one_of(st.sampled_from(_FUSED_EDGES), st.floats(-1e3, 1e3)))),
)
def test_table_writers_match_the_per_record_oracles(tmp_path_factory, n, seed, placed):
    """The fused CSV and CAN dump written from one table give, line for line,
    what the per-record f-string oracle and encoder give; a refused field is
    named alike, by row and field, through every entry point, and leaves no
    file."""
    rng = np.random.default_rng(seed)
    table = np.column_stack([rng.uniform(0.0, 1000.0, n), rng.uniform(-3000.0, 3000.0, (n, 6)),
                             rng.uniform(-math.pi, math.pi, (n, 3)), rng.uniform(0.9, 1.0, n),
                             rng.uniform(0.0, 1000.0, n)])
    for row, col, value in placed:
        if n:
            table[row % n, col] = value
    records = [table_record(row) for row in table.tolist()]
    assert codec._fused_table(iter(records)).tobytes() == table.tobytes()

    path = tmp_path_factory.mktemp("fused") / "fused.csv"
    expected = [f_string_fused_row(r) for r in records]
    faulty = [(i, k) for i, line in enumerate(expected)
              for k, token in enumerate(line.split(",")) if "n" in token]  # nan or inf
    if not faulty:
        write_fused_csv((r for r in records), path)  # a generator is accepted
        assert path.read_text() == "".join(f"{line}\n" for line in [FUSED_CSV_HEADER, *expected])
        assert [write_csv_record(r) for r in records] == expected
    else:
        (row, k), name = faulty[0], codec._FUSED.names[faulty[0][1]]
        with pytest.raises(FormatError, match=f"^row {row}: field {name}: cannot write"):
            write_fused_csv(records, path)
        assert not path.exists()
        with pytest.raises(FormatError, match=f"^row 0: field {name}: cannot write"):
            write_csv_record(records[row])

    try:
        dump = per_record_dump(records, 0x300)
    except FormatError as exc:
        with pytest.raises(FormatError, match=f"^{re.escape(str(exc))}$"):
            codec._can_dump_lines(table[:, 1:7], 0x300)
    else:
        text = "".join(codec._can_dump_lines(table[:, 1:7], 0x300))
        assert text == "".join(f"{line}\n" for line in dump)
