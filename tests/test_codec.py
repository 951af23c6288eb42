import math
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.spatial.transform import Rotation

from tiltcomp import (
    Attitude,
    CanFrame,
    FormatError,
    FusedRecord,
    GroundTruthSample,
    HelmertParams,
    ImuSample,
    RtsObservation,
    decode_attitude_frame,
    decode_can_frames,
    encode_attitude_frame,
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


def test_imu_line_fast_path_skips_the_field_parser():
    rng = np.random.default_rng(8)
    lines = [
        write_imu_line(ImuSample(float(t), rng.normal(size=3), rng.normal(size=3)))
        for t in rng.uniform(0.0, 1e4, size=20)
    ]
    with mock.patch.object(codec, "_split_fields", wraps=codec._split_fields) as slow:
        for line in lines:
            parse_imu_line(line + "\n", 3)
        assert not slow.called
        # a leading blank defeats the fast path; the field parser strips it
        parse_imu_line(" " + lines[0], 3)
        assert slow.called


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
def record_lines(draw, tag, count):
    """Well-formed record lines of ``count`` numbers after ``tag`` (None for a
    CSV row), and the same lines with one or two faults: an odd field, tag or
    field count, padding, or a random character edit."""
    fields = [tag] if tag else []
    fields += draw(st.lists(_NUMBER, min_size=count, max_size=count))
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        fault = draw(st.sampled_from(["field", "tag", "count", "pad", "edit"]))
        at = draw(st.integers(0, len(fields) - 1))
        if fault == "field" or (fault == "tag" and not tag):
            fields[at] = draw(_ODD_TOKEN)
        elif fault == "tag":
            other = "RTS" if tag == "IMU" else "IMU"
            fields[0] = draw(st.sampled_from([tag.lower(), other, " " + tag, tag + " ", ""]))
        elif fault == "count":
            fields = fields[:-1] if draw(st.booleans()) else [*fields, draw(_NUMBER)]
        elif fault == "pad":
            fields[at] = draw(st.sampled_from([" ", "\t", "\u00a0"])) + fields[at] + " "
        else:
            line = ",".join(fields)
            pos = draw(st.integers(0, len(line)))
            fields = (line[:pos] + draw(st.text(max_size=2)) + line[pos + 1 :]).split(",")
    return ",".join(fields) + draw(st.sampled_from(["", "\n", "\r\n"]))


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(record_lines("IMU", 7), st.one_of(st.none(), st.integers(1, 10**6)))
def test_imu_line_fast_path_agrees_with_the_field_parser(line, line_number):
    """Bit for bit the same sample, or the same FormatError message."""
    with mock.patch.object(codec, "_split_fields", wraps=codec._split_fields) as slow:
        field_by_field = imu_parse_outcome(" " + line, line_number)
        assert slow.called
    assert imu_parse_outcome(line, line_number) == field_by_field


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
def test_rts_line_fast_path_agrees_with_the_field_parser(line, line_number):
    """Bit for bit the same observation, or the same FormatError message."""
    with mock.patch.object(codec, "_split_fields", wraps=codec._split_fields) as slow:
        field_by_field = rts_parse_outcome(" " + line, line_number)
        assert slow.called
    assert rts_parse_outcome(line, line_number) == field_by_field


def row_outcome(parse, *args):
    """The bits of the numbers ``parse(*args)`` reads from a CSV row, or its error."""
    try:
        values = parse(*args)
    except FormatError as exc:
        return "error", str(exc)
    return "row", [v.hex() for v in values]


def field_by_field_row(line, names, what, line_number):
    """A CSV row read one field at a time: the path the fast path falls back to."""
    fields = codec._split_fields(line, len(names), what, line_number)
    return [codec._parse_float(tok, name, line_number) for tok, name in zip(fields, names)]


_TABLES = {
    "fused": (FUSED_CSV_HEADER, "fused CSV record"),
    "truth": (TRUTH_CSV_HEADER, "truth CSV record"),
    "pairs": (PAIRS_CSV_HEADER, "point pairs CSV record"),
}


@pytest.mark.parametrize("table", sorted(_TABLES))
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), line_number=st.one_of(st.none(), st.integers(1, 10**6)))
def test_csv_row_fast_path_agrees_with_the_field_parser(table, data, line_number):
    """Bit for bit the same numbers, or the same FormatError message."""
    header, what = _TABLES[table]
    names = header.split(",")
    line = data.draw(record_lines(None, len(names)))
    expected = row_outcome(field_by_field_row, line, names, what, line_number)
    assert row_outcome(codec._numbers, line, None, names, what, line_number) == expected


@pytest.mark.parametrize("table", sorted(_TABLES))
def test_csv_row_fast_path_skips_the_field_parser(table):
    names = _TABLES[table][0].split(",")
    row = ",".join(f"{0.125 * i - 1:.9f}" for i in range(len(names)))
    with mock.patch.object(codec, "_split_fields", wraps=codec._split_fields) as slow:
        assert codec._numbers(row + "\n", None, names, "row", 2) == [
            0.125 * i - 1 for i in range(len(names))
        ]
        assert not slow.called
        with pytest.raises(FormatError, match=f"line 2: field {names[-1]}: 'x'"):
            codec._numbers(row.rsplit(",", 1)[0] + ",x", None, names, "row", 2)
        assert slow.called


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


def f_string_truth_row(s):
    att = s.attitude
    angles = (math.degrees(att.roll), math.degrees(att.pitch), math.degrees(att.yaw))
    return f_string_csv_line((s.timestamp, *angles, *s.prism_nav, *s.poi_nav))


@pytest.mark.parametrize(
    "v",
    [-0.0, 1e300, 5e-7, -5e-7, 5e-10, -5e-10, np.float64(-5e-10), np.float64(1e300), 7],
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

    truth = GroundTruthSample(v, Attitude(-v, v, v), np.array([v, 0.0, -v]), [1.0, v, -v])
    write_truth_csv([truth], tmp_path / "truth.csv")
    expected = [TRUTH_CSV_HEADER, f_string_truth_row(truth)]
    assert (tmp_path / "truth.csv").read_text() == "\n".join(expected) + "\n"


def test_writers_reject_a_coordinate_triple_of_another_length(tmp_path):
    record = FusedRecord(0.0, np.zeros(4), np.zeros(3), Attitude(), 0.9, 0.0)
    with pytest.raises(ValueError):
        write_csv_record(record)
    truth = GroundTruthSample(0.0, Attitude(), np.zeros(3), np.zeros(2))
    with pytest.raises(ValueError):
        write_truth_csv([truth], tmp_path / "truth.csv")


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
    assert len(back) == 25
    for a, b in zip(records, back):
        assert_allclose(b.poi_nav, a.poi_nav, atol=5e-10)


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
    rng = np.random.default_rng(15)
    samples = [
        GroundTruthSample(
            timestamp=float(i) * 0.01,
            attitude=Attitude(
                roll=float(rng.uniform(-1.0, 1.0)),
                pitch=float(rng.uniform(-1.0, 1.0)),
                yaw=float(rng.uniform(-1.0, 1.0)),
            ),
            prism_nav=rng.uniform(-10.0, 10.0, size=3),
            poi_nav=rng.uniform(-10.0, 10.0, size=3),
        )
        for i in range(20)
    ]
    path = tmp_path / "truth.csv"
    write_truth_csv(samples, path)
    assert path.read_text().splitlines()[0] == TRUTH_CSV_HEADER

    back = read_truth_csv(path)
    assert len(back) == 20
    for a, b in zip(samples, back):
        assert b.timestamp == pytest.approx(a.timestamp, abs=5e-10)
        assert b.attitude.roll == pytest.approx(a.attitude.roll, abs=1e-11)
        assert_allclose(b.prism_nav, a.prism_nav, atol=5e-10)
        assert_allclose(b.poi_nav, a.poi_nav, atol=5e-10)


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


def test_attitude_frame_round_trip():
    att = Attitude(
        roll=math.radians(12.34), pitch=math.radians(-5.0), yaw=math.radians(90.0)
    )
    frame = encode_attitude_frame(att, 0x300, sequence=7)
    assert frame.can_id == 0x303
    assert frame.payload == struct.pack("<hhhH", 1234, -500, 9000, 7)

    back, seq = decode_attitude_frame(frame)
    assert seq == 7
    assert back.roll == pytest.approx(att.roll, abs=math.radians(0.005) + 1e-12)
    assert back.pitch == pytest.approx(att.pitch, abs=math.radians(0.005) + 1e-12)
    assert back.yaw == pytest.approx(att.yaw, abs=math.radians(0.005) + 1e-12)


def test_attitude_frame_sequence_range():
    with pytest.raises(ValueError):
        encode_attitude_frame(Attitude(), 0x300, sequence=-1)
    with pytest.raises(ValueError):
        encode_attitude_frame(Attitude(), 0x300, sequence=0x10000)


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
    assert encode_attitude_frame(Attitude(), top - 3).can_id == top
    for bad in (top - 1, top, -1):
        with pytest.raises(ValueError, match=f"^base_id must leave room for three 29-bit ids, got {bad:#x}$"):
            encode_can_frames(record, bad)
    for bad in (top - 2, -1):
        with pytest.raises(ValueError, match=f"^base_id must leave room for four 29-bit ids, got {bad:#x}$"):
            encode_attitude_frame(Attitude(), bad)


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
