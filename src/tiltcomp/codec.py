"""Parsers and writers for every external data format.

Text stream lines (formats specific to this toolkit):

* IMU:    ``IMU,<t_s>,<ax>,<ay>,<az>,<gx>,<gy>,<gz>`` (m/s^2, rad/s)
* RTS:    ``RTS,<t_s>,<D_m>,<Hz_deg>,<V_deg>`` (degrees on the wire)
* fused:  CSV with header :data:`FUSED_CSV_HEADER`, nine-decimal fields
* truth:  CSV with header :data:`TRUTH_CSV_HEADER`, nine-decimal fields
* pairs:  CSV with header :data:`PAIRS_CSV_HEADER` (read only)

Each record line format is declared once: its tag (none for a CSV row), field
names and decimals. One parser reads every record line, with a fast path (one
split, one ``float`` per field, one finiteness test) that hands anything else
to the field-by-field parser; one ``%`` template per format writes it. One
table reader turns a whole CSV table into an ``(n, k)`` float array, from
which the fused, truth and pairs readers build their records and ``eval``
takes its columns. The fused CSV and CAN writers format plain floats.

CAN payloads carry prism and POI coordinates as little-endian signed 32-bit
counts of 0.1 mm across three frames (base id, +1, +2), plus an optional
attitude frame (+3) with 0.01-degree signed 16-bit angles and a sequence
counter. Hex dumps use ``<id hex>#<payload hex>`` lines.

The transform file, like the scenario config, is ``key = value`` text where
``#`` starts a comment; a line without ``=``, an unknown or a repeated key is
rejected.

Every file is opened here, by one reader and one writer, as UTF-8 whatever
the locale (other bytes raise :class:`FormatError` naming the file). Lines
break at ``\n``, ``\r\n`` or ``\r`` only, as an editor shows them, are numbered
from 1, and are written with ``\n``. Angles are radians inside the toolkit;
codecs convert at the boundary. Parsing failures raise :class:`FormatError`
with line-number context, never anything else. Decimal points only.
"""

from __future__ import annotations

import io
import math
import struct
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain
from typing import Container, Iterable, NamedTuple, Sequence

import numpy as np

from .attitude import Attitude, ImuSample
from .geodesy import HelmertParams, RtsObservation
from .pipeline import FusedRecord
from .sim import GroundTruthSample

__all__ = [
    "FormatError",
    "parse_imu_line",
    "write_imu_line",
    "parse_rts_line",
    "write_rts_line",
    "FUSED_CSV_HEADER",
    "write_csv_record",
    "read_csv_record",
    "write_fused_csv",
    "read_fused_csv",
    "TRUTH_CSV_HEADER",
    "write_truth_csv",
    "read_truth_csv",
    "CanFrame",
    "encode_can_frames",
    "decode_can_frames",
    "encode_attitude_frame",
    "decode_attitude_frame",
    "format_can_dump_line",
    "parse_can_dump_line",
    "write_helmert_file",
    "read_helmert_file",
    "PAIRS_CSV_HEADER",
    "read_pairs_csv",
]

FUSED_CSV_HEADER = (
    "t_s,prism_x_m,prism_y_m,prism_z_m,poi_x_m,poi_y_m,poi_z_m,"
    "roll_deg,pitch_deg,yaw_deg,alpha,imu_t_s"
)
TRUTH_CSV_HEADER = (
    "t_s,roll_deg,pitch_deg,yaw_deg,prism_x_m,prism_y_m,prism_z_m,"
    "poi_x_m,poi_y_m,poi_z_m"
)
PAIRS_CSV_HEADER = "sx,sy,sz,tx,ty,tz"

_CAN_ID_LIMIT = 1 << 29
_COUNT_SCALE = 1e-4
_COUNT_LIMIT = 2**31 - 1
# The coordinate frames' counts in order, two per frame: prism then POI.
_CAN_FIELDS = ("prism_x", "prism_y", "prism_z", "poi_x", "poi_y", "poi_z")
_CAN_FRAMES = len(_CAN_FIELDS) // 2


class FormatError(ValueError):
    """Malformed external data; the message carries line context when known."""


def _fail(message: str, line_number: int | None) -> None:
    if line_number is not None:
        raise FormatError(f"line {line_number}: {message}")
    raise FormatError(message)


def _parse_float(token: str, name: str, line_number: int | None) -> float:
    try:
        value = float(token)
    except ValueError:
        _fail(f"field {name}: {token!r} is not a number", line_number)
    if not math.isfinite(value):
        _fail(f"field {name}: non-finite value {token!r}", line_number)
    return value


def _split_fields(
    line: str, expected: int, what: str, line_number: int | None
) -> list[str]:
    fields = [f.strip() for f in line.strip().split(",")]
    if len(fields) != expected:
        _fail(f"{what} needs {expected} comma-separated fields, got {len(fields)}", line_number)
    return fields


class _Format(NamedTuple):
    """One record line format: its tag (the first field of a stream line, None
    for a CSV row), its field names, and the ``%`` template that writes it."""

    tag: str | None
    names: tuple[str, ...]
    template: str


def _declare(tag: str | None, names: Sequence[str], decimals: int) -> _Format:
    fields = [f"%.{decimals}f"] * len(names)
    return _Format(tag, tuple(names), ",".join(fields if tag is None else [tag, *fields]))


_IMU = _declare("IMU", ("t_s", "ax", "ay", "az", "gx", "gy", "gz"), 6)
_RTS = _declare("RTS", ("t_s", "D_m", "Hz_deg", "V_deg"), 6)
_FUSED = _declare(None, FUSED_CSV_HEADER.split(","), 9)
_TRUTH = _declare(None, TRUTH_CSV_HEADER.split(","), 9)


def _numbers(
    line: str, tag: str | None, names: Sequence[str], what: str, line_number: int | None
) -> list[float]:
    """The numbers of one record line after its ``tag`` (None for a CSV row).
    A fast path reads a well-formed line; anything else goes on to the field
    parser, which tolerates blanks around commas or names the faulty field."""
    tokens = line.split(",")
    if (tag is None or tokens.pop(0) == tag) and len(tokens) == len(names):
        try:
            values = list(map(float, tokens))
            if math.isfinite(sum(values)):
                return values
        except ValueError:
            pass
    fields = _split_fields(line, len(names) + (tag is not None), what, line_number)
    if tag is not None and (found := fields.pop(0)) != tag:
        _fail(f"expected tag {tag!r}, got {found!r}", line_number)
    return [_parse_float(tok, name, line_number) for tok, name in zip(fields, names)]


def parse_imu_line(line: str, line_number: int | None = None) -> ImuSample:
    """Parse one IMU stream line; whitespace around commas is tolerated."""
    t, ax, ay, az, gx, gy, gz = _numbers(line, _IMU.tag, _IMU.names, "IMU line", line_number)
    return ImuSample(t, np.array((ax, ay, az)), np.array((gx, gy, gz)))


def write_imu_line(sample: ImuSample) -> str:
    return _IMU.template % (sample.timestamp, *sample.accel.tolist(), *sample.gyro.tolist())


def parse_rts_line(line: str, line_number: int | None = None) -> RtsObservation:
    """Parse one observation line; wire angles are degrees, output radians."""
    t, distance, hz_deg, v_deg = _numbers(line, _RTS.tag, _RTS.names, "RTS line", line_number)
    try:
        return RtsObservation(t, distance, math.radians(hz_deg), math.radians(v_deg))
    except ValueError as exc:
        _fail(str(exc), line_number)


def write_rts_line(obs: RtsObservation) -> str:
    hz_deg, v_deg = math.degrees(obs.horizontal_angle), math.degrees(obs.zenith_angle)
    return _RTS.template % (obs.timestamp, obs.slant_distance, hz_deg, v_deg)


def write_csv_record(record: FusedRecord) -> str:
    """One fused CSV line (without newline), fields in header order."""
    px, py, pz = record.prism_nav.tolist()
    qx, qy, qz = record.poi_nav.tolist()
    att = record.attitude_used
    return _FUSED.template % (
        record.timestamp, px, py, pz, qx, qy, qz,
        math.degrees(att.roll), math.degrees(att.pitch), math.degrees(att.yaw),
        record.alpha_used, record.imu_timestamp_used,
    )


@contextmanager
def _open_utf8(path):
    """Open a text file for reading as UTF-8 with universal newlines; a byte
    that is not UTF-8 raises FormatError naming the file."""
    with open(path, encoding="utf-8") as f:
        try:
            yield f
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: not UTF-8 text ({exc.reason})") from exc


def _read_text(path) -> str:
    with _open_utf8(path) as f:
        return f.read()


def _read_records(path, parse, header: str | None = None, what: str = "") -> list:
    """``parse(line, line_number)`` for each non-blank line of a text file. A
    CSV table passes its ``header``, which must be line 1, and its name."""
    with _open_utf8(path) as f:
        if header is not None:
            first = f.readline()
            if not first:
                raise FormatError(f"{path}: empty file, expected {what} header")
            if first.strip() != header:
                got = first.removesuffix("\n")
                raise FormatError(f"{path}: header mismatch: expected {header!r}, got {got!r}")
        return [parse(line, i) for i, line in enumerate(f, 2 if header else 1) if line.strip()]


def _write_lines(path, lines: Iterable[str]) -> None:
    """Write each line and a ``\n`` to a UTF-8 text file."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        f.writelines(line + "\n" for line in lines)


def _key_values(text: str, keys: Container[str], what: str) -> dict[str, tuple[int, str]]:
    """``key -> (line number, value text)`` of ``key = value`` text, lines
    broken as in a file; ``#`` starts a comment. A line without ``=``, a key
    not in ``keys`` and a repeated key raise FormatError naming the line."""
    settings: dict[str, tuple[int, str]] = {}
    for i, line in enumerate(io.StringIO(text, newline=None), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        key, equals, value = line.partition("=")
        key = key.strip()
        if not equals:
            _fail(f"expected 'key = value', got {line!r}", i)
        if key not in keys:
            _fail(f"unknown {what} key {key!r}", i)
        if key in settings:
            _fail(f"duplicate key {key!r}", i)
        settings[key] = (i, value.strip())
    return settings


def _read_table(path, header: str, what: str) -> np.ndarray:
    """Every row of a CSV table as one ``(n, k)`` float array, k the number of
    fields in ``header``; a row is read as :func:`_numbers` reads it."""
    names = header.split(",")

    def parse(line: str, line_number: int) -> list[float]:
        return _numbers(line, None, names, f"{what} record", line_number)

    rows = _read_records(path, parse, header, what)
    return np.array(rows, dtype=float).reshape(len(rows), len(names))


def _fused_record(values: Sequence[float]) -> FusedRecord:
    return FusedRecord(
        timestamp=values[0],
        prism_nav=values[1:4],
        poi_nav=values[4:7],
        attitude_used=Attitude(*map(math.radians, values[7:10])),
        alpha_used=values[10],
        imu_timestamp_used=values[11],
    )


def read_csv_record(line: str, line_number: int | None = None) -> FusedRecord:
    return _fused_record(_numbers(line, None, _FUSED.names, "fused CSV record", line_number))


def write_fused_csv(records: Iterable[FusedRecord], path) -> None:
    _write_lines(path, chain([FUSED_CSV_HEADER], map(write_csv_record, records)))


def read_fused_csv(path) -> list[FusedRecord]:
    return list(map(_fused_record, _read_table(path, FUSED_CSV_HEADER, "fused CSV").tolist()))


def _truth_row(sample: GroundTruthSample) -> str:
    px, py, pz = sample.prism_nav.tolist()
    qx, qy, qz = sample.poi_nav.tolist()
    att = sample.attitude
    return _TRUTH.template % (
        sample.timestamp, math.degrees(att.roll), math.degrees(att.pitch),
        math.degrees(att.yaw), px, py, pz, qx, qy, qz,
    )


def _truth_sample(values: Sequence[float]) -> GroundTruthSample:
    return GroundTruthSample(
        timestamp=values[0],
        attitude=Attitude(*map(math.radians, values[1:4])),
        prism_nav=values[4:7],
        poi_nav=values[7:10],
    )


def write_truth_csv(samples: Iterable[GroundTruthSample], path) -> None:
    _write_lines(path, chain([TRUTH_CSV_HEADER], map(_truth_row, samples)))


def read_truth_csv(path) -> list[GroundTruthSample]:
    return list(map(_truth_sample, _read_table(path, TRUTH_CSV_HEADER, "truth CSV").tolist()))


@dataclass(frozen=True)
class CanFrame:
    """One bus frame: 29-bit identifier plus exactly eight payload bytes."""

    can_id: int
    payload: bytes

    def __post_init__(self):
        if not 0 <= self.can_id < _CAN_ID_LIMIT:
            raise ValueError(f"can_id must fit 29 bits, got {self.can_id:#x}")
        if not isinstance(self.payload, (bytes, bytearray)) or len(self.payload) != 8:
            raise ValueError("payload must be exactly 8 bytes")
        object.__setattr__(self, "payload", bytes(self.payload))


def _to_counts(value_m: float, name: str) -> int:
    if not math.isfinite(value_m):
        raise FormatError(f"{name} = {value_m} m is not a finite coordinate")
    counts = round(value_m / _COUNT_SCALE)
    if abs(counts) > _COUNT_LIMIT:
        raise FormatError(
            f"{name} = {value_m} m exceeds the encodable range of "
            f"+/-{_COUNT_LIMIT * _COUNT_SCALE} m"
        )
    return counts


def _check_base_id(base_id: int, count: int = _CAN_FRAMES) -> None:
    """Raise ValueError unless base_id .. base_id + count - 1 are all 29-bit ids."""
    if not 0 <= base_id <= _CAN_ID_LIMIT - count:
        words = {3: "three", 4: "four"}
        raise ValueError(f"base_id must leave room for {words[count]} 29-bit ids, got {base_id:#x}")


def encode_can_frames(record: FusedRecord, base_id: int) -> list[CanFrame]:
    """Pack prism and POI coordinates into three frames at base_id, +1, +2.

    Coordinates are rounded to 0.1 mm counts in signed 32-bit little-endian,
    two per frame in :data:`_CAN_FIELDS` order.
    """
    _check_base_id(base_id)
    values = (*record.prism_nav.tolist(), *record.poi_nav.tolist())
    counts = [_to_counts(v, name) for v, name in zip(values, _CAN_FIELDS)]
    return [
        CanFrame(base_id + k, struct.pack("<ii", *counts[2 * k : 2 * k + 2]))
        for k in range(_CAN_FRAMES)
    ]


def decode_can_frames(frames: Sequence[CanFrame]) -> tuple[np.ndarray, np.ndarray]:
    """Invert :func:`encode_can_frames`; returns (prism_nav, poi_nav) meters."""
    if len(frames) != _CAN_FRAMES:
        raise FormatError(
            f"coordinate decoding needs exactly {_CAN_FRAMES} frames, got {len(frames)}"
        )
    base = frames[0].can_id
    for offset, frame in enumerate(frames):
        if frame.can_id != base + offset:
            raise FormatError(
                f"frame ids must be consecutive from {base:#x}, got {frame.can_id:#x} "
                f"at position {offset}"
            )
    counts = [struct.unpack("<ii", frame.payload) for frame in frames]
    prism, poi = np.array(counts).reshape(2, 3) * _COUNT_SCALE
    return prism, poi


def encode_attitude_frame(attitude: Attitude, base_id: int, sequence: int = 0) -> CanFrame:
    """Optional fourth frame (base_id + 3): angles in 0.01-degree signed
    16-bit counts, roll/pitch/yaw, then an unsigned 16-bit sequence counter."""
    _check_base_id(base_id, 4)
    if not 0 <= sequence <= 0xFFFF:
        raise ValueError(f"sequence must fit 16 bits, got {sequence}")
    counts = [round(math.degrees(a) * 100.0) for a in (attitude.roll, attitude.pitch, attitude.yaw)]
    return CanFrame(base_id + 3, struct.pack("<hhhH", *counts, sequence))


def decode_attitude_frame(frame: CanFrame) -> tuple[Attitude, int]:
    roll, pitch, yaw, sequence = struct.unpack("<hhhH", frame.payload)
    attitude = Attitude(
        roll=math.radians(roll / 100.0),
        pitch=math.radians(pitch / 100.0),
        yaw=math.radians(yaw / 100.0),
    )
    return attitude, sequence


def format_can_dump_line(frame: CanFrame) -> str:
    return f"{frame.can_id:08X}#{frame.payload.hex().upper()}"


def parse_can_dump_line(line: str, line_number: int | None = None) -> CanFrame:
    parts = line.strip().split("#")
    if len(parts) != 2:
        _fail("dump line must be <id hex>#<payload hex>", line_number)
    try:
        can_id = int(parts[0], 16)
        payload = bytes.fromhex(parts[1])
    except ValueError:
        _fail(f"invalid hex in dump line {line.strip()!r}", line_number)
    try:
        return CanFrame(can_id, payload)
    except ValueError as exc:
        _fail(str(exc), line_number)


def write_helmert_file(params: HelmertParams, path) -> None:
    """Store a similarity transform as commented key = value text."""
    _write_lines(path, [
        "# 3D similarity transform: nav = scale * rotation @ point + translation",
        f"scale = {params.scale:.17g}",
        "rotation = " + " ".join(f"{v:.17g}" for v in params.rotation.ravel()),
        "translation = " + " ".join(f"{v:.17g}" for v in params.translation),
    ])


_HELMERT_SIZES = {"scale": 1, "rotation": 9, "translation": 3}


def read_helmert_file(path) -> HelmertParams:
    settings = _key_values(_read_text(path), _HELMERT_SIZES, "transform")
    values = {
        key: [_parse_float(tok, key, i) for tok in text.split()]
        for key, (i, text) in settings.items()
    }
    for key, count in _HELMERT_SIZES.items():
        if key not in values:
            raise FormatError(f"{path}: missing key {key!r}")
        if len(values[key]) != count:
            raise FormatError(f"{path}: key {key!r} needs {count} values, got {len(values[key])}")
    try:
        return HelmertParams(
            scale=values["scale"][0],
            rotation=np.array(values["rotation"]).reshape(3, 3),
            translation=np.array(values["translation"]),
        )
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def read_pairs_csv(path) -> list[tuple[np.ndarray, np.ndarray]]:
    """Load (source, target) point pairs for transform fitting."""
    table = _read_table(path, PAIRS_CSV_HEADER, "point pairs CSV")
    return [(row[0:3], row[3:6]) for row in table]
