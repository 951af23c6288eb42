"""Parsers and writers for every external data format.

Text stream lines (formats specific to this toolkit):

* IMU:    ``IMU,<t_s>,<ax>,<ay>,<az>,<gx>,<gy>,<gz>`` (m/s^2, rad/s)
* RTS:    ``RTS,<t_s>,<D_m>,<Hz_deg>,<V_deg>`` (degrees on the wire)
* fused:  CSV with header :data:`FUSED_CSV_HEADER`, nine-decimal fields
* truth:  CSV with header :data:`TRUTH_CSV_HEADER`, nine-decimal fields
* pairs:  CSV with header :data:`PAIRS_CSV_HEADER` (read only)

Each record file format is declared once: the noun its messages use, its
tag (none for a CSV row, whose header is its field names joined), field
names and decimals. A field named ``*_deg`` is an angle: radians inside,
degrees on the wire. One row writer formats every line from float columns
(``simulate`` hands it the scenario's arrays; fused records become one
table first). It checks the whole table before it makes a line: a field it
would write as ``nan`` or ``inf``, which no reader reads, raises FormatError
naming the row and the field, and no file is left.

Every reader takes the format of its file, and one record reader reads each
numeric record file whole: one C pass parses its lines into an ``(n, k)``
float array. ``fuse`` builds its samples and observations from it; the
fused and truth CSVs read back as that table, angles in radians, and
``eval`` takes their columns. A file the pass doubts goes through the line
parser, line by line, which reads it alike or raises the FormatError naming
the faulty line. The line parser, which also serves the public ``parse_*``
functions, has a fast path (one split, one ``float`` per field, one
finiteness test) that hands anything else to the field-by-field parser.

CAN payloads carry prism and POI coordinates as little-endian signed 32-bit
counts of 0.1 mm across three frames (base id, +1, +2). Hex dumps use
``<id hex>#<payload hex>`` lines. One counts rule serves
:func:`encode_can_frames` and the dump writer ``fuse`` uses, which checks
every count of the fused table, then cuts one hex string into lines,
building no :class:`CanFrame`.

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
from array import array
from dataclasses import dataclass
from itertools import chain
from typing import Container, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .attitude import Attitude, ImuSample, _imu_sample
from .geodesy import HelmertParams, RtsObservation, _observations
from .pipeline import FusedRecord

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
_ROW_BLOCK = 1024  # rows the row writer formats at a time


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
    """One record file format: the noun its messages use, its tag (the first
    field of a stream line; None for a CSV row, whose header is its names
    joined by commas), its field names, the ``%`` template that writes it
    (None if only read), and the indices of its angle fields, named ``*_deg``
    (degrees on the wire). A reader multiplies its rows by ``radians``:
    ``math.radians(1.0)`` for an angle (the bits of ``math.radians``), else 1."""

    noun: str
    tag: str | None
    names: tuple[str, ...]
    template: str | None
    angles: tuple[int, ...]
    radians: np.ndarray


def _declare(noun: str, tag: str | None, names: Sequence[str], decimals: int | None) -> _Format:
    fields = [f"%.{decimals}f"] * len(names)
    template = None if decimals is None else ",".join(fields if tag is None else [tag, *fields])
    angles = tuple(i for i, name in enumerate(names) if name.endswith("_deg"))
    radians = np.array([math.radians(1.0) if i in angles else 1.0 for i in range(len(names))])
    return _Format(noun, tag, tuple(names), template, angles, radians)


_IMU = _declare("IMU", "IMU", ("t_s", "ax", "ay", "az", "gx", "gy", "gz"), 6)
_RTS = _declare("RTS", "RTS", ("t_s", "D_m", "Hz_deg", "V_deg"), 6)
_FUSED = _declare("fused CSV", None, FUSED_CSV_HEADER.split(","), 9)
_TRUTH = _declare("truth CSV", None, TRUTH_CSV_HEADER.split(","), 9)
_PAIRS = _declare("point pairs CSV", None, PAIRS_CSV_HEADER.split(","), None)
_DEGREES = 180.0 / math.pi  # math.degrees(x) is x * _DEGREES, bit for bit


def _wire(fmt: _Format, *columns) -> np.ndarray:
    """``columns`` (as :func:`_lines` takes them) as a new ``(n, k)`` float
    array as written, angles in degrees (the bits of ``math.degrees``); a
    field written as ``nan`` or ``inf`` raises FormatError naming its row."""
    wire = np.column_stack(columns).astype(float, copy=False)
    with np.errstate(over="ignore"):
        wire[:, fmt.angles] *= _DEGREES
    if not np.isfinite(wire).all():
        row, k = np.argwhere(~np.isfinite(wire))[0]
        where = f"row {row}: field {fmt.names[k]}"
        raise FormatError(f"{where}: cannot write non-finite value {wire[row, k]}")
    return wire


def _lines(fmt: _Format, *columns) -> Iterator[str]:
    """The lines of ``fmt`` whose fields, in ``fmt.names`` order, are the
    columns of ``columns``: float arrays (or nested sequences) of n rows, each
    ``(n,)`` or ``(n, m)``, angles in radians. The whole table is checked when
    called (:func:`_wire`); the lines are then formatted :data:`_ROW_BLOCK`
    rows at a time, so few Python floats exist at once."""
    wire = _wire(fmt, *columns)
    blocks = (wire[start : start + _ROW_BLOCK] for start in range(0, len(wire), _ROW_BLOCK))
    return chain.from_iterable(map(fmt.template.__mod__, zip(*b.T.tolist())) for b in blocks)


def _numbers(line: str, fmt: _Format, line_number: int | None) -> list[float]:
    """The numbers of one record line of ``fmt``, after its tag if it has one.
    A fast path reads a well-formed line; anything else goes on to the field
    parser, which tolerates blanks around commas or names the faulty field."""
    tag, names = fmt.tag, fmt.names
    tokens = line.split(",")
    if (tag is None or tokens.pop(0) == tag) and len(tokens) == len(names):
        try:
            values = list(map(float, tokens))
            if math.isfinite(sum(values)):
                return values
        except ValueError:
            pass
    what = f"{fmt.noun} record" if tag is None else f"{fmt.noun} line"
    fields = _split_fields(line, len(names) + (tag is not None), what, line_number)
    if tag is not None and (found := fields.pop(0)) != tag:
        _fail(f"expected tag {tag!r}, got {found!r}", line_number)
    return [_parse_float(tok, name, line_number) for tok, name in zip(fields, names)]


def parse_imu_line(line: str, line_number: int | None = None) -> ImuSample:
    """Parse one IMU stream line; whitespace around commas is tolerated."""
    t, ax, ay, az, gx, gy, gz = _numbers(line, _IMU, line_number)
    return _imu_sample(t, np.array((ax, ay, az)), np.array((gx, gy, gz)))


def _read_imu(path) -> list[ImuSample]:
    """Every sample of an IMU stream file, as :func:`parse_imu_line` reads each
    line; a sample's accel and gyro are rows of the file's one table."""

    def build(table: np.ndarray) -> list[ImuSample]:
        return list(map(_imu_sample, table[:, 0].tolist(), table[:, 1:4], table[:, 4:7]))

    return _read_records(path, _IMU, build, parse_imu_line)


def write_imu_line(sample: ImuSample) -> str:
    return next(_lines(_IMU, [(sample.timestamp, *sample.accel.tolist(), *sample.gyro.tolist())]))


def parse_rts_line(line: str, line_number: int | None = None) -> RtsObservation:
    """Parse one observation line; wire angles are degrees, output radians."""
    values = np.array(_numbers(line, _RTS, line_number)) * _RTS.radians
    try:
        return RtsObservation(*values.tolist())
    except ValueError as exc:
        _fail(str(exc), line_number)


def _read_rts(path) -> list[RtsObservation]:
    """Every observation of an RTS stream file, as :func:`parse_rts_line` reads
    each line."""

    def build(table: np.ndarray) -> list[RtsObservation]:
        return _observations(*(table * _RTS.radians).T)

    return _read_records(path, _RTS, build, parse_rts_line)


def write_rts_line(obs: RtsObservation) -> str:
    row = (obs.timestamp, obs.slant_distance, obs.horizontal_angle, obs.zenith_angle)
    return next(_lines(_RTS, [row]))


def _fused_table(records: Iterable[FusedRecord]) -> np.ndarray:
    """The ``(n, 12)`` float64 table of ``records`` in :data:`FUSED_CSV_HEADER`
    order, angles in radians, filled as one flat buffer (no object per row);
    a prism or POI that is not a 3-vector raises ValueError."""
    flat = array("d")
    for r in records:
        px, py, pz = r.prism_nav.tolist()
        qx, qy, qz = r.poi_nav.tolist()
        att = r.attitude_used
        flat.extend((r.timestamp, px, py, pz, qx, qy, qz,
                     att.roll, att.pitch, att.yaw, r.alpha_used, r.imu_timestamp_used))
    return np.frombuffer(flat, dtype=float).reshape(-1, len(_FUSED.names))


def write_csv_record(record: FusedRecord) -> str:
    """One fused CSV line (without newline), fields in header order. A field
    it would write as ``nan`` or ``inf`` raises FormatError naming it."""
    return next(_lines(_FUSED, _fused_table([record])))


def _read_text(path) -> str:
    """A text file read whole as UTF-8, its line breaks (``\r\n``, ``\r``)
    made ``\n``; a byte that is not UTF-8 raises FormatError naming the file."""
    with open(path, encoding="utf-8") as f:
        try:
            return f.read()
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: not UTF-8 text ({exc.reason})") from exc


def _bulk(records: list[str], tag: str | None, k: int) -> np.ndarray | None:
    """The fields after ``tag`` (None for a CSV row) of every line in
    ``records`` as one finite ``(n, k)`` float array, parsed in one C pass;
    None for no data, or when a line lacks the exact tag and comma, or the
    pass fails or finds another shape or a non-finite value. The pass reads a number as
    ``float`` does, blanks around it stripped as ``str.strip`` strips them,
    so what it accepts the line parser reads alike."""
    prefix = f"{tag}," if tag else ""
    cut = len(prefix)
    fields = [line[cut:] for line in records if line.startswith(prefix)]
    # np.loadtxt skips an empty line, and warns when it finds no data at all.
    if len(fields) < len(records) or not any(fields):
        return None
    try:
        table = np.loadtxt(fields, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    if table.shape != (len(records), k) or not np.isfinite(table).all():
        return None
    return table


def _read_records(path, fmt: _Format, build=None, parse=None):
    """The records of a file of ``fmt``: ``build`` of (without ``build``, just)
    the ``(n, k)`` float table of its non-blank lines, read in one C pass. A
    CSV table's header must be line 1. When the pass doubts a line, or
    ``build`` raises ValueError, each line goes through ``parse(line,
    line_number)`` (:func:`_numbers` without ``parse``) instead, which reads
    what the pass could not (``1_0``, non-ASCII digits, blanks around the
    tag) or raises the FormatError naming the first faulty line."""
    lines = _read_text(path).split("\n")
    start = 1
    if fmt.tag is None:
        header = ",".join(fmt.names)
        if lines == [""]:
            raise FormatError(f"{path}: empty file, expected {fmt.noun} header")
        if lines[0].strip() != header:
            raise FormatError(f"{path}: header mismatch: expected {header!r}, got {lines[0]!r}")
        del lines[0]
        start = 2
    table = _bulk([line for line in lines if line.strip()], fmt.tag, len(fmt.names))
    if table is not None:
        try:
            return table if build is None else build(table)
        except ValueError:
            pass
    rows = [_numbers(line, fmt, i) if parse is None else parse(line, i)
            for i, line in enumerate(lines, start) if line.strip()]
    return rows if parse else np.array(rows, dtype=float).reshape(len(rows), len(fmt.names))


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


def read_csv_record(line: str, line_number: int | None = None) -> FusedRecord:
    """The record of one fused CSV line, its fields in header order."""
    values = (np.array(_numbers(line, _FUSED, line_number)) * _FUSED.radians).tolist()
    return FusedRecord(
        timestamp=values[0],
        prism_nav=values[1:4],
        poi_nav=values[4:7],
        attitude_used=Attitude(*values[7:10]),
        alpha_used=values[10],
        imu_timestamp_used=values[11],
    )


def write_fused_csv(records: Iterable[FusedRecord], path) -> None:
    """Write records, as :meth:`Pipeline.drain` makes them, as a fused CSV;
    :func:`read_fused_csv` reads it back as a table. A refused field raises
    FormatError before the file is opened."""
    _write_lines(path, chain([FUSED_CSV_HEADER], _lines(_FUSED, _fused_table(records))))


def read_fused_csv(path) -> np.ndarray:
    """The ``(n, 12)`` float64 table of a fused CSV, columns in
    :data:`FUSED_CSV_HEADER` order, angles in radians."""
    return _read_records(path, _FUSED) * _FUSED.radians


def write_truth_csv(table, path) -> None:
    """Write a ground-truth table, ``(n, 10)`` floats in
    :data:`TRUTH_CSV_HEADER` order with angles in radians, as a truth CSV.
    Any other shape, or a field it would write as ``nan`` or ``inf``, raises
    ValueError before the file is opened."""
    table = np.asarray(table, dtype=float)
    if table.ndim != 2 or table.shape[1] != len(_TRUTH.names):
        raise ValueError(f"truth table must have shape (n, {len(_TRUTH.names)}), got {table.shape}")
    _write_lines(path, chain([TRUTH_CSV_HEADER], _lines(_TRUTH, table)))


def read_truth_csv(path) -> np.ndarray:
    """The ground-truth table of a truth CSV, as :func:`write_truth_csv` takes it."""
    return _read_records(path, _TRUTH) * _TRUTH.radians


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


def _counts(coords: np.ndarray) -> np.ndarray:
    """The ``(n, 6)`` little-endian int32 counts of 0.1 mm of the ``(n, 6)``
    float coordinates ``coords``, columns in :data:`_CAN_FIELDS` order,
    rounded half to even as ``round`` does. A NaN or infinite coordinate, or
    one whose count exceeds int32, raises FormatError naming the first, row by
    row, then field by field."""
    with np.errstate(over="ignore"):
        counts = np.rint(coords / _COUNT_SCALE)
    # NaN and inf fail the test, and so does a huge coordinate's inf count.
    ok = np.abs(counts) <= float(_COUNT_LIMIT)
    if not ok.all():
        row, col = np.argwhere(~ok)[0]
        value, name = float(coords[row, col]), _CAN_FIELDS[col]
        if not math.isfinite(value):
            raise FormatError(f"{name} = {value} m is not a finite coordinate")
        raise FormatError(
            f"{name} = {value} m exceeds the encodable range of "
            f"+/-{_COUNT_LIMIT * _COUNT_SCALE} m"
        )
    return counts.astype("<i4")


def _check_base_id(base_id: int) -> None:
    """Raise ValueError unless the coordinate frames' ids, base_id, +1 and +2,
    are all 29-bit ids."""
    if not 0 <= base_id <= _CAN_ID_LIMIT - _CAN_FRAMES:
        raise ValueError(f"base_id must leave room for three 29-bit ids, got {base_id:#x}")


def encode_can_frames(record: FusedRecord, base_id: int) -> list[CanFrame]:
    """Pack prism and POI coordinates into three frames at base_id, +1, +2.

    Coordinates are rounded to 0.1 mm counts in signed 32-bit little-endian,
    two per frame in :data:`_CAN_FIELDS` order.
    """
    _check_base_id(base_id)
    (counts,) = _counts(_fused_table([record])[:, 1:7])
    return [CanFrame(base_id + k, counts[2 * k : 2 * k + 2].tobytes()) for k in range(_CAN_FRAMES)]


def _can_dump_lines(coords: np.ndarray, base_id: int) -> Iterator[str]:
    """The dump lines of the frames of each row of ``(n, 6)`` coordinates, as
    :func:`format_can_dump_line` writes those of :func:`encode_can_frames`;
    every count is checked when called, before the first line is made."""
    _check_base_id(base_id)
    ids = [f"{base_id + k:08X}#" for k in range(_CAN_FRAMES)]
    payloads = _counts(coords).tobytes().hex().upper()
    # A frame's payload is two counts: 8 bytes, 16 hex digits.
    return (ids[i // 16 % _CAN_FRAMES] + payloads[i : i + 16] for i in range(0, len(payloads), 16))


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
    return [(row[0:3], row[3:6]) for row in _read_records(path, _PAIRS)]
