"""Parsers and writers for every external data format.

Text stream lines (formats specific to this toolkit):

* IMU:    ``IMU,<t_s>,<ax>,<ay>,<az>,<gx>,<gy>,<gz>`` (m/s^2, rad/s)
* RTS:    ``RTS,<t_s>,<D_m>,<Hz_deg>,<V_deg>`` (degrees on the wire)
* fused:  CSV with header :data:`FUSED_CSV_HEADER`, nine-decimal fields
* truth:  CSV with header :data:`TRUTH_CSV_HEADER`, nine-decimal fields
* pairs:  CSV with header :data:`PAIRS_CSV_HEADER` (read only)

Each record line format is declared once: its tag (none for a CSV row), field
names and decimals; one ``%`` template per format writes it. A field whose
name ends in ``_deg`` is an angle: radians inside, degrees on the wire. One
row writer formats every IMU, RTS and truth line from float columns, a block
of rows at a time, converting each angle column with ``math.degrees``:
``simulate`` hands it the scenario's arrays, :func:`write_imu_line` and
:func:`write_rts_line` the numbers of their objects, and
:func:`write_truth_csv` the ground-truth table as it is. The fused CSV writer
formats plain floats. Every reader converts the angle fields of its format
back to radians through one helper, a whole table or one line at a time.
Ground truth is never an object: it is an ``(n, 10)`` float64 table whose
columns follow :data:`TRUTH_CSV_HEADER`, angles in radians.

One record reader reads every numeric record file (the IMU and RTS streams,
the fused, truth and pairs tables) whole: one C pass parses all its lines
into an ``(n, k)`` float array, from which ``fuse`` builds its samples and
observations (the observations' rules tested over whole columns) and ``eval``
takes its columns. A file the pass doubts goes through the line parser
instead, line by line, which reads it alike or raises the FormatError naming
the faulty line. The line parser, which also serves the public ``parse_*``
functions, has a fast path (one split, one ``float`` per field, one
finiteness test) that hands anything else to the field-by-field parser.

CAN payloads carry prism and POI coordinates as little-endian signed 32-bit
counts of 0.1 mm across three frames (base id, +1, +2). Hex dumps use
``<id hex>#<payload hex>`` lines. One counts rule serves
:func:`encode_can_frames` and the dump writer ``fuse`` uses, which packs ~1k
records at a time into one hex string and cuts it into lines, building no
:class:`CanFrame`.

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
_CAN_BLOCK = 1024  # records the dump encoder packs at a time
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
    """One record line format: its tag (the first field of a stream line, None
    for a CSV row), its field names, the ``%`` template that writes it, and
    the indices of its angle fields, those whose name ends in ``_deg``:
    radians inside the toolkit, degrees on the wire. ``radians`` holds each
    field's factor from the wire to the toolkit: ``math.radians(1.0)``, the
    constant ``math.radians`` multiplies by, for an angle and 1.0 otherwise."""

    tag: str | None
    names: tuple[str, ...]
    template: str
    angles: tuple[int, ...]
    radians: np.ndarray


def _declare(tag: str | None, names: Sequence[str], decimals: int) -> _Format:
    fields = [f"%.{decimals}f"] * len(names)
    template = ",".join(fields if tag is None else [tag, *fields])
    angles = tuple(i for i, name in enumerate(names) if name.endswith("_deg"))
    radians = np.array([math.radians(1.0) if i in angles else 1.0 for i in range(len(names))])
    return _Format(tag, tuple(names), template, angles, radians)


_IMU = _declare("IMU", ("t_s", "ax", "ay", "az", "gx", "gy", "gz"), 6)
_RTS = _declare("RTS", ("t_s", "D_m", "Hz_deg", "V_deg"), 6)
_FUSED = _declare(None, FUSED_CSV_HEADER.split(","), 9)
_TRUTH = _declare(None, TRUTH_CSV_HEADER.split(","), 9)


def _lines(fmt: _Format, *columns) -> Iterator[str]:
    """The lines of ``fmt`` whose fields, in ``fmt.names`` order, are the
    columns of ``columns``: float arrays (or nested sequences) of n rows, each
    ``(n,)`` or ``(n, m)``. Each angle field is converted by ``math.degrees``
    on a Python float. Rows are stacked and formatted :data:`_ROW_BLOCK` at a
    time, so no copy of the whole table and few Python floats exist at once."""
    for start in range(0, len(columns[0]), _ROW_BLOCK):
        block = np.column_stack([column[start : start + _ROW_BLOCK] for column in columns])
        fields = block.T.tolist()
        for k in fmt.angles:
            fields[k] = list(map(math.degrees, fields[k]))
        yield from map(fmt.template.__mod__, zip(*fields))


def _radians(fmt: _Format, rows: np.ndarray) -> np.ndarray:
    """``rows``, the float array of one record of ``fmt`` ``(k,)`` or of n
    ``(n, k)``, with its angle fields in radians: one product by
    ``fmt.radians`` per field gives the bits ``math.radians`` gives, and
    leaves every other field as it is."""
    return rows * fmt.radians


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
    return _imu_sample(t, np.array((ax, ay, az)), np.array((gx, gy, gz)))


def _read_imu(path) -> list[ImuSample]:
    """Every sample of an IMU stream file, as :func:`parse_imu_line` reads each
    line; a sample's accel and gyro are rows of the file's one table."""

    def build(table: np.ndarray) -> list[ImuSample]:
        return list(map(_imu_sample, table[:, 0].tolist(), table[:, 1:4], table[:, 4:7]))

    return _read_records(path, _IMU.tag, len(_IMU.names), build, parse_imu_line)


def write_imu_line(sample: ImuSample) -> str:
    return next(_lines(_IMU, [(sample.timestamp, *sample.accel.tolist(), *sample.gyro.tolist())]))


def parse_rts_line(line: str, line_number: int | None = None) -> RtsObservation:
    """Parse one observation line; wire angles are degrees, output radians."""
    values = np.array(_numbers(line, _RTS.tag, _RTS.names, "RTS line", line_number))
    try:
        return RtsObservation(*_radians(_RTS, values).tolist())
    except ValueError as exc:
        _fail(str(exc), line_number)


def _read_rts(path) -> list[RtsObservation]:
    """Every observation of an RTS stream file, as :func:`parse_rts_line` reads
    each line."""

    def build(table: np.ndarray) -> list[RtsObservation]:
        return _observations(*_radians(_RTS, table).T)

    return _read_records(path, _RTS.tag, len(_RTS.names), build, parse_rts_line)


def write_rts_line(obs: RtsObservation) -> str:
    row = (obs.timestamp, obs.slant_distance, obs.horizontal_angle, obs.zenith_angle)
    return next(_lines(_RTS, [row]))


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


def _read_records(path, tag: str | None, k: int, build, parse, header=None, what=""):
    """The records of a numeric record file: ``build`` of the ``(n, k)`` float
    table of its non-blank lines, each after ``tag`` (None for a CSV row), read
    in one C pass. A CSV table passes its ``header``, which must be line 1,
    and its name. When the pass doubts a line, or ``build`` raises ValueError,
    each line goes through ``parse(line, line_number)`` instead, which reads
    what the pass could not (``1_0``, non-ASCII digits, blanks around the tag)
    or raises the FormatError naming the first faulty line."""
    lines = _read_text(path).split("\n")
    start = 1
    if header is not None:
        if lines == [""]:
            raise FormatError(f"{path}: empty file, expected {what} header")
        if lines[0].strip() != header:
            raise FormatError(f"{path}: header mismatch: expected {header!r}, got {lines[0]!r}")
        del lines[0]
        start = 2
    table = _bulk([line for line in lines if line.strip()], tag, k)
    if table is not None:
        try:
            return build(table)
        except ValueError:
            pass
    return [parse(line, i) for i, line in enumerate(lines, start) if line.strip()]


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

    rows = _read_records(path, None, len(names), lambda table: table, parse, header, what)
    return np.asarray(rows, dtype=float).reshape(len(rows), len(names))


def _fused_record(values: Sequence[float]) -> FusedRecord:
    """The record of one fused CSV row, its angles already in radians."""
    return FusedRecord(
        timestamp=values[0],
        prism_nav=values[1:4],
        poi_nav=values[4:7],
        attitude_used=Attitude(*values[7:10]),
        alpha_used=values[10],
        imu_timestamp_used=values[11],
    )


def read_csv_record(line: str, line_number: int | None = None) -> FusedRecord:
    values = np.array(_numbers(line, None, _FUSED.names, "fused CSV record", line_number))
    return _fused_record(_radians(_FUSED, values).tolist())


def write_fused_csv(records: Iterable[FusedRecord], path) -> None:
    _write_lines(path, chain([FUSED_CSV_HEADER], map(write_csv_record, records)))


def read_fused_csv(path) -> list[FusedRecord]:
    table = _read_table(path, FUSED_CSV_HEADER, "fused CSV")
    return list(map(_fused_record, _radians(_FUSED, table).tolist()))


def write_truth_csv(table, path) -> None:
    """Write a ground-truth table, ``(n, 10)`` floats in
    :data:`TRUTH_CSV_HEADER` order with angles in radians, as a truth CSV.
    Any other shape raises ValueError before the file is opened."""
    table = np.asarray(table, dtype=float)
    if table.ndim != 2 or table.shape[1] != len(_TRUTH.names):
        raise ValueError(f"truth table must have shape (n, {len(_TRUTH.names)}), got {table.shape}")
    _write_lines(path, chain([TRUTH_CSV_HEADER], _lines(_TRUTH, table)))


def read_truth_csv(path) -> np.ndarray:
    """The ground-truth table of a truth CSV, as :func:`write_truth_csv` takes it."""
    return _radians(_TRUTH, _read_table(path, TRUTH_CSV_HEADER, "truth CSV"))


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


def _counts(records: Sequence[FusedRecord]) -> np.ndarray:
    """The ``(n, 6)`` little-endian int32 counts of 0.1 mm of ``records``'
    coordinates in :data:`_CAN_FIELDS` order, rounded half to even as
    ``round`` does. A NaN or infinite coordinate, or one whose count exceeds
    int32, raises FormatError naming the first, record by record, then field
    by field."""
    coords = np.array([(*r.prism_nav.tolist(), *r.poi_nav.tolist()) for r in records])
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
    (counts,) = _counts([record])
    return [CanFrame(base_id + k, counts[2 * k : 2 * k + 2].tobytes()) for k in range(_CAN_FRAMES)]


def _can_dump_lines(records: Sequence[FusedRecord], base_id: int) -> Iterator[str]:
    """The dump lines of every record's coordinate frames, as
    :func:`format_can_dump_line` writes those of :func:`encode_can_frames`,
    encoded :data:`_CAN_BLOCK` records at a time so the arrays stay small."""
    _check_base_id(base_id)
    ids = [f"{base_id + k:08X}#" for k in range(_CAN_FRAMES)]
    for start in range(0, len(records), _CAN_BLOCK):
        block = records[start : start + _CAN_BLOCK]
        payloads = _counts(block).tobytes().hex().upper()
        # A frame's payload is two counts: 8 bytes, 16 hex digits.
        for i in range(0, len(payloads), 16):
            yield ids[i // 16 % _CAN_FRAMES] + payloads[i : i + 16]


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
    table = _read_table(path, PAIRS_CSV_HEADER, "point pairs CSV")
    return [(row[0:3], row[3:6]) for row in table]
