"""Parsers and writers for every external data format.

Text stream lines (formats specific to this toolkit):

* IMU:    ``IMU,<t_s>,<ax>,<ay>,<az>,<gx>,<gy>,<gz>`` (m/s^2, rad/s)
* RTS:    ``RTS,<t_s>,<D_m>,<Hz_deg>,<V_deg>`` (degrees on the wire)
* fused:  CSV with header :data:`FUSED_CSV_HEADER`, nine-decimal fields
* truth:  CSV with header :data:`TRUTH_CSV_HEADER`

CAN payloads carry prism and POI coordinates as little-endian signed 32-bit
counts of 0.1 mm across three frames (base id, +1, +2), plus an optional
attitude frame (+3) with 0.01-degree signed 16-bit angles and a sequence
counter. Hex dumps use ``<id hex>#<payload hex>`` lines.

Angles are radians inside the toolkit; codecs convert at the boundary.
Parsing failures raise :class:`FormatError` carrying line-number context;
parsers never raise anything else on malformed text. Decimal points only,
independent of locale.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Iterable, Sequence

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


def parse_imu_line(line: str, line_number: int | None = None) -> ImuSample:
    """Parse one IMU stream line; whitespace around commas is tolerated."""
    # Fast path for a well-formed line; anything unexpected goes on to the
    # field-by-field parser, which gives the same sample or names the fault.
    tag, *tokens = line.split(",")
    if tag == "IMU" and len(tokens) == 7:
        try:
            t, ax, ay, az, gx, gy, gz = map(float, tokens)
        except ValueError:
            pass
        else:
            if math.isfinite(t + ax + ay + az + gx + gy + gz):
                return ImuSample(t, np.array((ax, ay, az)), np.array((gx, gy, gz)))
    fields = _split_fields(line, 8, "IMU line", line_number)
    if fields[0] != "IMU":
        _fail(f"expected tag 'IMU', got {fields[0]!r}", line_number)
    names = ("t_s", "ax", "ay", "az", "gx", "gy", "gz")
    values = [_parse_float(tok, name, line_number) for tok, name in zip(fields[1:], names)]
    return ImuSample(timestamp=values[0], accel=values[1:4], gyro=values[4:7])


def write_imu_line(sample: ImuSample) -> str:
    ax, ay, az = sample.accel
    gx, gy, gz = sample.gyro
    return (
        f"IMU,{sample.timestamp:.6f},{ax:.6f},{ay:.6f},{az:.6f},"
        f"{gx:.6f},{gy:.6f},{gz:.6f}"
    )


def parse_rts_line(line: str, line_number: int | None = None) -> RtsObservation:
    """Parse one observation line; wire angles are degrees, output radians."""
    fields = _split_fields(line, 5, "RTS line", line_number)
    if fields[0] != "RTS":
        _fail(f"expected tag 'RTS', got {fields[0]!r}", line_number)
    t = _parse_float(fields[1], "t_s", line_number)
    distance = _parse_float(fields[2], "D_m", line_number)
    hz_deg = _parse_float(fields[3], "Hz_deg", line_number)
    v_deg = _parse_float(fields[4], "V_deg", line_number)
    try:
        return RtsObservation(
            timestamp=t,
            slant_distance=distance,
            horizontal_angle=math.radians(hz_deg),
            zenith_angle=math.radians(v_deg),
        )
    except ValueError as exc:
        _fail(str(exc), line_number)


def write_rts_line(obs: RtsObservation) -> str:
    return (
        f"RTS,{obs.timestamp:.6f},{obs.slant_distance:.6f},"
        f"{math.degrees(obs.horizontal_angle):.6f},{math.degrees(obs.zenith_angle):.6f}"
    )


def _csv_line(values) -> str:
    return ",".join(f"{v:.9f}" for v in values)


def write_csv_record(record: FusedRecord) -> str:
    """One fused CSV line (without newline), fields in header order."""
    px, py, pz = record.prism_nav
    qx, qy, qz = record.poi_nav
    att = record.attitude_used
    values = (
        record.timestamp,
        px, py, pz, qx, qy, qz,
        math.degrees(att.roll),
        math.degrees(att.pitch),
        math.degrees(att.yaw),
        record.alpha_used,
        record.imu_timestamp_used,
    )
    return _csv_line(values)


def _parse_row(line: str, names: list[str], what: str, line_number: int | None) -> list[float]:
    fields = _split_fields(line, len(names), what, line_number)
    return [_parse_float(tok, name, line_number) for tok, name in zip(fields, names)]


def _read_csv(path, header: str, what: str, build) -> list:
    """``build(values)`` for each non-blank row of a CSV file that starts with
    ``header``; line numbers in error messages count the header as line 1."""
    with open(path, "r", newline="") as f:
        lines = f.read().splitlines()
    if not lines:
        raise FormatError(f"{path}: empty file, expected {what} header")
    if lines[0].strip() != header:
        raise FormatError(f"{path}: header mismatch: expected {header!r}, got {lines[0]!r}")
    names = header.split(",")
    row_what = f"{what} record"
    return [
        build(_parse_row(line, names, row_what, i))
        for i, line in enumerate(lines[1:], start=2)
        if line.strip()
    ]


def _fused_record(values: list[float]) -> FusedRecord:
    return FusedRecord(
        timestamp=values[0],
        prism_nav=values[1:4],
        poi_nav=values[4:7],
        attitude_used=Attitude(
            roll=math.radians(values[7]),
            pitch=math.radians(values[8]),
            yaw=math.radians(values[9]),
        ),
        alpha_used=values[10],
        imu_timestamp_used=values[11],
    )


def read_csv_record(line: str, line_number: int | None = None) -> FusedRecord:
    names = FUSED_CSV_HEADER.split(",")
    return _fused_record(_parse_row(line, names, "fused CSV record", line_number))


def write_fused_csv(records: Iterable[FusedRecord], path) -> None:
    with open(path, "w", newline="") as f:
        f.write(FUSED_CSV_HEADER + "\n")
        for record in records:
            f.write(write_csv_record(record) + "\n")


def read_fused_csv(path) -> list[FusedRecord]:
    return _read_csv(path, FUSED_CSV_HEADER, "fused CSV", _fused_record)


def _truth_sample(values: list[float]) -> GroundTruthSample:
    return GroundTruthSample(
        timestamp=values[0],
        attitude=Attitude(
            roll=math.radians(values[1]),
            pitch=math.radians(values[2]),
            yaw=math.radians(values[3]),
        ),
        prism_nav=values[4:7],
        poi_nav=values[7:10],
    )


def write_truth_csv(samples: Iterable[GroundTruthSample], path) -> None:
    with open(path, "w", newline="") as f:
        f.write(TRUTH_CSV_HEADER + "\n")
        for s in samples:
            px, py, pz = s.prism_nav
            qx, qy, qz = s.poi_nav
            values = (
                s.timestamp,
                math.degrees(s.attitude.roll),
                math.degrees(s.attitude.pitch),
                math.degrees(s.attitude.yaw),
                px, py, pz, qx, qy, qz,
            )
            f.write(_csv_line(values) + "\n")


def read_truth_csv(path) -> list[GroundTruthSample]:
    return _read_csv(path, TRUTH_CSV_HEADER, "truth CSV", _truth_sample)


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
    counts = round(value_m / _COUNT_SCALE)
    if abs(counts) > _COUNT_LIMIT:
        raise FormatError(
            f"{name} = {value_m} m exceeds the encodable range of "
            f"+/-{_COUNT_LIMIT * _COUNT_SCALE} m"
        )
    return counts


def encode_can_frames(record: FusedRecord, base_id: int) -> list[CanFrame]:
    """Pack prism and POI coordinates into three frames at base_id, +1, +2.

    Coordinates are rounded to 0.1 mm counts in signed 32-bit little-endian:
    [prism_x, prism_y], [prism_z, poi_x], [poi_y, poi_z].
    """
    if not 0 <= base_id < _CAN_ID_LIMIT - 2:
        raise ValueError(f"base_id must leave room for three 29-bit ids, got {base_id:#x}")
    px, py, pz = (_to_counts(v, n) for v, n in zip(record.prism_nav, ("prism_x", "prism_y", "prism_z")))
    qx, qy, qz = (_to_counts(v, n) for v, n in zip(record.poi_nav, ("poi_x", "poi_y", "poi_z")))
    return [
        CanFrame(base_id, struct.pack("<ii", px, py)),
        CanFrame(base_id + 1, struct.pack("<ii", pz, qx)),
        CanFrame(base_id + 2, struct.pack("<ii", qy, qz)),
    ]


def decode_can_frames(frames: Sequence[CanFrame]) -> tuple[np.ndarray, np.ndarray]:
    """Invert :func:`encode_can_frames`; returns (prism_nav, poi_nav) meters."""
    if len(frames) != 3:
        raise FormatError(f"coordinate decoding needs exactly 3 frames, got {len(frames)}")
    base = frames[0].can_id
    for offset, frame in enumerate(frames):
        if frame.can_id != base + offset:
            raise FormatError(
                f"frame ids must be consecutive from {base:#x}, got {frame.can_id:#x} "
                f"at position {offset}"
            )
    px, py = struct.unpack("<ii", frames[0].payload)
    pz, qx = struct.unpack("<ii", frames[1].payload)
    qy, qz = struct.unpack("<ii", frames[2].payload)
    prism = np.array([px, py, pz]) * _COUNT_SCALE
    poi = np.array([qx, qy, qz]) * _COUNT_SCALE
    return prism, poi


def encode_attitude_frame(attitude: Attitude, base_id: int, sequence: int = 0) -> CanFrame:
    """Optional fourth frame (base_id + 3): angles in 0.01-degree signed
    16-bit counts, roll/pitch/yaw, then an unsigned 16-bit sequence counter."""
    if not 0 <= base_id < _CAN_ID_LIMIT - 3:
        raise ValueError(f"base_id must leave room for four 29-bit ids, got {base_id:#x}")
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
    r = params.rotation
    t = params.translation
    with open(path, "w", newline="") as f:
        f.write("# 3D similarity transform: nav = scale * rotation @ point + translation\n")
        f.write(f"scale = {params.scale:.17g}\n")
        f.write("rotation = " + " ".join(f"{v:.17g}" for v in r.ravel()) + "\n")
        f.write("translation = " + " ".join(f"{v:.17g}" for v in t) + "\n")


def read_helmert_file(path) -> HelmertParams:
    values: dict[str, list[float]] = {}
    with open(path, "r", newline="") as f:
        for i, raw in enumerate(f, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                _fail(f"expected 'key = values', got {line!r}", i)
            key, _, rest = line.partition("=")
            key = key.strip()
            values[key] = [_parse_float(tok, key, i) for tok in rest.split()]
    for key, count in (("scale", 1), ("rotation", 9), ("translation", 3)):
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


def _point_pair(values: list[float]) -> tuple[np.ndarray, np.ndarray]:
    return np.array(values[0:3]), np.array(values[3:6])


def read_pairs_csv(path) -> list[tuple[np.ndarray, np.ndarray]]:
    """Load (source, target) point pairs for transform fitting."""
    return _read_csv(path, PAIRS_CSV_HEADER, "point pairs CSV", _point_pair)
