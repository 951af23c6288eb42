"""A tour of every byte format the toolkit reads or writes.

Covers the two stream formats (IMU and tracker lines), the fused and
truth CSVs, the CAN frame packing with its hex dump form, and the
transform file.  Everything round-trips through the public codecs, and
the CAN section unpacks one payload by hand to show the exact bytes.
"""

import math
import struct
import tempfile
from pathlib import Path

import numpy as np

from tiltcomp import (
    Attitude,
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
    polar_to_cartesian,
    read_helmert_file,
    read_truth_csv,
    write_csv_record,
    write_helmert_file,
    write_imu_line,
    write_rts_line,
    write_truth_csv,
)
from tiltcomp.codec import FUSED_CSV_HEADER

# ------------------------------------------------------------ IMU lines
# One sample per line: timestamp, three accel components in m/s^2, three
# gyro rates in rad/s.
sample = ImuSample(
    timestamp=12.34,
    accel=(0.05, -0.12, 9.81),
    gyro=(0.001, -0.002, 0.0005),
)
line = write_imu_line(sample)
print("IMU line:")
print(f"  {line}")
back = parse_imu_line(line)
print(f"  parses back to t={back.timestamp}, accel={back.accel}, gyro={back.gyro}")

# -------------------------------------------------------- tracker lines
# Angles travel in degrees on the wire and live as radians in memory.
# The zenith angle counts down from straight up, so a horizontal sight
# is 90 degrees.
obs = RtsObservation(
    timestamp=12.4,
    slant_distance=25.882,
    horizontal_angle=math.radians(44.0),
    zenith_angle=math.radians(86.5),
)
line = write_rts_line(obs)
print()
print("tracker line (angles in degrees on the wire):")
print(f"  {line}")
back = parse_rts_line(line)
print(f"  horizontal angle in memory: {back.horizontal_angle:.6f} rad")
print(f"  cartesian prism position:   {polar_to_cartesian(back).round(4)} m")

# ----------------------------------------------------------- fused CSV
record = FusedRecord(
    timestamp=12.4,
    prism_nav=np.array([18.5412, 17.9873, 1.6551]),
    poi_nav=np.array([18.5391, 18.0127, 0.5881]),
    attitude_used=Attitude(math.radians(1.2), math.radians(-0.4), 0.0),
    alpha_used=0.9,
    imu_timestamp_used=12.4,
)
print()
print("fused CSV:")
print(f"  {FUSED_CSV_HEADER}")
print(f"  {write_csv_record(record)}")

# ----------------------------------------------------------- truth CSV
# Simulator ground truth is one float table, a row per IMU sample, its
# columns those of the header: angles in radians in memory, degrees on disk.
truth = np.array([[12.4, math.radians(1.2), math.radians(-0.4), 0.0,
                   18.5412, 17.9873, 1.6551, 18.5391, 18.0127, 0.5881]])
with tempfile.TemporaryDirectory() as td:
    path = Path(td) / "truth.csv"
    write_truth_csv(truth, path)
    print()
    print("truth CSV:")
    for tline in path.read_text().splitlines():
        print(f"  {tline}")
    print(f"  roll read back: {read_truth_csv(path)[0, 1]:.9f} rad")

# ----------------------------------------------------------- CAN frames
# Each fused record becomes three 8-byte frames on consecutive
# identifiers: prism x|y, prism z|POI x, POI y|z.  Coordinates are
# signed 32-bit counts of 0.1 mm, little endian.
frames = encode_can_frames(record, base_id=0x300)
print()
print("CAN dump (three frames per record):")
for frame in frames:
    print(f"  {format_can_dump_line(frame)}")

# The first payload by hand: two int32 counts, little endian.
x_counts, y_counts = struct.unpack("<ii", frames[0].payload)
print(f"  frame 0 payload {frames[0].payload.hex().upper()} unpacks to "
      f"({x_counts}, {y_counts}) counts of 0.1 mm")
print(f"  -> ({x_counts * 1e-4:.4f}, {y_counts * 1e-4:.4f}) m")

prism, poi = decode_can_frames(frames)
print(f"  decoded prism {prism} m, POI {poi} m "
      f"(quantization bounds the round-trip error at 5e-5 m per axis)")

# The dump lines themselves parse back to identical frames.
reparsed = parse_can_dump_line(format_can_dump_line(frames[1]))
print(f"  dump line round-trips: id 0x{reparsed.can_id:X}, "
      f"payload matches: {reparsed.payload == frames[1].payload}")

# -------------------------------------------------------- transform file
# Thirteen numbers printed with repr-exact precision, so reading the
# file back reproduces the parameters bit for bit.
params = HelmertParams(
    scale=1.0 + 3.5e-5,
    rotation=np.eye(3),
    translation=np.array([105.2, -48.7, 9.3]),
)
with tempfile.TemporaryDirectory() as td:
    path = Path(td) / "site.helmert"
    write_helmert_file(params, path)
    print()
    print(f"transform file ({path.name}):")
    for fline in path.read_text().splitlines():
        print(f"  {fline}")
    again = read_helmert_file(path)
    print(f"  exact round trip: scale {again.scale == params.scale}, "
          f"translation {np.array_equal(again.translation, params.translation)}")

# ------------------------------------------------------- error reporting
# Every parser raises the same exception type with the offending line
# number, so a bad byte in a long capture is easy to locate.
print()
try:
    parse_imu_line("IMU,12.34,0.05,-0.12,not-a-number,0.001,-0.002,0.0005", line_number=17)
except FormatError as exc:
    print(f"FormatError: {exc}")
