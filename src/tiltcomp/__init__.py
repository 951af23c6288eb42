"""Tilt-compensated point-of-interest positioning.

A surveying prism rides a tilting pole; an IMU on the same rigid body
estimates roll and pitch through an adaptive complementary filter; a robotic
total station tracks the prism. Fusing the two streams rotates the fixed
body-frame lever arm into the navigation frame and recovers the pole tip
(the point of interest) regardless of tilt.

Modules: :mod:`~tiltcomp.attitude` (filter), :mod:`~tiltcomp.kinematics`
(rotations and lever arms), :mod:`~tiltcomp.geodesy` (polar conversion and
similarity transform), :mod:`~tiltcomp.pipeline` (stream fusion),
:mod:`~tiltcomp.codec` (wire formats), :mod:`~tiltcomp.sim` (ground-truth
scenario generator), :mod:`~tiltcomp.evaluate` (error statistics),
:mod:`~tiltcomp.cli` (command line).
"""

from .attitude import (
    Attitude,
    FilterConfig,
    FilterState,
    ImuSample,
    accel_angles,
    adaptive_alpha,
    calibrate_bias,
    filter_step,
    set_yaw,
    wrap_angle,
)
from .codec import (
    FUSED_CSV_HEADER,
    TRUTH_CSV_HEADER,
    CanFrame,
    FormatError,
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
from .evaluate import (
    STATS_CSV_HEADER,
    ErrorStats,
    compute_stats,
    render_report,
    stats_csv_row,
)
from .geodesy import (
    HelmertParams,
    RtsObservation,
    apply_helmert,
    fit_helmert,
    polar_to_cartesian,
)
from .kinematics import (
    LeverArms,
    poi_position,
    prism_to_poi_body,
    rotation_b_to_n,
)
from .pipeline import FusedRecord, Pipeline, PipelineConfig
from .sim import (
    GroundTruthSample,
    NoiseSpec,
    ScenarioConfig,
    generate_scenario,
    truth_attitude,
)

__version__ = "0.1.0"

__all__ = [
    "Attitude",
    "FilterConfig",
    "FilterState",
    "ImuSample",
    "accel_angles",
    "adaptive_alpha",
    "calibrate_bias",
    "filter_step",
    "set_yaw",
    "wrap_angle",
    "LeverArms",
    "rotation_b_to_n",
    "prism_to_poi_body",
    "poi_position",
    "RtsObservation",
    "HelmertParams",
    "polar_to_cartesian",
    "apply_helmert",
    "fit_helmert",
    "FusedRecord",
    "PipelineConfig",
    "Pipeline",
    "FormatError",
    "CanFrame",
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
    "encode_can_frames",
    "decode_can_frames",
    "encode_attitude_frame",
    "decode_attitude_frame",
    "format_can_dump_line",
    "parse_can_dump_line",
    "write_helmert_file",
    "read_helmert_file",
    "read_pairs_csv",
    "NoiseSpec",
    "ScenarioConfig",
    "GroundTruthSample",
    "truth_attitude",
    "generate_scenario",
    "ErrorStats",
    "compute_stats",
    "render_report",
    "STATS_CSV_HEADER",
    "stats_csv_row",
    "__version__",
]
