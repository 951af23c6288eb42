"""Command-line front end: scenario generation, stream fusion, transform
calibration, and accuracy evaluation as composable file-based runs.

Exit codes: 0 success, 1 usage error, 2 data error (an input that cannot be
read or is malformed or inconsistent, or an output that cannot be written).
Files are read and written by :mod:`tiltcomp.codec`. All randomness comes from
the scenario config's ``seed`` key, so every run is reproducible from its inputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from itertools import chain
from pathlib import Path
from typing import Callable

import numpy as np

from .attitude import FilterConfig
# encode_can_frames, format_can_dump_line, parse_imu_line, parse_rts_line,
# write_fused_csv, write_imu_line and write_rts_line are unused here (fuse and
# simulate read and write whole tables) but bench/run.py traces them by name.
from .codec import (  # noqa: F401
    _FUSED,
    _IMU,
    _RTS,
    FUSED_CSV_HEADER,
    FormatError,
    _can_dump_lines,
    _check_base_id,
    _fused_table,
    _key_values,
    _lines,
    _read_imu,
    _read_rts,
    _read_text,
    _write_lines,
    encode_can_frames,
    format_can_dump_line,
    parse_imu_line,
    parse_rts_line,
    read_fused_csv,
    read_helmert_file,
    read_pairs_csv,
    read_truth_csv,
    write_fused_csv,
    write_helmert_file,
    write_imu_line,
    write_rts_line,
    write_truth_csv,
)
from .evaluate import STATS_CSV_HEADER, _check_label, compute_stats, render_report, stats_csv_row
from .geodesy import HelmertParams, apply_helmert, fit_helmert
from .kinematics import LeverArms
from .pipeline import Pipeline, PipelineConfig
# generate_scenario is unused here too; bench/run.py traces the simulator by it.
from .sim import NoiseSpec, ScenarioConfig, _scenario, generate_scenario  # noqa: F401

__all__ = ["main", "parse_scenario_config", "ConfigError"]


class ConfigError(ValueError):
    """Invalid scenario config; the message names the offending key."""


def _parse_triple(text: str) -> np.ndarray:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 3:
        raise ValueError(f"expected three comma-separated numbers, got {text!r}")
    return np.array([float(p) for p in parts])


def _format_triple(vector) -> str:
    return ",".join(str(float(v)) for v in vector)


def _config_keys() -> dict[str, tuple[type, Callable[[str], object]]]:
    """Config key -> (owning dataclass, value parser) for each config field whose
    default is a float, an int or an array. The type of the default picks the
    parser; object-valued fields (``noise``, ``lever_arms``) are not keys."""
    parsers = {float: float, int: int, np.ndarray: _parse_triple}
    keys = {}
    for owner in (ScenarioConfig, NoiseSpec, LeverArms):
        for f in dataclasses.fields(owner):
            default = f.default if f.default_factory is dataclasses.MISSING else f.default_factory()
            if type(default) in parsers:
                keys[f.name] = (owner, parsers[type(default)])
    return keys


_CONFIG_KEYS = _config_keys()


def parse_scenario_config(text: str) -> ScenarioConfig:
    """Build a scenario from ``key = value`` lines (# comments allowed).

    Keys are the number, integer and ``x,y,z`` fields of
    :class:`ScenarioConfig`, :class:`NoiseSpec` and :class:`LeverArms`;
    unknown keys are rejected. Omitted keys keep their defaults.
    """
    try:
        settings = _key_values(text, _CONFIG_KEYS, "config")
    except FormatError as exc:
        raise ConfigError(str(exc)) from exc
    given: dict[type, dict] = {ScenarioConfig: {}, NoiseSpec: {}, LeverArms: {}}
    for key, (line_number, value) in settings.items():
        owner, parse = _CONFIG_KEYS[key]
        try:
            given[owner][key] = parse(value)
        except ValueError as exc:
            raise ConfigError(f"line {line_number}: config key {key!r}: {exc}") from exc
    try:
        return ScenarioConfig(
            noise=NoiseSpec(**given[NoiseSpec]),
            lever_arms=LeverArms(**given[LeverArms]),
            **given[ScenarioConfig],
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _data_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def cmd_simulate(args) -> int:
    imu, rts, truth = _scenario(parse_scenario_config(_read_text(args.config)))
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_lines(out_dir / "imu.txt", _lines(_IMU, *imu))
    _write_lines(out_dir / "rts.txt", _lines(_RTS, *rts))
    write_truth_csv(truth, out_dir / "truth.csv")
    print(
        f"wrote {len(imu[0])} IMU samples, {len(rts[0])} observations, "
        f"{len(truth)} truth rows to {out_dir}"
    )
    return 0


def cmd_fuse(args) -> int:
    if args.can_out:
        _check_base_id(args.can_base_id)
    imu = _read_imu(args.imu)
    rts = _read_rts(args.rts)
    if not imu:
        return _data_error(f"{args.imu}: no IMU samples")

    helmert = read_helmert_file(args.helmert) if args.helmert else HelmertParams()
    config = PipelineConfig(
        filter_config=FilterConfig(
            alpha_base=args.alpha_base,
            delta_a_threshold=args.delta_a_threshold,
            gravity=args.gravity,
            bias_calibration_count=args.bias_count,
        ),
        lever_arms=LeverArms(
            imu_to_prism_b=_parse_triple(args.imu_to_prism),
            imu_to_poi_b=_parse_triple(args.imu_to_poi),
        ),
        helmert=helmert,
        pairing_tolerance_s=args.pairing_tolerance,
        rts_latency_s=args.rts_latency,
        hold_yaw=not args.integrate_yaw,
    )
    pipeline = Pipeline(config)
    pipeline.set_yaw(math.radians(args.initial_yaw_deg))
    records = pipeline.replay(imu, rts)
    del imu, rts  # freed before the table is built: only the records are written
    table = _fused_table(records)
    # Both outputs are made and checked whole before either file is opened.
    csv = chain([FUSED_CSV_HEADER], _lines(_FUSED, table))
    try:
        can = args.can_out and _can_dump_lines(table[:, 1:7], args.can_base_id)
    except FormatError as exc:
        return _data_error(f"{args.can_out}: {exc}")
    _write_lines(args.out, csv)
    if can:
        _write_lines(args.can_out, can)
    leftover = pipeline.rts_buffered
    note = f", {leftover} observations left unpaired" if leftover else ""
    print(f"wrote {len(records)} fused records to {args.out}{note}")
    return 0


def cmd_helmert_fit(args) -> int:
    pairs = read_pairs_csv(args.pairs)
    params = fit_helmert(pairs)
    write_helmert_file(params, args.out)
    residuals = [
        float(np.linalg.norm(target - apply_helmert(params, source)))
        for source, target in pairs
    ]
    rms = math.sqrt(sum(r * r for r in residuals) / len(residuals))
    print(f"fit over {len(pairs)} pairs: rms residual {rms:.9f} m, wrote {args.out}")
    return 0


def cmd_eval(args) -> int:
    # Columns of the fused and truth tables: t_s first, the POI at 4:7 and 7:10.
    fused = read_fused_csv(args.fused)
    if not len(fused):
        return _data_error(f"{args.fused}: no fused records")

    if args.truth:
        truth = read_truth_csv(args.truth)
        # A repeated truth timestamp keeps its last row.
        row_at = {t: i for i, t in enumerate(truth[:, 0].tolist())}
        joined = [(k, row_at[t]) for k, t in enumerate(fused[:, 0].tolist()) if t in row_at]
        if not joined:
            return _data_error(
                f"no fused timestamps found in {args.truth}; streams do not overlap"
            )
        if skipped := len(fused) - len(joined):
            print(
                f"warning: {skipped} fused records without matching truth timestamp",
                file=sys.stderr,
            )
        rows = np.array(joined)
        estimates = fused[rows[:, 0], 4:7]
        references = truth[rows[:, 1], 7:10]
        if np.any(np.ptp(references, axis=0) > 1e-9):
            return _data_error(
                "truth POI varies over the joined rows; evaluation needs a fixed "
                "reference point"
            )
        reference = references[0]
    else:
        reference = _parse_triple(args.ref)
        estimates = fused[:, 4:7]

    stats = compute_stats(estimates, reference)
    print(render_report([(args.label, stats)]))
    _write_lines(args.out, [STATS_CSV_HEADER, stats_csv_row(args.label, stats)])
    return 0


def _label(text: str) -> str:
    try:
        return _check_label(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


class _ArgumentParser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(
        prog="tiltcomp",
        description=(
            "Tilt-compensated point-of-interest positioning: simulate pole "
            "scenarios, fuse IMU and total-station streams, calibrate frame "
            "transforms, and evaluate accuracy."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_ArgumentParser)

    p_sim = sub.add_parser(
        "simulate",
        help="generate imu.txt, rts.txt, and truth.csv from a scenario config",
        description=(
            "Generate a pole-pivot scenario. The config is 'key = value' text; "
            "the keys are the number, integer and x,y,z fields of ScenarioConfig, "
            "NoiseSpec and LeverArms: " + ", ".join(_CONFIG_KEYS) + "."
        ),
    )
    p_sim.add_argument("--config", required=True, help="scenario config file")
    p_sim.add_argument("--out-dir", required=True, help="directory for the output files")
    p_sim.set_defaults(func=cmd_simulate)

    p_fuse = sub.add_parser(
        "fuse",
        help="replay IMU and RTS streams into a fused CSV (and optional CAN dump)",
        description=(
            "Offline replay: streams are merged by timestamp (IMU first on "
            "ties) and each observation is paired with the newest attitude at "
            "or before it, plus --pairing-tolerance."
        ),
    )
    p_fuse.add_argument("--imu", required=True, help="IMU stream file")
    p_fuse.add_argument("--rts", required=True, help="observation stream file")
    p_fuse.add_argument("--out", required=True, help="fused CSV output path")
    p_fuse.add_argument("--can-out", help="also write a CAN frame hex dump here")
    p_fuse.add_argument(
        "--can-base-id",
        type=lambda s: int(s, 0),
        default=0x300,
        help="base identifier for the three coordinate frames (default 0x300)",
    )
    p_fuse.add_argument("--helmert", help="transform file from helmert-fit (default identity)")
    arms = LeverArms()
    p_fuse.add_argument(
        "--imu-to-prism",
        default=_format_triple(arms.imu_to_prism_b),
        help="body lever arm IMU->prism, meters",
    )
    p_fuse.add_argument(
        "--imu-to-poi",
        default=_format_triple(arms.imu_to_poi_b),
        help="body lever arm IMU->POI, meters",
    )
    p_fuse.add_argument("--alpha-base", type=float, default=FilterConfig.alpha_base)
    p_fuse.add_argument("--delta-a-threshold", type=float, default=FilterConfig.delta_a_threshold)
    p_fuse.add_argument("--gravity", type=float, default=FilterConfig.gravity)
    p_fuse.add_argument("--bias-count", type=int, default=FilterConfig.bias_calibration_count)
    p_fuse.add_argument(
        "--pairing-tolerance", type=float, default=PipelineConfig.pairing_tolerance_s
    )
    p_fuse.add_argument("--rts-latency", type=float, default=PipelineConfig.rts_latency_s)
    p_fuse.add_argument(
        "--integrate-yaw",
        action="store_true",
        help="let yaw follow the gyro integral instead of holding the initial value",
    )
    p_fuse.add_argument("--initial-yaw-deg", type=float, default=0.0)
    p_fuse.set_defaults(func=cmd_fuse)

    p_fit = sub.add_parser(
        "helmert-fit",
        help="fit a similarity transform from a sx,sy,sz,tx,ty,tz pairs CSV",
    )
    p_fit.add_argument("--pairs", required=True, help="point pairs CSV")
    p_fit.add_argument("--out", required=True, help="transform file to write")
    p_fit.set_defaults(func=cmd_helmert_fit)

    p_eval = sub.add_parser(
        "eval",
        help="error statistics of fused POI positions against ground truth",
    )
    p_eval.add_argument("--fused", required=True, help="fused CSV from fuse")
    ref_group = p_eval.add_mutually_exclusive_group(required=True)
    ref_group.add_argument("--truth", help="truth CSV from simulate (joined by timestamp)")
    ref_group.add_argument("--ref", help="fixed reference point 'x,y,z' in meters")
    p_eval.add_argument("--out", required=True, help="stats CSV output path")
    p_eval.add_argument(
        "--label", type=_label, default="run", help="series label (no comma or line break)"
    )
    p_eval.set_defaults(func=cmd_eval)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    # Inputs are rejected with ValueError (FormatError, ConfigError, the config
    # checks) and unreadable or unwritable paths with OSError: all exit 2.
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        return _data_error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
