"""Command-line front end: scenario generation, stream fusion, transform
calibration, and accuracy evaluation as composable file-based runs.

Exit codes: 0 success, 1 usage error, 2 data error (unreadable, malformed,
or inconsistent inputs). All randomness comes from the scenario config's
``seed`` key, so every run is reproducible from its input files.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from pathlib import Path
from typing import Callable

import numpy as np

from .attitude import FilterConfig
from .codec import (
    FormatError,
    _check_base_id,
    _open_utf8,
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
from .evaluate import STATS_CSV_HEADER, compute_stats, render_report, stats_csv_row
from .geodesy import HelmertParams, apply_helmert, fit_helmert
from .kinematics import LeverArms
from .pipeline import Pipeline, PipelineConfig
from .sim import NoiseSpec, ScenarioConfig, generate_scenario

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
    raw: dict[str, str] = {}
    for i, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {i}: expected 'key = value', got {stripped!r}")
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if key in raw:
            raise ConfigError(f"line {i}: duplicate key {key!r}")
        raw[key] = value

    given: dict[type, dict] = {ScenarioConfig: {}, NoiseSpec: {}, LeverArms: {}}
    for key, value in raw.items():
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        owner, parse = _CONFIG_KEYS[key]
        try:
            given[owner][key] = parse(value)
        except ValueError as exc:
            raise ConfigError(f"config key {key!r}: {exc}") from exc
    try:
        return ScenarioConfig(
            noise=NoiseSpec(**given[NoiseSpec]),
            lever_arms=LeverArms(**given[LeverArms]),
            **given[ScenarioConfig],
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _read_stream(path: Path, parse_line):
    with _open_utf8(path) as f:
        return [parse_line(line, line_number=i) for i, line in enumerate(f, 1) if line.strip()]


def _data_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def cmd_simulate(args) -> int:
    try:
        with _open_utf8(args.config) as f:
            cfg = parse_scenario_config(f.read())
        imu, rts, truth = generate_scenario(cfg)
    except OSError as exc:
        return _data_error(f"cannot read config: {exc}")
    except ValueError as exc:
        return _data_error(str(exc))

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "imu.txt", "w", newline="", encoding="utf-8") as f:
        for sample in imu:
            f.write(write_imu_line(sample) + "\n")
    with open(out_dir / "rts.txt", "w", newline="", encoding="utf-8") as f:
        for obs in rts:
            f.write(write_rts_line(obs) + "\n")
    write_truth_csv(truth, out_dir / "truth.csv")
    print(
        f"wrote {len(imu)} IMU samples, {len(rts)} observations, "
        f"{len(truth)} truth rows to {out_dir}"
    )
    return 0


def cmd_fuse(args) -> int:
    if args.can_out:
        try:
            _check_base_id(args.can_base_id)
        except ValueError as exc:
            return _data_error(str(exc))
    try:
        imu = _read_stream(Path(args.imu), parse_imu_line)
        rts = _read_stream(Path(args.rts), parse_rts_line)
    except OSError as exc:
        return _data_error(f"cannot read input: {exc}")
    except FormatError as exc:
        return _data_error(str(exc))
    if not imu:
        return _data_error(f"{args.imu}: no IMU samples")

    try:
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
    except (OSError, ValueError) as exc:
        return _data_error(str(exc))

    pipeline = Pipeline(config)
    pipeline.set_yaw(math.radians(args.initial_yaw_deg))
    try:
        records = pipeline.replay(imu, rts)
    except ValueError as exc:
        return _data_error(str(exc))

    write_fused_csv(records, args.out)
    if args.can_out:
        try:
            with open(args.can_out, "w", newline="", encoding="utf-8") as f:
                for record in records:
                    for frame in encode_can_frames(record, args.can_base_id):
                        f.write(format_can_dump_line(frame) + "\n")
        except FormatError as exc:
            return _data_error(f"{args.can_out}: {exc}")
    leftover = pipeline.rts_buffered
    note = f", {leftover} observations left unpaired" if leftover else ""
    print(f"wrote {len(records)} fused records to {args.out}{note}")
    return 0


def cmd_helmert_fit(args) -> int:
    try:
        pairs = read_pairs_csv(args.pairs)
        params = fit_helmert(pairs)
    except OSError as exc:
        return _data_error(f"cannot read pairs: {exc}")
    except ValueError as exc:
        return _data_error(str(exc))
    write_helmert_file(params, args.out)
    residuals = [
        float(np.linalg.norm(target - apply_helmert(params, source)))
        for source, target in pairs
    ]
    rms = math.sqrt(sum(r * r for r in residuals) / len(residuals))
    print(f"fit over {len(pairs)} pairs: rms residual {rms:.9f} m, wrote {args.out}")
    return 0


def cmd_eval(args) -> int:
    try:
        records = read_fused_csv(args.fused)
    except (OSError, FormatError) as exc:
        return _data_error(str(exc))
    if not records:
        return _data_error(f"{args.fused}: no fused records")

    if args.truth:
        try:
            truth = read_truth_csv(args.truth)
        except (OSError, FormatError) as exc:
            return _data_error(str(exc))
        poi_by_time = {s.timestamp: s.poi_nav for s in truth}
        estimates = []
        references = []
        skipped = 0
        for record in records:
            ref = poi_by_time.get(record.timestamp)
            if ref is None:
                skipped += 1
                continue
            estimates.append(record.poi_nav)
            references.append(ref)
        if not estimates:
            return _data_error(
                f"no fused timestamps found in {args.truth}; streams do not overlap"
            )
        if skipped:
            print(
                f"warning: {skipped} fused records without matching truth timestamp",
                file=sys.stderr,
            )
        spread = np.ptp(np.array(references), axis=0)
        if np.any(spread > 1e-9):
            return _data_error(
                "truth POI varies over the joined rows; evaluation needs a fixed "
                "reference point"
            )
        reference = references[0]
    else:
        try:
            reference = _parse_triple(args.ref)
        except ValueError as exc:
            return _data_error(str(exc))
        estimates = [record.poi_nav for record in records]

    stats = compute_stats(estimates, reference)
    print(render_report([(args.label, stats)]))
    with open(args.out, "w", newline="", encoding="utf-8") as f:
        f.write(STATS_CSV_HEADER + "\n")
        f.write(stats_csv_row(args.label, stats) + "\n")
    return 0


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
    p_eval.add_argument("--label", default="run", help="series label for the report")
    p_eval.set_defaults(func=cmd_eval)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
