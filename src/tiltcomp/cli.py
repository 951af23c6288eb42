"""Command-line front end: scenario generation, stream fusion, transform
calibration, and accuracy evaluation as composable file-based runs.

Exit codes: 0 success, 1 usage error, 2 data error (an input that cannot be
read or is malformed or inconsistent, or an output that cannot be written).
Files are read and written by :mod:`tiltcomp.codec`. All randomness comes from
the scenario config's ``seed`` key, so every run is reproducible from its inputs.

Both commands' configs are built by one rule from a flat field-name map:
``simulate``'s keys and each ``fuse`` config option's ``dest`` are field names,
and a key or option left out is absent, so its field keeps its default.
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
    _write_text,
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
from ._fields import _rule
from .attitude import FilterConfig
from .evaluate import STATS_CSV_HEADER, _check_label, compute_stats, render_report, stats_csv_row
from .geodesy import apply_helmert, fit_helmert
from .kinematics import LeverArms
from .pipeline import Pipeline, PipelineConfig
# generate_scenario is unused here too; bench/run.py traces the simulator by it.
from .sim import ScenarioConfig, _scenario, generate_scenario  # noqa: F401

__all__ = ["main", "parse_scenario_config", "ConfigError"]


class ConfigError(ValueError):
    """Invalid scenario config; the message names the offending key."""


def _parse_triple(text: str) -> np.ndarray:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 3:
        raise ValueError(f"expected three comma-separated numbers, got {text!r}")
    return np.array([float(p) for p in parts])


# The text parser of a config field, picked by the type of its default.
_PARSERS: dict[type, Callable[[str], object]] = {float: float, int: int, np.ndarray: _parse_triple}


# A field whose default_factory is a config class holds a config (such as
# ScenarioConfig.noise or PipelineConfig.filter_config); both walks descend into it.
def _config_keys(cls) -> dict[str, Callable[[str], object]]:
    """Field name -> text parser of each number, integer and ``x,y,z`` field
    of config class ``cls`` and of the config classes it holds, depth first."""
    keys = {}
    for f in dataclasses.fields(cls):
        if dataclasses.is_dataclass(f.default_factory):
            keys.update(_config_keys(f.default_factory))
            continue
        default = f.default if f.default_factory is dataclasses.MISSING else f.default_factory()
        if type(default) in _PARSERS:
            keys[f.name] = _PARSERS[type(default)]
    return keys


def _build(cls, values: dict):
    """Config class ``cls`` with each field named in the flat map ``values``
    set to that value; a config class it holds and ``values`` does not name is
    built the same way; other fields keep their defaults, other names are ignored."""
    given = {}
    for f in dataclasses.fields(cls):
        if f.name in values:
            given[f.name] = values[f.name]
        elif dataclasses.is_dataclass(f.default_factory):
            given[f.name] = _build(f.default_factory, values)
    return cls(**given)


_CONFIG_KEYS = _config_keys(ScenarioConfig)


def parse_scenario_config(text: str) -> ScenarioConfig:
    """Build a scenario from ``key = value`` lines (# comments allowed).

    Keys are the number, integer and ``x,y,z`` fields of :class:`ScenarioConfig`
    and of the :class:`NoiseSpec` and :class:`LeverArms` it holds; unknown keys
    are rejected. Omitted keys keep their defaults.
    """
    try:
        settings = _key_values(text, _CONFIG_KEYS, "config")
    except FormatError as exc:
        raise ConfigError(str(exc)) from exc
    values = {}
    for key, (line_number, value) in settings.items():
        try:
            values[key] = _CONFIG_KEYS[key](value)
        except ValueError as exc:
            raise ConfigError(f"line {line_number}: config key {key!r}: {exc}") from exc
    try:
        return _build(ScenarioConfig, values)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _count(count: int, noun: str) -> str:
    """``count`` and ``noun``, plural unless the count is 1."""
    return f"{count} {noun}{'s' * (count != 1)}"


def _data_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def cmd_simulate(args) -> int:
    imu, rts, truth = _scenario(parse_scenario_config(_read_text(args.config)))
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_text(out_dir / "imu.txt", _lines(_IMU, *imu))
    _write_text(out_dir / "rts.txt", _lines(_RTS, *rts))
    write_truth_csv(truth, out_dir / "truth.csv")
    print(
        f"wrote {len(imu[0])} IMU samples, {len(rts[0])} observations, "
        f"{len(truth)} truth rows to {out_dir}"
    )
    return 0


def cmd_fuse(args) -> int:
    if not math.isfinite(args.initial_yaw_deg):
        return _data_error(f"--initial-yaw-deg must be finite, got {args.initial_yaw_deg}")
    if args.can_out:
        _check_base_id(args.can_base_id)
    imu = _read_imu(args.imu)
    rts = _read_rts(args.rts)
    if not imu:
        return _data_error(f"{args.imu}: no IMU samples")

    values = dict(vars(args))
    if path := values.pop("helmert_file", None):
        values["helmert"] = read_helmert_file(path)
    # The lever arms arrive as x,y,z text, parsed here: a malformed one is a data error.
    for key, parse in _config_keys(LeverArms).items():
        if key in values:
            values[key] = parse(values[key])
    pipeline = Pipeline(_build(PipelineConfig, values))
    pipeline.set_yaw(math.radians(args.initial_yaw_deg))
    records = pipeline.replay(imu, rts)
    del imu, rts  # freed before the table is built: only the records are written
    table = _fused_table(records)
    # Both outputs are made and checked whole before either file is opened.
    csv = chain([FUSED_CSV_HEADER + "\n"], _lines(_FUSED, table))
    try:
        can = args.can_out and _can_dump_lines(table[:, 1:7], args.can_base_id)
    except FormatError as exc:
        return _data_error(f"{args.can_out}: {exc}")
    _write_text(args.out, csv)
    if can:
        _write_text(args.can_out, can)
    # Replay drains after each observation, so every drop is from the calibration window.
    note = ""
    for count, fate in (
        (pipeline.rts_dropped, "dropped from the calibration window"),
        (pipeline.rts_buffered, "left unpaired (calibration never completed)"),
    ):
        if count:
            note += f", {_count(count, 'observation')} {fate}"
    print(f"wrote {_count(len(records), 'fused record')} to {args.out}{note}")
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
        # Fused row k joins the last truth row j of its time, in stable time order.
        order = np.argsort(truth[:, 0], kind="stable")
        last = np.searchsorted(truth[order, 0], fused[:, 0], side="right") - 1
        k = np.flatnonzero(last >= 0)
        k = k[truth[order[last[k]], 0] == fused[k, 0]]
        j = order[last[k]]
        if not len(k):
            return _data_error(
                f"no fused timestamps found in {args.truth}; streams do not overlap"
            )
        if skipped := len(fused) - len(k):
            print(
                f"warning: {_count(skipped, 'fused record')} without matching truth timestamp",
                file=sys.stderr,
            )
        estimates = fused[k, 4:7]
        references = truth[j, 7:10]
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


def _can_id(text: str) -> int:
    try:
        return int(text, 0)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a decimal or 0x-prefixed hex integer, got {text!r}"
        ) from None


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
            "the keys are the number, integer and x,y,z fields of ScenarioConfig "
            "and of the NoiseSpec and LeverArms it holds: " + ", ".join(_CONFIG_KEYS) + "."
        ),
    )
    p_sim.add_argument("--config", required=True, help="scenario config file")
    p_sim.add_argument("--out-dir", required=True, help="directory for the output files")
    p_sim.set_defaults(func=cmd_simulate)

    p_fuse = sub.add_parser(
        "fuse",
        argument_default=argparse.SUPPRESS,
        help="replay IMU and RTS streams into a fused CSV (and optional CAN dump)",
        description=(
            "Offline replay: streams are merged by timestamp (IMU first on "
            "ties) and each observation is paired with the newest attitude at "
            "or before it, plus --pairing-tolerance. Each filter, lever-arm and pairing "
            "option sets the PipelineConfig field its metavar names; left out, that field "
            "keeps its default."
        ),
    )
    p_fuse.add_argument("--imu", required=True, help="IMU stream file")
    p_fuse.add_argument("--rts", required=True, help="observation stream file")
    p_fuse.add_argument("--out", required=True, help="fused CSV output path")
    p_fuse.add_argument("--can-out", default=None, help="also write a CAN frame hex dump here")
    p_fuse.add_argument(
        "--can-base-id",
        type=_can_id,
        default=0x300,
        help="base identifier for the three coordinate frames (default 0x300)",
    )
    p_fuse.add_argument(
        "--helmert", dest="helmert_file", help="transform file from helmert-fit (default identity)"
    )
    p_fuse.add_argument(
        "--imu-to-prism", dest="imu_to_prism_b", help="body lever arm IMU->prism, meters"
    )
    p_fuse.add_argument("--imu-to-poi", dest="imu_to_poi_b", help="body lever arm IMU->POI, meters")
    # Number fields of PipelineConfig and its FilterConfig: each option's help
    # is what the field holds and its unit, then its declared rule and default.
    fields = {f.name: f for c in (FilterConfig, PipelineConfig) for f in dataclasses.fields(c)}
    for option, name, words in (
        ("--alpha-base", "alpha_base", "steady-state gyro weight, unitless"),
        ("--delta-a-threshold", "delta_a_threshold", "accel-norm error at full gyro weight, m/s^2"),
        ("--gravity", "gravity", "local gravity magnitude, m/s^2"),
        ("--bias-count", "bias_calibration_count", "idle samples averaged for the gyro bias"),
        ("--pairing-tolerance", "pairing_tolerance_s", "pairing slack past an observation, s"),
        ("--rts-latency", "rts_latency_s", "age of observation timestamps on the IMU clock, s"),
    ):
        f = fields[name]
        rule = f"{_rule(*f.metadata['range'][:3])} (default {f.default:g})"
        p_fuse.add_argument(option, dest=name, type=type(f.default), help=f"{words}; {rule}")
    p_fuse.add_argument(
        "--integrate-yaw",
        dest="hold_yaw",
        action="store_false",
        help="let yaw follow the gyro integral instead of holding the initial value",
    )
    p_fuse.add_argument(
        "--initial-yaw-deg", type=float, default=0.0, help="start yaw, degrees; finite (default 0)"
    )
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
