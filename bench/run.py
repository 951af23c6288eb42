#!/usr/bin/env python3
"""tiltcomp benchmark: offline CLI chains and a live library stream.

Run from the repository root:

    python3 bench/run.py --workload survey_5hz --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer ones
from a run that wraps each library layer in spans. The last line of standard
output is one JSON object ``{"correct", "attempted", "failed", "metrics"}``;
the lines before it record the environment and the output fingerprints, and
the full result (with span tree and sample counts) is written to
``bench/results/``. See ``bench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from array import array
from pathlib import Path
from types import SimpleNamespace

from gauge import IMPORT_REFERENCE_S, SpeedGauge, import_reference_s
from spans import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# Offline workloads: scenario config keys on top of the defaults (the paper's
# slow 60 degree tilt at 0.010/0.008 Hz, default noise, 100 Hz IMU, 5 Hz
# tracker), and whether fuse also writes the CAN dump.
OFFLINE = {
    "survey_5hz": ({}, False),
    "dense_100hz": (
        {
            "rts_rate_hz": 100.0,
            "roll_amplitude_deg": 20.0,
            "roll_frequency_hz": 0.3,
            "pitch_amplitude_deg": 20.0,
            "pitch_frequency_hz": 0.24,
        },
        True,
    ),
}
LIVE = "live"
WORKLOADS = (*OFFLINE, LIVE)

# The live stream repeats one default-tilt segment: 10 s idle plus 500 s of
# motion, whole cycles of both the 0.010 Hz roll and the 0.008 Hz pitch, so
# the attitude is continuous where the segment wraps.
LIVE_SEGMENT_S = 510.0
LIVE_RTS_HZ = 20.0
DEFAULT_STREAM_S = {"offline": 300.0, LIVE: 3600.0}
STATE_PROBE_S = 600.0
SETUP_PROBES = 5
STREAM_CHUNK = 1024  # events between gauge samples in a timed stream
LIVE_GENERATE_REPEATS = 7
LIVE_EVAL_REPEATS = 75

END_TO_END = {
    "setup_s": "s",
    "chain_s": "s",
    "simulate_s": "s",
    "eval_s": "s",
    "fuse_imu_per_s": "1/s",
    "rmse3d_mm": "mm",
    "live_imu_call_p50_us": "us",
    "live_imu_call_p99_us": "us",
    "live_obs_call_p50_us": "us",
    "live_obs_call_p99_us": "us",
    "peak_rss_mb": "MB",
}

# Per-layer span totals: metric -> span names summed over one iteration.
SPAN_TOTALS = {
    "sim.generate_scenario_s": ("sim.generate_scenario",),
    "codec.write_imu_line_s": ("codec.write_imu_line",),
    "codec.write_rts_line_s": ("codec.write_rts_line",),
    "codec.write_truth_csv_s": ("codec.write_truth_csv",),
    "codec.parse_imu_line_s": ("codec.parse_imu_line",),
    "codec.parse_rts_line_s": ("codec.parse_rts_line",),
    "codec.write_fused_csv_s": ("codec.write_fused_csv",),
    "codec.can_dump_s": ("codec.encode_can_frames", "codec.format_can_dump_line"),
    "codec.read_fused_csv_s": ("codec.read_fused_csv",),
    "codec.read_truth_csv_s": ("codec.read_truth_csv",),
    "attitude.filter_step_s": ("attitude.filter_step",),
    "attitude.set_yaw_s": ("attitude.set_yaw",),
    "geodesy.polar_to_cartesian_s": ("geodesy.polar_to_cartesian",),
    "geodesy.apply_helmert_s": ("geodesy.apply_helmert",),
    "kinematics.poi_position_s": ("kinematics.poi_position",),
    "evaluate.compute_stats_s": ("evaluate.compute_stats",),
}
SPAN_SELF = {
    "pipeline.push_imu_self_s": "pipeline.push_imu",
    "pipeline.drain_self_s": "pipeline.drain",
    "cli.simulate_self_s": "cli.simulate",
    "cli.fuse_self_s": "cli.fuse",
    "cli.eval_self_s": "cli.eval",
}
PER_LAYER = {
    **{name: "s" for name in SPAN_TOTALS},
    **{name: "s" for name in SPAN_SELF},
    "codec.bytes_read": "B",
    "codec.bytes_written": "B",
    "attitude.filter_step_calls": "count",
    "attitude.alpha_saturated_frac": "frac",
    "pipeline.imu_samples": "count",
    "pipeline.observations": "count",
    "pipeline.records": "count",
    "pipeline.rts_dropped": "count",
    "pipeline.rts_unpaired": "count",
    "pipeline.pair_age_ms_mean": "ms",
    "pipeline.pair_age_ms_max": "ms",
    "pipeline.state_bytes": "B",
    "live.imu_calls": "count",
    "live.obs_calls": "count",
    "ops_failed_frac": "frac",
    "trace_overhead_frac": "frac",
    "trace_overhead_fuse_frac": "frac",
    "env.nproc": "count",
    "env.loadavg_1m": "procs",
}


class Checks:
    """Operations attempted and failed: CLI commands, library calls, output checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(message)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True, help="scenario seed, >= 0")
    parser.add_argument("--seconds", type=float, required=True, help="measuring time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--stream-s",
        type=float,
        help="seconds of sensor data per iteration (default 300 offline, 3600 live)",
    )
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.stream_s is None:
        args.stream_s = DEFAULT_STREAM_S[LIVE if args.workload == LIVE else "offline"]
    return args


def import_tiltcomp():
    """Import the library from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "tiltcomp" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'tiltcomp'} not found; run from a tiltcomp checkout")
    sys.path.insert(0, str(SRC))
    import tiltcomp
    import tiltcomp.cli
    import tiltcomp.codec
    import tiltcomp.evaluate
    import tiltcomp.pipeline
    import tiltcomp.sim

    if Path(tiltcomp.__file__).resolve().parent != (SRC / "tiltcomp").resolve():
        sys.exit(f"error: imported tiltcomp from {tiltcomp.__file__}, not {SRC}")
    return SimpleNamespace(
        pkg=tiltcomp,
        cli=tiltcomp.cli,
        codec=tiltcomp.codec,
        evaluate=tiltcomp.evaluate,
        pipeline=tiltcomp.pipeline,
        sim=tiltcomp.sim,
    )


def merge_streams(imu, rts):
    """Yield (is_imu, item) in time order, IMU first on equal stamps (as ``fuse``)."""
    i = j = 0
    while i < len(imu) or j < len(rts):
        if j >= len(rts) or (i < len(imu) and imu[i].timestamp <= rts[j].timestamp):
            yield True, imu[i]
            i += 1
        else:
            yield False, rts[j]
            j += 1


def make_inputs(tc, args):
    """The benchmark's own input generation: scenario config text, or the live segment."""
    if args.workload != LIVE:
        overrides, _ = OFFLINE[args.workload]
        lines = [f"duration_s = {args.stream_s!r}", f"seed = {args.seed}"]
        lines += [f"{key} = {value!r}" for key, value in overrides.items()]
        return "\n".join(lines) + "\n"
    cfg = tc.sim.ScenarioConfig(
        duration_s=LIVE_SEGMENT_S, rts_rate_hz=LIVE_RTS_HZ, seed=args.seed
    )
    imu, rts, _ = tc.sim.generate_scenario(cfg)
    return SimpleNamespace(events=list(merge_streams(imu, rts)), poi_nav=cfg.poi_nav, config=cfg)


def setup_once(args) -> dict:
    """Import the library and make the inputs, timed; in a fresh interpreter.

    The import is scaled to reference speed by a reference import in the same
    interpreter, and the input generation by the kernel sampled while it runs
    (see ``gauge.py``).
    """
    start = time.perf_counter()
    tc = import_tiltcomp()
    import_s = time.perf_counter() - start
    with SpeedGauge().sampling() as inputs:
        make_inputs(tc, args)
    reference_import_s = import_reference_s()
    return {
        "setup_s": import_s * IMPORT_REFERENCE_S / reference_import_s + inputs.scaled_s,
        "import_s": import_s, "inputs_s": inputs.wall_s, "reference_import_s": reference_import_s,
    }


def measure_setup(args) -> list[dict]:
    """Set up ``SETUP_PROBES`` times, each in a fresh interpreter."""
    argv = [
        sys.executable, str(Path(__file__).resolve()), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", "0", "--stream-s", repr(args.stream_s),
    ]
    probes = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(argv, capture_output=True, text=True, timeout=120, check=True)
        probes.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return probes


# ---------------------------------------------------------------- tracing


def install_tracer(tc, tracer: Tracer, counters: dict) -> None:
    """Wrap every layer entry point under the name its caller looks it up by."""
    cli, pipeline = tc.cli, tc.pipeline

    def on_filter_step(_args, state):
        if state.last_alpha >= 1.0:
            counters["alpha_saturated"] += 1

    def on_push_rts(args, _result):
        counters["pipeline"] = args[0]
        counters["observations"] += 1

    def on_drain(_args, records):
        counters["records"] += len(records)
        for record in records:
            age_ms = (record.timestamp - record.imu_timestamp_used) * 1000.0
            counters["pair_age_ms_sum"] += age_ms
            counters["pair_age_ms_max"] = max(counters["pair_age_ms_max"], age_ms)

    targets = [
        (cli, "cmd_simulate", "cli.simulate", None),
        (cli, "cmd_fuse", "cli.fuse", None),
        (cli, "cmd_eval", "cli.eval", None),
        (cli, "generate_scenario", "sim.generate_scenario", None),
        (cli, "write_imu_line", "codec.write_imu_line", None),
        (cli, "write_rts_line", "codec.write_rts_line", None),
        (cli, "write_truth_csv", "codec.write_truth_csv", None),
        (cli, "parse_imu_line", "codec.parse_imu_line", None),
        (cli, "parse_rts_line", "codec.parse_rts_line", None),
        (cli, "write_fused_csv", "codec.write_fused_csv", None),
        (cli, "encode_can_frames", "codec.encode_can_frames", None),
        (cli, "format_can_dump_line", "codec.format_can_dump_line", None),
        (cli, "read_fused_csv", "codec.read_fused_csv", None),
        (cli, "read_truth_csv", "codec.read_truth_csv", None),
        (cli, "compute_stats", "evaluate.compute_stats", None),
        (pipeline.Pipeline, "push_imu", "pipeline.push_imu", None),
        (pipeline.Pipeline, "push_rts", "pipeline.push_rts", on_push_rts),
        (pipeline.Pipeline, "drain", "pipeline.drain", on_drain),
        (pipeline, "filter_step", "attitude.filter_step", on_filter_step),
        (pipeline, "set_yaw", "attitude.set_yaw", None),
        (pipeline, "polar_to_cartesian", "geodesy.polar_to_cartesian", None),
        (pipeline, "apply_helmert", "geodesy.apply_helmert", None),
        (pipeline, "poi_position", "kinematics.poi_position", None),
    ]
    for owner, attr, name, hook in targets:
        tracer.wrap(owner, attr, name, hook)


def new_counters() -> dict:
    return {
        "alpha_saturated": 0,
        "observations": 0,
        "records": 0,
        "pair_age_ms_sum": 0.0,
        "pair_age_ms_max": 0.0,
        "pipeline": None,
    }


def layer_values(tracer: Tracer, counters: dict, checks: Checks) -> dict:
    """Per-layer values of one traced iteration."""
    values = {
        name: sum(tracer.total_s.get(span, 0.0) for span in spans)
        for name, spans in SPAN_TOTALS.items()
    }
    values.update({name: tracer.self_s.get(span, 0.0) for name, span in SPAN_SELF.items()})
    steps = tracer.calls.get("attitude.filter_step", 0)
    records = counters["records"]
    pipeline = counters["pipeline"]
    dropped = pipeline.rts_dropped if pipeline is not None else 0
    unpaired = pipeline.rts_buffered if pipeline is not None else 0
    checks.check(
        records == counters["observations"] - dropped - unpaired,
        f"traced records {records} != observations {counters['observations']} "
        f"- dropped {dropped} - unpaired {unpaired}",
    )
    values.update(
        {
            "attitude.filter_step_calls": steps,
            "attitude.alpha_saturated_frac": counters["alpha_saturated"] / steps if steps else 0.0,
            "pipeline.imu_samples": tracer.calls.get("pipeline.push_imu", 0),
            "pipeline.observations": counters["observations"],
            "pipeline.records": records,
            "pipeline.rts_dropped": dropped,
            "pipeline.rts_unpaired": unpaired,
            "pipeline.pair_age_ms_mean": counters["pair_age_ms_sum"] / records if records else 0.0,
            "pipeline.pair_age_ms_max": counters["pair_age_ms_max"],
        }
    )
    return values


# ---------------------------------------------------------------- streams


def timed_stream(pipeline, events, lat_imu: array, lat_obs: array, consume, checks, gauge):
    """Feed events to a pipeline, draining after every observation, and time
    each call: ``push_imu`` alone, and ``push_rts`` plus ``drain`` until the
    record is returned. Each drained list goes to ``consume``.

    Every ``STREAM_CHUNK`` events the gauge is sampled and the chunk's call
    times are scaled to reference speed. Returns the wall seconds of the
    stream, with the harness's own work on each event but without the gauge's
    time, or None if a call raised.
    """
    clock = time.perf_counter
    push_imu, push_rts, drain = pipeline.push_imu, pipeline.push_rts, pipeline.drain
    wall = 0.0
    gauge.restart()
    first_imu, first_obs = len(lat_imu), len(lat_obs)
    chunk_start = clock()

    def close_chunk():
        nonlocal wall, first_imu, first_obs, chunk_start
        elapsed = clock() - chunk_start
        factor = gauge.factor()
        for calls, first in ((lat_imu, first_imu), (lat_obs, first_obs)):
            for k in range(first, len(calls)):
                calls[k] *= factor
        wall += elapsed
        first_imu, first_obs = len(lat_imu), len(lat_obs)
        chunk_start = clock()

    try:
        for n, (is_imu, item) in enumerate(events, 1):
            if is_imu:
                start = clock()
                push_imu(item)
                lat_imu.append(clock() - start)
            else:
                start = clock()
                push_rts(item)
                out = drain()
                lat_obs.append(clock() - start)
                consume(out)
            if n % STREAM_CHUNK == 0:
                close_chunk()
        consume(drain())
    except ValueError as exc:
        checks.check(False, f"pipeline call raised: {exc!r}")
        return None
    close_chunk()
    return wall


def check_counts(pipeline, records: int, observations: int, checks: Checks) -> None:
    dropped, unpaired = pipeline.rts_dropped, pipeline.rts_buffered
    checks.check(
        records == observations - dropped - unpaired,
        f"records {records} != observations {observations} - dropped {dropped} "
        f"- unpaired {unpaired}",
    )


def tail(samples, q: float = 0.99) -> tuple[float, int]:
    """Nearest-rank percentile of a numpy array and the number of samples beyond it."""
    import numpy as np

    k = max(0, math.ceil(q * len(samples)) - 1)
    return float(np.partition(samples, k)[k]), len(samples) - k - 1


def latency_metrics(windows: list, extra: dict) -> dict:
    """Call-latency metrics from the (imu, obs) latency arrays of each replay
    or pass: p50 over all calls, p99 as the median of the windows' p99s, so
    one window with a burst of host hiccups does not set it."""
    import numpy as np

    metrics, counts = {}, {}
    for kind, index in (("imu", 0), ("obs", 1)):
        calls = [np.frombuffer(window[index]) for window in windows]
        tails = [tail(window) for window in calls]
        metrics[f"live_{kind}_call_p50_us"] = float(np.median(np.concatenate(calls))) * 1e6
        metrics[f"live_{kind}_call_p99_us"] = statistics.median(t for t, _ in tails) * 1e6
        counts[f"{kind}_calls"] = sum(len(window) for window in calls)
        counts[f"{kind}_p99_beyond_per_window"] = min(beyond for _, beyond in tails)
        counts[f"{kind}_window_p50_us"] = [float(np.median(w)) * 1e6 for w in calls]
        counts[f"{kind}_window_p99_us"] = [t * 1e6 for t, _ in tails]
    extra.update(counts, latency_windows=len(windows))
    return metrics


def peak_rss_so_far_mb() -> float:
    """Peak resident set of this process so far.

    Read after the first iteration, which is untraced: later iterations add
    only the harness's own per-iteration samples, whose number depends on how
    fast the program is.
    """
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def keep_going(args, durations: dict, iteration: int, deadline: float) -> bool:
    """Start another iteration only if it is expected to end by the deadline.

    ``durations`` maps traced (True) and untraced (False) to the wall times of
    the iterations so far. A traced run alternates the two and always makes
    at least one of each, so the tracing overhead can be measured.
    """
    if not durations[False] or (args.trace and not durations[True]):
        return True
    next_traced = bool(args.trace) and (iteration + 1) % 2 == 1
    return time.perf_counter() + statistics.median(durations[next_traced]) <= deadline


# ---------------------------------------------------------------- offline


def call_cli(cli, argv) -> tuple[int, str]:
    """Run one CLI command in-process; any escape counts as a failed exit."""
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # the benchmark reports the failure and goes on
            code = f"raised {exc!r}"
    return code, captured.getvalue()


def count_lines(path: Path) -> int:
    with open(path) as f:
        return sum(1 for line in f if line.strip())


def read_stream(path: Path, parse_line) -> list:
    with open(path, newline="") as f:
        return [parse_line(line, line_number=i) for i, line in enumerate(f, 1) if line.strip()]


def run_offline(tc, args, config_text: str, deadline: float, checks: Checks, report: dict):
    import numpy as np

    _, with_can = OFFLINE[args.workload]
    work = BENCH_DIR / "work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        cfg_path = work / "scenario.cfg"
        cfg_path.write_text(config_text)
        out = {name: work / name for name in
               ("imu.txt", "rts.txt", "truth.csv", "fused.csv", "can.txt", "stats.csv", "replay.csv")}
        commands = {
            "simulate": ["simulate", "--config", str(cfg_path), "--out-dir", str(work)],
            "fuse": ["fuse", "--imu", str(out["imu.txt"]), "--rts", str(out["rts.txt"]),
                     "--out", str(out["fused.csv"])]
                    + (["--can-out", str(out["can.txt"])] if with_can else []),
            "eval": ["eval", "--fused", str(out["fused.csv"]), "--truth", str(out["truth.csv"]),
                     "--out", str(out["stats.csv"])],
        }
        tracer = Tracer()
        gauge = SpeedGauge(repeats=5)
        wall = {name: [] for name in commands}
        plain = {"chain": [], "simulate": [], "fuse": [], "eval": [], "fuse_imu_per_s": []}
        traced = {"chain": [], "fuse_imu_per_s": []}
        durations = {False: [], True: []}
        windows = []
        stream_gauge = SpeedGauge()
        layers = []
        for iteration in itertools.count():
            iteration_start = time.perf_counter()
            tracing = bool(args.trace) and iteration % 2 == 1
            times = {}
            if tracing:
                # Sampling signals would land inside spans, so a traced
                # iteration is scaled by the kernel around it only.
                counters = new_counters()
                tracer.reset()
                install_tracer(tc, tracer, counters)
                gauge.restart()
                try:
                    for name, argv in commands.items():
                        start = time.perf_counter()
                        code, output = call_cli(tc.cli, argv)
                        times[name] = time.perf_counter() - start
                        checks.check(code == 0, f"{name} exited {code}: {output.strip()[-300:]}")
                finally:
                    tracer.restore()
                factor = gauge.factor()
                times = {name: t * factor for name, t in times.items()}
            else:
                for name, argv in commands.items():
                    with gauge.sampling() as interval:
                        code, output = call_cli(tc.cli, argv)
                    wall[name].append(interval.wall_s)
                    times[name] = interval.scaled_s
                    checks.check(code == 0, f"{name} exited {code}: {output.strip()[-300:]}")
            target = traced if tracing else plain
            target["chain"].append(sum(times.values()))
            if iteration == 0:
                n_imu = count_lines(out["imu.txt"])
                n_obs = count_lines(out["rts.txt"])
                fused = np.loadtxt(out["fused.csv"], delimiter=",", skiprows=1, ndmin=2)
                n_records = len(fused)
                checks.check(bool(np.isfinite(fused).all()), "fused CSV has a non-finite field")
                del fused
            target["fuse_imu_per_s"].append(n_imu / times["fuse"])

            # Every iteration must reproduce the first one's outputs exactly.
            rmse = float(out["stats.csv"].read_text().splitlines()[1].split(",")[7])
            prints = {"fused_sha256": sha256_file(out["fused.csv"]),
                      "can_sha256": sha256_file(out["can.txt"]) if with_can else None}
            if iteration == 0:
                first_rmse, fingerprints = rmse, prints
            checks.check(rmse == first_rmse, "rmse3d_mm differs between iterations")
            checks.check(prints == fingerprints, "fused output differs between iterations")

            if tracing:
                values = layer_values(tracer, counters, checks)
                for name in values:
                    if PER_LAYER[name] == "s":
                        values[name] *= factor
                values["codec.bytes_read"] = sum(
                    out[n].stat().st_size for n in ("imu.txt", "rts.txt", "fused.csv", "truth.csv"))
                values["codec.bytes_written"] = sum(
                    out[n].stat().st_size
                    for n in ("imu.txt", "rts.txt", "truth.csv", "fused.csv")
                    + (("can.txt",) if with_can else ()))
                checks.check(values["pipeline.imu_samples"] == n_imu, "traced IMU count mismatch")
                checks.check(values["pipeline.observations"] == n_obs,
                             "traced observation count mismatch")
                checks.check(values["pipeline.records"] == n_records, "traced record count mismatch")
                layers.append(values)
            else:
                for name in ("simulate", "fuse", "eval"):
                    plain[name].append(times[name])
                # Library replay of the parsed streams: per-call latency, and a
                # byte comparison of its fused CSV with the one the CLI wrote.
                imu = read_stream(out["imu.txt"], tc.codec.parse_imu_line)
                rts = read_stream(out["rts.txt"], tc.codec.parse_rts_line)
                pipeline = tc.pipeline.Pipeline(
                    tc.pipeline.PipelineConfig(pairing_tolerance_s=0.0))
                pipeline.set_yaw(0.0)
                records = []
                lat_imu, lat_obs = array("d"), array("d")
                windows.append((lat_imu, lat_obs))
                if timed_stream(pipeline, merge_streams(imu, rts), lat_imu, lat_obs,
                                records.extend, checks, stream_gauge) is not None:
                    check_counts(pipeline, len(records), len(rts), checks)
                    tc.codec.write_fused_csv(records, out["replay.csv"])
                    checks.check(
                        out["replay.csv"].read_bytes() == out["fused.csv"].read_bytes(),
                        "library replay fused CSV differs from the CLI's",
                    )
                del imu, rts, pipeline, records
            if iteration == 0:
                peak_rss_mb = peak_rss_so_far_mb()
            durations[tracing].append(time.perf_counter() - iteration_start)
            if not keep_going(args, durations, iteration, deadline):
                break

        report["fingerprints"] = fingerprints
        report["wall"] = wall
        report["gauge_factors"] = gauge.factors + stream_gauge.factors
        report["iterations"] = {"untraced": len(plain["chain"]), "traced": len(traced["chain"])}
        report["counts"] = {"imu_samples": n_imu, "observations": n_obs, "records": n_records}
        metrics = {
            "chain_s": statistics.median(plain["chain"]),
            "simulate_s": statistics.median(plain["simulate"]),
            "eval_s": statistics.median(plain["eval"]),
            "fuse_imu_per_s": statistics.median(plain["fuse_imu_per_s"]),
            "rmse3d_mm": first_rmse,
            "peak_rss_mb": peak_rss_mb,
        }
        metrics.update(latency_metrics(windows, report["counts"]))
        for values in layers:
            values.update({"live.imu_calls": len(lat_imu), "live.obs_calls": len(lat_obs),
                           "pipeline.state_bytes": 0})
        if args.trace:
            report["spans"] = tracer.edge_table()
        return metrics, layers, plain, traced
    finally:
        shutil.rmtree(work, ignore_errors=True)


# ---------------------------------------------------------------- live


def live_events(tc, segment, stream_s: float):
    """The segment repeated with shifted timestamps, cut at ``stream_s``."""
    ImuSample, RtsObservation = tc.pkg.ImuSample, tc.pkg.RtsObservation
    for repeat in itertools.count():
        offset = repeat * LIVE_SEGMENT_S
        for is_imu, item in segment.events:
            t = item.timestamp + offset
            if t >= stream_s:
                return
            if is_imu:
                yield True, ImuSample(t, item.accel, item.gyro)
            else:
                yield False, RtsObservation(
                    t, item.slant_distance, item.horizontal_angle, item.zenith_angle
                )


def expected_live_records(tc, segment, stream_s: float) -> tuple[int, int]:
    """(observations, expected records) for one pass.

    Draining after every observation, an observation is paired as soon as an
    attitude at or before its time plus the pairing tolerance exists. The
    first attitude comes with the last calibration sample, so exactly the
    observations stamped earlier than that minus the tolerance are evicted.
    """
    cfg = tc.pipeline.PipelineConfig()
    imu_times = [item.timestamp for is_imu, item in segment.events if is_imu]
    first_attitude = imu_times[cfg.filter_config.bias_calibration_count - 1]
    observations = expected = 0
    for is_imu, item in live_events(tc, segment, stream_s):
        if not is_imu:
            observations += 1
            expected += item.timestamp - cfg.rts_latency_s + cfg.pairing_tolerance_s >= first_attitude
    return observations, expected


FIELDS_PER_RECORD = 12


def record_fields(record) -> tuple:
    """The twelve numbers of a fused record, in fused CSV column order (angles in rad)."""
    att = record.attitude_used
    return (
        record.timestamp, *record.prism_nav, *record.poi_nav,
        att.roll, att.pitch, att.yaw, record.alpha_used, record.imu_timestamp_used,
    )


def state_probe(tc, segment, stream_s: float) -> int:
    """Bytes a default Pipeline still holds after ``stream_s`` of live data."""
    gc.collect()
    tracemalloc.start()
    try:
        pipeline = tc.pipeline.Pipeline()
        for is_imu, item in live_events(tc, segment, stream_s):
            if is_imu:
                pipeline.push_imu(item)
            else:
                pipeline.push_rts(item)
                pipeline.drain()
        held = tracemalloc.get_traced_memory()[0]
        del pipeline
        gc.collect()
        return held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def run_live(tc, args, segment, deadline: float, checks: Checks, report: dict):
    import numpy as np

    observations, expected = expected_live_records(tc, segment, args.stream_s)
    tracer = Tracer()
    gauge = SpeedGauge()
    wall = {"generate": [], "stream": [], "eval": []}
    plain = {"chain": [], "simulate": [], "eval": [], "fuse_imu_per_s": []}
    traced = {"chain": [], "fuse_imu_per_s": []}
    durations = {False: [], True: []}
    windows = []
    layers, rmse = [], None

    # The live chain's "simulate" is generating the segment, done once for the
    # stream; time it a few times on its own.
    cfg = segment.config
    for _ in range(LIVE_GENERATE_REPEATS):
        with gauge.sampling() as interval:
            tc.sim.generate_scenario(cfg)
        wall["generate"].append(interval.wall_s)
        plain["simulate"].append(interval.scaled_s)

    for iteration in itertools.count():
        iteration_start = time.perf_counter()
        tracing = bool(args.trace) and iteration % 2 == 1
        counters = new_counters()
        if tracing:
            tracer.reset()
            install_tracer(tc, tracer, counters)
        pass_imu, pass_obs = array("d"), array("d")
        # A controller consumes each record at once; keep only its numbers, so
        # the pipeline's own retained state is what grows.
        fields = array("d")

        def consume(records):
            for record in records:
                fields.extend(record_fields(record))

        first_factor = len(gauge.factors)
        stream_wall = None
        try:
            pipeline = tc.pipeline.Pipeline()
            stream_wall = timed_stream(
                pipeline, live_events(tc, segment, args.stream_s), pass_imu, pass_obs,
                consume, checks, gauge,
            )
        finally:
            tracer.restore()
        if stream_wall is None:
            raise RuntimeError("live pass aborted: " + checks.messages[-1])
        # The pass's stream time is the sum of its scaled call times, so the
        # harness's work between calls (rebuilding the events, consuming the
        # records) is not charged to the pipeline.
        stream_s = sum(pass_imu) + sum(pass_obs)
        table = np.frombuffer(fields).reshape(-1, FIELDS_PER_RECORD)
        # One evaluation takes ~10 ms; time several and report the mean.
        with gauge.sampling() as interval:
            for _ in range(LIVE_EVAL_REPEATS):
                stats = tc.evaluate.compute_stats(table[:, 4:7], segment.poi_nav)
        eval_wall = interval.wall_s / LIVE_EVAL_REPEATS
        eval_s = interval.scaled_s / LIVE_EVAL_REPEATS
        wall["stream"].append(stream_wall)
        wall["eval"].append(eval_wall)
        target = traced if tracing else plain
        target["chain"].append(stream_s + eval_s)
        target["fuse_imu_per_s"].append(len(pass_imu) / stream_s)
        if not tracing:
            plain["eval"].append(eval_s)
            windows.append((pass_imu, pass_obs))

        check_counts(pipeline, len(table), observations, checks)
        checks.check(len(table) == expected, f"live records {len(table)} != expected {expected}")
        checks.check(bool(np.isfinite(table).all()), "a live record has a non-finite field")
        digest = hashlib.sha256(fields).hexdigest()
        if rmse is None:
            rmse = stats.rmse3d_mm
            report["fingerprints"] = {"records_sha256": digest}
        checks.check(stats.rmse3d_mm == rmse, "live rmse3d_mm differs between passes")
        checks.check(report["fingerprints"]["records_sha256"] == digest,
                     "live records differ between passes")
        if tracing:
            values = layer_values(tracer, counters, checks)
            factor = statistics.fmean(gauge.factors[first_factor:])
            for name in values:
                if PER_LAYER[name] == "s":
                    values[name] *= factor
            values.update({"codec.bytes_read": 0, "codec.bytes_written": 0,
                           "live.imu_calls": len(pass_imu), "live.obs_calls": len(pass_obs),
                           "pipeline.state_bytes": 0})
            layers.append(values)
        del pipeline, table, fields
        if iteration == 0:
            peak_rss_mb = peak_rss_so_far_mb()
        durations[tracing].append(time.perf_counter() - iteration_start)
        if not keep_going(args, durations, iteration, deadline):
            break

    report["wall"] = wall
    report["gauge_factors"] = gauge.factors
    report["iterations"] = {"untraced": len(plain["chain"]), "traced": len(traced["chain"])}
    report["counts"] = {"imu_samples": len(pass_imu), "observations": observations,
                        "records": expected}
    metrics = {
        "chain_s": statistics.median(plain["chain"]),
        "simulate_s": statistics.median(plain["simulate"]),
        "eval_s": statistics.median(plain["eval"]),
        "fuse_imu_per_s": statistics.median(plain["fuse_imu_per_s"]),
        "rmse3d_mm": rmse,
        "peak_rss_mb": peak_rss_mb,
    }
    metrics.update(latency_metrics(windows, report["counts"]))
    if args.trace:
        report["spans"] = tracer.edge_table()
        probe_s = min(STATE_PROBE_S, args.stream_s)
        report["state_probe_stream_s"] = probe_s
        layers[-1]["pipeline.state_bytes"] = state_probe(tc, segment, probe_s)
    return metrics, layers, plain, traced


# ---------------------------------------------------------------- main


def environment(tc) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": sys.modules["numpy"].__version__,
        "tiltcomp": getattr(tc.pkg, "__version__", None),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
        "platform": platform.platform(),
    }


def median_layers(layers: list[dict]) -> dict:
    """Median of each timing over the traced iterations; counts and bytes
    repeat exactly, so those come from the last one."""
    return {
        name: value if PER_LAYER[name] in ("count", "B")
        else statistics.median(v[name] for v in layers)
        for name, value in layers[-1].items()
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        print(json.dumps(setup_once(args)))
        return 0

    tc = import_tiltcomp()
    probes = measure_setup(args)
    inputs = make_inputs(tc, args)
    checks = Checks()
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "stream_s": args.stream_s}
    deadline = time.perf_counter() + args.seconds
    if args.workload == LIVE:
        metrics, layers, plain, traced = run_live(tc, args, inputs, deadline, checks, report)
    else:
        metrics, layers, plain, traced = run_offline(tc, args, inputs, deadline, checks, report)
    metrics["setup_s"] = statistics.median(p["setup_s"] for p in probes)
    env = environment(tc)
    report.update(env=env, setup_probes=probes, checks=checks.messages,
                  samples=plain, traced_samples=traced)

    if args.trace:
        chosen = median_layers(layers)
        chosen["ops_failed_frac"] = checks.failed / checks.attempted
        chosen["trace_overhead_frac"] = (
            statistics.median(traced["chain"]) / statistics.median(plain["chain"]) - 1.0)
        chosen["trace_overhead_fuse_frac"] = (
            statistics.median(plain["fuse_imu_per_s"]) / statistics.median(traced["fuse_imu_per_s"]) - 1.0)
        chosen["env.nproc"] = env["nproc"]
        chosen["env.loadavg_1m"] = env["loadavg"][0]
        units = PER_LAYER
    else:
        chosen = metrics
        units = END_TO_END
    report["end_to_end"] = metrics
    missing = set(units) - set(chosen)
    if missing:
        raise RuntimeError(f"metrics not measured: {sorted(missing)}")

    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": chosen[name], "unit": unit} for name, unit in units.items()},
    }
    report["result"] = result
    results_dir = BENCH_DIR / "results"
    results_dir.mkdir(exist_ok=True)
    out_path = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(report, indent=1, default=str) + "\n")
    for message in checks.messages:
        print(f"check failed: {message}", file=sys.stderr)
    print("env " + json.dumps(env))
    print("fingerprints " + json.dumps(report["fingerprints"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
