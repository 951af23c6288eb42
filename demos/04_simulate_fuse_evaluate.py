"""End to end: simulate a swaying pole, fuse the streams, score the result.

Two routes through the same machinery.  The library route wires the
pieces together by hand so every intermediate is visible.  The command
line route drives the installed ``tiltcomp`` tool over real files in a
temporary directory and ends at the same report.
"""

import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from tiltcomp import (
    NoiseSpec,
    Pipeline,
    ScenarioConfig,
    compute_stats,
    generate_scenario,
    render_report,
)

# ---------------------------------------------------------------- library
cfg = ScenarioConfig(duration_s=60.0, seed=11)
imu, rts, truth = generate_scenario(cfg)
print(f"simulated {len(imu)} IMU samples, {len(rts)} tracker observations, "
      f"{len(truth)} truth rows")

# Replay both streams in time order (IMU first on equal stamps).  The
# pipeline holds observations until calibration finishes and pairs each
# one with the newest attitude estimate at or before it.  A positive
# pairing tolerance (PipelineConfig) is for live streams whose clocks
# jitter; it would let the calibration backlog borrow slightly newer
# attitudes, so the default is zero.
pipe = Pipeline()
records = pipe.replay(imu, rts)
print(f"fused {len(records)} records "
      f"({pipe.rts_dropped} observations dropped during calibration)")

# Score the fused tip positions against the planted tip.  The pole sways
# but its tip stays put, which the truth rows confirm: truth is one table
# whose columns follow the truth CSV header, the tip in columns 7 to 9.
tip_travel = np.ptp(truth[:, 7:10], axis=0)
print(f"truth tip travel over the run [m]: {tip_travel}")
stats = compute_stats([r.poi_nav for r in records], cfg.poi_nav)
print()
print(render_report([("library", stats)]))

# ------------------------------------------------------------------- CLI
# Same story through the installed command line tool.  The scenario file
# is plain 'key = value' text.
scenario_text = """\
duration_s = 60.0
idle_duration_s = 10.0
seed = 11
"""

with tempfile.TemporaryDirectory() as td:
    work = Path(td)
    (work / "scenario.cfg").write_text(scenario_text)

    def run(*args):
        out = subprocess.run(
            [sys.executable, "-m", "tiltcomp.cli", *args],
            capture_output=True, text=True, check=True,
        )
        return out.stdout

    print(run("simulate", "--config", str(work / "scenario.cfg"),
              "--out-dir", str(work)), end="")
    print(run("fuse", "--imu", str(work / "imu.txt"),
              "--rts", str(work / "rts.txt"),
              "--out", str(work / "fused.csv")), end="")
    print(run("eval", "--fused", str(work / "fused.csv"),
              "--truth", str(work / "truth.csv"),
              "--out", str(work / "stats.csv"),
              "--label", "cli"), end="")
    print()
    print("stats.csv:")
    print((work / "stats.csv").read_text(), end="")
