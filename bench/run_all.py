#!/usr/bin/env python3
"""Run every workload, untraced and traced, and print every metric with its unit.

    python3 bench/run_all.py --seed 1 --seconds 36

Each run is its own process, as ``run.py`` requires for ``peak_rss_mb``.
Exits non-zero if any run fails or any correctness check fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    args = parser.parse_args(argv)

    all_correct = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, str(RUN), "--workload", workload, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(trace)]
            done = subprocess.run(argv, capture_output=True, text=True, timeout=900)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                print(f"{workload} trace={trace}: exit {done.returncode}\n{done.stderr}")
                all_correct = False
                continue
            result = json.loads(lines[-1])
            all_correct &= result["correct"]
            print(f"== {workload} trace={trace}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for line in lines[:-1]:
                print(f"   {line}")
            for name, metric in result["metrics"].items():
                value = metric["value"]
                shown = f"{value:>16d}" if isinstance(value, int) else f"{value:>16.6g}"
                print(f"   {name:32s} {shown} {metric['unit']}")
            if done.stderr.strip():
                print(done.stderr.strip())
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
