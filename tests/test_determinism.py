"""The library's bits do not depend on the CPU it runs on.

numpy picks its SIMD kernels by CPU dispatch level, and its OpenBLAS picks a
BLAS kernel by CPU type; a kernel with fused multiply-add rounds a product
and a sum once where one without rounds twice. Each test runs the library in
child processes that differ only in those choices, set through numpy's
``NPY_DISABLE_CPU_FEATURES`` and OpenBLAS's ``OPENBLAS_CORETYPE`` (each acts
on its own process only), and asks for the same bits from every child.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

ROOT = Path(__file__).resolve().parents[1]

# OpenBLAS's kernel for CPUs without fused multiply-add.
NO_FMA_BLAS = {"OPENBLAS_CORETYPE": "Sandybridge"}

# Prints, per line, the float hex of apply_helmert's prism, poi_position's
# POI, and drain's prism and POI for one random observation and attitude.
# Each pipeline is seeded by one IMU sample, so that the attitude is the
# seed's atan2 and hypot alone; a filter step's accel norm is a BLAS dot.
PLACEMENTS = """
import math, random
import numpy as np
from tiltcomp import (
    Attitude, FilterConfig, HelmertParams, ImuSample, LeverArms, Pipeline,
    PipelineConfig, RtsObservation, apply_helmert, poi_position,
    polar_to_cartesian, rotation_b_to_n,
)

rng = random.Random(26)
helmert = HelmertParams(
    1.0004, rotation_b_to_n(Attitude(0.4, -0.3, 2.0)), np.array([2500.25, -731.5, 48.125])
)
arms = LeverArms(np.array([0.012, -0.021, 0.0756]), np.array([0.034, 0.05, -0.992]))
config = PipelineConfig(
    filter_config=FilterConfig(bias_calibration_count=1), lever_arms=arms, helmert=helmert
)
for _ in range(2000):
    obs = RtsObservation(
        1.0, rng.uniform(1.0, 500.0), rng.uniform(-math.pi, math.pi), rng.uniform(0.2, 2.9)
    )
    roll, pitch, yaw = (
        rng.uniform(-math.pi, math.pi), rng.uniform(-1.5, 1.5), rng.uniform(-math.pi, math.pi)
    )
    cp = math.cos(pitch)
    gravity = 9.80665 * np.array([-math.sin(pitch), cp * math.sin(roll), cp * math.cos(roll)])
    pipe = Pipeline(config)
    pipe.set_yaw(yaw)
    pipe.push_imu(ImuSample(0.0, gravity, np.zeros(3)))
    pipe.push_rts(obs)
    [record] = pipe.drain()
    prism = apply_helmert(helmert, polar_to_cartesian(obs))
    poi = poi_position(prism, Attitude(roll, pitch, yaw), arms)
    values = (*prism.tolist(), *poi.tolist(), *record.prism_nav.tolist(), *record.poi_nav.tolist())
    print(*(v.hex() for v in values))
"""


def run(args, env_vars):
    env = dict(os.environ, **env_vars)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, cwd=ROOT, env=env, timeout=300
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return done.stdout


def test_placement_bits_do_not_depend_on_the_blas_kernel():
    """The placement kernel sums each rotated component as plain floats, so
    the default BLAS kernel and the one without fused multiply-add give the
    same prism and POI bits on 2000 random observations. With the rotations
    as BLAS products, this fails on a CPU with fused multiply-add."""
    default = run(["-c", PLACEMENTS], {}).splitlines()
    no_fma = run(["-c", PLACEMENTS], NO_FMA_BLAS).splitlines()
    assert len(default) == len(no_fma) == 2000
    differing = sum(a != b for a, b in zip(default, no_fma))
    assert differing == 0, f"{differing} of 2000 placements differ between BLAS kernels"


def dispatch_limits():
    """``NPY_DISABLE_CPU_FEATURES`` values that step numpy down the dispatch
    levels this CPU enables, top down: the highest off, then the two highest,
    and so on until every dispatched level is off."""
    enabled = [name for name in __cpu_dispatch__ if __cpu_features__.get(name)]
    return [" ".join(reversed(enabled[k:])) for k in reversed(range(len(enabled)))]


PINNED = [
    "tests/test_cli.py::test_fuse_output_matches_pinned_fingerprints",
    "tests/test_sim.py::test_streams_match_pinned_fingerprints",
]


@pytest.mark.parametrize(
    "env_vars",
    [{"NPY_DISABLE_CPU_FEATURES": limit} for limit in dispatch_limits()] + [NO_FMA_BLAS],
    ids=lambda env_vars: "-".join(" ".join(env_vars.values()).split()),
)
def test_pinned_outputs_hold_at_each_dispatch_level(env_vars):
    """The pinned fused CSV, CAN dump and scenario stream hashes hold with
    numpy's higher dispatch levels turned off and with the BLAS kernel
    without fused multiply-add."""
    run(["-m", "pytest", "-q", "-p", "no:cacheprovider", *PINNED], env_vars)
