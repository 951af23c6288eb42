"""Roll and pitch from a raw IMU stream with an adaptive blend.

A pole-mounted IMU reports specific force and angular rate at 100 Hz.
Accelerometer angles are exact while the pole is still but corrupted the
moment it accelerates; gyro integration stays smooth but drifts.  The
complementary filter blends the two, and the blend weight backs off the
accelerometer whenever the measured specific force departs from gravity.

Run with: python3 demos/01_attitude_filter.py
"""

import math
from dataclasses import replace

import numpy as np

from tiltcomp import (
    FilterConfig,
    FilterState,
    ImuSample,
    ScenarioConfig,
    accel_angles,
    adaptive_alpha,
    calibrate_bias,
    filter_step,
    generate_scenario,
)

# A 60 s run: 10 s idle on the ground, then the pole sways through
# +/- 60 degrees of roll and pitch at a few hundredths of a hertz.
cfg = ScenarioConfig(duration_s=60.0, seed=7)
imu, _, truth = generate_scenario(cfg)
# Ground truth is one table on the IMU grid: row i holds sample i's time,
# then roll, pitch and yaw in radians.
print(f"scenario: {len(imu)} IMU samples at {cfg.imu_rate_hz:g} Hz, "
      f"{cfg.idle_duration_s:g} s idle before the sway starts")

# Step 1: gyro bias from the idle stretch.  The filter refuses to emit
# anything until it has this many samples, so do the same here.
fc = FilterConfig()
bias = calibrate_bias(imu[: fc.bias_calibration_count], fc.bias_calibration_count)
print(f"gyro bias estimate [deg/s]: {np.degrees(bias).round(4)}")
print(f"  (simulator injected {cfg.noise.gyro_bias_deg_per_h:g} deg/h per axis,"
      f" i.e. {cfg.noise.gyro_bias_deg_per_h / 3600:.2e} deg/s)")

# Step 2: replay the stream through the filter.  The first sample seeds
# roll and pitch straight from the accelerometer.
state = FilterState(gyro_bias=bias)
errs = []
alpha_idle = alpha_motion = None
for sample, (_, roll, pitch) in zip(imu, truth[:, :3].tolist()):
    state = filter_step(state, sample, fc)
    errs.append([state.attitude.roll - roll, state.attitude.pitch - pitch])
    if abs(sample.timestamp - 5.0) < 1e-9:
        alpha_idle = state.last_alpha
    if abs(sample.timestamp - 35.0) < 1e-9:
        alpha_motion = state.last_alpha
errs = np.degrees(errs)
print(f"roll  RMSE over the run: {np.sqrt(np.mean(errs[:, 0] ** 2)):.4f} deg")
print(f"pitch RMSE over the run: {np.sqrt(np.mean(errs[:, 1] ** 2)):.4f} deg")

# Step 3: what the adaptive gain actually did.  At rest the specific
# force matches gravity and the gain sits at its floor, so 10 percent of
# every update comes from the accelerometer.  Mid-sway the lever arm adds
# kinematic acceleration and the gain creeps up.  The sway here is slow,
# so the creep is small; the table maps the full range of the gain.
print(f"blend gain while idle:    {alpha_idle:.4f}  (floor is {fc.alpha_base})")
print(f"blend gain mid-sway:      {alpha_motion:.4f}")
for mismatch in (0.0, 0.5, 1.0, 2.0):
    shaken = (0.0, 0.0, cfg.gravity + mismatch)
    print(f"  |force - g| = {mismatch:3.1f} m/s^2  ->  alpha = "
          f"{adaptive_alpha(shaken, fc):.3f}")

# Step 4: the accelerometer path alone, for contrast.  Same stream, no
# gyro at all: just the tilt angles each accel vector implies.
acc_errs = []
for sample, (_, roll, pitch) in zip(imu, truth[:, :3].tolist()):
    roll_a, pitch_a = accel_angles(sample.accel)
    acc_errs.append([roll_a - roll, pitch_a - pitch])
acc_errs = np.degrees(acc_errs)
print(f"accel-only roll RMSE:  {np.sqrt(np.mean(acc_errs[:, 0] ** 2)):.4f} deg "
      f"(worst sample {np.max(np.abs(acc_errs[:, 0])):.2f} deg)")

# Step 5: convergence from a bad start.  Seed the filter 5 degrees off on
# a perfectly still stream; each update pulls the error down by the blend
# gain, so after n steps at most alpha_base**n of the offset survives.
still = ImuSample(0.0, (0.0, 0.0, cfg.gravity), (0.0, 0.0, 0.0))
state = filter_step(FilterState(), still, fc)  # seeds exactly level
state = replace(state, attitude=replace(state.attitude, roll=math.radians(5.0)))
err0 = state.attitude.roll
for k in range(1, 51):
    sample = ImuSample(k * 0.01, (0.0, 0.0, cfg.gravity), (0.0, 0.0, 0.0))
    state = filter_step(state, sample, fc)
    if k in (1, 10, 25, 50):
        print(f"  step {k:3d}: error {math.degrees(state.attitude.roll):8.5f} deg, "
              f"bound {math.degrees(fc.alpha_base ** k * err0):8.5f} deg")
