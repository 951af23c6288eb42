"""Why the prism position is not the point you surveyed.

The total station tracks a prism mounted near the top of the pole.  The
point of interest is the pole tip, about a meter further down the pole
axis.  Holding the pole perfectly plumb lets you subtract that meter
from the height and be done; any tilt bends the offset sideways.  This
demo puts numbers on that, then applies the lever-arm correction.

Run with: python3 demos/02_tilt_correction.py
"""

import math

import numpy as np

from tiltcomp import (
    Attitude,
    LeverArms,
    poi_position,
    prism_to_poi_body,
    rotation_b_to_n,
)

arms = LeverArms()
offset_b = prism_to_poi_body(arms)
print(f"IMU -> prism (body frame, m): {arms.imu_to_prism_b}")
print(f"IMU -> tip   (body frame, m): {arms.imu_to_poi_b}")
print(f"prism -> tip (body frame, m): {offset_b}   length {np.linalg.norm(offset_b):.4f}")
print()

# Suppose the tracker reports the prism at this navigation-frame point.
prism_nav = np.array([12.0, 3.0, 1.5])

# Case 1: pole plumb.  The body offset maps straight down unchanged.
level = Attitude(roll=0.0, pitch=0.0, yaw=0.0)
tip_level = poi_position(prism_nav, level, arms)
print(f"plumb pole: tip = {tip_level}  (prism minus {-offset_b[2]:.4f} m of height)")

# Case 2: the same prism point, pole leaning.  A plumb-pole reduction
# now misses by centimeters, growing with the lean.
print()
print("lean (roll)   tip via rotation              plumb-assumption error")
for lean_deg in (2.0, 5.0, 10.0, 20.0):
    att = Attitude(roll=math.radians(lean_deg), pitch=0.0, yaw=0.0)
    tip = poi_position(prism_nav, att, arms)
    err_m = np.linalg.norm(tip - tip_level)
    print(f"  {lean_deg:4.0f} deg    {np.array2string(tip, precision=4):28s}  "
          f"{err_m * 100:6.2f} cm")

# The correction itself is one rotation: body offset, rotated into the
# navigation frame by the current attitude, added to the prism point.
att = Attitude(roll=math.radians(10.0), pitch=0.0, yaw=0.0)
R = rotation_b_to_n(att)
print()
print("attitude matrix at 10 deg roll:")
print(np.array2string(R, precision=6, suppress_small=True))
print(f"orthonormal: R @ R.T deviates from I by "
      f"{np.max(np.abs(R @ R.T - np.eye(3))):.1e}, det = {np.linalg.det(R):.6f}")

lever_nav = R @ offset_b
print(f"rotated prism->tip offset:   {lever_nav}")
print(f"prism + offset:              {prism_nav + lever_nav}")
print(f"poi_position (same thing):   {poi_position(prism_nav, att, arms)}")

# The rotation never stretches the pole.  Whatever the attitude, the
# prism-to-tip distance stays the mounted length.
rng = np.random.default_rng(3)
lengths = []
for _ in range(1000):
    att = Attitude(
        roll=rng.uniform(-math.pi, math.pi),
        pitch=rng.uniform(-math.pi / 2, math.pi / 2),
        yaw=rng.uniform(-math.pi, math.pi),
    )
    lengths.append(np.linalg.norm(rotation_b_to_n(att) @ offset_b))
print()
print(f"1000 random attitudes: rotated offset length spans "
      f"[{min(lengths):.12f}, {max(lengths):.12f}] m")

# Yaw matters once the pole also pitches: the horizontal component of
# the offset swings around the vertical with the heading.
print()
for yaw_deg in (0.0, 90.0, 180.0):
    att = Attitude(roll=0.0, pitch=math.radians(15.0), yaw=math.radians(yaw_deg))
    tip = poi_position(prism_nav, att, arms)
    print(f"pitch 15 deg, yaw {yaw_deg:5.1f} deg: tip = {tip.round(4)}")
