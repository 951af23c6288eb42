"""Fusion of an ~100 Hz IMU stream with an ~5 Hz total-station stream.

The two streams are decoupled: IMU samples drive gyro bias calibration and
then the attitude filter, while incoming observations wait in a bounded FIFO
ring buffer. :meth:`Pipeline.drain` pairs each buffered observation with the
most recent attitude estimate at or before the observation time (plus an
optional tolerance for live clocks) and emits tilt-corrected records.

Each paired observation is placed by one scalar kernel on plain floats: polar
to Cartesian (``geodesy._polar``), the Helmert map (``geodesy._helmert``) and
the rotated prism->POI lever (``kinematics._poi``). :func:`polar_to_cartesian`,
:func:`apply_helmert` and :func:`poi_position` run the same three formulas,
so :meth:`Pipeline.drain` gives their results bit for bit while building only
the two coordinate arrays each record holds. It fills each
:class:`FusedRecord` and its :class:`Attitude` directly, without their
dataclass ``__init__`` and ``__post_init__``: the kernel's plain floats and
two new float64 ``(3,)`` arrays are already what those would store.

Both streams must carry timestamps from one shared clock. The pipeline is a
single state machine: all push/drain calls must be externally serialized.
Offline replay is strictly single-threaded and, with ``pairing_tolerance_s``
zero, bit-deterministic for a given push ordering.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ._fields import _check_fields, _ranged
# filter_step and set_yaw are unused here but stay importable: bench/run.py
# traces the attitude layer as pipeline.filter_step and pipeline.set_yaw.
from .attitude import (  # noqa: F401
    Attitude,
    FilterConfig,
    ImuSample,
    _check_sample,
    _step,
    _wrapped_yaw,
    calibrate_bias,
    filter_step,
    set_yaw,
)
# apply_helmert, polar_to_cartesian and poi_position run the same placement
# kernel as drain; they stay importable for bench/run.py's tracer.
from .geodesy import (  # noqa: F401
    HelmertParams,
    RtsObservation,
    _helmert,
    _polar,
    apply_helmert,
    polar_to_cartesian,
)
from .kinematics import LeverArms, _poi, poi_position, prism_to_poi_body  # noqa: F401

__all__ = ["FusedRecord", "PipelineConfig", "Pipeline"]


@dataclass(frozen=True)
class FusedRecord:
    """One fused output: prism and tilt-corrected POI positions in the
    navigation frame at an observation timestamp, plus the attitude estimate,
    blend weight, and IMU timestamp that produced it."""

    timestamp: float
    prism_nav: np.ndarray
    poi_nav: np.ndarray
    attitude_used: Attitude
    alpha_used: float
    imu_timestamp_used: float

    def __post_init__(self):
        object.__setattr__(self, "prism_nav", np.asarray(self.prism_nav, dtype=float))
        object.__setattr__(self, "poi_nav", np.asarray(self.poi_nav, dtype=float))


@dataclass(frozen=True)
class PipelineConfig:
    """Fusion settings; each numeric field's range is declared with its default.

    rts_buffer_capacity: observations buffered before the oldest is dropped.
    pairing_tolerance_s: how far past an observation's (latency-corrected)
        timestamp an attitude estimate may lie and still be paired with it.
        The default zero is the strict rule: the attitude at or before the
        observation. A positive value absorbs clock jitter between live
        streams, at the price of pairing an observation that waited (during
        calibration, or for a late drain) with an attitude up to that much
        newer than the observation itself.
    rts_latency_s: constant age of observation timestamps relative to the IMU
        clock, subtracted before pairing. Zero when both streams are stamped
        on one clock.
    hold_yaw: freeze yaw at its initial (or last externally set) value instead
        of following the drifting gyro integral. On by default: without a
        heading reference, integrated yaw corrupts the lever-arm rotation.
    """

    filter_config: FilterConfig = field(default_factory=FilterConfig)
    lever_arms: LeverArms = field(default_factory=LeverArms)
    helmert: HelmertParams = field(default_factory=HelmertParams)
    rts_buffer_capacity: int = _ranged(32, 1, math.inf)
    pairing_tolerance_s: float = _ranged(0.0, 0.0, math.inf)
    rts_latency_s: float = _ranged(0.0, 0.0, math.inf)
    hold_yaw: bool = True

    def __post_init__(self):
        _check_fields(self)


class Pipeline:
    """Stream fusion state machine.

    Life cycle: the first ``bias_calibration_count`` IMU samples must come
    from an idle period; they are averaged into the gyro bias, and the last of
    them seeds the attitude filter. Every later IMU sample advances the
    filter. Observations may arrive at any time; they are buffered (oldest
    dropped past capacity) until :meth:`drain` can pair them.

    Records are emitted in observation order. A buffered observation earlier
    than the first attitude estimate blocks the queue until the ring buffer
    evicts it; feed the pipeline its idle segment first to avoid the churn.

    The filter state is plain floats (roll, pitch, yaw, the last IMU
    timestamp and the gyro bias), advanced from the seed step on by the
    attitude module's scalar kernel, the one :func:`filter_step` runs. The
    attitude history is two float arrays: IMU timestamps, and roll, pitch,
    yaw and alpha per sample. :class:`Attitude` objects are built only where
    they are handed out, by :meth:`drain` and :attr:`latest_attitude`.
    """

    def __init__(self, config: PipelineConfig | None = None):
        self.config = config if config is not None else PipelineConfig()
        self._calib_samples: list[ImuSample] = []
        self._bias: tuple[float, float, float] | None = None
        self._roll = self._pitch = self._yaw = 0.0
        self._last_timestamp: float | None = None
        self._att_times = array("d")
        self._att_values = array("d")
        self._buffer: deque[RtsObservation] = deque()
        self._dropped = 0

    @property
    def calibrated(self) -> bool:
        """True once the gyro bias is fixed and the filter is running."""
        return self._bias is not None

    @property
    def gyro_bias(self) -> np.ndarray | None:
        """Calibrated gyro bias [rad/s], or None during the calibration phase."""
        return None if self._bias is None else np.array(self._bias)

    @property
    def latest_attitude(self) -> tuple[float, Attitude] | None:
        """Most recent (imu_timestamp, attitude) estimate, or None before seeding."""
        if not self._att_times:
            return None
        roll, pitch, yaw, _ = self._att_values[-4:]
        return self._att_times[-1], Attitude(roll, pitch, yaw)

    @property
    def rts_buffered(self) -> int:
        return len(self._buffer)

    @property
    def rts_dropped(self) -> int:
        """Observations evicted by ring-buffer overflow since construction."""
        return self._dropped

    def push_imu(self, sample: ImuSample) -> None:
        """Feed one IMU sample: calibrates until the count is reached, then filters."""
        cfg = self.config.filter_config
        bias = self._bias
        if bias is None:
            calib = self._calib_samples
            _check_sample(sample, calib[-1].timestamp if calib else None)
            if len(calib) + 1 < cfg.bias_calibration_count:
                calib.append(sample)
                return
            # Keep the seed sample out of the list until the kernel accepts it.
            bias = tuple(calibrate_bias([*calib, sample], cfg.bias_calibration_count).tolist())
        roll, pitch, yaw, alpha = _step(
            self._roll, self._pitch, self._yaw, self._last_timestamp, sample, bias, cfg
        )
        if self.config.hold_yaw:
            # The state keeps the yaw set_yaw left; the kernel's integral is dropped.
            yaw = self._yaw
        if self._bias is None:
            self._calib_samples.clear()
            self._bias = bias
        self._roll, self._pitch, self._yaw = roll, pitch, yaw
        self._last_timestamp = sample.timestamp
        self._att_times.append(sample.timestamp)
        self._att_values.extend((roll, pitch, yaw, alpha))

    def push_rts(self, obs: RtsObservation) -> None:
        """Buffer one observation; past capacity the oldest is dropped and counted."""
        if len(self._buffer) >= self.config.rts_buffer_capacity:
            self._buffer.popleft()
            self._dropped += 1
        self._buffer.append(obs)

    def set_yaw(self, yaw: float) -> None:
        """Reset the heading used for lever-arm rotation (and the held value)."""
        self._yaw = _wrapped_yaw(yaw)

    def drain(self) -> list[FusedRecord]:
        """Pair and emit all buffered observations that have an eligible attitude.

        Eligible means the attitude's IMU timestamp is at or before the
        observation timestamp minus ``rts_latency_s`` plus
        ``pairing_tolerance_s``; the latest such estimate is used. Processing
        stops at the first observation with no eligible attitude, which stays
        buffered together with everything behind it. Returns an empty list
        during the calibration phase.
        """
        if self._bias is None:
            return []
        records = []
        cfg = self.config
        helmert, lever = cfg.helmert, prism_to_poi_body(cfg.lever_arms)
        new, put = object.__new__, object.__setattr__
        while self._buffer:
            obs = self._buffer[0]
            cutoff = obs.timestamp - cfg.rts_latency_s + cfg.pairing_tolerance_s
            idx = bisect_right(self._att_times, cutoff) - 1
            if idx < 0:
                break
            self._buffer.popleft()
            roll, pitch, yaw, alpha = self._att_values[4 * idx : 4 * idx + 4]
            prism = _helmert(
                helmert, *_polar(obs.slant_distance, obs.horizontal_angle, obs.zenith_angle)
            )
            poi = _poi(*prism, roll, pitch, yaw, lever)
            # Filled directly: these are what the dataclass __init__ would store.
            # (Setting each attribute keeps the compact per-instance layout;
            # going through __dict__ would add a dict to every object.)
            attitude = new(Attitude)
            put(attitude, "roll", roll)
            put(attitude, "pitch", pitch)
            put(attitude, "yaw", yaw)
            record = new(FusedRecord)
            put(record, "timestamp", obs.timestamp)
            put(record, "prism_nav", np.array(prism))
            put(record, "poi_nav", np.array(poi))
            put(record, "attitude_used", attitude)
            put(record, "alpha_used", alpha)
            put(record, "imu_timestamp_used", self._att_times[idx])
            records.append(record)
        return records

    def replay(
        self, imu: Sequence[ImuSample], rts: Sequence[RtsObservation]
    ) -> list[FusedRecord]:
        """Feed two recorded streams in timestamp order and return every record.

        The streams are merged by timestamp, IMU first on ties. The pipeline
        drains after each observation and once more at the end, so an
        observation is paired as soon as its attitude exists. Observations
        still waiting at the end stay buffered (see :attr:`rts_buffered`).
        A rejected IMU sample raises ValueError, as in :meth:`push_imu`.
        """
        records = []
        i = j = 0
        while i < len(imu) or j < len(rts):
            if j >= len(rts) or (i < len(imu) and imu[i].timestamp <= rts[j].timestamp):
                self.push_imu(imu[i])
                i += 1
            else:
                self.push_rts(rts[j])
                j += 1
                records.extend(self.drain())
        records.extend(self.drain())
        return records
