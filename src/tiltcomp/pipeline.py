"""Fusion of an ~100 Hz IMU stream with an ~5 Hz total-station stream.

The two streams are decoupled: IMU samples drive gyro bias calibration and
then the attitude filter, while incoming observations wait in a bounded FIFO
ring buffer. :meth:`Pipeline.drain` pairs each buffered observation with the
most recent attitude estimate at or before the observation time (plus an
optional tolerance for live clocks) and emits tilt-corrected records.

Each paired observation is placed by one scalar kernel on plain floats: polar
to Cartesian (``geodesy._polar``), the Helmert map (``geodesy._helmert``) and
the rotated prism->POI lever (``kinematics._poi``). Each rotated component is
the left-to-right sum ``r0 * x + r1 * y + r2 * z``, with no array and no BLAS
call, so a record's prism and POI have the same bits on every CPU.
:func:`polar_to_cartesian`, :func:`apply_helmert` and :func:`poi_position` run
the same three formulas, so :meth:`Pipeline.drain` gives their results bit for
bit while building only the two coordinate arrays each record holds. It
fills each :class:`FusedRecord` and its :class:`Attitude` directly, slot by
slot, without their dataclass ``__init__`` and ``__post_init__``: the
kernel's plain floats and two new float64 ``(3,)`` arrays are already what
those would store.

Both streams must carry timestamps from one shared clock. The pipeline is a
single state machine; its filter state is the newest entry of its attitude
history plus the heading :meth:`Pipeline.set_yaw` can change and the gyro
bias. All push/drain calls must be externally serialized. Offline replay is
strictly single-threaded and, with ``pairing_tolerance_s`` zero,
bit-deterministic for a given push ordering. The config is immutable (its
vectors are read-only arrays) and read once, when the pipeline is built.
"""

from __future__ import annotations

import math
import sys
from array import array
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ._fields import _check_fields, _ranged, _setters
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


@dataclass(frozen=True, slots=True)
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


_put_timestamp, _put_prism, _put_poi, _put_attitude, _put_alpha, _put_imu_timestamp = (
    _setters(FusedRecord)
)
_put_roll, _put_pitch, _put_yaw = _setters(Attitude)


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

    The attitude history is two float arrays: IMU timestamps, and roll,
    pitch, yaw and alpha per sample. Its newest entry is the filter state,
    with the heading :meth:`set_yaw` can change between samples and the gyro
    bias; from the seed step on, the attitude module's scalar kernel, the one
    :func:`filter_step` runs, advances it by one entry per sample.
    :class:`Attitude` objects are built only where they are handed out, by
    :meth:`drain` and :attr:`latest_attitude`. The immutable config is read
    once, at construction; :attr:`config` is read-only.
    """

    def __init__(self, config: PipelineConfig | None = None):
        self._config = config = config if config is not None else PipelineConfig()
        self._filter_config, self._hold_yaw = config.filter_config, config.hold_yaw
        self._lever = tuple(prism_to_poi_body(config.lever_arms).tolist())
        self._calib_samples: list[ImuSample] = []
        self._bias: tuple[float, float, float] | None = None
        self._yaw = 0.0
        self._att_times = array("d")
        self._att_values = array("d")
        # A deque refuses a maxlen above sys.maxsize, more than it could hold.
        self._buffer = deque(maxlen=min(config.rts_buffer_capacity, sys.maxsize))
        self._dropped = 0

    @property
    def config(self) -> PipelineConfig:
        """The settings this pipeline was built with."""
        return self._config

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
        return self._att_times[-1], Attitude(*self._att_values[-4:-1])

    @property
    def rts_buffered(self) -> int:
        return len(self._buffer)

    @property
    def rts_dropped(self) -> int:
        """Observations that will never give a record, since construction:
        those evicted by ring-buffer overflow, and those :meth:`drain` found
        earlier than the first attitude estimate."""
        return self._dropped

    def push_imu(self, sample: ImuSample) -> None:
        """Feed one IMU sample: calibrates until the count is reached, then filters."""
        values = self._att_values
        if self._bias is not None:
            step = _step(
                values[-4], values[-3], self._yaw, self._att_times[-1],
                sample, self._bias, self._filter_config,
            )
        elif (step := self._calibrate(sample)) is None:
            return
        roll, pitch, yaw, alpha = step
        # A held yaw stays what set_yaw left; the kernel's integral is dropped.
        if not self._hold_yaw:
            self._yaw = yaw
        self._att_times.append(sample.timestamp)
        values.extend((roll, pitch, self._yaw, alpha))

    def _calibrate(self, sample: ImuSample) -> tuple[float, float, float, float] | None:
        """Collect an idle ``sample`` (None); the one that completes the count
        returns its seed step and fixes the bias once the kernel accepts it."""
        cfg, calib = self._filter_config, self._calib_samples
        _check_sample(sample, calib[-1].timestamp if calib else None)
        if len(calib) + 1 < cfg.bias_calibration_count:
            calib.append(sample)
            return None
        bias = tuple(calibrate_bias([*calib, sample], cfg.bias_calibration_count).tolist())
        # A seed step reads neither roll nor pitch.
        step = _step(0.0, 0.0, self._yaw, None, sample, bias, cfg)
        calib.clear()
        self._bias = bias
        return step

    def push_rts(self, obs: RtsObservation) -> None:
        """Buffer one observation; past capacity the oldest is dropped and counted."""
        if len(self._buffer) == self._buffer.maxlen:
            self._dropped += 1
        self._buffer.append(obs)

    def set_yaw(self, yaw: float) -> None:
        """Reset the heading used for lever-arm rotation (and the held value)."""
        self._yaw = _wrapped_yaw(yaw)

    def drain(self) -> list[FusedRecord]:
        """Pair and emit, in order, each buffered observation with an eligible attitude.

        Eligible means the attitude's IMU timestamp is at or before the
        observation timestamp minus ``rts_latency_s`` plus
        ``pairing_tolerance_s``; the latest such estimate is used. An
        observation with no eligible attitude is dropped and counted in
        :attr:`rts_dropped`, as IMU timestamps only grow; so once calibrated,
        a drain leaves no observation buffered. Returns an empty list during
        the calibration phase.
        """
        if self._bias is None:
            return []
        records = []
        cfg, lever = self._config, self._lever
        helmert = cfg.helmert
        new = object.__new__
        while self._buffer:
            obs = self._buffer.popleft()
            cutoff = obs.timestamp - cfg.rts_latency_s + cfg.pairing_tolerance_s
            idx = bisect_right(self._att_times, cutoff) - 1
            if idx < 0:
                self._dropped += 1
                continue
            roll, pitch, yaw, alpha = self._att_values[4 * idx : 4 * idx + 4]
            prism = _helmert(
                helmert, *_polar(obs.slant_distance, obs.horizontal_angle, obs.zenith_angle)
            )
            poi = _poi(*prism, roll, pitch, yaw, lever)
            # Filled directly, as the dataclass __init__s would: each value
            # goes into its slot through the setters bound at import.
            att = new(Attitude)
            _put_roll(att, roll)
            _put_pitch(att, pitch)
            _put_yaw(att, yaw)
            record = new(FusedRecord)
            _put_timestamp(record, obs.timestamp)
            _put_prism(record, np.array(prism))
            _put_poi(record, np.array(poi))
            _put_attitude(record, att)
            _put_alpha(record, alpha)
            _put_imu_timestamp(record, self._att_times[idx])
            records.append(record)
        return records

    def replay(
        self, imu: Sequence[ImuSample], rts: Sequence[RtsObservation]
    ) -> list[FusedRecord]:
        """Feed two recorded streams in timestamp order and return every record.

        The streams are merged by timestamp, IMU first on ties: each
        observation follows the IMU samples not yet fed stamped at or before
        it. The pipeline drains after each observation and once more at the
        end, so an observation is paired as soon as its attitude exists.
        Observations still waiting at the end, when calibration never
        completed, stay buffered (see :attr:`rts_buffered`). A rejected IMU
        sample raises ValueError, as in :meth:`push_imu`.
        """
        records = []
        i, n = 0, len(imu)
        for obs in rts:
            while i < n and imu[i].timestamp <= obs.timestamp:
                self.push_imu(imu[i])
                i += 1
            self.push_rts(obs)
            records.extend(self.drain())
        for k in range(i, n):
            self.push_imu(imu[k])
        records.extend(self.drain())
        return records
