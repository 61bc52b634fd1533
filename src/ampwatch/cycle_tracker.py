"""Compressor ON/OFF tracking, per-cycle feature extraction, OFF watchdog.

State classification uses hysteresis: distinct upward and downward RMS
cutoffs so noise near a single boundary cannot chatter the state.  While
ON, the tracker keeps only constant-size accumulators (Welford for the
RMS moments, plain sums for the regression); the full cycle is never
buffered.
"""

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .errors import InvalidInputError, StreamOrderError
from .event_log import AnomalyEvent, EventKind
from .signal_core import RmsRecord


class CompressorState(Enum):
    OFF = "off"
    ON = "on"


# the per-record path reads these module globals: reading a member
# through its Enum class costs about ten times as much
_OFF, _ON = CompressorState.OFF, CompressorState.ON


@dataclass(frozen=True)
class StateThresholds:
    """Hysteresis band: rms > on_enter switches ON, rms < off_enter OFF."""

    on_enter_amps: float = 0.45
    off_enter_amps: float = 0.20

    def __post_init__(self):
        if not 0 < self.off_enter_amps < self.on_enter_amps < math.inf:
            raise InvalidInputError("need 0 < off_enter < on_enter < inf")


@dataclass(frozen=True)
class CycleFeatures:
    """The five per-cycle features fed to the statistical model."""

    rms_last_amps: float
    rms_mean_amps: float
    rms_std_amps: float
    rms_slope_amps_per_s: float
    duration_on_s: float

    def as_vector(self):
        return (
            self.rms_last_amps,
            self.rms_mean_amps,
            self.rms_std_amps,
            self.rms_slope_amps_per_s,
            self.duration_on_s,
        )


@dataclass(frozen=True)
class WatchdogConfig:
    off_limit_s: float = 3600.0

    def __post_init__(self):
        if not 0 < self.off_limit_s < math.inf:
            raise InvalidInputError("off_limit_s must be finite and positive")


def check_watchdog(
    now_s: int,
    off_since_s: int,
    config: WatchdogConfig,
    already_fired: bool,
    streak: int = 0,
) -> Optional[AnomalyEvent]:
    """Fire once per continuous OFF period when its length exceeds the limit."""
    if already_fired:
        return None
    if now_s - off_since_s > config.off_limit_s:
        return AnomalyEvent(kind=EventKind.WATCHDOG, detected_at_s=now_s, composite=None,
                            streak=streak, cycle_start_s=off_since_s, cycle_end_s=now_s)
    return None


class CycleTracker:
    """Classifies a record stream and emits one CycleFeatures per ON cycle.

    A cycle spans from the first record classified ON to the record that
    triggers the ON->OFF transition; that trigger record's timestamp
    closes the cycle but its (OFF-level) RMS is not part of the cycle
    statistics.
    """

    def __init__(self, thresholds: StateThresholds = StateThresholds()):
        self.thresholds = thresholds
        self.state = CompressorState.OFF
        self.last_timestamp_s: Optional[int] = None
        # start of the current OFF streak: the first record or the last ON->OFF trigger
        self.off_since_s: Optional[int] = None
        # start of the most recent ON cycle, open or just closed: set on ON entry
        self.last_cycle_start_s: Optional[int] = None
        self._reset_cycle()

    def _reset_cycle(self):
        self._n = 0
        self._mean = 0.0
        self._m2 = 0.0
        self._last_rms = 0.0
        # centered regression moments over (elapsed seconds, rms); the
        # co-moment form keeps the slope exactly 0 for constant cycles
        self._mean_e = 0.0
        self._see = 0.0
        self._ser = 0.0

    def _accumulate(self, record: RmsRecord):
        self._n += 1
        x = record.rms_amps
        e = float(record.timestamp_s - self.last_cycle_start_s)
        delta_e = e - self._mean_e
        self._mean_e += delta_e / self._n
        delta = x - self._mean
        self._mean += delta / self._n
        self._m2 += delta * (x - self._mean)
        self._see += delta_e * (e - self._mean_e)
        self._ser += delta_e * (x - self._mean)
        self._last_rms = x

    def _finish_cycle(self, trigger: RmsRecord) -> CycleFeatures:
        n = self._n
        std = math.sqrt(self._m2 / n) if n > 0 else 0.0
        slope = self._ser / self._see if self._see > 0 else 0.0
        duration = float(trigger.timestamp_s - self.last_cycle_start_s)
        features = CycleFeatures(
            rms_last_amps=self._last_rms,
            rms_mean_amps=self._mean,
            rms_std_amps=std,
            rms_slope_amps_per_s=slope,
            duration_on_s=duration,
        )
        self.off_since_s = trigger.timestamp_s
        self._reset_cycle()
        return features

    def ingest(self, record: RmsRecord) -> Optional[CycleFeatures]:
        """Feed one record, its ts an int and its rms in [0, inf) (LogRecord's
        checks and messages, without the log's digit bounds), checked before
        any state is written; returns features when it closes an ON cycle."""
        ts, rms = record.timestamp_s, record.rms_amps
        if type(ts) is not int:
            raise InvalidInputError(f"timestamp_s must be an int, got {ts!r}", 1)
        if not 0 <= rms < math.inf:
            raise InvalidInputError("rms_amps must be finite and non-negative", 2)
        if self.last_timestamp_s is None:
            self.off_since_s = ts
        elif ts <= self.last_timestamp_s:
            raise StreamOrderError(f"timestamp {ts} not after {self.last_timestamp_s}")
        self.last_timestamp_s = ts

        # the hysteresis: inside the band the state is held
        if self.state is _OFF:
            if rms > self.thresholds.on_enter_amps:
                self.state = _ON
                self.last_cycle_start_s = ts
                self._accumulate(record)
            return None
        if rms < self.thresholds.off_enter_amps:
            self.state = _OFF
            return self._finish_cycle(record)
        self._accumulate(record)
        return None
