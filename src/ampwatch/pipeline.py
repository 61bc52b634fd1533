"""End-to-end streaming pipeline: train -> infer -> log, watchdog included.

The pipeline consumes RMS records in timestamp order.  The first
``training_cycles`` completed ON cycles feed the online statistics; the
model is then finalized once and every later cycle is scored against it.
The OFF-state watchdog runs in both phases (a power outage during
training is still a fault) and its events are reported separately from
z-score detections.
"""

import math
import time
from dataclasses import dataclass, field, fields
from typing import Iterable, Iterator, List, Optional

from .cycle_tracker import (
    CompressorState,
    CycleFeatures,
    CycleTracker,
    StateThresholds,
    WatchdogConfig,
    check_watchdog,
)
from .errors import InsufficientTrainingError, InvalidInputError
from .evaluation import DEFAULT_MATCH_GRACE_S
from .event_log import AnomalyEvent, EventKind, LogRecord
from .signal_core import RmsRecord
from .zscore_model import (
    DEFAULT_SIGMA_MIN,
    DEFAULT_THRESHOLD,
    DetectorState,
    FeatureStats,
    ModelParams,
    detect,
    finalize,
    score,
    train_update,
)


# score+detect calls per clock-read pair in profile_inference
PROFILE_BATCH = 100
# Enum members read once here: through the class, each read costs ~0.15 us
_OFF, _NO_EVENT = CompressorState.OFF, EventKind.NONE


@dataclass
class PipelineConfig:
    on_enter_amps: float = StateThresholds.on_enter_amps
    off_enter_amps: float = StateThresholds.off_enter_amps
    training_cycles: int = 50
    z_threshold: float = DEFAULT_THRESHOLD
    watchdog_off_limit_s: float = WatchdogConfig.off_limit_s
    sigma_min: float = DEFAULT_SIGMA_MIN
    match_grace_s: float = DEFAULT_MATCH_GRACE_S

    def __post_init__(self):
        if type(self.training_cycles) is not int or self.training_cycles < 2:
            raise InvalidInputError("training_cycles must be an integer of at least 2")
        for f in fields(self):
            if (f.type is float and f.name != "match_grace_s"
                    and not 0 < getattr(self, f.name) < math.inf):
                raise InvalidInputError(f"{f.name} must be finite and positive")
        if not 0 <= self.match_grace_s < math.inf:  # evaluate's rule
            raise InvalidInputError("match_grace_s must be finite and non-negative")
        self.thresholds()

    def thresholds(self) -> StateThresholds:
        return StateThresholds(self.on_enter_amps, self.off_enter_amps)

    def watchdog(self) -> WatchdogConfig:
        return WatchdogConfig(self.watchdog_off_limit_s)


@dataclass
class PipelineResult:
    log_records: List[LogRecord] = field(default_factory=list)
    events: List[AnomalyEvent] = field(default_factory=list)
    model: Optional[ModelParams] = None


class Monitor:
    """The streaming detector, in fixed-size state: one record in, one log
    record out.  A pre-trained ``model`` skips the training phase.
    """

    def __init__(self, config: PipelineConfig, model: Optional[ModelParams] = None):
        self.config = config
        self.tracker = CycleTracker(config.thresholds())
        self.stats = FeatureStats()
        self.model = model
        self.detector = DetectorState(threshold=config.z_threshold)
        self.last_composite: Optional[float] = None

    def run(self, records: Iterable[RmsRecord],
            events: List[AnomalyEvent]) -> Iterator[LogRecord]:
        """Feed ``records``, yielding each log record and appending each
        event to ``events``; call ``finish`` once the stream ends.  Only
        ``timestamp_s`` and ``rms_amps`` are read.

        A record either closes a cycle (``_close_cycle``) or may fire the
        watchdog (``check_watchdog``), never both.  It fires on the first OFF
        record more than the limit after the tracker's ``off_since_s``:
        timestamps increase, so that is the one whose predecessor was not.
        State is written back on every record, so a run may be left
        part-consumed and the stream continued by another ``run``.
        ``ingest`` checks each record and ``detect`` each z, so every log
        record is built without a second call into ``__init__``.
        """
        tracker = self.tracker
        ingest, off_limit_s = tracker.ingest, self.config.watchdog_off_limit_s
        new = object.__new__
        prev_ts = tracker.last_timestamp_s
        for record in records:
            features = ingest(record)
            ts = record.timestamp_s
            event = None
            if features is not None:
                event = self._close_cycle(features, ts)
            elif (tracker.state is _OFF and ts - tracker.off_since_s > off_limit_s
                  and not prev_ts - tracker.off_since_s > off_limit_s):
                # the config is built on firing: held for the run, it raised the CLI's peak
                event = check_watchdog(ts, tracker.off_since_s, self.config.watchdog(), False,
                                       self.detector.streak)
            prev_ts = ts
            rec = new(LogRecord)
            rec.timestamp_s = ts
            rec.rms_amps = record.rms_amps
            rec.composite_z = self.last_composite
            if event is None:
                rec.event_kind = _NO_EVENT
            else:
                events.append(event)
                rec.event_kind = event.kind
            yield rec

    def _close_cycle(self, features: CycleFeatures, ts: int) -> Optional[AnomalyEvent]:
        """Train on, or score and detect, the cycle that record ``ts``
        closed, which began at the tracker's ``last_cycle_start_s``."""
        if self.model is None:
            train_update(self.stats, features)
            if self.stats.count >= self.config.training_cycles:
                self.model = finalize(self.stats, self.config.sigma_min)
            return None
        composite = score(self.model, features).composite
        anomalous = detect(self.detector, composite)  # refuses a non-finite one
        self.last_composite = composite
        if not anomalous:
            return None
        return AnomalyEvent(kind=EventKind.ZSCORE, detected_at_s=ts, composite=composite,
                            streak=self.detector.streak,
                            cycle_start_s=self.tracker.last_cycle_start_s, cycle_end_s=ts)

    def finish(self) -> ModelParams:
        """End of stream: the model, or InsufficientTrainingError."""
        if self.model is None:
            raise InsufficientTrainingError(
                f"stream ended after {self.stats.count} completed cycles; "
                f"{self.config.training_cycles} required"
            )
        return self.model


def run_pipeline(
    config: PipelineConfig,
    records: Iterable[RmsRecord],
    model: Optional[ModelParams] = None,
) -> PipelineResult:
    """Run a Monitor over the stream; collect its log, events and model."""
    monitor = Monitor(config, model)
    events: List[AnomalyEvent] = []
    log_records = list(monitor.run(records, events))
    return PipelineResult(log_records, events, monitor.finish())


def profile_inference(params: ModelParams, threshold: float = DEFAULT_THRESHOLD,
                      n_trials: int = 10_000) -> dict:
    """Wall-clock profile of one score+detect call on the host.

    Calls are timed in batches of PROFILE_BATCH between one pair of
    clock reads, so the timer's own cost stays out of the result; min,
    median and p99 are taken over the batches' per-call means.  Absolute
    MCU latencies are not reproducible here; the meaningful properties
    are the sub-millisecond budget and independence from the
    training-set size.  Also reports the model-state footprint.
    """
    if n_trials <= 0:
        raise InvalidInputError("n_trials must be positive")
    detector = DetectorState(threshold=threshold)
    probe = CycleFeatures(*params.mean)
    means = []
    for start in range(0, n_trials, PROFILE_BATCH):
        calls = range(min(PROFILE_BATCH, n_trials - start))
        t0 = time.perf_counter()
        for _ in calls:
            detect(detector, score(params, probe).composite)
        means.append((time.perf_counter() - t0) / len(calls))
    means.sort()
    n = len(means)
    return {
        "n_trials": n_trials,
        "min_s": means[0],
        "median_s": (means[(n - 1) // 2] + means[n // 2]) / 2,
        "p99_s": means[int(0.99 * (n - 1))],
        "stat_values": len(params.mean) + len(params.std),
        "counters": 1,
        "trained_on": params.trained_on,
    }
