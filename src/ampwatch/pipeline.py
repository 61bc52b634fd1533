"""End-to-end streaming pipeline: train -> infer -> log, watchdog included.

The pipeline consumes RMS records in timestamp order.  The first
``training_cycles`` completed ON cycles feed the online statistics; the
model is then finalized once and every later cycle is scored against it.
The OFF-state watchdog runs in both phases (a power outage during
training is still a fault) and its events are reported separately from
z-score detections.
"""

import statistics
import time
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Tuple

from .cycle_tracker import (
    CompressorState,
    CycleFeatures,
    CycleTracker,
    StateThresholds,
    WatchdogConfig,
    check_watchdog,
)
from .errors import InsufficientTrainingError, InvalidInputError
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


@dataclass
class PipelineConfig:
    on_enter_amps: float = 0.45
    off_enter_amps: float = 0.20
    training_cycles: int = 50
    z_threshold: float = DEFAULT_THRESHOLD
    watchdog_off_limit_s: float = 3600.0
    sigma_min: float = DEFAULT_SIGMA_MIN
    match_grace_s: float = 7200.0

    def __post_init__(self):
        if self.training_cycles < 2:
            raise InvalidInputError("training_cycles must be at least 2")
        for name in (
            "on_enter_amps",
            "off_enter_amps",
            "z_threshold",
            "watchdog_off_limit_s",
            "sigma_min",
            "match_grace_s",
        ):
            if getattr(self, name) <= 0:
                raise InvalidInputError(f"{name} must be positive")

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
        self.wd_config = config.watchdog()
        self.stats = FeatureStats()
        self.model = model
        self.detector = DetectorState(threshold=config.z_threshold)
        self.off_since: Optional[int] = None
        self.wd_fired = False
        self.last_composite: Optional[float] = None

    def step(self, record: RmsRecord) -> Tuple[LogRecord, Optional[AnomalyEvent]]:
        """Feed one record; only ``timestamp_s`` and ``rms_amps`` are read.

        At most one event fires: a z-score event closes a cycle on the
        record that starts the OFF streak, where the watchdog cannot fire.
        """
        tracker = self.tracker
        features = tracker.ingest(record)
        event = None
        z_col = self.last_composite

        if features is not None:
            if self.model is None:
                train_update(self.stats, features)
                if self.stats.count >= self.config.training_cycles:
                    self.model = finalize(self.stats, self.config.sigma_min)
            else:
                res = score(self.model, features)
                self.last_composite = z_col = res.composite
                if detect(self.detector, res.composite):
                    event = AnomalyEvent(
                        kind=EventKind.ZSCORE,
                        detected_at_s=record.timestamp_s,
                        composite=res.composite,
                        streak=self.detector.streak,
                        cycle_start_s=tracker.last_cycle_start_s,
                        cycle_end_s=tracker.last_cycle_end_s,
                    )

        if tracker.state == CompressorState.OFF:
            if self.off_since is None:
                # stream starts OFF, or an ON->OFF transition just happened
                self.off_since = record.timestamp_s
                self.wd_fired = False
            wd_event = check_watchdog(
                record.timestamp_s, self.off_since, self.wd_config, self.wd_fired,
                self.detector.streak,
            )
            if wd_event is not None:
                self.wd_fired = True
                event = wd_event
        else:
            self.off_since = None
            self.wd_fired = False

        log_record = LogRecord(
            timestamp_s=record.timestamp_s,
            rms_amps=record.rms_amps,
            composite_z=z_col,
            anomaly_flag=0 if event is None else 1,
            event_kind=EventKind.NONE if event is None else event.kind,
        )
        return log_record, event

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
    result = PipelineResult()
    for record in records:
        log_record, event = monitor.step(record)
        result.log_records.append(log_record)
        if event is not None:
            result.events.append(event)
    result.model = monitor.finish()
    return result


def profile_inference(params: ModelParams, threshold: float = DEFAULT_THRESHOLD,
                      n_trials: int = 10_000) -> dict:
    """Wall-clock profile of one score+detect call on the host.

    Absolute MCU latencies are not reproducible here; the meaningful
    properties are the sub-millisecond budget and independence from the
    training-set size.  Also reports the model-state footprint.
    """
    if n_trials <= 0:
        raise InvalidInputError("n_trials must be positive")
    detector = DetectorState(threshold=threshold)
    probe = CycleFeatures(
        rms_last_amps=params.mean[0],
        rms_mean_amps=params.mean[1],
        rms_std_amps=params.mean[2],
        rms_slope_amps_per_s=params.mean[3],
        duration_on_s=params.mean[4],
    )
    times = []
    for _ in range(n_trials):
        t0 = time.perf_counter()
        res = score(params, probe)
        detect(detector, res.composite)
        times.append(time.perf_counter() - t0)
    times.sort()
    return {
        "n_trials": n_trials,
        "min_s": times[0],
        "median_s": statistics.median(times),
        "p99_s": times[int(0.99 * (n_trials - 1))],
        "stat_values": len(params.mean) + len(params.std),
        "counters": 1,
        "trained_on": params.trained_on,
    }
