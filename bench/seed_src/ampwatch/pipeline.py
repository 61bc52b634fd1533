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
from typing import Iterable, List, Optional

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
    block_size: int = 1000
    record_interval_s: int = 30
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
            "block_size",
            "record_interval_s",
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


def run_pipeline(
    config: PipelineConfig,
    records: Iterable[RmsRecord],
    model: Optional[ModelParams] = None,
) -> PipelineResult:
    """Run the two-phase workflow over a record stream.

    With a pre-trained ``model`` the training phase is skipped and every
    completed cycle is scored.  Raises InsufficientTrainingError if the
    stream ends before training completes.
    """
    tracker = CycleTracker(config.thresholds())
    wd_config = config.watchdog()
    stats = FeatureStats()
    params = model
    detector = DetectorState(threshold=config.z_threshold)
    result = PipelineResult()

    off_since: Optional[int] = None
    wd_fired = False
    last_composite: Optional[float] = None

    for record in records:
        features = tracker.ingest(record)
        flag = 0
        kind = EventKind.NONE
        z_col = last_composite

        if features is not None:
            if params is None:
                train_update(stats, features)
                if stats.count >= config.training_cycles:
                    params = finalize(stats, config.sigma_min)
                    result.model = params
            else:
                res = score(params, features)
                last_composite = res.composite
                z_col = res.composite
                if detect(detector, res.composite):
                    event = AnomalyEvent(
                        kind=EventKind.ZSCORE,
                        detected_at_s=record.timestamp_s,
                        composite=res.composite,
                        streak=detector.streak,
                        cycle_start_s=tracker.last_cycle_start_s,
                        cycle_end_s=tracker.last_cycle_end_s,
                    )
                    result.events.append(event)
                    flag = 1
                    kind = EventKind.ZSCORE

        if tracker.state == CompressorState.OFF:
            if off_since is None:
                # stream starts OFF, or an ON->OFF transition just happened
                off_since = record.timestamp_s
                wd_fired = False
            wd_event = check_watchdog(
                record.timestamp_s, off_since, wd_config, wd_fired, detector.streak
            )
            if wd_event is not None:
                wd_fired = True
                result.events.append(wd_event)
                flag = 1
                kind = EventKind.WATCHDOG
        else:
            off_since = None
            wd_fired = False

        result.log_records.append(
            LogRecord(
                timestamp_s=record.timestamp_s,
                rms_amps=record.rms_amps,
                composite_z=z_col,
                anomaly_flag=flag,
                event_kind=kind,
            )
        )

    if params is None and model is None:
        raise InsufficientTrainingError(
            f"stream ended after {stats.count} completed cycles; "
            f"{config.training_cycles} required"
        )
    if result.model is None:
        result.model = params
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
