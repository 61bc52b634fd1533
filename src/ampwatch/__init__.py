"""Fixed-memory streaming anomaly detection for appliance current traces."""

from .cycle_tracker import (
    CompressorState,
    CycleFeatures,
    CycleTracker,
    StateThresholds,
    WatchdogConfig,
    check_watchdog,
)
from .errors import (
    AmpwatchError,
    InsufficientTrainingError,
    InvalidInputError,
    InvalidScenarioError,
    LogParseError,
    StreamOrderError,
)
from .evaluation import EvalReport, evaluate
from .event_log import (
    AnomalyEvent,
    EventKind,
    LogRecord,
    parse_record,
)
from .pipeline import Monitor, PipelineConfig, PipelineResult, profile_inference, run_pipeline
from .signal_core import AdcParams, RmsRecord, SampleBlock, adc_to_amps, compute_rms
from .simulator import (
    AnomalyScenario,
    ApplianceProfile,
    GroundTruthLabel,
    ScenarioKind,
    generate_trace,
    generate_waveform,
    iter_trace,
)
from .zscore_model import (
    DetectorState,
    FeatureStats,
    ModelParams,
    ScoreResult,
    detect,
    finalize,
    score,
    train_update,
)

__version__ = "0.1.0"
