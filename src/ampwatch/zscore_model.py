"""Online training of per-feature mean/std and composite z-score inference.

Training keeps one Welford accumulator per feature (count, mean, M2), so
model state is constant regardless of how many cycles are seen.  The
finalized model holds exactly ten statistics: mean and standard deviation
for each of the five cycle features.  Standard deviations use the
population form (divide by count).
"""

import math
from dataclasses import dataclass, field
from typing import List, Optional, TextIO, Tuple

from .cycle_tracker import CycleFeatures
from .errors import InsufficientTrainingError, InvalidInputError

FEATURE_NAMES = ("rms_last", "rms_mean", "rms_std", "rms_slope", "duration_on")
N_FEATURES = len(FEATURE_NAMES)

DEFAULT_SIGMA_MIN = 1e-6
DEFAULT_THRESHOLD = 2.5


@dataclass
class FeatureStats:
    """Running statistics over training cycles; fixed size by construction."""

    count: int = 0
    mean: List[float] = field(default_factory=lambda: [0.0] * N_FEATURES)
    m2: List[float] = field(default_factory=lambda: [0.0] * N_FEATURES)


def train_update(stats: FeatureStats, features: CycleFeatures) -> FeatureStats:
    """Welford update of all five features from one completed cycle."""
    vec = features.as_vector()
    for x in vec:
        if not math.isfinite(x):
            raise InvalidInputError(f"non-finite feature value {x!r}")
    stats.count += 1
    n = stats.count
    for k, x in enumerate(vec):
        delta = x - stats.mean[k]
        stats.mean[k] += delta / n
        stats.m2[k] += delta * (x - stats.mean[k])
    return stats


@dataclass(frozen=True)
class ModelParams:
    """The ten learned statistics plus the training-cycle counter."""

    mean: Tuple[float, ...]
    std: Tuple[float, ...]
    trained_on: int

    def __post_init__(self):
        if len(self.mean) != N_FEATURES or len(self.std) != N_FEATURES:
            raise InvalidInputError("model must hold 5 means and 5 stds")
        if not all(math.isfinite(v) for v in (*self.mean, *self.std)):
            raise InvalidInputError("model means and stds must be finite")
        if any(s <= 0 for s in self.std):
            raise InvalidInputError("finalized stds must be positive")
        if type(self.trained_on) is not int or self.trained_on < 2:
            raise InvalidInputError("trained_on must be an int of at least 2")

    def to_text(self) -> str:
        """Plain-text key-value block; floats use shortest round-trip repr."""
        lines = [f"trained_on={self.trained_on}"]
        for k, name in enumerate(FEATURE_NAMES):
            lines.append(f"mean.{name}={self.mean[k]!r}")
            lines.append(f"std.{name}={self.std[k]!r}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "ModelParams":
        kv = {}
        for raw in text.splitlines():
            raw = raw.strip()
            if not raw or raw.startswith("#"):
                continue
            if "=" not in raw:
                raise InvalidInputError(f"bad model line {raw!r}")
            key, val = raw.split("=", 1)
            kv[key.strip()] = val.strip()
        try:
            trained_on = int(kv.pop("trained_on"))
            mean = tuple(float(kv.pop(f"mean.{n}")) for n in FEATURE_NAMES)
            std = tuple(float(kv.pop(f"std.{n}")) for n in FEATURE_NAMES)
        except KeyError as exc:
            raise InvalidInputError(f"missing model key {exc}") from None
        except ValueError as exc:
            raise InvalidInputError(f"bad model value: {exc}") from None
        if kv:
            raise InvalidInputError(f"unexpected model keys {sorted(kv)}")
        return cls(mean=mean, std=std, trained_on=trained_on)

    def save(self, fh: TextIO) -> None:
        fh.write(self.to_text())

    @classmethod
    def load(cls, fh: TextIO) -> "ModelParams":
        return cls.from_text(fh.read())


def finalize(stats: FeatureStats, sigma_min: float = DEFAULT_SIGMA_MIN) -> ModelParams:
    """Freeze training statistics into model parameters.

    Population std, floored at sigma_min so zero-variance features cannot
    divide by zero later.
    """
    if stats.count < 2:
        raise InsufficientTrainingError(
            f"need at least 2 training cycles, got {stats.count}"
        )
    std = tuple([max(math.sqrt(stats.m2[k] / stats.count), sigma_min)
                 for k in range(N_FEATURES)])
    return ModelParams(mean=tuple(stats.mean), std=std, trained_on=stats.count)


@dataclass(frozen=True)
class ScoreResult:
    z: Tuple[float, ...]
    composite: float


def score(params: ModelParams, features: CycleFeatures) -> ScoreResult:
    """Per-feature z-scores and their equal-weight absolute average.

    The five |z| are added left to right, the order a C port must match;
    sum() would not do, as it is compensated from Python 3.12 on.  Each
    tuple is built at its exact size, so scoring leaves CPython's tuple
    free lists as it found them and memory stays flat in closed cycles.
    """
    vec = features.as_vector()
    z = tuple([(x - m) / s for x, m, s in zip(vec, params.mean, params.std)])
    z0, z1, z2, z3, z4 = z
    composite = (abs(z0) + abs(z1) + abs(z2) + abs(z3) + abs(z4)) / N_FEATURES
    return ScoreResult(z=z, composite=composite)


@dataclass
class DetectorState:
    """Threshold decision plus consecutive-anomaly streak."""

    threshold: float = DEFAULT_THRESHOLD
    streak: int = 0

    def __post_init__(self):
        if not 0 < self.threshold < math.inf:
            raise InvalidInputError("threshold must be finite and positive")


def detect(state: DetectorState, composite: float) -> bool:
    """Strict comparison: a composite exactly at the threshold is normal."""
    if not math.isfinite(composite):
        raise InvalidInputError("composite score must be finite")
    is_anomaly = composite > state.threshold
    if is_anomaly:
        state.streak += 1
    else:
        state.streak = 0
    return is_anomaly
