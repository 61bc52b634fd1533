"""Online training of per-feature mean/std and composite z-score inference.

Training keeps one Welford accumulator per feature (count, mean, M2), so
model state is constant regardless of how many cycles are seen.  The
finalized model holds exactly ten statistics: mean and standard deviation
for each of the five cycle features.  Standard deviations use the
population form (divide by count).
"""

import itertools
import math
from dataclasses import dataclass, field
from typing import List, TextIO, Tuple

from .cycle_tracker import CycleFeatures
from .errors import InsufficientTrainingError, InvalidInputError

FEATURE_NAMES = ("rms_last", "rms_mean", "rms_std", "rms_slope", "duration_on")
N_FEATURES = len(FEATURE_NAMES)
# the model text's keys, in line order
_MODEL_KEYS = ("trained_on", *(f"{s}.{name}" for name in FEATURE_NAMES for s in ("mean", "std")))

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
        # below 2**500, each M2 term is below 2**1002: finite for under 2**21 cycles
        if not abs(x) < 2.0 ** 500:
            raise InvalidInputError(f"feature value {x!r} is not below 2**500 in magnitude")
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
        # in model-text line order; the column is the refused value's line
        if type(self.trained_on) is not int or self.trained_on < 2:
            raise InvalidInputError("trained_on must be an int of at least 2", 1)
        for line, v in enumerate(itertools.chain.from_iterable(zip(self.mean, self.std)), 2):
            if not math.isfinite(v):
                raise InvalidInputError("model means and stds must be finite", line)
            if line % 2 and v <= 0:  # a std line
                raise InvalidInputError("finalized stds must be positive", line)

    def to_text(self) -> str:
        """Plain-text key-value block; floats use shortest round-trip repr."""
        values = (self.trained_on, *itertools.chain.from_iterable(zip(self.mean, self.std)))
        return "".join(f"{key}={value!r}\n" for key, value in zip(_MODEL_KEYS, values))

    @classmethod
    def from_text(cls, text: str) -> "ModelParams":
        """The model whose ``to_text()`` is ``text``, which may lack its
        final newline.  Any other text raises InvalidInputError naming a
        model line: that of a value the model refuses, with the check's
        words, or else the first line that differs from what it writes."""
        values = dict(line.partition("=")[::2] for line in text.split("\n"))
        nums = []
        for i, key in enumerate(_MODEL_KEYS, 1):
            try:  # trained_on, the first key, is an int
                nums.append((float if nums else int)(values[key]))
            except (KeyError, ValueError):
                raise InvalidInputError(f"model line {i} should read {key}=<number>") from None
        try:
            model = cls(mean=tuple(nums[1::2]), std=tuple(nums[2::2]), trained_on=nums[0])
        except InvalidInputError as exc:
            raise InvalidInputError(f"model line {exc.column} is refused: {exc}") from None
        written = model.to_text()
        if text != written and text + "\n" != written:
            lines = itertools.zip_longest(text.splitlines(True), written.splitlines(True))
            i, got, want = next((i, a, b) for i, (a, b) in enumerate(lines, 1) if a != b)
            raise InvalidInputError(f"model line {i} is {got!r}; its values write {want!r}")
        return model

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
