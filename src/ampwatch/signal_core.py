"""Raw-sample front end: ADC count conversion and block RMS.

The rest of the pipeline works in amperes; converting ADC counts is an
optional ingestion step for setups that log raw counts.
"""

import math
import operator
from dataclasses import dataclass
from typing import Sequence

from .errors import InvalidInputError

# fsum totals below this may have lost bits to subnormal squares
_MIN_EXACT_SUM = 2.0 ** -960


@dataclass(frozen=True)
class AdcParams:
    """Linear model of a hall-effect current sensor behind an ADC."""

    resolution_counts: int = 4095
    vref_volts: float = 3.3
    midrail_volts: float = 1.65
    sensitivity_volts_per_amp: float = 0.1

    def __post_init__(self):
        if self.resolution_counts <= 0:
            raise InvalidInputError("resolution_counts must be positive")
        if self.sensitivity_volts_per_amp <= 0:
            raise InvalidInputError("sensitivity must be positive")
        if not 0 <= self.midrail_volts <= self.vref_volts:
            raise InvalidInputError("midrail must lie within [0, vref]")


@dataclass(frozen=True)
class SampleBlock:
    """One acquisition window of instantaneous current samples (amperes)."""

    samples: Sequence[float]
    sample_rate_hz: float

    def __post_init__(self):
        if len(self.samples) == 0:
            raise InvalidInputError("sample block must not be empty")
        if self.sample_rate_hz <= 0:
            raise InvalidInputError("sample_rate_hz must be positive")
        if not all(map(math.isfinite, self.samples)):
            raise InvalidInputError("sample block contains non-finite value")


@dataclass(slots=True)
class RmsRecord:
    """Timestamped RMS value; the pipeline's unit of streaming data."""

    timestamp_s: int
    rms_amps: float

    def __post_init__(self):
        # one chained compare: rejects negatives, inf and NaN
        if not 0 <= self.rms_amps < math.inf:
            raise InvalidInputError("rms_amps must be finite and non-negative")


def compute_rms(block: SampleBlock) -> float:
    """Root mean square of the block's samples.

    Squared samples are accumulated with math.fsum, so the result is
    bit-identical under any permutation of the input.  When the squares
    would underflow or overflow, the samples are first scaled by an exact
    power of two and the result scaled back.
    """
    samples = block.samples
    n = len(samples)
    if n == 0:
        raise InvalidInputError("cannot compute RMS of an empty block")
    try:
        total = math.fsum(map(operator.mul, samples, samples))
    except OverflowError:
        total = math.inf
    if _MIN_EXACT_SUM <= total < math.inf:
        return math.sqrt(total / n)
    peak = max(map(abs, samples))
    if peak == 0.0:
        return 0.0
    _, exp = math.frexp(peak)
    total = math.fsum(math.ldexp(s, -exp) ** 2 for s in samples)
    return math.ldexp(math.sqrt(total / n), exp)


def adc_to_amps(count: int, params: AdcParams) -> float:
    """Convert a raw ADC count to amperes through the sensor's linear model."""
    if not 0 <= count <= params.resolution_counts:
        raise InvalidInputError(
            f"ADC count {count} outside [0, {params.resolution_counts}]"
        )
    volts = (count / params.resolution_counts) * params.vref_volts
    return (volts - params.midrail_volts) / params.sensitivity_volts_per_amp
