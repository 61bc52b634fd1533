"""Raw-sample front end: ADC count conversion and block RMS.

The rest of the pipeline works in amperes; converting ADC counts is an
optional ingestion step for setups that log raw counts.  Each AdcParams
converts all of its resolution_counts + 1 counts once, when it is built
(about 126 KiB of floats at 12 bits; at most 16-bit resolution), so
adc_to_amps is a bound check and an index and takes integer counts only.
That table is host-side ingestion state, not detector state: the
Monitor's fixed memory does not include it.
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
        res = self.resolution_counts
        if type(res) is bool or not isinstance(res, int) or not 1 <= res <= 65535:
            raise InvalidInputError("resolution_counts must be an int in [1, 65535]")
        if not 0 < self.vref_volts < math.inf:
            raise InvalidInputError("vref must be finite and positive")
        if not 0 < self.sensitivity_volts_per_amp < math.inf:
            raise InvalidInputError("sensitivity must be finite and positive")
        if not 0 <= self.midrail_volts <= self.vref_volts:
            raise InvalidInputError("midrail must lie within [0, vref]")
        # every count's current, by the sensor's linear model; not a field,
        # so ==, hash, repr and asdict see only the four parameters
        vref, mid, sens = self.vref_volts, self.midrail_volts, self.sensitivity_volts_per_amp
        object.__setattr__(
            self, "_amps", tuple(((c / res) * vref - mid) / sens for c in range(res + 1)))


@dataclass(frozen=True)
class SampleBlock:
    """One acquisition window of instantaneous current samples (amperes)."""

    samples: Sequence[float]
    sample_rate_hz: float

    def __post_init__(self):
        if len(self.samples) == 0:
            raise InvalidInputError("sample block must not be empty")
        if not 0 < self.sample_rate_hz < math.inf:
            raise InvalidInputError("sample_rate_hz must be finite and positive")
        # an inf or NaN makes the sum non-finite, so the exact per-sample
        # pass runs only then (finite samples can still overflow the sum)
        if not math.isfinite(sum(self.samples, 0.0)) and not all(map(math.isfinite, self.samples)):
            raise InvalidInputError("sample block contains non-finite value")


@dataclass(slots=True, init=False)
class RmsRecord:
    """Timestamped RMS value; the pipeline's unit of streaming data."""

    timestamp_s: int
    rms_amps: float

    def __init__(self, timestamp_s: int, rms_amps: float):
        # one chained compare: rejects negatives, inf and NaN
        if not 0 <= rms_amps < math.inf:
            raise InvalidInputError("rms_amps must be finite and non-negative")
        self.timestamp_s = timestamp_s
        self.rms_amps = rms_amps


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
    try:
        if count >= 0:
            return params._amps[count]
    except (IndexError, TypeError):
        pass
    raise InvalidInputError(
        f"ADC count {count!r} is not an integer in [0, {params.resolution_counts}]"
    )
