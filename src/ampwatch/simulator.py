"""Deterministic appliance-trace synthesis with injectable faults.

Traces are planned as compressor cycles, each an ON and an OFF segment
snapped to the record interval, then sampled on an exact timestamp
lattice.  A scenario attaches to the first cycle that does not already
carry a fault and whose drawn span reaches past the scenario's start:

- ThermostatLongOn stretches that cycle's ON duration to the scenario
  magnitude (default 5 h), which must outlast the longest normal ON.
- DoorOpen multiplies the drawn ON duration by a factor in [2, 3]
  (delayed transition to OFF after the door event); the stretched ON
  too must outlast the longest normal ON.  It takes no magnitude.
- PowerDisruption lets the ON segment complete, then forces OFF-level
  RMS for the scenario magnitude (default 2 h, beyond the watchdog
  limit), which must outlast the longest normal OFF.

Each scenario yields exactly one ground-truth label covering the
anomalous interval and ending within the trace, or InvalidScenarioError;
a scenario that starts inside an earlier fault's label is refused.
All randomness comes from the package's own xorshift64* stream, so a
(profile, scenarios, duration, seed) tuple produces the same records on
any platform.
"""

import math
from dataclasses import dataclass, fields as dataclass_fields
from enum import Enum
from typing import Iterable, Iterator, List, Optional, Sequence, TextIO, Tuple

from .errors import InvalidInputError, InvalidScenarioError
from .event_log import TS_END, read_rows, write_rows
from .rng import DeterministicRng
from .signal_core import RmsRecord, SampleBlock

LABELS_HEADER = "window_start,window_end,kind"

DEFAULT_START_TIMESTAMP_S = 1_700_000_000


class ScenarioKind(str, Enum):
    THERMOSTAT_LONG_ON = "thermostat_long_on"
    DOOR_OPEN = "door_open"
    POWER_DISRUPTION = "power_disruption"


def _scenario_kind(kind, error) -> ScenarioKind:
    """``kind`` as a ScenarioKind member (its text is accepted), or ``error``."""
    try:
        return ScenarioKind(kind)
    except ValueError:
        raise error(f"unknown scenario kind {kind!r}") from None


DEFAULT_MAGNITUDES = {
    ScenarioKind.THERMOSTAT_LONG_ON: 18_000.0,  # ~5 h runtime
    ScenarioKind.POWER_DISRUPTION: 7_200.0,     # 2 h outage
}


@dataclass(frozen=True)
class ApplianceProfile:
    """Normal duty-cycle model of the monitored appliance."""

    on_rms_min_amps: float = 0.86
    on_rms_max_amps: float = 0.88
    off_rms_amps: float = 0.07
    on_duration_mean_s: float = 1800.0
    on_duration_jitter: float = 0.10
    off_duration_mean_s: float = 2700.0
    off_duration_jitter: float = 0.10
    rms_noise_amps: float = 0.005
    record_interval_s: int = 30

    def __post_init__(self):
        for f in dataclass_fields(self):
            if f.type is float and not 0 <= getattr(self, f.name) < math.inf:
                raise InvalidInputError(f"{f.name} must be finite and non-negative")
        if not 0 < self.on_rms_min_amps <= self.on_rms_max_amps:
            raise InvalidInputError("bad ON rms range")
        if not self.off_rms_amps < self.on_rms_min_amps:
            raise InvalidInputError("OFF rms must sit below the ON range")
        if self.on_duration_mean_s <= 0 or self.off_duration_mean_s <= 0:
            raise InvalidInputError("durations must be positive")
        if not self.on_duration_jitter < 1 or not self.off_duration_jitter < 1:
            raise InvalidInputError("jitter fractions must be in [0, 1)")
        if type(self.record_interval_s) is not int or self.record_interval_s <= 0:
            raise InvalidInputError("record_interval_s must be a positive integer")
        # Box-Muller's u1 >= 2**-53 bounds a draw at sqrt(106 ln 2) < 8.6 sigma
        if not self.on_rms_max_amps + 9 * self.rms_noise_amps < math.inf:
            raise InvalidInputError("on_rms_max_amps + 9 * rms_noise_amps must be finite")


@dataclass(frozen=True)
class AnomalyScenario:
    kind: ScenarioKind
    start_s: float
    magnitude: Optional[float] = None  # kind-specific; None picks the default

    def __post_init__(self):
        object.__setattr__(self, "kind", _scenario_kind(self.kind, InvalidScenarioError))

    def magnitude_or_default(self) -> float:
        if self.magnitude is not None:
            return self.magnitude
        return DEFAULT_MAGNITUDES[self.kind]


@dataclass(frozen=True)
class GroundTruthLabel:
    window_start_s: int
    window_end_s: int
    kind: ScenarioKind

    def __post_init__(self):
        object.__setattr__(self, "kind", _scenario_kind(self.kind, InvalidInputError))
        if any(type(v) is not int or not -TS_END < v < TS_END
               for v in (self.window_start_s, self.window_end_s)):
            raise InvalidInputError("label window bounds must be ints of at most 19 digits")
        if self.window_end_s <= self.window_start_s:
            raise InvalidInputError("label window must have positive length")


def _validate_scenarios(scenarios: Sequence[AnomalyScenario], duration_s: float):
    ordered = sorted(scenarios, key=lambda s: s.start_s)
    for sc in ordered:
        if not 0 <= sc.start_s < duration_s:
            raise InvalidScenarioError(
                f"scenario start {sc.start_s} outside trace duration"
            )
        if sc.kind == ScenarioKind.DOOR_OPEN:
            if sc.magnitude is not None:
                raise InvalidScenarioError("a door_open takes no magnitude")
        elif not 0 < sc.magnitude_or_default() < duration_s:
            raise InvalidScenarioError("scenario magnitude must be positive and below duration_s")
    return ordered


def _plan_segments(profile, scenarios, duration_s, rng, start, labels):
    """Yield back-to-back (on_s, level, off_s) cycles on the record-interval
    lattice, appending each fault's label to ``labels`` as it is placed."""
    iv = profile.record_interval_s

    def snap(x):
        return max(iv, int(round(x / iv)) * iv)

    def draw(mean, jitter):
        return snap(rng.uniform(mean * (1 - jitter), mean * (1 + jitter)))

    pending = list(scenarios)
    t = 0
    while t < duration_s:
        on_d = draw(profile.on_duration_mean_s, profile.on_duration_jitter)
        off_d = draw(profile.off_duration_mean_s, profile.off_duration_jitter)
        if pending and pending[0].start_s < t + on_d + off_d:
            sc = pending.pop(0)
            if labels and labels[-1].window_end_s > start + sc.start_s:
                raise InvalidScenarioError(
                    f"scenario at {sc.start_s} s overlaps the fault labelled before it")
            if sc.kind == ScenarioKind.POWER_DISRUPTION:
                mag = sc.magnitude_or_default()
                off_d = snap(mag)
                if off_d <= snap(profile.off_duration_mean_s * (1 + profile.off_duration_jitter)):
                    raise InvalidScenarioError(f"outage {mag} s must outlast a normal OFF")
                labels.append(GroundTruthLabel(start + t + on_d, start + t + on_d + off_d, sc.kind))
            else:
                if sc.kind == ScenarioKind.THERMOSTAT_LONG_ON:
                    on_d = snap(sc.magnitude_or_default())
                else:  # DOOR_OPEN
                    on_d = snap(on_d * rng.uniform(2.0, 3.0))
                if on_d <= snap(profile.on_duration_mean_s * (1 + profile.on_duration_jitter)):
                    raise InvalidScenarioError(f"{sc.kind.value} ON of {on_d} s must outlast a normal ON")
                labels.append(GroundTruthLabel(start + t, start + t + on_d, sc.kind))
            if labels[-1].window_end_s > start + duration_s:
                raise InvalidScenarioError(f"fault at {sc.start_s} s runs past the end of the trace")
        level = rng.uniform(profile.on_rms_min_amps, profile.on_rms_max_amps)
        yield on_d, level, off_d
        t += on_d + off_d
    if pending:
        raise InvalidScenarioError(f"scenario at {pending[0].start_s} s finds no free cycle")


def iter_trace(
    profile: ApplianceProfile,
    scenarios: Sequence[AnomalyScenario],
    duration_s: float,
    seed: int,
    start_timestamp_s: int = DEFAULT_START_TIMESTAMP_S,
) -> Tuple[Iterator[List[RmsRecord]], List[GroundTruthLabel]]:
    """A generator of record lists, and the labels.

    Each list holds 1 to 128 records in timestamp order and lies inside
    one planned ON or OFF segment, so a long fault is yielded in slices.

    The planner runs twice from the seed: here, to check the input, place
    every fault and leave ``rng`` where the noise draws begin; then again,
    one cycle at a time as the segments are sampled, so no plan is held.
    """
    if not 0 <= duration_s < math.inf:
        raise InvalidInputError("duration_s must be finite and non-negative")
    if type(start_timestamp_s) is not int:
        raise InvalidInputError("start_timestamp_s must be an int")
    ordered = _validate_scenarios(scenarios, duration_s)
    rng, labels = DeterministicRng(seed), []
    for _ in _plan_segments(profile, ordered, duration_s, rng, start_timestamp_s, labels):
        pass
    cycles = _plan_segments(profile, ordered, duration_s, DeterministicRng(seed),
                            start_timestamp_s, [])
    return _sample_segments(profile, cycles, duration_s, rng, start_timestamp_s), labels


# Above the default profile's longest normal segment (99 records), so only
# fault segments are split and a long fault does not set the peak memory.
_CHUNK_RECORDS = 128


def _sample_segments(profile, cycles, duration_s, rng, start):
    """Records in slices of at most ``_CHUNK_RECORDS``, with noise from one
    ``rng.gausses`` stream.  ApplianceProfile's noise bound keeps each rms
    finite, so every record is built without a second call into ``__init__``."""
    iv = profile.record_interval_s
    # cycles tile [0, >= duration_s) on the iv lattice, so each
    # segment's records are exactly its own range
    end = start + int(duration_s // iv) * iv
    noise = rng.gausses(0.0, profile.rms_noise_amps)
    new = object.__new__
    t = start
    for on_s, on_level, off_s in cycles:
        for seg_s, level in ((on_s, on_level), (off_s, profile.off_rms_amps)):
            stamps = range(t, min(t + seg_s, end), iv)
            for i in range(0, len(stamps), _CHUNK_RECORDS):
                chunk = []
                append = chunk.append
                # zip takes the stamp first: the slice's end draws nothing
                for ts, g in zip(stamps[i:i + _CHUNK_RECORDS], noise):
                    v = level + g
                    if v < 0.0:
                        v = 0.0
                    rec = new(RmsRecord)
                    rec.timestamp_s, rec.rms_amps = ts, v
                    append(rec)
                yield chunk
            t += seg_s


def generate_trace(
    profile: ApplianceProfile,
    scenarios: Sequence[AnomalyScenario],
    duration_s: float,
    seed: int,
    start_timestamp_s: int = DEFAULT_START_TIMESTAMP_S,
) -> Tuple[List[RmsRecord], List[GroundTruthLabel]]:
    """Synthesize an RMS record stream and its ground-truth labels."""
    segments, labels = iter_trace(profile, scenarios, duration_s, seed, start_timestamp_s)
    records: List[RmsRecord] = []
    for segment in segments:
        records += segment
    return records, labels


def generate_waveform(
    target_rms_amps: float,
    n_samples: int,
    mains_hz: float = 60.0,
    sample_rate_hz: float = 6000.0,
    noise_std_amps: float = 0.0,
    seed: int = 0,
) -> SampleBlock:
    """Raw sine block whose noiseless RMS equals target_rms_amps."""
    if type(n_samples) is not int or n_samples <= 0:
        raise InvalidInputError("n_samples must be a positive integer")
    if not 0 < 2 * mains_hz < sample_rate_hz < math.inf:
        raise InvalidInputError("mains_hz must be positive, and the sample rate "
                                "finite and above twice mains_hz")
    if not (0 <= target_rms_amps < math.inf and 0 <= noise_std_amps < math.inf):
        raise InvalidInputError("amplitudes must be finite and non-negative")
    amplitude = target_rms_amps * math.sqrt(2.0)
    if not amplitude + 9 * noise_std_amps < math.inf:  # ApplianceProfile's Box-Muller bound
        raise InvalidInputError("target_rms_amps * sqrt(2) + 9 * noise_std_amps must be finite")
    noise = DeterministicRng(seed).gausses(0.0, noise_std_amps)
    w = 2.0 * math.pi * mains_hz / sample_rate_hz
    samples = []
    for i in range(n_samples):
        s = amplitude * math.sin(w * i)
        if noise_std_amps > 0:
            s += next(noise)
        samples.append(s)
    return SampleBlock(samples=tuple(samples), sample_rate_hz=sample_rate_hz)


def _label_line(lab: GroundTruthLabel) -> str:
    return f"{lab.window_start_s},{lab.window_end_s},{lab.kind.value}"


def _label_from_fields(window_start, window_end, kind):
    return GroundTruthLabel(int(window_start), int(window_end), kind)


def _label_after(prev: GroundTruthLabel, lab: GroundTruthLabel) -> bool:
    return lab.window_start_s >= prev.window_end_s


def write_labels(labels: Iterable[GroundTruthLabel], fh: TextIO) -> None:
    """A label starting before the previous one ends raises StreamOrderError."""
    write_rows(labels, fh, LABELS_HEADER, _label_line, _label_after)


def read_labels(fh: TextIO) -> List[GroundTruthLabel]:
    return read_rows(fh, LABELS_HEADER, _label_from_fields, _label_line, _label_after)
