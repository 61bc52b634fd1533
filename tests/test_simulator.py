import dataclasses
import io
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ampwatch.errors import InvalidInputError, InvalidScenarioError
from ampwatch.pipeline import PipelineConfig, run_pipeline
from ampwatch import simulator
from ampwatch.rng import DeterministicRng
from ampwatch.event_log import write_trace
from ampwatch.signal_core import RmsRecord, compute_rms
from ampwatch.simulator import (
    AnomalyScenario,
    ApplianceProfile,
    GroundTruthLabel,
    ScenarioKind,
    generate_trace,
    generate_waveform,
    iter_trace,
)
from seed_copy import seed as seed_package

SeedRng = seed_package.rng.DeterministicRng

DAY = 86_400.0


def test_fourteen_day_record_count():
    records, labels = generate_trace(ApplianceProfile(), [], 14 * DAY, seed=0)
    assert len(records) == 40_320
    assert labels == []


def test_normal_trace_stays_in_bands():
    profile = ApplianceProfile()
    records, _ = generate_trace(profile, [], 2 * DAY, seed=1)
    for rec in records:
        near_on = abs(rec.rms_amps - 0.87) < 0.05
        near_off = abs(rec.rms_amps - 0.07) < 0.05
        assert near_on or near_off


def test_determinism_same_seed():
    profile = ApplianceProfile()
    a, la = generate_trace(profile, [], DAY, seed=42)
    b, lb = generate_trace(profile, [], DAY, seed=42)
    assert a == b
    assert la == lb


def test_different_seeds_differ():
    a, _ = generate_trace(ApplianceProfile(), [], DAY, seed=1)
    b, _ = generate_trace(ApplianceProfile(), [], DAY, seed=2)
    assert a != b


@given(
    duration_s=st.floats(0, 20_000) | st.integers(0, 20_000),
    interval_s=st.integers(1, 900),
    seed=st.integers(0, 2**32),
)
@settings(max_examples=200, deadline=None)
def test_timestamp_lattice(duration_s, interval_s, seed):
    profile = ApplianceProfile(record_interval_s=interval_s)
    start = 1_700_000_000
    records, _ = generate_trace(profile, [], duration_s, seed, start_timestamp_s=start)
    n = int(duration_s // interval_s)
    assert [r.timestamp_s for r in records] == [start + k * interval_s for k in range(n)]


@pytest.mark.parametrize("interval", [0, -30, 30.0, 7.5, True, False])
def test_record_interval_must_be_a_positive_integer(interval):
    with pytest.raises(InvalidInputError):
        ApplianceProfile(record_interval_s=interval)


PROFILE_FLOATS = [f.name for f in dataclasses.fields(ApplianceProfile) if f.type is float]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -1.0])
@pytest.mark.parametrize("name", PROFILE_FLOATS)
def test_profile_rejects_non_finite_and_negative_floats(name, value):
    with pytest.raises(InvalidInputError, match=name):
        ApplianceProfile(**{name: value})


@pytest.fixture
def no_planner(monkeypatch):
    """Fail fast instead of planning segments: an unbounded duration never
    leaves the planner's loop."""
    def planner(*args):
        raise AssertionError("duration reached the segment planner")
    monkeypatch.setattr(simulator, "_plan_segments", planner)


@pytest.mark.parametrize("duration_s", [math.nan, math.inf, -math.inf, -1.0])
def test_generate_trace_rejects_bad_duration(no_planner, duration_s):
    with pytest.raises(InvalidInputError, match="duration_s"):
        generate_trace(ApplianceProfile(), [], duration_s, seed=0)


@pytest.mark.parametrize("magnitude", [math.nan, math.inf, -math.inf, 0.0, -1.0, DAY, 1e300])
@pytest.mark.parametrize("kind", list(ScenarioKind))
def test_scenario_magnitude_must_be_finite_and_positive(no_planner, kind, magnitude):
    scenario = AnomalyScenario(kind, 100.0, magnitude)
    with pytest.raises(InvalidScenarioError, match="magnitude"):
        generate_trace(ApplianceProfile(), [scenario], DAY, seed=0)


START = simulator.DEFAULT_START_TIMESTAMP_S


@pytest.mark.parametrize("duration_s, scenarios, start", [
    (math.nan, [], START),
    (-1.0, [], START),
    (DAY, [AnomalyScenario(ScenarioKind.DOOR_OPEN, 2 * DAY)], START),
    (DAY, [AnomalyScenario(ScenarioKind.THERMOSTAT_LONG_ON, 100.0, math.inf)], START),
    (DAY, [], float(START)),
    (DAY, [], START + 0.5),
    (DAY, [], str(START)),
])
def test_iter_trace_rejects_bad_input_when_called(no_planner, duration_s, scenarios, start):
    # raised by the call itself, before the first segment is asked for
    with pytest.raises((InvalidInputError, InvalidScenarioError)):
        iter_trace(ApplianceProfile(), scenarios, duration_s, seed=0, start_timestamp_s=start)


@pytest.mark.parametrize("start, end", [(1.5, 2.5), (1.0, 2), (1, 2.0), (True, 2), ("1", "2"),
                                        (-10**19, 0), (0, 10**19)])  # the log's 19 digits
def test_label_window_bounds_must_be_ints(start, end):
    # (1.5, 2.5) was written as "1.5,2.5,door_open", which read_labels refused
    with pytest.raises(InvalidInputError):
        GroundTruthLabel(start, end, ScenarioKind.DOOR_OPEN)


@pytest.mark.parametrize("kind", ["bogus", "long_on", "zscore", None, 3])
def test_label_kind_must_be_a_scenario_kind(kind):
    with pytest.raises(InvalidInputError, match="kind"):
        GroundTruthLabel(1, 2, kind)


def test_label_kind_text_is_stored_as_the_member():
    label = GroundTruthLabel(1, 2, "door_open")
    assert label.kind is ScenarioKind.DOOR_OPEN
    buf = io.StringIO()
    simulator.write_labels([label], buf)
    assert buf.getvalue() == simulator.LABELS_HEADER + "\n1,2,door_open\n"


@pytest.mark.parametrize("kind", ["bogus", "long_on", None])
def test_scenario_kind_must_be_a_scenario_kind(kind):
    with pytest.raises(InvalidScenarioError, match="kind"):
        AnomalyScenario(kind, 200_000.0, 900.0)


# one fault of each kind, as in the paper's scenario set, early enough
# for the shortest trace drawn with them
FAULTS = [
    AnomalyScenario(ScenarioKind.THERMOSTAT_LONG_ON, 0.25 * DAY),
    AnomalyScenario(ScenarioKind.DOOR_OPEN, 0.75 * DAY),
    AnomalyScenario(ScenarioKind.POWER_DISRUPTION, 1.25 * DAY),
]


def test_scenario_kind_text_is_the_member():
    text_faults = [AnomalyScenario(sc.kind.value, sc.start_s) for sc in FAULTS]
    want_records, want_labels = generate_trace(ApplianceProfile(), FAULTS, 2 * DAY, seed=3)
    records, labels = generate_trace(ApplianceProfile(), text_faults, 2 * DAY, seed=3)
    assert records == want_records
    assert labels == want_labels
    assert all(lab.kind is sc.kind for lab, sc in zip(labels, FAULTS))


def reference_trace(profile, scenarios, duration_s, seed, start):
    """(timestamp, rms.hex()) pairs drawn one record at a time, and the
    planned segments as [first, end) timestamp spans."""
    rng = SeedRng(seed)
    cycles = list(simulator._plan_segments(profile, scenarios, duration_s, rng, start, []))
    segments, t = [], 0
    for on_s, level, off_s in cycles:
        segments += [(t, on_s, level), (t + on_s, off_s, profile.off_rms_amps)]
        t += on_s + off_s
    iv, noise = profile.record_interval_s, profile.rms_noise_amps
    end = int(duration_s // iv) * iv
    pairs = []
    for seg_start, seg_len, level in segments:
        for t in range(seg_start, min(seg_start + seg_len, end), iv):
            # drawn at zero noise too: gauss(0.0, 0.0) adds a signed zero
            rms = level + rng.gauss(0.0, noise)
            pairs.append((start + t, (0.0 if rms < 0.0 else rms).hex()))
    return pairs, [(start + t, start + t + n) for t, n, _ in segments]


@given(
    seed=st.integers(0, 2**64 - 1),
    start=st.integers(0, 2**40),
    extra_s=st.floats(0, DAY) | st.integers(0, int(DAY)),
    interval_s=st.integers(10, 900),
    # 0.5 A of noise pulls the 0.07 A OFF level below zero, where it clamps
    noise=st.sampled_from([0.0, 0.005, 0.5]) | st.floats(0, 1),
    faults=st.booleans(),
)
@example(seed=7, start=1_700_000_000, extra_s=DAY, interval_s=30, noise=0.5, faults=True)
@example(seed=7, start=1_700_000_000, extra_s=DAY, interval_s=30, noise=0.0, faults=True)
@settings(max_examples=60, deadline=None)
def test_iter_trace_is_generate_trace(seed, start, extra_s, interval_s, noise, faults):
    profile = ApplianceProfile(record_interval_s=interval_s, rms_noise_amps=noise)
    scenarios = FAULTS if faults else []
    duration_s = (1.5 * DAY if faults else 0) + extra_s
    segments, labels = iter_trace(profile, scenarios, duration_s, seed, start)
    lists = list(segments)
    records, expected_labels = generate_trace(profile, scenarios, duration_s, seed, start)
    expected, spans = reference_trace(profile, scenarios, duration_s, seed, start)
    assert [(r.timestamp_s, r.rms_amps.hex()) for seg in lists for r in seg] == expected
    assert [(r.timestamp_s, r.rms_amps.hex()) for r in records] == expected
    # whole records, so a slot the sampler leaves unset fails too
    built = [RmsRecord(ts, float.fromhex(rms)) for ts, rms in expected]
    assert [r for seg in lists for r in seg] == built
    assert records == built
    assert labels == expected_labels
    # each list is a bounded slice of one planned segment
    for seg in lists:
        assert 1 <= len(seg) <= 128
        assert any(lo <= seg[0].timestamp_s and seg[-1].timestamp_s < hi for lo, hi in spans)
    if noise == 0.5 and faults:
        assert (0.0).hex() in {h for _, h in expected}


def test_a_negative_zero_off_level_samples_as_zero():
    """Each noise draw is mu + sigma * z with mu = 0.0, so a zero noise adds
    +0.0 and an OFF level of -0.0 gives 0.0 records, written as 0.0000."""
    profile = ApplianceProfile(off_rms_amps=-0.0, rms_noise_amps=0.0)
    records, _ = generate_trace(profile, [], DAY, seed=3)
    off = {r.rms_amps.hex() for r in records if r.rms_amps < profile.on_rms_min_amps}
    assert off == {(0.0).hex()}
    fh = io.StringIO()
    write_trace(records, fh)
    assert "-0.0000" not in fh.getvalue()


def test_a_noise_draw_past_the_float_range_is_refused():
    """A Box-Muller draw is at most sqrt(106 ln 2) < 9 sigma, so a profile
    is refused when it is built if on_rms_max_amps + 9 sigma overflows:
    5e307 A of noise would overflow a draw partway through a trace."""
    with pytest.raises(InvalidInputError, match=r"9 \* rms_noise_amps must be finite"):
        ApplianceProfile(rms_noise_amps=5e307)


def test_the_largest_noise_under_the_bound_samples_a_finite_trace():
    records, _ = generate_trace(ApplianceProfile(rms_noise_amps=1.9e307), [], DAY, seed=1)
    assert len(records) == DAY // 30
    assert all(0 <= r.rms_amps < math.inf for r in records)


def test_power_disruption_label_and_levels():
    sc = AnomalyScenario(ScenarioKind.POWER_DISRUPTION, 1.0 * DAY)
    records, labels = generate_trace(ApplianceProfile(), [sc], 3 * DAY, seed=7)
    assert len(labels) == 1
    lab = labels[0]
    assert lab.kind == ScenarioKind.POWER_DISRUPTION
    assert lab.window_end_s - lab.window_start_s == 7200
    inside = [r for r in records if lab.window_start_s <= r.timestamp_s < lab.window_end_s]
    assert inside
    assert all(r.rms_amps < 0.2 for r in inside)


@pytest.mark.parametrize(
    "kind,min_duration",
    [
        (ScenarioKind.THERMOSTAT_LONG_ON, 17_000),
        (ScenarioKind.DOOR_OPEN, 3_000),
    ],
)
def test_long_on_labels_violate_normal_profile(kind, min_duration):
    profile = ApplianceProfile()
    sc = AnomalyScenario(kind, 1.0 * DAY)
    records, labels = generate_trace(profile, [sc], 3 * DAY, seed=5)
    assert len(labels) == 1
    lab = labels[0]
    on_span = lab.window_end_s - lab.window_start_s
    normal_max = profile.on_duration_mean_s * (1 + profile.on_duration_jitter)
    assert on_span > normal_max
    assert on_span >= min_duration
    inside = [r for r in records if lab.window_start_s <= r.timestamp_s < lab.window_end_s]
    assert all(r.rms_amps > 0.8 for r in inside)


def test_each_scenario_yields_one_label():
    scen = [
        AnomalyScenario(ScenarioKind.THERMOSTAT_LONG_ON, 1 * DAY),
        AnomalyScenario(ScenarioKind.DOOR_OPEN, 2 * DAY),
        AnomalyScenario(ScenarioKind.POWER_DISRUPTION, 3 * DAY),
    ]
    _, labels = generate_trace(ApplianceProfile(), scen, 5 * DAY, seed=9)
    assert [l.kind for l in labels] == [s.kind for s in scen]


def test_overlapping_scenarios_rejected():
    scen = [
        AnomalyScenario(ScenarioKind.POWER_DISRUPTION, 1000.0),
        AnomalyScenario(ScenarioKind.DOOR_OPEN, 2000.0),
    ]
    with pytest.raises(InvalidScenarioError):
        generate_trace(ApplianceProfile(), scen, DAY, seed=0)


def test_scenario_after_an_earlier_label_is_placed():
    # the door starts 440 s after the long ON's label ends, though before 10,000 s + 5 h
    scen = [AnomalyScenario(ScenarioKind.THERMOSTAT_LONG_ON, 10_000.0),
            AnomalyScenario(ScenarioKind.DOOR_OPEN, 27_800.0)]
    _, labels = iter_trace(ApplianceProfile(), scen, DAY, seed=0)
    assert [(l.window_start_s - START, l.window_end_s - START, l.kind) for l in labels] == [
        (9_360, 27_360, ScenarioKind.THERMOSTAT_LONG_ON),
        (29_820, 34_530, ScenarioKind.DOOR_OPEN),
    ]


def test_scenario_outside_duration_rejected():
    scen = [AnomalyScenario(ScenarioKind.DOOR_OPEN, 2 * DAY)]
    with pytest.raises(InvalidScenarioError):
        generate_trace(ApplianceProfile(), scen, DAY, seed=0)


@pytest.mark.parametrize("kind, normal_max", [
    (ScenarioKind.THERMOSTAT_LONG_ON, 1980),  # the longest normal ON: 1800 s + 10%
    (ScenarioKind.POWER_DISRUPTION, 2970),    # the longest normal OFF: 2700 s + 10%
])
def test_fault_must_outlast_the_longest_normal_segment(kind, normal_max):
    for magnitude in (1e-300, 60.0, normal_max):
        with pytest.raises(InvalidScenarioError, match="must outlast"):
            generate_trace(ApplianceProfile(), [AnomalyScenario(kind, 100.0, magnitude)], DAY, 0)
    longer = AnomalyScenario(kind, 100.0, normal_max + 30)
    _, labels = generate_trace(ApplianceProfile(), [longer], DAY, seed=0)
    assert [(l.kind, l.window_end_s - l.window_start_s) for l in labels] == [(kind, normal_max + 30)]


def test_door_open_must_outlast_the_longest_normal_on():
    # a normal ON of this profile lasts up to 1800 s * 1.9 = 3,420 s; seed 274
    # stretches the door's ON to exactly that, seed 82 to one interval more
    profile = ApplianceProfile(on_duration_jitter=0.9)
    door = [AnomalyScenario(ScenarioKind.DOOR_OPEN, 100.0)]
    with pytest.raises(InvalidScenarioError, match="ON of 3420 s must outlast"):
        iter_trace(profile, door, DAY, seed=274)
    _, labels = iter_trace(profile, door, DAY, seed=82)
    assert [(l.kind, l.window_end_s - l.window_start_s) for l in labels] == [
        (ScenarioKind.DOOR_OPEN, 3450)]


@pytest.mark.parametrize("kind", list(ScenarioKind))
def test_fault_must_end_within_the_trace(kind):
    scenario = [AnomalyScenario(kind, 30_000.0)]
    _, (label,) = iter_trace(ApplianceProfile(), scenario, 2 * DAY, seed=0)
    # the same plan, cut where the label ends, or one second earlier
    end_s = label.window_end_s - simulator.DEFAULT_START_TIMESTAMP_S
    assert iter_trace(ApplianceProfile(), scenario, end_s, seed=0)[1] == [label]
    with pytest.raises(InvalidScenarioError, match="past the end of the trace"):
        iter_trace(ApplianceProfile(), scenario, end_s - 1, seed=0)


@pytest.mark.parametrize("seed", range(5))
def test_scenario_behind_a_fault_in_the_last_cycle_is_refused(seed):
    # the first door event stretches the last planned cycle past the trace end
    scen = [
        AnomalyScenario(ScenarioKind.DOOR_OPEN, 83_400.0),
        AnomalyScenario(ScenarioKind.DOOR_OPEN, 84_900.0),
    ]
    with pytest.raises(InvalidScenarioError, match="no free cycle"):
        generate_trace(ApplianceProfile(), scen, DAY, seed)


@given(
    scenarios=st.lists(st.builds(
        AnomalyScenario,
        kind=st.sampled_from(list(ScenarioKind)),
        start_s=st.floats(0, DAY / 8, exclude_max=True),
        magnitude=st.none() | st.floats(1.0, DAY / 8),
    ), max_size=4),
    seed=st.integers(0, 2**64 - 1),
)
# the long ON runs the first cycle past the trace end, so no cycle is left for the door
@example(scenarios=[AnomalyScenario(ScenarioKind.THERMOSTAT_LONG_ON, 0.0, 9000.0),
                    AnomalyScenario(ScenarioKind.DOOR_OPEN, 9500.0)], seed=0)
# the long ON starts inside the door's 0-4,860 s label
@example(scenarios=[AnomalyScenario(ScenarioKind.DOOR_OPEN, 0.0),
                    AnomalyScenario(ScenarioKind.THERMOSTAT_LONG_ON, 1000.0, 2100.0)], seed=0)
@settings(max_examples=150, deadline=None)
def test_each_scenario_yields_one_label_or_is_refused(scenarios, seed):
    duration_s = DAY / 8
    try:
        _, labels = generate_trace(ApplianceProfile(), scenarios, duration_s, seed)
    except InvalidScenarioError:
        return
    ordered = sorted(scenarios, key=lambda s: s.start_s)
    assert [l.kind for l in labels] == [s.kind for s in ordered]
    bounds = [b for l in labels for b in (l.window_start_s, l.window_end_s)]
    assert bounds == sorted(bounds)  # in order, and no two overlap
    assert all(START <= b <= START + duration_s for b in bounds)
    assert all(l.window_end_s <= START + s.start_s for l, s in zip(labels, ordered[1:]))
    assert not any(s.kind == ScenarioKind.DOOR_OPEN and s.magnitude is not None for s in ordered)


def test_clean_trace_pipeline_calibration():
    """Simulator/detector compatibility: a clean trace trains and stays quiet."""
    records, _ = generate_trace(ApplianceProfile(), [], 14 * DAY, seed=17)
    result = run_pipeline(PipelineConfig(), records)
    assert result.events == []
    assert result.model is not None
    assert result.model.trained_on == 50


class TestWaveform:
    def test_noiseless_rms(self):
        # 1000 samples at 6 kHz covers 10 full 60 Hz periods
        block = generate_waveform(0.87, 1000, 60.0, 6000.0, 0.0, seed=0)
        assert compute_rms(block) == pytest.approx(0.87, rel=1e-6)

    def test_zero_target(self):
        block = generate_waveform(0.0, 1000, 60.0, 6000.0, 0.0, seed=0)
        assert all(s == 0.0 for s in block.samples)
        assert compute_rms(block) == 0.0

    def test_noisy_rms_matches_quadrature_sum(self):
        # independent noise adds in quadrature: sqrt(rms^2 + noise^2)
        target, noise = 0.87, 0.01
        expected = math.sqrt(target**2 + noise**2)
        vals = [
            compute_rms(generate_waveform(target, 1000, 60.0, 6000.0, noise, seed=s))
            for s in range(50)
        ]
        assert np.mean(vals) == pytest.approx(expected, abs=0.001)
        assert all(abs(v - target) < 3 * noise for v in vals)

    def test_determinism(self):
        a = generate_waveform(0.87, 1000, 60.0, 6000.0, 0.01, seed=4)
        b = generate_waveform(0.87, 1000, 60.0, 6000.0, 0.01, seed=4)
        assert a.samples == b.samples

    def test_sampling_precondition(self):
        with pytest.raises(InvalidInputError):
            generate_waveform(0.87, 1000, 60.0, 100.0, 0.0, seed=0)
        for n_samples in (0, 2.5, 100.0, True):
            with pytest.raises(InvalidInputError, match="n_samples"):
                generate_waveform(0.87, n_samples, 60.0, 6000.0, 0.0, seed=0)

    @pytest.mark.parametrize("args", [
        (math.nan, 100, 60.0, 6000.0, 0.0),
        (math.inf, 100, 60.0, 6000.0, 0.0),
        (0.87, 100, 60.0, 6000.0, math.nan),
        (0.87, 100, 60.0, 6000.0, math.inf),
        (0.87, 100, math.nan, 6000.0, 0.0),
        (0.87, 100, 60.0, math.inf, 0.0),
        (0.87, 100, 0.0, 6000.0, 0.0),
        (0.87, 100, -60.0, 6000.0, 0.0),
        # a draw of up to 9 sigma may overflow: at seed 1, 5e307 built a block
        (0.87, 100, 60.0, 6000.0, 5e307),
        (0.87, 100, 60.0, 6000.0, 1e308),
    ])
    def test_non_finite_inputs_rejected(self, args):
        with pytest.raises(InvalidInputError):
            generate_waveform(*args, seed=1)


class TestRng:
    """The stream is the seed copy's, value for value: ``SeedRng.gauss``
    calls, ``uniform`` calls between them included, are what a
    ``gausses`` stream and the same ``uniform`` calls return."""

    def test_reproducible(self):
        a = DeterministicRng(123)
        b = DeterministicRng(123)
        draws = [(a.uniform(0.0, 1.0), b.uniform(0.0, 1.0)) for _ in range(10)]
        assert all(x == y for x, y in draws)

    @pytest.mark.parametrize("seed", [1.5, 7.0, "7", None])
    def test_non_int_seed_rejected(self, seed):
        # int(seed) took 1.5 as seed 1's trace and "7" as seed 7's
        for make in (DeterministicRng,
                     lambda s: iter_trace(ApplianceProfile(), [], DAY, s),
                     lambda s: generate_trace(ApplianceProfile(), [], DAY, s),
                     lambda s: generate_waveform(0.87, 100, noise_std_amps=0.01, seed=s)):
            with pytest.raises(InvalidInputError, match="seed must be an int"):
                make(seed)

    def test_uniform_range(self):
        rng = DeterministicRng(1)
        vals = [rng.uniform(2.0, 3.0) for _ in range(1000)]
        assert all(2.0 <= v < 3.0 for v in vals)
        assert 2.4 < np.mean(vals) < 2.6

    def test_gausses_moments(self):
        vals = np.array(list(itertools.islice(DeterministicRng(2).gausses(5.0, 2.0), 20_000)))
        assert np.mean(vals) == pytest.approx(5.0, abs=0.1)
        assert np.std(vals) == pytest.approx(2.0, abs=0.1)

    @pytest.mark.parametrize("lead, take", [(0, 1000), (0, 6), (0, 7), (3, 1000), (5, 4), (1, 1)])
    def test_uniforms_then_a_stream_match_the_seed(self, lead, take):
        """iter_trace's order: ``lead`` uniform calls (the planner's), then
        ``take`` stream draws (an odd count drops the stream mid-pair),
        then uniform calls that go on where the stream's pairs stopped."""
        for s in (0, 1, 7, 2**64 - 1):
            rng, ref = DeterministicRng(s), SeedRng(s)
            for _ in range(lead):
                assert rng.uniform(2.0, 3.0).hex() == ref.uniform(2.0, 3.0).hex()
            stream = rng.gausses(0.87, 0.005)
            for _ in range(take):
                assert next(stream).hex() == ref.gauss(0.87, 0.005).hex()
            del stream
            for _ in range(5):
                assert rng.uniform(-1.0, 2.0).hex() == ref.uniform(-1.0, 2.0).hex()

    def test_uniforms_between_stream_draws_match_the_seed(self):
        for s in range(5):
            rng, ref = DeterministicRng(s), SeedRng(s)
            stream = rng.gausses(0.87, 0.005)
            for i in range(100_000):
                if i % 7 == 0:
                    assert rng.uniform(-1.0, 2.0).hex() == ref.uniform(-1.0, 2.0).hex()
                assert next(stream).hex() == ref.gauss(0.87, 0.005).hex()

    def test_a_zero_uniform_is_redrawn_as_the_seed_does(self):
        # the seed whose splitmix64 image is the state whose next xorshift64*
        # output is 1, so the first uniform is 0.0
        s = undo_splitmix64(undo_xorshift(pow(0x2545F4914F6CDD1D, -1, 1 << 64)))
        assert DeterministicRng(s).uniform(0.0, 1.0) == 0.0
        stream, ref = DeterministicRng(s).gausses(), SeedRng(s)
        for _ in range(6):
            assert next(stream).hex() == ref.gauss().hex()


def _undo_shift(x, shift, left=False):
    """The y that ``y ^= y << shift`` (or ``>>``) turns into ``x``."""
    mask = (1 << 64) - 1
    y = x
    for _ in range(64):  # y reaches its fixed point within 64 // shift + 1 rounds
        y = x ^ ((y << shift) & mask if left else y >> shift)
    return y


def undo_xorshift(x):
    """The state that one xorshift step (x ^= x >> 12; x ^= x << 25;
    x ^= x >> 27) turns into ``x``."""
    return _undo_shift(_undo_shift(_undo_shift(x, 27), 25, left=True), 12)


def undo_splitmix64(z):
    """The seed that rng's splitmix64 step, a bijection, turns into ``z``."""
    mask = (1 << 64) - 1
    z = (_undo_shift(z, 31) * pow(0x94D049BB133111EB, -1, 1 << 64)) & mask
    z = (_undo_shift(z, 27) * pow(0xBF58476D1CE4E5B9, -1, 1 << 64)) & mask
    return (_undo_shift(z, 30) - 0x9E3779B97F4A7C15) & mask
