import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ampwatch.cycle_tracker import (
    CompressorState,
    CycleTracker,
    StateThresholds,
    WatchdogConfig,
    check_watchdog,
)
from ampwatch.errors import InvalidInputError, StreamOrderError
from ampwatch.event_log import EventKind
from ampwatch.signal_core import RmsRecord
from seed_copy import seed

ON = CompressorState.ON
OFF = CompressorState.OFF
DEFAULTS = StateThresholds()


def states(values):
    """The tracker's state after each rms value, one record every 30 s."""
    tracker, out = CycleTracker(DEFAULTS), []
    for i, v in enumerate(values):
        tracker.ingest(RmsRecord(1_700_000_000 + 30 * i, v))
        out.append(tracker.state)
    return out


class TestClassifyState:
    def test_on_level_turns_on(self):
        assert states([0.87]) == [ON]

    def test_off_level_turns_off(self):
        assert states([0.87, 0.07]) == [ON, OFF]

    def test_hysteresis_holds_state(self):
        assert states([0.87, 0.30]) == [ON, ON]
        assert states([0.30]) == [OFF]

    def test_boundaries_hold_state(self):
        # strict inequalities on both edges
        assert states([DEFAULTS.on_enter_amps]) == [OFF]
        assert states([0.87, DEFAULTS.off_enter_amps]) == [ON, ON]

    @pytest.mark.parametrize("on, off", [(0.2, 0.4), (math.inf, 0.2)])
    def test_threshold_validation(self, on, off):
        # an infinite on_enter held the tracker OFF at any finite rms
        with pytest.raises(InvalidInputError):
            StateThresholds(on_enter_amps=on, off_enter_amps=off)

    def test_duplicate_records_do_not_change_state_sequence(self):
        rms_seq = [0.07, 0.5, 0.87, 0.3, 0.1, 0.87, 0.07]
        plain = states(rms_seq)
        doubled = states([r for r in rms_seq for _ in range(2)])
        assert doubled[1::2] == plain


def feed(tracker, values, t0=1_700_000_000, dt=30):
    emitted = []
    for i, v in enumerate(values):
        f = tracker.ingest(RmsRecord(t0 + i * dt, v))
        if f is not None:
            emitted.append(f)
    return emitted


class TestIngest:
    def test_constant_cycle(self):
        tracker = CycleTracker()
        feats = feed(tracker, [0.87] * 60 + [0.07])
        assert len(feats) == 1
        f = feats[0]
        assert f.rms_last_amps == pytest.approx(0.87)
        assert f.rms_mean_amps == pytest.approx(0.87)
        assert f.rms_std_amps == 0.0
        assert f.rms_slope_amps_per_s == 0.0
        assert f.duration_on_s == 1800.0

    def test_linear_ramp_slope(self):
        # 61 ON records rising 0.86 -> 0.88 over 1800 s, then one OFF record
        n = 61
        values = [0.86 + 0.02 * i / (n - 1) for i in range(n)] + [0.07]
        tracker = CycleTracker()
        feats = feed(tracker, values)
        assert len(feats) == 1
        expected = 0.02 / 1800.0
        assert feats[0].rms_slope_amps_per_s == pytest.approx(expected, abs=1e-9)

    def test_slope_matches_polyfit_oracle(self):
        rng = np.random.default_rng(3)
        values = (0.87 + rng.normal(0, 0.01, size=40)).clip(0.5).tolist() + [0.07]
        t = np.arange(40) * 30.0
        oracle = np.polyfit(t, values[:-1], 1)[0]
        tracker = CycleTracker()
        feats = feed(tracker, values)
        assert feats[0].rms_slope_amps_per_s == pytest.approx(oracle, rel=1e-9)

    def test_mean_std_match_numpy_oracle(self):
        rng = np.random.default_rng(4)
        on = (0.87 + rng.normal(0, 0.005, size=55)).clip(0.5)
        tracker = CycleTracker()
        feats = feed(tracker, on.tolist() + [0.07])
        assert feats[0].rms_mean_amps == pytest.approx(np.mean(on), rel=1e-12)
        assert feats[0].rms_std_amps == pytest.approx(np.std(on), rel=1e-9)

    def test_never_on_emits_nothing(self):
        tracker = CycleTracker()
        assert feed(tracker, [0.07, 0.1, 0.3, 0.44, 0.2] * 10) == []

    def test_single_record_cycle_degenerate(self):
        tracker = CycleTracker()
        feats = feed(tracker, [0.87, 0.07])
        assert len(feats) == 1
        assert feats[0].rms_std_amps == 0.0
        assert feats[0].rms_slope_amps_per_s == 0.0
        assert feats[0].duration_on_s == 30.0

    def test_one_emission_per_completed_cycle(self):
        cycle = [0.87] * 5 + [0.07] * 3
        tracker = CycleTracker()
        feats = feed(tracker, cycle * 7)
        assert len(feats) == 7

    # levels at, inside and across the hysteresis band, so the state chatters
    LEVELS = st.sampled_from([0.05, 0.19, 0.2, 0.21, 0.3, 0.44, 0.45, 0.46, 0.87])

    @given(st.lists(st.tuples(st.integers(1, 600), LEVELS | st.floats(0, 1.2)),
                    min_size=1, max_size=200))
    @settings(max_examples=100, deadline=None)
    def test_features_match_a_two_pass_oracle(self, rows):
        steps, values = zip(*rows)
        stream = list(zip(itertools.accumulate(steps, initial=1_700_000_000), values))

        # the seed's classify_state fold splits the stream; numpy computes each
        # cycle in two passes
        seed_on = seed.CompressorState.ON
        thresholds = seed.StateThresholds(DEFAULTS.on_enter_amps, DEFAULTS.off_enter_amps)
        oracle, state, cycle = [], seed.CompressorState.OFF, []
        for ts, rms in stream:
            new = seed.classify_state(rms, state, thresholds)
            if new is seed_on:
                cycle.append((ts, rms))
            elif state is seed_on:
                e = np.array([t - cycle[0][0] for t, _ in cycle], dtype=float)
                x = np.array([r for _, r in cycle])
                slope = np.polyfit(e, x, 1)[0] if len(x) >= 2 else 0.0
                oracle.append((x[-1], x.mean(), x.std(), slope, float(ts - cycle[0][0])))
                cycle = []
            state = new

        tracker = CycleTracker()
        emitted = [tracker.ingest(RmsRecord(ts, rms)) for ts, rms in stream]
        features = [f.as_vector() for f in emitted if f is not None]
        assert len(features) == len(oracle)
        for got, want in zip(features, oracle):
            assert got == pytest.approx(want, rel=1e-9, abs=1e-12)

    def test_non_monotonic_timestamp(self):
        tracker = CycleTracker()
        tracker.ingest(RmsRecord(100, 0.87))
        with pytest.raises(StreamOrderError):
            tracker.ingest(RmsRecord(100, 0.87))

    @pytest.mark.parametrize("ts,rms,column", [
        (130.0, 0.07, 1), (100.0, 0.07, 1), (True, 0.07, 1),
        (130, -1.0, 2), (130, float("nan"), 2), (130, float("inf"), 2)])
    def test_a_refused_record_changes_no_state(self, ts, rms, column):
        """ts and rms are checked as LogRecord checks them, before the order
        check and before any state is written: a float timestamp out of
        order is an InvalidInputError, not a StreamOrderError."""
        tracker = CycleTracker()
        tracker.ingest(RmsRecord(70, 0.07))
        tracker.ingest(RmsRecord(100, 0.87))
        before = dict(vars(tracker))
        bad = RmsRecord(130, 0.07)
        bad.timestamp_s, bad.rms_amps = ts, rms
        with pytest.raises(InvalidInputError) as exc:
            tracker.ingest(bad)
        assert exc.value.column == column
        assert vars(tracker) == before


class TestWatchdog:
    config = WatchdogConfig()

    def test_fires_past_limit(self):
        event = check_watchdog(10_000 + 3601, 10_000, self.config, False)
        assert event is not None
        assert event.kind == EventKind.WATCHDOG
        assert event.detected_at_s == 13_601
        assert event.cycle_start_s == 10_000

    def test_below_limit_silent(self):
        assert check_watchdog(10_000 + 3599, 10_000, self.config, False) is None

    def test_exactly_at_limit_silent(self):
        assert check_watchdog(10_000 + 3600, 10_000, self.config, False) is None

    def test_fires_once_per_off_period(self):
        assert check_watchdog(10_000 + 7200, 10_000, self.config, True) is None

    def test_config_validation(self):
        for limit in (0, -1.0, float("nan"), float("inf")):
            with pytest.raises(InvalidInputError):
                WatchdogConfig(off_limit_s=limit)
