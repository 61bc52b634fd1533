import io
import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ampwatch.cycle_tracker import CycleTracker
from ampwatch.errors import InsufficientTrainingError, InvalidInputError
from ampwatch import event_log
from ampwatch.cli import main
from ampwatch.event_log import EventKind, LogRecord
from ampwatch.pipeline import Monitor, PipelineConfig, profile_inference, run_pipeline
from ampwatch.simulator import (
    AnomalyScenario,
    ApplianceProfile,
    ScenarioKind,
    generate_trace,
)
from seed_copy import seed
from ampwatch.signal_core import RmsRecord
from ampwatch.zscore_model import ModelParams

DAY = 86_400.0


def make_trace(scenarios=(), days=14, seed=0):
    return generate_trace(ApplianceProfile(), list(scenarios), days * DAY, seed)


def test_clean_trace_no_events():
    records, _ = make_trace(seed=21)
    result = run_pipeline(PipelineConfig(), records)
    assert result.events == []
    assert len(result.log_records) == len(records)


def test_long_on_yields_one_zscore_event_at_cycle_end():
    sc = AnomalyScenario(ScenarioKind.THERMOSTAT_LONG_ON, 5 * DAY)
    records, labels = make_trace([sc], seed=22)
    result = run_pipeline(PipelineConfig(), records)
    assert len(result.events) == 1
    ev = result.events[0]
    assert ev.kind == EventKind.ZSCORE
    assert ev.composite > 2.5
    lab = labels[0]
    # detection happens on the record that closes the anomalous cycle
    assert ev.cycle_start_s == lab.window_start_s
    assert ev.detected_at_s == lab.window_end_s


def test_power_disruption_yields_watchdog_near_limit():
    sc = AnomalyScenario(ScenarioKind.POWER_DISRUPTION, 5 * DAY)
    records, labels = make_trace([sc], seed=23)
    config = PipelineConfig()
    result = run_pipeline(config, records)
    assert len(result.events) == 1
    ev = result.events[0]
    assert ev.kind == EventKind.WATCHDOG
    off_onset = labels[0].window_start_s
    delay = ev.detected_at_s - off_onset
    assert 3600 < delay <= 3600 + 30


def test_watchdog_active_during_training():
    # outage before training can complete still raises the watchdog event
    sc = AnomalyScenario(ScenarioKind.POWER_DISRUPTION, 0.5 * DAY)
    records, _ = make_trace([sc], days=14, seed=24)
    result = run_pipeline(PipelineConfig(), records)
    kinds = [e.kind for e in result.events]
    assert EventKind.WATCHDOG in kinds


def test_insufficient_training():
    records, _ = make_trace(days=0.5, seed=25)
    with pytest.raises(InsufficientTrainingError):
        run_pipeline(PipelineConfig(), records)


def test_log_covers_every_record_and_z_column_phases():
    records, _ = make_trace(seed=26)
    result = run_pipeline(PipelineConfig(), records)
    assert [r.timestamp_s for r in result.log_records] == [r.timestamp_s for r in records]
    trained_at = None
    for i, rec in enumerate(result.log_records):
        if rec.composite_z is not None:
            trained_at = i
            break
    assert trained_at is not None
    # before the first scored cycle the z column is empty
    assert all(r.composite_z is None for r in result.log_records[:trained_at])
    # flags only on event records
    flagged = [r for r in result.log_records if r.anomaly_flag == 1]
    assert flagged == []


def test_pretrained_model_skips_training():
    records, _ = make_trace(seed=27)
    model = run_pipeline(PipelineConfig(), records).model
    short = records[: len(records) // 4]
    result = run_pipeline(PipelineConfig(), short, model=model)
    assert result.model == model
    assert any(r.composite_z is not None for r in result.log_records)


def test_rerun_reproduces_identical_scores():
    records, _ = make_trace(seed=28)
    a = run_pipeline(PipelineConfig(), records)
    b = run_pipeline(PipelineConfig(), records)
    assert a.log_records == b.log_records
    assert a.events == b.events
    assert a.model == b.model


def test_saved_model_reproduces_scores():
    records, _ = make_trace(seed=29)
    result = run_pipeline(PipelineConfig(), records)
    buf = io.StringIO()
    result.model.save(buf)
    reloaded = ModelParams.load(io.StringIO(buf.getvalue()))
    replay = run_pipeline(PipelineConfig(), records, model=reloaded)
    scored_a = [r.composite_z for r in result.log_records if r.composite_z is not None]
    scored_b = [r.composite_z for r in replay.log_records if r.composite_z is not None]
    # the pretrained run scores the training cycles too; compare the tail
    assert scored_b[-len(scored_a):] == scored_a


def test_config_validation():
    with pytest.raises(InvalidInputError):
        PipelineConfig(training_cycles=1)
    with pytest.raises(InvalidInputError):
        PipelineConfig(z_threshold=0)
    for bad in ({"training_cycles": 2.5}, {"training_cycles": True},
                {"sigma_min": float("nan")}, {"match_grace_s": float("inf")},
                {"match_grace_s": float("nan")}, {"match_grace_s": -1.0},
                {"on_enter_amps": 0.2, "off_enter_amps": 0.2}):
        with pytest.raises(InvalidInputError):
            PipelineConfig(**bad)
    # evaluate's rule: a zero grace matches only inside a label's window
    assert PipelineConfig(match_grace_s=0).match_grace_s == 0


def test_profile_reports_state_size_and_budget():
    records, _ = make_trace(seed=30)
    model = run_pipeline(PipelineConfig(), records).model
    summary = profile_inference(model, n_trials=2000)
    assert summary["stat_values"] == 10
    assert summary["counters"] == 1
    assert summary["median_s"] < 1e-3


def test_profile_times_every_trial_in_batches():
    records, _ = make_trace(days=2, seed=31)
    model = run_pipeline(PipelineConfig(training_cycles=10), records).model
    for n in (1, 99, 250):
        summary = profile_inference(model, n_trials=n)
        assert summary["n_trials"] == n
        assert 0 < summary["min_s"] <= summary["median_s"] <= summary["p99_s"]


# values on, next to and between the hysteresis thresholds (0.20, 0.45)
band_rms = st.sampled_from([0.0, 0.07, 0.1999, 0.2, 0.2001, 0.3, 0.4499, 0.45, 0.4501, 0.87])


@st.composite
def record_streams(draw):
    """Runs of records at one level; steps shorter than, equal to and
    longer than the 600 s watchdog limit used below."""
    records, ts = [], 1_700_000_000
    for _ in range(draw(st.integers(1, 25))):
        level = draw(band_rms | st.floats(0, 1.5))
        steps = draw(st.lists(st.sampled_from([300, 599, 600, 601]) | st.integers(1, 400),
                              min_size=1, max_size=10))
        for dt in steps:
            ts += dt
            records.append(RmsRecord(ts, level))
    return records


PRETRAINED = ModelParams(mean=(0.87, 0.87, 0.005, 0.0, 900.0),
                         std=(0.05, 0.05, 0.005, 1e-4, 600.0), trained_on=50)


@given(records=record_streams())
@settings(deadline=None)
def test_tracker_state_is_the_classify_state_fold(records):
    # the seed's classify_state is the reference; its states are its own enum
    tracker = CycleTracker()
    ON, OFF = seed.CompressorState.ON, seed.CompressorState.OFF
    thresholds = seed.StateThresholds(tracker.thresholds.on_enter_amps,
                                      tracker.thresholds.off_enter_amps)
    state = OFF
    for i, record in enumerate(records):
        features = tracker.ingest(record)
        prev, state = state, seed.classify_state(record.rms_amps, state, thresholds)
        assert tracker.state.value == state.value
        if state is ON:
            if prev is OFF:
                on_run_start = record.timestamp_s
            assert tracker.last_cycle_start_s == on_run_start
        if features is not None:
            assert features.duration_on_s == record.timestamp_s - on_run_start
        if state is OFF:
            if i == 0 or prev is ON:
                off_run_start = record.timestamp_s
            assert tracker.off_since_s == off_run_start


@given(
    records=record_streams(),
    training_cycles=st.integers(2, 4),
    threshold=st.sampled_from([0.5, 1.0, 2.5]),
    pretrained=st.booleans(),
    data=st.data(),
)
@settings(max_examples=200, deadline=None)
def test_monitor_run_continues_where_it_stopped(records, training_cycles, threshold,
                                                pretrained, data):
    config = PipelineConfig(training_cycles=training_cycles, z_threshold=threshold,
                            watchdog_off_limit_s=600)
    model = PRETRAINED if pretrained else None
    want_events = []
    want_log = list(Monitor(config, model).run(records, want_events))

    # a run broken off after k records and continued by a second run
    k = data.draw(st.integers(0, len(records)), label="k")
    monitor, events = Monitor(config, model), []
    log = list(itertools.islice(monitor.run(records, events), k))
    log += monitor.run(records[k:], events)
    assert log == want_log
    assert events == want_events


def test_watchdog_fires_on_the_record_that_crosses_its_limit():
    """Limit 600 s: the record exactly 600 s into an OFF streak is not past
    it and the next one fires, once per streak; the streak a cycle close
    starts fires again.  A run broken right before or right after a firing
    record and continued by a second run gives the same log and events."""
    t0, off, on = 1_700_000_000, 0.07, 0.87
    stream = [(0, off), (300, off), (600, off), (601, off), (900, off), (1500, off),
              (1530, on), (1560, on), (1590, off), (2190, off), (2191, off), (5000, off)]
    records = [RmsRecord(t0 + dt, rms) for dt, rms in stream]
    config = PipelineConfig(watchdog_off_limit_s=600)
    events = []
    log = list(Monitor(config).run(records, events))
    assert [(e.kind, e.detected_at_s - t0, e.cycle_start_s - t0, e.cycle_end_s - t0)
            for e in events] == [(EventKind.WATCHDOG, 601, 0, 601),
                                 (EventKind.WATCHDOG, 2191, 1590, 2191)]
    assert [r.timestamp_s - t0 for r in log if r.anomaly_flag] == [601, 2191]

    for fired in (3, 10):
        for k in (fired, fired + 1):
            monitor, split_events = Monitor(config), []
            split_log = list(itertools.islice(monitor.run(records, split_events), k))
            split_log += monitor.run(records[k:], split_events)
            assert (split_log, split_events) == (log, events), k


@pytest.mark.parametrize("bad", ["float timestamp", "nan rms"])
def test_monitor_run_refuses_what_log_record_refuses(bad):
    """A record that LogRecord would refuse is refused by the tracker's
    ingest with the constructor's message and column: a float timestamp,
    or an rms set to NaN after the record was built."""
    t0 = 1_700_000_000
    records = [RmsRecord(t0, 0.07), RmsRecord(t0 + 30, 0.07), RmsRecord(t0 + 60, 0.07)]
    if bad == "float timestamp":
        records[2] = RmsRecord(t0 + 60.0, 0.07)
    else:
        records[2].rms_amps = math.nan
    last = records[2]
    with pytest.raises(InvalidInputError) as want:
        LogRecord(last.timestamp_s, last.rms_amps, None, 0, EventKind.NONE)
    with pytest.raises(InvalidInputError) as got:
        list(Monitor(PipelineConfig()).run(records, []))
    assert (str(got.value), got.value.column) == (str(want.value), want.value.column)


def test_an_overflowing_composite_changes_no_detector_state():
    """A cycle of rms 1e305 against a model whose rms std is 1e-3 scores an
    inf composite; detect refuses it, and the composite and streak of the
    anomalous cycle before it are kept."""
    model = ModelParams(mean=(0.87, 0.87, 0.005, 0.0, 900.0),
                        std=(1e-3, 1e-3, 0.005, 1e-4, 600.0), trained_on=50)
    monitor, events = Monitor(PipelineConfig(), model), []
    levels = [1.0] * 30 + [0.07] * 30 + [1e305] * 30 + [0.07]
    records = [RmsRecord(1_700_000_000 + 30 * i, level) for i, level in enumerate(levels)]
    with pytest.raises(InvalidInputError, match="composite score must be finite"):
        list(monitor.run(records, events))
    assert [e.kind for e in events] == [EventKind.ZSCORE]
    assert (monitor.last_composite, monitor.detector.streak) == (events[0].composite, 1)


def test_a_cycle_too_large_to_train_on_is_refused_at_its_close(tmp_path):
    """A normal cycle, a 10-record cycle at 1e200 A, then normal ones: the
    second cycle is refused where it closes, before a normal cycle after it
    could overflow the Welford sums, and the statistics keep the first."""
    levels = [0.87] * 10 + [0.07] * 10 + [1e200] * 10 + [0.07] * 10 + [0.87] * 10 + [0.07]
    records = [RmsRecord(1_700_000_000 + 30 * i, level) for i, level in enumerate(levels)]
    config = PipelineConfig(training_cycles=2)
    before = Monitor(config)
    list(before.run(records[:30], []))  # up to the record that closes the 1e200 cycle
    monitor = Monitor(config)
    with pytest.raises(InvalidInputError, match="2\\*\\*500"):
        list(monitor.run(records, []))
    assert monitor.stats == before.stats and monitor.stats.count == 1
    trace = tmp_path / "trace.csv"
    with open(trace, "w") as fh:
        event_log.write_trace(records, fh)
    outputs = [tmp_path / "log.csv", tmp_path / "events.csv"]
    assert main(["run", "--trace", str(trace), "--log", str(outputs[0]),
                 "--events", str(outputs[1]), "--training-cycles", "2"]) == 2
    assert not any(path.exists() for path in outputs)


# the whole detector state: a field added to any of these must be listed here
MONITOR_STATE = {"config", "tracker", "stats", "model", "detector", "last_composite"}
TRACKER_STATE = {"thresholds", "state", "last_timestamp_s", "off_since_s", "last_cycle_start_s",
                 "_n", "_mean", "_m2", "_last_rms", "_mean_e", "_see", "_ser"}
DETECTOR_STATE = {"threshold", "streak"}


def test_monitor_state_is_the_documented_fields():
    monitor = Monitor(PipelineConfig(training_cycles=5))
    parts = (monitor, monitor.tracker, monitor.detector)
    fresh = [set(vars(part)) for part in parts]
    sc = AnomalyScenario(ScenarioKind.POWER_DISRUPTION, 1.5 * DAY)
    records, _ = make_trace([sc], days=2, seed=7)
    events = []
    list(monitor.run(records, events))
    # trained, then scored cycles, and the watchdog fired
    assert monitor.model is not None and monitor.last_composite is not None
    assert [e.kind for e in events] == [EventKind.WATCHDOG]
    assert [set(vars(part)) for part in parts] == fresh == [
        MONITOR_STATE, TRACKER_STATE, DETECTOR_STATE]
