"""The frozen seed as the oracle: with no option on, the detector must
write what the seed commit's code writes, byte for byte.

``bench/seed_src/ampwatch`` holds that code, frozen.  It is loaded here
under an alias package name, next to the ampwatch under test, so nothing
under ``bench/`` and nothing on ``sys.path`` changes.
"""

import importlib.util
import io
import itertools
import random
import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from ampwatch import event_log
from ampwatch.errors import InsufficientTrainingError
from ampwatch.pipeline import Monitor, PipelineConfig
from ampwatch.signal_core import RmsRecord
from ampwatch.zscore_model import ModelParams

SEED_PACKAGE = Path(__file__).resolve().parents[1] / "bench" / "seed_src" / "ampwatch"


def _load_seed(alias="ampwatch_seed"):
    spec = importlib.util.spec_from_file_location(
        alias, SEED_PACKAGE / "__init__.py", submodule_search_locations=[str(SEED_PACKAGE)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[alias] = package
    spec.loader.exec_module(package)
    return package


seed = _load_seed()

# levels at, inside and across the 0.20-0.45 A hysteresis band
ON_SIDE = [0.3, 0.44, 0.46, 0.87, 0.87, 1.5]
OFF_SIDE = [0.0, 0.07, 0.07, 0.19, 0.21, 0.3]
# 1-300 s divide both watchdog limits, so a record can land exactly on one
STEPS = [1, 30, 30, 60, 300, 601, 3601, 7000]


@st.composite
def streams(draw):
    """(timestamp, rms) rows: up to 40 would-be cycles, each an ON-side
    and an OFF-side segment of one level, step and noise."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    ts, rows = 1_700_000_000, []
    for _ in range(draw(st.integers(1, 40))):
        for side in (ON_SIDE, OFF_SIDE):
            level, step, noise = rng.choice(side), rng.choice(STEPS), rng.choice([0, 0.01, 0.05])
            for _ in range(rng.randint(1, 40)):
                rows.append((ts, max(0.0, level + rng.gauss(0.0, noise))))
                ts += step
    return rows


def _written(log_records, events, model, module):
    log, ev = io.StringIO(), io.StringIO()
    module.write_log(log_records, log)
    module.write_events(events, ev)
    return log.getvalue(), ev.getvalue(), model.to_text()


def _seed_files(rows, training_cycles, threshold, limit_s):
    config = seed.PipelineConfig(training_cycles=training_cycles, z_threshold=threshold,
                                 watchdog_off_limit_s=limit_s)
    try:
        result = seed.run_pipeline(config, [seed.RmsRecord(ts, rms) for ts, rms in rows])
    except seed.InsufficientTrainingError as exc:
        return str(exc)
    return _written(result.log_records, result.events, result.model, seed.event_log)


def _run_in_cuts(monitor, records, cuts, events):
    """The log of ``monitor`` fed ``records`` by part-consumed runs, each
    left after the next cut and the stream continued by a new run."""
    log, start = [], 0
    for cut in sorted(min(c, len(records)) for c in cuts) + [len(records)]:
        log += itertools.islice(monitor.run(records[start:], events), cut - start)
        start = cut
    return log


@given(rows=streams(), training_cycles=st.integers(2, 8), threshold=st.sampled_from([1.0, 2.5]),
       limit_s=st.sampled_from([600.0, 3600.0]), cuts=st.lists(st.integers(0, 2400), max_size=4))
@settings(max_examples=80, deadline=None)
def test_monitor_writes_what_the_seed_writes(rows, training_cycles, threshold, limit_s, cuts):
    """The log, events and model bytes of a Monitor whose stream is cut into
    part-consumed runs equal those of the seed's run_pipeline on the whole
    stream; a stream too short to train fails with the seed's message."""
    records = [RmsRecord(ts, rms) for ts, rms in rows]
    monitor = Monitor(PipelineConfig(training_cycles=training_cycles, z_threshold=threshold,
                                     watchdog_off_limit_s=limit_s))
    events = []
    log = _run_in_cuts(monitor, records, cuts, events)
    try:
        got = _written(log, events, monitor.finish(), event_log)
    except InsufficientTrainingError as exc:
        got = str(exc)
    assert got == _seed_files(rows, training_cycles, threshold, limit_s)


@st.composite
def models(draw):
    """(mean, std) of a pretrained model: one ON level and duration, and a
    spread that makes the stream's cycles near or far from it."""
    level = draw(st.sampled_from(ON_SIDE))
    duration = draw(st.sampled_from([60.0, 600.0, 6000.0]))
    spread = draw(st.sampled_from([0.01, 0.1, 1.0, 10.0]))
    return (level, level, 0.01, 0.0, duration), (spread, spread, spread, spread / 100, duration)


def _record_fields(log_records):
    return [(r.timestamp_s, r.rms_amps.hex(),
             None if r.composite_z is None else r.composite_z.hex(),
             r.anomaly_flag, r.event_kind.value) for r in log_records]


def _event_fields(events):
    return [(e.kind.value, e.detected_at_s, None if e.composite is None else e.composite.hex(),
             e.streak, e.cycle_start_s, e.cycle_end_s) for e in events]


@given(rows=streams(), model=models(), threshold=st.sampled_from([1.0, 2.5]),
       limit_s=st.sampled_from([600.0, 3600.0]), cuts=st.lists(st.integers(0, 2400), max_size=4))
@settings(max_examples=80, deadline=None)
def test_pretrained_monitor_yields_the_seeds_records(rows, model, threshold, limit_s, cuts):
    """With a pretrained model, every record that part-consumed Monitor runs
    yield equals the seed's run_pipeline record field by field (timestamp,
    rms and z bits, flag, kind text), and every event equals the seed's."""
    mean, std = model
    monitor = Monitor(PipelineConfig(z_threshold=threshold, watchdog_off_limit_s=limit_s),
                      ModelParams(mean, std, 50))
    events = []
    log = _run_in_cuts(monitor, [RmsRecord(ts, rms) for ts, rms in rows], cuts, events)
    want = seed.run_pipeline(
        seed.PipelineConfig(z_threshold=threshold, watchdog_off_limit_s=limit_s),
        [seed.RmsRecord(ts, rms) for ts, rms in rows], seed.ModelParams(mean, std, 50))
    assert _record_fields(log) == _record_fields(want.log_records)
    assert _event_fields(events) == _event_fields(want.events)
