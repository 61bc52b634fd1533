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
    log, events, start = [], [], 0
    for cut in sorted(min(c, len(records)) for c in cuts) + [len(records)]:
        log += itertools.islice(monitor.run(records[start:], events), cut - start)
        start = cut
    try:
        got = _written(log, events, monitor.finish(), event_log)
    except InsufficientTrainingError as exc:
        got = str(exc)
    assert got == _seed_files(rows, training_cycles, threshold, limit_s)
