"""Acceptance suite: one test per release criterion, one PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import math
import random
import statistics
import subprocess
import sys
import time

import numpy as np
import pytest

from ampwatch import event_log
from ampwatch.cycle_tracker import CycleFeatures
from ampwatch.evaluation import evaluate
from ampwatch.event_log import EventKind, LogRecord, parse_record, serialize_record
from ampwatch.pipeline import PipelineConfig, profile_inference, run_pipeline
from ampwatch.signal_core import RmsRecord, SampleBlock, compute_rms
from ampwatch.simulator import (
    AnomalyScenario,
    ApplianceProfile,
    ScenarioKind,
    generate_trace,
)
from ampwatch.zscore_model import (
    DetectorState,
    FeatureStats,
    ModelParams,
    detect,
    finalize,
    score,
    train_update,
)

DAY = 86_400.0

PAPER_SCENARIOS = [
    AnomalyScenario(ScenarioKind.THERMOSTAT_LONG_ON, 4 * DAY),    # ~5 h runtime
    AnomalyScenario(ScenarioKind.DOOR_OPEN, 7 * DAY),             # ON stretched 2-3x
    AnomalyScenario(ScenarioKind.DOOR_OPEN, 9 * DAY),
    AnomalyScenario(ScenarioKind.POWER_DISRUPTION, 12 * DAY),     # 2 h outage
]


def run_experiment(seed):
    records, labels = generate_trace(ApplianceProfile(), PAPER_SCENARIOS, 14 * DAY, seed)
    result = run_pipeline(PipelineConfig(), records)
    return records, labels, result


def ok(msg):
    print(f"PASS  {msg}")


def test_criterion_1_paper_mirror_experiment():
    """14-day, 4-anomaly experiment: P = R = F1 = 1.00 over 100 seeds."""
    n_seeds = 100
    t0 = time.perf_counter()
    for seed in range(n_seeds):
        records, labels, result = run_experiment(seed)
        assert len(records) == 40_320
        report = evaluate(result.events, labels, match_grace_s=7200.0)
        assert report.true_positives == 4, f"seed {seed}: {report}"
        assert report.false_positives == 0, f"seed {seed}: {report}"
        assert report.false_negatives == 0, f"seed {seed}: {report}"
        assert report.precision == 1.0
        assert report.recall == 1.0
        assert report.f1 == 1.0
    per_seed = (time.perf_counter() - t0) / n_seeds
    assert per_seed < 5.0
    ok(f"criterion 1: P=R=F1=1.00, zero FP over {n_seeds} seeds "
       f"({per_seed:.2f} s/seed)")


def test_criterion_2_watchdog_timing():
    """Watchdog fires at OFF onset + 3600 s, within one record interval."""
    for seed in (0, 1, 2, 3, 4):
        _, labels, result = run_experiment(seed)
        outage = [l for l in labels if l.kind == ScenarioKind.POWER_DISRUPTION][0]
        wd = [e for e in result.events if e.kind == EventKind.WATCHDOG]
        assert len(wd) == 1
        delay = wd[0].detected_at_s - outage.window_start_s
        assert 3600 < delay <= 3600 + 30, f"seed {seed}: delay {delay}"
    ok("criterion 2: watchdog at OFF onset + 3600 s (+<=30 s lattice)")


def test_criterion_3_rms_correctness():
    """Sine RMS closed form within 1e-6; scale homogeneity within 1e-12."""
    rng = random.Random(101)
    n, periods, rate = 1000, 10, 6000.0
    t = np.arange(n) / n
    for _ in range(20):
        amp = rng.uniform(0.01, 20.0)
        samples = amp * np.sin(2 * math.pi * periods * t)
        block = SampleBlock(tuple(samples.tolist()), rate)
        expected = amp / math.sqrt(2)
        assert compute_rms(block) == pytest.approx(expected, rel=1e-6)
    for _ in range(50):
        samples = [rng.uniform(-3, 3) for _ in range(200)]
        c = rng.uniform(-100, 100) or 1.0
        base = compute_rms(SampleBlock(tuple(samples), rate))
        scaled = compute_rms(SampleBlock(tuple(c * s for s in samples), rate))
        assert scaled == pytest.approx(abs(c) * base, rel=1e-12)
    ok("criterion 3: RMS closed form (1e-6) and scale homogeneity (1e-12)")


def test_criterion_4_streaming_statistics_oracle():
    """Incremental stats match two-pass batch over 1000 random sequences."""
    rng = np.random.default_rng(202)
    lengths = np.unique(
        np.round(np.exp(rng.uniform(math.log(2), math.log(2000), size=990))).astype(int)
    ).tolist()
    while len(lengths) < 990:
        lengths.append(int(rng.integers(2, 2001)))
    lengths += [100_000] * 10
    assert len(lengths) >= 1000
    for length in lengths:
        rows = rng.normal(rng.uniform(-10, 10, size=5), rng.uniform(0.1, 5, size=5),
                          size=(length, 5))
        stats = FeatureStats()
        for row in rows:
            train_update(stats, CycleFeatures(*row))
        params = finalize(stats)
        mu = rows.mean(axis=0)
        sigma = rows.std(axis=0)
        assert np.allclose(params.mean, mu, rtol=1e-9, atol=0)
        assert np.allclose(params.std, sigma, rtol=1e-9, atol=0)
    ok(f"criterion 4: {len(lengths)} sequences match the batch oracle (1e-9)")


def test_criterion_5_zscore_unit_checks():
    """Exact zero at the mean, 0.4 at mu+2sigma, affine-invariant decisions."""
    params = ModelParams(mean=(1.0, 2.0, 3.0, 4.0, 5.0),
                         std=(0.1, 0.2, 0.3, 0.4, 0.5), trained_on=50)
    assert score(params, CycleFeatures(*params.mean)).composite == 0.0
    vec = list(params.mean)
    vec[1] += 2 * params.std[1]
    assert score(params, CycleFeatures(*vec)).composite == pytest.approx(0.4, abs=1e-12)

    rng = np.random.default_rng(303)
    for _ in range(1000):
        rows = rng.normal(rng.uniform(-5, 5, size=5), rng.uniform(0.5, 2, size=5),
                          size=(10, 5))
        query = rows.mean(axis=0) + rng.normal(0, 3, size=5)
        a = rng.uniform(0.1, 10, size=5)
        b = rng.uniform(-20, 20, size=5)
        k = int(rng.integers(0, 5))

        def train(data):
            stats = FeatureStats()
            for row in data:
                train_update(stats, CycleFeatures(*row))
            return finalize(stats)

        base = score(train(rows), CycleFeatures(*query))
        mapped_rows = rows.copy()
        mapped_rows[:, k] = a[k] * mapped_rows[:, k] + b[k]
        mapped_query = query.copy()
        mapped_query[k] = a[k] * mapped_query[k] + b[k]
        mapped = score(train(mapped_rows), CycleFeatures(*mapped_query))
        assert mapped.composite == pytest.approx(base.composite, rel=1e-9, abs=1e-9)
        assert detect(DetectorState(), base.composite) == detect(
            DetectorState(), mapped.composite
        )
    ok("criterion 5: z-score unit checks and 1000 affine-invariance cases")


def test_criterion_6_model_state_size():
    """10 statistics + 1 counter, constant in trace length."""
    profile = ApplianceProfile()
    records, _ = generate_trace(profile, [], 14 * DAY, seed=5)
    result = run_pipeline(PipelineConfig(), records)
    text = result.model.to_text()
    stat_lines = [l for l in text.strip().splitlines() if l.startswith(("mean.", "std."))]
    assert len(stat_lines) == 10
    assert sum(1 for l in text.strip().splitlines() if l.startswith("trained_on=")) == 1

    long_records, _ = generate_trace(profile, [], 140 * DAY, seed=5)
    long_result = run_pipeline(PipelineConfig(), long_records)
    long_text = long_result.model.to_text()
    assert len(long_text.strip().splitlines()) == len(text.strip().splitlines())

    stats = FeatureStats()
    for _ in range(10_000):
        train_update(stats, CycleFeatures(0.87, 0.87, 0.005, 0.0, 1800.0))
    assert set(vars(stats)) == {"count", "mean", "m2"}
    assert len(stats.mean) == 5 and len(stats.m2) == 5
    ok("criterion 6: model state is 10 values + 1 counter at 1x and 10x length")


def test_criterion_7_latency():
    """Median score+detect < 1 ms and independent of training-set size."""
    def train_model(n_cycles, seed):
        rng = np.random.default_rng(seed)
        stats = FeatureStats()
        for row in rng.normal([0.87, 0.87, 0.005, 0.0, 1800.0],
                              [0.006, 0.006, 0.0005, 1e-6, 100.0],
                              size=(n_cycles, 5)):
            train_update(stats, CycleFeatures(*row))
        return finalize(stats)

    small = profile_inference(train_model(50, 1), n_trials=20_000)
    large = profile_inference(train_model(5000, 2), n_trials=20_000)
    assert small["median_s"] < 1e-3
    assert large["median_s"] < 1e-3
    ratio = large["median_s"] / small["median_s"]
    assert 0.2 < ratio < 5.0, f"latency ratio {ratio}"
    ok(f"criterion 7: median {small['median_s'] * 1e6:.1f} us (50 cycles) vs "
       f"{large['median_s'] * 1e6:.1f} us (5000 cycles)")


def test_criterion_8_log_round_trip_and_replay():
    """10,000 random records round-trip; replay reproduces composites."""
    rng = random.Random(404)
    kinds = [EventKind.NONE, EventKind.ZSCORE, EventKind.WATCHDOG]
    for _ in range(10_000):
        kind = rng.choice(kinds)
        z = None if rng.random() < 0.3 else rng.randrange(-100_000, 100_000) / 10_000
        rec = LogRecord(
            timestamp_s=rng.randrange(0, 2**33),
            rms_amps=rng.randrange(0, 200_000) / 10_000,
            composite_z=z,
            anomaly_flag=0 if kind == EventKind.NONE else 1,
            event_kind=kind,
        )
        assert parse_record(serialize_record(rec)) == rec

    # emulate the CLI flow: the trace CSV quantizes rms to 4 digits before `run`
    raw_records, _ = generate_trace(ApplianceProfile(), PAPER_SCENARIOS, 14 * DAY, 11)
    trace = [RmsRecord(r.timestamp_s, float(f"{r.rms_amps:.4f}")) for r in raw_records]
    result = run_pipeline(PipelineConfig(), trace)
    lines = [serialize_record(r) for r in result.log_records]
    parsed = [parse_record(l) for l in lines]
    replay_records = [RmsRecord(r.timestamp_s, r.rms_amps) for r in parsed]
    replayed = run_pipeline(PipelineConfig(), replay_records)
    orig_z = [f"{r.composite_z:.4f}" for r in result.log_records if r.composite_z is not None]
    new_z = [f"{r.composite_z:.4f}" for r in replayed.log_records if r.composite_z is not None]
    assert new_z == orig_z
    ok("criterion 8: 10,000-record round-trip and replay-identical composites")


def test_criterion_9_cli_determinism(tmp_path):
    """simulate and run produce byte-identical files across invocations."""
    def cli(args):
        proc = subprocess.run([sys.executable, "-m", "ampwatch", *args],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return proc

    sim_args = ["simulate", "--duration-days", "14", "--seed", "7",
                "--scenario", "long_on:345600",
                "--scenario", "door_open:604800",
                "--scenario", "door_open:777600",
                "--scenario", "power_disruption:1036800"]
    pairs = []
    for tag in ("a", "b"):
        trace = tmp_path / f"trace_{tag}.csv"
        labels = tmp_path / f"labels_{tag}.csv"
        cli(sim_args + ["--out", str(trace), "--labels", str(labels)])
        log = tmp_path / f"log_{tag}.csv"
        events = tmp_path / f"events_{tag}.csv"
        model = tmp_path / f"model_{tag}.txt"
        cli(["run", "--trace", str(trace), "--log", str(log),
             "--events", str(events), "--model", str(model)])
        pairs.append((trace, labels, log, events, model))
    for fa, fb in zip(pairs[0], pairs[1]):
        assert fa.read_bytes() == fb.read_bytes(), f"{fa} differs from {fb}"
    ok("criterion 9: simulate and run outputs byte-identical across runs")
