"""Traced run: spans around each workload's layer calls, plus a census
that times every layer's public functions in batches.

Spans are recorded from the benchmark's side of each call into a layer
(ampwatch itself is not instrumented).  A batch is N calls between one
pair of perf_counter reads, repeated, on the data the workload itself
produced; that keeps timer overhead out of microsecond-sized calls.

Where a workload never calls a layer, the census still times that
layer on the workload's data (an "off-path probe"), so every per-layer
metric exists on every workload.  Only on-path costs enter the
accounting of wall_s, whose remainder is reported as
trace.unaccounted_s.
"""

import gc
import io
import os
import statistics
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, List, Tuple

from ampwatch import event_log
from ampwatch.cycle_tracker import CompressorState, CycleTracker, check_watchdog
from ampwatch.evaluation import evaluate
from ampwatch.pipeline import run_pipeline
from ampwatch.signal_core import RmsRecord, SampleBlock, adc_to_amps, compute_rms
from ampwatch.zscore_model import (
    DetectorState,
    FeatureStats,
    ModelParams,
    detect,
    finalize,
    score,
    train_update,
)

from workloads import (
    ADC_PARAMS,
    ADC_RATE_HZ,
    MATCH_GRACE_S,
    LayerInputs,
    Workload,
    adc_blocks,
    run_cli,
    scenario_args,
    trace_rows,
    write_trace_files,
)

# Off-path ADC probes convert this many blocks built from the records.
PROBE_BLOCKS = 2000
MiB = 1024 * 1024


class Tracer:
    """In-memory spans: (name, parent index, start, end)."""

    def __init__(self):
        self.spans: List[Tuple[str, int, float, float]] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append((name, parent, time.perf_counter(), 0.0))
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            n, p, start, _ = self.spans[idx]
            self.spans[idx] = (n, p, start, time.perf_counter())

    def self_times(self) -> Dict[str, float]:
        """Seconds per span name, minus what child spans cover."""
        out: Dict[str, float] = {}
        for name, parent, start, end in self.spans:
            out[name] = out.get(name, 0.0) + (end - start)
            if parent >= 0:
                pname = self.spans[parent][0]
                out[pname] = out.get(pname, 0.0) - (end - start)
        return out


def batch_seconds(fn, reps: int) -> float:
    """Median seconds of one fn() call over reps calls; fn runs a batch."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def percentile(sorted_values, q: float) -> float:
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]


@dataclass
class Walk:
    """One untimed tracker pass over the records: where cycles close and
    which records reach the watchdog, as run_pipeline sees them."""

    features: list
    closing_index: List[int]
    watchdog_calls: List[Tuple[int, int]]


def walk(inputs: LayerInputs, config) -> Walk:
    tracker = CycleTracker(config.thresholds())
    features, closing, wd_calls = [], [], []
    off_since = None
    for i, rec in enumerate(inputs.records):
        f = tracker.ingest(rec)
        if f is not None:
            features.append(f)
            closing.append(i)
        if tracker.state == CompressorState.OFF:
            if off_since is None:
                off_since = rec.timestamp_s
            wd_calls.append((rec.timestamp_s, off_since))
        else:
            off_since = None
    return Walk(features, closing, wd_calls)


class PeakMemory:
    """tracemalloc peak, in MiB, over the block it wraps."""

    mib = None

    def __enter__(self):
        gc.collect()
        tracemalloc.start()
        return self

    def __exit__(self, *exc):
        self.mib = tracemalloc.get_traced_memory()[1] / MiB
        tracemalloc.stop()


def census(wl: Workload, inputs: LayerInputs, workdir: str) -> Dict[str, float]:
    """Per-unit seconds of each layer call, plus counts, on this workload's data."""
    c: Dict[str, float] = {"n": len(inputs.records)}
    w = walk(inputs, wl.config)
    c["cycles"] = len(w.features)
    c["watchdog_calls"] = len(w.watchdog_calls)
    trace = inputs.trace
    c["generate_trace"] = (batch_seconds(trace.generate, 3)
                           / (trace.duration_s // trace.profile.record_interval_s))
    _signal_core(c, inputs)
    _cycle_tracker(c, inputs, w, wl.config)
    _zscore_model(c, inputs, w, wl.config)
    result = _pipeline(c, inputs, w, wl.config)
    files = _event_log(c, inputs, result, workdir)
    c["evaluate"] = batch_seconds(
        lambda: [evaluate(result.events, inputs.labels, MATCH_GRACE_S) for _ in range(100)],
        3) / 100
    _cli_probes(c, trace, files, workdir)
    return c


def _signal_core(c, inputs):
    recs = inputs.records
    blocks = inputs.blocks[:PROBE_BLOCKS] if inputs.blocks else adc_blocks(recs[:PROBE_BLOCKS])
    samples = sum(len(b) for _, b in blocks)
    amps = [[adc_to_amps(x, ADC_PARAMS) for x in b] for _, b in blocks]
    sblocks = [SampleBlock(a, ADC_RATE_HZ) for a in amps]
    c["adc_to_amps"] = batch_seconds(
        lambda: [[adc_to_amps(x, ADC_PARAMS) for x in b] for _, b in blocks], 3) / samples
    c["sample_block"] = batch_seconds(
        lambda: [SampleBlock(a, ADC_RATE_HZ) for a in amps], 3) / len(blocks)
    c["compute_rms"] = batch_seconds(lambda: [compute_rms(b) for b in sblocks], 3) / len(blocks)
    pairs = [(r.timestamp_s, r.rms_amps) for r in recs]
    c["rms_record"] = batch_seconds(
        lambda: [RmsRecord(ts, x) for ts, x in pairs], 3) / len(pairs)


def _cycle_tracker(c, inputs, w, config):
    def ingest_all():
        tracker = CycleTracker(config.thresholds())
        for r in inputs.records:
            tracker.ingest(r)
    c["ingest"] = batch_seconds(ingest_all, 3) / c["n"]
    wd = config.watchdog()
    calls = w.watchdog_calls or [(0, 0)]
    c["check_watchdog"] = batch_seconds(
        lambda: [check_watchdog(now, since, wd, False) for now, since in calls], 3) / len(calls)


def _zscore_model(c, inputs, w, config):
    train_feats = w.features[:config.training_cycles]
    model = inputs.model
    if model is None:
        stats = FeatureStats()
        for f in train_feats:
            train_update(stats, f)
        model = finalize(stats, config.sigma_min)
        scored = w.features[config.training_cycles:]
        c["trained_cycles"] = len(train_feats)
    else:  # a frozen model scores every cycle
        scored = w.features
        c["trained_cycles"] = 0
    c["scored_cycles"] = len(scored)
    reps = 200

    def train_batch():
        for _ in range(reps):
            stats = FeatureStats()
            for f in train_feats:
                train_update(stats, f)
    c["train_update"] = batch_seconds(train_batch, 3) / (reps * len(train_feats))
    probe = scored or w.features
    c["score"] = batch_seconds(lambda: [score(model, f) for f in probe], 5) / len(probe)
    composites = [score(model, f).composite for f in probe]

    def detect_batch():
        det = DetectorState(threshold=config.z_threshold)
        for z in composites:
            detect(det, z)
    c["detect"] = batch_seconds(detect_batch, 5) / len(composites)
    text = model.to_text()
    c["model_load"] = batch_seconds(
        lambda: [ModelParams.load(io.StringIO(text)) for _ in range(1000)], 3) / 1000


def _pipeline(c, inputs, w, config):
    recs, model = inputs.records, inputs.model
    c["run_pipeline"] = batch_seconds(lambda: run_pipeline(config, recs, model), 3) / c["n"]

    stamps: List[int] = []

    def stamped():
        clock = time.perf_counter_ns
        for r in recs:
            stamps.append(clock())
            yield r
        stamps.append(clock())
    gc.collect()
    run_pipeline(config, stamped(), model)
    # the gap after pull i is run_pipeline's work on record i
    gaps = [(b - a) / 1000 for a, b in zip(stamps, stamps[1:])]
    ordered = sorted(gaps)
    c["record_us.p50"] = percentile(ordered, 0.50)
    c["record_us.p99"] = percentile(ordered, 0.99)
    c["record_us.p999"] = percentile(ordered, 0.999)
    c["cycle_close_us.p50"] = statistics.median(gaps[i] for i in w.closing_index)

    gen_counts = [0, 0, 0]

    def on_gc(phase, info):
        if phase == "start":
            gen_counts[info["generation"]] += 1
    gc.collect()
    gc.callbacks.append(on_gc)
    try:
        result = run_pipeline(config, recs, model)
    finally:
        gc.callbacks.remove(on_gc)
    for g in range(3):
        c[f"gc.gen{g}"] = gen_counts[g]
    c["retained_records"] = len(result.log_records)
    with PeakMemory() as peak:
        run_pipeline(config, iter(recs), model)
    c["pipeline.peak_mib"] = peak.mib
    return result


def _event_log(c, inputs, result, workdir):
    n, events = c["n"], result.events
    c["events"] = len(events)
    files = {name: os.path.join(workdir, f"census_{name}")
             for name in ("trace.csv", "labels.csv", "log.csv", "events.csv")}
    rows = trace_rows(inputs.records)
    write_trace_files(inputs.records, inputs.labels, files["trace.csv"], files["labels.csv"])

    def write(path, writer, items):
        with open(path, "w") as fh:
            writer(items, fh)

    def read(path, reader):
        with open(path) as fh:
            return reader(fh)
    c["write_trace"] = batch_seconds(
        lambda: write(files["trace.csv"], event_log.write_log, rows), 3) / n
    c["write_log"] = batch_seconds(
        lambda: write(files["log.csv"], event_log.write_log, result.log_records), 3) / n
    read_path = files["log.csv" if inputs.reads_full_log else "trace.csv"]
    c["read_log"] = batch_seconds(lambda: read(read_path, event_log.read_log), 3) / n
    with PeakMemory() as peak:
        read(read_path, event_log.read_log)
    c["read_log.peak_mib"] = peak.mib
    # a few events per file, so many files per batch
    reps = max(1, 2000 // max(1, len(events)))
    per = reps * max(1, len(events))
    c["write_events"] = batch_seconds(
        lambda: [write(files["events.csv"], event_log.write_events, events)
                 for _ in range(reps)], 3) / per
    c["read_events"] = batch_seconds(
        lambda: [read(files["events.csv"], event_log.read_events) for _ in range(reps)], 3) / per
    events_size = os.path.getsize(files["events.csv"])
    c["bytes_written"] = os.path.getsize(files["log.csv"]) + events_size
    c["bytes_read"] = os.path.getsize(read_path) + events_size
    return files


def _cli_probes(c, trace, files, workdir):
    """Each CLI subcommand once on this workload's files.  On-path CLI
    calls are taken from the traced passes instead."""
    model = os.path.join(workdir, "census_model.txt")
    out = os.path.join(workdir, "census_out.csv")
    commands = {
        "simulate": ["simulate", "--duration-s", f"{trace.duration_s:.0f}",
                     "--seed", str(trace.seed), *scenario_args(trace.scenarios),
                     "--out", out, "--labels", os.path.join(workdir, "census_l.csv")],
        "run": ["run", "--trace", files["trace.csv"], "--log", files["log.csv"],
                "--events", files["events.csv"], "--model", model],
        "eval": ["eval", "--events", files["events.csv"], "--labels", files["labels.csv"]],
        "replay": ["replay", "--log", files["log.csv"], "--model", model, "--out", out],
    }
    for name, argv in commands.items():
        t0 = time.perf_counter()
        run_cli(argv)
        c[f"cli_probe.{name}"] = time.perf_counter() - t0


def pipeline_parts(c, n) -> List[Tuple[str, float]]:
    """run_pipeline over n records, split into the layers it calls."""
    tracker = c["ingest"] * n + c["check_watchdog"] * c["watchdog_calls"] * n / c["n"]
    model = ((c["train_update"] * c["trained_cycles"]
              + (c["score"] + c["detect"]) * c["scored_cycles"]) * n / c["n"])
    return [("cycle_tracker", tracker), ("zscore_model", model),
            ("pipeline", c["run_pipeline"] * n - tracker - model)]


def cli_inner(c, command: str) -> List[Tuple[str, float]]:
    """Isolated layer calls that one CLI subcommand makes on this data."""
    n, e = c["n"], c["events"]
    if command == "simulate":
        return [("simulator", (c["generate_trace"] - c["rms_record"]) * n),
                ("signal_core", c["rms_record"] * n), ("event_log", c["write_trace"] * n)]
    if command == "run":
        return ([("event_log", c["read_log"] * n), ("signal_core", c["rms_record"] * n)]
                + pipeline_parts(c, n)
                + [("event_log", c["write_log"] * n + c["write_events"] * e)])
    if command == "eval":
        return [("event_log", c["read_events"] * e), ("evaluation", c["evaluate"])]
    if command == "replay":
        return ([("event_log", c["read_log"] * n), ("signal_core", c["rms_record"] * n),
                 ("zscore_model", c["model_load"])]
                + pipeline_parts(c, n) + [("event_log", c["write_log"] * n)])
    raise ValueError(command)


def blocking_steps(wl: Workload, inputs: LayerInputs, c,
                   spans: Dict[str, float]) -> List[Tuple[str, str, float]]:
    """(span, layer, seconds) for every blocking step of one pass."""
    steps = []
    if wl.uses_cli:
        for name in spans:
            command = name.split(".", 1)[1]
            steps += [(name, layer, s) for layer, s in cli_inner(c, command)]
        return steps
    n_total = wl.input_records()
    n_inputs = len(wl.trace_args())
    n = c["n"]
    if inputs.blocks:  # one block per record
        front = (c["adc_to_amps"] * len(inputs.blocks[0][1]) + c["sample_block"]
                 + c["compute_rms"] + c["rms_record"]) * n_total
        steps.append(("signal_core.front_end", "signal_core", front))
    else:
        steps.append(("simulator.generate_trace", "simulator",
                      (c["generate_trace"] - c["rms_record"]) * n_total))
        steps.append(("simulator.generate_trace", "signal_core", c["rms_record"] * n_total))
    steps += [("pipeline.run_pipeline", layer, s * n_total / n)
              for layer, s in pipeline_parts(c, n)]
    steps.append(("evaluation.evaluate", "evaluation", c["evaluate"] * n_inputs))
    return steps


def per_layer_metrics(wl: Workload, inputs: LayerInputs, c, spans: Dict[str, float],
                      traced_wall: float, untraced_wall: float) -> Tuple[Dict[str, Tuple[float, str]], list]:
    """The per_layer metrics of BENCHMARK.json, and the self-time table."""
    n = c["n"]
    m = {
        "simulator.generate_trace.us_per_record": (c["generate_trace"] * 1e6, "us"),
        "signal_core.adc_to_amps.ns_per_sample": (c["adc_to_amps"] * 1e9, "ns"),
        "signal_core.sample_block.us_per_block": (c["sample_block"] * 1e6, "us"),
        "signal_core.compute_rms.us_per_block": (c["compute_rms"] * 1e6, "us"),
        "signal_core.rms_record.ns_per_record": (c["rms_record"] * 1e9, "ns"),
        "cycle_tracker.ingest.us_per_record": (c["ingest"] * 1e6, "us"),
        "cycle_tracker.check_watchdog.ns_per_call": (c["check_watchdog"] * 1e9, "ns"),
        "cycle_tracker.records_per_cycle": (n / max(1, c["cycles"]), "count"),
        "zscore_model.train_update.us_per_cycle": (c["train_update"] * 1e6, "us"),
        "zscore_model.score.us_per_cycle": (c["score"] * 1e6, "us"),
        "zscore_model.detect.us_per_cycle": (c["detect"] * 1e6, "us"),
        "zscore_model.model_load.us": (c["model_load"] * 1e6, "us"),
        "pipeline.run_pipeline.us_per_record": (c["run_pipeline"] * 1e6, "us"),
        "pipeline.self_us_per_record": (pipeline_parts(c, n)[2][1] / n * 1e6, "us"),
        "pipeline.record_us.p50": (c["record_us.p50"], "us"),
        "pipeline.record_us.p99": (c["record_us.p99"], "us"),
        "pipeline.record_us.p999": (c["record_us.p999"], "us"),
        "pipeline.cycle_close_us.p50": (c["cycle_close_us.p50"], "us"),
        "pipeline.retained_records": (c["retained_records"], "count"),
        "pipeline.peak_mib": (c["pipeline.peak_mib"], "MiB"),
        "pipeline.gc_collections.gen0": (c["gc.gen0"], "count"),
        "pipeline.gc_collections.gen1": (c["gc.gen1"], "count"),
        "pipeline.gc_collections.gen2": (c["gc.gen2"], "count"),
        "event_log.write_log.us_per_record": (c["write_log"] * 1e6, "us"),
        "event_log.read_log.us_per_record": (c["read_log"] * 1e6, "us"),
        "event_log.write_events.us_per_event": (c["write_events"] * 1e6, "us"),
        "event_log.read_events.us_per_event": (c["read_events"] * 1e6, "us"),
        "event_log.bytes_written": (c["bytes_written"], "bytes"),
        "event_log.bytes_read": (c["bytes_read"], "bytes"),
        "event_log.read_log.peak_mib": (c["read_log.peak_mib"], "MiB"),
        "evaluation.evaluate.us": (c["evaluate"] * 1e6, "us"),
    }
    for command in ("simulate", "run", "eval", "replay"):
        secs = spans.get(f"cli.{command}", c[f"cli_probe.{command}"])
        m[f"cli.{command}.s"] = (secs, "s")
    steps = blocking_steps(wl, inputs, c, spans)
    # cli spans of the workload, or else the probe's `run` on its trace
    cli_spans = spans if wl.uses_cli else {"cli.run": c["cli_probe.run"]}
    cli_inner_s = sum(s for name in cli_spans
                      for _, s in cli_inner(c, name.split(".", 1)[1]))
    unaccounted_cli = sum(cli_spans.values()) - cli_inner_s
    m["cli.unaccounted_s"] = (unaccounted_cli, "s")

    by_layer: Dict[str, float] = {}
    for _, layer, secs in steps:
        by_layer[layer] = by_layer.get(layer, 0.0) + secs
    # on CLI workloads the remainder is mostly cli.unaccounted_s
    accounted = sum(by_layer.values())
    m["trace.overhead_ratio"] = (traced_wall / untraced_wall, "ratio")
    m["trace.accounted_ratio"] = (accounted / traced_wall, "ratio")
    m["trace.unaccounted_s"] = (traced_wall - accounted, "s")
    table = sorted(by_layer.items(), key=lambda kv: -kv[1])
    table.append(("(unaccounted)", traced_wall - accounted))
    return m, table
