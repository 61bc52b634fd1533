"""The four benchmark workloads.

Every workload builds its inputs from a seed in untimed set-up and then
processes one whole input per pass through ampwatch's public functions:
closed loop, one process, one thread.  Only run_pass is timed; outputs()
then gives the correctness gate what it needs: digests of the bytes the
program produced and the detection counts, when the workload carries
ground-truth labels.

The four were chosen to load different layers (see README.md):

- paper14d_cli: the flow users run; event_log CSV I/O is half its work.
- seed_sweep: the acceptance experiment in memory; no event_log at all.
- short_cycle_replay: a frozen-model replay of a long, fast-cycling log;
  cycle-close work is ~12x denser than on the paper trace.
- adc_front_end: the only workload that runs the ADC/RMS front end.
"""

import contextlib
import hashlib
import io
import os
from array import array
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ampwatch import cli, event_log
from ampwatch.evaluation import evaluate
from ampwatch.pipeline import PipelineConfig, run_pipeline
from ampwatch.signal_core import (
    AdcParams,
    RmsRecord,
    SampleBlock,
    adc_to_amps,
    compute_rms,
)
from ampwatch.simulator import (
    AnomalyScenario,
    ApplianceProfile,
    ScenarioKind,
    generate_trace,
    generate_waveform,
    read_labels,
    write_labels,
)
from ampwatch.zscore_model import ModelParams

DAY = 86_400.0
MATCH_GRACE_S = PipelineConfig().match_grace_s

# The README's 4-fault experiment.
PAPER_SCENARIOS = [
    AnomalyScenario(ScenarioKind.THERMOSTAT_LONG_ON, 4 * DAY),
    AnomalyScenario(ScenarioKind.DOOR_OPEN, 7 * DAY),
    AnomalyScenario(ScenarioKind.DOOR_OPEN, 9 * DAY),
    AnomalyScenario(ScenarioKind.POWER_DISRUPTION, 12 * DAY),
]
# The paper's four faults on a fast-cycling appliance.
SHORT_CYCLE_PROFILE = ApplianceProfile(on_duration_mean_s=150, off_duration_mean_s=240)
ADC_SCENARIOS = [AnomalyScenario(ScenarioKind.POWER_DISRUPTION, 2 * DAY)]
ADC_PARAMS = AdcParams()
# 100 counts at 6 kHz hold exactly one 60 Hz mains period.
ADC_BLOCK = 100
ADC_RATE_HZ = 6000.0


@dataclass
class PassOutput:
    """What one pass produced, for the correctness gate."""

    digests: Dict[str, str] = field(default_factory=dict)
    # (tp, fp, fn) per labelled input and the label count of each; the
    # gate expects (labels, 0, 0) when gate_detections is set
    detections: List[Tuple[int, int, int]] = field(default_factory=list)
    expected_tp: List[int] = field(default_factory=list)
    gate_detections: bool = True
    # matched-label detection delays in simulated seconds
    delays_s: List[float] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)


@dataclass
class TraceArgs:
    """Arguments of the generate_trace call that made a workload's input."""

    profile: ApplianceProfile
    scenarios: List[AnomalyScenario]
    duration_s: float
    seed: int

    def generate(self):
        return generate_trace(self.profile, self.scenarios, self.duration_s, self.seed)


@dataclass
class LayerInputs:
    """What a workload fed to its layers, for the traced run's census."""

    trace: TraceArgs  # the (first) generate_trace call behind the input
    records: List[RmsRecord]  # run_pipeline's input stream
    labels: list
    model: Optional[ModelParams] = None  # frozen model given to run_pipeline
    blocks: Optional[list] = None  # ADC blocks, where the workload has them
    reads_full_log: bool = False  # event_log reads a z-filled log, not a trace


def read_records(path: str) -> List[RmsRecord]:
    with open(path) as fh:
        return [RmsRecord(r.timestamp_s, r.rms_amps) for r in event_log.read_log(fh)]


def scenario_args(scenarios) -> List[str]:
    """The scenarios as `ampwatch simulate` flags."""
    args = []
    for sc in scenarios:
        args += ["--scenario", f"{sc.kind.value}:{sc.start_s:.0f}"]
    return args


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_cli(argv: List[str]) -> None:
    """In-process ampwatch CLI call; its stdout summary is discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"ampwatch {argv[0]} exited with {code}")


def trace_rows(records) -> List[event_log.LogRecord]:
    return [event_log.LogRecord(r.timestamp_s, r.rms_amps, None, 0, event_log.EventKind.NONE)
            for r in records]


def write_trace_files(records, labels, trace_path: str, labels_path: str) -> None:
    with open(trace_path, "w") as fh:
        event_log.write_log(trace_rows(records), fh)
    with open(labels_path, "w") as fh:
        write_labels(labels, fh)


def log_text(log_records) -> str:
    fh = io.StringIO()
    event_log.write_log(log_records, fh)
    return fh.getvalue()


def events_text(events) -> str:
    fh = io.StringIO()
    event_log.write_events(events, fh)
    return fh.getvalue()


def read_report(path: str) -> Dict[str, str]:
    with open(path) as fh:
        return dict(line.rstrip("\n").split("=", 1) for line in fh if "=" in line)


def adc_blocks(records) -> List[Tuple[int, array]]:
    """One block of ADC counts per RMS record: a sine of that RMS, quantized."""
    unit = generate_waveform(1.0, ADC_BLOCK, 60.0, ADC_RATE_HZ).samples
    p = ADC_PARAMS
    scale = p.sensitivity_volts_per_amp / p.vref_volts * p.resolution_counts
    mid = p.midrail_volts / p.vref_volts * p.resolution_counts
    return [
        (r.timestamp_s,
         array("H", [min(p.resolution_counts, max(0, round(mid + r.rms_amps * u * scale)))
                     for u in unit]))
        for r in records
    ]


def blocks_to_records(blocks) -> List[RmsRecord]:
    """Paper step 1: counts -> amperes -> block -> RMS -> record."""
    out = []
    for ts, counts in blocks:
        amps = [adc_to_amps(c, ADC_PARAMS) for c in counts]
        block = SampleBlock(amps, ADC_RATE_HZ)
        out.append(RmsRecord(ts, compute_rms(block)))
    return out


class Workload:
    """Base: subclasses set the class fields and implement setup/run_pass."""

    name = ""
    pinned_seed = 0
    held_out_seed = 0
    days = 0.0  # input length; tests shorten it
    profile = ApplianceProfile()
    scenarios: List[AnomalyScenario] = []
    uses_cli = False
    # fresh-interpreter set-up also loads a model file
    loads_model = False

    def __init__(self, seed: int, workdir: str, days: Optional[float] = None):
        self.seed = seed
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)
        self.config = PipelineConfig()
        if days is not None:
            self.days = days
            # keep the faults that still end inside the shorter input
            self.scenarios = [s for s in self.scenarios if s.start_s + DAY <= days * DAY]

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def setup(self) -> None:
        """Untimed: build the inputs."""

    def run_pass(self, span):
        """Timed: process one whole input, as a generator that yields
        between its steps, so that the timed pairs can alternate the
        program and the seed copy step by step.  ``span(name)`` brackets
        each call into a layer; untraced passes get a no-op.  Returns what
        outputs() needs."""
        raise NotImplementedError

    def outputs(self, produced) -> PassOutput:
        """Untimed: digest and score what run_pass produced."""
        raise NotImplementedError

    def input_records(self) -> int:
        """Records the timed pass consumes, for records_per_s."""
        return len(self.trace_args()) * int(self.days * DAY) // self.profile.record_interval_s

    def trace_args(self) -> List[TraceArgs]:
        return [TraceArgs(self.profile, self.scenarios, self.days * DAY, self.seed)]

    def layer_inputs(self) -> LayerInputs:
        """Untimed, after at least one pass."""
        raise NotImplementedError


class Paper14dCli(Workload):
    name = "paper14d_cli"
    pinned_seed = 7
    held_out_seed = 1013
    uses_cli = True
    days = 14.0
    scenarios = PAPER_SCENARIOS

    def files(self):
        return {n: self.path(n) for n in
                ("trace.csv", "labels.csv", "log.csv", "events.csv", "model.txt", "report.txt")}

    def run_pass(self, span):
        f = self.files()
        sim = (["simulate", "--duration-days", f"{self.days:g}", "--seed", str(self.seed)]
               + scenario_args(self.scenarios))
        with span("cli.simulate"):
            run_cli(sim + ["--out", f["trace.csv"], "--labels", f["labels.csv"]])
        yield
        with span("cli.run"):
            run_cli(["run", "--trace", f["trace.csv"], "--log", f["log.csv"],
                     "--events", f["events.csv"], "--model", f["model.txt"]])
        yield
        with span("cli.eval"):
            run_cli(["eval", "--events", f["events.csv"], "--labels", f["labels.csv"],
                     "--report", f["report.txt"]])

    def outputs(self, _produced):
        f = self.files()
        out = PassOutput(digests={n: sha256_file(p) for n, p in f.items()})
        report = read_report(f["report.txt"])
        out.detections.append((int(report["tp"]), int(report["fp"]), int(report["fn"])))
        out.expected_tp.append(len(self.scenarios))
        out.delays_s += [float(v) for k, v in report.items() if k.endswith(".seconds")]
        return out

    def layer_inputs(self):
        with open(self.path("labels.csv")) as fh:
            labels = read_labels(fh)
        return LayerInputs(self.trace_args()[0], read_records(self.path("trace.csv")), labels)


class SeedSweep(Workload):
    name = "seed_sweep"
    pinned_seed = 0
    held_out_seed = 500
    days = 14.0
    scenarios = PAPER_SCENARIOS
    # seeds seed, seed+1, ... make up one pass
    n_seeds = 2

    def trace_args(self):
        return [TraceArgs(self.profile, self.scenarios, self.days * DAY, self.seed + i)
                for i in range(self.n_seeds)]

    def run_pass(self, span):
        produced = []  # per seed only the small outputs survive the loop
        for args in self.trace_args():
            with span("simulator.generate_trace"):
                records, labels = args.generate()
            with span("pipeline.run_pipeline"):
                result = run_pipeline(self.config, records)
            with span("evaluation.evaluate"):
                report = evaluate(result.events, labels, MATCH_GRACE_S)
            produced.append((args.seed, result.events, result.model, report, len(labels)))
            # one step per seed, whose records are freed before the other
            # copy's step runs, so neither copy's collector walks them
            del records, result
            yield
        return produced

    def outputs(self, produced):
        out = PassOutput()
        for seed, events, model, report, n_labels in produced:
            out.digests[f"seed{seed}.events"] = sha256_text(events_text(events))
            out.digests[f"seed{seed}.model"] = sha256_text(model.to_text())
            out.detections.append(
                (report.true_positives, report.false_positives, report.false_negatives))
            out.expected_tp.append(n_labels)
            out.delays_s += [d for _, d in report.detection_delays]
        return out

    def layer_inputs(self):
        trace = self.trace_args()[0]
        records, labels = trace.generate()
        return LayerInputs(trace, records, labels)


class ShortCycleReplay(Workload):
    name = "short_cycle_replay"
    pinned_seed = 5
    held_out_seed = 2027
    uses_cli = True
    loads_model = True
    days = 14.0
    profile = SHORT_CYCLE_PROFILE
    scenarios = PAPER_SCENARIOS

    def setup(self):
        records, labels = self.trace_args()[0].generate()
        self.labels = labels
        write_trace_files(records, labels, self.path("trace.csv"), self.path("labels.csv"))
        run_cli(["run", "--trace", self.path("trace.csv"), "--log", self.path("log.csv"),
                 "--events", self.path("events.csv"), "--model", self.path("model.txt")])
        with open(self.path("log.csv")) as fh:
            self.input_cols = [line.split(",", 2)[:2] for line in fh.read().splitlines()]

    def run_pass(self, span):
        with span("cli.replay"):
            run_cli(["replay", "--log", self.path("log.csv"), "--model", self.path("model.txt"),
                     "--out", self.path("replayed.csv")])
        yield

    def outputs(self, _produced):
        out = PassOutput(digests={n: sha256_file(self.path(n)) for n in
                                  ("log.csv", "events.csv", "model.txt", "replayed.csv")})
        with open(self.path("replayed.csv")) as fh:
            lines = fh.read().splitlines()
        if [line.split(",", 2)[:2] for line in lines] != self.input_cols:
            out.problems.append("replayed timestamps/rms differ from the input log")
        # The labels are scored for the summary but not gated: the
        # frozen model raises a genuine false positive on some seeds.
        flagged = [event_log.parse_record(line) for line in lines[1:]
                   if not line.endswith(",none")]
        events = [event_log.AnomalyEvent(
            r.event_kind, r.timestamp_s,
            r.composite_z if r.event_kind == event_log.EventKind.ZSCORE else None,
            0, r.timestamp_s, r.timestamp_s) for r in flagged]
        report = evaluate(events, self.labels, MATCH_GRACE_S)
        out.detections.append((report.true_positives, report.false_positives,
                               report.false_negatives))
        out.expected_tp.append(len(self.labels))
        out.gate_detections = False
        out.delays_s += [d for _, d in report.detection_delays]
        return out

    def layer_inputs(self):
        with open(self.path("model.txt")) as fh:
            model = ModelParams.load(fh)
        return LayerInputs(self.trace_args()[0], read_records(self.path("log.csv")),
                           self.labels, model=model, reads_full_log=True)


class AdcFrontEnd(Workload):
    name = "adc_front_end"
    pinned_seed = 11
    held_out_seed = 3031
    days = 4.0
    scenarios = ADC_SCENARIOS

    def setup(self):
        records, self.labels = self.trace_args()[0].generate()
        self.blocks = adc_blocks(records)

    def run_pass(self, span):
        with span("signal_core.front_end"):
            records = blocks_to_records(self.blocks)
        yield
        with span("pipeline.run_pipeline"):
            result = run_pipeline(self.config, records)
        yield
        with span("evaluation.evaluate"):
            report = evaluate(result.events, self.labels, MATCH_GRACE_S)
        return result, report

    def outputs(self, produced):
        result, report = produced
        out = PassOutput(digests={"log": sha256_text(log_text(result.log_records)),
                                  "events": sha256_text(events_text(result.events))})
        out.detections.append((report.true_positives, report.false_positives,
                               report.false_negatives))
        out.expected_tp.append(len(self.labels))
        out.delays_s += [d for _, d in report.detection_delays]
        return out

    def layer_inputs(self):
        return LayerInputs(self.trace_args()[0], blocks_to_records(self.blocks), self.labels,
                           blocks=self.blocks)


WORKLOADS = {w.name: w for w in (Paper14dCli, SeedSweep, ShortCycleReplay, AdcFrontEnd)}
