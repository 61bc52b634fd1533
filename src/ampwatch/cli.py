"""Command-line harness: simulate, run, eval, profile, replay.

Exit codes: 0 success, 1 usage/config error, 2 data/parse error,
3 insufficient training.
"""

import argparse
import contextlib
import json
import math
import os
import sys
from dataclasses import fields as dataclass_fields

from . import event_log
from .errors import AmpwatchError, InsufficientTrainingError, InvalidInputError, UsageError
from .evaluation import evaluate, report_kv, report_text
from .pipeline import PROFILE_BATCH, Monitor, PipelineConfig, profile_inference, run_pipeline
from .simulator import (
    DEFAULT_START_TIMESTAMP_S,
    AnomalyScenario,
    ApplianceProfile,
    ScenarioKind,
    generate_trace,
    iter_trace,
    read_labels,
    write_labels,
)
from .zscore_model import ModelParams

_SCENARIO_ALIASES = {
    "long_on": ScenarioKind.THERMOSTAT_LONG_ON,
    "thermostat_long_on": ScenarioKind.THERMOSTAT_LONG_ON,
    "door_open": ScenarioKind.DOOR_OPEN,
    "power_disruption": ScenarioKind.POWER_DISRUPTION,
    "outage": ScenarioKind.POWER_DISRUPTION,
}


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; the CLI contract says 1
    def error(self, message):
        raise UsageError(message)


def _parse_scenario(text: str) -> AnomalyScenario:
    parts = text.split(":")
    if len(parts) not in (2, 3):
        raise UsageError(f"scenario must be kind:start_s[:magnitude], got {text!r}")
    kind = _SCENARIO_ALIASES.get(parts[0].strip().lower())
    if kind is None:
        raise UsageError(
            f"unknown scenario kind {parts[0]!r}; "
            f"expected one of {sorted(set(_SCENARIO_ALIASES))}"
        )
    try:
        start = float(parts[1])
        magnitude = float(parts[2]) if len(parts) == 3 else None
    except ValueError:
        raise UsageError(f"bad scenario numbers in {text!r}") from None
    return AnomalyScenario(kind=kind, start_s=start, magnitude=magnitude)


def _load_config(args) -> PipelineConfig:
    names = [f.name for f in dataclass_fields(PipelineConfig)]
    values = {}
    if args.config:
        try:
            with open(args.config) as fh:
                loaded = json.load(fh)
        except OSError as exc:
            raise UsageError(f"cannot read config file: {exc}") from None
        except json.JSONDecodeError as exc:
            raise UsageError(f"bad config file: {exc}") from None
        if not isinstance(loaded, dict):
            raise UsageError("config file must hold a JSON object")
        unknown = set(loaded) - set(names)
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        values.update(loaded)
    # each config flag's dest is the PipelineConfig field it overrides
    for name in names:
        v = getattr(args, name, None)
        if v is not None:
            values[name] = v
    try:
        return PipelineConfig(**values)
    except (TypeError, InvalidInputError) as exc:
        raise UsageError(f"bad configuration: {exc}") from None


@contextlib.contextmanager
def _all_or_nothing(paths):
    """Yield one ``<path>.part`` per target path and rename every part onto
    its target only when the block completes, so a failed command leaves
    no output and a target may also be the command's input.
    """
    for path in paths:
        if os.path.isdir(path):
            raise IsADirectoryError(f"output path is a directory: {path!r}")
    parts = [path + ".part" for path in paths]
    try:
        yield parts
        for part, path in zip(parts, paths):
            os.replace(part, path)
    finally:
        for part in parts:
            with contextlib.suppress(FileNotFoundError):
                os.remove(part)


def _add_config_flags(p):
    p.add_argument("--config", help="JSON file with PipelineConfig fields")
    p.add_argument("--training-cycles", dest="training_cycles", type=int)
    p.add_argument("--threshold", dest="z_threshold", type=float,
                   help="composite z-score cutoff")
    p.add_argument("--watchdog-limit", dest="watchdog_off_limit_s", type=float,
                   help="max continuous OFF seconds before the watchdog fires")
    p.add_argument("--on-enter", dest="on_enter_amps", type=float)
    p.add_argument("--off-enter", dest="off_enter_amps", type=float)
    p.add_argument("--sigma-min", dest="sigma_min", type=float)


def _cmd_simulate(args) -> int:
    profile = ApplianceProfile(
        record_interval_s=args.interval,
        rms_noise_amps=args.noise,
    )
    scenarios = [_parse_scenario(s) for s in args.scenario or []]
    duration_s = args.duration_s if args.duration_days is None else args.duration_days * 86400.0
    if not 0 < duration_s < math.inf:
        raise UsageError("need a finite --duration-days or --duration-s > 0")
    segments, labels = iter_trace(
        profile, scenarios, duration_s, args.seed, start_timestamp_s=args.start_epoch
    )
    none = event_log.EventKind.NONE
    log = (event_log.LogRecord(r.timestamp_s, r.rms_amps, None, 0, none)
           for segment in segments for r in segment)
    with _all_or_nothing([args.out, args.labels]) as (out_part, labels_part):
        with open(out_part, "w") as fh:
            n_records = event_log.write_log(log, fh)
        with open(labels_part, "w") as fh:
            write_labels(labels, fh)
    print(f"wrote {n_records} records to {args.out}, "
          f"{len(labels)} labels to {args.labels}")
    return 0


def _cmd_run(args) -> int:
    monitor = Monitor(_load_config(args))
    events = []
    targets = [args.log, args.events] + ([args.model] if args.model else [])
    with _all_or_nothing(targets) as parts:
        with open(args.trace) as src, open(parts[0], "w") as fh:
            n_records = event_log.write_log(monitor.run(event_log.iter_log(src), events), fh)
        model = monitor.finish()
        with open(parts[1], "w") as fh:
            event_log.write_events(events, fh)
        if args.model:
            with open(parts[2], "w") as fh:
                model.save(fh)
    print(f"processed {n_records} records, "
          f"{len(events)} anomaly events, "
          f"model trained on {model.trained_on} cycles")
    return 0


def _cmd_eval(args) -> int:
    config = _load_config(args)
    with open(args.events) as fh:
        events = event_log.read_events(fh)
    with open(args.labels) as fh:
        truth = read_labels(fh)
    report = evaluate(events, truth, match_grace_s=config.match_grace_s)
    print(report_text(report))
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(report_kv(report))
    return 0


def _cmd_profile(args) -> int:
    if args.trials <= 0:
        raise UsageError("--trials must be positive")
    config = _load_config(args)
    if args.model:
        with open(args.model) as fh:
            params = ModelParams.load(fh)
    else:
        # train a model on a synthetic clean trace sized for training_cycles
        profile = ApplianceProfile()
        cycle_s = profile.on_duration_mean_s + profile.off_duration_mean_s
        duration_s = cycle_s * (config.training_cycles + 4)
        records, _ = generate_trace(profile, [], duration_s, args.seed)
        params = run_pipeline(config, records).model
    summary = profile_inference(params, config.z_threshold, args.trials)
    print(f"score+detect over {summary['n_trials']} trials, per-call means of "
          f"batches of {PROFILE_BATCH} (model trained on {summary['trained_on']} cycles):")
    print(f"  min    {summary['min_s'] * 1e6:9.2f} us")
    print(f"  median {summary['median_s'] * 1e6:9.2f} us")
    print(f"  p99    {summary['p99_s'] * 1e6:9.2f} us")
    print(f"model state: {summary['stat_values']} statistical values "
          f"+ {summary['counters']} counter")
    print("note: host wall-clock timings; MCU latencies are not comparable")
    return 0


def _cmd_replay(args) -> int:
    config = _load_config(args)
    model = None
    if args.model:
        with open(args.model) as fh:
            model = ModelParams.load(fh)
    monitor = Monitor(config, model)
    events = []
    with _all_or_nothing([args.out]) as (part,):
        with open(args.log) as src, open(part, "w") as fh:
            n_records = event_log.write_log(monitor.run(event_log.iter_log(src), events), fh)
        monitor.finish()
    print(f"replayed {n_records} records, "
          f"{len(events)} anomaly events, wrote {args.out}")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(
        prog="ampwatch",
        description="Streaming RMS-current anomaly detection: "
                    "simulate traces, run the detector, evaluate results.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="synthesize a trace CSV and labels CSV")
    duration = p.add_mutually_exclusive_group(required=True)
    duration.add_argument("--duration-days", type=float)
    duration.add_argument("--duration-s", type=float)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--interval", type=int, default=ApplianceProfile.record_interval_s)
    p.add_argument("--noise", type=float, default=ApplianceProfile.rms_noise_amps)
    p.add_argument("--start-epoch", type=int, default=DEFAULT_START_TIMESTAMP_S)
    p.add_argument("--scenario", action="append",
                   help="kind:start_s[:magnitude], repeatable; kinds: "
                        "long_on, door_open, power_disruption")
    p.add_argument("--out", required=True, help="trace CSV output path")
    p.add_argument("--labels", required=True, help="labels CSV output path")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("run", help="run the full pipeline over a trace CSV")
    p.add_argument("--trace", required=True)
    p.add_argument("--log", required=True, help="output log CSV")
    p.add_argument("--events", required=True, help="output events CSV")
    p.add_argument("--model", help="output model file")
    _add_config_flags(p)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("eval", help="score events against ground-truth labels")
    p.add_argument("--events", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--grace", dest="match_grace_s", type=float,
                   help="match grace seconds")
    p.add_argument("--report", help="write machine-readable key=value report")
    p.add_argument("--config", help="JSON file with PipelineConfig fields")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("profile", help="profile score+detect latency and state size")
    p.add_argument("--trials", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--model", help="load a model file instead of training one")
    _add_config_flags(p)
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser("replay", help="parse an existing log and re-score it")
    p.add_argument("--log", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--model", help="score with a saved model instead of retraining")
    _add_config_flags(p)
    p.set_defaults(func=_cmd_replay)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InsufficientTrainingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (AmpwatchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
