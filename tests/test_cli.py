import argparse
import dataclasses
import gc
import hashlib
import io
import json
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from ampwatch import cli, event_log, simulator
from ampwatch.cli import main
from ampwatch.evaluation import evaluate, report_kv, report_text
from ampwatch.pipeline import Monitor, PipelineConfig, run_pipeline
from ampwatch.zscore_model import FEATURE_NAMES, ModelParams


def run_cli(args):
    return subprocess.run(
        [sys.executable, "-m", "ampwatch", *args],
        capture_output=True,
        text=True,
    )


@pytest.fixture
def workspace(tmp_path):
    return {
        "trace": tmp_path / "trace.csv",
        "labels": tmp_path / "labels.csv",
        "log": tmp_path / "log.csv",
        "events": tmp_path / "events.csv",
        "model": tmp_path / "model.txt",
        "report": tmp_path / "report.txt",
        "dir": tmp_path,
    }


SCENARIOS = [
    "--scenario", "long_on:345600",
    "--scenario", "door_open:604800",
    "--scenario", "door_open:777600",
    "--scenario", "power_disruption:1036800",
]


def simulate(ws, seed=0):
    return main([
        "simulate", "--duration-days", "14", "--seed", str(seed),
        *SCENARIOS,
        "--out", str(ws["trace"]), "--labels", str(ws["labels"]),
    ])


# README's seed-7 flow: simulate, run, eval, replay --model
README_FLOW_SHA256 = {
    "trace.csv": "cf58d73cc04c45d6ebdda5cffc878d3edd301ae22d029deb99f51330431ef2c5",
    "labels.csv": "854957278d538b807206d2ab83faf9a07f543450099f1ac059e4743195882c14",
    "log.csv": "6611bbb90e8837f71f87f79884890e1e48e56a4ee33db6a3bdbf55dae75ef889",
    "events.csv": "f2afe03e21be2e9b74c5cdb811638640c35d37a83cce937403a1d1bcb35e0c95",
    "model.txt": "6ea377a516fba60200913c8adfeecf23541ef2ae45fa91514ff1f1a3dfcedf68",
    "replayed.csv": "c73765f547e803434d4cef28bd99e71241a173aab52fea174f848d0ebc360fe5",
    "report.txt": "197ddf812f456c4b9d90642cb7b42c3af7d9203e9de7a216472d78358f60ea7e",
}


def test_readme_flow_bytes_are_pinned(workspace):
    ws = workspace
    assert simulate(ws, seed=7) == 0
    assert main(["run", "--trace", str(ws["trace"]), "--log", str(ws["log"]),
                 "--events", str(ws["events"]), "--model", str(ws["model"])]) == 0
    assert main(["eval", "--events", str(ws["events"]), "--labels", str(ws["labels"]),
                 "--report", str(ws["report"])]) == 0
    assert main(["replay", "--log", str(ws["log"]), "--out", str(ws["dir"] / "replayed.csv"),
                 "--model", str(ws["model"])]) == 0
    digests = {name: hashlib.sha256((ws["dir"] / name).read_bytes()).hexdigest()
               for name in README_FLOW_SHA256}
    assert digests == README_FLOW_SHA256


def test_end_to_end_perfect_detection(workspace, capsys):
    assert simulate(workspace) == 0
    assert main([
        "run", "--trace", str(workspace["trace"]),
        "--log", str(workspace["log"]),
        "--events", str(workspace["events"]),
        "--model", str(workspace["model"]),
    ]) == 0
    assert main([
        "eval", "--events", str(workspace["events"]),
        "--labels", str(workspace["labels"]),
        "--report", str(workspace["report"]),
    ]) == 0
    out = capsys.readouterr().out
    assert "precision:       1.0000" in out
    assert "recall:          1.0000" in out
    report = workspace["report"].read_text()
    assert "precision=1.0" in report
    assert "f1=1.0" in report


def test_simulate_and_run_byte_identical(workspace, tmp_path):
    # two consecutive invocations in separate processes
    alt_trace = tmp_path / "trace2.csv"
    alt_labels = tmp_path / "labels2.csv"
    args = ["simulate", "--duration-days", "3", "--seed", "5",
            "--scenario", "long_on:86400"]
    r1 = run_cli(args + ["--out", str(workspace["trace"]), "--labels", str(workspace["labels"])])
    r2 = run_cli(args + ["--out", str(alt_trace), "--labels", str(alt_labels)])
    assert r1.returncode == 0 and r2.returncode == 0
    assert workspace["trace"].read_bytes() == alt_trace.read_bytes()
    assert workspace["labels"].read_bytes() == alt_labels.read_bytes()

    log2 = tmp_path / "log2.csv"
    ev2 = tmp_path / "events2.csv"
    run_args = ["run", "--trace", str(workspace["trace"]), "--training-cycles", "20"]
    s1 = run_cli(run_args + ["--log", str(workspace["log"]), "--events", str(workspace["events"])])
    s2 = run_cli(run_args + ["--log", str(log2), "--events", str(ev2)])
    assert s1.returncode == 0 and s2.returncode == 0
    assert workspace["log"].read_bytes() == log2.read_bytes()
    assert workspace["events"].read_bytes() == ev2.read_bytes()


def test_replay_reproduces_composites(workspace, tmp_path):
    simulate(workspace)
    main([
        "run", "--trace", str(workspace["trace"]),
        "--log", str(workspace["log"]), "--events", str(workspace["events"]),
    ])
    replay_out = tmp_path / "replayed.csv"
    assert main([
        "replay", "--log", str(workspace["log"]), "--out", str(replay_out),
    ]) == 0
    with open(workspace["log"]) as fh:
        original = event_log.read_log(fh)
    with open(replay_out) as fh:
        replayed = event_log.read_log(fh)
    assert [r.composite_z for r in replayed] == [r.composite_z for r in original]


def test_replay_in_place_matches_replay_elsewhere(workspace, tmp_path):
    simulate(workspace)
    log = workspace["log"]
    assert main(["run", "--trace", str(workspace["trace"]), "--log", str(log),
                 "--events", str(workspace["events"])]) == 0
    elsewhere = tmp_path / "replayed.csv"
    assert main(["replay", "--log", str(log), "--out", str(elsewhere)]) == 0
    assert main(["replay", "--log", str(log), "--out", str(log)]) == 0
    assert log.read_bytes() == elsewhere.read_bytes()


def test_run_writes_what_the_library_pipeline_returns(workspace):
    simulate(workspace)
    assert main(["run", "--trace", str(workspace["trace"]),
                 "--log", str(workspace["log"]),
                 "--events", str(workspace["events"])]) == 0
    with open(workspace["trace"]) as fh:
        result = run_pipeline(PipelineConfig(), event_log.read_log(fh))
    log, events = io.StringIO(), io.StringIO()
    event_log.write_log(result.log_records, log)
    event_log.write_events(result.events, events)
    assert result.events
    assert workspace["log"].read_text() == log.getvalue()
    assert workspace["events"].read_text() == events.getvalue()


@pytest.mark.parametrize("corrupt, flags, code", [
    (False, [], 3),  # one day is too short for 50 training cycles
    (True, ["--training-cycles", "5"], 2),  # trained, then a bad line
])
def test_failed_run_leaves_no_output(tmp_path, corrupt, flags, code):
    trace = tmp_path / "trace.csv"
    assert main(["simulate", "--duration-days", "1", "--seed", "1",
                 "--out", str(trace), "--labels", str(tmp_path / "labels.csv")]) == 0
    if corrupt:
        lines = trace.read_text().splitlines(keepends=True)
        lines[len(lines) // 2] = "garbage\n"
        trace.write_text("".join(lines))
    log = tmp_path / "log.csv"
    assert main(["run", "--trace", str(trace), "--log", str(log),
                 "--events", str(tmp_path / "events.csv"), *flags]) == code
    assert not log.exists()
    assert not (tmp_path / "events.csv").exists()
    assert list(tmp_path.glob("*.part")) == []


@pytest.mark.parametrize("flags, config", [
    (["--training-cycles", "5", "--threshold", "nan"], None),
    (["--training-cycles", "5", "--watchdog-limit", "nan"], None),
    (["--training-cycles", "5", "--on-enter", "0.1", "--off-enter", "0.3"], None),
    ([], '{"training_cycles": 2.5}'),
    ([], '{"on_enter_amps": Infinity}'),
    ([], '3'),
])
def test_bad_config_is_1_and_writes_nothing(tmp_path, flags, config):
    trace = tmp_path / "trace.csv"
    assert main(["simulate", "--duration-days", "1", "--seed", "1",
                 "--out", str(trace), "--labels", str(tmp_path / "labels.csv")]) == 0
    if config is not None:
        (tmp_path / "config.json").write_text(config)
        flags = ["--config", str(tmp_path / "config.json")]
    outputs = [tmp_path / "log.csv", tmp_path / "events.csv", tmp_path / "model.txt"]
    assert main(["run", "--trace", str(trace), "--log", str(outputs[0]),
                 "--events", str(outputs[1]), "--model", str(outputs[2]), *flags]) == 1
    assert not any(path.exists() for path in outputs)
    assert list(tmp_path.glob("*.part")) == []


def test_failed_simulate_leaves_no_output(tmp_path):
    trace, labels = tmp_path / "t.csv", tmp_path / "labels"
    labels.mkdir()
    assert main(["simulate", "--duration-s", "3600",
                 "--out", str(trace), "--labels", str(labels)]) == 2
    assert not trace.exists()
    assert list(tmp_path.glob("*.part")) == []


@pytest.mark.parametrize("flags, code", [
    (["--duration-s", "3600", "--noise", "nan"], 2),
    (["--duration-s", "3600", "--noise", "inf"], 2),
    (["--duration-s", "3600", "--noise", "1e308"], 2),  # a noise draw could overflow
    (["--duration-days", "nan"], 1),
    (["--duration-days", "inf"], 1),
    (["--duration-s", "nan"], 1),
    (["--duration-s", "inf"], 1),
    (["--duration-s", "-1"], 1),
    (["--duration-s", "86400", "--scenario", "long_on:100:nan"], 2),
    (["--duration-s", "86400", "--scenario", "outage:100:inf"], 2),
    (["--duration-s", "86400", "--scenario", "door_open:100:-inf"], 2),
])
def test_simulate_rejects_non_finite_input(tmp_path, monkeypatch, flags, code):
    def planner(*args):
        raise AssertionError("bad input reached the segment planner")
    # an infinite duration would never leave the planner's loop
    monkeypatch.setattr(simulator, "_plan_segments", planner)
    trace, labels = tmp_path / "t.csv", tmp_path / "l.csv"
    assert main(["simulate", *flags, "--out", str(trace), "--labels", str(labels)]) == code
    assert not trace.exists() and not labels.exists()


@pytest.mark.parametrize("scenarios", [
    ["long_on:100:1e-300"],  # shorter than a normal ON
    ["outage:100:60"],  # shorter than a normal OFF
    ["long_on:100:1e300"],  # longer than the trace
    ["door_open:83400", "door_open:84900"],  # no cycle left for the second
    ["long_on:83400"],  # the 5 h ON runs past the end of the trace
    ["outage:84000:6000"],  # the outage runs past the end of the trace
    ["door_open:10000", "long_on:11000"],  # starts inside the door's 9,360-14,130 s label
    ["outage:100", "long_on:7301"],  # starts inside the outage's 1,800-9,000 s label
    ["door_open:1000:900"],  # a door_open takes no magnitude
])
def test_simulate_refuses_a_scenario_it_cannot_place(tmp_path, capsys, scenarios):
    flags = [arg for sc in scenarios for arg in ("--scenario", sc)]
    assert main(["simulate", "--duration-s", "86400", *flags,
                 "--out", str(tmp_path / "t.csv"), "--labels", str(tmp_path / "l.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_simulate_writes_the_library_trace_off_the_defaults(tmp_path):
    # every simulate flag away from its default; the seed-7 digests pin only those
    trace, labels = tmp_path / "trace.csv", tmp_path / "labels.csv"
    assert main(["simulate", "--duration-days", "3", "--seed", "11", "--interval", "300",
                 "--noise", "0", "--start-epoch", "0", "--scenario", "long_on:86400",
                 "--out", str(trace), "--labels", str(labels)]) == 0
    profile = simulator.ApplianceProfile(record_interval_s=300, rms_noise_amps=0.0)
    scenario = simulator.AnomalyScenario(simulator.ScenarioKind.THERMOSTAT_LONG_ON, 86400.0)
    records, truth = simulator.generate_trace(profile, [scenario], 3 * 86400.0, 11,
                                              start_timestamp_s=0)
    expected = io.StringIO()
    event_log.write_log((event_log.LogRecord(r.timestamp_s, r.rms_amps, None, 0, "none")
                         for r in records), expected)
    assert trace.read_text() == expected.getvalue()
    assert records[0].timestamp_s == 0 and records[1].timestamp_s == 300
    with open(labels) as fh:
        assert simulator.read_labels(fh) == truth


def test_simulate_defaults_are_the_library_defaults():
    args = cli.build_parser().parse_args(
        ["simulate", "--duration-s", "1", "--out", "t.csv", "--labels", "l.csv"])
    profile = simulator.ApplianceProfile()
    assert args.interval == profile.record_interval_s
    assert args.noise == profile.rms_noise_amps
    assert args.start_epoch == simulator.DEFAULT_START_TIMESTAMP_S


@pytest.mark.parametrize("flags", [
    ["--duration-days", "1", "--duration-s", "5"],
    ["--duration-days", "0", "--duration-s", "3600"],
    [],
])
def test_simulate_takes_exactly_one_duration_flag(tmp_path, capsys, flags):
    trace, labels = tmp_path / "t.csv", tmp_path / "l.csv"
    assert main(["simulate", *flags, "--out", str(trace), "--labels", str(labels)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert list(tmp_path.iterdir()) == []


def traced_peak(call):
    gc.collect()  # empties the free lists, whose reuse tracemalloc does not see
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def main_ok(argv):
    assert main(argv) == 0


def test_simulate_memory_does_not_grow_with_trace_length(tmp_path):
    def simulate_peak(days, *flags):
        return traced_peak(lambda: main_ok([
            "simulate", "--duration-days", str(days), "--seed", "2",
            "--out", str(tmp_path / "trace.csv"), "--labels", str(tmp_path / "labels.csv"),
            *flags]))

    short, long = simulate_peak(2), simulate_peak(20)
    assert long < 2**20
    assert long < 2 * short
    # no per-cycle plan is held: ten times the cycles, the same peak; a plan
    # grows with cycles, not records, so sparse records keep this pair quick
    sparse = ["--interval", "300"]
    assert simulate_peak(140, *sparse) <= 1.1 * simulate_peak(14, *sparse)
    # nor a whole segment: a 4-day fault, 1,152 records, peaks as a 1-day one
    def fault_peak(kind, magnitude_s):
        return simulate_peak(14, *sparse, "--scenario", f"{kind}:345600:{magnitude_s}")

    for kind in ("long_on", "outage"):
        assert fault_peak(kind, 345600) <= 1.1 * fault_peak(kind, 86400)


def test_cli_import_leaves_out_the_numeric_tower():
    # statistics pulls in decimal and fractions, ~12 ms of every CLI start
    src = str(Path(cli.__file__).parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import ampwatch.cli; "
            "print(sorted({'statistics', 'decimal', 'fractions'} & set(sys.modules)))")
    r = subprocess.run([sys.executable, "-I", "-c", code, src],
                       capture_output=True, text=True, check=True)
    assert r.stdout.strip() == "[]"


def test_run_memory_does_not_grow_with_trace_length(tmp_path):
    def run_peak(days):
        trace = tmp_path / f"trace{days}.csv"
        assert main(["simulate", "--duration-days", str(days), "--seed", "2",
                     "--out", str(trace), "--labels", str(tmp_path / "labels.csv")]) == 0
        return traced_peak(lambda: main_ok([
            "run", "--trace", str(trace), "--log", str(tmp_path / "log.csv"),
            "--events", str(tmp_path / "events.csv"), "--training-cycles", "20"]))

    short, long = run_peak(2), run_peak(20)
    assert long < 2**20
    assert long < 2 * short


def fast_cycling_log_and_model(tmp_path, days):
    # a fast-cycling appliance closes ~12 times as many cycles per record
    profile = simulator.ApplianceProfile(on_duration_mean_s=150, off_duration_mean_s=240)
    records, _ = simulator.generate_trace(profile, [], days * 86400, seed=5)
    trace, log, model = (tmp_path / f"{name}{days}" for name in ("trace", "log", "model"))
    with open(trace, "w") as fh:
        event_log.write_trace(records, fh)
    del records
    assert main(["run", "--trace", str(trace), "--log", str(log),
                 "--events", str(tmp_path / "events.csv"), "--model", str(model)]) == 0
    return log, model


def replay_argv(log, model, out):
    return ["replay", "--log", str(log), "--model", str(model), "--out", str(out)]


def test_replay_memory_does_not_grow_with_closed_cycles(tmp_path):
    # memory held per scored cycle shows at 14 days against 2
    def replay_peak(days):
        log, model = fast_cycling_log_and_model(tmp_path, days)
        return traced_peak(lambda: main_ok(replay_argv(log, model, tmp_path / "replayed.csv")))

    short, long = replay_peak(2), replay_peak(14)
    assert long <= short + 16 * 1024


def test_replay_cli_overhead_over_the_library_is_small(tmp_path):
    # the CLI adds argument parsing and the all-or-nothing rename to the
    # library replay; a parser tree for every command would cost ~68 KB
    log, model = fast_cycling_log_and_model(tmp_path, 2)

    def library_replay():
        with open(model) as fh:
            params = ModelParams.load(fh)
        monitor, events = Monitor(PipelineConfig(), params), []
        with open(log) as src, open(tmp_path / "library.csv", "w") as fh:
            event_log.write_log(monitor.run(event_log.iter_log(src), events), fh)
        monitor.finish()

    library = traced_peak(library_replay)
    cli_peak = traced_peak(lambda: main_ok(replay_argv(log, model, tmp_path / "replayed.csv")))
    assert (tmp_path / "replayed.csv").read_bytes() == (tmp_path / "library.csv").read_bytes()
    assert cli_peak <= library + 32 * 1024


def test_config_file_and_flag_override(workspace, tmp_path):
    simulate(workspace, seed=3)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"training_cycles": 25, "z_threshold": 3.0}))
    assert main([
        "run", "--trace", str(workspace["trace"]),
        "--log", str(workspace["log"]), "--events", str(workspace["events"]),
        "--model", str(workspace["model"]),
        "--config", str(cfg), "--training-cycles", "30",
    ]) == 0
    model_text = workspace["model"].read_text()
    assert "trained_on=30" in model_text  # flag beats config file


CONFIG_FLAGS = [
    (["--training-cycles", "7"], "training_cycles", 7),
    (["--threshold", "3.5"], "z_threshold", 3.5),
    (["--watchdog-limit", "1800"], "watchdog_off_limit_s", 1800.0),
    (["--on-enter", "0.6"], "on_enter_amps", 0.6),
    (["--off-enter", "0.1"], "off_enter_amps", 0.1),
    (["--sigma-min", "0.01"], "sigma_min", 0.01),
]
COMMAND_ARGS = {
    "run": ["--trace", "t.csv", "--log", "l.csv", "--events", "e.csv"],
    "replay": ["--log", "l.csv", "--out", "o.csv"],
    "profile": [],
}
# the dests of each subcommand's own inputs and outputs; every other
# dest must name a PipelineConfig field, which is how _load_config finds it
NON_CONFIG_DESTS = {"help", "config", "trace", "log", "events", "model", "out",
                    "labels", "report", "trials", "seed"}


@pytest.mark.parametrize("command", sorted(COMMAND_ARGS))
@pytest.mark.parametrize("flag, field, value", CONFIG_FLAGS)
def test_config_flag_sets_its_field(command, flag, field, value):
    args = cli.build_parser().parse_args([command, *COMMAND_ARGS[command], *flag])
    assert getattr(cli._load_config(args), field) == value


def test_eval_grace_flag_sets_its_field():
    args = cli.build_parser().parse_args(
        ["eval", "--events", "e.csv", "--labels", "l.csv", "--grace", "60"])
    assert cli._load_config(args).match_grace_s == 60.0


def _eval_files(tmp_path):
    """One event on a label's window end, one just past another's."""
    events, labels = tmp_path / "events.csv", tmp_path / "labels.csv"
    with open(events, "w") as fh:
        event_log.write_events([
            event_log.AnomalyEvent("zscore", 2_000, 3.0, 1, 1_500, 2_000),
            event_log.AnomalyEvent("watchdog", 11_001, None, 0, 7_000, 11_001)], fh)
    with open(labels, "w") as fh:
        simulator.write_labels([simulator.GroundTruthLabel(1_000, 2_000, "door_open"),
                                simulator.GroundTruthLabel(10_000, 11_000, "power_disruption")],
                               fh)
    return ["--events", str(events), "--labels", str(labels)]


@pytest.mark.parametrize("flags, config", [(["--grace", "0"], None), ([], '{"match_grace_s": 0}')])
def test_eval_zero_grace_reports_what_evaluate_reports(tmp_path, capsys, flags, config):
    files = _eval_files(tmp_path)
    if config is not None:
        (tmp_path / "config.json").write_text(config)
        flags = ["--config", str(tmp_path / "config.json")]
    report = tmp_path / "report.txt"
    assert main(["eval", *files, "--report", str(report), *flags]) == 0
    with open(files[1]) as ev, open(files[3]) as lab:
        want = evaluate(event_log.read_events(ev), simulator.read_labels(lab), 0)
    assert (want.true_positives, want.false_positives, want.false_negatives) == (1, 1, 1)
    assert capsys.readouterr().out == report_text(want) + "\n"
    assert report.read_text() == report_kv(want)


@pytest.mark.parametrize("flags", [["--grace", "-1"], ["--grace", "nan"], ["--grace", "inf"]])
def test_eval_bad_grace_is_1(tmp_path, flags):
    assert main(["eval", *_eval_files(tmp_path), *flags]) == 1


def test_config_flag_dests_are_pipeline_config_fields():
    fields = {f.name for f in dataclasses.fields(PipelineConfig)}
    [subparsers] = [a for a in cli.build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)]
    for command in ("run", "replay", "profile", "eval"):
        dests = {a.dest for a in subparsers.choices[command]._actions}
        assert dests - NON_CONFIG_DESTS <= fields, command


VALID_ARGS = {
    **COMMAND_ARGS,
    "simulate": ["--duration-days", "2", "--seed", "3", "--scenario", "door_open:600",
                 "--out", "t.csv", "--labels", "l.csv"],
    "eval": ["--events", "e.csv", "--labels", "l.csv", "--grace", "60"],
}
# a missing required argument; profile has none, so it gets a bad value
BAD_ARGS = {
    "simulate": ["--out", "t.csv", "--labels", "l.csv"],
    "run": ["--trace", "t.csv", "--log", "l.csv"],
    "eval": ["--labels", "l.csv"],
    "profile": ["--trials", "many"],
    "replay": ["--log", "l.csv"],
}


@pytest.mark.parametrize("command", sorted(VALID_ARGS))
def test_one_command_parser_parses_as_the_full_one(command, capsys):
    one, full = cli.build_parser(command), cli.build_parser()
    helps = []
    for parser in (one, full):
        with pytest.raises(SystemExit):
            parser.parse_args([command, "--help"])
        helps.append(capsys.readouterr().out)
    assert helps[0] == helps[1]
    assert helps[0].startswith(f"usage: ampwatch {command} ")
    argv = [command, *VALID_ARGS[command]]
    assert one.parse_args(argv) == full.parse_args(argv)
    errors = []
    for parser in (one, full):
        with pytest.raises(cli.UsageError) as info:
            parser.parse_args([command, *BAD_ARGS[command]])
        errors.append(str(info.value))
    assert errors[0] == errors[1]


def test_no_or_unknown_command_gets_the_full_parser(capsys):
    assert main([]) == 1
    err = capsys.readouterr().err
    assert "required: command" in err and all(name in err for name in cli._COMMANDS)
    assert main(["bogus"]) == 1
    err = capsys.readouterr().err  # how choices are quoted varies with the Python version
    assert "invalid choice: 'bogus'" in err and all(name in err for name in cli._COMMANDS)
    with pytest.raises(SystemExit) as info:
        main(["--help"])
    assert info.value.code == 0
    assert "{simulate,run,eval,profile,replay}" in capsys.readouterr().out


def test_module_entry_point_reads_sys_argv():
    # main() with no argv, as python -m ampwatch calls it; -I keeps the
    # environment out, so the source tree goes on the path by hand
    src = str(Path(cli.__file__).parents[1])
    code = ("import runpy, sys; sys.path.insert(0, sys.argv.pop(1)); "
            "runpy.run_module('ampwatch', run_name='__main__', alter_sys=True)")
    r = subprocess.run([sys.executable, "-I", "-c", code, src, "replay", "--help"],
                       capture_output=True, text=True)
    assert r.returncode == 0
    assert r.stdout.startswith("usage: ampwatch replay ")


def test_profile_command(workspace, capsys):
    assert main(["profile", "--trials", "500", "--training-cycles", "10"]) == 0
    out = capsys.readouterr().out
    assert "10 statistical values" in out
    assert "median" in out


@pytest.mark.parametrize("trials", ["0", "-5"])
def test_profile_refuses_bad_trials_before_training(monkeypatch, capsys, trials):
    monkeypatch.setattr(cli, "run_pipeline", None)  # training would raise TypeError
    assert main(["profile", "--trials", trials]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "--trials" in err


class TestExitCodes:
    def test_usage_error_is_1(self):
        assert run_cli(["simulate", "--bogus"]).returncode == 1
        assert run_cli(["simulate", "--out", "x", "--labels", "y"]).returncode == 1

    def test_parse_error_is_2(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("garbage\n")
        r = run_cli(["run", "--trace", str(bad), "--log", str(tmp_path / "l"),
                     "--events", str(tmp_path / "e")])
        assert r.returncode == 2

    def test_non_finite_rms_is_2_with_line(self, tmp_path):
        trace = tmp_path / "trace.csv"
        trace.write_text(event_log.LOG_HEADER + "\n1,0.0700,,0,none\n2,nan,,0,none\n")
        r = run_cli(["run", "--trace", str(trace), "--log", str(tmp_path / "l"),
                     "--events", str(tmp_path / "e")])
        assert r.returncode == 2
        assert "line 3" in r.stderr

    def test_output_directory_is_2_and_writes_nothing(self, tmp_path):
        trace = tmp_path / "trace.csv"
        assert main(["simulate", "--duration-days", "2", "--seed", "1",
                     "--out", str(trace), "--labels", str(tmp_path / "labels.csv")]) == 0
        events_dir = tmp_path / "events"
        events_dir.mkdir()
        log, model = tmp_path / "log.csv", tmp_path / "model.txt"
        r = run_cli(["run", "--trace", str(trace), "--log", str(log), "--events",
                     str(events_dir), "--model", str(model), "--training-cycles", "5"])
        assert r.returncode == 2
        assert r.stderr.startswith("error: ") and r.stderr.count("\n") == 1
        assert not log.exists() and not model.exists()
        assert list(tmp_path.glob("*.part")) == []

    def test_two_outputs_naming_one_file_are_1_and_write_nothing(self, tmp_path, monkeypatch,
                                                                 capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["simulate", "--duration-days", "2", "--seed", "1",
                     "--out", "trace.csv", "--labels", "labels.csv"]) == 0
        run = ["run", "--trace", "trace.csv", "--training-cycles", "5"]
        simulate = ["simulate", "--duration-days", "2", "--seed", "1"]
        cases = [
            run + ["--log", "x.csv", "--events", "x.csv", "--model", "m.txt"],
            run + ["--log", "x.csv", "--events", "e.csv", "--model", "x.csv"],
            run + ["--log", "l.csv", "--events", "x.csv", "--model", "x.csv"],
            run + ["--log", "x.csv", "--events", "./x.csv"],
            simulate + ["--out", "x.csv", "--labels", "x.csv"],
            simulate + ["--out", "./x.csv", "--labels", "x.csv"],
        ]
        existing = b"written before the command\n"
        for argv in cases:
            (tmp_path / "x.csv").write_bytes(existing)
            capsys.readouterr()
            assert main(argv) == 1, argv
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1, err
            assert (tmp_path / "x.csv").read_bytes() == existing
            # no part file, and no output of the other, distinct targets
            assert sorted(p.name for p in tmp_path.iterdir()) == [
                "labels.csv", "trace.csv", "x.csv"]

    def test_a_timestamp_too_large_for_a_float_is_2(self, tmp_path, capsys):
        """A 401-digit timestamp, which would reach float arithmetic in the
        cycle tracker (run) and in evaluate (eval) as an OverflowError, and
        a line that is not the writer's text are refused at their line."""
        huge = "1" + "0" * 400
        trace, lenient = tmp_path / "trace.csv", tmp_path / "lenient.csv"
        trace.write_text(f"1700000000,0.9000,,0,none\n{huge},0.9000,,0,none\n")
        lenient.write_text("1700000000,0.9000,,0,none\n1_700_000_030,+0.9000,,0,none\n")
        events, labels = tmp_path / "events.csv", tmp_path / "labels.csv"
        events.write_text(event_log.EVENTS_HEADER + "\n")
        labels.write_text(f"{simulator.LABELS_HEADER}\n{huge},{huge}1,door_open\n")
        outputs = [tmp_path / "log.csv", tmp_path / "run_events.csv", tmp_path / "report.txt"]
        for argv, where in (
                (["run", "--trace", str(trace), "--log", str(outputs[0]),
                  "--events", str(outputs[1])], "(line 2, column 1)"),
                (["run", "--trace", str(lenient), "--log", str(outputs[0]),
                  "--events", str(outputs[1])], "(line 2, column 1)"),
                (["eval", "--events", str(events), "--labels", str(labels),
                  "--report", str(outputs[2])], "(line 2)")):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
            assert captured.err.endswith(where + "\n")
        assert not any(path.exists() for path in outputs)
        assert list(tmp_path.glob("*.part")) == []

    def test_negative_timestamps_are_simulated_run_and_replayed(self, tmp_path):
        trace, log, again = (tmp_path / name for name in ("trace.csv", "log.csv", "re.csv"))
        assert main(["simulate", "--duration-days", "1", "--seed", "1", "--start-epoch",
                     "-100000", "--out", str(trace), "--labels", str(tmp_path / "l.csv")]) == 0
        assert trace.read_text().split("\n")[1].startswith("-100000,")
        assert main(["run", "--trace", str(trace), "--log", str(log),
                     "--events", str(tmp_path / "e.csv"), "--training-cycles", "5"]) == 0
        assert main(["replay", "--log", str(log), "--out", str(again),
                     "--training-cycles", "5"]) == 0
        assert again.read_bytes() == log.read_bytes()

    def test_missing_file_is_2(self, tmp_path):
        r = run_cli(["run", "--trace", str(tmp_path / "nope.csv"),
                     "--log", str(tmp_path / "l"), "--events", str(tmp_path / "e")])
        assert r.returncode == 2

    def test_insufficient_training_is_3(self, tmp_path):
        r = run_cli(["simulate", "--duration-s", "7200", "--seed", "1",
                     "--out", str(tmp_path / "t.csv"), "--labels", str(tmp_path / "lab.csv")])
        assert r.returncode == 0
        r = run_cli(["run", "--trace", str(tmp_path / "t.csv"),
                     "--log", str(tmp_path / "l"), "--events", str(tmp_path / "e")])
        assert r.returncode == 3

    def test_bad_scenario_kind_is_1(self, tmp_path):
        r = run_cli(["simulate", "--duration-s", "7200", "--scenario", "meltdown:10",
                     "--out", str(tmp_path / "t"), "--labels", str(tmp_path / "l")])
        assert r.returncode == 1

    def test_corrupt_model_is_2(self, tmp_path):
        log = tmp_path / "log.csv"
        log.write_text("1700000000,0.0700,,0,none\n")
        model = tmp_path / "model.txt"
        model.write_text("trained_on=50\n" + "".join(
            f"mean.{name}=1.0\nstd.{name}=nan\n" for name in FEATURE_NAMES))
        out = tmp_path / "out.csv"
        r = run_cli(["replay", "--log", str(log), "--model", str(model), "--out", str(out)])
        assert r.returncode == 2
        assert not out.exists()

    def test_repeated_model_key_is_2(self, tmp_path, capsys):
        log = tmp_path / "log.csv"
        log.write_text("1700000000,0.0700,,0,none\n")
        model = tmp_path / "model.txt"
        model.write_text("trained_on=50\n" + "".join(
            f"mean.{name}=1.0\nstd.{name}=0.5\n" for name in FEATURE_NAMES)
            + "mean.rms_last=99.0\n")
        out = tmp_path / "out.csv"
        assert main(["replay", "--log", str(log), "--model", str(model), "--out", str(out)]) == 2
        assert main(["profile", "--trials", "10", "--model", str(model)]) == 2
        assert capsys.readouterr().err.count("model line 2 is 'mean.rms_last=1.0\\n'") == 2
        assert not out.exists()

    def test_overlapping_scenarios_is_2(self, tmp_path):
        r = run_cli(["simulate", "--duration-days", "1",
                     "--scenario", "power_disruption:1000",
                     "--scenario", "door_open:2000",
                     "--out", str(tmp_path / "t"), "--labels", str(tmp_path / "l")])
        assert r.returncode == 2
