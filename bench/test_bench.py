"""Tests of the benchmark itself.

    python3 -m pytest -q bench/test_bench.py
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import layers  # noqa: E402
from run import SEED_SRC, Gate, import_seed_workloads  # noqa: E402
from workloads import WORKLOADS, PassOutput, SeedSweep, sha256_file  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    CONTRACT = json.load(_fh)
with open(os.path.join(BENCH, "pins.json")) as _fh:
    PINS = json.load(_fh)

# Shortest inputs that still hold 50 training cycles and at least one fault.
SMOKE_DAYS = {"paper14d_cli": 5, "seed_sweep": 5, "short_cycle_replay": 9, "adc_front_end": 3}


def run_bench(args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join("bench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


def test_metric_names():
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in CONTRACT[key]]
    names += [w["name"] for w in CONTRACT["workloads"]]
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(names) == len(set(names))
    assert sorted(w["name"] for w in CONTRACT["workloads"]) == sorted(WORKLOADS)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_reduced_size(name, tmp_path, monkeypatch):
    monkeypatch.setattr(SeedSweep, "n_seeds", 2)
    wl = WORKLOADS[name](WORKLOADS[name].pinned_seed + 1, str(tmp_path),
                         days=SMOKE_DAYS[name])
    assert wl.scenarios
    wl.setup()
    gate = Gate()
    for i in range(2):
        secs, out = gate.run(f"pass {i}", wl)
        assert secs is not None and out.digests
    assert (gate.attempted, gate.failed) == (2, 0)
    assert out.detections


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_pinned_seed_reproduces_pins(name, tmp_path):
    cls = WORKLOADS[name]
    wl = cls(cls.pinned_seed, str(tmp_path))
    wl.setup()
    gate = Gate(PINS[name][str(cls.pinned_seed)])
    gate.run("pinned", wl)
    assert (gate.attempted, gate.failed) == (1, 0)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_copy_reproduces_pins(name, tmp_path):
    seed_workloads = import_seed_workloads()
    assert seed_workloads is not sys.modules["workloads"]
    assert seed_workloads.cli.__file__.startswith(SEED_SRC)
    # the program's modules are back in place
    assert sys.modules["ampwatch.cli"].__file__.startswith(os.path.join(ROOT, "src"))
    cls = seed_workloads.WORKLOADS[name]
    wl = cls(cls.pinned_seed, str(tmp_path))
    wl.setup()
    gate = Gate(PINS[name][str(cls.pinned_seed)])
    gate.run("pinned", wl)
    assert (gate.attempted, gate.failed) == (1, 0)


def test_tampered_output_byte_fails_gate(tmp_path):
    wl = WORKLOADS["paper14d_cli"](7, str(tmp_path), days=SMOKE_DAYS["paper14d_cli"])
    gate = Gate()
    _, out = gate.run("reference", wl)
    log = wl.path("log.csv")
    with open(log, "r+b") as fh:
        fh.seek(100)
        byte = fh.read(1)
        fh.seek(100)
        fh.write(bytes([byte[0] ^ 1]))
    tampered = PassOutput(digests=dict(out.digests, **{"log.csv": sha256_file(log)}))
    assert not gate.check("tampered", tampered)
    assert gate.failed == 1


def test_detection_miss_fails_gate():
    gate = Gate({})
    assert not gate.check("miss", PassOutput(detections=[(3, 0, 1)], expected_tp=[4]))
    assert gate.check("ungated", PassOutput(detections=[(4, 1, 0)], expected_tp=[4],
                                            gate_detections=False))


def test_tracer_self_time_subtracts_children():
    tr = layers.Tracer()
    with tr.span("outer"):
        with tr.span("inner"):
            pass
    (name, parent, s0, e0), (_, _, s1, e1) = tr.spans
    assert parent == -1 and tr.spans[1][1] == 0
    assert tr.self_times()["outer"] == pytest.approx((e0 - s0) - (e1 - s1))


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_command_output_format(trace, key):
    proc = run_bench(["--workload", "adc_front_end", "--seconds", "0", "--trace", str(trace)])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert sorted(result["metrics"]) == sorted(m["name"] for m in CONTRACT[key])
    units = {m["name"]: m["unit"] for m in CONTRACT[key]}
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name]
        assert isinstance(metric["value"], (int, float))


def test_fails_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench(["--workload", "paper14d_cli", "--seconds", "1"], cwd=str(tmp_path))
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout
