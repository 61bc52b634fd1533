"""ampwatch benchmark: one workload per invocation.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; ampwatch is imported from its
src/ directory.  Set-up builds the inputs from --seed (default: the
workload's pinned seed).  The timed phase repeats pairs of passes over
the input for --seconds: one of the program and one of a frozen copy
of the seed commit's code (seed_src/), alternating step by step, and
every pass of the program goes through the correctness gate.
wall_vs_seed is the median of the pairs' time ratios.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  With --trace 0
the metrics are the end-to-end ones; with --trace 1 a traced run adds
spans and a census of every layer and reports the per-layer ones.
Exit code 0 when every checked pass was correct, 1 when any failed,
2 when the checkout holds no ampwatch sources.
"""

import argparse
import gc
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
# a frozen copy of ampwatch as of the seed commit, the yardstick of wall_vs_seed
SEED_SRC = os.path.join(BENCH_DIR, "seed_src")
PINS = os.path.join(BENCH_DIR, "pins.json")
MIN_PASSES = 3
TRACED_PASSES = 3
# setup_s is the median of one fresh interpreter after each timed pair,
# spread over the run like the passes, and at least this many
MIN_SETUPS = 9


def import_ampwatch():
    """ampwatch from this checkout's src/, and no other copy."""
    sys.path.insert(0, SRC)
    try:
        import ampwatch
    except ImportError as exc:
        print(f"error: cannot import ampwatch from {SRC}: {exc}", file=sys.stderr)
        sys.exit(2)
    where = os.path.dirname(os.path.abspath(ampwatch.__file__))
    if where != os.path.join(SRC, "ampwatch"):
        print(f"error: ampwatch imported from {where}, not from {SRC}", file=sys.stderr)
        sys.exit(2)


def import_seed_workloads():
    """The workloads module bound to the frozen seed copy of ampwatch.
    That copy has the program's module names, so the program's modules
    are set aside while it loads and put back afterwards; each copy's
    functions keep their own module globals."""
    def loaded():
        return [k for k in sys.modules
                if k in ("ampwatch", "workloads") or k.startswith("ampwatch.")]

    program = {k: sys.modules.pop(k) for k in loaded()}
    sys.path.insert(0, SEED_SRC)
    try:
        import ampwatch
        import workloads
        if os.path.dirname(os.path.abspath(ampwatch.__file__)) != os.path.join(SEED_SRC, "ampwatch"):
            raise ImportError(f"the seed copy of ampwatch is not under {SEED_SRC}")
        return workloads
    finally:
        sys.path.remove(SEED_SRC)
        for k in loaded():
            del sys.modules[k]
        sys.modules.update(program)


def host_info():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "cpu": cpu,
            "loadavg": [round(x, 2) for x in os.getloadavg()]}


def no_span(_name):
    return nullcontext()


class Gate:
    """Counts checked passes and failures; a failure is a digest that
    differs from the reference, a detection miss, or an exception."""

    def __init__(self, reference=None):
        self.reference = reference
        self.attempted = 0
        self.failed = 0

    def check(self, what, out, reference=None):
        self.attempted += 1
        problems = list(out.problems)
        if reference is None:
            if self.reference is None:  # the first pass of an unpinned seed
                self.reference = dict(out.digests)
            reference = self.reference
        for name, digest in reference.items():
            got = out.digests.get(name)
            if got != digest:
                problems.append(f"{name}: sha256 {got} != {digest}")
        if out.gate_detections:
            for (tp, fp, fn), n in zip(out.detections, out.expected_tp):
                if (tp, fp, fn) != (n, 0, 0):
                    problems.append(f"detections tp={tp} fp={fp} fn={fn}, want tp={n} fp=0 fn=0")
        if problems:
            self.failed += 1
            for p in problems:
                print(f"FAIL {what}: {p}", file=sys.stderr)
        return not problems

    def run(self, what, wl, span=no_span, reference=None, around=None):
        """One checked pass; returns (seconds, output) or (None, None) if it
        raised."""
        secs, _, out = self.run_pair(what, wl, None, span=span, reference=reference,
                                     around=around)
        return secs, out

    def run_pair(self, what, wl, seed_wl, seed_first=False, span=no_span, reference=None,
                 around=None):
        """One checked pass of the program and, unless ``seed_wl`` is None,
        one pass of the seed copy, alternating step by step (the seed
        copy's steps first if ``seed_first``).  Returns the program's
        seconds, the seed copy's and the program's output, or Nones if a
        pass raised.  Only the steps are timed, inside the optional
        ``around``."""
        gc.collect()
        try:
            with around or nullcontext():
                passes = [wl.run_pass(span)] + ([seed_wl.run_pass(no_span)] if seed_wl else [])
                if seed_first:
                    passes.reverse()
                secs, produced = run_steps(passes)
                if seed_first:
                    secs.reverse()
                    produced.reverse()
            out = wl.outputs(produced[0])
        except Exception:
            self.attempted += 1
            self.failed += 1
            print(f"FAIL {what}: raised", file=sys.stderr)
            traceback.print_exc()
            return None, None, None
        self.check(what, out, reference)
        return secs[0], secs[1] if seed_wl else None, out


def run_steps(passes):
    """Runs passes (the generators run_pass returns) one step of each in
    turn until all have ended; returns the seconds each took and what each
    produced."""
    secs, produced = [0.0] * len(passes), [None] * len(passes)
    live = list(range(len(passes)))
    while live:
        for i in list(live):
            t0 = time.perf_counter()
            try:
                next(passes[i])
            except StopIteration as stop:
                produced[i] = stop.value
                live.remove(i)
            secs[i] += time.perf_counter() - t0
    return secs, produced


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def setup_once(wl):
    """Wall time of a fresh interpreter importing ampwatch.cli (and loading
    the model, where the workload loads one): what the program pays
    before its first record."""
    code = f"import sys; sys.path.insert(0, {SRC!r}); import ampwatch.cli"
    if wl.loads_model:
        code += ("\nfrom ampwatch.zscore_model import ModelParams"
                 f"\nwith open({wl.path('model.txt')!r}) as fh: ModelParams.load(fh)")
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-I", "-c", code], check=True)
    return time.perf_counter() - t0


def timed_passes(gate, wl, seed_wl, seconds, between=None):
    """A warm-up pass of each copy, the program's under tracemalloc,
    then timed pairs for ``seconds`` (at least MIN_PASSES): one pass of
    the program and one of the seed code over the same input, alternating
    step by step, the program first in every other pair, then
    ``between()`` untimed.  Returns the program's pass times, the seed
    code's pass times of the same pairs, every checked pass's outputs,
    and the warm-up's peak traced memory in MiB."""
    from layers import PeakMemory

    peak = PeakMemory()
    _, warm = gate.run("warm-up pass", wl, around=peak)
    run_steps([seed_wl.run_pass(no_span)])
    walls, seed_walls, outs = [], [], [warm] if warm else []
    deadline = time.perf_counter() + seconds
    while len(walls) < MIN_PASSES or time.perf_counter() < deadline:
        secs, seed_secs, out = gate.run_pair(f"pass {len(walls) + 1}", wl, seed_wl,
                                             seed_first=len(walls) % 2 == 1)
        if secs is not None:
            walls.append(secs)
            seed_walls.append(seed_secs)
            outs.append(out)
        elif time.perf_counter() >= deadline:
            break
        if between:
            between()
    return walls, seed_walls, outs, peak.mib


def pair_ratios(walls, seed_walls):
    """Program time over seed-code time, pair by pair: the host's speed
    cancels within a pair, and the median drops the pairs it changed in."""
    return [w / s for w, s in zip(walls, seed_walls)]


def end_to_end(wl, walls, seed_walls, setups, peak_mib):
    while len(setups) < MIN_SETUPS:
        setups.append(setup_once(wl))
    metrics = {
        "wall_vs_seed": (statistics.median(pair_ratios(walls, seed_walls)), "x"),
        "setup_s": (statistics.median(setups), "s"),
    }
    if peak_mib is not None:  # None when the warm-up pass raised
        metrics["peak_mem_mib"] = (peak_mib, "MiB")
    return metrics


def per_layer(gate, wl, wall, work):
    """Traced passes, then the census; returns metrics and summary lines."""
    import layers

    traced, span_runs = [], []
    for i in range(TRACED_PASSES):
        tracer = layers.Tracer()
        secs, _ = gate.run(f"traced pass {i + 1}", wl, tracer.span)
        if secs is not None:
            traced.append(secs)
            span_runs.append(tracer.self_times())
    if not traced:
        return {}, []
    spans = {k: statistics.median(r[k] for r in span_runs) for k in span_runs[0]}
    inputs = wl.layer_inputs()
    c = layers.census(wl, inputs, work)
    metrics, table = layers.per_layer_metrics(
        wl, inputs, c, spans, statistics.median(traced), wall)
    return metrics, [
        "self time per pass by layer (s): "
        + ", ".join(f"{layer} {secs:.4f}" for layer, secs in table),
        "spans per pass (s): " + ", ".join(f"{k} {v:.4f}" for k, v in spans.items()),
    ]


def quality_line(outs):
    """F1 over the checked passes and the median detection delay."""
    tp, fp, fn = (sum(d[i] for o in outs for d in o.detections) for i in range(3))
    f1 = f"{2 * tp / (2 * tp + fp + fn):.4f}" if tp + fp + fn else "n/a"
    delays = outs[0].delays_s if outs else []
    delay = statistics.median(delays) if delays else "n/a"
    return (f"f1 {f1} (tp {tp} fp {fp} fn {fn}); "
            f"detect_delay_s median {delay} (simulated s)")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, help="default: the workload's pinned seed")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_ampwatch()
    from workloads import WORKLOADS
    seed_workloads = import_seed_workloads()

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    cls = WORKLOADS[args.workload]
    seed = cls.pinned_seed if args.seed is None else args.seed
    with open(PINS) as fh:
        pins = json.load(fh)[cls.name][str(cls.pinned_seed)]

    with tempfile.TemporaryDirectory(prefix=".bench_work_", dir=ROOT) as work:
        gate = Gate(pins if seed == cls.pinned_seed else None)
        if seed != cls.pinned_seed:
            # the byte-identity contract, checked on the pinned seed every run
            pinned = cls(cls.pinned_seed, os.path.join(work, "pinned"))
            pinned.setup()
            gate.run(f"pinned seed {cls.pinned_seed}", pinned, reference=pins)

        wl = cls(seed, os.path.join(work, "main"))
        t0 = time.perf_counter()
        wl.setup()
        setup_input_s = time.perf_counter() - t0
        seed_wl = seed_workloads.WORKLOADS[cls.name](seed, os.path.join(work, "seed_code"))
        seed_wl.setup()
        setups = []
        between = (lambda: setups.append(setup_once(wl))) if args.trace == 0 else None
        walls, seed_walls, outs, peak_mib = timed_passes(gate, wl, seed_wl, args.seconds,
                                                         between)
        metrics, lines = {}, []
        if walls:
            q1, wall, q3 = quartiles(walls)
            lines.append(f"wall_s median {wall:.4f} q1 {q1:.4f} q3 {q3:.4f} "
                         f"min {min(walls):.4f} max {max(walls):.4f} n {len(walls)}; "
                         f"records_per_s {wl.input_records() / wall:.6g}")
            q1, seed_wall, q3 = quartiles(seed_walls)
            lines.append(f"seed code wall_s median {seed_wall:.4f} q1 {q1:.4f} q3 {q3:.4f}")
            q1, ratio, q3 = quartiles(pair_ratios(walls, seed_walls))
            lines.append(f"wall_vs_seed median {ratio:.4f} q1 {q1:.4f} q3 {q3:.4f} "
                         f"over {len(walls)} pairs")
            if args.trace == 0:
                metrics = end_to_end(wl, walls, seed_walls, setups, peak_mib)
            else:
                metrics, more = per_layer(gate, wl, wall, work)
                lines += more

    lines.append(quality_line(outs))
    lines.append(f"failed_ops_ratio {gate.failed / max(1, gate.attempted):.4f} "
                 f"({gate.failed} of {gate.attempted} checked passes)")
    lines.append(f"input set-up {setup_input_s:.3f} s; seed {seed}; "
                 f"host {json.dumps(host_info())}")
    for line in lines:
        print(f"{cls.name}: {line}")
    for name, (value, unit) in metrics.items():
        print(f"{cls.name}: {name} = {value:.6g} {unit}")
    correct = gate.failed == 0 and bool(walls)
    print(json.dumps({
        "correct": correct, "attempted": gate.attempted, "failed": gate.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
