"""The benchmark under bench/ imports ampwatch by name; renaming or
removing one of those names must fail here, not in a benchmark run."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_bench_modules_import_against_src():
    src = os.path.join(ROOT, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.path.join(ROOT, "bench")]))
    code = ("import sys, ampwatch, layers, run, workloads\n"
            "assert ampwatch.__file__.startswith(sys.argv[1]), ampwatch.__file__")
    r = subprocess.run([sys.executable, "-c", code, src + os.sep],
                       capture_output=True, text=True, env=env)
    assert r.returncode == 0, r.stderr
