"""The benchmark's smoke check, bench/smoke.py, run as a test (about 20 s).

It runs every workload of BENCHMARK.json at tiny size, with and without
tracing, through the same public names that the traced harness wraps, and
checks that every run succeeds and reports every metric by name and unit.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_bench_smoke():
    proc = subprocess.run([sys.executable, os.path.join("bench", "smoke.py")], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert proc.stdout.strip().splitlines()[-1] == "smoke: ok"
