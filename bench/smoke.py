"""Smoke test of the benchmark itself, at tiny sizes (about 15 s).

    python3 bench/smoke.py

For every workload in BENCHMARK.json and for both --trace 0 and --trace 1, it
runs bench/run.py at --size tiny and checks the result line: exactly the keys
correct/attempted/failed/metrics, no failed job, and every metric that
BENCHMARK.json names for that mode emitted with its unit. It also checks the
report line, and that the benchmark exits non-zero without a result when the
directory holds only BENCHMARK.json and bench/.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
REPORT_KEYS = {"meta", "setup_s", "wall_s", "jobs", "error_rate", "mse", "digests"}
META_KEYS = {"nproc", "cpu_model", "python", "numpy", "git_commit",
             "loadavg_1m_start", "loadavg_1m_end"}
DIGESTS = {
    "gb_cv_2d": {"model_json", "log_ratio"},
    "fs_20d": {"model_json", "log_ratio"},
    "bayes_2d": {"posterior_mean"},
    "predict_batch": {"model_json", "log_ratio", "out_csv"},
}
EXTRA = {"bayes_2d": "sweeps_per_s", "predict_batch": "rows_per_s"}


def run(cwd, workload, trace):
    cmd = [sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
           "--seed", "0", "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_run(spec, workload, trace) -> list:
    proc = run(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}"]
    lines = proc.stdout.strip().splitlines()
    result, report = json.loads(lines[-1]), json.loads(lines[-2])["report"]
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        errors.append(f"{where}: correct={result['correct']} failed={result['failed']} "
                      f"attempted={result['attempted']} {report['jobs']}")
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    if set(got) != set(expected):
        errors.append(f"{where}: missing {sorted(set(expected) - set(got))}, "
                      f"unexpected {sorted(set(got) - set(expected))}")
    for name, unit in expected.items():
        m = got.get(name)
        if m is None:
            continue
        if m.get("unit") != unit:
            errors.append(f"{where}: {name} has unit {m.get('unit')!r}, expected {unit!r}")
        value = m.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append(f"{where}: {name} = {value!r} is not a finite number")
        elif not trace and value <= 0:
            errors.append(f"{where}: end-to-end metric {name} = {value!r} is not positive")
    missing = REPORT_KEYS - set(report)
    missing |= META_KEYS - set(report.get("meta", {}))
    missing |= DIGESTS[workload] - set(report.get("digests", {}))
    if workload in EXTRA and EXTRA[workload] not in report:
        missing.add(EXTRA[workload])
    if missing:
        errors.append(f"{where}: report lacks {sorted(missing)}")
    return errors


def check_without_program() -> list:
    """In a directory with only BENCHMARK.json and bench/, the benchmark must
    fail without printing a result."""
    os.makedirs(os.path.join(BENCH_DIR, ".work"), exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=os.path.join(BENCH_DIR, ".work"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(BENCH_DIR, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns(".work", "__pycache__"))
        proc = run(bare, "gb_cv_2d", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return [f"without src/ the benchmark exited {proc.returncode} "
                f"with output {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    errors = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            errors += check_run(spec, w["name"], trace)
    errors += check_without_program()
    for e in errors:
        print("FAIL", e)
    print("smoke: ok" if not errors else f"smoke: {len(errors)} failures")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
