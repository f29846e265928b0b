"""Benchmark of batts: seeded workloads timed end to end, plus a traced run
that splits the time by library layer.

Usage, from the root of a checkout (batts is imported from ./src):

    python3 bench/run.py --workload gb_cv_2d --seed 0 --seconds 28 --trace 0

Workloads are listed in BENCHMARK.json and defined in bench/workloads.py.
A run sets the workload up several times (``setup_s`` is the median), runs
the job once untimed to warm up, then repeats it on the same inputs while the
next repetition still fits in ``--seconds`` (at least once). Every job's
output is checked; a job that raises or fails its check counts in
``failed``.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced jobs and reports per-layer metrics: each public function
of data, loss, tree, boost, gibbs and cli is wrapped from bench/tracing.py and
its calls, inclusive time and self time are recorded. Private helpers show up
as the self time of the public function that calls them (split search and
rebalancing in ``boost.fit``; leaf-beta bincounts and the drift check in
``gibbs.run_sampler``).

The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``. The line before it is a
report with run metadata, per-job times, checks and sha256 digests of the
outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import tracing

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

SETUP_MIN_REPS = 3
SETUP_MAX_REPS = 1000
SETUP_MIN_SECONDS = 1.0


def import_batts():
    """Import batts from this checkout's src/, never from elsewhere."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "batts", "__init__.py")):
        sys.exit(f"bench: no batts package under {src}")
    sys.path.insert(0, src)
    import batts

    if os.path.dirname(os.path.dirname(os.path.abspath(batts.__file__))) != src:
        sys.exit(f"bench: imported batts from {batts.__file__}, not from {src}")
    return batts


def timing_summary(values) -> dict:
    """Median, the highest percentile with at least ten samples beyond it
    (when there are enough samples for one), and the sample count."""
    out = {"n": len(values)}
    if values:
        out["p50"] = statistics.median(values)
        pct = tracing.tail_percentile(len(values))
        if pct > 50:
            out[f"p{pct:g}"] = float(np.percentile(values, pct))
    return out


def git_commit():
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def metadata() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": git_commit(),
        "loadavg_1m_start": os.getloadavg()[0],
    }


@dataclass
class Attempt:
    """One job: its wall time, output, check result and (if traced) tracer."""

    wall: float
    output: object = None
    checked: object = None
    problems: list = field(default_factory=list)
    tracer: tracing.Tracer | None = None


def attempt(workload, size_name, inputs, workdir, tracer=None) -> Attempt:
    t0 = perf_counter()
    try:
        output = tracer.run(lambda: workload.job(inputs)) if tracer else workload.job(inputs)
    except Exception as e:  # a failed job is counted, not fatal
        return Attempt(perf_counter() - t0, problems=[f"raised {type(e).__name__}: {e}"])
    wall = perf_counter() - t0
    try:
        checked = workload.check(size_name, inputs, output, workdir)
    except Exception as e:
        return Attempt(wall, output, problems=[f"check raised {type(e).__name__}: {e}"])
    return Attempt(wall, output, checked, list(checked.problems), tracer)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny only checks that the harness runs")
    args = parser.parse_args(argv)

    batts = import_batts()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"bench: unknown workload {args.workload!r}; "
                 f"expected one of {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    size = workloads.SIZES[workload.name][args.size]
    meta = metadata()

    os.makedirs(os.path.join(BENCH_DIR, ".work"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=os.path.join(BENCH_DIR, ".work"))
    try:
        setups = []
        while len(setups) < SETUP_MIN_REPS or (
                sum(setups) < SETUP_MIN_SECONDS and len(setups) < SETUP_MAX_REPS):
            t0 = perf_counter()
            inputs = workload.setup(args.seed, size, workdir)
            setups.append(perf_counter() - t0)

        start = perf_counter()
        # Checked like every job, but left out of the timings: the first job
        # pays for cold caches and lazy imports.
        warmup = attempt(workload, args.size, inputs, workdir)
        plain, traced = [], []
        while True:
            t0 = perf_counter()
            plain.append(attempt(workload, args.size, inputs, workdir))
            if args.trace:
                traced.append(attempt(workload, args.size, inputs, workdir,
                                      tracer=tracing.Tracer(batts)))
            cycle = perf_counter() - t0
            if perf_counter() - start + cycle > args.seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempts = [warmup] + plain + traced
    first = next((a for a in attempts if a.checked), None)
    for a in attempts:
        if a.checked and a.checked.digests != first.checked.digests:
            a.problems.append("outputs differ between repetitions on the same inputs")
    if args.trace:
        for a in traced:
            a.problems += tracing.coverage_problems(a.tracer, a.wall)
    failed = sum(1 for a in attempts if a.problems)
    ok = [a for a in plain if not a.problems]
    meta["loadavg_1m_end"] = os.getloadavg()[0]

    walls = [a.wall for a in plain]
    report = {
        "workload": workload.name,
        "seed": args.seed,
        "size": args.size,
        "seconds": args.seconds,
        "trace": args.trace,
        "meta": meta,
        "setup_s": timing_summary(setups),
        "wall_s": timing_summary(walls),
        "traced_wall_s": timing_summary([a.wall for a in traced]),
        "warmup_wall_s": warmup.wall,
        "jobs": [{"wall_s": a.wall, "traced": a.tracer is not None,
                  "warmup": a is warmup, "problems": a.problems} for a in attempts],
        "error_rate": failed / len(attempts),
        "mse": first.checked.mse if first else None,
        "digests": first.checked.digests if first else {},
    }
    if ok and ok[0].output.sweeps:
        report["sweeps_per_s"] = statistics.median(a.output.sweeps / a.wall for a in ok)
    if ok and "points" in size:
        report["rows_per_s"] = statistics.median(size["points"] / a.wall for a in ok)

    if args.trace:
        metrics = tracing.per_layer_metrics(traced, walls, inputs)
        report["largest_self"] = tracing.largest_self(metrics)
    else:
        rates = [a.output.trees / a.wall for a in ok]
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "trees_per_s": {"value": statistics.median(rates) if rates else 0.0, "unit": "1/s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
        }
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": failed == 0, "attempted": len(attempts),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
