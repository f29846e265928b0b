"""Compare CV-selected boosting fits from two checkouts' src/ directories.

Each side runs batts.fit(..., select=True) in a process of its own, with its
src/ first on the import path, on the same scenario, size, configuration and
seed. For each case the script prints both sides' selected tree count k,
whether the sha256 digests of the saved models are equal, max |d curve| over
the common prefix of the two CV curves, both MSEs against the true log ratio,
both fits' CPU seconds and both processes' peak RSS after the fit. It exits
with status 1 if k differs in any case or a curve difference passes its
tolerance.

    python tests/cv_compare.py OLD/src NEW/src --scenarios GlobalShift2D \\
        --sizes 5000/5000 9000/1000 --seeds 0 1 2

A side whose model does not keep its CV curve gets it from cv_loss_curve,
after the timed fit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import subprocess
import sys
import tempfile
import time

import numpy as np


def _worker(spec: dict, path: str) -> None:
    """Fit one case with the batts on the import path; save the result at path."""
    import batts
    from batts import (BoostConfig, build_cut_grid, fit, generate, make_scenario,
                       predict_log_ratio, symmetrized_mse, true_log_ratio)
    from batts.boost import cv_loss_curve

    src = os.path.realpath(spec["src"])
    if not os.path.realpath(batts.__file__).startswith(src + os.sep):
        raise SystemExit(f"imported batts from {batts.__file__}, not from {src}")
    scenario = make_scenario(spec["scenario"])
    data = generate(scenario, spec["n0"], spec["n1"], seed=spec["seed"])
    grid = build_cut_grid(data, spec["cuts"])
    config = BoostConfig(algorithm=spec["algo"], max_trees=spec["trees"], seed=spec["seed"])
    start = time.process_time()
    model = fit(data, grid, config, select=True)
    cpu = time.process_time() - start
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    curve = getattr(model, "cv_loss_curve", None)
    if curve is None:
        curve = cv_loss_curve(data, grid, config)
    model.save(path + ".json")
    with open(path + ".json", "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    points = data.pooled()
    mse = symmetrized_mse(true_log_ratio(scenario, points), predict_log_ratio(model, points),
                          data.n0, data.n1)
    np.savez(path, curve=curve, k=len(model.trees), digest=digest, mse=mse, cpu=cpu,
             rss_mb=rss_mb)


def run_fit(src: str, spec: dict, path: str) -> dict:
    """One case from the checkout whose src/ is src, in a fresh process."""
    spec = dict(spec, src=src)
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    subprocess.run([sys.executable, os.path.abspath(__file__), "--worker", json.dumps(spec), path],
                   env=env, check=True)
    with np.load(path + ".npz") as f:
        return {k: f[k][()] for k in f.files}


def compare(a: dict, b: dict) -> tuple:
    """(same k, same model bytes, max |d curve| over the common prefix)."""
    n = min(a["curve"].size, b["curve"].size)
    d_curve = float(np.max(np.abs(a["curve"][:n] - b["curve"][:n]), initial=0.0))
    return int(a["k"]) == int(b["k"]), str(a["digest"]) == str(b["digest"]), d_curve


def _size(text: str) -> tuple:
    n0, _, n1 = text.partition("/")
    return int(n0), int(n1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src_a")
    parser.add_argument("src_b")
    parser.add_argument("--scenarios", nargs="+", default=["GlobalShift2D"])
    parser.add_argument("--sizes", type=_size, nargs="+", default=[(5000, 5000)],
                        help="group sizes as N0/N1")
    parser.add_argument("--seeds", type=int, nargs="+", default=[0])
    parser.add_argument("--algo", default="gb")
    parser.add_argument("--trees", type=int, default=1000)
    parser.add_argument("--cuts", type=int, default=31)
    parser.add_argument("--tol-curve", type=float, default=1e-12)
    args = parser.parse_args(argv)
    ok = True
    with tempfile.TemporaryDirectory() as tmp:
        for scenario in args.scenarios:
            for n0, n1 in args.sizes:
                for seed in args.seeds:
                    spec = {"scenario": scenario, "n0": n0, "n1": n1, "seed": seed,
                            "algo": args.algo, "trees": args.trees, "cuts": args.cuts}
                    a, b = (run_fit(src, spec, os.path.join(tmp, side))
                            for side, src in (("a", args.src_a), ("b", args.src_b)))
                    same_k, same_model, d_curve = compare(a, b)
                    passed = same_k and d_curve <= args.tol_curve
                    ok &= passed
                    print(f"{scenario} {n0}/{n1} seed {seed}: k {int(a['k'])} / {int(b['k'])}, "
                          f"model {'same' if same_model else 'differs'}, "
                          f"max |d curve| {d_curve:.3g}, "
                          f"mse {float(a['mse']):.6g} / {float(b['mse']):.6g}, "
                          f"cpu {float(a['cpu']):.2f} / {float(b['cpu']):.2f} s, "
                          f"rss {float(a['rss_mb']):.1f} / {float(b['rss_mb']):.1f} MB: "
                          f"{'ok' if passed else 'FAIL'}", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    if sys.argv[1:2] == ["--worker"]:
        _worker(json.loads(sys.argv[2]), sys.argv[3])
    else:
        sys.exit(main())
