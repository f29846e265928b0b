"""Compare sampler chains run from two checkouts' src/ directories.

Each side runs batts.run_sampler in a process of its own, with its src/ first
on the import path, on the same scenario, configuration and seeds. For each
seed the script prints both sides' move attempts and accepts (grow, prune,
change, summed over the sweeps), max |d log r| over the draws and evaluation
points, and max |d tau| over the draws. It exits with status 1 if the
simulated data differ, the move counts differ in any sweep, or a difference
passes its tolerance.

    python tests/chain_compare.py OLD/src NEW/src --scenario LatentLocation20D \\
        --n0 450 --n1 50 --trees 10 --burn-in 60 --draws 60 --seeds 0 1 2

--eval-points M adds M points drawn from N(0, 9I) after the training points,
so the evaluation-only cells are compared too.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

import numpy as np


def _worker(spec: dict, path: str) -> None:
    """Run one chain with the batts on the import path; save it at path."""
    import batts
    from batts import GibbsConfig, build_cut_grid, generate, make_scenario, run_sampler

    src = os.path.realpath(spec["src"])
    if not os.path.realpath(batts.__file__).startswith(src + os.sep):
        raise SystemExit(f"imported batts from {batts.__file__}, not from {src}")
    data = generate(make_scenario(spec["scenario"]), spec["n0"], spec["n1"], seed=spec["seed"])
    eval_points = None
    if spec["eval_points"]:
        gen = np.random.default_rng(spec["seed"])
        extra = 3.0 * gen.standard_normal((spec["eval_points"], data.dim))
        eval_points = np.vstack([data.pooled(), extra])
    config = GibbsConfig(n_trees=spec["trees"], burn_in=spec["burn_in"], draws=spec["draws"],
                         seed=spec["seed"])
    draws = run_sampler(data, build_cut_grid(data, spec["cuts"]), config, eval_points)
    np.savez(path, data=data.pooled(), log_r=draws.log_ratio_draws, tau=draws.tau_draws,
             attempts=draws.move_attempts, accepts=draws.move_accepts)


def run_chain(src: str, spec: dict, path: str) -> dict:
    """One chain from the checkout whose src/ is src, in a fresh process."""
    spec = dict(spec, src=src)
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    subprocess.run([sys.executable, os.path.abspath(__file__), "--worker", json.dumps(spec), path],
                   env=env, check=True)
    with np.load(path) as f:
        return dict(f)


def compare(a: dict, b: dict) -> tuple:
    """(same data, same move counts in every sweep, max |d log r|, max |d tau|)."""
    same_data = np.array_equal(a["data"], b["data"])
    same_moves = (np.array_equal(a["attempts"], b["attempts"])
                  and np.array_equal(a["accepts"], b["accepts"]))
    d_log_r = float(np.max(np.abs(a["log_r"] - b["log_r"]), initial=0.0))
    d_tau = float(np.max(np.abs(a["tau"] - b["tau"]), initial=0.0))
    return same_data, same_moves, d_log_r, d_tau


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src_a")
    parser.add_argument("src_b")
    parser.add_argument("--scenario", default="LatentLocation20D")
    parser.add_argument("--n0", type=int, default=450)
    parser.add_argument("--n1", type=int, default=50)
    parser.add_argument("--trees", type=int, default=10)
    parser.add_argument("--burn-in", type=int, default=60)
    parser.add_argument("--draws", type=int, default=60)
    parser.add_argument("--cuts", type=int, default=31)
    parser.add_argument("--eval-points", type=int, default=0)
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    parser.add_argument("--tol-log-r", type=float, default=1e-9)
    parser.add_argument("--tol-tau", type=float, default=1e-12)
    args = parser.parse_args(argv)
    spec = {k: getattr(args, k) for k in ("scenario", "n0", "n1", "trees", "burn_in", "draws",
                                          "cuts", "eval_points")}
    ok = True
    with tempfile.TemporaryDirectory() as tmp:
        for seed in args.seeds:
            a, b = (run_chain(src, dict(spec, seed=seed), os.path.join(tmp, f"{side}.npz"))
                    for side, src in (("a", args.src_a), ("b", args.src_b)))
            same_data, same_moves, d_log_r, d_tau = compare(a, b)
            passed = (same_data and same_moves and d_log_r <= args.tol_log_r
                      and d_tau <= args.tol_tau)
            ok &= passed
            (ta, tb), (ka, kb) = ([x[k].sum(axis=0).tolist() for x in (a, b)]
                                  for k in ("attempts", "accepts"))
            print(f"seed {seed}: attempts {ta} / {tb}, accepts {ka} / {kb}, "
                  f"max |d log r| {d_log_r:.3g}, max |d tau| {d_tau:.3g}"
                  f"{'' if same_data else ', data differ'}: {'ok' if passed else 'FAIL'}")
    return 0 if ok else 1


if __name__ == "__main__":
    if sys.argv[1:2] == ["--worker"]:
        _worker(json.loads(sys.argv[2]), sys.argv[3])
    else:
        sys.exit(main())
