"""The benchmark's workloads: seeded inputs, the timed job, and its output check.

A workload has a ``name`` and three methods: ``setup(seed, size, workdir)``
makes the ``Inputs``, ``job(inputs)`` is the timed call into batts and returns
an ``Output``, and ``check(size_name, inputs, output, workdir)`` returns a
``Checked`` with the problems found, the MSE and the output digests.

Every workload uses the paper defaults (depth 4, learning rate 0.01, 31
equally spaced cuts per dimension) and calls batts only through its public
module functions, so that ``tracing.Tracer`` can wrap each call. ``simulate``
makes the inputs and the exact log-ratio oracle; it runs in set-up and in the
check, never in the timed job.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field

import numpy as np

from batts import boost, cli, data, gibbs, simulate

CUTS = 31
FOLDS = 5

# Workload sizes. "full" is what the benchmark measures; "tiny" only checks
# that the harness runs end to end (bench/smoke.py).
SIZES = {
    "gb_cv_2d": {
        "full": dict(n0=2500, n1=2500, trees=100),
        "tiny": dict(n0=150, n1=150, trees=15),
    },
    "fs_20d": {
        "full": dict(n0=4500, n1=500, trees=60),
        "tiny": dict(n0=270, n1=30, trees=15),
    },
    "bayes_2d": {
        "full": dict(n0=2500, n1=2500, trees=200, burn_in=15, draws=10),
        "tiny": dict(n0=150, n1=150, trees=10, burn_in=5, draws=5),
    },
    "predict_batch": {
        "full": dict(n0=2000, n1=2000, trees=1000, points=15_000),
        "tiny": dict(n0=150, n1=150, trees=30, points=2_000),
    },
}

# The symmetrized MSE must stay at or below its value at the default seed 0
# times a margin that covers the estimator's seed-to-seed spread (seeds 0-11
# stay below 0.75 of the ceiling). The sampler's short chain and
# predict_batch's 1000-tree model fit without CV, which overfits, spread
# widest (0.20-0.59 over seeds 0-9 on predict_batch). A constant zero
# estimate scores about 3 on GlobalShift2D.
MSE_SEED0 = {
    ("gb_cv_2d", "full"): 0.5047,
    ("fs_20d", "full"): 0.2930,
    ("bayes_2d", "full"): 0.0545,
    ("predict_batch", "full"): 0.2033,
    ("gb_cv_2d", "tiny"): 2.019,
    ("fs_20d", "tiny"): 0.585,
    ("bayes_2d", "tiny"): 0.569,
    ("predict_batch", "tiny"): 1.492,
}
MSE_MARGIN = {"bayes_2d": 3.0, "predict_batch": 5.0}  # others: 2.0

# Rows of the predict_batch output that are re-scored in the check and must
# match the CSV bit for bit (prediction is row-wise, so a subset suffices).
PREDICT_CHECK_ROWS = 2000


def sha256(b: bytes) -> str:
    return hashlib.sha256(b).hexdigest()


def digest_array(a: np.ndarray) -> str:
    return sha256(np.ascontiguousarray(a, dtype="<f8").tobytes())


def file_digest(path) -> str:
    with open(path, "rb") as fh:
        return sha256(fh.read())


@dataclass
class Inputs:
    seed: int
    size: dict
    data: data.TwoSampleDataset  # the points the estimate is scored on
    truth: np.ndarray  # exact log r at those points
    files: dict = field(default_factory=dict)
    model: boost.EnsembleModel | None = None


@dataclass
class Output:
    estimate: np.ndarray
    trees: int  # trees grown, updated or routed through in the job
    model: boost.EnsembleModel | None = None
    draws: gibbs.PosteriorDraws | None = None
    sweeps: int = 0
    csv_bytes: int = 0  # CSV read and written by the job


@dataclass
class Checked:
    problems: list
    mse: float
    digests: dict


def _scenario_data(name, n0, n1, seed):
    scenario = simulate.make_scenario(name, seed=seed)
    sample = simulate.generate(scenario, n0, n1, seed=seed)
    return scenario, sample


def _sample_inputs(scenario_name, seed, size) -> Inputs:
    """A training sample scored at its own points, as in the paper's tables."""
    scenario, sample = _scenario_data(scenario_name, size["n0"], size["n1"], seed)
    return Inputs(seed, size, sample, simulate.true_log_ratio(scenario, sample.pooled()))


def _common_checks(name, size_name, inp: Inputs, est: np.ndarray) -> tuple:
    problems = []
    rows = inp.data.n
    if est.shape != (rows,):
        problems.append(f"estimate has shape {est.shape}, expected ({rows},)")
        return problems, float("nan")
    if not np.all(np.isfinite(est)):
        problems.append("estimate has non-finite values")
        return problems, float("nan")
    mse = simulate.symmetrized_mse(inp.truth, est, inp.data.n0, inp.data.n1)
    ceiling = MSE_SEED0[(name, size_name)] * MSE_MARGIN.get(name, 2.0)
    if not mse <= ceiling:
        problems.append(f"mse {mse:.4f} above its ceiling {ceiling:.4f}")
    return problems, mse


def _model_digest(model, workdir) -> str:
    path = os.path.join(workdir, "model.json")
    model.save(path)
    return file_digest(path)


class _BoostFit:
    scenario = ""
    algorithm = ""
    select = False

    def setup(self, seed, size, workdir):
        return _sample_inputs(self.scenario, seed, size)

    def job(self, inp):
        grid = data.build_cut_grid(inp.data, CUTS)
        config = boost.BoostConfig(algorithm=self.algorithm, max_trees=inp.size["trees"],
                                   cv_folds=FOLDS, seed=inp.seed)
        model = boost.fit(inp.data, grid, config, select=self.select)
        estimate = boost.predict_log_ratio(model, inp.data.pooled())
        grown = len(model.trees) + (FOLDS * config.max_trees if self.select else 0)
        return Output(estimate, grown, model=model)

    def check(self, size_name, inp, out, workdir):
        problems, mse = _common_checks(self.name, size_name, inp, out.estimate)
        digests = {"model_json": _model_digest(out.model, workdir),
                   "log_ratio": digest_array(out.estimate)}
        return Checked(problems, mse, digests)


class GbCv2D(_BoostFit):
    """gb with 5-fold CV tree-count selection: the only workload that runs CV."""

    name = "gb_cv_2d"
    scenario = "GlobalShift2D"
    algorithm = "gb"
    select = True


class Fs20D(_BoostFit):
    """fs over 20 dimensions at the paper's 9:1 group ratio, without CV."""

    name = "fs_20d"
    scenario = "LatentLocation20D"
    algorithm = "fs"
    select = False


class Bayes2D:
    """The posterior sampler: the only workload that runs gibbs."""

    name = "bayes_2d"

    def setup(self, seed, size, workdir):
        return _sample_inputs("GlobalShift2D", seed, size)

    def job(self, inp):
        size = inp.size
        grid = data.build_cut_grid(inp.data, CUTS)
        config = gibbs.GibbsConfig(n_trees=size["trees"], burn_in=size["burn_in"],
                                   draws=size["draws"], seed=inp.seed)
        draws = gibbs.run_sampler(inp.data, grid, config)
        means, _ = gibbs.summarize(draws)
        sweeps = size["burn_in"] + size["draws"]
        return Output(means, sweeps * size["trees"], draws=draws, sweeps=sweeps)

    def check(self, size_name, inp, out, workdir):
        problems, mse = _common_checks(self.name, size_name, inp, out.estimate)
        expected = out.sweeps * inp.size["trees"]
        attempted = int(out.draws.move_attempts.sum())
        if attempted != expected:
            problems.append(f"{attempted} move attempts, expected sweeps x K = {expected}")
        return Checked(problems, mse, {"posterior_mean": digest_array(out.estimate)})


class PredictBatch:
    """``batts predict`` run in-process: tree routing and CSV I/O only; the
    model is fit in set-up."""

    name = "predict_batch"

    def setup(self, seed, size, workdir):
        scenario, sample = _scenario_data("GlobalShift2D", size["n0"], size["n1"], seed)
        grid = data.build_cut_grid(sample, CUTS)
        config = boost.BoostConfig(algorithm="gb", max_trees=size["trees"], seed=seed)
        model = boost.fit(sample, grid, config, select=False)
        half = size["points"] // 2
        points = simulate.generate(scenario, half, half, seed=seed + 1)
        files = {name: os.path.join(workdir, name)
                 for name in ("model.json", "points.csv", "out.csv")}
        model.save(files["model.json"])
        data.save_matrix(files["points.csv"], points.pooled())
        truth = simulate.true_log_ratio(scenario, points.pooled())
        return Inputs(seed, size, points, truth, files=files, model=model)

    def job(self, inp):
        f = inp.files
        code = cli.dispatch(["predict", "--model", f["model.json"],
                             "--points", f["points.csv"], "--out", f["out.csv"]])
        if code != 0:
            raise RuntimeError(f"batts predict exited with {code}")
        return Output(np.empty(0), len(inp.model.trees))

    def check(self, size_name, inp, out, workdir):
        f = inp.files
        out.csv_bytes = os.path.getsize(f["points.csv"]) + os.path.getsize(f["out.csv"])
        with open(f["out.csv"]) as fh:
            out.estimate = np.array([float(line) for line in fh])
        problems, mse = _common_checks(self.name, size_name, inp, out.estimate)
        if not problems:
            rows = np.random.default_rng(inp.seed).choice(
                out.estimate.size, size=min(PREDICT_CHECK_ROWS, out.estimate.size),
                replace=False)
            loaded = boost.EnsembleModel.load(f["model.json"])
            points = inp.data.pooled()[rows]
            expected = boost.predict_log_ratio(loaded, points)
            if not np.array_equal(expected, out.estimate[rows]):
                problems.append("output CSV differs from predict_log_ratio of the loaded model")
        digests = {"model_json": file_digest(f["model.json"]),
                   "log_ratio": digest_array(out.estimate),
                   "out_csv": file_digest(f["out.csv"])}
        return Checked(problems, mse, digests)


WORKLOADS = {w.name: w for w in (GbCv2D(), Fs20D(), Bayes2D(), PredictBatch())}
