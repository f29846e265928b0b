"""End-to-end CLI checks driven through dispatch()."""

import dataclasses
import inspect
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from batts import TwoSampleDataset, boost, build_cut_grid, cli, gibbs, simulate
from batts.cli import dispatch, run_bench
from batts.data import load_matrix, save_matrix

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _simulate(tmp_path, n0=300, n1=300, seed=3):
    s0 = tmp_path / "s0.csv"
    s1 = tmp_path / "s1.csv"
    truth = tmp_path / "truth.csv"
    code = dispatch([
        "simulate", "--scenario", "GlobalShift2D", "--n0", str(n0),
        "--n1", str(n1), "--seed", str(seed),
        "--out0", str(s0), "--out1", str(s1), "--truth", str(truth),
    ])
    assert code == 0
    return s0, s1, truth


class TestFitPredictEvaluate:
    def test_round_trip(self, tmp_path, capsys):
        s0, s1, truth = _simulate(tmp_path)
        model = tmp_path / "model.json"
        code = dispatch([
            "fit", "--sample0", str(s0), "--sample1", str(s1),
            "--algo", "fs", "--max-trees", "40", "--no-cv",
            "--cuts-per-dim", "15", "--out", str(model),
        ])
        assert code == 0
        assert "40 trees" in capsys.readouterr().out

        pts = tmp_path / "pts.csv"
        pooled = np.vstack([load_matrix(s0), load_matrix(s1)])
        np.savetxt(pts, pooled, delimiter=",")
        est = tmp_path / "est.csv"
        assert dispatch(["predict", "--model", str(model), "--points", str(pts),
                         "--out", str(est)]) == 0
        est_vals = load_matrix(est)
        assert est_vals.shape == (600, 1)

        assert dispatch(["evaluate", "--truth", str(truth), "--est", str(est),
                         "--n0", "300", "--n1", "300"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("symmetrized MSE:")
        mse = float(out.split(":")[1])
        # 40 shrunk trees only partially fit the shift, but beat the zero model
        truth_vals = load_matrix(truth).ravel()
        zero_mse = 0.5 * np.mean(truth_vals[:300] ** 2) + 0.5 * np.mean(
            truth_vals[300:] ** 2
        )
        assert 0 < mse < zero_mse

    @pytest.mark.parametrize("n0, n1", [("0", "3"), ("-1", "4")])
    def test_evaluate_rejects_group_sizes_below_one(self, tmp_path, capsys, n0, n1):
        truth, est = tmp_path / "truth.csv", tmp_path / "est.csv"
        np.savetxt(truth, np.zeros((3, 1)), delimiter=",")
        np.savetxt(est, np.ones((3, 1)), delimiter=",")
        code = dispatch(["evaluate", "--truth", str(truth), "--est", str(est),
                         "--n0", n0, "--n1", n1])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: n0 and n1 must be >= 1, got {n0} and {n1}\n"

    def test_cv_fit_selects_fewer_trees(self, tmp_path, capsys):
        s0, s1, _ = _simulate(tmp_path, n0=200, n1=200)
        model = tmp_path / "model.json"
        code = dispatch([
            "fit", "--sample0", str(s0), "--sample1", str(s1),
            "--max-trees", "30", "--cv-folds", "3",
            "--cuts-per-dim", "7", "--out", str(model),
        ])
        assert code == 0
        n = int(capsys.readouterr().out.split("with ")[1].split(" trees")[0])
        assert 1 <= n <= 30

    def test_fit_says_where_cv_stopped(self, tmp_path, capsys):
        """Two samples of one distribution: the CV minimum comes early, and
        the run stops PATIENCE trees after it, well before --max-trees."""
        gen = np.random.default_rng(5)
        s0, s1 = tmp_path / "s0.csv", tmp_path / "s1.csv"
        for path in (s0, s1):
            save_matrix(path, gen.standard_normal((200, 2)))
        model = tmp_path / "model.json"
        argv = ["fit", "--sample0", str(s0), "--sample1", str(s1), "--max-trees", "300",
                "--cv-folds", "3", "--cuts-per-dim", "7", "--out", str(model)]
        assert dispatch(argv) == 0
        line = capsys.readouterr().out
        match = re.fullmatch(rf"fit gb with (\d+) trees \(CV stopped at (\d+) of 300\) "
                             rf"-> {re.escape(str(model))}\n", line)
        assert match, line
        k, stop = map(int, match.groups())
        assert stop == k + boost.PATIENCE < 300
        assert dispatch([*argv, "--no-cv"]) == 0
        assert capsys.readouterr().out == f"fit gb with 300 trees -> {model}\n"


class TestDeterminism:
    """README: identical configuration and seed give byte-identical outputs."""

    def test_fit_with_cv_and_bayes_repeat_byte_for_byte(self, tmp_path):
        s0, s1, _ = _simulate(tmp_path, n0=200, n1=200)
        data = ["--sample0", str(s0), "--sample1", str(s1)]
        runs = {"fit": ["fit", *data, "--max-trees", "20", "--cv-folds", "3"],
                "bayes": ["bayes", *data, "--trees", "10", "--burnin", "10", "--draws", "10"]}
        for name, argv in runs.items():
            outs = [tmp_path / f"{name}{i}.out" for i in range(2)]
            for out in outs:
                assert dispatch([*argv, "--out", str(out)]) == 0
            assert outs[0].read_bytes() == outs[1].read_bytes()


class TestBayesCommand:
    def test_summary_and_trace(self, tmp_path):
        s0, s1, _ = _simulate(tmp_path, n0=80, n1=80)
        out = tmp_path / "post.csv"
        trace = tmp_path / "tau.csv"
        pts = tmp_path / "pts.csv"
        np.savetxt(pts, np.zeros((3, 2)), delimiter=",")
        code = dispatch([
            "bayes", "--sample0", str(s0), "--sample1", str(s1),
            "--trees", "10", "--burnin", "20", "--draws", "30",
            "--cuts-per-dim", "7", "--eval-points", str(pts),
            "--quantiles", "0.1,0.9", "--trace", str(trace), "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "# seed=0"
        assert lines[1] == "index,mean,q0.1,q0.9"
        assert len(lines) == 2 + 3
        row = lines[2].split(",")
        assert float(row[2]) <= float(row[1]) <= float(row[3])
        assert load_matrix(trace).shape == (30, 1)

    @pytest.mark.parametrize("extra, message", [
        (["--quantiles", "1.5"], "error: quantiles must lie strictly inside (0, 1)\n"),
        (["--quantiles", "0.1,nan"], "error: quantiles must lie strictly inside (0, 1)\n"),
        (["--quantiles", "abc"],
         "error: --quantiles must be comma-separated numbers, got 'abc'\n"),
        (["--draws", "0"], "error: draws must be >= 1\n"),
        (["--lambda0", "nan"], "error: lambda0 must be positive and finite\n"),
        (["--lambda0", "inf"], "error: lambda0 must be positive and finite\n"),
        (["--trees", "3"], "error: n_trees must be even (prior alternation needs pairs)\n"),
        (["--burnin", "-1"], "error: burn_in must be >= 0\n"),
    ])
    def test_bad_request_rejected_before_sampling(self, tmp_path, capsys, monkeypatch,
                                                  extra, message):
        """Refused before the samples load, so before any sampling."""
        s0, s1, _ = _simulate(tmp_path, n0=80, n1=80)

        def never(*args, **kwargs):
            raise AssertionError("the samples were loaded")

        monkeypatch.setattr(cli, "load_dataset", never)
        out = tmp_path / "post.csv"
        code = dispatch(["bayes", "--sample0", str(s0), "--sample1", str(s1),
                         *extra, "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == message
        assert not out.exists()


    def test_fractional_burn_in_in_config_rejected_before_sampling(self, tmp_path, capsys,
                                                                  monkeypatch):
        s0, s1, _ = _simulate(tmp_path, n0=80, n1=80)

        def never(*args, **kwargs):
            raise AssertionError("run_sampler was entered")

        monkeypatch.setattr(gibbs, "run_sampler", never)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"burnin": 2.5}))
        out = tmp_path / "post.csv"
        code = dispatch(["bayes", "--config", str(cfg), "--sample0", str(s0),
                         "--sample1", str(s1), "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == "error: burn_in must be an integer\n"
        assert not out.exists()

    def test_integer_too_large_for_a_float_in_config_is_one_line_error(self, tmp_path, capsys):
        """JSON reads a 400-digit lambda0 as an int, which passes the range
        test against math.inf but overflows float()."""
        s0, s1, _ = _simulate(tmp_path, n0=80, n1=80)
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"lambda0": 1' + "0" * 400 + "}")
        out = tmp_path / "post.csv"
        code = dispatch(["bayes", "--config", str(cfg), "--sample0", str(s0),
                         "--sample1", str(s1), "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == "error: lambda0 must be positive and finite\n"
        assert not out.exists()


class TestMissingOutputDirectory:
    """An output path in a missing directory fails with a one-line error that
    names the flag and the path, before any input is read or work starts."""

    @staticmethod
    def _never(what):
        def never(*args, **kwargs):
            raise AssertionError(f"{what} was entered")
        return never

    @pytest.mark.parametrize("command, flag", [
        ("fit", "--out"), ("bayes", "--out"), ("bayes", "--trace"), ("bench", "--out"),
        ("predict", "--out"), ("simulate", "--out0"), ("simulate", "--out1"),
        ("simulate", "--truth")])
    def test_rejected_before_work(self, tmp_path, capsys, monkeypatch, command, flag):
        for owner, name in [(cli, "load_dataset"), (cli, "load_matrix"), (boost, "fit"),
                            (gibbs, "run_sampler"), (cli, "run_bench"),
                            (boost.EnsembleModel, "load"), (simulate, "generate")]:
            monkeypatch.setattr(owner, name, self._never(name))
        inputs = {"fit": ["--sample0", "s0.csv", "--sample1", "s1.csv"],
                  "bayes": ["--sample0", "s0.csv", "--sample1", "s1.csv"],
                  "bench": [], "predict": ["--model", "m.json", "--points", "p.csv"],
                  "simulate": ["--scenario", "GlobalShift2D", "--n0", "5", "--n1", "5"]}
        outputs = {"fit": ["--out"], "bayes": ["--out", "--trace"], "bench": ["--out"],
                   "predict": ["--out"], "simulate": ["--out0", "--out1", "--truth"]}
        paths = {f: tmp_path / f"{f[2:]}.csv" for f in outputs[command]}
        bad = paths[flag] = tmp_path / "nodir" / "result.csv"
        argv = [command, *inputs[command]] + [x for f, p in paths.items() for x in (f, str(p))]
        assert dispatch(argv) == 1
        assert capsys.readouterr().err == (
            f"error: {flag} {bad}: {bad.parent} is not a directory\n")
        assert not any(p.exists() for p in paths.values())

    def test_path_under_a_file_rejected(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "load_dataset", self._never("load_dataset"))
        (tmp_path / "plain").write_text("")
        bad = tmp_path / "plain" / "model.json"
        assert dispatch(["fit", "--sample0", "s0.csv", "--sample1", "s1.csv",
                         "--out", str(bad)]) == 1
        assert capsys.readouterr().err == f"error: --out {bad}: {bad.parent} is not a directory\n"

    def test_bare_file_name_writes_to_the_working_directory(self, tmp_path, monkeypatch):
        s0, s1, _ = _simulate(tmp_path, n0=60, n1=60)
        monkeypatch.chdir(tmp_path)
        assert dispatch(["fit", "--sample0", str(s0), "--sample1", str(s1),
                         "--max-trees", "2", "--no-cv", "--out", "model.json"]) == 0
        assert (tmp_path / "model.json").exists()


class TestBench:
    def test_tiny_bench_csv(self, tmp_path):
        out = tmp_path / "bench.csv"
        code = dispatch([
            "bench", "--scenario", "GlobalShift2D", "--sizes", "balanced",
            "--methods", "fs", "--replicates", "2", "--seed", "9",
            "--max-trees", "5", "--cv-folds", "2", "--threads", "1",
            "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "# base_seed=9"
        assert lines[1] == "# replicate_seeds=9,10"
        assert lines[2] == "scenario,size,method,mean_mse,se_mse,replicates,seed"
        assert len(lines) == 4  # one scenario x one size x one method
        sc, sz, m, mean, se, rep, sd = lines[3].split(",")
        assert (sc, sz, m, rep, sd) == ("GlobalShift2D", "balanced", "fs", "2", "9")
        assert float(mean) > 0 and float(se) >= 0

    def test_run_bench_row_count(self, monkeypatch):
        # two scenarios x one size x two methods -> four rows
        import batts.cli as cli

        def fake_job(job):
            return {m: 1.0 for m in job[4]}

        monkeypatch.setattr(cli, "_bench_job", fake_job)
        rows = run_bench(["GlobalShift2D", "LocalShift2D"], ["balanced"],
                         ["fs", "gb"], replicates=3, seed=0, boost_config=boost.BoostConfig(),
                         bayes_config=None, threads=1)
        assert len(rows) == 4
        assert all(r[3] == 1.0 and r[4] == 0.0 for r in rows)

    def test_bayes_job_mse_is_that_of_the_per_point_mean(self):
        """The bench job's posterior mean comes from summarize, per cell; its
        MSE is bit-equal to that of the mean of the draws x rows matrix."""
        bayes_kw = dict(n_trees=10, burn_in=20, draws=15)
        job = ("GlobalShift2D", "balanced", 120, 100, ["bayes"], 4, boost.BoostConfig(),
               gibbs.GibbsConfig(**bayes_kw))
        got = cli._bench_job(job)["bayes"]
        scenario = simulate.make_scenario("GlobalShift2D", seed=4)
        data = simulate.generate(scenario, 120, 100, seed=4)
        draws = gibbs.run_sampler(data, build_cut_grid(data, 31),
                                  gibbs.GibbsConfig(seed=4, **bayes_kw))
        assert draws.cell_draws.shape[1] < data.n
        truth = simulate.true_log_ratio(scenario, data.pooled())
        est = draws.log_ratio_draws.mean(axis=0)
        assert got == simulate.symmetrized_mse(truth, est, 120, 100)

    def test_unknown_size_or_method(self, tmp_path, capsys):
        out = tmp_path / "b.csv"
        assert dispatch(["bench", "--sizes", "big", "--methods", "fs",
                         "--out", str(out)]) == 1
        assert "unknown size" in capsys.readouterr().err
        assert dispatch(["bench", "--sizes", "balanced", "--methods", "xx",
                         "--out", str(out)]) == 1
        assert "unknown method" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [("--methods", ""), ("--sizes", ","),
                                             ("--sizes", "")])
    def test_empty_sizes_or_methods_rejected_before_jobs(self, tmp_path, capsys, monkeypatch,
                                                        flag, value):
        started = []
        monkeypatch.setattr(cli, "_bench_job", started.append)
        out = tmp_path / "b.csv"
        args = {"--sizes": "balanced", "--methods": "fs", flag: value}
        code = dispatch(["bench", "--scenario", "GlobalShift2D", "--replicates", "2",
                         "--threads", "1", "--out", str(out),
                         *[x for item in args.items() for x in item]])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: --sizes and --methods must each name at least one entry\n")
        assert started == []
        assert not out.exists()

    @pytest.mark.parametrize("replicates", ["0", "-1"])
    def test_replicates_below_one_rejected(self, tmp_path, capsys, replicates):
        out = tmp_path / "b.csv"
        code = dispatch(["bench", "--scenario", "GlobalShift2D", "--sizes", "balanced",
                         "--methods", "fs", "--replicates", replicates,
                         "--threads", "1", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == "error: --replicates must be >= 1\n"
        assert not out.exists()

    def test_fractional_depth_rejected_before_jobs(self, tmp_path, capsys, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("run_bench was entered")

        monkeypatch.setattr(cli, "run_bench", never)
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"depth": 2.5}')
        out = tmp_path / "b.csv"
        code = dispatch(["bench", "--scenario", "GlobalShift2D", "--sizes", "balanced",
                         "--methods", "fs", "--config", str(cfg), "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == "error: max_depth must be an integer\n"
        assert not out.exists()

    def test_bayes_draws_below_one_rejected(self, tmp_path, capsys, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("run_bench was entered")

        monkeypatch.setattr(cli, "run_bench", never)
        out = tmp_path / "b.csv"
        code = dispatch(["bench", "--scenario", "GlobalShift2D", "--sizes", "balanced",
                         "--methods", "bayes", "--bayes-draws", "0",
                         "--threads", "1", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == "error: draws must be >= 1\n"
        assert not out.exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--bayes-trees", "3", "n_trees must be even"),
        ("--bayes-burnin", "-1", "burn_in must be >= 0"),
    ])
    def test_bad_sampler_settings_rejected_before_jobs(self, tmp_path, capsys, monkeypatch,
                                                       flag, value, message):
        started = []
        monkeypatch.setattr(cli, "_bench_job", started.append)
        out = tmp_path / "b.csv"
        code = dispatch(["bench", "--scenario", "GlobalShift2D", "--sizes", "balanced",
                         "--methods", "gb,bayes", flag, value, "--threads", "1",
                         "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and err.count("\n") == 1
        assert started == []
        assert not out.exists()

    @pytest.mark.parametrize("threads", ["0", "-2"])
    def test_threads_below_one_rejected(self, tmp_path, capsys, monkeypatch, threads):
        def never(*args, **kwargs):
            raise AssertionError("run_bench was entered")

        monkeypatch.setattr(cli, "run_bench", never)
        out = tmp_path / "b.csv"
        code = dispatch(["bench", "--scenario", "GlobalShift2D", "--sizes", "balanced",
                         "--methods", "fs", "--threads", threads, "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == "error: --threads must be >= 1\n"
        assert not out.exists()

    @pytest.mark.parametrize("value", ["abc", "0", "-1", "2.5", ""])
    def test_bad_batts_threads_rejected(self, tmp_path, capsys, monkeypatch, value):
        def never(job):
            raise AssertionError("a bench job ran")

        monkeypatch.setattr(cli, "_bench_job", never)
        monkeypatch.setenv("BATTS_THREADS", value)
        out = tmp_path / "b.csv"
        code = dispatch(["bench", "--scenario", "GlobalShift2D", "--sizes", "balanced",
                         "--methods", "fs", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: BATTS_THREADS must be a positive integer, got {value!r}\n")
        assert not out.exists()

    def test_batts_threads_sets_the_worker_cap(self, monkeypatch):
        monkeypatch.setattr(cli, "_bench_job", lambda job: {m: 1.0 for m in job[4]})
        monkeypatch.setenv("BATTS_THREADS", "1")
        rows = run_bench(["GlobalShift2D"], ["balanced"], ["fs"], replicates=2, seed=0,
                         boost_config=boost.BoostConfig(), bayes_config=None)
        assert len(rows) == 1


class TestLeanImports:
    def test_cli_and_a_2d_fit_skip_unused_modules(self):
        """The process pool is imported only when bench runs in parallel,
        and a fit does not import numpy.ma: the cell map's np.unique returns
        indices, and only np.unique without them imports numpy.ma."""
        code = (
            "import sys\n"
            "import batts.cli\n"
            "assert 'concurrent.futures' not in sys.modules\n"
            "from batts import BoostConfig, build_cut_grid, fit, generate, make_scenario\n"
            "data = generate(make_scenario('GlobalShift2D', seed=0), 200, 200, seed=0)\n"
            "fit(data, build_cut_grid(data, 31), BoostConfig(max_trees=5, cv_folds=2))\n"
            "assert 'numpy.ma' not in sys.modules\n"
            "assert 'concurrent.futures' not in sys.modules\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [SRC] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

    def test_prediction_skips_numpy_ma(self, tmp_path):
        """Neither predict_log_ratio nor batts predict imports numpy.ma: the
        model's thresholds are made distinct without np.unique's plain form."""
        s0, s1, _ = _simulate(tmp_path, n0=200, n1=200)
        model = tmp_path / "model.json"
        assert dispatch(["fit", "--sample0", str(s0), "--sample1", str(s1),
                         "--max-trees", "5", "--no-cv", "--out", str(model)]) == 0
        paths = (str(model), str(s0), str(tmp_path / "est.csv"))
        code = (
            "import sys\n"
            "from batts import EnsembleModel, predict_log_ratio\n"
            "from batts.cli import dispatch\n"
            "from batts.data import load_matrix\n"
            f"model, points, out = {paths!r}\n"
            "predict_log_ratio(EnsembleModel.load(model), load_matrix(points))\n"
            "assert 'numpy.ma' not in sys.modules\n"
            "assert dispatch(['predict', '--model', model, '--points', points,\n"
            "                 '--out', out]) == 0\n"
            "assert 'numpy.ma' not in sys.modules\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [SRC] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

    def test_a_2d_sampler_run_skips_numpy_ma(self):
        """The sampler's cell map does not import numpy.ma either, and the
        quantiles of summarize do without np.quantile, which does."""
        code = (
            "import sys\n"
            "from batts import GibbsConfig, build_cut_grid, generate, make_scenario\n"
            "from batts import run_sampler, summarize\n"
            "data = generate(make_scenario('GlobalShift2D', seed=0), 200, 200, seed=0)\n"
            "draws = run_sampler(data, build_cut_grid(data, 31),\n"
            "                    GibbsConfig(n_trees=10, burn_in=5, draws=5),\n"
            "                    eval_points=[[0.0, 0.0], [50.0, 50.0]])\n"
            "assert draws.cell_draws.shape == (5, 2)\n"
            "means, qs = summarize(draws, (0.025, 0.5, 0.975))\n"
            "assert qs.shape == (2, 3)\n"
            "assert 'numpy.ma' not in sys.modules\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [SRC] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr


class TestMalformedModel:
    """predict names the model file and its first fault, in one line."""

    @staticmethod
    def _model_doc(tmp_path):
        s0, s1, _ = _simulate(tmp_path, n0=100, n1=100)
        model = tmp_path / "model.json"
        assert dispatch(["fit", "--sample0", str(s0), "--sample1", str(s1),
                         "--max-trees", "3", "--no-cv", "--out", str(model)]) == 0
        return json.loads(model.read_text())

    @staticmethod
    def _split_node(doc):
        node = doc["trees"][1]
        assert "dim" in node
        return node

    @staticmethod
    def _leaf(doc):
        node = doc["trees"][2]
        while "beta" not in node:
            node = node["right"]
        return node

    FAULTS = {
        "missing dim": (lambda d: d.pop("dim"), "missing key 'dim'"),
        "missing nu": (lambda d: d.pop("nu"), "missing key 'nu'"),
        "split without right": (lambda d: TestMalformedModel._split_node(d).pop("right"),
                                "missing key 'right'"),
        "dim past the model's": (
            lambda d: TestMalformedModel._split_node(d).update(dim=5),
            "tree 1 splits on dimension 5, outside [0, 2)"),
        "negative dim": (lambda d: TestMalformedModel._split_node(d).update(dim=-1),
                         "tree 1 splits on dimension -1, outside [0, 2)"),
        "nan beta": (lambda d: TestMalformedModel._leaf(d).update(beta=float("nan")),
                     "non-finite beta nan in tree 2"),
        "inf threshold": (lambda d: TestMalformedModel._split_node(d).update(
            threshold=float("inf")), "non-finite threshold inf in tree 1"),
        "unknown algorithm": (lambda d: d.update(algorithm="xgb"),
                              "unknown algorithm 'xgb'; expected 'fs' or 'gb'"),
        "nan offset": (lambda d: d.update(offset=float("nan")), "non-finite offset nan"),
        "inf nu": (lambda d: d.update(nu=float("-inf")), "non-finite nu -inf"),
        "not an object": (lambda d: None, "must hold a JSON object"),
        "dim not a number": (lambda d: TestMalformedModel._split_node(d).update(dim="x"),
                             "malformed value (split dimension 'x' is not an integer)"),
        "fractional split dim": (lambda d: TestMalformedModel._split_node(d).update(dim=0.7),
                                 "malformed value (split dimension 0.7 is not an integer)"),
        "infinite split dim": (
            lambda d: TestMalformedModel._split_node(d).update(dim=float("inf")),
            "malformed value (split dimension inf is not an integer)"),
        "model dim 0": (lambda d: d.update(dim=0, trees=[{"beta": 0.1}]), "dim 0 is below 1"),
        "model dim -1": (lambda d: d.update(dim=-1, trees=[]), "dim -1 is below 1"),
        "fractional model dim": (lambda d: d.update(dim=2.5),
                                 "malformed value (dim 2.5 is not an integer)"),
        "fractional seed": (lambda d: d.update(seed=2.5),
                            "malformed value (seed 2.5 is not an integer)"),
        "bool split dim": (lambda d: TestMalformedModel._split_node(d).update(dim=True),
                           "malformed value (split dimension True is not an integer)"),
        "child not a node": (lambda d: TestMalformedModel._split_node(d).update(left=3),
                             "malformed value ("),
        "bool nu": (lambda d: d.update(nu=True), "malformed value (nu True is not a number)"),
        "bool offset": (lambda d: d.update(offset=False),
                        "malformed value (offset False is not a number)"),
        "string threshold": (lambda d: TestMalformedModel._split_node(d).update(threshold="0.5"),
                             "malformed value (threshold '0.5' is not a number)"),
        "string beta": (lambda d: TestMalformedModel._leaf(d).update(beta="0.1"),
                        "malformed value (beta '0.1' is not a number)"),
        "huge integer beta": (lambda d: TestMalformedModel._leaf(d).update(beta=10**400),
                              "malformed value (beta is an integer too large for a float)"),
        "child a number": (lambda d: TestMalformedModel._split_node(d).update(left=0.5),
                           "malformed value (tree node 0.5 is not an object)"),
        "child without node keys": (
            lambda d: TestMalformedModel._split_node(d).update(left={"depth": 1}),
            "missing key 'right'"),
    }

    @pytest.mark.parametrize("fault", sorted(FAULTS))
    def test_fault_named(self, tmp_path, capsys, fault):
        doc = self._model_doc(tmp_path)
        edit, message = self.FAULTS[fault]
        edit(doc)
        model = tmp_path / "bad.json"
        model.write_text(json.dumps([doc] if fault == "not an object" else doc))
        pts = tmp_path / "pts.csv"
        pts.write_text("0.0,0.0\n1.0,-1.0\n")
        out = tmp_path / "est.csv"
        capsys.readouterr()
        code = dispatch(["predict", "--model", str(model), "--points", str(pts),
                         "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: model file {model}")
        assert message in err and err.count("\n") == 1
        assert not out.exists()


class TestUnreadableFiles:
    """A model file that is not JSON or not UTF-8, or a points file that is
    not UTF-8, is a one-line error that starts with the file."""

    @pytest.fixture
    def files(self, tmp_path):
        s0, s1, _ = _simulate(tmp_path, n0=100, n1=100)
        model = tmp_path / "model.json"
        assert dispatch(["fit", "--sample0", str(s0), "--sample1", str(s1),
                         "--max-trees", "3", "--no-cv", "--out", str(model)]) == 0
        pts = tmp_path / "pts.csv"
        pts.write_text("0.0,0.0\n1.0,-1.0\n")
        return model, pts

    @staticmethod
    def _predict(model, pts, capsys):
        out = model.parent / "est.csv"
        capsys.readouterr()
        code = dispatch(["predict", "--model", str(model), "--points", str(pts),
                         "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1 and err.count("\n") == 1 and not out.exists()
        return err

    def test_truncated_model(self, files, capsys):
        model, pts = files
        model.write_text(model.read_text()[:21])
        err = self._predict(model, pts, capsys)
        assert err.startswith(f"error: model file {model}: not JSON (")

    def test_model_not_utf8(self, files, capsys):
        model, pts = files
        model.write_bytes(b"\xff" + model.read_bytes())
        err = self._predict(model, pts, capsys)
        assert err == f"error: model file {model}: not UTF-8 text (byte 0xff: invalid start byte)\n"

    def test_points_not_utf8(self, files, capsys):
        model, pts = files
        pts.write_bytes(b"0.0,0.0\n\xfe1.0,-1.0\n")
        err = self._predict(model, pts, capsys)
        assert err == f"error: {pts}: not UTF-8 text (byte 0xfe: invalid start byte)\n"


class TestConfigAndErrors:
    def test_config_file_sets_defaults(self, tmp_path, capsys):
        s0, s1, _ = _simulate(tmp_path, n0=150, n1=150)
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"max_trees": 7, "no_cv": true, "cuts_per_dim": 7}')
        model = tmp_path / "model.json"
        code = dispatch([
            "fit", "--sample0", str(s0), "--sample1", str(s1),
            "--config", str(cfg), "--out", str(model),
        ])
        assert code == 0
        assert "7 trees" in capsys.readouterr().out

    def test_flags_override_config(self, tmp_path, capsys):
        s0, s1, _ = _simulate(tmp_path, n0=150, n1=150)
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"max_trees": 7, "no_cv": true, "cuts_per_dim": 7}')
        model = tmp_path / "model.json"
        code = dispatch([
            "fit", "--sample0", str(s0), "--sample1", str(s1),
            "--config", str(cfg), "--max-trees", "4", "--out", str(model),
        ])
        assert code == 0
        assert "4 trees" in capsys.readouterr().out

    @pytest.mark.parametrize("cfg, err", [
        ('{"depth": 2.5}', "error: max_depth must be an integer\n"),
        ('{"max_trees": 10.0}', "error: max_trees must be an integer\n"),
        ('{"cv_folds": 2.5}', "error: cv_folds must be an integer\n"),
        ('{"min_leaf_total": 5.5}', "error: min_leaf_total must be an integer\n"),
        ('{"cuts_per_dim": 2.5}', "error: count_per_dim must be an integer\n"),
        ('{"seed": 2.5}', "error: seed must be an integer\n"),
    ])
    def test_fractional_setting_is_one_line_error_before_fitting(self, tmp_path, capsys,
                                                                  monkeypatch, cfg, err):
        s0, s1, _ = _simulate(tmp_path, n0=150, n1=150)
        path = tmp_path / "cfg.json"
        path.write_text(cfg)
        model = tmp_path / "model.json"

        def no_fit(*args, **kwargs):
            raise AssertionError("fit was called")

        monkeypatch.setattr(cli.boost, "fit", no_fit)
        code = dispatch(["fit", "--sample0", str(s0), "--sample1", str(s1),
                         "--config", str(path), "--out", str(model)])
        assert code == 1
        assert capsys.readouterr().err == err
        assert not model.exists()

    def test_config_equals_form_matches_separate_form(self, tmp_path, capsys):
        s0, s1, _ = _simulate(tmp_path, n0=150, n1=150)
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"max_trees": 3, "no_cv": true}')
        models = []
        for form in (["--config", str(cfg)], [f"--config={cfg}"]):
            model = tmp_path / f"model{len(models)}.json"
            code = dispatch(["fit", "--sample0", str(s0), "--sample1", str(s1),
                             *form, "--out", str(model)])
            assert code == 0
            assert "3 trees" in capsys.readouterr().out
            models.append(model.read_text())
        assert models[0] == models[1]

    def test_unknown_config_key_rejected_in_equals_form(self, tmp_path, capsys):
        s0, s1, _ = _simulate(tmp_path, n0=150, n1=150)
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"max_trees": 7, "nuu": 1}')
        model = tmp_path / "model.json"
        code = dispatch(["fit", "--sample0", str(s0), "--sample1", str(s1),
                         f"--config={cfg}", "--out", str(model)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unknown key 'nuu'") and err.count("\n") == 1
        assert not model.exists()

    def test_config_without_path_is_one_line_error(self, tmp_path, capsys):
        s0, s1, _ = _simulate(tmp_path, n0=150, n1=150)
        code = dispatch(["fit", "--sample0", str(s0), "--sample1", str(s1),
                         "--out", str(tmp_path / "m.json"), "--config"])
        assert code == 2
        err = capsys.readouterr().err
        assert err == "error: --config needs a JSON file path\n"

    @staticmethod
    def _fit_config(tmp_path, monkeypatch, *argv):
        """The BoostConfig that batts fit builds from argv; the fit is not run."""
        s0, s1, _ = _simulate(tmp_path, n0=60, n1=60)
        seen = []

        def record(data, grid, config, select):
            seen.append(config)
            raise RuntimeError("stop before fitting")

        monkeypatch.setattr(cli.boost, "fit", record)
        assert dispatch(["fit", "--sample0", str(s0), "--sample1", str(s1), *argv,
                         "--out", str(tmp_path / "m.json")]) == 1
        return seen[0]

    def test_abbreviated_config_flag_applies_the_file(self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"max_trees": 3, "no_cv": true}')
        assert self._fit_config(tmp_path, monkeypatch, "--conf", str(cfg)).max_trees == 3
        cfg.write_text('{"max_trees": 3, "nuu": 1}')
        capsys.readouterr()
        assert dispatch(["fit", "--sample0", "s0.csv", "--sample1", "s1.csv",
                         "--conf", str(cfg), "--out", str(tmp_path / "m.json")]) == 2
        assert capsys.readouterr().err == (
            f"error: unknown key 'nuu' in config file {cfg} for 'fit'\n")

    def test_last_config_flag_wins(self, tmp_path, monkeypatch):
        first, last = tmp_path / "first.json", tmp_path / "last.json"
        first.write_text('{"max_trees": 3}')
        last.write_text('{"max_trees": 4}')
        config = self._fit_config(tmp_path, monkeypatch, "--config", str(first),
                                  f"--config={last}")
        assert config.max_trees == 4

    @pytest.mark.parametrize("command, cfg, want", [
        ("fit", '{"no_cv": "false"}', "'no_cv' must be true or false, got \"false\""),
        ("fit", '{"no_cv": 0}', "'no_cv' must be true or false, got 0"),
        ("fit", '{"max_trees": true}', "'max_trees' must be a number, got true"),
        ("fit", '{"nu": [1]}', "'nu' must be a number, got [1]"),
        ("fit", '{"seed": null}', "'seed' must be a number, got null"),
        ("fit", '{"nu": "abc"}', "'nu' must be a number, got \"abc\""),
        ("fit", '{"max_trees": "2.5"}', "'max_trees' must be an integer, got \"2.5\""),
        ("bayes", '{"lambda0": ""}', "'lambda0' must be a number, got \"\""),
        ("fit", '{"depth": {"a": 1}}', "'depth' must be a number, got {\"a\": 1}"),
        ("fit", '{"algo": false}', "'algo' must be a string, got false"),
        ("bench", '{"sizes": 5}', "'sizes' must be a string, got 5"),
        ("bayes", '{"eval_points": null}', "'eval_points' must be a string, got null"),
        ("bench", '{"scenario": "GlobalShift2D"}',
         "'scenario' must be a list of names from " + ", ".join(simulate.SCENARIO_NAMES)
         + ", got \"GlobalShift2D\""),
        ("bench", '{"scenario": ["GlobalShift2D", "G"]}',
         "'scenario' must be a list of names from " + ", ".join(simulate.SCENARIO_NAMES)
         + ", got [\"GlobalShift2D\", \"G\"]"),
    ])
    def test_value_of_the_wrong_kind_is_one_line_error(self, tmp_path, capsys, monkeypatch,
                                                         command, cfg, want):
        """argparse checks no default, so a config value that is not of its
        flag's kind would reach the command: "false" would skip CV, true
        would fit one tree, a string would be read as a list of scenarios.
        A string that does not convert with its flag's type would fail in
        argparse, with its usage block and the flag's name."""
        def never(*args, **kwargs):
            raise AssertionError("the command ran")

        monkeypatch.setattr(cli.boost, "fit", never)
        monkeypatch.setattr(cli.gibbs, "run_sampler", never)
        monkeypatch.setattr(cli, "run_bench", never)
        s0, s1, _ = _simulate(tmp_path, n0=60, n1=60)
        path = tmp_path / "cfg.json"
        path.write_text(cfg)
        out = tmp_path / "out"
        data = [] if command == "bench" else ["--sample0", str(s0), "--sample1", str(s1)]
        code = dispatch([command, *data, "--config", str(path), "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"error: config file {path}: {want}\n"
        assert not out.exists()

    def test_config_values_of_their_flags_kind_pass(self, tmp_path, monkeypatch):
        """A list of scenario names, false for a store_true flag, and a
        number given as a string, which argparse converts with the flag's
        type."""
        seen = {}

        def record(scenarios, sizes, methods, replicates, seed, boost_config, bayes_config,
                   threads=None):
            seen.update(scenarios=scenarios, boost_config=boost_config)
            return [("GlobalShift2D", "balanced", "fs", 0.0, 0.0, 1, 0)]

        monkeypatch.setattr(cli, "run_bench", record)
        path = tmp_path / "cfg.json"
        path.write_text('{"scenario": ["LocalShift2D", "GlobalShift2D"], "max_trees": "7", '
                        '"nu": "0.05"}')
        assert dispatch(["bench", "--methods", "fs", "--config", str(path),
                         "--out", str(tmp_path / "b.csv")]) == 0
        assert seen["scenarios"] == ["LocalShift2D", "GlobalShift2D"]
        assert seen["boost_config"].max_trees == 7
        assert seen["boost_config"].learning_rate == 0.05

    @pytest.mark.parametrize("flags, want", [
        ([], ["LocalShift2D"]),
        (["--scenario", "GlobalShift2D"], ["GlobalShift2D"]),
        (["--scenario", "GlobalShift2D", "--scenario", "LocalShift2D"],
         ["GlobalShift2D", "LocalShift2D"]),
    ])
    def test_scenario_flags_override_the_config_list(self, tmp_path, monkeypatch, flags, want):
        """--scenario flags replace a config file's scenario list; argparse's
        append action would extend it."""
        seen = []
        monkeypatch.setattr(cli, "run_bench", lambda scenarios, *args, **kwargs: (
            seen.append(scenarios) or [("GlobalShift2D", "balanced", "fs", 0.0, 0.0, 1, 0)]))
        path = tmp_path / "cfg.json"
        path.write_text('{"scenario": ["LocalShift2D"]}')
        assert dispatch(["bench", "--methods", "fs", "--config", str(path), *flags,
                         "--out", str(tmp_path / "b.csv")]) == 0
        assert seen == [want]

    @pytest.mark.parametrize("content, want", [
        (b"", "not JSON (Expecting value: line 1 column 1 (char 0))"),
        (b'{"max_trees": 3', "not JSON (Expecting ',' delimiter: line 1 column 16 (char 15))"),
        (b'{"max_trees": 3, "algo": "\xff"}', "not UTF-8 text (byte 0xff: invalid start byte)"),
    ])
    def test_unreadable_config_file_names_it(self, tmp_path, capsys, content, want):
        s0, s1, _ = _simulate(tmp_path, n0=60, n1=60)
        path = tmp_path / "cfg.json"
        path.write_bytes(content)
        model = tmp_path / "model.json"
        code = dispatch(["fit", "--sample0", str(s0), "--sample1", str(s1),
                         "--config", str(path), "--out", str(model)])
        assert code == 2
        assert capsys.readouterr().err == f"error: config file {path}: {want}\n"
        assert not model.exists()

    @pytest.mark.parametrize("content", ["[1, 2]", "3", "null"])
    def test_config_that_is_not_an_object_names_it(self, tmp_path, capsys, content):
        path = tmp_path / "cfg.json"
        path.write_text(content)
        model = tmp_path / "model.json"
        code = dispatch(["fit", "--sample0", "s0.csv", "--sample1", "s1.csv",
                         "--config", str(path), "--out", str(model)])
        assert code == 2
        assert capsys.readouterr().err == f"error: config file {path} must hold a JSON object\n"
        assert not model.exists()

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        s0, s1, _ = _simulate(tmp_path, n0=150, n1=150)
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"max_trees": 7, "nuu": 1}')
        model = tmp_path / "model.json"
        code = dispatch(["fit", "--sample0", str(s0), "--sample1", str(s1),
                         "--config", str(cfg), "--out", str(model)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unknown key 'nuu'") and err.count("\n") == 1
        assert not model.exists()

    @pytest.mark.parametrize("extra", [[], ["--no-cv"]])
    def test_nonpositive_max_trees_is_one_line_error(self, tmp_path, capsys, extra):
        s0, s1, _ = _simulate(tmp_path, n0=150, n1=150)
        model = tmp_path / "model.json"
        code = dispatch(["fit", "--sample0", str(s0), "--sample1", str(s1),
                         "--max-trees", "-2", *extra, "--out", str(model)])
        assert code == 1
        assert capsys.readouterr().err == "error: max_trees must be >= 1\n"
        assert not model.exists()

    def test_unknown_command_exits_2(self, capsys):
        assert dispatch(["frobnicate"]) == 2
        assert "unknown command: frobnicate" in capsys.readouterr().err

    def test_missing_file_exits_1(self, tmp_path, capsys):
        code = dispatch(["predict", "--model", str(tmp_path / "no.json"),
                         "--points", str(tmp_path / "no.csv"),
                         "--out", str(tmp_path / "o.csv")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_no_command_prints_help(self, capsys):
        assert dispatch([]) == 0
        assert "usage: batts" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["fit", "bayes", "simulate", "bench"])
    def test_help_shows_the_seed_default(self, capsys, command):
        """--help exits through argparse's SystemExit, which dispatch turns
        into its return code."""
        assert dispatch([command, "--help"]) == 0
        lines = capsys.readouterr().out.splitlines()
        seed = [line for line in lines if line.strip().startswith("--seed")]
        assert len(seed) == 1 and seed[0].endswith("(default: 0)")


def _write_samples(tmp_path, data):
    s0, s1 = tmp_path / "s0.csv", tmp_path / "s1.csv"
    save_matrix(s0, data.sample0)
    save_matrix(s1, data.sample1)
    return s0, s1


class TestUnusableSamples:
    """Samples that load but cannot be fitted fail with one line, before any
    work that they would make pointless."""

    @staticmethod
    def _fit_shifted(tmp_path, s, extra):
        """batts fit on 2-D samples of 2000 rows from N(0, I) and N(s * 1, I)."""
        gen = np.random.default_rng(0)
        data = TwoSampleDataset(gen.standard_normal((2000, 2)),
                                gen.standard_normal((2000, 2)) + s)
        s0, s1 = _write_samples(tmp_path, data)
        return dispatch(["fit", "--sample0", str(s0), "--sample1", str(s1), "--max-trees", "20",
                         *extra, "--out", str(tmp_path / "model.json")])

    @pytest.mark.parametrize("extra", [[], ["--no-cv"]])
    @pytest.mark.parametrize("s", [7, 8])
    def test_separable_samples_refused_by_fit(self, tmp_path, capsys, s, extra):
        assert self._fit_shifted(tmp_path, s, extra) == 1
        assert capsys.readouterr().err == (
            "error: no cut leaves rows of both groups and min_leaf_total (5) rows on each "
            "side: the samples overlap too little to split\n")
        assert not (tmp_path / "model.json").exists()

    @pytest.mark.parametrize("extra", [[], ["--no-cv"]])
    def test_partly_overlapping_samples_fit(self, tmp_path, capsys, extra):
        assert self._fit_shifted(tmp_path, 6, extra) == 0
        assert capsys.readouterr().err == ""
        assert (tmp_path / "model.json").exists()

    @pytest.mark.parametrize("command", ["fit", "bayes"])
    def test_constant_column_refused_before_work(self, tmp_path, capsys, monkeypatch, command):
        def never(*args, **kwargs):
            raise AssertionError("work started")

        monkeypatch.setattr(boost, "fit", never)
        monkeypatch.setattr(gibbs, "run_sampler", never)
        data = TwoSampleDataset(np.array([[1.0, 5.0], [1.0, 6.0]]), np.array([[1.0, 7.0]]))
        s0, s1 = _write_samples(tmp_path, data)
        out = tmp_path / "out"
        code = dispatch([command, "--sample0", str(s0), "--sample1", str(s1), "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: constant column 0: zero range over the pooled sample\n")
        assert not out.exists()


class TestPointWidth:
    """Points of another width than the model's or the samples' are refused
    with the file, its width and the expected one, before any routing or
    sampling."""

    @staticmethod
    def _never(what):
        def never(*args, **kwargs):
            raise AssertionError(f"{what} was entered")
        return never

    def test_predict_points(self, tmp_path, capsys, monkeypatch):
        s0, s1, _ = _simulate(tmp_path, n0=60, n1=60)
        model = tmp_path / "model.json"
        assert dispatch(["fit", "--sample0", str(s0), "--sample1", str(s1),
                         "--max-trees", "2", "--no-cv", "--out", str(model)]) == 0
        monkeypatch.setattr(boost, "predict_log_ratio", self._never("predict_log_ratio"))
        pts = tmp_path / "pts.csv"
        pts.write_text("0.0,0.0,0.0\n")
        out = tmp_path / "est.csv"
        capsys.readouterr()
        assert dispatch(["predict", "--model", str(model), "--points", str(pts),
                         "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: --points {pts} has 3 columns, but the model has 2\n")
        assert not out.exists()

    def test_bayes_eval_points(self, tmp_path, capsys, monkeypatch):
        s0, s1, _ = _simulate(tmp_path, n0=60, n1=60)
        monkeypatch.setattr(gibbs, "run_sampler", self._never("run_sampler"))
        monkeypatch.setattr(cli, "build_cut_grid", self._never("build_cut_grid"))
        pts = tmp_path / "pts.csv"
        pts.write_text("0.0\n1.0\n")
        out = tmp_path / "post.csv"
        assert dispatch(["bayes", "--sample0", str(s0), "--sample1", str(s1),
                         "--eval-points", str(pts), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: --eval-points {pts} has 1 columns, but the data has 2\n")
        assert not out.exists()


class TestOneSource:
    """Each setting reaches the code one way: a command passes every field of
    its config by name, and its flag defaults are the config's own."""

    def test_fit_and_bayes_configs(self, tmp_path, monkeypatch):
        s0, s1, _ = _simulate(tmp_path, n0=60, n1=60)
        passed, built = {}, []

        def recorder(real):
            class Recorder(real):
                def __init__(self, **kwargs):
                    passed[real] = set(kwargs)
                    super().__init__(**kwargs)
            return Recorder

        def stop(data, grid, config, **kwargs):
            built.append(config)
            raise RuntimeError("stop before the run")

        reals = (boost.BoostConfig, gibbs.GibbsConfig)
        for real, (owner, run) in zip(reals, ((boost, "fit"), (gibbs, "run_sampler"))):
            monkeypatch.setattr(owner, real.__name__, recorder(real))
            monkeypatch.setattr(owner, run, stop)
        for command in ("fit", "bayes"):
            assert dispatch([command, "--sample0", str(s0), "--sample1", str(s1),
                             "--out", str(tmp_path / "out")]) == 1
        assert len(built) == 2
        for real, config in zip(reals, built):
            assert passed[real] == {f.name for f in dataclasses.fields(real)}
            assert dataclasses.asdict(config) == dataclasses.asdict(real())

    def test_bench_configs(self, tmp_path, monkeypatch):
        seen = []
        monkeypatch.setattr(cli, "run_bench", lambda *args, **kwargs: (
            seen.append(args) or [("GlobalShift2D", "balanced", "fs", 0.0, 0.0, 1, 0)]))
        assert dispatch(["bench", "--out", str(tmp_path / "b.csv")]) == 0
        boost_config, bayes_config = seen[0][5:7]
        assert boost_config == boost.BoostConfig()
        assert bayes_config == gibbs.GibbsConfig()

    def test_cut_count_and_quantiles(self):
        _, commands = cli.build_parser()
        cuts = inspect.signature(build_cut_grid).parameters["count_per_dim"].default
        for command in ("fit", "bayes"):
            assert commands[command].get_default("cuts_per_dim") == cuts
        quantiles = inspect.signature(gibbs.summarize).parameters["quantiles"].default
        assert cli._parse_quantiles(commands["bayes"].get_default("quantiles")) == list(quantiles)
