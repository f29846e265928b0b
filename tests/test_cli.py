"""End-to-end CLI checks driven through dispatch()."""

import numpy as np
import pytest

from batts.cli import dispatch, run_bench
from batts.data import load_matrix


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
                         ["fs", "gb"], replicates=3, seed=0, threads=1)
        assert len(rows) == 4
        assert all(r[3] == 1.0 and r[4] == 0.0 for r in rows)

    def test_unknown_size_or_method(self, tmp_path, capsys):
        out = tmp_path / "b.csv"
        assert dispatch(["bench", "--sizes", "big", "--methods", "fs",
                         "--out", str(out)]) == 1
        assert "unknown size" in capsys.readouterr().err
        assert dispatch(["bench", "--sizes", "balanced", "--methods", "xx",
                         "--out", str(out)]) == 1
        assert "unknown method" in capsys.readouterr().err

    @pytest.mark.parametrize("replicates", ["0", "-1"])
    def test_replicates_below_one_rejected(self, tmp_path, capsys, replicates):
        out = tmp_path / "b.csv"
        code = dispatch(["bench", "--scenario", "GlobalShift2D", "--sizes", "balanced",
                         "--methods", "fs", "--replicates", replicates,
                         "--threads", "1", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == "error: --replicates must be >= 1\n"
        assert not out.exists()


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
