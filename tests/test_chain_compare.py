"""tests/chain_compare.py, the sampler chain comparison between two
checkouts: this checkout against itself, and the comparison of two outputs."""

import os

import numpy as np

import chain_compare

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def test_a_checkout_against_itself_differs_nowhere(capsys):
    code = chain_compare.main([SRC, SRC, "--scenario", "GlobalShift2D", "--n0", "40",
                               "--n1", "30", "--trees", "4", "--burn-in", "3", "--draws", "4",
                               "--cuts", "7", "--eval-points", "5", "--seeds", "0", "1",
                               "--tol-log-r", "0", "--tol-tau", "0"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    assert len(lines) == 2
    for seed, line in enumerate(lines):
        assert line.startswith(f"seed {seed}: attempts ")
        assert line.endswith("max |d log r| 0, max |d tau| 0: ok")


def test_compare_reports_each_difference():
    a = {"data": [[0.0]], "attempts": [[1, 0, 0]], "accepts": [[1, 0, 0]],
         "log_r": [[0.5, 1.0]], "tau": [2.0]}
    b = dict(a, accepts=[[0, 0, 0]], log_r=[[0.5, 1.25]], tau=[1.5])
    a, b = ({k: np.asarray(v) for k, v in x.items()} for x in (a, b))
    assert chain_compare.compare(a, a) == (True, True, 0.0, 0.0)
    assert chain_compare.compare(a, b) == (True, False, 0.25, 0.5)
