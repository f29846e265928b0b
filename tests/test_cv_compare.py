"""tests/cv_compare.py, the comparison of CV-selected boosting fits between
two checkouts: this checkout against itself, and the comparison of two
outputs."""

import os

import numpy as np

import cv_compare

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def test_a_checkout_against_itself_differs_nowhere(capsys):
    code = cv_compare.main([SRC, SRC, "--scenarios", "GlobalShift2D", "--sizes", "60/50",
                            "--seeds", "0", "1", "--trees", "20", "--cuts", "7",
                            "--tol-curve", "0"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    assert len(lines) == 2
    for seed, line in enumerate(lines):
        assert line.startswith(f"GlobalShift2D 60/50 seed {seed}: k ")
        k_a, k_b = line.split(": k ")[1].split(",")[0].split(" / ")
        assert k_a == k_b
        assert ", model same, max |d curve| 0, mse " in line
        assert line.endswith(": ok")


def test_compare_reports_each_difference():
    a = {"curve": np.array([2.0, 1.5, 1.25]), "k": np.array(2), "digest": np.array("ab")}
    b = dict(a, curve=np.array([2.0, 1.5, 1.5, 1.0]), k=np.array(3), digest=np.array("ac"))
    assert cv_compare.compare(a, a) == (True, True, 0.0)
    assert cv_compare.compare(a, b) == (False, False, 0.25)
