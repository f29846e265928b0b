"""The binding sites that the benchmark's tracer wraps (bench/tracing.py).

The tracer replaces batts functions at the names their callers look them up
by, so renaming or re-importing one of them breaks the benchmark. These
checks load bench/tracing.py without writing anything under bench/.
"""

import importlib.util
import os
import sys

import numpy as np
import pytest

import batts
import batts.cli  # noqa: F401  (a traced site)
from batts import (BoostConfig, GibbsConfig, TreePrior, build_cut_grid, fit, generate,
                   make_scenario, run_sampler)
from batts.data import CutGrid
from oracles import node_depths, sample_tree_from_prior

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location(
        "bench_tracing", os.path.join(BENCH, "tracing.py"))
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def test_every_site_resolves(tracing):
    for _, _, owner, attr in tracing.SITES:
        obj = batts
        for part in owner.split("."):
            obj = getattr(obj, part)
        assert attr in vars(obj), f"{owner}.{attr}"


def test_one_boost_log_weight_check_per_grown_tree(tracing):
    """boost.tree_ms times the gaps between the boost-side check_log_weights
    calls, so a fit with selection makes one per tree of every fold and of
    the refit."""
    data = generate(make_scenario("GlobalShift2D"), 150, 150, seed=1)
    grid = build_cut_grid(data, 15)
    config = BoostConfig(max_trees=8, cv_folds=3, seed=1)
    tracer = tracing.Tracer(batts)
    model = tracer.run(lambda: fit(data, grid, config, select=True))
    checks = tracer.starts("loss.check_log_weights", "boost")
    assert checks.size == config.cv_folds * config.max_trees + len(model.trees)


def _split_hit_ratio_of_arrays(trees, max_depth):
    """split_hit_ratio counted on the preorder arrays: internal nodes, and
    leaves shallower than max_depth."""
    internal = shallow = 0
    for tree in trees:
        leaf = tree.feature < 0
        internal += int(np.count_nonzero(~leaf))
        shallow += int(np.count_nonzero(node_depths(tree)[leaf] < max_depth))
    return internal / (internal + shallow)


def test_split_hit_ratio_of_a_fitted_model(tracing):
    """The bench walks the linked Nodes of tree.root to count the splits of
    a fit, so a model's ratio must come out in (0, 1], and equal the count
    taken on the preorder arrays."""
    data = generate(make_scenario("GlobalShift2D"), 150, 150, seed=1)
    model = fit(data, build_cut_grid(data, 15), BoostConfig(max_trees=5, seed=1),
                select=False)
    ratio = tracing.split_hit_ratio(model.trees)
    assert 0.0 < ratio <= 1.0
    assert ratio == _split_hit_ratio_of_arrays(model.trees, tracing.MAX_DEPTH)


def test_split_hit_ratio_of_deep_trees(tracing):
    """Trees from the split prior reach past the bench's depth cap, so both
    leaves above and below it are counted."""
    grid = CutGrid((np.linspace(0.1, 0.9, 9), np.linspace(0.1, 0.9, 9)))
    gen = np.random.default_rng(3)
    trees = [sample_tree_from_prior(TreePrior(0.95, 0.5), grid, gen, max_depth=8)
             for _ in range(200)]
    assert max(node_depths(t).max() for t in trees) > tracing.MAX_DEPTH
    for chunk in range(0, len(trees), 20):
        some = trees[chunk:chunk + 20]
        assert tracing.split_hit_ratio(some) == _split_hit_ratio_of_arrays(
            some, tracing.MAX_DEPTH)


def test_sampler_sites_are_reached(tracing):
    """The gibbs layer metrics count the calls that reach the wrapped names:
    one mh_tree_move per tree and sweep, and leaf log-likelihoods through
    the module-level integrated_leaf_loglik."""
    data = generate(make_scenario("GlobalShift2D"), 150, 150, seed=1)
    config = GibbsConfig(n_trees=10, burn_in=5, draws=5, seed=1)
    tracer = tracing.Tracer(batts)
    tracer.run(lambda: run_sampler(data, build_cut_grid(data, 15), config))
    calls = {label: total[0] for label, total in tracer.totals().items()}
    assert calls["gibbs.mh_tree_move"] == (config.burn_in + config.draws) * config.n_trees
    assert calls["gibbs.integrated_leaf_loglik"] > 0
