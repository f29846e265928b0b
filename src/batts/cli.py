"""Command-line entry point: fit, bayes, predict, simulate, evaluate, bench."""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import boost, gibbs, simulate
from .data import build_cut_grid, load_dataset, load_matrix, save_matrix

SIZES = {"balanced": (5000, 5000), "unbalanced": (9000, 1000)}
METHODS = ("fs", "gb", "bayes")


def _add_common_data_flags(p):
    p.add_argument("--sample0", required=True, help="CSV of group-0 draws (numerator)")
    p.add_argument("--sample1", required=True, help="CSV of group-1 draws (denominator)")
    p.add_argument("--cuts-per-dim", type=int, default=31,
                   help="equally spaced cut points per dimension (paper default: 31)")


def _add_boost_flags(p):
    p.add_argument("--max-trees", type=int, default=1000,
                   help="tree-count ceiling (paper default: 1000)")
    p.add_argument("--depth", type=int, default=4,
                   help="maximum tree depth (paper default: 4)")
    p.add_argument("--nu", type=float, default=0.01,
                   help="learning rate (paper default: 0.01)")
    p.add_argument("--cv-folds", type=int, default=5,
                   help="cross-validation folds for tree-count selection (paper default: 5)")


class _Command(argparse.ArgumentParser):
    """A subcommand's parser. It keeps the destinations of its flags, the
    keys that a --config file may set."""

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        self.dests = getattr(self, "dests", set()) | {action.dest}
        return action


def build_parser():
    """Returns the top-level parser and its subcommand parsers by name."""
    parser = argparse.ArgumentParser(
        prog="batts",
        description="Two-sample density ratio estimation with additive tree "
                    "ensembles under the balancing loss.",
    )
    sub = parser.add_subparsers(dest="command", parser_class=_Command)
    commands = {}

    def command(name, help):
        commands[name] = sub.add_parser(
            name, help=help, formatter_class=argparse.ArgumentDefaultsHelpFormatter)
        return commands[name]

    p = command("fit", "fit a boosting model")
    _add_common_data_flags(p)
    p.add_argument("--algo", choices=("fs", "gb"), default="gb",
                   help="forward-stagewise or gradient boosting")
    _add_boost_flags(p)
    p.add_argument("--no-cv", action="store_true",
                   help="skip CV and fit exactly --max-trees trees")
    p.add_argument("--min-leaf-total", type=int, default=5,
                   help="minimum pooled observations per child")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output model JSON path")

    p = command("predict", "evaluate a fitted model")
    p.add_argument("--model", required=True, help="model JSON from 'fit'")
    p.add_argument("--points", required=True, help="CSV of evaluation points")
    p.add_argument("--out", required=True, help="output CSV, one log-ratio per row")

    p = command("bayes", "run the generalized-Bayesian sampler")
    _add_common_data_flags(p)
    p.add_argument("--trees", type=int, default=200,
                   help="ensemble size K (paper default: 200)")
    p.add_argument("--lambda0", type=float, default=5.0,
                   help="leaf prior precision per tree (paper default: 5)")
    p.add_argument("--burnin", type=int, default=2000,
                   help="burn-in sweeps (paper default: 2000)")
    p.add_argument("--draws", type=int, default=1000,
                   help="recorded sweeps (paper default: 1000)")
    p.add_argument("--eval-points", default=None,
                   help="CSV of evaluation points (default: the training points)")
    p.add_argument("--quantiles", default="0.025,0.975",
                   help="comma-separated posterior quantiles")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace", default=None, help="optional CSV of per-draw tau")
    p.add_argument("--out", required=True, help="output posterior summary CSV")

    p = command("simulate", "generate a benchmark scenario")
    p.add_argument("--scenario", required=True, choices=simulate.SCENARIO_NAMES)
    p.add_argument("--n0", type=int, required=True)
    p.add_argument("--n1", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out0", required=True, help="output CSV for group 0")
    p.add_argument("--out1", required=True, help="output CSV for group 1")
    p.add_argument("--truth", default=None,
                   help="optional CSV of true log-ratios at the generated points")

    p = command("evaluate", "symmetrized MSE of an estimate")
    p.add_argument("--truth", required=True, help="CSV of true log-ratios")
    p.add_argument("--est", required=True, help="CSV of estimated log-ratios")
    p.add_argument("--n0", type=int, required=True)
    p.add_argument("--n1", type=int, required=True)

    p = command("bench", "replicate benchmark mirroring the tables")
    p.add_argument("--scenario", action="append", choices=simulate.SCENARIO_NAMES,
                   help="repeatable; default: all scenarios")
    p.add_argument("--sizes", default="balanced,unbalanced",
                   help="comma-separated subset of balanced (5000/5000), "
                        "unbalanced (9000/1000)")
    p.add_argument("--methods", default="fs,gb,bayes",
                   help="comma-separated subset of fs, gb, bayes")
    p.add_argument("--replicates", type=int, default=5,
                   help="replicates per cell (paper: 50)")
    p.add_argument("--seed", type=int, default=0)
    _add_boost_flags(p)
    p.add_argument("--bayes-trees", type=int, default=200)
    p.add_argument("--bayes-burnin", type=int, default=2000)
    p.add_argument("--bayes-draws", type=int, default=1000)
    p.add_argument("--threads", type=int, default=None,
                   help="worker cap; falls back to BATTS_THREADS, then all cores")
    p.add_argument("--out", required=True, help="results CSV path")

    for p in commands.values():
        p.add_argument("--config", help="JSON file of flag defaults; flags override")
    return parser, commands


def _apply_config_file(commands, argv):
    """Make the keys of the --config JSON object the command's flag defaults,
    so that flags on the command line override them."""
    flags = [a for a in argv if a == "--config" or a.startswith("--config=")]
    if not flags:
        return
    if argv[0] not in commands:
        return  # argparse rejects --config before the command
    if flags[0] == "--config":
        at = argv.index("--config") + 1
        path = argv[at] if at < len(argv) else ""
    else:
        path = flags[0].split("=", 1)[1]
    if not path:
        raise ValueError("--config needs a JSON file path")
    with open(path) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError(f"config file {path} must hold a JSON object")
    command = commands[argv[0]]
    known = command.dests - {"help", "config"}
    unknown = sorted(set(cfg) - known)
    if unknown:
        raise ValueError(f"unknown key {unknown[0]!r} in config file {path} "
                         f"for '{argv[0]}'")
    command.set_defaults(**cfg)


def _cmd_fit(args) -> int:
    config = boost.BoostConfig(
        algorithm=args.algo, max_trees=args.max_trees, max_depth=args.depth,
        learning_rate=args.nu, cv_folds=args.cv_folds,
        min_leaf_total=args.min_leaf_total, seed=args.seed,
    )
    data = load_dataset(args.sample0, args.sample1)
    grid = build_cut_grid(data, args.cuts_per_dim)
    model = boost.fit(data, grid, config, select=not args.no_cv)
    model.save(args.out)
    print(f"fit {args.algo} with {len(model.trees)} trees -> {args.out}")
    return 0


def _cmd_predict(args) -> int:
    model = boost.EnsembleModel.load(args.model)
    pts = load_matrix(args.points)
    save_matrix(args.out, boost.predict_log_ratio(model, pts).reshape(-1, 1))
    return 0


def _parse_quantiles(text: str) -> list:
    try:
        quantiles = [float(q) for q in text.split(",") if q]
    except ValueError:
        raise ValueError(f"--quantiles must be comma-separated numbers, got {text!r}") from None
    gibbs.check_quantiles(quantiles)
    return quantiles


def _cmd_bayes(args) -> int:
    # checked before sampling, which takes minutes at the paper defaults
    quantiles = _parse_quantiles(args.quantiles)
    if args.draws < 1:
        raise ValueError("--draws must be >= 1")
    data = load_dataset(args.sample0, args.sample1)
    grid = build_cut_grid(data, args.cuts_per_dim)
    config = gibbs.GibbsConfig(
        n_trees=args.trees, lambda0=args.lambda0, burn_in=args.burnin,
        draws=args.draws, seed=args.seed,
    )
    eval_pts = load_matrix(args.eval_points) if args.eval_points else None
    draws = gibbs.run_sampler(data, grid, config, eval_points=eval_pts)
    means, qs = gibbs.summarize(draws, quantiles)
    with open(args.out, "w") as fh:
        fh.write(f"# seed={args.seed}\n")
        fh.write("index,mean" + "".join(f",q{q:g}" for q in quantiles) + "\n")
        for i in range(means.size):
            cells = [str(i), repr(float(means[i]))]
            cells += [repr(float(v)) for v in qs[i]]
            fh.write(",".join(cells) + "\n")
    if args.trace:
        save_matrix(args.trace, draws.tau_draws.reshape(-1, 1))
    return 0


def _cmd_simulate(args) -> int:
    scenario = simulate.make_scenario(args.scenario, seed=args.seed)
    data = simulate.generate(scenario, args.n0, args.n1, seed=args.seed)
    save_matrix(args.out0, data.sample0)
    save_matrix(args.out1, data.sample1)
    if args.truth:
        lr = simulate.true_log_ratio(scenario, data.pooled())
        save_matrix(args.truth, lr.reshape(-1, 1))
    return 0


def _cmd_evaluate(args) -> int:
    truth = load_matrix(args.truth).ravel()
    est = load_matrix(args.est).ravel()
    mse = simulate.symmetrized_mse(truth, est, args.n0, args.n1)
    print(f"symmetrized MSE: {mse!r}")
    return 0


def _bench_job(job) -> dict:
    (scenario_name, size_name, n0, n1, methods, seed,
     boost_kw, bayes_kw) = job
    scenario = simulate.make_scenario(scenario_name, seed=seed)
    data = simulate.generate(scenario, n0, n1, seed=seed)
    grid = build_cut_grid(data, 31)
    truth = simulate.true_log_ratio(scenario, data.pooled())
    out = {}
    for method in methods:
        if method in ("fs", "gb"):
            config = boost.BoostConfig(algorithm=method, seed=seed, **boost_kw)
            model = boost.fit(data, grid, config, select=True)
            est = boost.predict_log_ratio(model, data.pooled())
        else:
            config = gibbs.GibbsConfig(seed=seed, **bayes_kw)
            draws = gibbs.run_sampler(data, grid, config)
            est, _ = gibbs.summarize(draws)
        out[method] = simulate.symmetrized_mse(truth, est, n0, n1)
    return out


def _env_threads() -> int:
    """The worker cap from BATTS_THREADS, or the core count if it is unset."""
    text = os.environ.get("BATTS_THREADS")
    if text is None:
        return os.cpu_count() or 1
    try:
        threads = int(text)
    except ValueError:
        threads = 0
    if threads < 1:
        raise ValueError(f"BATTS_THREADS must be a positive integer, got {text!r}")
    return threads


def run_bench(scenarios, sizes, methods, replicates, seed,
              boost_kw=None, bayes_kw=None, threads=None):
    """Returns rows of (scenario, size, method, mean_mse, se_mse, replicates,
    seed); replicate r uses seed + r."""
    boost_kw = boost_kw or {}
    bayes_kw = bayes_kw or {}
    cells = [(sc, sz) for sc in scenarios for sz in sizes]
    jobs = []
    for sc, sz in cells:
        n0, n1 = SIZES[sz]
        for r in range(replicates):
            jobs.append((sc, sz, n0, n1, tuple(methods), seed + r,
                         boost_kw, bayes_kw))
    if threads is None:
        threads = _env_threads()
    if threads > 1 and len(jobs) > 1:
        # imported here: only bench uses it, and it costs every process memory
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(_bench_job, jobs))
    else:
        results = [_bench_job(j) for j in jobs]
    rows = []
    for i, (sc, sz) in enumerate(cells):
        per_rep = results[i * replicates:(i + 1) * replicates]
        for method in methods:
            mses = np.array([d[method] for d in per_rep])
            se = float(mses.std(ddof=1) / np.sqrt(replicates)) if replicates > 1 else 0.0
            rows.append((sc, sz, method, float(mses.mean()), se, replicates, seed))
    return rows


def _cmd_bench(args) -> int:
    scenarios = args.scenario or list(simulate.SCENARIO_NAMES)
    sizes = [s for s in args.sizes.split(",") if s]
    for s in sizes:
        if s not in SIZES:
            raise ValueError(f"unknown size {s!r}; expected balanced/unbalanced")
    methods = [m for m in args.methods.split(",") if m]
    for m in methods:
        if m not in METHODS:
            raise ValueError(f"unknown method {m!r}; expected fs/gb/bayes")
    if not sizes or not methods:
        raise ValueError("--sizes and --methods must each name at least one entry")
    if args.replicates < 1:
        raise ValueError("--replicates must be >= 1")
    if "bayes" in methods and args.bayes_draws < 1:
        raise ValueError("--bayes-draws must be >= 1")
    if args.threads is not None and args.threads < 1:
        raise ValueError("--threads must be >= 1")
    boost_kw = dict(max_trees=args.max_trees, max_depth=args.depth,
                    learning_rate=args.nu, cv_folds=args.cv_folds)
    bayes_kw = dict(n_trees=args.bayes_trees, burn_in=args.bayes_burnin,
                    draws=args.bayes_draws)
    # checked before any job runs
    boost.BoostConfig(seed=args.seed, **boost_kw)
    if "bayes" in methods:
        gibbs.GibbsConfig(seed=args.seed, **bayes_kw)
    rows = run_bench(scenarios, sizes, methods, args.replicates, args.seed,
                     boost_kw, bayes_kw, threads=args.threads)
    rep_seeds = ",".join(str(args.seed + r) for r in range(args.replicates))
    with open(args.out, "w") as fh:
        fh.write(f"# base_seed={args.seed}\n")
        fh.write(f"# replicate_seeds={rep_seeds}\n")
        fh.write("scenario,size,method,mean_mse,se_mse,replicates,seed\n")
        for sc, sz, m, mean, se, rep, sd in rows:
            fh.write(f"{sc},{sz},{m},{mean!r},{se!r},{rep},{sd}\n")
    width = max(len(r[0]) for r in rows)
    print(f"{'scenario':<{width}}  {'size':<10}  {'method':<6}  "
          f"{'mean_mse':>10}  {'se':>8}")
    for sc, sz, m, mean, se, rep, sd in rows:
        print(f"{sc:<{width}}  {sz:<10}  {m:<6}  {mean:>10.4f}  {se:>8.4f}")
    return 0


_COMMANDS = {
    "fit": _cmd_fit,
    "predict": _cmd_predict,
    "bayes": _cmd_bayes,
    "simulate": _cmd_simulate,
    "evaluate": _cmd_evaluate,
    "bench": _cmd_bench,
}


def dispatch(argv) -> int:
    argv = list(argv)
    if argv and not argv[0].startswith("-") and argv[0] not in _COMMANDS:
        print(f"unknown command: {argv[0]}", file=sys.stderr)
        return 2
    parser, commands = build_parser()
    try:
        _apply_config_file(commands, argv)
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    except (OSError, ValueError) as e:  # an unusable --config file
        print(f"error: {e}", file=sys.stderr)
        return 2
    if args.command is None:
        parser.print_help()
        return 0
    try:
        return _COMMANDS[args.command](args)
    except Exception as e:  # one-line diagnostic, nonzero exit
        print(f"error: {e}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))
