"""Command-line entry point: fit, bayes, predict, simulate, evaluate, bench."""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

import numpy as np

from . import boost, gibbs, simulate
from .data import CUTS_PER_DIM, build_cut_grid, load_dataset, load_matrix, save_matrix, utf8_fault

SIZES = {"balanced": (5000, 5000), "unbalanced": (9000, 1000)}
METHODS = ("fs", "gb", "bayes")


def _add_common_data_flags(p):
    p.add_argument("--sample0", required=True, help="CSV of group-0 draws (numerator)")
    p.add_argument("--sample1", required=True, help="CSV of group-1 draws (denominator)")
    p.add_argument("--cuts-per-dim", type=int, default=CUTS_PER_DIM,
                   help="equally spaced cut points per dimension, as in the paper")


def _add_boost_flags(p):
    p.add_argument("--max-trees", type=int, default=boost.BoostConfig.max_trees,
                   help="tree-count ceiling, as in the paper")
    p.add_argument("--depth", type=int, default=boost.BoostConfig.max_depth,
                   help="maximum tree depth, as in the paper")
    p.add_argument("--nu", type=float, default=boost.BoostConfig.learning_rate,
                   help="learning rate, as in the paper")
    p.add_argument("--cv-folds", type=int, default=boost.BoostConfig.cv_folds,
                   help="cross-validation folds for tree-count selection, as in the paper")


class _Command(argparse.ArgumentParser):
    """A subcommand's parser. It keeps each flag's action and its kind (the
    action argument, such as "store_true") by destination; the destinations
    are the keys that a --config file may set."""

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        self.flags = {**getattr(self, "flags", {}),
                      action.dest: (kwargs.get("action", "store"), action)}
        return action


class _Repeated(argparse.Action):
    """action="append", except that the first use on the command line
    replaces the default, so that flags override a --config list instead of
    extending it."""

    def __call__(self, parser, namespace, values, option_string=None):
        items = getattr(namespace, self.dest)
        setattr(namespace, self.dest, ([] if items is self.default else items) + [values])


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
    p.add_argument("--algo", choices=("fs", "gb"), default=boost.BoostConfig.algorithm,
                   help="forward-stagewise or gradient boosting")
    _add_boost_flags(p)
    p.add_argument("--no-cv", action="store_true",
                   help="skip CV and fit exactly --max-trees trees")
    p.add_argument("--min-leaf-total", type=int, default=boost.BoostConfig.min_leaf_total,
                   help="minimum pooled observations per child")
    p.add_argument("--seed", type=int, default=boost.BoostConfig.seed, help="seed of the CV folds")
    p.add_argument("--out", required=True, help="output model JSON path")

    p = command("predict", "evaluate a fitted model")
    p.add_argument("--model", required=True, help="model JSON from 'fit'")
    p.add_argument("--points", required=True, help="CSV of evaluation points")
    p.add_argument("--out", required=True, help="output CSV, one log-ratio per row")

    p = command("bayes", "run the generalized-Bayesian sampler")
    _add_common_data_flags(p)
    p.add_argument("--trees", type=int, default=gibbs.GibbsConfig.n_trees,
                   help="ensemble size K, as in the paper")
    p.add_argument("--lambda0", type=float, default=gibbs.GibbsConfig.lambda0,
                   help="leaf prior precision per tree, as in the paper")
    p.add_argument("--burnin", type=int, default=gibbs.GibbsConfig.burn_in,
                   help="burn-in sweeps, as in the paper")
    p.add_argument("--draws", type=int, default=gibbs.GibbsConfig.draws,
                   help="recorded sweeps, as in the paper")
    p.add_argument("--eval-points", default=None,
                   help="CSV of evaluation points (default: the training points)")
    p.add_argument("--quantiles", default=",".join(map(str, gibbs.QUANTILES)),
                   help="comma-separated posterior quantiles")
    p.add_argument("--seed", type=int, default=gibbs.GibbsConfig.seed, help="seed of the sampler")
    p.add_argument("--trace", default=None, help="optional CSV of per-draw tau")
    p.add_argument("--out", required=True, help="output posterior summary CSV")

    p = command("simulate", "generate a benchmark scenario")
    p.add_argument("--scenario", required=True, choices=simulate.SCENARIO_NAMES)
    p.add_argument("--n0", type=int, required=True)
    p.add_argument("--n1", type=int, required=True)
    p.add_argument("--seed", type=int, default=0, help="seed of the scenario and the draws")
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
    p.add_argument("--scenario", action=_Repeated, choices=simulate.SCENARIO_NAMES,
                   help="repeatable; default: all scenarios")
    p.add_argument("--sizes", default="balanced,unbalanced",
                   help="comma-separated subset of balanced (5000/5000), "
                        "unbalanced (9000/1000)")
    p.add_argument("--methods", default="fs,gb,bayes",
                   help="comma-separated subset of fs, gb, bayes")
    p.add_argument("--replicates", type=int, default=5,
                   help="replicates per cell (paper: 50)")
    p.add_argument("--seed", type=int, default=0, help="replicate r uses seed + r")
    _add_boost_flags(p)
    p.add_argument("--bayes-trees", type=int, default=gibbs.GibbsConfig.n_trees)
    p.add_argument("--bayes-burnin", type=int, default=gibbs.GibbsConfig.burn_in)
    p.add_argument("--bayes-draws", type=int, default=gibbs.GibbsConfig.draws)
    p.add_argument("--threads", type=int, default=None,
                   help="worker cap; falls back to BATTS_THREADS, then all cores")
    p.add_argument("--out", required=True, help="results CSV path")

    for p in commands.values():
        p.add_argument("--config", nargs="?", const="",
                       help="JSON file of flag defaults; flags override")
    return parser, commands


def _apply_config_file(command, name, path):
    """Make the keys of the --config JSON object the defaults of the command
    parser's flags, so that flags on the command line override them."""
    if not path:
        raise ValueError("--config needs a JSON file path")
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except UnicodeDecodeError as e:
        raise ValueError(f"config file {path}: {utf8_fault(e)}") from None
    except json.JSONDecodeError as e:
        raise ValueError(f"config file {path}: not JSON ({e})") from None
    if not isinstance(cfg, dict):
        raise ValueError(f"config file {path} must hold a JSON object")
    known = {k: v for k, v in command.flags.items() if k not in ("help", "config")}
    unknown = sorted(set(cfg) - set(known))
    if unknown:
        raise ValueError(f"unknown key {unknown[0]!r} in config file {path} "
                         f"for '{name}'")
    for key, value in cfg.items():
        want = _config_fault(*known[key], value)
        if want:
            raise ValueError(f"config file {path}: {key!r} must be {want}, "
                             f"got {json.dumps(value)}")
    command.set_defaults(**cfg)


def _config_fault(kind, action, value):
    """What a --config value for a flag must be, if value is not that, or
    None. argparse checks no default, apart from converting a string with
    the flag's type, so a value must have its flag's kind, and a string for
    a number must convert. A fractional number passes: the library refuses
    it with the setting's name."""
    if kind == "store_true":
        return None if type(value) is bool else "true or false"
    if kind is _Repeated:
        if type(value) is list and all(v in action.choices for v in value):
            return None
        return f"a list of names from {', '.join(action.choices)}"
    if action.type in (int, float):
        if type(value) is str:
            try:
                action.type(value)
            except ValueError:
                return "an integer" if action.type is int else "a number"
            return None
        return None if type(value) in (int, float) else "a number"
    return None if type(value) is str else "a string"


def _check_out_dirs(args, *dests) -> None:
    """Fail before any work when the directory of an output path is
    missing, since it would otherwise fail only when the result is written."""
    for dest in dests:
        path = getattr(args, dest)
        parent = os.path.dirname(path) if path is not None else ""
        if parent and not os.path.isdir(parent):
            raise ValueError(f"--{dest} {path}: {parent} is not a directory")


def _cmd_fit(args) -> int:
    _check_out_dirs(args, "out")
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
    _check_out_dirs(args, "out")
    model = boost.EnsembleModel.load(args.model)
    pts = _load_points("--points", args.points, model.dim, "the model")
    save_matrix(args.out, boost.predict_log_ratio(model, pts).reshape(-1, 1))
    return 0


def _load_points(flag, path, dim, owner) -> np.ndarray:
    """The CSV matrix at path, refused unless it has dim columns."""
    points = load_matrix(path)
    if points.shape[1] != dim:
        raise ValueError(f"{flag} {path} has {points.shape[1]} columns, but {owner} has {dim}")
    return points


def _parse_quantiles(text: str) -> list:
    try:
        quantiles = [float(q) for q in text.split(",") if q]
    except ValueError:
        raise ValueError(f"--quantiles must be comma-separated numbers, got {text!r}") from None
    gibbs.check_quantiles(quantiles)
    return quantiles


def _cmd_bayes(args) -> int:
    # checked before sampling, which takes minutes at the paper defaults
    _check_out_dirs(args, "out", "trace")
    quantiles = _parse_quantiles(args.quantiles)
    config = gibbs.GibbsConfig(
        n_trees=args.trees, lambda0=args.lambda0, burn_in=args.burnin,
        draws=args.draws, seed=args.seed,
    )
    data = load_dataset(args.sample0, args.sample1)
    eval_pts = (_load_points("--eval-points", args.eval_points, data.dim, "the data")
                if args.eval_points else None)
    grid = build_cut_grid(data, args.cuts_per_dim)
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
    _check_out_dirs(args, "out0", "out1", "truth")
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
    scenario_name, size_name, n0, n1, methods, seed, boost_config, bayes_config = job
    scenario = simulate.make_scenario(scenario_name, seed=seed)
    data = simulate.generate(scenario, n0, n1, seed=seed)
    grid = build_cut_grid(data, CUTS_PER_DIM)
    truth = simulate.true_log_ratio(scenario, data.pooled())
    out = {}
    for method in methods:
        if method in ("fs", "gb"):
            config = replace(boost_config, algorithm=method, seed=seed)
            model = boost.fit(data, grid, config, select=True)
            est = boost.predict_log_ratio(model, data.pooled())
        else:
            draws = gibbs.run_sampler(data, grid, replace(bayes_config, seed=seed))
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


def run_bench(scenarios, sizes, methods, replicates, seed, boost_config, bayes_config,
              threads=None):
    """Returns rows of (scenario, size, method, mean_mse, se_mse, replicates,
    seed); replicate r runs the configs with their seed set to seed + r."""
    cells = [(sc, sz) for sc in scenarios for sz in sizes]
    jobs = []
    for sc, sz in cells:
        n0, n1 = SIZES[sz]
        for r in range(replicates):
            jobs.append((sc, sz, n0, n1, tuple(methods), seed + r,
                         boost_config, bayes_config))
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
    _check_out_dirs(args, "out")
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
    if args.threads is not None and args.threads < 1:
        raise ValueError("--threads must be >= 1")
    # built, and so checked, before any job runs
    boost_config = boost.BoostConfig(max_trees=args.max_trees, max_depth=args.depth,
                                     learning_rate=args.nu, cv_folds=args.cv_folds,
                                     seed=args.seed)
    bayes_config = None if "bayes" not in methods else gibbs.GibbsConfig(
        n_trees=args.bayes_trees, burn_in=args.bayes_burnin, draws=args.bayes_draws, seed=args.seed)
    rows = run_bench(scenarios, sizes, methods, args.replicates, args.seed,
                     boost_config, bayes_config, threads=args.threads)
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
        args = parser.parse_args(argv)
        if getattr(args, "config", None) is not None:
            _apply_config_file(commands[args.command], args.command, args.config)
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
