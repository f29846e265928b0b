"""Span tracing of batts' public functions, installed from outside the package,
and the per-layer metrics computed from the spans.

Each traced function is replaced, at the name its caller looks it up by, with
a wrapper that records one span: the binding site, start, end and the index
of the enclosing span. Spans live in flat arrays and are summarised after the
traced job. A span's self time is its duration minus the durations of its
direct children, so the self times of a job's spans sum to its root span.

Private helpers (split search, rebalancing, the leaf-beta bincounts, the
sampler's drift check) are not wrapped; their time is the self time of the
public function that calls them, ``boost.fit`` or ``gibbs.run_sampler``.
"""

from __future__ import annotations

import functools
import statistics
from array import array
from time import perf_counter

import numpy as np

# (layer label, module that binds the name, owner of the attribute, attribute).
# A function imported into another module is wrapped at that module's name,
# since that is the binding its caller resolves at call time.
SITES = (
    ("data.build_cut_grid", "data", "data", "build_cut_grid"),
    ("data.bin_indices", "data", "data.CutGrid", "bin_indices"),
    ("data.load_matrix", "cli", "cli", "load_matrix"),
    ("data.save_matrix", "cli", "cli", "save_matrix"),
    ("loss.check_log_weights", "loss", "loss", "check_log_weights"),
    ("loss.check_log_weights", "boost", "boost", "check_log_weights"),
    ("loss.check_log_weights", "gibbs", "gibbs", "check_log_weights"),
    ("loss.optimal_leaf_value", "boost", "boost", "optimal_leaf_value"),
    ("loss.finite_sample_loss", "gibbs", "gibbs", "finite_sample_loss"),
    ("tree.evaluate_many", "tree", "tree.DecisionTree", "evaluate_many"),
    ("boost.fit", "boost", "boost", "fit"),
    ("boost.cv_loss_curve", "boost", "boost", "cv_loss_curve"),
    ("boost.load", "boost", "boost.EnsembleModel", "load"),
    ("boost.predict_log_ratio", "boost", "boost", "predict_log_ratio"),
    ("gibbs.run_sampler", "gibbs", "gibbs", "run_sampler"),
    ("gibbs.mh_tree_move", "gibbs", "gibbs", "mh_tree_move"),
    ("gibbs.integrated_leaf_loglik", "gibbs", "gibbs", "integrated_leaf_loglik"),
    ("gibbs.sample_inverse_gaussian", "gibbs", "gibbs", "sample_inverse_gaussian"),
    ("gibbs.update_tau", "gibbs", "gibbs", "update_tau"),
    ("gibbs.summarize", "gibbs", "gibbs", "summarize"),
    ("cli.dispatch", "cli", "cli", "dispatch"),
)
ROOT = ("bench.job", "bench")
LABELS = sorted({label for label, *_ in SITES})
MODULES = ("data", "loss", "tree", "boost", "gibbs", "cli")
MAX_DEPTH = 4  # BoostConfig default, used by every boosting workload
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


def _resolve(package, path: str):
    obj = package
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


class Tracer:
    """Records spans around batts' public functions while a job runs."""

    def __init__(self, package):
        self.package = package
        self.sites = [ROOT] + [(label, site) for label, site, *_ in SITES]
        self.site = array("q")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.rows = 0  # rows passed to tree.evaluate_many
        self._current = -1

    def _wrap(self, fn, site_id: int, count_rows: bool = False):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(tracer.site)
            tracer.site.append(site_id)
            tracer.parent.append(tracer._current)
            tracer.end.append(0.0)
            if count_rows:
                tracer.rows += len(args[1])
            parent, tracer._current = tracer._current, idx
            tracer.start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end[idx] = perf_counter()
                tracer._current = parent

        return traced

    def run(self, job):
        """Run ``job()`` inside the root span with every site wrapped."""
        undo = []
        try:
            for site_id, (label, _, owner_path, attr) in enumerate(SITES, start=1):
                owner = _resolve(self.package, owner_path)
                raw = owner.__dict__[attr]
                undo.append((owner, attr, raw))
                if isinstance(raw, classmethod):
                    setattr(owner, attr, classmethod(self._wrap(raw.__func__, site_id)))
                else:
                    setattr(owner, attr,
                            self._wrap(raw, site_id, label == "tree.evaluate_many"))
            return self._wrap(job, 0)()
        finally:
            for owner, attr, raw in reversed(undo):
                setattr(owner, attr, raw)

    def spans(self):
        """(site id, start, duration, self time) arrays, one entry per span."""
        site = np.frombuffer(self.site, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        start = np.frombuffer(self.start)
        dur = np.frombuffer(self.end) - start
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=site.size)
        return site, start, dur, dur - child

    def totals(self) -> dict:
        """label -> (calls, inclusive seconds, self seconds)."""
        site, _, dur, self_s = self.spans()
        out = {}
        for label in [ROOT[0]] + LABELS:
            ids = [i for i, (lab, _) in enumerate(self.sites) if lab == label]
            mine = np.isin(site, ids)
            out[label] = (int(mine.sum()), float(dur[mine].sum()), float(self_s[mine].sum()))
        return out

    def starts(self, label: str, site: str | None = None) -> np.ndarray:
        """Start times of the spans of a label (at one binding site, if given)."""
        ids = [i for i, s in enumerate(self.sites)
               if s[0] == label and (site is None or s[1] == site)]
        s, start, _, _ = self.spans()
        return start[np.isin(s, ids)]


def gaps_ms(marks: np.ndarray, resets: np.ndarray) -> np.ndarray:
    """Milliseconds between consecutive marks, leaving out each gap that ends
    at or after a reset (the start of a new fit or sampler run) it began
    before."""
    if marks.size < 2:
        return np.empty(0)
    segment = np.searchsorted(np.sort(resets), marks, side="right")
    keep = segment[1:] == segment[:-1]
    return np.diff(marks)[keep] * 1e3


def split_hit_ratio(trees) -> float:
    """Internal nodes / (internal nodes + leaves shallower than MAX_DEPTH).

    A leaf above the depth cap is a node where split search found no valid
    split (every candidate left a child with one group or too few rows).
    """
    internal = shallow = 0
    stack = [t.root for t in trees]
    while stack:
        node = stack.pop()
        if node.is_leaf:
            shallow += node.depth < MAX_DEPTH
        else:
            internal += 1
            stack += (node.left, node.right)
    return internal / (internal + shallow) if internal + shallow else 0.0


def coverage_problems(tracer: Tracer, wall: float) -> list:
    """The layers' self times, plus the benchmark's own time inside the job,
    must add up to the traced wall time, and none may be negative."""
    _, _, _, self_s = tracer.spans()
    problems = []
    if self_s.min() < -1e-9:
        problems.append("a span has negative self time")
    if abs(self_s.sum() - wall) > 0.01 * wall + 1e-3:
        problems.append(f"layer self times sum to {self_s.sum():.4f} s, "
                        f"traced wall is {wall:.4f} s")
    return problems


# Per-layer metrics, name -> unit. Every name is emitted on every workload; a
# layer that a workload does not run reads 0.
UNITS = {}
for _label in LABELS:
    UNITS.update({f"{_label}.calls": "count", f"{_label}.s": "s", f"{_label}.self_s": "s"})
UNITS.update({f"layer.{m}.self_s": "s" for m in MODULES})
GAPS = ("boost.tree_ms", "gibbs.sweep_ms")
for _gap in GAPS:
    UNITS.update({f"{_gap}.p50": "ms", f"{_gap}.tail": "ms", f"{_gap}.tail_pct": "%",
                  f"{_gap}.n": "count"})
UNITS.update({
    "boost.refit_s": "s",
    "boost.split_hit_ratio": "ratio",
    "tree.evaluate_many.rows": "count",
    "data.csv_bytes": "bytes",
    "gibbs.accept.grow": "ratio",
    "gibbs.accept.prune": "ratio",
    "gibbs.accept.change": "ratio",
    "gibbs.mean_leaves": "count",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.bench_self_s": "s",
})


def tail_percentile(n: int) -> float:
    """The highest of PERCENTILES with at least ten of n samples beyond it
    (50 when there are too few samples for any)."""
    return next((p for p in PERCENTILES if n * (100.0 - p) / 100.0 >= 10), 50.0)


def job_metrics(attempt, inputs):
    """Per-layer values of one traced job, and its per-tree and per-sweep gaps."""
    tracer, out = attempt.tracer, attempt.output
    tot = tracer.totals()
    m = {}
    for label in LABELS:
        m[f"{label}.calls"], m[f"{label}.s"], m[f"{label}.self_s"] = tot[label]
    for mod in MODULES:
        m[f"layer.{mod}.self_s"] = sum(tot[k][2] for k in LABELS if k.startswith(mod + "."))
    m["boost.refit_s"] = tot["boost.fit"][1] - tot["boost.cv_loss_curve"][1]
    m["tree.evaluate_many.rows"] = tracer.rows
    m["trace.wall_s"] = attempt.wall
    m["trace.bench_self_s"] = tot[ROOT[0]][2]

    model = out.model if out.model is not None else inputs.model
    m["boost.split_hit_ratio"] = split_hit_ratio(model.trees) if model else 0.0
    draws = out.draws
    for k, move in enumerate(("grow", "prune", "change")):
        tried = draws.move_attempts[:, k].sum() if draws is not None else 0
        m[f"gibbs.accept.{move}"] = float(draws.move_accepts[:, k].sum() / tried) if tried else 0.0
    m["gibbs.mean_leaves"] = float(draws.mean_leaves.mean()) if draws is not None else 0.0
    m["data.csv_bytes"] = out.csv_bytes

    # One boost-side check_log_weights call per tree; bin_indices starts a fit.
    trees = gaps_ms(tracer.starts("loss.check_log_weights", "boost"),
                    tracer.starts("data.bin_indices"))
    # One update_tau per sweep; the first sweep is timed from run_sampler's start.
    sampler = tracer.starts("gibbs.run_sampler")
    sweeps = gaps_ms(np.sort(np.concatenate([sampler, tracer.starts("gibbs.update_tau")])),
                     sampler[1:])
    return m, {"boost.tree_ms": trees, "gibbs.sweep_ms": sweeps}


def per_layer_metrics(traced, untraced_walls, inputs) -> dict:
    """Each per-layer value as the median over the run's traced jobs; the
    per-tree and per-sweep gaps pooled over them."""
    jobs = [job_metrics(a, inputs) for a in traced if a.output is not None]
    values = {name: statistics.median(m[name] for m, _ in jobs)
              for name in (jobs[0][0] if jobs else ())}
    for name in GAPS:
        gaps = np.concatenate([g[name] for _, g in jobs]) if jobs else np.empty(0)
        pct = tail_percentile(gaps.size)
        values[f"{name}.p50"] = float(np.median(gaps)) if gaps.size else 0.0
        values[f"{name}.tail"] = float(np.percentile(gaps, pct)) if gaps.size else 0.0
        values[f"{name}.tail_pct"] = pct
        values[f"{name}.n"] = int(gaps.size)
    values["trace.overhead_s"] = (statistics.median(a.wall for a in traced)
                                  - statistics.median(untraced_walls))
    return {name: {"value": values.get(name, 0.0), "unit": unit}
            for name, unit in UNITS.items()}


def largest_self(metrics: dict) -> str:
    """The public function with the most self time."""
    return max(LABELS, key=lambda label: metrics[f"{label}.self_s"]["value"])
