"""Span recorder for the traced run.

Spans are recorded from outside the library, around each call the
benchmark makes into a layer's public functions, plus the functions that
``treelasso.reconstruct`` imports (``closure``, ``neighbor_joining``) and
``scipy.optimize.linprog``.  They stay in memory and are written out when
the run ends.  A span's self time is its duration minus the time its child
spans cover.
"""

from __future__ import annotations

import contextlib
import json
import math
import sys
import time
from collections import defaultdict

# Public layer functions -> span names.  Several functions may share a span.
SPAN_OF = {
    "parse_newick": "tree.parse_newick",
    "write_newick": "tree.newick",
    "parse_cord_distances": "cords.parse",
    "format_cord_distances": "cords.format",
    "full_distance": "cords.induced",
    "graph_necessary_checks": "cords.graph_checks",
    "min_order_transversal": "cover.transversal",
    "closest_leaf_transversal": "cover.transversal",
    "triplet_cover": "cover.triplet_cover",
    "is_cover": "cover.is_cover",
    "is_triplet_cover": "cover.is_triplet_cover",
    "closure": "lasso.closure",
    "is_shellable": "lasso.shellable",
    "is_2dtree": "lasso.2dtree",
    "edge_weight_lasso_certificate": "lasso.rank",
    "tree_from_2dtree": "lasso.tree_from_2dtree",
    "topological_lasso_oracle": "lasso.oracle",
    "reconstruct": "reconstruct.reconstruct",
    "neighbor_joining": "reconstruct.nj",
}

SPANS = tuple(dict.fromkeys(SPAN_OF.values()))

# Layers whose per-task self time gets a fitted log-log exponent in n.
SCALING = (
    "cords.induced",
    "cover.transversal",
    "cover.triplet_cover",
    "lasso.closure",
    "lasso.shellable",
    "lasso.rank",
    "lasso.oracle",
    "reconstruct.reconstruct",
    "reconstruct.nj",
)

# Columns of the per-n table: the ROADMAP baseline table, plus the oracle.
BY_N_COLUMNS = {
    "closure": ("lasso.closure",),
    "shellability": ("lasso.shellable",),
    "NJ": ("reconstruct.nj",),
    "full_distance": ("cords.induced",),
    "cover gen": ("cover.transversal", "cover.triplet_cover"),
    "rank cert": ("lasso.rank",),
    "oracle": ("lasso.oracle",),
}


class Recorder:
    """Spans (name, start, end, parent, task) plus the results that counters
    are computed from once the run has ended."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.task = None
        self.results: list[tuple[int, object]] = []  # (span index, result)
        self.lp_calls = 0
        self.lp_s = 0.0

    def wrap(self, name: str, fn, keep_result: bool = False):
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self.stack[-1] if self.stack else None
            span = [name, time.perf_counter(), None, parent, self.task]
            self.spans.append(span)
            self.stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            if keep_result:
                self.results.append((idx, result))
            return result

        return traced

    def wrap_lp(self, fn):
        def counted(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.lp_s += time.perf_counter() - start
                self.lp_calls += 1

        return counted

    @contextlib.contextmanager
    def patched(self):
        """Route the names treelasso.reconstruct imports, and scipy's linprog,
        through the recorder for the duration of the block."""
        import scipy.optimize

        recon_mod = sys.modules["treelasso.reconstruct"]
        saved = [
            (recon_mod, "closure", recon_mod.closure),
            (recon_mod, "neighbor_joining", recon_mod.neighbor_joining),
            (scipy.optimize, "linprog", scipy.optimize.linprog),
        ]
        recon_mod.closure = self.wrap(SPAN_OF["closure"], recon_mod.closure, keep_result=True)
        recon_mod.neighbor_joining = self.wrap(SPAN_OF["neighbor_joining"], recon_mod.neighbor_joining)
        scipy.optimize.linprog = self.wrap_lp(scipy.optimize.linprog)
        try:
            yield
        finally:
            for module, attr, original in saved:
                setattr(module, attr, original)

    def self_times(self) -> list[float]:
        self_s = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                self_s[parent] -= end - start
        return self_s

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, task in self.spans:
                handle.write(json.dumps([name, start, end, parent, task]) + "\n")


def fit_exponent(points: list[tuple[int, float]]) -> float:
    """Least-squares slope of log(seconds) against log(n); 0 below two sizes."""
    points = [(math.log(n), math.log(s)) for n, s in points if s > 0]
    if len({x for x, _ in points}) < 2:
        return 0.0
    mx = sum(x for x, _ in points) / len(points)
    my = sum(y for _, y in points) / len(points)
    sxx = sum((x - mx) ** 2 for x, _ in points)
    return sum((x - mx) * (y - my) for x, y in points) / sxx


def summarise(rec: Recorder, task_n: dict[int, int]) -> tuple[dict, dict]:
    """Per-layer metrics, and per-n median self time per call of each span."""
    self_s = rec.self_times()
    calls = defaultdict(int)
    total = defaultdict(float)
    per_task = defaultdict(float)  # (span, task) -> self seconds
    per_n = defaultdict(list)  # (span, n) -> self seconds of each call
    for (name, _, _, _, task), s in zip(rec.spans, self_s):
        calls[name] += 1
        total[name] += s
        per_task[name, task] += s
        per_n[name, task_n[task]].append(s)

    metrics: dict[str, tuple[float, str]] = {}
    for name in SPANS:
        metrics[f"{name}.calls"] = (calls[name], "count")
        metrics[f"{name}.self_s"] = (total[name], "s")

    derived = missing = 0
    steps = refuted = 0
    for idx, result in rec.results:
        name = rec.spans[idx][0]
        if name == "lasso.closure":
            derived += len(result.steps)
            missing += len(result.missing)
        elif name == "lasso.shellable":
            steps += len(result.steps)
        elif name == "lasso.oracle":
            refuted += result is not None
    metrics["lasso.closure.derived"] = (derived, "count")
    metrics["lasso.closure.missing"] = (missing, "count")
    metrics["lasso.closure.yield"] = (derived / (derived + missing) if derived + missing else 0.0, "ratio")
    metrics["lasso.shellable.steps"] = (steps, "count")
    metrics["lasso.oracle.refuted"] = (refuted, "count")
    metrics["lasso.oracle.lp_calls"] = (rec.lp_calls, "count")
    metrics["lasso.oracle.lp_s"] = (rec.lp_s, "s")
    for name in SCALING:
        points = [(task_n[task], s) for (span, task), s in per_task.items() if span == name]
        metrics[f"{name}.n_exp"] = (fit_exponent(points), "1")

    by_n = defaultdict(dict)
    for (name, n), values in per_n.items():
        values.sort()
        by_n[n][name] = (values[len(values) // 2], len(values))
    return metrics, dict(by_n)


def by_n_table(by_n: dict) -> list[str]:
    """The ROADMAP baseline table: median self time per call, by n."""
    head = ["n"] + list(BY_N_COLUMNS)
    lines = ["\t".join(head)]
    for n in sorted(by_n):
        row = [str(n)]
        for spans in BY_N_COLUMNS.values():
            cells = [by_n[n][s] for s in spans if s in by_n[n]]
            row.append(" + ".join(f"{1000 * t:.1f} ms" for t, _ in cells) if cells else "-")
        lines.append("\t".join(row))
    return lines
