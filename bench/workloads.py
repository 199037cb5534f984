"""The four seeded workloads: input generation, the task each instance runs,
and the check of its output against an answer the benchmark knows.

A run makes passes over one *cycle*, which holds one instance for every
(size, class) stratum, so every run has the same mix of sizes and classes.
Each instance draws its own tree from a string seed built from the workload
seed, so the task list is fixed per seed.

Why each workload and instance class is there is recorded in BENCHMARK.json
and restated next to each definition below.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass, field
from typing import Callable

import checks

# Remark 1 of the paper: these five cords of the quartet ab||cd form a
# 2d-tree, yet another topology fits their distances (the oracle refutes it).
REMARK1_NEWICK = "((a:1,b:1):1,(c:1,d:1):1);"
REMARK1_PAIRS = (("a", "b"), ("a", "c"), ("b", "c"), ("a", "d"), ("b", "d"))


@dataclass
class Instance:
    n: int
    cls: str
    inputs: tuple
    truth: dict = field(default_factory=dict)  # leaf -> leaf -> distance
    expect: object = None


@dataclass(frozen=True)
class Workload:
    name: str
    strata: tuple[tuple[int, str], ...]  # (n, class) of each task in one cycle
    make: Callable  # (tl, rng, n, cls) -> Instance
    task: Callable  # (api, Instance) -> output
    check: Callable  # (tl, Instance, output) -> error message or None
    warm_n: int  # size of the untimed warm-up instance

    def cycle(self, tl, seed: int) -> list[Instance]:
        """One instance per stratum, in an order fixed per workload that
        spreads each size over the run: a slow spell of a shared host then
        slows every size a little, not one size a lot."""
        strata = list(enumerate(self.strata))
        random.Random(self.name).shuffle(strata)
        return [
            self.make(tl, random.Random(f"{self.name}:{seed}:{pos}"), n, cls)
            for pos, (n, cls) in strata
        ]

    def warm_instance(self, tl, seed: int) -> Instance:
        return self.make(tl, random.Random(f"{self.name}:{seed}:warm"), self.warm_n, self.strata[0][1])


def grid(sizes, classes) -> tuple[tuple[int, str], ...]:
    return tuple((n, cls) for n in sizes for cls in classes)


def _tree_and_cover(tl, rng, n):
    """A random tree and the stable triplet cover of a shuffled min-order
    transversal, as `treelasso simulate` draws them."""
    tree = tl.random_tree(n, seed=rng.randrange(2**63))
    order = sorted(tree.taxa)
    rng.shuffle(order)
    cover = tl.triplet_cover(tree, tl.min_order_transversal(tree, order))
    return tree, cover


def _truth(newick_text: str) -> dict:
    return checks.leaf_distances(*checks.newick_edges(newick_text))


def _pairs(taxa):
    taxa = sorted(taxa)
    return [(a, b) for i, a in enumerate(taxa) for b in taxa[i + 1 :]]


def _verify_eps():
    # the package attribute `reconstruct` is the function; the constant
    # lives on the module of the same name
    return sys.modules["treelasso.reconstruct"].VERIFY_EPSILON


def _check_tree_text(text, truth) -> str | None:
    """The Newick output reproduces every leaf distance of the generating tree."""
    edges, labels = checks.newick_edges(text)
    if sorted(labels.values()) != sorted(truth):
        return "output tree has the wrong leaf set"
    got = checks.leaf_distances(edges, labels)
    return checks.compare_distances(lambda a, b: got[a][b], truth, _pairs(truth), _verify_eps())


# -- recon-partial ------------------------------------------------------------
# text -> parse_cord_distances -> reconstruct -> newick, as `treelasso
# reconstruct` runs it.  The closure does >90% of the work.  Classes:
#   cover  the stable triplet cover (2n-3 cords): complete closure;
#   extra  the cover plus n random cords: complete;
#   drop   the cover minus 1-2 of its cords, every taxon still in a cord:
#          fewer than 2n-3 values cannot fix the 2n-3 edge weights, so the
#          closure stays incomplete (exit 2);
#   dense  the cover padded with random cords to half of all cords: complete,
#          and most derivations meet the cross-check.


def _make_recon(tl, rng, n, cls):
    tree, cover = _tree_and_cover(tl, rng, n)
    everything = tl.all_cords(tree.taxa)
    pool = sorted(everything - cover)
    if cls == "cover":
        cords = cover
    elif cls == "extra":
        cords = cover | set(rng.sample(pool, n))
    elif cls == "drop":
        # Keep every taxon in some cord: a taxon in no cord drops out of the
        # input, and the rest may then close completely on n-1 taxa.
        k = rng.choice((1, 2))
        cords = cover
        while {t for c in cords for t in (c.a, c.b)} != tree.taxa or cords == cover:
            cords = cover - set(rng.sample(sorted(cover), k))
    else:
        cords = cover | set(rng.sample(pool, len(everything) // 2 - len(cover)))
    text = tl.format_cord_distances(tl.induced_distance(tree, cords))
    return Instance(n, cls, (text,), _truth(tree.newick()), expect=cls != "drop")


def _task_recon(api, inst):
    distances = api.parse_cord_distances(inst.inputs[0])
    if len(distances.taxa) < 3:
        raise ValueError("need at least 3 taxa")
    result = api.reconstruct(distances)
    return result, (api.write_newick(result.tree) if result.ok else None)


def _check_recon(tl, inst, out):
    result, text = out
    if result.ok != inst.expect:
        return f"closure complete={result.ok}, expected {inst.expect}"
    if result.ok:
        return _check_tree_text(text, inst.truth)
    if not result.missing:
        return "incomplete closure reports no missing cords"
    final = result.trace.final
    return checks.compare_distances(final.value, inst.truth, [(c.a, c.b) for c in final], _verify_eps())


# -- classify-mid -------------------------------------------------------------
# Newick + cord set -> every classify verdict.  Shellability does 96-98% of
# the work.  The paper's theorems fix the verdicts of each class:
#   cover/closest  stable triplet covers (min-order, closest-leaf transversal):
#                  every verdict yes;
#   minus          the cover minus one cord (2n-4 cords): not shellable, no
#                  2d-tree, rank below 2n-3;
#   plus           the cover plus one cord (2n-2 cords): shellable, rank full,
#                  no 2d-tree.

CLASSIFY_EXPECT = {
    "cover": dict(connected=True, non_bipartite=True, cover=True, triplet=True, shellable=True, twod=True, rank=True),
    "closest": dict(connected=True, non_bipartite=True, cover=True, triplet=True, shellable=True, twod=True, rank=True),
    "minus": dict(shellable=False, twod=False, rank=False),
    "plus": dict(connected=True, non_bipartite=True, cover=True, triplet=True, shellable=True, twod=False, rank=True),
}


def _make_classify(tl, rng, n, cls):
    tree, cover = _tree_and_cover(tl, rng, n)
    if cls == "closest":
        cords = tl.triplet_cover(tree, tl.closest_leaf_transversal(tree))
    elif cls == "minus":
        cords = cover - {rng.choice(sorted(cover))}
    elif cls == "plus":
        cords = cover | {rng.choice(sorted(tl.all_cords(tree.taxa) - cover))}
    else:
        cords = cover
    return Instance(n, cls, (tree.newick(), frozenset(cords)), expect=CLASSIFY_EXPECT[cls])


def _task_classify(api, inst):
    text, cords = inst.inputs
    tree = api.parse_newick(text)
    graph = api.graph_necessary_checks(cords, tree.taxa)
    ordering = api.is_2dtree(cords, tree.taxa)
    verdicts = dict(
        connected=graph.connected,
        non_bipartite=graph.all_components_non_bipartite,
        cover=api.is_cover(tree, cords),
        triplet=api.is_triplet_cover(tree, cords),
        shellable=bool(api.is_shellable(tree, cords)),
        twod=ordering is not None,
        rank=api.edge_weight_lasso_certificate(tree, cords),
    )
    built = api.tree_from_2dtree(cords, ordering) if ordering is not None else None
    return verdicts, ordering, built, sorted(tree.taxa)


def _check_classify(tl, inst, out):
    verdicts, ordering, built, taxa = out
    wrong = {k: verdicts[k] for k, v in inst.expect.items() if verdicts[k] != v}
    if wrong:
        return f"verdicts {wrong} contradict the known answers"
    if ordering is not None:
        if not checks.is_2dtree_ordering(inst.inputs[1], ordering, taxa):
            return "is_2dtree returned an invalid ordering"
        if not checks.is_resolved_tree_on(*checks.tree_edges(built), taxa):
            return "tree_from_2dtree did not build a fully-resolved tree on the taxa"
    return None


# -- plan-large ---------------------------------------------------------------
# Newick -> both stable transversals -> triplet covers -> cover tests, 2d-tree
# and rank certificate -> full_distance -> TSV -> parse -> reconstruct ->
# newick.  The input is complete, so the closure does <1% of the work; tree
# path queries, the rank certificate and cover generation dominate.  A
# closure change should leave it unchanged; an O(n^4) set-up would show.


def _make_plan(tl, rng, n, cls):
    tree = tl.random_tree(n, seed=rng.randrange(2**63))
    text = tree.newick()
    return Instance(n, cls, (text,), _truth(text))


def _task_plan(api, inst):
    tree = api.parse_newick(inst.inputs[0])
    taxa = tree.taxa
    by_order = api.triplet_cover(tree, api.min_order_transversal(tree))
    closest = api.triplet_cover(tree, api.closest_leaf_transversal(tree))
    verdicts = (
        api.is_cover(tree, by_order),
        api.is_triplet_cover(tree, by_order),
        api.edge_weight_lasso_certificate(tree, by_order),
    )
    orderings = (api.is_2dtree(by_order, taxa), api.is_2dtree(closest, taxa))
    tsv = api.format_cord_distances(api.full_distance(tree))
    result = api.reconstruct(api.parse_cord_distances(tsv))
    text = api.write_newick(result.tree) if result.ok else None
    return (by_order, closest), verdicts, orderings, text


def _check_plan(tl, inst, out):
    covers, verdicts, orderings, text = out
    taxa = sorted(inst.truth)
    if any(len(c) != 2 * inst.n - 3 for c in covers):
        return "a stable triplet cover does not have 2n-3 cords"
    if not all(verdicts):
        return f"stable cover verdicts (cover, triplet cover, rank) = {verdicts}, expected all yes"
    if not all(checks.is_2dtree_ordering(c, o, taxa) for c, o in zip(covers, orderings)):
        return "a stable cover got no valid 2d-tree ordering"
    if text is None:
        return "reconstruction of the complete metric was incomplete"
    return _check_tree_text(text, inst.truth)


# -- oracle-small -------------------------------------------------------------
# Newick + cord set -> topological_lasso_oracle, which does nearly all the
# work (one LP per alternative topology).  Classes:
#   cover    a stable triplet cover: a strong lasso, so the answer is None;
#   minus    the cover minus one cord: any witness is checked;
#   remark1  (once per cycle) Remark 1's four-taxon 2d-tree: refuted.


def _make_oracle(tl, rng, n, cls):
    if cls == "remark1":
        cords = frozenset(tl.Cord(a, b) for a, b in REMARK1_PAIRS)
        return Instance(4, cls, (REMARK1_NEWICK, cords), _truth(REMARK1_NEWICK), expect="witness")
    tree, cover = _tree_and_cover(tl, rng, n)
    if cls == "minus":
        cover = cover - {rng.choice(sorted(cover))}
    text = tree.newick()
    return Instance(n, cls, (text, frozenset(cover)), _truth(text), expect=None if cls == "cover" else "any")


def _task_oracle(api, inst):
    text, cords = inst.inputs
    return api.topological_lasso_oracle(api.parse_newick(text), cords)


def _check_oracle(tl, inst, witness):
    if witness is None:
        return "the oracle found no witness for Remark 1" if inst.expect == "witness" else None
    if inst.expect is None:
        return "the oracle refuted a stable triplet cover"
    edges, labels = checks.tree_edges(witness)
    text, cords = inst.inputs
    if checks.splits(edges, labels) == checks.splits(*checks.newick_edges(text)):
        return "witness has the input tree's split set"
    pairs = [(c.a, c.b) for c in cords]
    scale = max(1.0, max(inst.truth[a][b] for a, b in pairs))
    fit_tol = max(1e-7, tl.DEFAULT_EPSILON) * scale
    # LP residual 2*fit_tol, plus each contracted interior edge (<= 10*fit_tol)
    tol = fit_tol * (2 + 10 * (2 * inst.n - 3))
    got = checks.leaf_distances(edges, labels)
    return checks.compare_distances(lambda a, b: got[a][b], inst.truth, pairs, tol)


# One pass over a cycle takes 5-9 s at the seed commit on a 2-CPU x86
# machine, so the three passes of a run fit in 30 s.  Every size has the same
# classes, and the middle size of recon-partial and classify-mid comes twice
# (two trees per class): the median task is then one of eight drawn at one
# size, which varies less from seed to seed than one of four.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("recon-partial", grid((20, 22, 22, 24), ("cover", "extra", "drop", "dense")),
                 _make_recon, _task_recon, _check_recon, warm_n=10),
        Workload("classify-mid", grid((30, 32, 32, 34), ("cover", "closest", "minus", "plus")),
                 _make_classify, _task_classify, _check_classify, warm_n=10),
        Workload("plan-large", grid((128, 132, 136, 140), ("tree",)),
                 _make_plan, _task_plan, _check_plan, warm_n=16),
        # Covers minus one cord only at n=6: there the oracle's cost is bounded
        # by one full enumeration (~0.2 s), while at n=7 it ranges over 0.01-2 s
        # with the position of the first witness.  Half of the tasks are n=6
        # covers, so the median and the tail both fall among them.
        Workload("oracle-small", ((4, "remark1"), (6, "minus"), (6, "cover"), (6, "cover"), (6, "cover"), (7, "cover")) * 3,
                 _make_oracle, _task_oracle, _check_oracle, warm_n=4),
    )
}
