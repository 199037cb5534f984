"""reconstruct's closure path, where metric blocks seed the quartet engine,
against closure -> NJ -> verify (tests/reference_reconstruct.py) on seeded
sweeps: the shelling families as distances, the engine-reference families
with one value perturbed or an interior edge of length 0, trees with one
interior edge just above the tolerance, and a noise grid."""

import itertools
import random
import sys
from collections import Counter

import pytest

import treelasso.lasso
from reference_reconstruct import closure_nj_reconstruct
from test_engine_reference import _case as engine_case
from test_engine_reference import _zero_interior
from test_hop_closure import _case as shelling_case
from test_reconstruct_placement import _assert_four_point_steps
from treelasso import (
    Cord,
    InconsistentDistanceError,
    NonAdditiveError,
    PartialDistance,
    XTree,
    induced_distance,
    min_order_transversal,
    random_tree,
    reconstruct,
    tree_from_2dtree,
    triplet_cover,
)
from treelasso.cords import _bit_indices


@pytest.fixture
def engine_runs(monkeypatch):
    """Counts of what the engine did under reconstruct: runs from block
    seeds, runs whose derivations do not start with the seeds ("declined",
    which the placer's use of the engine's own test rules out), and clashes
    raised on a cord inside a block, derived there or known before it grew;
    "calls" counts every run."""
    runs = Counter()
    engine = treelasso.lasso._extend

    def spy(taxa, cords, eps, blocks=(), values=None):
        runs["calls"] += 1
        seeds = [row for _, _, rows in blocks for row in rows]
        runs["seeded"] += bool(seeds)
        try:
            derivations, known = engine(taxa, cords, eps, blocks, values)
        except InconsistentDistanceError as exc:
            block_cords = {
                str(Cord(taxa[a], taxa[b])) for members, _, _ in blocks
                for a, b in itertools.combinations(_bit_indices(members), 2)
            }
            runs["block clash"] += str(exc).split(" derivable as both ")[0] in block_cords
            raise
        # The seeds head the derivations.
        runs["declined"] += derivations[: len(seeds)] != list(seeds)
        return derivations, known

    monkeypatch.setattr(sys.modules["treelasso.reconstruct"], "_extend", spy)
    return runs


def _outcome(d):
    try:
        return reconstruct(d)
    except ValueError as exc:
        return type(exc)


def _exit_code(outcome):
    if isinstance(outcome, type):
        return 3 if issubclass(outcome, (InconsistentDistanceError, NonAdditiveError)) else 1
    return 0 if outcome.ok else 2


def _compare(d, runs, tag):
    """reconstruct against the reference on d, when d takes the closure
    path; returns the exit code, or None for an input that places (see
    test_reconstruct_placement.py)."""
    calls = runs["calls"]
    got = _outcome(d)
    n = len(d.taxa)
    if runs["calls"] == calls and len(d) < n * (n - 1) // 2:
        return None
    try:
        expected = closure_nj_reconstruct(d)
    except ValueError as exc:
        expected = type(exc)
    if isinstance(got, type) or isinstance(expected, type):
        assert got is expected, tag
        return _exit_code(got)
    assert got.ok == expected.ok and got.missing == expected.missing, tag
    assert set(got.trace.final) == set(expected.trace.final), tag
    _assert_four_point_steps(d, got.trace, tag)
    return _exit_code(got)


def _short_edge_tree(rng, n, seed):
    """A random tree with long pendant edges and one interior edge of 3e-8,
    which the four-point test, relative to sums of two pendant lengths,
    often calls a tie."""
    tree = random_tree(n, seed=seed)
    edges = tree.edges()
    interior = [k for k, (u, v, _) in enumerate(edges) if not tree.is_leaf(u) and not tree.is_leaf(v)]
    short = rng.choice(interior)
    weighted = [
        (u, v, 3e-8 if k == short else rng.uniform(0.5, 2.0) if k in interior else rng.uniform(20.0, 60.0))
        for k, (u, v, _) in enumerate(edges)
    ]
    return XTree(weighted, {tree.leaf_vertex(t): t for t in tree.taxa})


def test_closure_path_matches_closure_and_nj(engine_runs):
    codes = Counter()
    for seed in range(600):  # the shelling families, as distances
        family, tree, cords = shelling_case(seed)
        codes[_compare(induced_distance(tree, cords), engine_runs, (family, seed))] += 1
    for seed in range(80):  # the engine families, one value perturbed, or an interior edge of length 0
        rng, tree, cords = engine_case(seed)
        d = dict(induced_distance(tree, cords))
        cord = rng.choice(sorted(d))
        d[cord] *= rng.uniform(0.5, 1.5)
        codes[_compare(PartialDistance(d), engine_runs, ("perturbed", seed))] += 1
        if tree.n_leaves > 4:
            zero = _zero_interior(tree, rng)
            codes[_compare(induced_distance(zero, cords), engine_runs, ("zero edge", seed))] += 1
    for seed in range(40):  # a cover less one cord, which never places
        rng = random.Random(seed)
        tree = _short_edge_tree(rng, rng.randrange(6, 14), seed)
        cover = triplet_cover(tree, min_order_transversal(tree))
        d = induced_distance(tree, cover - {rng.choice(sorted(cover))})
        codes[_compare(d, engine_runs, ("short edge", seed))] += 1
    short = Counter()
    for seed in range(100):  # the same trees' full covers
        rng = random.Random(seed)
        tree = _short_edge_tree(rng, rng.randrange(6, 14), seed)
        d = induced_distance(tree, triplet_cover(tree, min_order_transversal(tree)))
        short[_compare(d, engine_runs, ("short edge cover", seed))] += 1
    # Every exit code is reached; the blocks seed the engine, every seed is
    # taken, and a clash is raised on a block cord.  A taxon places by the
    # engine's own test, so no cover places past a short edge that the
    # closure ties on.  When this was written: exit 0/2/3 (31, 644, 18) on
    # the closure path, 100 inputs placed; all 100 covers on it, exit 2;
    # 601 seeded runs, 8 clashes on a block cord.
    assert codes[0] and codes[2] and codes[3]
    assert short == {2: 100}
    assert engine_runs["seeded"] >= 400 and engine_runs["declined"] == 0 and engine_runs["block clash"]


def _noisy_case(k):
    """Case k of the noise grid, n=8..20, as rng, tree and cords."""
    rng = random.Random(f"noise:{k}")
    n = rng.randrange(8, 21)
    return (rng, *_family_case(rng, n, ("drop", "2d", "dense")[k % 3]))


def _family_case(rng, n, family):
    """A tree on n taxa and cords of *family*, which mostly take the closure
    path: "drop", a stable cover less 1 or 2 cords; "2d", a 2d-tree built by
    the definition, on taxa in descending label order, whose first block
    often stops short; or "dense", all pairs within half of the taxa, plus
    the cover with one cord left to one taxon outside that half."""
    if family == "2d":
        taxa = [f"x{i:02d}" for i in range(n - 1, -1, -1)]
        cords = {Cord(taxa[0], taxa[1])}
        for i in range(2, n):
            cords.update(Cord(taxa[i], t) for t in rng.sample(taxa[:i], 2))
        built = tree_from_2dtree(cords, taxa)
        edges = [(u, v, rng.uniform(0.1, 2.5)) for u, v, _ in built.edges()]
        return XTree(edges, {built.leaf_vertex(t): t for t in built.taxa}), cords
    tree = random_tree(n, seed=rng.randrange(2**32))
    cover = set(triplet_cover(tree, min_order_transversal(tree)))
    if family == "drop":
        return tree, cover - set(rng.sample(sorted(cover), rng.choice((1, 2))))
    lone = rng.choice(sorted(tree.taxa))
    half = rng.sample(sorted(tree.taxa - {lone}), n // 2)
    kept = {c for c in cover if lone not in c} | {min(c for c in cover if lone in c)}
    return tree, kept | {Cord(a, b) for i, a in enumerate(half) for b in half[:i]}


@pytest.mark.parametrize("noise", [1e-12, 1e-8, 1e-4])
def test_noise_grid_exit_codes_match(engine_runs, noise):
    codes = Counter()
    for k in range(66):
        rng, tree, cords = _noisy_case(k)
        d = induced_distance(tree, cords)
        noisy = PartialDistance({c: v * (1 + noise * rng.uniform(-1, 1)) for c, v in d.items()})
        codes[_compare(noisy, engine_runs, k)] += 1
    # When this was written, the closure path's exit codes 0/2/3 were
    # (9, 44, 0) at 1e-12 and (9, 22, 22) at 1e-8 and 1e-4, 13 inputs placed;
    # at 1e-8 and 1e-4 all 22 clashes were on a block cord.
    assert codes[0] and codes[2] and engine_runs["seeded"]
    assert codes[3] if noise > 1e-12 else not codes[3]
