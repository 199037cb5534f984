"""Placement, the shellability certificate for cord sets with a spanning
2d-subgraph, against the counting engine (reference_lasso.py), and the
callers that must answer from it alone."""

import os
import random
import subprocess
import sys
from collections import Counter

import pytest

import treelasso.lasso
from treelasso import (
    Cord,
    all_cords,
    closest_leaf_transversal,
    edge_weight_lasso_certificate,
    integer_matrix_rank,
    is_2dtree,
    is_shellable,
    min_order_transversal,
    path_incidence_matrix,
    random_tree,
    tree_from_2dtree,
    triplet_cover,
    verify_shelling,
)
from treelasso.lasso import _placement
from reference_lasso import counting_is_shellable


def _two_d_tree(rng, taxa):
    """A 2d-tree on the taxa by the definition, in a random order."""
    order = rng.sample(sorted(taxa), len(taxa))
    cords = {Cord(order[0], order[1])}
    for i in range(2, len(order)):
        cords.update(Cord(order[i], t) for t in rng.sample(order[:i], 2))
    return cords


def _stable_cover(tree, rng, kind):
    order = sorted(tree.taxa)
    rng.shuffle(order)
    if kind == "min":
        return set(triplet_cover(tree, min_order_transversal(tree, order)))
    return set(triplet_cover(tree, closest_leaf_transversal(tree, mode=kind, tiebreak=order)))


def _cases():
    """(class, tree, cords): 2d-trees by the definition on random trees, the
    same with one cord moved, stable covers plus 1 or k cords (n = 4..14),
    and the three stable covers up to n = 24."""
    for seed in range(520):
        rng = random.Random(seed)
        n = rng.randrange(4, 15)
        tree = random_tree(n, seed=seed)
        cords = _two_d_tree(rng, tree.taxa)
        yield "2d-tree", tree, cords
        moved = cords - {rng.choice(sorted(cords))}
        yield "moved", tree, moved | {rng.choice(sorted(all_cords(tree.taxa) - moved))}
        cover = _stable_cover(tree, rng, rng.choice(("min", "closest", "furthest")))
        pool = sorted(all_cords(tree.taxa) - cover)
        yield "cover+1", tree, cover | {rng.choice(pool)}
        yield "cover+k", tree, cover | set(rng.sample(pool, min(len(pool), rng.randrange(2, n + 1))))
    for n in range(4, 25):
        tree = random_tree(n, seed=100 + n)
        for kind in ("min", "closest", "furthest"):
            yield "cover", tree, _stable_cover(tree, random.Random(n), kind)


def test_placement_agrees_with_the_counting_engine():
    verdicts = Counter()
    for cls, tree, cords in _cases():
        expected = counting_is_shellable(tree, cords)
        placed = _placement(tree, cords) is not None
        got = is_shellable(tree, cords)
        assert got.missing == expected.missing, (cls, tree.newick(), sorted(cords))
        if placed:
            verify_shelling(tree, cords, got.steps, require_complete=True)
            for step in got.steps:  # pivots (x, y) orient as  a x || y b
                a, b = step.cord.a, step.cord.b
                assert frozenset({a, step.pivots[0]}) in tree.quartet_topology(a, b, *step.pivots)
            if tree.n_leaves <= 14:  # a certified yes is also a full rank
                rank = integer_matrix_rank(path_incidence_matrix(tree, cords))
                assert rank == len(tree.edges())
        verdicts[cls, bool(expected), placed] += 1
    assert sum(verdicts.values()) >= 2000
    # A placed yes is a yes by the missing check above.  Here every 2d-tree
    # that is shellable also places, though that direction is not proved.
    for cls in ("2d-tree", "moved", "cover"):
        assert verdicts[cls, True, False] == 0
    assert verdicts["2d-tree", True, True] and verdicts["2d-tree", False, False]
    # Every cover plus one cord places; cover+k may fall back, rarely.
    assert verdicts["cover+1", True, False] == 0
    assert verdicts["cover+k", True, False] <= 10


@pytest.mark.parametrize("n", [33, 45, 60])
def test_larger_stable_covers_place_as_the_engine_agrees(monkeypatch, n):
    # The counting engine takes seconds here; with placement off the bitset
    # closure answers, checked against the engines in test_hop_closure.py.
    tree = random_tree(n, seed=100 + n)
    covers = [_stable_cover(tree, random.Random(n), kind) for kind in ("min", "closest", "furthest")]
    for cords in covers:
        verify_shelling(tree, cords, is_shellable(tree, cords).steps, require_complete=True)
    monkeypatch.setattr(treelasso.lasso, "_placement", lambda tree, cords: None)
    for cords in covers:
        assert is_shellable(tree, cords).is_complete


def test_remark1_is_answered_without_the_engine(monkeypatch, quartet_abcd, remark1_cords):
    # A 2d-tree whose last vertex c does not place: its back-neighbours a, b
    # form a cherry, and the branch towards c already holds d.  The closure
    # answers, and the quartet engine never runs.
    assert _placement(quartet_abcd, set(remark1_cords)) is None

    def refuse(*args, **kwargs):
        raise AssertionError("the engine ran")

    monkeypatch.setattr(treelasso.lasso, "_extend", refuse)
    assert is_shellable(quartet_abcd, remark1_cords).missing == {Cord("c", "d")}


def _covers_and_plus_one():
    for n in range(3, 61):
        tree = random_tree(n, seed=n)
        rng = random.Random(n)
        for kind in ("min", "closest", "furthest"):
            cover = _stable_cover(tree, rng, kind)
            yield tree, cover, True
            pool = sorted(all_cords(tree.taxa) - cover)
            if pool:
                yield tree, cover | {rng.choice(pool)}, False


def test_yes_answers_never_enter_the_engine(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the engine ran")

    monkeypatch.setattr(treelasso.lasso, "_extend", refuse)
    monkeypatch.setattr(treelasso.lasso, "integer_matrix_rank", refuse)
    checked = Counter()
    for tree, cords, is_cover in _covers_and_plus_one():
        result = is_shellable(tree, cords)
        assert result and not result.missing
        assert len(result.steps) == tree.n_leaves * (tree.n_leaves - 1) // 2 - len(cords)
        assert edge_weight_lasso_certificate(tree, cords)
        if is_cover:
            ordering = is_2dtree(cords, tree.taxa)
            certified = tree_from_2dtree(cords, ordering, certify=True)
            assert certified.newick() == tree_from_2dtree(cords, ordering).newick()
        checked[is_cover] += 1
    assert checked == {True: 58 * 3, False: 57 * 3}


#: Prints classify's report and shelling trace for a stable cover of a
#: 40-taxon tree and for the same cover plus one cord, via the console entry.
HASH_PROBE = r"""
import os, random, tempfile
from treelasso import all_cords, closest_leaf_transversal, format_cord_set, random_tree, triplet_cover
from treelasso.cli import main
tree = random_tree(40, seed=3)
cover = triplet_cover(tree, closest_leaf_transversal(tree))
plus = cover | {random.Random(3).choice(sorted(all_cords(tree.taxa) - cover))}
with tempfile.TemporaryDirectory() as tmp:
    paths = [os.path.join(tmp, name) for name in ("t.nwk", "cover.cords", "plus.cords")]
    for path, text in zip(paths, (tree.newick() + "\n", format_cord_set(cover), format_cord_set(plus))):
        with open(path, "w") as handle:
            handle.write(text)
    for cords in paths[1:]:
        assert main(["classify", paths[0], cords, "--trace", "-"]) == 0
"""


def test_placement_steps_ignore_the_string_hash():
    outputs = {
        subprocess.run(
            [sys.executable, "-c", HASH_PROBE],
            capture_output=True,
            check=True,
            env={**os.environ, "PYTHONHASHSEED": seed},
        ).stdout
        for seed in ("1", "2", "3")
    }
    assert len(outputs) == 1
    lines = outputs.pop().decode().splitlines()
    # Two reports, each with its trace: 40*39/2 - 77 and 40*39/2 - 78 steps.
    assert sum(" | pivots " in line for line in lines) == 703 + 702
    assert [line.split("\t")[1] for line in lines if line.startswith("shellable")] == ["yes", "yes"]
