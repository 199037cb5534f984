"""Placement, the shellability certificate for cord sets with a spanning
2d-subgraph: the shelling closure, whose first block is a placement,
against the counting engine and the placement it absorbed
(reference_lasso.py), and the callers that must answer without the quartet
engine or the rank."""

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
from treelasso.cords import _bind
from treelasso.lasso import _hop_closure
from reference_lasso import counting_is_shellable, placement


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
        placed = placement(tree, cords) is not None
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
def test_larger_stable_covers_place_as_the_engine_agrees(n):
    # The counting engine takes seconds here; the bitset closure answers,
    # checked against the engines in test_hop_closure.py, and the
    # reference's placement places these covers too.
    tree = random_tree(n, seed=100 + n)
    for kind in ("min", "closest", "furthest"):
        cords = _stable_cover(tree, random.Random(n), kind)
        verify_shelling(tree, cords, is_shellable(tree, cords).steps, require_complete=True)
        assert placement(tree, cords) is not None


def test_remark1_is_answered_without_the_engine(monkeypatch, quartet_abcd, remark1_cords):
    # A 2d-tree whose last vertex c does not place: its back-neighbours a, b
    # form a cherry, and the branch towards c already holds d.  The closure
    # answers, and the quartet engine never runs.
    assert placement(quartet_abcd, set(remark1_cords)) is None

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


def _built_2d_trees():
    """2d-trees by the definition, each later taxon joined to two random
    earlier taxa, with the tree tree_from_2dtree builds for them: a
    shellable lasso of it."""
    for n in range(4, 61, 4):
        for k in range(6):
            rng = random.Random(100 * n + k)
            ordering = rng.sample([f"t{i:02d}" for i in range(n)], n)
            cords = {Cord(ordering[0], ordering[1])}
            for i in range(2, n):
                cords.update(Cord(ordering[i], t) for t in rng.sample(ordering[:i], 2))
            yield tree_from_2dtree(cords, ordering), cords, ordering


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
    # Built 2d-trees are shellable, yet the greedy first block often stops
    # short of X; the rest of the closure answers them.
    for tree, cords, ordering in _built_2d_trees():
        result = is_shellable(tree, cords)
        assert result and len(result.steps) == tree.n_leaves * (tree.n_leaves - 1) // 2 - len(cords)
        verify_shelling(tree, cords, result.steps, require_complete=True)
        assert edge_weight_lasso_certificate(tree, cords)
        certified = tree_from_2dtree(cords, ordering, certify=True)
        assert certified.newick() == tree_from_2dtree(cords, ordering).newick()
        first_block = _hop_closure(tree, _bind(cords, tree).partners)[1][0]
        checked["short", len(first_block[1]) < tree.n_leaves - 2] += 1
    assert checked["short", True] >= 20 and checked["short", False] >= 20


def test_certificate_and_certify_build_no_steps(monkeypatch):
    tree = random_tree(40, seed=4)
    cords = _stable_cover(tree, random.Random(4), "closest")
    ordering = is_2dtree(cords, tree.taxa)
    plain = tree_from_2dtree(cords, ordering).newick()

    def refuse(*args, **kwargs):
        raise AssertionError("shelling steps were built")

    monkeypatch.setattr(treelasso.lasso, "ShellingStep", refuse)
    monkeypatch.setattr(treelasso.lasso, "integer_matrix_rank", refuse)
    assert edge_weight_lasso_certificate(tree, cords)
    assert tree_from_2dtree(cords, ordering, certify=True).newick() == plain
    result = is_shellable(tree, cords)  # no step until the steps are read
    assert result and len(result.steps) == 40 * 39 // 2 - len(cords)
    with pytest.raises(AssertionError, match="steps were built"):
        result.steps[0]


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
