"""reconstruct by placement, against the closure -> NJ -> verify pipeline it
replaced on incomplete inputs (tests/reference_reconstruct.py)."""

import random
from collections import Counter

import pytest

from reference_reconstruct import closure_nj_reconstruct
from treelasso import (
    DEFAULT_EPSILON,
    Cord,
    InconsistentDistanceError,
    NonAdditiveError,
    PartialDistance,
    XTree,
    all_cords,
    closest_leaf_transversal,
    format_cord_distances,
    induced_distance,
    is_equivalent,
    min_order_transversal,
    random_tree,
    reconstruct,
    split_weight_delta,
    tree_from_2dtree,
    triplet_cover,
    verify_shelling,
)
from treelasso.cli import main
from treelasso.reconstruct import _close

FAMILIES = ("min", "closest", "extra", "half", "2d", "minus")


def _case(k):
    """Case k of the sweep: its family, a tree with random weights, and a
    cord set.  One case in eight has n up to 40, the rest n <= 14, so that
    the reference's closure keeps the sweep short."""
    rng = random.Random(f"placement:{k}")
    n = rng.randint(5, 40) if k % 8 == 0 else rng.randint(5, 14)
    family = FAMILIES[k % len(FAMILIES)]
    if family == "2d":  # by the definition: each later taxon joined to two earlier ones
        taxa = [f"x{i:02d}" for i in range(n)]
        rng.shuffle(taxa)
        cords = {Cord(taxa[0], taxa[1])}
        for i in range(2, n):
            cords.update(Cord(taxa[i], t) for t in rng.sample(taxa[:i], 2))
        built = tree_from_2dtree(cords, taxa)
        edges = [(u, v, rng.uniform(0.1, 2.5)) for u, v, _ in built.edges()]
        return family, XTree(edges, {built.leaf_vertex(t): t for t in built.taxa}), cords
    tree = random_tree(n, seed=rng.randrange(2**32))
    order = sorted(tree.taxa)
    rng.shuffle(order)
    if family == "closest":
        cover = triplet_cover(tree, closest_leaf_transversal(tree, tiebreak=order))
    else:
        cover = triplet_cover(tree, min_order_transversal(tree, order))
    pool = sorted(all_cords(tree.taxa) - cover)
    if family == "extra":
        return family, tree, cover | set(rng.sample(pool, rng.randint(1, min(n, len(pool)))))
    if family == "half":
        return family, tree, cover | set(rng.sample(pool, max(0, (len(pool) + len(cover)) // 2 - len(cover))))
    if family == "minus":
        return family, tree, cover - {rng.choice(sorted(cover))}
    return family, tree, cover


def _assert_four_point_steps(d, trace, k):
    """Each step's value is the four-point formula over earlier values."""
    known = dict(d)
    for step in trace.steps:
        x, y, u, z = step.quadruple
        assert step.cord == Cord(x, z)
        assert step.value == known[Cord(x, u)] + known[Cord(y, z)] - known[Cord(y, u)], k
        known[step.cord] = step.value


def _assert_same_tree(got, expected, k):
    """The same splits, with weights within 1e-12 relative."""
    assert is_equivalent(got, expected), k
    weights = expected.split_weights()
    for split, w in got.split_weights().items():
        assert abs(w - weights[split]) <= 1e-12 * max(w, weights[split]), k


def test_placement_agrees_with_closure_and_nj():
    placed, cases = Counter(), Counter()
    for k in range(1000):
        family, tree, cords = _case(k)
        d = induced_distance(tree, cords)
        expected, got = closure_nj_reconstruct(d), reconstruct(d)
        cases[family] += 1
        assert got.ok == expected.ok and got.missing == expected.missing, k
        assert len(got.trace.steps) == len(expected.trace.steps), k
        assert set(got.trace.final) == set(expected.trace.final), k
        if _close(d, DEFAULT_EPSILON)[1] is None:  # the closure path itself
            _assert_four_point_steps(d, got.trace, k)
            if got.ok:  # NJ on values that may differ in their last bits
                _assert_same_tree(got.tree, expected.tree, k)
            continue
        placed[family] += 1
        _assert_same_tree(got.tree, expected.tree, k)
        _assert_four_point_steps(d, got.trace, k)
        verify_shelling(tree, cords, [(s.cord, s.quadruple[1:3]) for s in got.trace.steps], require_complete=True)
    # Covers minus a cord (2n-4 cords) cannot place; every other family places
    # in most cases.  Placed / cases per family, when this was written:
    # min 167/167, closest 167/167, extra 159/167, half 167/167, 2d 141/166.
    assert placed["minus"] == 0
    for family in ("min", "closest", "extra", "half"):
        assert placed[family] >= 0.9 * cases[family], family
    assert placed["2d"] >= 0.5 * cases["2d"]


def test_exact_placement_gives_the_float_verdict_and_the_source_tree():
    # exact_rational=True places on Fractions.  With at most 2n-3 cords each
    # given cord is an anchor, so no 1-ulp disagreement between the float
    # inputs can reject the input; a placement is the source tree.
    families = Counter()
    for k in range(0, 1000, 5):
        family, tree, cords = _case(k)
        if family in ("min", "closest", "2d", "minus"):
            d = induced_distance(tree, cords)
            got, expected = reconstruct(d, exact_rational=True), reconstruct(d)
            assert got.ok == expected.ok and got.missing == expected.missing, k
            assert len(got.trace.steps) == len(expected.trace.steps), k
            if got.ok:
                assert is_equivalent(got.tree, tree) and split_weight_delta(got.tree, tree) <= 1e-6, k
            families[family, got.ok] += 1
    assert set(families) == {("min", True), ("closest", True), ("2d", True), ("minus", False)}


def _half_of_all_cords(n, seed):
    rng = random.Random(seed)
    tree = random_tree(n, seed=seed)
    cover = triplet_cover(tree, min_order_transversal(tree))
    pool = sorted(all_cords(tree.taxa) - cover)
    return tree, cover | set(rng.sample(pool, n * (n - 1) // 4 - len(cover)))


def test_a_corrupt_cord_on_the_placement_path_is_caught(tmp_path, capsys):
    tree, cords = _half_of_all_cords(12, seed=3)
    clean = induced_distance(tree, cords)
    placed, caught = 0, []
    for cord in sorted(cords):
        values = dict(clean)
        values[cord] += 0.37
        d = PartialDistance(values)
        placed += _close(d, DEFAULT_EPSILON)[1] is not None
        try:
            closure_nj_reconstruct(d)
        except (NonAdditiveError, InconsistentDistanceError):
            caught.append(d)
            with pytest.raises((NonAdditiveError, InconsistentDistanceError)):
                reconstruct(d)
        else:  # the value fits another weighting of the tree: absorbed, as in the reference
            assert reconstruct(d).ok
    # Every corrupt input places, so the check of the built tree against
    # every given cord is what catches the 24 of 33 that fit no tree.
    assert placed == len(cords) and len(caught) == 24
    path = tmp_path / "corrupt.tsv"
    path.write_text(format_cord_distances(caught[0]))
    assert main(["reconstruct", str(path)]) == 3
    assert "inconsistent" in capsys.readouterr().err
