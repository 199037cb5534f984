"""Differential tests against the cover code each rewrite replaced
(reference_cover.py): closest_leaf_transversal, one distance search per
interior vertex, against the per-oriented-edge loop, on seeded trees with
both modes and random tiebreak orders; and is_cover and is_triplet_cover on
partner bitsets against the per-vertex component maps, on seeded trees and
cord sets."""

import itertools
import random

import pytest

import reference_cover as ref
from test_tree_index import _caterpillar
from treelasso import (
    Cord,
    XTree,
    closest_leaf_transversal,
    is_cover,
    is_triplet_cover,
    min_order_transversal,
    random_tree,
    triplet_cover,
)


def _tree(seed):
    """A seeded tree on 2..60 taxa; every third one unit-weighted, so that
    many scores tie and the tiebreak order decides."""
    rng = random.Random(seed)
    n = rng.randrange(2, 61)
    if n == 2:
        return XTree([(0, 1, rng.uniform(0.5, 2.0))], {0: "a", 1: "b"})
    weights = (1.0, 1.0) if seed % 3 == 0 else (0.5, 2.0)
    return random_tree(n, seed=seed, weight_range=weights)


def test_transversal_identical_to_per_edge_loop():
    two_taxa = tiebreak_mattered = 0
    for seed in range(520):
        tree = _tree(seed)
        two_taxa += tree.n_leaves == 2
        order = sorted(tree.taxa)
        random.Random(-seed).shuffle(order)
        tiebreak = order if seed % 4 else None  # None: sorted labels
        for mode in ("closest", "furthest"):
            got = closest_leaf_transversal(tree, mode=mode, tiebreak=tiebreak)
            want = ref.per_edge_closest_leaf_transversal(tree, mode=mode, tiebreak=tiebreak)
            assert got == want, (seed, mode)
            if seed % 3 == 0 and tiebreak is not None:
                tiebreak_mattered += got != closest_leaf_transversal(tree, mode=mode)
    assert two_taxa > 0
    assert tiebreak_mattered > 50  # ties are common on unit-weight trees


def _cover_cases(seed):
    """A seeded tree on 3..40 taxa (a caterpillar, a unit-weight or a random
    weighting) with six cord sets: its min-order and closest-leaf stable
    covers, the first less one cord, the second plus one, and two random
    subsets of all cords, of any size from empty to complete."""
    rng = random.Random(seed)
    n = rng.randrange(3, 41)
    if seed % 3 == 0:
        tree = _caterpillar(n, rng)
    else:
        tree = random_tree(n, seed=seed, weight_range=(1.0, 1.0) if seed % 3 == 1 else (0.5, 2.0))
    order = sorted(tree.taxa)
    rng.shuffle(order)
    by_order = triplet_cover(tree, min_order_transversal(tree, order))
    closest = triplet_cover(tree, closest_leaf_transversal(tree, tiebreak=order))
    pool = [Cord(a, b) for a, b in itertools.combinations(sorted(tree.taxa), 2)]
    extra = [c for c in pool if c not in closest]
    yield tree, by_order
    yield tree, closest
    yield tree, by_order - {rng.choice(sorted(by_order))}
    yield tree, closest | ({rng.choice(extra)} if extra else set())
    sparse = rng.randint(0, min(3 * n, len(pool)))
    for size in (rng.randint(0, len(pool)), rng.choice((0, len(pool), sparse))):
        yield tree, frozenset(rng.sample(pool, size))


def test_cover_tests_agree_with_the_component_maps():
    cases = 0
    outcomes = {"cover": set(), "triplet": set()}
    for seed in range(360):
        for tree, cords in _cover_cases(seed):
            cover = is_cover(tree, cords)
            triplet = is_triplet_cover(tree, cords)
            assert cover == ref.is_cover(tree, cords), (seed, sorted(cords))
            assert triplet == ref.is_triplet_cover(tree, cords), (seed, sorted(cords))
            outcomes["cover"].add(cover)
            outcomes["triplet"].add(triplet)
            cases += 1
    assert cases >= 2000
    assert outcomes == {"cover": {True, False}, "triplet": {True, False}}


@pytest.mark.parametrize("check", [is_cover, is_triplet_cover])
def test_cords_outside_the_tree_raise_key_error(check):
    tree = random_tree(5, seed=1)
    with pytest.raises(KeyError, match=r"cords mention taxa outside the tree: \['zz'\]"):
        check(tree, [Cord("t01", "zz")])
