"""Differential test: closest_leaf_transversal, one distance search per
interior vertex, against the per-oriented-edge loop it replaced
(reference_cover.py), on seeded trees with both modes and random tiebreak
orders."""

import random

from treelasso import XTree, closest_leaf_transversal, random_tree
from reference_cover import per_edge_closest_leaf_transversal


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
            assert got == per_edge_closest_leaf_transversal(tree, mode=mode, tiebreak=tiebreak), (seed, mode)
            if seed % 3 == 0 and tiebreak is not None:
                tiebreak_mattered += got != closest_leaf_transversal(tree, mode=mode)
    assert two_taxa > 0
    assert tiebreak_mattered > 50  # ties are common on unit-weight trees
