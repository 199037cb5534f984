"""Differential tests: the greedy peel behind is_2dtree against the memoised
backtracking it replaced (reference_lasso.py), on a seeded sweep of graphs,
and the peel lemma: deleting any degree-2 vertex of a 2d-tree leaves one.
Also tree_from_2dtree against the breadth-first construction it replaced,
which must build the same tree."""

import itertools
import random

from treelasso import (
    Cord,
    closest_leaf_transversal,
    is_2dtree,
    min_order_transversal,
    random_tree,
    tree_from_2dtree,
    triplet_cover,
)
from treelasso.cords import cord_taxa
from reference_lasso import backtracking_is_2dtree, bfs_tree_from_2dtree

#: Labels of mixed length, so that label order and insertion order differ.
LABELS = [*"abcdefgh", "aa", "ab", "ba", "b1", "t01", "t10", "t2", "x", "xy", "z9"]


def _outcome(fn, cords, taxa):
    """The ordering or None, or the type and message of the error raised."""
    try:
        return fn(cords, taxa)
    except ValueError as exc:
        return type(exc), str(exc)


def _two_d_tree(rng, labels):
    """A random 2d-tree by the definition: an edge, then each vertex joined
    to two earlier ones."""
    return _two_d_tree_in_order(rng, rng.sample(labels, len(labels)))


def _two_d_tree_in_order(rng, order):
    cords = {Cord(order[0], order[1])}
    for i in range(2, len(order)):
        cords.update(Cord(order[i], t) for t in rng.sample(order[:i], 2))
    return cords


def _pairs(labels):
    return [Cord(a, b) for a, b in itertools.combinations(labels, 2)]


def _edge_moved(rng, cords, labels, drop=True, add=True):
    """The cords with a random one dropped and a random non-cord added."""
    non_edges = sorted(set(_pairs(labels)) - cords)
    if drop:
        cords = cords - {rng.choice(sorted(cords))}
    if add and non_edges:
        cords = cords | {rng.choice(non_edges)}
    return cords


def _random_graph(rng, labels, edges):
    pairs = _pairs(labels)
    return set(rng.sample(pairs, min(len(pairs), edges)))


def _case(seed):
    """A seeded (cords, taxa) pair on 2..12 taxa; taxa None means the cords'
    own taxa."""
    rng = random.Random(seed)
    n = rng.randrange(2, 13)
    labels = rng.sample(LABELS, n)
    mode = seed % 8
    if mode == 0:
        return _two_d_tree(rng, labels), None
    if mode == 1:
        return _edge_moved(rng, _two_d_tree(rng, labels), labels), None
    if mode == 2:
        # One cord too few or one too many.
        drop = rng.random() < 0.5
        return _edge_moved(rng, _two_d_tree(rng, labels), labels, drop, not drop), None
    if mode in (3, 7):
        return _random_graph(rng, labels, 2 * n - 3), None
    if mode == 4:
        # Taxa passed explicitly: exactly the cords' taxa, one isolated
        # taxon besides them, or one taxon short (a stray-taxa error).
        kind = seed // 8 % 4
        if kind == 0 or n < 3:
            return _two_d_tree(rng, labels), set(labels)
        if kind == 1:
            return _two_d_tree(rng, labels[1:]), set(labels)
        if kind == 2:
            return _random_graph(rng, labels[1:], 2 * n - 3), set(labels)
        cords = _two_d_tree(rng, labels)
        return cords, set(labels) - {rng.choice(labels)}
    tree = random_tree(max(n, 3), seed=seed)
    if mode == 5:
        order = sorted(tree.taxa)
        rng.shuffle(order)
        return set(triplet_cover(tree, min_order_transversal(tree, order))), set(tree.taxa)
    return set(triplet_cover(tree, closest_leaf_transversal(tree))), None


def _sweep(count=2400):
    for seed in range(count):
        yield _case(seed)


def test_peel_identical_to_backtracking():
    verdicts = {"yes": 0, "no": 0, "error": 0}
    isolated_at_full_count = 0
    for cords, taxa in _sweep():
        expected = _outcome(backtracking_is_2dtree, cords, taxa)
        assert _outcome(is_2dtree, cords, taxa) == expected, (sorted(cords), taxa)
        first_branch = _outcome(lambda c, t: backtracking_is_2dtree(c, t, greedy=True), cords, taxa)
        assert first_branch == expected
        if isinstance(expected, tuple):
            verdicts["error"] += 1
        else:
            verdicts["yes" if expected is not None else "no"] += 1
        if taxa is not None and taxa - cord_taxa(cords) and len(cords) == 2 * len(taxa) - 3:
            isolated_at_full_count += 1
    assert verdicts["yes"] >= 500 and verdicts["no"] >= 500 and verdicts["error"] > 0
    assert isolated_at_full_count > 0


def test_deleting_any_degree_two_vertex_keeps_a_2dtree():
    checked = 0
    for cords, taxa in _sweep():
        if not isinstance(_outcome(backtracking_is_2dtree, cords, taxa), list):
            continue  # not a 2d-tree, or stray taxa
        vertices = cord_taxa(cords) if taxa is None else set(taxa)
        if len(vertices) < 3:
            continue
        for v in sorted(vertices):
            if sum(1 for c in cords if v in (c.a, c.b)) != 2:
                continue
            rest = {c for c in cords if v not in (c.a, c.b)}
            assert backtracking_is_2dtree(rest, vertices - {v}) is not None, (sorted(cords), v)
            checked += 1
    assert checked >= 1000


def _same_tree(cords, ordering):
    built, expected = tree_from_2dtree(cords, ordering), bfs_tree_from_2dtree(cords, ordering)
    assert built.edges() == expected.edges(), ordering
    leaves = {built.leaf_vertex(t): t for t in built.taxa}
    assert leaves == {expected.leaf_vertex(t): t for t in expected.taxa}
    assert built.newick() == expected.newick()


def test_construction_identical_to_breadth_first_search():
    checked = 0
    for seed in range(2000):
        rng = random.Random(seed)
        if seed % 10 == 0:  # stable covers, with their is_2dtree ordering
            tree = random_tree(3 + seed // 20 % 98, seed=seed)
            if seed // 10 % 2:
                transversal = closest_leaf_transversal(tree)
            else:
                order = sorted(tree.taxa)
                rng.shuffle(order)
                transversal = min_order_transversal(tree, order)
            cords = triplet_cover(tree, transversal)
            orderings = [is_2dtree(cords, tree.taxa)]
        else:  # 2d-trees by the definition, with both orderings
            labels = [f"x{i}" for i in range(rng.randrange(3, 31))]
            order = rng.sample(labels, len(labels))
            cords = _two_d_tree_in_order(rng, order)
            orderings = [order, is_2dtree(cords)]
        for ordering in orderings:
            _same_tree(cords, ordering)
            checked += 1
    assert checked >= 3800


def test_construction_on_a_ladder_identical_to_breadth_first_search():
    # Vertex i is adjacent to i-1 and i-2, so each path runs down the
    # growing tree's spine.
    ladder = [Cord(f"v{i:03d}", f"v{i - k:03d}") for i in range(400) for k in (1, 2) if i >= k]
    _same_tree(ladder, is_2dtree(ladder))
