"""Differential tests: leaf-path answers read from the rooted index and the
edge sides against the path walks they replaced (reference_lasso.py,
reference_tree.py): the path-incidence matrix, the oracle's LP rows and
witnesses, the hop count, and the certificate's "no" to a non-cover."""

import itertools
import random

import numpy as np
import pytest

import reference_lasso
import reference_tree as ref
from test_tree_index import TREES, _caterpillar, _id
from treelasso import (
    XTree,
    all_cords,
    edge_weight_lasso_certificate,
    is_cover,
    min_order_transversal,
    path_incidence_matrix,
    random_tree,
    topological_lasso_oracle,
    triplet_cover,
)
from treelasso.lasso import _bareiss_rank, _full_rank, _path_rows, _topologies


def _families():
    """(name, tree, cord set) at n = 4..300: the min-order cover, half of all
    pairs (the first half of a seeded shuffle), all pairs and no cords, on
    random trees and caterpillars."""
    rng = random.Random(34)
    trees = [random_tree(n, seed=n) for n in (4, 5, 8, 13, 40, 120, 300)]
    trees += [_caterpillar(n, rng) for n in (4, 9, 30, 300)]
    for tree in trees:
        pairs = sorted(all_cords(tree.taxa))
        random.Random(tree.n_leaves).shuffle(pairs)
        yield "cover", tree, triplet_cover(tree, min_order_transversal(tree))
        yield "half", tree, pairs[: len(pairs) // 2]
        yield "all", tree, pairs
        yield "none", tree, []


FAMILIES = list(_families())


@pytest.mark.parametrize(
    "tree, cords", [f[1:] for f in FAMILIES], ids=[f"{name}-n{tree.n_leaves}" for name, tree, _ in FAMILIES]
)
def test_incidence_matrix_matches_the_path_walks(tree, cords):
    # Rows come in cord order, so the matrix of a sorted run of cords is a
    # run of rows: compared in chunks, the references' lists stay small.
    cords = sorted(set(cords))
    if not cords:
        assert path_incidence_matrix(tree, cords) == []
    for start in range(0, len(cords), 4000):
        chunk = cords[start : start + 4000]
        assert path_incidence_matrix(tree, chunk) == reference_lasso.path_incidence_matrix(tree, chunk)


def test_oracle_lp_rows_match_the_candidate_trees():
    # Every topology on six taxa, as the oracle reads it from _topologies:
    # edges sorted as XTree.edges() sorts them, rows from the sides.
    taxa = [f"t{i}" for i in range(6)]
    cords = sorted(all_cords(taxa))
    bit = {t: i for i, t in enumerate(taxa)}
    ends = [bit[c.a] for c in cords], [bit[c.b] for c in cords]
    count = 0
    for bare, sides, leaf_of in _topologies(taxa, {}):
        edges, sides = zip(*sorted(((min(e), max(e)), bits) for e, bits in zip(bare, sides)))
        candidate = XTree([(u, v, 1.0) for u, v in bare], leaf_of)
        assert list(edges) == [(u, v) for u, v, _ in candidate.edges()]
        rows = _path_rows(sides, len(taxa), *ends).tolist()
        assert rows == reference_lasso.path_incidence_matrix(candidate, cords)
        count += 1
    assert count == 105


def _oracle_case(seed):
    """An oracle-small-style (tree, cords): a min-order cover at n=6 or 7 in
    a seeded order, or an n=6 cover less one cord."""
    rng = random.Random(f"oracle:{seed}")
    n = 6 if seed % 6 else 7
    tree = random_tree(n, seed=seed)
    order = rng.sample(sorted(tree.taxa), n)
    cover = set(triplet_cover(tree, min_order_transversal(tree, order)))
    if n == 6 and seed % 2:
        cover.discard(rng.choice(sorted(cover)))
    return tree, cover


def _bytes(witness):
    if witness is None:
        return None
    labels = sorted((t, witness.leaf_vertex(t)) for t in witness.taxa)
    return witness.newick(), [(u, v, w.hex()) for u, v, w in witness.edges()], labels


def test_oracle_witnesses_are_byte_identical():
    witnesses = 0
    for seed in range(12):
        tree, cords = _oracle_case(seed)
        got = _bytes(topological_lasso_oracle(tree, cords))
        assert got == _bytes(reference_lasso.exhaustive_oracle(tree, cords))
        witnesses += got is not None
    assert witnesses >= 3


@pytest.mark.parametrize("tree", [_caterpillar(1000, random.Random(1000))], ids=["caterpillar-1000"])
def test_hops_match_the_searches_at_n_1000(tree):
    table = ref.hops(tree)
    taxa = sorted(tree.taxa)
    rng = random.Random(1)
    pairs = [(taxa[0], y) for y in taxa] + [tuple(rng.sample(taxa, 2)) for _ in range(3000)]
    for x, y in pairs:
        assert tree._hops(x, y) == table[x][y]


@pytest.mark.parametrize("tree", TREES, ids=_id)
def test_index_order_is_a_preorder(tree):
    index = tree._index
    at = {v: k for k, v in enumerate(index.order)}
    assert sorted(at) == tree.vertices()
    size = dict.fromkeys(index.order, 1)
    for v in reversed(index.order[1:]):
        assert at[index.parent[v]] < at[v]
        size[index.parent[v]] += size[v]
    # Every subtree is the run of its size that starts at its root.
    for v in index.order:
        run = index.order[at[v] : at[v] + size[v]]
        assert len(run) == size[v]
        assert all(u == v or at[index.parent[u]] >= at[v] for u in run)


def _uncovered(tree, cords):
    """(v, a, b): an interior vertex v and two of its neighbours a, b whose
    sides of v no cord joins, by the definition; None for a cover."""
    joined = {frozenset(c) for c in cords}
    for v in tree.interior_vertices():
        for a, b in itertools.combinations(tree.neighbors(v), 2):
            sides = tree.side_leaves(a, v), tree.side_leaves(b, v)
            if not any(frozenset({x, y}) in joined for x in sides[0] for y in sides[1]):
                return v, a, b
    return None


def test_a_non_cover_has_a_kernel_vector_and_no_full_rank():
    non_covers = 0
    for seed in range(400):
        rng = random.Random(f"noncover:{seed}")
        n = 4 + seed % 11
        tree = random_tree(n, seed=seed)
        pairs = sorted(all_cords(tree.taxa))
        cords = frozenset(rng.sample(pairs, rng.randint(2 * n - 3, min(len(pairs), 3 * n))))
        matrix = path_incidence_matrix(tree, cords)
        full = _bareiss_rank([row[:] for row in matrix]) == 2 * n - 3
        assert _full_rank(tree, cords) == full
        assert edge_weight_lasso_certificate(tree, cords) == full
        hole = _uncovered(tree, cords)
        assert (hole is None) == is_cover(tree, cords)
        if hole is None:
            continue
        non_covers += 1
        v, a, b = hole
        w = [
            (1 if {x, y} in ({v, a}, {v, b}) else -1 if v in (x, y) else 0)
            for x, y, _ in tree.edges()
        ]
        assert sum(map(abs, w)) == 3
        assert not np.any(np.array(matrix) @ np.array(w))
        assert not full
    assert non_covers >= 100
