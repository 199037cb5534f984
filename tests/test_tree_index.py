"""Differential tests: XTree's rooted index against the per-query searches
it replaced (reference_tree.py), and the local stability pass against the
all-pairs scan (same verdict, a valid witness), on seeded trees."""

import itertools
import random

import pytest

import reference_tree as ref
from test_engine_reference import _zero_interior
from treelasso import (
    XTree,
    min_order_transversal,
    parse_newick,
    random_tree,
    stability_violation,
)


def _caterpillar(n, rng):
    text = "t01"
    for i in range(2, n + 1):
        text = f"({text}:{rng.uniform(0.1, 3)},t{i:02d}:{rng.uniform(0.1, 3)})"
    return parse_newick(text + ";")


def _trees():
    rng = random.Random(7)
    out = [random_tree(n, seed=seed) for seed in range(3) for n in (3, 4, 5, 8, 13, 21, 34, 40)]
    out += [_caterpillar(n, rng) for n in (3, 6, 17, 30)]
    out += [_zero_interior(random_tree(n, seed=n), rng) for n in (5, 12, 25)]
    out += [
        parse_newick("(a:1,b:2,(c:1,d:1,e:3):0.5,(f:1,g:1):2);"),
        XTree([(0, 1, 1.5)], {0: "a", 1: "b"}),
    ]
    return out


TREES = _trees()
RESOLVED = [t for t in TREES if t.n_leaves >= 4]


def _id(tree):
    return f"n{tree.n_leaves}-{tree.newick()[:24] if tree.n_leaves >= 3 else 'edge'}"


@pytest.mark.parametrize("tree", TREES, ids=_id)
def test_path_queries_match_the_searches(tree):
    table = ref.hops(tree)
    for x, y in itertools.product(sorted(tree.taxa), repeat=2):
        assert tree.distance(x, y).hex() == ref.distance(tree, x, y).hex()
        assert tree.path_edges(x, y) == ref.path_edges(tree, x, y)
        assert tree._hops(x, y) == table[x][y]


@pytest.mark.parametrize("tree", TREES, ids=_id)
def test_side_queries_match_the_searches(tree):
    for u, v, _ in tree.edges():
        assert tree.side_leaves(u, v) == ref.side_leaves(tree, u, v)
        assert tree.side_leaves(v, u) == ref.side_leaves(tree, v, u)
    for v in tree.interior_vertices():
        assert tree.components(v) == ref.components(tree, v)
    weights = ref.split_weights(tree)
    assert tree.clusters() == ref.clusters(tree)
    assert tree.splits() == frozenset(weights)
    assert tree.split_weights() == weights


@pytest.mark.parametrize("tree", RESOLVED, ids=_id)
def test_quartet_topologies_match_the_searches(tree):
    table = ref.hops(tree)
    quartets = list(itertools.combinations(sorted(tree.taxa), 4))
    for q in random.Random(tree.n_leaves).sample(quartets, min(len(quartets), 300)):
        for a, b, c, d in (q, q[::-1], (q[2], q[0], q[3], q[1])):
            assert tree.quartet_topology(a, b, c, d) == ref.quartet_topology(table, a, b, c, d)


def _checked_witness(f, tree):
    """stability_violation(f, tree), after checking that its verdict agrees
    with the scan's and that a witness (A, B) is valid: f(A) ∈ B ⊊ A,
    f(A) != f(B), and B is a child cluster of A, the side of an edge that
    shares a vertex with A's edge, away from A's edge."""
    witness = stability_violation(f, tree)
    assert (witness is None) == (ref.stability_violation(f, tree) is None)
    if witness is not None:
        a, b = witness
        assert f[a] in b and b < a and f[a] != f[b]
        sides = {}
        for u, v, _ in tree.edges():
            sides[u, v], sides[v, u] = tree.side_leaves(u, v), tree.side_leaves(v, u)
        assert any(
            sides[u, v] == a and sides[w, u] == b
            for u, v in sides
            for w in tree.neighbors(u)
            if w != v
        )
    return witness


@pytest.mark.parametrize("tree", RESOLVED, ids=_id)
def test_stability_witness_matches_the_scan(tree):
    # The all-pairs scan decides the verdict.  The witness may be another
    # violating pair than the scan's first, but it must be a valid one.
    rng = random.Random(tree.n_leaves)
    taxa = sorted(tree.taxa)
    witnesses = 0
    for _ in range(8):
        order = rng.sample(taxa, len(taxa))
        f = min_order_transversal(tree, order)
        assert stability_violation(f, tree) is None
        assert ref.stability_violation(f, tree) is None
        for cluster in rng.sample(sorted(f, key=sorted), rng.randint(1, 3)):
            f[cluster] = rng.choice(sorted(cluster))
        witnesses += _checked_witness(f, tree) is not None
        # A pick outside its cluster (f is then no transversal) as well.
        f[rng.choice(sorted(f, key=sorted))] = rng.choice(taxa)
        _checked_witness(f, tree)
    assert witnesses  # the perturbations do break stability
