"""Differential sweep: full_distance and induced_distance, which read every
requested leaf distance off one pass over the rooted index, against the
breadth-first search and fsum of each path (reference_tree.py).  Values are
compared by repr, so a sign of zero or a last bit cannot hide."""

import math
import random

import pytest

import reference_tree as ref
from treelasso import PartialDistance, XTree, full_distance, induced_distance, parse_newick, random_tree


def _caterpillar(n, rng, weight=lambda rng: rng.uniform(0.5, 2.0)):
    spine = list(range(n, 2 * n - 2))
    host = [spine[0], spine[0], *spine[1:-1], spine[-1], spine[-1]]
    edges = [(i, host[i], weight(rng)) for i in range(n)]
    edges += [(u, v, weight(rng)) for u, v in zip(spine, spine[1:])]
    return XTree(edges, {i: f"c{i:03d}" for i in range(n)})


def _spread(rng):
    return 10.0 ** rng.uniform(-12, 12)


def _reweighted(tree, weight):
    """The same tree with edge weights weight(u, v, w)."""
    edges = [(u, v, weight(u, v, w)) for u, v, w in tree.edges()]
    return XTree(edges, {tree.leaf_vertex(t): t for t in tree.taxa})


def _trees():
    rng = random.Random(16)
    out = [random_tree(n, seed=n) for n in (3, 4, 5, 6, 7, 9, 12, 16, 23, 31, 47, 64, 100, 141, 200)]
    out += [_caterpillar(n, rng) for n in (3, 4, 10, 57, 300)]
    out += [
        parse_newick("(a:1,b:2.5,c:0.3,d:4,e:5,f:0.125);"),  # a star
        parse_newick("(a:1,b:2,(c:1,d:1,e:3):0.5,(f:1,g:1,h:0.7,i:2):2);"),
        XTree([(0, 1, 1.5)], {0: "a", 1: "b"}),
        XTree([(0, 1, 1.5)], {0: "b", 1: "a"}),  # rooted at the other leaf
        XTree([(0, 1, 0.0)], {0: "a", 1: "b"}),
        XTree([(0, 1, -0.0)], {0: "a", 1: "b"}),
    ]
    # Leaf edges of length 0 and -0.
    zeros = (0.0, -0.0)
    out += [
        _reweighted(random_tree(n, seed=n + 1), lambda u, v, w: zeros[u % 2] if u < n else w)
        for n in (4, 9, 30)
    ]
    out.append(_caterpillar(20, rng, lambda rng: rng.choice((0.0, -0.0, 1.0))))
    # Weights spread over 1e-12..1e12, so the exact sums need several floats.
    out += [_reweighted(random_tree(n, seed=n + 2), lambda u, v, w: _spread(rng)) for n in (5, 17, 60, 120)]
    out.append(_caterpillar(150, rng, _spread))
    return out


TREES = _trees()


def _id(tree):
    return f"n{tree.n_leaves}-{tree.newick()[:20] if tree.n_leaves >= 3 else tree.edges()}"


@pytest.mark.parametrize("tree", TREES, ids=_id)
def test_full_and_induced_distance_match_the_path_sums(tree):
    taxa = sorted(tree.taxa)
    table = {x: ref.distances_from(tree, x) for x in taxa}
    d = full_distance(tree)
    assert len(d) == len(taxa) * (len(taxa) - 1) // 2
    for x, y in d:
        assert repr(d[x, y]) == repr(table[x][y]), (x, y)
    # Random subsets, each cord a plain pair in either order.
    rng = random.Random(tree.n_leaves)
    pairs = list(d)
    for k in sorted({0, 1, len(pairs) // 7, len(pairs) // 2}):
        chosen = [p if rng.random() < 0.5 else p[::-1] for p in rng.sample(pairs, k)]
        sub = induced_distance(tree, chosen)
        assert len(sub) == k
        for x, y in chosen:
            assert repr(sub.value(x, y)) == repr(table[x][y]), (x, y)


@pytest.mark.parametrize("tree", TREES, ids=_id)
def test_distances_need_no_second_check(tree):
    """full_distance and induced_distance hand their values to
    PartialDistance unchecked; the constructor's check would keep every key,
    in order, and every value's float.hex, the sign of a zero included."""
    rng = random.Random(tree.n_leaves)
    full = full_distance(tree)
    for d in (full, induced_distance(tree, rng.sample(list(full), len(full) // 3))):
        checked = PartialDistance(dict(d.items()))
        assert list(checked) == list(d)
        assert [checked[c].hex() for c in checked] == [d[c].hex() for c in d]
        assert all(type(d[c]) is float for c in d)


def test_root_paths_past_half_the_float_range():
    # Root-path sums pass 9e307 here, so twice one of them overflows; the
    # distances do not.
    tree = XTree(
        [(0, 10, 1.0), (1, 10, 1.0), (10, 11, 1e308), (11, 2, 1.0), (11, 3, 1.0)],
        {0: "a", 1: "b", 2: "x", 3: "y"},
    )
    d = full_distance(tree)
    assert d.value("x", "y") == 2.0
    for x, y in d:
        assert repr(d.value(x, y)) == repr(ref.distance(tree, x, y))


def test_a_path_sum_that_overflows_raises_as_distance_does():
    tree = XTree(
        [(0, 10, 1e308), (1, 10, 1e308), (10, 11, 1.0), (11, 2, 1.0), (11, 3, 1.0)],
        {0: "a", 1: "b", 2: "x", 3: "y"},
    )
    with pytest.raises(OverflowError):
        tree.distance("a", "b")
    with pytest.raises(OverflowError):
        full_distance(tree)
    d = induced_distance(tree, [("x", "y"), ("a", "x"), ("b", "y")])
    assert [d.value(*c) for c in d] == [1e308, 1e308, 2.0]
    assert math.isfinite(tree.distance("a", "x"))
