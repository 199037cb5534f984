"""Differential sweep: full_distance and induced_distance, which read every
requested leaf distance off one pass over the rooted index, against the
breadth-first search and fsum of each path (reference_tree.py).  Values are
compared by repr, so a sign of zero or a last bit cannot hide.  Trees whose
root-path sums fit int64 and trees whose sums do not (huge, subnormal or
widely spread weights) take the two evaluators of the one exact formula;
both are pinned here, and so are the paths at the top of the float range."""

import math
import random
import sys

import numpy as np
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


TREE_MODULE = sys.modules["treelasso.tree"]
MAX = sys.float_info.max


@pytest.fixture
def routes(monkeypatch):
    """The names of the evaluators that the calls after it take, in order."""
    taken = []
    for name in ("_quotients_int64", "_quotients_int"):

        def spy(*args, name=name, evaluate=getattr(TREE_MODULE, name)):
            taken.append(name)
            return evaluate(*args)

        monkeypatch.setattr(TREE_MODULE, name, spy)
    return taken


def _assert_matches_the_path_sums(tree, pairs=None):
    d = full_distance(tree)
    for x, y in pairs or d:
        assert repr(d.value(x, y)) == repr(ref.distance(tree, x, y)) == repr(tree.distance(x, y)), (x, y)


def _heavy_caterpillar(last):
    """_caterpillar's shape on 10 taxa with integer weights: the spine sums
    to 2^61 - 16 and c009, the end of the longest root path, hangs by *last*."""
    weights = iter([1.0] * 8 + [7.0, last] + [2.0**61 - 256] + [40.0] * 6)
    return _caterpillar(10, None, lambda rng: next(weights))


def _largest_root_path(tree):
    index = tree._index
    up = {index.order[0]: 0}
    for v in index.order[1:]:
        up[v] = up[index.parent[v]] + int(tree.weight(v, index.parent[v]))
    return max(up.values())


@pytest.mark.parametrize("last, route", [(15.0, "_quotients_int64"), (16.0, "_quotients_int")])
def test_sums_up_to_two_to_the_61_take_int64(routes, last, route):
    tree = _heavy_caterpillar(last)
    assert _largest_root_path(tree) == 2**61 - 16 + int(last)
    d = full_distance(tree)
    assert routes == [route]
    table = {x: ref.distances_from(tree, x) for x in sorted(tree.taxa)}
    assert [repr(d[c]) for c in d] == [repr(table[x][y]) for x, y in d]


@pytest.mark.parametrize("weights", [(5e-324, 2.0**-1070, 3 * 5e-324), (5e-324, 2.0**-1070, 1.0, 0.375)], ids=["subnormal", "mixed"])
def test_subnormal_weights_take_python_ints(routes, weights):
    rng = random.Random(len(weights))
    tree = _reweighted(random_tree(12, seed=3), lambda u, v, w: rng.choice(weights))
    _assert_matches_the_path_sums(tree)
    assert routes == ["_quotients_int"]


@pytest.mark.parametrize(
    "weight, route",
    [(_spread, "_quotients_int"), (lambda rng: rng.randrange(1, 1000) / 8, "_quotients_int64")],
    ids=["spread", "eighths"],
)
def test_a_caterpillar_2000_deep(routes, weight, route):
    rng = random.Random(2000)
    tree = _caterpillar(2000, rng, weight)
    d = full_distance(tree)
    assert routes == [route]
    # Read off d's arrays: its Cord-keyed view of 2M cords costs seconds.
    table = np.zeros((2000, 2000))
    table[d._i, d._j] = table[d._j, d._i] = d._v
    at = {t: k for k, t in enumerate(d._taxa)}
    for x in ("c000", "c999", "c1999"):  # the first, a middle and the last taxon
        for y, v in ref.distances_from(tree, x).items():
            assert repr(table[at[x], at[y]].item()) == repr(v), (x, y)
    for x, y in [rng.sample(d._taxa, 2) for _ in range(500)]:
        assert repr(table[at[x], at[y]].item()) == repr(tree.distance(x, y)), (x, y)


def _four(x_u, u_w, w_y):
    """Taxa x and a on one side of edge u-w, y and b on the other, pendant
    edges of 1 but x's and y's: the path from x to y weighs x_u, u_w, w_y."""
    return XTree([(0, 4, x_u), (1, 4, 1.0), (4, 5, u_w), (5, 2, w_y), (5, 3, 1.0)], {0: "x", 1: "a", 2: "y", 3: "b"})


def test_a_sum_that_rounds_to_the_largest_float_returns_it():
    tree = _four(2.0**1023, 2.0**1023 - 2.0**971, 1.0)  # MAX + 1, exactly
    _assert_matches_the_path_sums(tree)
    assert full_distance(tree).value("x", "y") == MAX


def test_a_sum_that_fsum_overflows_midway_returns_the_largest_float():
    # MAX + 2^970 - 2^915 rounds to MAX, but fsum's running sum of these
    # weights reaches MAX + 2^970, a tie, which rounds to inf.
    weights = (MAX, 1.5 * 2.0**916, 2.0**970 - 2.0**917)
    with pytest.raises(OverflowError):
        math.fsum(weights)
    tree = _four(*weights)
    d = full_distance(tree)
    for x, y in d:
        assert repr(d.value(x, y)) == repr(tree.distance(x, y)) == repr(tree.distance(y, x)), (x, y)
    assert d.value("x", "y") == d.value("b", "x") == MAX


def test_a_sum_that_rounds_past_the_largest_float_raises():
    tree = _four(MAX, 2.0**970, 0.0)  # MAX + 2^970, a tie, rounds to inf
    with pytest.raises(OverflowError):
        tree.distance("x", "y")
    with pytest.raises(OverflowError):
        full_distance(tree)
    d = induced_distance(tree, [("a", "y"), ("a", "b"), ("b", "y")])
    assert [d.value(*c) for c in d] == [2.0**970, 2.0**970, 1.0]  # a-b, a-y, b-y: the 1s round away


def _sweep():
    """Seeded trees whose sums fit int64: random weights in [0.5, 2],
    re-parsed from their Newick or not, and multiples of 2^-10."""
    rng = random.Random(42)
    out = []
    for seed in range(40):
        tree = random_tree(rng.randrange(3, 141), seed=seed)
        out.append(parse_newick(tree.newick()) if seed % 2 else tree)
    out += [_reweighted(random_tree(n, seed=n), lambda u, v, w: rng.randrange(2**20) / 1024) for n in (5, 50, 140)]
    return out


def test_both_evaluators_give_the_same_floats(monkeypatch):
    fast, exact = TREE_MODULE._quotients_int64, TREE_MODULE._quotients_int
    calls = []

    def both(*args):
        calls.append(args)
        return fast(*args)

    monkeypatch.setattr(TREE_MODULE, "_quotients_int64", both)
    for tree in TREES + _sweep():
        full_distance(tree)
    assert len(calls) >= 60
    for args in calls:
        assert [v.hex() for v in fast(*args).tolist()] == [v.hex() for v in exact(*args).tolist()]
