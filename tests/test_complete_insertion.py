"""reconstruct builds the tree of a complete map by four-point insertion
(reconstruct._insert), with Neighbor-Joining only where insertion declines or
its tree fails the check.  On tree metrics insertion gives NJ's splits, with
weights within 1e-9 relative, and NJ never runs.  Ties, zero-length edges,
stars and values near the float range decline, and print NJ's bytes.  On
noisy complete maps no verdict moves from a tree to an error, and an error
keeps NJ's message unless the input now gets a tree."""

import itertools
import math
import random
import subprocess
import sys
import warnings

import pytest

from test_pair_distances import _caterpillar, _reweighted
from test_reconstruct_check import HUGE_STAR, HUGE_STAR_NEWICK, _complete, _on_the_boundary
from treelasso import (
    Cord,
    NonAdditiveError,
    PartialDistance,
    XTree,
    format_cord_distances,
    full_distance,
    is_equivalent,
    neighbor_joining,
    parse_newick,
    random_tree,
    reconstruct,
)
from treelasso.reconstruct import VERIFY_EPSILON, _check, _insert
from treelasso.tolerance import DEFAULT_EPSILON


@pytest.fixture
def nj_calls(monkeypatch):
    """How often reconstruct ran neighbor_joining."""
    calls = []
    module = sys.modules["treelasso.reconstruct"]
    nj = module.neighbor_joining

    def spy(*args, **kwargs):
        calls.append(1)
        return nj(*args, **kwargs)

    monkeypatch.setattr(module, "neighbor_joining", spy)
    return calls


def _scaled(tree, scale):
    return _reweighted(tree, lambda u, v, w: w * scale)


def _clean_trees():
    rng = random.Random("insertion")
    for n in [*range(3, 40), *range(40, 161, 15)]:
        yield f"random n={n}", _scaled(random_tree(n, seed=n), 10.0 ** rng.randrange(-6, 7))
    for n in (3, 4, 5, 12, 60, 160):
        yield f"caterpillar n={n}", _scaled(_caterpillar(n, rng), 10.0 ** rng.randrange(-6, 7))
    for scale in (1e-6, 1e6):
        yield f"random n=50 scale={scale}", _scaled(random_tree(50, seed=7), scale)
        yield f"caterpillar n=50 scale={scale}", _scaled(_caterpillar(50, rng), scale)


def _nj_tree(d):
    """The parent route for a complete map: NJ, then the check."""
    tree = neighbor_joining(d)
    _check(tree, d, VERIFY_EPSILON)
    return tree


def _fits(tree, d, verify_eps=VERIFY_EPSILON):
    try:
        _check(tree, d, verify_eps)
    except NonAdditiveError:
        return False
    return True


def _assert_same_tree(got, expected, tag):
    """The same splits, with weights within 1e-9 relative."""
    assert is_equivalent(got, expected), tag
    weights = expected.split_weights()
    for split, w in got.split_weights().items():
        assert abs(w - weights[split]) <= 1e-9 * max(w, weights[split]), (tag, split)


@pytest.mark.parametrize("name, tree", list(_clean_trees()), ids=lambda x: x if isinstance(x, str) else "")
def test_insertion_gives_nj_splits_and_nj_never_runs(nj_calls, name, tree):
    d = full_distance(tree)
    got = reconstruct(d)
    assert not nj_calls, name
    assert got.tree.newick() == _insert(d, DEFAULT_EPSILON).newick()
    _assert_same_tree(got.tree, tree, name)
    _assert_same_tree(got.tree, neighbor_joining(d), name)


def test_two_taxa_give_nj_edge(nj_calls):
    for value in (1.5, 0.0):
        d = PartialDistance({Cord("a", "b"): value})
        assert reconstruct(d).tree.edges() == neighbor_joining(d).edges()
    assert not nj_calls


def _zero_interior(n, seed):
    """A random tree with about half its interior edges of length 0."""
    rng = random.Random(f"zero:{seed}")
    tree = random_tree(n, seed=seed)
    leaves = {tree.leaf_vertex(t) for t in tree.taxa}
    return _reweighted(tree, lambda u, v, w: 0.0 if u not in leaves and v not in leaves and rng.random() < 0.5 else w)


def _jittered(d, seed):
    """d with each value scaled by 1 + f, |f| <= 1e-12: a zero-length edge
    then reads as a tiny one of either sign, well within eps."""
    rng = random.Random(f"jitter:{seed}")
    return PartialDistance({c: v * (1 + rng.uniform(-1e-12, 1e-12)) for c, v in d.items()})


def _degenerate():
    for n, seed in ((5, 1), (8, 2), (13, 3), (30, 4), (70, 5)):
        d = full_distance(_zero_interior(n, seed))
        yield f"zero interior n={n}", d
        yield f"jittered zero interior n={n}", _jittered(d, seed)
    yield "star", full_distance(parse_newick("(a:1,b:2.5,c:0.3,d:4,e:5,f:0.125);"))
    yield "unit star", PartialDistance({Cord(f"x{a}", f"x{b}"): 2.0 for a, b in itertools.combinations(range(6), 2)})
    yield "huge star", HUGE_STAR
    for leaf in (0, 4):  # r's own leaf edge, and another
        d = full_distance(_reweighted(random_tree(9, seed=3), lambda u, v, w: 0.0 if u == leaf else w))
        yield f"zero leaf edge {leaf}", d
        yield f"jittered zero leaf edge {leaf}", _jittered(d, leaf)


@pytest.mark.parametrize("name, d", list(_degenerate()), ids=lambda x: x if isinstance(x, str) else "")
def test_degenerate_maps_decline_and_print_nj_bytes(nj_calls, name, d):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _insert(d, DEFAULT_EPSILON) is None, name
        assert reconstruct(d).tree.newick() == neighbor_joining(d).newick(), name
    assert len(nj_calls) == 1


@pytest.mark.parametrize("seed", range(40))
def test_inputs_that_fit_no_tree_keep_nj_message(seed):
    d = _complete(seed)
    with pytest.raises(NonAdditiveError) as expected:
        _nj_tree(d)
    with pytest.raises(NonAdditiveError) as got:
        reconstruct(d)
    assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("seed", range(16))
def test_the_quiet_check_gives_the_verdict_of_the_check(seed):
    # verify_eps k ulps either side of each tree's own gap, where only the
    # exact sums decide; the quiet check says no early only on a sure miss.
    d, _ = _on_the_boundary(seed)
    for tree in filter(None, (neighbor_joining(d), _insert(d, DEFAULT_EPSILON))):
        gap = max(abs(tree.distance(*c) - v) for c, v in d.items())
        for k in range(-2, 3):
            verify_eps = gap
            for _ in range(abs(k)):
                verify_eps = math.nextafter(verify_eps, math.inf if k > 0 else 0.0)
            assert _check(tree, d, verify_eps, quiet=True) == _fits(tree, d, verify_eps) == (k >= 0), (seed, k)
        assert not _check(tree, d, gap / 2, quiet=True)


def _diameter(tree, largest):
    """The tree with its weights scaled to put its largest distance at *largest*."""
    return _reweighted(tree, lambda u, v, w: w * (largest / max(full_distance(tree).values())))


#: Complete maps near the largest float: the first five with sums of two
#: values past it, where insertion declines; the last two with none.  There
#: the inserted tree misses values by rounding alone, past the absolute
#: VERIFY_EPSILON, fails the check and goes to NJ.
NEAR_THE_RANGE = [
    HUGE_STAR,
    full_distance(parse_newick("((a:4e307,b:4e307):1e307,(c:4e307,d:4e307):1e307,e:4e307);")),
    full_distance(_caterpillar(6, None, lambda rng: 3e307)),
    full_distance(_diameter(random_tree(12, seed=1), 1.6e308)),
    full_distance(_diameter(_caterpillar(10, random.Random(1)), 1.7e308)),
    full_distance(_diameter(random_tree(12, seed=1), 8e307)),
    full_distance(_diameter(_caterpillar(10, random.Random(1)), 8.5e307)),
]


@pytest.mark.parametrize("k", range(len(NEAR_THE_RANGE)))
def test_values_near_the_float_range_print_nj_bytes(tmp_path, k):
    d = NEAR_THE_RANGE[k]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        inserted = _insert(d, DEFAULT_EPSILON)  # never raises
    assert inserted is None if k < 5 else not _fits(inserted, d)
    try:
        expected = (0, _nj_tree(d).newick() + "\n", "")
    except NonAdditiveError as exc:
        expected = (3, "", f"error: inconsistent distances: {exc}\n")
    path = tmp_path / "near.tsv"
    path.write_text(format_cord_distances(d))
    proc = subprocess.run([sys.executable, "-m", "treelasso", "reconstruct", str(path)], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == expected
    if k == 0:
        assert proc.stdout == HUGE_STAR_NEWICK + "\n"


def _noisy(level, seed):
    rng = random.Random(f"noise:{level}:{seed}")
    n = rng.choice((4, 5, 6, 8, 12, 20, 33))
    scale = 10.0 ** rng.choice((-3, 0, 0, 3, 6))
    tree = random_tree(n, seed=seed, weight_range=(0.5 * scale, 2.0 * scale))
    return PartialDistance({c: v * (1 + rng.uniform(-level, level)) for c, v in full_distance(tree).items()})


@pytest.mark.parametrize("level", [1e-12, 1e-10, 1e-8, 1e-6, 1e-4])
@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
def test_no_verdict_moves_from_a_tree_to_an_error(level, exact):
    for seed in range(30):
        d = _noisy(level, seed)
        try:
            expected = _nj_tree(d)
        except NonAdditiveError as exc:
            expected = str(exc)
        try:
            got = reconstruct(d, exact_rational=exact).tree
        except NonAdditiveError as exc:
            assert str(exc) == expected, (level, seed)  # an error then, the same error now
            continue
        if isinstance(expected, XTree):  # NJ averages the noise, insertion does not
            assert is_equivalent(got, expected), (level, seed)
