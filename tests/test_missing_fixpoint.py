"""The closures' fixpoint checked from its definition: when is_shellable,
closure or reconstruct stops, no missing cord xz has a ready set that
derives it, a set {x, z, p, q} with p and q known partners of both ends
and pq known, whose test is strict for xz: the tree's quartet for the
shelling closure, four_point at eps on the final values for the distance
closure.  When the oracle's bound closure stops, no unbounded cord xz has
such a set, with pq bounded, in which one of the pairings xp|zq and xq|zp
is surely below the other on the final bounds.  Each check reads the final
known cords alone, with no reference engine, whatever order the closure
took; and on a cover split into two blocks no missing cord is ever
tested."""

import itertools
import random

import pytest

import treelasso.lasso
from test_hop_closure import _case as shelling_case
from test_oracle_reference import _case as oracle_case
from test_reconstruct_closure_path import _family_case
from treelasso import (
    InconsistentDistanceError,
    NonAdditiveError,
    closure,
    induced_distance,
    is_shellable,
    min_order_transversal,
    random_tree,
    reconstruct,
    topological_lasso_oracle,
    triplet_cover,
)
from treelasso.lasso import _surely_below, four_point
from treelasso.tolerance import DEFAULT_EPSILON


def _ready_sets(taxa, missing):
    """(x, z, p, q) for each missing cord xz and each pair p, q of known
    partners of both x and z with pq known, every pair not in *missing*
    being known."""
    partners = {t: set(taxa) - {t} for t in taxa}
    for a, b in missing:
        partners[a].discard(b)
        partners[b].discard(a)
    for x, z in missing:
        shared = sorted(partners[x] & partners[z])
        for i, p in enumerate(shared):
            for q in shared[i + 1:]:
                if q in partners[p]:
                    yield x, z, p, q


def _assert_shelling_fixpoint(tree, result, tag) -> int:
    """Check every ready set of the shelling result; return their number."""
    ready = 0
    for ready, (x, z, p, q) in enumerate(_ready_sets(sorted(tree.taxa), result.missing), start=1):
        assert frozenset({x, z}) in tree.quartet_topology(x, z, p, q), (tag, x, z, p, q)
    return ready


def _assert_distance_fixpoint(trace, missing, tag) -> int:
    """Check every ready set of the closure's trace; return their number."""
    ready, v = 0, trace.final.value
    for ready, (x, z, p, q) in enumerate(_ready_sets(sorted(trace.final.taxa), missing), start=1):
        strict, _ = four_point(v(x, p) + v(z, q), v(x, q) + v(z, p), DEFAULT_EPSILON)
        assert not strict, (tag, x, z, p, q)
    return ready


def test_the_shelling_closure_leaves_no_ready_set():
    ready = 0
    for seed in range(3000):
        family, tree, cords = shelling_case(seed)
        for rng in (None, random.Random(seed)):
            ready += _assert_shelling_fixpoint(tree, is_shellable(tree, cords, rng), (family, seed, rng is None))
    # When this was written: 117,748 ready sets, 58,874 in each order.
    assert ready >= 100000, ready


def _distance_cases():
    for seed in range(600):  # the shelling families, as distances
        family, tree, cords = shelling_case(seed)
        yield (family, seed), induced_distance(tree, cords)
    for family in ("drop", "2d", "dense"):
        for k in range(30):
            rng = random.Random(f"fixpoint:{family}:{k}")
            tree, cords = _family_case(rng, rng.randrange(6, 31), family)
            yield (family, k), induced_distance(tree, cords)


def test_the_distance_closure_leaves_no_ready_set():
    codes, ready = {0: 0, 2: 0, 3: 0}, 0
    for tag, d in _distance_cases():
        try:
            trace, result = closure(d), reconstruct(d)
        except (InconsistentDistanceError, NonAdditiveError):
            codes[3] += 1
            continue
        ready += _assert_distance_fixpoint(trace, trace.missing, tag)
        if not result.ok:
            assert result.missing == trace.missing, tag
            _assert_distance_fixpoint(result.trace, result.missing, tag)
        codes[0 if result.ok else 2] += 1
    # Clean inputs: every incomplete closure is checked, and none clashes.
    # When this was written: 11,317 ready sets in the closures.
    assert codes[2] >= 300 and not codes[3] and ready >= 10000, (codes, ready)


@pytest.fixture
def tests_run(monkeypatch):
    """The number of missing cords the closures' shared driver tests."""
    runs = []
    loop = treelasso.lasso._missing_loop

    def counted(known, order, test):
        return loop(known, order, lambda x, z: runs.append((x, z)) or test(x, z))

    monkeypatch.setattr(treelasso.lasso, "_missing_loop", counted)
    return runs


def test_a_split_cover_tests_no_missing_cord(tests_run):
    # Less its cord at index n, the min-order cover at n=300 splits into
    # two blocks that share one taxon: no missing cord between them has two
    # known partners in common, so the start filter drops all 19,158.
    tree = random_tree(300, seed=1)
    cover = sorted(triplet_cover(tree, min_order_transversal(tree)))
    cords = set(cover) - {cover[300]}
    shelling = is_shellable(tree, cords)
    trace = closure(induced_distance(tree, cords))
    assert len(shelling.missing) == len(trace.missing) == 19158
    assert shelling.missing == trace.missing
    assert tests_run == []
    _assert_shelling_fixpoint(tree, shelling, "split")
    _assert_distance_fixpoint(trace, trace.missing, "split")


@pytest.fixture
def oracle_bounds(monkeypatch):
    """The final bounds of each bound closure the oracle runs on the shared
    driver: the partner bitsets of the bounded cords, and the map of each
    ordered pair of taxon indices to its bound (value, error), which the
    driver's test closes over."""
    runs = []
    loop = treelasso.lasso._missing_loop

    def kept(known, order, test):
        loop(known, order, test)
        cells = dict(zip(test.__code__.co_freevars, (cell.cell_contents for cell in test.__closure__)))
        runs.append((known, cells["bound"]))

    monkeypatch.setattr(treelasso.lasso, "_missing_loop", kept)
    return runs


def test_the_oracle_bound_closure_leaves_no_sure_set(oracle_bounds):
    ready = 0
    for seed in range(200):
        tree, cords, _ = oracle_case(seed)
        oracle_bounds.clear()
        topological_lasso_oracle(tree, cords)
        (known, bound), = oracle_bounds
        n = len(known)
        assert known == [sum(1 << q for q in range(n) if (p, q) in bound) for p in range(n)], seed
        for x, z in itertools.combinations(range(n), 2):
            if (x, z) in bound:
                continue
            common = [p for p in range(n) if (x, p) in bound and (z, p) in bound]
            for p, q in itertools.combinations(common, 2):
                if (p, q) in bound:
                    one, two = (bound[x, p], bound[z, q]), (bound[x, q], bound[z, p])
                    assert not _surely_below(one, two) and not _surely_below(two, one), (seed, x, z, p, q)
                    ready += 1
    # When this was written: 115 sets checked.
    assert ready >= 100, ready
