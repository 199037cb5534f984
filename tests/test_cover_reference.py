"""Differential tests against the cover code each rewrite replaced
(reference_cover.py): closest_leaf_transversal, one distance search per
interior vertex, against the per-oriented-edge loop, on seeded trees with
both modes and random tiebreak orders; is_cover and is_triplet_cover on
partner bitsets against the per-vertex component maps, on seeded trees and
cord sets; and the transversal, stability and triplet-cover functions on one
side table per call against the code that rebuilt the clusters in each."""

import itertools
import os
import random
import subprocess
import sys

import pytest

import reference_cover as ref
from test_tree_index import _caterpillar
from treelasso import (
    Cord,
    XTree,
    closest_leaf_transversal,
    is_cover,
    is_stable,
    is_transversal,
    is_triplet_cover,
    min_order_transversal,
    random_tree,
    stability_violation,
    triplet_cover,
)
from treelasso.tree import _RootedIndex


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


def _outcome(fn, *args, **kwargs):
    """What fn returns, or the type of the ValueError it raises: the messages
    for a missing cluster and an unstable transversal changed on purpose."""
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        return type(exc)


def _repicks(tree, f, rng):
    """f; f with one cluster re-picked to another of its members (often not
    stable); f with that cluster mapped outside it (not a transversal); and
    f without it (not total)."""
    yield f
    big = sorted((c for c in f if len(c) > 1), key=sorted)
    if not big:
        return
    c = rng.choice(big)
    yield {**f, c: rng.choice(sorted(c - {f[c]}))}
    outside = sorted(tree.taxa - c)
    if outside:
        yield {**f, c: rng.choice(outside)}
    yield {k: v for k, v in f.items() if k != c}


def test_side_table_checks_agree_with_the_cluster_rebuilds():
    seen = {"stable": set(), "witness": 0, "cover": 0}
    for seed in range(120):
        tree = _tree(seed)
        rng = random.Random(seed)
        order = sorted(tree.taxa)
        rng.shuffle(order)
        stable_picks = (
            min_order_transversal(tree, order),
            closest_leaf_transversal(tree, tiebreak=order),
            closest_leaf_transversal(tree, mode="furthest", tiebreak=order),
        )
        for pick, f in enumerate(stable_picks):
            for variant, g in enumerate(_repicks(tree, f, rng)):
                case = (seed, pick, variant)
                transversal = _outcome(is_transversal, g, tree)
                assert transversal == _outcome(ref.is_transversal, g, tree), case
                witness = _outcome(stability_violation, g, tree)
                assert witness == _outcome(ref.stability_violation, g, tree), case
                stable = _outcome(is_stable, g, tree)
                assert stable == _outcome(
                    lambda: ref.is_transversal(g, tree) and ref.stability_violation(g, tree) is None
                ), case
                for force in (False, True):
                    cover = _outcome(triplet_cover, tree, g, force=force)
                    assert cover == _outcome(ref.triplet_cover, tree, g, force=force), case
                    seen["cover"] += isinstance(cover, frozenset)
                seen["stable"].add(stable)
                seen["witness"] += isinstance(witness, tuple)
    assert seen["stable"] == {True, False, ValueError}
    assert seen["witness"] > 200 and seen["cover"] > 800


CALLS = {
    "split_weights": lambda tree, f: tree.split_weights(),
    "min_order_transversal": lambda tree, f: min_order_transversal(tree),
    "closest_leaf_transversal": lambda tree, f: closest_leaf_transversal(tree),
    "is_transversal": lambda tree, f: is_transversal(f, tree),
    "stability_violation": lambda tree, f: stability_violation(f, tree),
    "is_stable": lambda tree, f: is_stable(f, tree),
    "triplet_cover": lambda tree, f: triplet_cover(tree, f),
}


@pytest.mark.parametrize("name", CALLS)
def test_one_side_table_per_call(monkeypatch, name):
    """Each call turns at most one bitset per oriented edge, 2(2n-3), into a
    label set."""
    members = _RootedIndex.members
    calls = []
    monkeypatch.setattr(_RootedIndex, "members", lambda index, bits: calls.append(1) or members(index, bits))
    for tree in (random_tree(3, seed=1), random_tree(136, seed=1), _caterpillar(40, random.Random(1))):
        f = min_order_transversal(tree)
        calls.clear()
        CALLS[name](tree, f)
        assert 0 < len(calls) <= 2 * (2 * tree.n_leaves - 3), tree.n_leaves


MISSING_CLUSTER = """
from treelasso import is_transversal, min_order_transversal, random_tree
tree = random_tree(12, seed=1)
f = {c: t for c, t in min_order_transversal(tree).items() if len(c) == 1 or "t01" not in c}
try:
    is_transversal(f, tree)
except ValueError as exc:
    print(exc)
"""


def test_missing_cluster_message_ignores_the_string_hash():
    """Every missing cluster contains t01, so a choice by smallest label ties;
    the message names the first in edge order under any hash seed."""
    messages = {
        subprocess.run(
            [sys.executable, "-c", MISSING_CLUSTER],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONHASHSEED": seed},
        ).stdout
        for seed in ("1", "2", "3")
    }
    assert len(messages) == 1
    assert messages.pop().startswith("transversal is missing 20 cluster(s), e.g. {t01,")
