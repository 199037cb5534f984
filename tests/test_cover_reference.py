"""Differential tests against the cover code each rewrite replaced
(reference_cover.py): closest_leaf_transversal, one distance search per
interior vertex, against the per-oriented-edge loop, on seeded trees with
both modes and random tiebreak orders; is_cover and is_triplet_cover on
partner bitsets against the per-vertex component maps, on seeded trees and
cord sets; the transversal, stability and triplet-cover functions on one
side table per call against the code that rebuilt the clusters in each; and
the bitset engine (the constructors, the checks and triplet_cover on
cluster bitsets) against the side table of label sets it replaced, with the
Transversal mapping that the constructors now return."""

import itertools
import os
import random
import subprocess
import sys

import pytest

import reference_cover as ref
from test_pair_distances import _reweighted
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
    parse_newick,
    random_tree,
    stability_violation,
    triplet_cover,
)
from treelasso.cover import Transversal
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


CONSTRUCTORS = {
    "min_order_transversal": lambda tree, f: min_order_transversal(tree),
    "closest_leaf_transversal": lambda tree, f: closest_leaf_transversal(tree),
}
CHECKS = {
    "is_transversal": lambda tree, f: is_transversal(f, tree),
    "stability_violation": lambda tree, f: stability_violation(f, tree),
    "is_stable": lambda tree, f: is_stable(f, tree),
    "triplet_cover": lambda tree, f: triplet_cover(tree, f),
}
CALLS = {"split_weights": lambda tree, f: tree.split_weights(), **CONSTRUCTORS, **CHECKS}


@pytest.mark.parametrize("name", CALLS)
def test_one_side_table_per_call(monkeypatch, name):
    """The constructors, and each check on a Transversal, turn at most the
    two clusters of a witness into label sets (the bitset engine); a check
    on a plain dict, and split_weights, turn at most one bitset per
    oriented edge, 2(2n-3), into a label set (one side table)."""
    members = _RootedIndex.members
    calls = []
    monkeypatch.setattr(_RootedIndex, "members", lambda index, bits: calls.append(1) or members(index, bits))
    witnesses = 0
    for tree in (random_tree(3, seed=1), random_tree(136, seed=1), _caterpillar(40, random.Random(1))):
        stable = min_order_transversal(tree)
        unstable = Transversal(tree, stable)
        for cluster in sorted((c for c in stable if len(c) > 1), key=sorted):
            unstable[cluster] = max(cluster)
            if stability_violation(unstable, tree) is not None:
                break
            unstable[cluster] = stable[cluster]
        for f in (stable, unstable):
            plain = dict(f)
            calls.clear()
            _outcome(CALLS[name], tree, f)
            if name in CHECKS:
                assert len(calls) <= 2, tree.n_leaves
                witnesses += len(calls) == 2
                calls.clear()
                _outcome(CALLS[name], tree, plain)
            if name in CONSTRUCTORS:
                assert not calls, tree.n_leaves
            else:
                assert 0 < len(calls) <= 2 * (2 * tree.n_leaves - 3), tree.n_leaves
    if name in ("stability_violation", "triplet_cover"):
        assert witnesses == 2


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


# -- the bitset engine against the side table of label sets -----------------


def _multifurcating(n, rng):
    """A random tree on n taxa whose interior vertices have degree 3 to 5."""
    items = [f"m{i:02d}:{rng.uniform(0.5, 2.0)}" for i in range(n)]
    while len(items) > 4:
        group = [items.pop(rng.randrange(len(items))) for _ in range(min(rng.choice((2, 3, 4)), len(items) - 3))]
        items.append(f"({','.join(group)}):{rng.uniform(0.5, 2.0)}")
    return parse_newick(f"({','.join(items)});")


def _engine_case(seed):
    """A seeded tree from one of the nine families below, and the seeded
    generator that drew it."""
    rng = random.Random(seed)
    family = seed % 9
    n = rng.randrange(3, 91)
    if family == 0:
        tree = random_tree(n, seed=seed, weight_range=(1.0, 1.0))
    elif family == 1:
        tree = _caterpillar(n, rng)
    elif family == 2:
        tree = _reweighted(_caterpillar(n, rng), lambda u, v, w: 1.0)
    elif family == 3:  # weights on a grid, jittered by about 1e-9: ties at eps
        grid = lambda u, v, w: rng.choice((0.5, 1.0, 1.5)) + rng.choice((-1e-9, 0.0, 1e-9))
        tree = _reweighted(random_tree(n, seed=seed), grid)
    elif family == 4:
        tree = _reweighted(random_tree(n, seed=seed), lambda u, v, w: 10.0 ** rng.uniform(-12, 12))
    elif family == 5:  # leaf edges of length 0 and -0.0
        zeros = (0.0, -0.0, 1.0)
        tree = _reweighted(random_tree(n, seed=seed), lambda u, v, w: rng.choice(zeros) if u < n else w)
    elif family == 6:
        tree = _multifurcating(n, rng)
    elif family == 7:  # two and three taxa
        tree = XTree([(0, 1, rng.choice((0.0, 1.0)))], {0: "b", 1: "a"}) if seed % 2 else random_tree(3, seed=seed)
    else:
        tree = random_tree(n, seed=seed)
    return tree, rng


def test_bitset_engine_identical_to_the_side_table():
    seen = {"multifurcating": 0, "two": 0, "unstable": 0}
    for seed in range(200):
        tree, rng = _engine_case(seed)
        order = sorted(tree.taxa)
        rng.shuffle(order)
        order = order if seed % 3 else None
        eps = ({}, {"eps": 0.0}, {"eps": 1e-6})[seed // 9 % 3]
        picks = [(min_order_transversal(tree, order), ref.min_order_transversal(tree, order))]
        for mode in ("closest", "furthest"):
            got = closest_leaf_transversal(tree, mode=mode, tiebreak=order, **eps)
            picks.append((got, ref.closest_leaf_transversal(tree, mode=mode, tiebreak=order, **eps)))
        for got, want in picks:
            assert isinstance(got, Transversal)
            assert got == want and want == got, seed
            assert list(got._picks) == list(tree._side_bits.values()), seed  # edges() order
            if tree.is_fully_resolved():
                for force in (False, True):
                    cover = _message(triplet_cover, tree, got, force=force)
                    assert cover == _message(ref.side_table_triplet_cover, tree, want, force=force), seed
                    seen["unstable"] += isinstance(cover, str)
        seen["multifurcating"] += not tree.is_fully_resolved()
        seen["two"] += tree.n_leaves == 2
    # Closest picks within eps of each other need not be stable.
    assert seen["multifurcating"] > 15 and seen["two"] > 5 and seen["unstable"] > 0


def _message(fn, *args, **kwargs):
    """What fn returns, or the text of the ValueError it raises."""
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        return f"ValueError: {exc}"


def test_bitset_checks_give_the_side_table_witnesses_and_messages():
    seen = {"witness": 0, "stable": set(), "messages": set()}
    for seed in range(50):
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
            for variant, plain in enumerate(_repicks(tree, dict(f), rng)):
                want = (
                    _message(ref.side_table_stability_violation, plain, tree),
                    _message(ref.side_table_is_transversal, plain, tree),
                    _message(ref.side_table_is_stable, plain, tree),
                    *(_message(ref.side_table_triplet_cover, tree, plain, force=force) for force in (False, True)),
                )
                for g in (plain, Transversal(tree, plain)):
                    got = (
                        _message(stability_violation, g, tree),
                        _message(is_transversal, g, tree),
                        _message(is_stable, g, tree),
                        *(_message(triplet_cover, tree, g, force=force) for force in (False, True)),
                    )
                    assert got == want, (seed, pick, variant, type(g).__name__)
                witness, _, stable, cover, _ = want
                seen["witness"] += isinstance(witness, tuple)
                seen["stable"].add(stable if isinstance(stable, bool) else "error")
                if isinstance(cover, str):
                    seen["messages"].add(next(k for k in ("missing", "outside", "not stable") if k in cover))
    assert seen["stable"] == {True, False, "error"} and seen["witness"] > 40
    assert seen["messages"] == {"missing", "outside", "not stable"}


def test_transversal_is_a_mapping_of_clusters():
    tree = parse_newick("((a:1,b:2):1,(c:1,d:1):1,e:3);")
    f = min_order_transversal(tree)
    want = ref.min_order_transversal(tree)
    assert f == want and want == f and dict(f) == want and {**f} == want
    assert len(f) == len(want) == 2 * 7
    ab, abc = frozenset("ab"), frozenset("abc")
    assert ab in f and f[ab] == "a" and abc not in f and 7 not in f
    with pytest.raises(KeyError):
        f[abc]  # not a cluster of the tree
    with pytest.raises(KeyError):
        f[frozenset("az")]  # z is no taxon
    f[ab] = "b"
    assert f[ab] == "b" and f != want and f == {**want, ab: "b"}
    f[abc] = "c"  # a foreign key is kept as given, last
    assert list(f)[-1] == abc and f[abc] == "c" and len(f) == 15
    assert list(f.items())[-1] == (abc, "c") and list(f.values())[-1] == "c"
    witness = stability_violation(f, tree)
    assert witness[1] == ab and witness == ref.side_table_stability_violation(dict(f), tree)
    del f[abc], f[ab]
    assert ab not in f and len(f) == 13
    with pytest.raises(KeyError):
        del f[ab]
    with pytest.raises(ValueError, match=r"missing 1 cluster\(s\), e.g. \{a,b\}"):
        is_transversal(f, tree)
    f[ab] = "a"
    assert f == want and list(f)[-1] == ab  # reinserted last, as in a dict
