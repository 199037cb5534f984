"""The bitset closure that answers is_shellable when placement fails, against
the quartet engine on hop counts and the counting engine it replaced
(reference_lasso.py), and the callers that must answer without the engine."""

import random
from collections import Counter

import pytest

import treelasso.lasso
from treelasso import (
    Cord,
    ShellingResult,
    all_cords,
    closest_leaf_transversal,
    is_shellable,
    min_order_transversal,
    random_tree,
    triplet_cover,
    verify_shelling,
)
from treelasso.lasso import _hop_closure, _MissingCords, _placement
from reference_lasso import counting_is_shellable, engine_is_shellable


def _two_d_tree(rng, taxa, on_cords):
    """A 2d-tree on the taxa by the definition, in a random order: each later
    taxon joins two random earlier taxa, or both ends of a random earlier
    cord."""
    order = rng.sample(sorted(taxa), len(taxa))
    cords = [Cord(order[0], order[1])]
    for i in range(2, len(order)):
        ends = rng.choice(cords) if on_cords else rng.sample(order[:i], 2)
        cords += [Cord(order[i], t) for t in ends]
    return set(cords)


def _stable_cover(tree, rng):
    order = sorted(tree.taxa)
    rng.shuffle(order)
    kind = rng.choice(("min", "closest", "furthest"))
    if kind == "min":
        return set(triplet_cover(tree, min_order_transversal(tree, order)))
    return set(triplet_cover(tree, closest_leaf_transversal(tree, mode=kind, tiebreak=order)))


def _without(rng, cords, k):
    return cords - set(rng.sample(sorted(cords), min(k, len(cords) - 1)))


FAMILIES = ("random", "cover-k", "cover+extras-k", "2d-tree", "2d-tree-k", "two-halves")


def _case(seed, n=None):
    """(family, tree, cords) for one seed, n = 4..14 unless given: a random
    cord set, a stable cover minus 1-3 cords, a cover plus extras minus 1-3
    cords, a random 2d-tree with 0 cords removed, or with 1-2, or the union
    of two 2d-trees on overlapping halves of the taxa."""
    rng = random.Random(seed)
    n = n or rng.randrange(4, 15)
    tree = random_tree(n, seed=seed)
    family = FAMILIES[seed % len(FAMILIES)]
    everything = sorted(all_cords(tree.taxa))
    if family == "random":
        cords = set(rng.sample(everything, rng.randrange(1, len(everything) + 1)))
    elif family == "cover-k":
        cords = _without(rng, _stable_cover(tree, rng), rng.randrange(1, 4))
    elif family == "cover+extras-k":
        cover = _stable_cover(tree, rng)
        pool = sorted(set(everything) - cover)
        extras = set(rng.sample(pool, min(len(pool), rng.randrange(1, n))))
        cords = _without(rng, cover | extras, rng.randrange(1, 4))
    elif family.startswith("2d-tree"):
        cords = _two_d_tree(rng, tree.taxa, on_cords=rng.random() < 0.5)
        if family == "2d-tree-k":
            cords = _without(rng, cords, rng.randrange(1, 3))
    else:
        taxa = rng.sample(sorted(tree.taxa), n)
        half = n // 2 + 1
        cords = _two_d_tree(rng, taxa[:half], on_cords=False) | _two_d_tree(rng, taxa[-half:], on_cords=True)
    return family, tree, cords


def _check(tree, cords, got, expected_missing, oriented=True):
    assert got.missing == expected_missing
    assert len(got.missing) == len(expected_missing) and frozenset(got.missing) == expected_missing
    verify_shelling(tree, cords, got.steps, require_complete=got.is_complete)
    for step in got.steps if oriented else ():  # pivots (x, y) orient as  a x || y b
        a, b = step.cord.a, step.cord.b
        assert frozenset({a, step.pivots[0]}) in tree.quartet_topology(a, b, *step.pivots)


def test_closure_matches_both_engines():
    verdicts = Counter()
    for seed in range(3000):
        family, tree, cords = _case(seed)
        expected = engine_is_shellable(tree, cords)
        assert expected.missing == counting_is_shellable(tree, cords).missing, (family, seed)
        _check(tree, cords, is_shellable(tree, cords), expected.missing)
        # The closure alone, also where placement answers, in another taxon
        # order.
        steps, known = _hop_closure(tree, set(cords), random.Random(seed))
        closed = ShellingResult(steps, _MissingCords(tree._index.taxa, known))
        _check(tree, cords, closed, expected.missing, oriented=False)
        verdicts[family, bool(expected)] += 1
    for family in FAMILIES:
        assert verdicts[family, False] >= 100, family
    assert verdicts["cover+extras-k", True] and verdicts["2d-tree", True]


@pytest.mark.parametrize("n", [30, 45, 60])
def test_larger_cases_match_the_engine(n):
    for seed in range(n, n + len(FAMILIES)):
        family, tree, cords = _case(seed, n)
        _check(tree, cords, is_shellable(tree, cords), engine_is_shellable(tree, cords).missing)


def _covers_less_one_cord():
    for n in (5, 6, 7, 9, 12, 16, 21, 28, 37, 48, 60):
        tree = random_tree(n, seed=n)
        cover = sorted(_stable_cover(tree, random.Random(n)))
        yield tree, set(cover[1:])
        yield tree, set(cover[:-1])


def test_no_answers_never_enter_the_engine(monkeypatch, quartet_abcd, remark1_cords):
    cases = [*_covers_less_one_cord(), (quartet_abcd, set(remark1_cords))]
    for n in (8, 20, 40):
        rng = random.Random(n)
        tree = random_tree(n, seed=n)
        cases += [(tree, _two_d_tree(rng, tree.taxa, on_cords)) for on_cords in (False, True)]
    expected = [engine_is_shellable(tree, cords).missing for tree, cords in cases]

    def refuse(*args, **kwargs):
        raise AssertionError("the engine ran")

    monkeypatch.setattr(treelasso.lasso, "_extend", refuse)
    answered = Counter()
    for (tree, cords), missing in zip(cases, expected):
        got = is_shellable(tree, cords)
        _check(tree, cords, got, missing)
        answered[_placement(tree, cords) is None, got.is_complete] += 1
    # Every cover less one cord is a "no"; so are most random 2d-trees.
    assert answered[True, False] >= 2 * 11 + 1 + 4
