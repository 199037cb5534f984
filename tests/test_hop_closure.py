"""The bitset closure that answers is_shellable, against the quartet engine
on hop counts, the counting engine and the placement it replaced
(reference_lasso.py), and the callers that must answer without the engine."""

import random
from collections import Counter

import pytest

import treelasso.lasso
from treelasso import (
    Cord,
    all_cords,
    closest_leaf_transversal,
    edge_weight_lasso_certificate,
    integer_matrix_rank,
    is_shellable,
    min_order_transversal,
    path_incidence_matrix,
    random_tree,
    triplet_cover,
    verify_shelling,
)
from reference_lasso import counting_is_shellable, engine_is_shellable, placement, placement_steps


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


def _check(tree, cords, got, expected_missing):
    assert got.missing == expected_missing
    assert len(got.missing) == len(expected_missing) and frozenset(got.missing) == expected_missing
    verify_shelling(tree, cords, got.steps, require_complete=got.is_complete)
    for step in got.steps:  # pivots (x, y) orient as  a x || y b
        a, b = step.cord.a, step.cord.b
        assert frozenset({a, step.pivots[0]}) in tree.quartet_topology(a, b, *step.pivots)


def test_closure_matches_both_engines():
    verdicts = Counter()
    for seed in range(3000):
        family, tree, cords = _case(seed)
        expected = engine_is_shellable(tree, cords)
        assert expected.missing == counting_is_shellable(tree, cords).missing, (family, seed)
        _check(tree, cords, is_shellable(tree, cords), expected.missing)
        # In another taxon order, which starts the first block elsewhere.
        _check(tree, cords, is_shellable(tree, cords, random.Random(seed)), expected.missing)
        verdicts[family, bool(expected)] += 1
    for family in FAMILIES:
        assert verdicts[family, False] >= 100, family
    assert verdicts["cover+extras-k", True] and verdicts["2d-tree", True]


def test_closure_answers_where_placement_did():
    # The placement is_shellable tried first, before the closure answered
    # alone, and the rank the certificate falls back on.
    seen = Counter()
    for seed in range(3000):
        family, tree, cords = _case(seed)
        got = is_shellable(tree, cords)
        placed = placement_steps(tree, cords)
        n = tree.n_leaves
        if placed is not None:
            assert got.is_complete, (family, seed)
            if len(cords) > 2 * n - 3:  # both grow the smallest cord in a triangle
                assert got.steps == placed, (family, seed)
        if len(cords) >= 2 * n - 3:
            full_rank = integer_matrix_rank(path_incidence_matrix(tree, cords)) == len(tree.edges())
            assert edge_weight_lasso_certificate(tree, cords) == full_rank, (family, seed)
            seen["rank", full_rank] += 1
        seen["placed", placed is not None, len(cords) > 2 * n - 3] += 1
    assert seen["placed", True, True] >= 100 and seen["placed", True, False] >= 100
    assert seen["rank", True] >= 400 and seen["rank", False] >= 1000


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
        answered[placement(tree, cords) is None, got.is_complete] += 1
    # Every cover less one cord is a "no"; so are most random 2d-trees.
    assert answered[True, False] >= 2 * 11 + 1 + 4
