"""is_shellable against is_shellable with the shelling closure whose second
phase it replaced (reference_lasso.pending_hop_closure) in place of
lasso._hop_closure, with and without a taxon-order rng, on seeded
families: test_hop_closure's cases, the min-order cover less 1-3 cords at
n=50-200, and half and a quarter of all pairs at n=20-60.  Both must give
the same missing cords and step count, and every step must verify."""

import random
from collections import Counter

import pytest

import treelasso.lasso
from reference_lasso import pending_hop_closure
from test_hop_closure import _case as shelling_case
from treelasso import all_cords, is_shellable, min_order_transversal, random_tree, triplet_cover, verify_shelling


def _cases(family):
    """(tree, cords) of one family, seeded."""
    if family == "hop-closure":
        for seed in range(3000):
            yield shelling_case(seed)[1:]
    elif family == "cover-k":
        for k, n in enumerate(range(50, 201, 30)):
            tree = random_tree(n, seed=n)
            cover = sorted(triplet_cover(tree, min_order_transversal(tree)))
            yield tree, set(cover) - set(random.Random(n).sample(cover, 1 + k % 3))
    else:
        for n in (20, 30, 40, 50, 60):
            tree = random_tree(n, seed=n)
            pairs = sorted(all_cords(tree.taxa))
            random.Random(n).shuffle(pairs)
            yield tree, set(pairs[: len(pairs) // (2 if family == "half" else 4)])


@pytest.mark.parametrize("family", ["hop-closure", "cover-k", "half", "quarter"])
def test_same_closure_as_the_pending_bitsets(monkeypatch, family):
    library = treelasso.lasso._hop_closure
    derived = Counter()

    def counted(tree, given, rng=None):
        known, blocks, derivations = library(tree, given, rng)
        derived[bool(derivations)] += 1
        return known, blocks, derivations

    def both(tree, cords, seed):
        rng = None if seed is None else random.Random(seed)
        monkeypatch.setattr(treelasso.lasso, "_hop_closure", counted)
        got = is_shellable(tree, cords, rng)
        rng = None if seed is None else random.Random(seed)
        monkeypatch.setattr(treelasso.lasso, "_hop_closure", pending_hop_closure)
        return got, is_shellable(tree, cords, rng)

    for k, (tree, cords) in enumerate(_cases(family)):
        for seed in (None, k):
            got, expected = both(tree, cords, seed)
            assert got.missing == expected.missing, (family, k, seed)
            assert len(got.steps) == len(expected.steps), (family, k, seed)
            verify_shelling(tree, cords, got.steps, require_complete=got.is_complete)
    # Past the blocks, cords are derived on every input of half and quarter
    # and on some of test_hop_closure's; on the covers less some cords, the
    # blocks derive all there is.
    assert derived[True] >= {"hop-closure": 800, "cover-k": 0, "half": 10, "quarter": 10}[family], derived
