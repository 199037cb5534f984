"""closure against closure with the heap engine it replaced
(reference_lasso.heap_extend) in place of lasso._extend, on seeded
families: the stable cover less 1 or 2 cords, half and a quarter of all
pairs, and the cover with some cords swapped for others.  On clean input
both give the same exit code, missing cords and final cords, with values
within 1e-9 relative; on the noise grid the verdict moves are counted."""

import random
import sys
from collections import Counter

import pytest

from reference_lasso import heap_extend
from treelasso import (
    InconsistentDistanceError,
    PartialDistance,
    all_cords,
    closure,
    induced_distance,
    min_order_transversal,
    random_tree,
    triplet_cover,
)
from treelasso.tolerance import approx_equal

MODULE = sys.modules["treelasso.reconstruct"]
FAMILIES = ("cover-1", "cover-2", "half", "quarter", "swap")


def _case(family, seed):
    """A seeded rng and the distances of a *family* cord set, n = 6..24."""
    rng = random.Random(f"heap engine:{family}:{seed}")
    n = rng.randrange(6, 25)
    tree = random_tree(n, seed=rng.randrange(2**32))
    cover = sorted(triplet_cover(tree, min_order_transversal(tree)))
    pairs = sorted(all_cords(tree.taxa))
    if family in ("cover-1", "cover-2"):
        cords = set(cover) - set(rng.sample(cover, int(family[-1])))
    elif family in ("half", "quarter"):
        cords = rng.sample(pairs, len(pairs) // (2 if family == "half" else 4))
    else:  # k cords of the cover swapped for k others
        k = rng.randrange(1, 4)
        cords = set(cover) - set(rng.sample(cover, k)) | set(rng.sample(sorted(set(pairs) - set(cover)), k))
    return rng, induced_distance(tree, cords)


def _outcome(d):
    """The closure subcommand's exit code, and the trace."""
    try:
        trace = closure(d)
    except InconsistentDistanceError:
        return 3, None
    return (2 if trace.missing else 0), trace


@pytest.fixture
def both(monkeypatch):
    """d -> (outcome, the heap engine's outcome)."""

    def run(d):
        got = _outcome(d)
        with monkeypatch.context() as patch:
            patch.setattr(MODULE, "_extend", heap_extend)
            return got, _outcome(d)

    return run


@pytest.mark.parametrize("family", FAMILIES)
def test_clean_families_reach_the_heap_fixpoint(both, family):
    codes = Counter()
    for seed in range(24):
        _, d = _case(family, seed)
        (code, got), (expected_code, expected) = both(d)
        assert code == expected_code, seed
        codes[code] += 1
        assert got.missing == expected.missing, seed
        assert len(got.steps) == len(expected.steps), seed
        final, heap_final = dict(got.final), dict(expected.final)
        assert final.keys() == heap_final.keys(), seed
        assert all(approx_equal(v, heap_final[c], 1e-9) for c, v in final.items()), seed
    assert not codes[3] and codes[2] + codes[0] == 24


@pytest.mark.parametrize("noise", [1e-12, 1e-10, 1e-8, 1e-6, 1e-4])
def test_noise_grid_verdict_moves(both, noise):
    # Within eps either engine may derive a cord by another quartet, and a
    # clash may be met or missed, so verdicts can move; they are counted,
    # and each input must reach a verdict with both engines.  When this was
    # written: 3 moves, all exit 3 to exit 2, in 60 inputs at 1e-10, and
    # none at the other levels.
    moves = Counter()
    for family in FAMILIES:
        for seed in range(12):
            rng, d = _case(family, seed)
            noisy = PartialDistance({c: v * (1 + noise * rng.uniform(-1, 1)) for c, v in d.items()})
            (code, _), (expected_code, _) = both(noisy)
            moves[expected_code, code] += 1
    assert sum(moves.values()) == 60
