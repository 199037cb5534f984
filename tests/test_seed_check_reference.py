"""_extend checks each block row with the engine's own ready-set test; the
reference (reference_lasso.batched_seed_extend) is the batched seeds' check
it replaced, which broadcast all of one taxon's rows against its sets in
chunks.  Seeded differential sweeps on the block-check families (drop, 2d,
dense), clean and noisy, through reconstruct and closure, float and, at
n <= 24, exact; and a handmade row that fails on two sets, pinning which
one the message names."""

import random
import sys
from collections import Counter

import pytest

from reference_lasso import batched_seed_extend
from test_reconstruct_closure_path import _family_case
from treelasso import (
    Cord,
    InconsistentDistanceError,
    NonAdditiveError,
    PartialDistance,
    closure,
    induced_distance,
    parse_newick,
    reconstruct,
)

MODULE = sys.modules["treelasso.reconstruct"]


def _outcomes(d, exact):
    """Per entry point, reconstruct then closure: exit code and message, or
    exit code, tree or missing cords, and the trace's lines."""
    out = []
    for run in (reconstruct, closure):
        try:
            result = run(d, exact_rational=exact)
        except (InconsistentDistanceError, NonAdditiveError) as exc:
            out.append((3, str(exc)))
            continue
        trace = result if run is closure else result.trace
        done = trace.is_complete if run is closure else result.ok
        shown = result.tree.newick() if run is reconstruct and done else sorted(map(str, trace.missing))
        out.append((0 if done else 2, shown, trace.lines()))
    return out


@pytest.fixture
def both(monkeypatch):
    """(d, exact) -> (outcomes, the reference's outcomes); "seeded" counts
    the reference runs that had block seeds."""
    runs = Counter()

    def reference(taxa, d, eps, blocks=(), values=None):
        runs["seeded"] += any(rows for _, _, rows in blocks)
        return batched_seed_extend(taxa, d, eps, blocks, values)

    def run(d, exact):
        got = _outcomes(d, exact)
        with monkeypatch.context() as patch:
            patch.setattr(MODULE, "_extend", reference)
            return got, _outcomes(d, exact)

    run.runs = runs
    return run


@pytest.mark.parametrize("noise", [0.0, 1e-12, 1e-10, 1e-8, 1e-6, 1e-4])
def test_same_outcomes_as_the_batched_seed_check(both, noise):
    codes = Counter()
    for k in range(90):
        rng = random.Random(f"seed check:{k}")
        n = rng.randrange(6, 41)
        tree, cords = _family_case(rng, n, ("drop", "2d", "dense")[k % 3])
        d = PartialDistance({c: v * (1 + noise * rng.uniform(-1, 1)) for c, v in induced_distance(tree, cords).items()})
        for exact in (False, True) if n <= 24 else (False,):
            got, expected = both(d, exact)
            assert got == expected, (k, exact)
            codes.update(code for code, *_ in got)
    # When this was written, over the 260 runs of each level, exit 0/2/3
    # were (88, 146, 26) up to 1e-10 (the 26 exact runs of the exact
    # route's 1-ulp quartets) and (88, 88, 84) from 1e-8 on, with 231
    # seeded runs of the reference per level.
    assert both.runs["seeded"] >= 200 and codes[0] and codes[2]
    assert codes[3] >= 50 if noise >= 1e-8 else codes[3] <= 30


#: Unit weights, and t01-t08 raised by 1 below.  The first block places
#: t04, t08, t03 and t07 on {t01, t02}, t08 by the anchors t01 and t04, so
#: its known cords agree with it, and its row t07-t02 is 9.0 (the tree
#: gives 5.0).  That row fails on two sets with a taxon off the block:
#: {t03, t09}, which gives 10.0, and {t05, t09}, which gives 5.0.
#: Taking the set with the off taxon first would name the second.
SKEWED = parse_newick("(t01:1,((t02:1,((t03:1,(t07:1,t08:1):1):1,t05:1):1):1,t06:1):1,(t04:1,t09:1):1);")
SKEWED_CORDS = (
    "01-02", "01-04", "01-06", "01-07", "01-08", "02-04", "02-05", "02-09", "03-04",
    "03-07", "03-08", "03-09", "04-06", "04-08", "05-07", "05-09", "07-09", "08-09",
)


def test_a_row_failing_on_two_sets_names_the_lexicographic_first(both):
    d = dict(induced_distance(SKEWED, {Cord(*(f"t{x}" for x in c.split("-"))) for c in SKEWED_CORDS}))
    d[Cord("t01", "t08")] += 1.0
    for exact in (False, True):
        got, expected = both(PartialDistance(d), exact)
        assert got == expected == [(3, "t02-t07 derivable as both 9.0 and 10.0")] * 2
