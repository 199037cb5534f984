"""reconstruct's closure path checks each cord inside a metric block,
known before the block grew, against the block's own tree, and cross-checks
the block's seeds only on quartets with a taxon outside the block; the
reference (reference_lasso.full_check_extend) cross-checks every seed
against every quartet.  Seeded differential sweeps on the drop, 2d and
dense families, clean and noisy, and two handmade clashes: a corrupt known
cord inside a block, and a clash between two overlapping blocks."""

import random
import sys
from collections import Counter

import pytest

from reference_lasso import full_check_extend
from test_reconstruct_closure_path import _family_case
from treelasso import (
    Cord,
    InconsistentDistanceError,
    NonAdditiveError,
    PartialDistance,
    induced_distance,
    parse_newick,
    reconstruct,
)

MODULE = sys.modules["treelasso.reconstruct"]


def _outcome(d):
    """Exit code and message, or exit code, tree or missing cords, and the
    trace's lines."""
    try:
        result = reconstruct(d)
    except (InconsistentDistanceError, NonAdditiveError) as exc:
        return 3, str(exc)
    shown = result.tree.newick() if result.ok else sorted(map(str, result.missing))
    return (0 if result.ok else 2), shown, result.trace.lines()


@pytest.fixture
def both(monkeypatch):
    """d -> (outcome, the reference's outcome); "seeded" counts the
    reference runs that had block seeds."""
    runs = Counter()

    def reference(taxa, cords, eps, blocks=(), values=None):
        runs["seeded"] += any(rows for _, _, rows in blocks)
        return full_check_extend(taxa, cords, eps, blocks, values)

    def run(d):
        got = _outcome(d)
        with monkeypatch.context() as patch:
            patch.setattr(MODULE, "_extend", reference)
            return got, _outcome(d)

    run.runs = runs
    return run


def _case(k):
    rng = random.Random(f"block check:{k}")
    n = rng.randrange(6, 31)
    return rng, *_family_case(rng, n, ("drop", "2d", "dense")[k % 3])


def test_clean_families_match_the_full_cross_check(both):
    codes = Counter()
    for k in range(90):
        _, tree, cords = _case(k)
        got, expected = both(induced_distance(tree, cords))
        assert got == expected, k
        codes[got[0]] += 1
    # When this was written: exit 0/2 (30, 60), 79 seeded runs.
    assert codes[0] and codes[2] and not codes[3]
    assert both.runs["seeded"] >= 40


@pytest.mark.parametrize("noise", [1e-12, 1e-8, 1e-4])
def test_noisy_families_exit_as_the_full_cross_check(both, noise):
    codes = Counter()
    for k in range(45):
        rng, tree, cords = _case(k)
        d = PartialDistance({c: v * (1 + noise * rng.uniform(-1, 1)) for c, v in induced_distance(tree, cords).items()})
        got, expected = both(d)
        assert got[0] == expected[0], k
        if got[0] != 3:  # the checks change no value: the same tree or missing cords, and trace
            assert got == expected, k
        codes[got[0]] += 1
    # When this was written: exit 0/2/3 (15, 30, 0) at 1e-12 and (15, 16,
    # 14) at 1e-8 and 1e-4, each clash named differently by the two checks.
    assert codes[0] and codes[2]


#: A caterpillar a-c-d-e-f-b with x next to a; x has one cord, so the block
#: from ab places c, d, e and f, each by the anchors a and b, and stops.
CATERPILLAR = parse_newick("((a:1,x:2):1,c:1,(d:1,(e:1,(f:1,b:1):1):1):1);")
CATERPILLAR_CORDS = ("ab", "ac", "bc", "ad", "bd", "ae", "be", "af", "bf", "ef", "ax")


def test_a_corrupt_known_cord_inside_a_block_is_named(both):
    # ef is given and lies inside the block, but is no anchor of f: the
    # block derives it as 3.0 from f's quartet with a, b and e.
    d = dict(induced_distance(CATERPILLAR, {Cord(*c) for c in CATERPILLAR_CORDS}))
    assert sorted(map(str, reconstruct(PartialDistance(d)).missing)) == ["bx", "cx", "dx", "ex", "fx"]
    d[Cord("e", "f")] += 0.5
    got, expected = both(PartialDistance(d))
    assert got == (3, "ef derivable as both 3.5 and 3.0")
    assert expected[0] == 3  # the full cross-check names a cord the block derives from ef


#: Two overlapping blocks, each consistent on its own: {t01, t04, t05,
#: t06} deriving t05-t06, and {t02, t03, t04, t05} deriving t03-t04 from
#: t04-t05, which is raised by 1.  Only a quartet with t01 or t06, outside
#: the second block, sees the clash.
OVERLAP = parse_newick("(t01:3,t02:2,((t03:3,t04:1):2,(t05:3,t06:3):3):2);")
OVERLAP_CORDS = ("01-04", "01-05", "01-06", "02-03", "02-04", "02-05", "03-05", "03-06", "04-05", "04-06")


def test_a_clash_between_overlapping_blocks_is_raised(both):
    d = dict(induced_distance(OVERLAP, {Cord(*(f"t{x}" for x in c.split("-"))) for c in OVERLAP_CORDS}))
    d[Cord("t04", "t05")] += 1.0
    got, expected = both(PartialDistance(d))
    assert got == expected == (3, "t03-t04 derivable as both 9.0 and 8.0")
