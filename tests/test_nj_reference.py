"""Differential sweep: neighbor_joining, which fills its matrix in one pass
and reduces it in place, against the NJ that filled it one Cord at a time
and shrank it with np.delete (reference_reconstruct.py).  Both must build
the same edges, weights compared by float.hex, or raise the same exception
with the same message."""

import random

import pytest

import reference_reconstruct as ref
from test_pair_distances import _caterpillar, _reweighted
from treelasso import Cord, NonAdditiveError, PartialDistance, XTree, full_distance, neighbor_joining, random_tree


def _interior(tree, u, v):
    return tree.degree(u) > 1 and tree.degree(v) > 1


def _noisy(d, rng, relative):
    return PartialDistance({c: v * (1 + rng.uniform(-relative, relative)) for c, v in d.items()})


def _corrupted(d, rng, count):
    """d with *count* values scaled by 0.05-3: far off any tree metric."""
    values = dict(d.items())
    for cord in rng.sample(sorted(values), count):
        values[cord] *= rng.uniform(0.05, 3.0)
    return PartialDistance(values)


def _cases():
    rng = random.Random(18)
    yield "two taxa", full_distance(XTree([(0, 1, 1.5)], {0: "a", 1: "b"}))
    for n in [*range(3, 80), *range(80, 201, 6)]:
        yield f"random n={n}", full_distance(random_tree(n, seed=n))
    for n in (3, 4, 5, 10, 33, 120):
        yield f"caterpillar n={n}", full_distance(_caterpillar(n, rng))
    for n in (4, 6, 9, 17, 40, 90):  # every weight 1: many Q-ties
        yield f"unit n={n}", full_distance(_reweighted(random_tree(n, seed=n), lambda u, v, w: 1.0))
        yield f"unit caterpillar n={n}", full_distance(_caterpillar(n, rng, lambda rng: 1.0))
    for n in (5, 8, 13, 30, 70):
        tree = random_tree(n, seed=100 + n)
        zero = _reweighted(tree, lambda u, v, w: 0.0 if _interior(tree, u, v) and rng.random() < 0.4 else w)
        yield f"zero interior n={n}", full_distance(zero)
    for n in (4, 7, 12, 25, 60, 150):
        yield f"noise n={n}", _noisy(full_distance(random_tree(n, seed=200 + n)), rng, 1e-8)
    for n in (4, 5, 6, 8, 11, 16, 24, 40):
        for k in range(3):
            d = full_distance(random_tree(n, seed=300 + 10 * n + k))
            yield f"corrupted n={n} k={k}", _corrupted(d, rng, max(2, len(d) // 4))


def _outcome(nj, d):
    try:
        tree = nj(d)
    except Exception as exc:  # the class and the message are compared
        return type(exc), str(exc)
    return [(u, v, float(w).hex()) for u, v, w in tree.edges()], sorted((t, tree.leaf_vertex(t)) for t in tree.taxa)


def test_neighbor_joining_matches_the_reference():
    negative = 0
    for name, d in _cases():
        expected = _outcome(ref.neighbor_joining, d)
        assert _outcome(neighbor_joining, d) == expected, name
        negative += expected[0] is NonAdditiveError and expected[1].startswith("negative branch length")
    assert negative >= 5  # the corrupted inputs reach the length check


@pytest.mark.parametrize("taxa", [3, 4, 6])
def test_ties_break_to_the_first_pair_like_the_reference(taxa):
    # All distances equal: every pair ties in the Q-criterion.
    names = [f"x{i}" for i in range(taxa)]
    d = PartialDistance({Cord(a, b): 2.0 for i, a in enumerate(names) for b in names[i + 1:]})
    assert _outcome(neighbor_joining, d) == _outcome(ref.neighbor_joining, d)
