"""Differential tests against reference_cords.py: the colour-dict
breadth-first search that graph_necessary_checks used before it read
partner bitsets, on seeded random graphs built from isolated taxa,
bipartite components and components with an odd cycle; and
format_cord_distances as it read one value per cord, on seeded maps."""

import random

import pytest

from reference_cords import bfs_graph_necessary_checks
from reference_cords import format_cord_distances as one_lookup_per_cord
from treelasso import Cord, PartialDistance, format_cord_distances
from treelasso.cords import graph_necessary_checks


def _component(rng, labels, kind):
    """Cords making *labels* one connected component of the given kind."""
    if kind == "isolated":
        return set()
    rng.shuffle(labels)
    side = {labels[0]: 0}
    cords = set()
    for k, t in enumerate(labels[1:], start=1):  # a random spanning tree
        u = rng.choice(labels[:k])
        side[t] = 1 - side[u]
        cords.add(Cord(t, u))
    pairs = [(u, v) for i, u in enumerate(labels) for v in labels[i + 1 :]]
    for u, v in rng.sample(pairs, rng.randint(0, len(pairs) // 2)):
        if side[u] != side[v]:  # extra cords across the two colour classes
            cords.add(Cord(u, v))
    if kind == "odd":
        u, v = rng.choice([p for p in pairs if side[p[0]] == side[p[1]]])
        cords.add(Cord(u, v))
    return cords


def _case(rng):
    """A random graph, its taxa and the verdicts fixed by its construction."""
    labels = [f"t{i:02d}" for i in range(rng.randint(1, 14))]
    rng.shuffle(labels)
    cords, kinds, start = set(), [], 0
    while start < len(labels):
        size = min(rng.randint(1, 6), len(labels) - start)
        kind = "isolated" if size == 1 else rng.choice(["bipartite", "odd"] if size > 2 else ["bipartite"])
        cords |= _component(rng, labels[start : start + size], kind)
        kinds.append(kind)
        start += size
    return cords, set(labels), (len(kinds) <= 1, all(k == "odd" for k in kinds))


def test_matches_breadth_first_search_on_seeded_graphs():
    rng = random.Random(20121)
    seen = set()
    for case in range(2500):
        cords, taxa, expected = _case(rng)
        got = graph_necessary_checks(cords, taxa)
        assert got == bfs_graph_necessary_checks(cords, taxa) == expected, f"case {case}"
        seen.add(got)
    assert len(seen) == 4  # every combination of the two verdicts occurs


def test_stray_taxa_raise_as_in_the_reference():
    cords, taxa = {Cord("a", "b"), Cord("b", "z")}, {"a", "b"}
    for checks in (graph_necessary_checks, bfs_graph_necessary_checks):
        with pytest.raises(ValueError, match=r"outside X: \['z'\]"):
            checks(cords, taxa)


def test_format_matches_one_lookup_per_cord():
    rng = random.Random(20122)
    special = [0.0, -0.0, 5e-324, 1e-300, 1.0, 0.1, 1e12, 1e308, 1.7976931348623157e308]
    for case in range(300):
        labels = [rng.choice(["t", "x", "taxon_", "A"]) + str(i) for i in range(rng.randint(2, 12))]
        pairs = [(a, b) for i, a in enumerate(labels) for b in labels[i + 1 :]]
        d = PartialDistance(
            {
                Cord(a, b): rng.choice(special) if rng.random() < 0.3 else rng.uniform(0, 10 ** rng.randint(-3, 6))
                for a, b in rng.sample(pairs, rng.randint(1, len(pairs)))
            }
        )
        assert format_cord_distances(d) == one_lookup_per_cord(d), f"case {case}"
    assert format_cord_distances(PartialDistance({Cord("a", "b"): -0.0})) == "a\tb\t-0.0\n"
