"""Core tree representation: parsing, canonical writing, metric and
structural queries, random generation."""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treelasso import (
    NewickError,
    TreeError,
    XTree,
    is_equivalent,
    parse_newick,
    random_tree,
    split_weight_delta,
    write_newick,
)


class TestParseNewick:
    def test_quartet_with_explicit_weights(self):
        # Root suppression merges the two weight-1 root edges into the
        # single interior edge of weight 2; pendants stay 1.
        t = parse_newick("((a:1,b:1):1,(c:1,d:1):1);")
        weights = t.split_weights()
        interior = weights[
            frozenset({frozenset({"a", "b"}), frozenset({"c", "d"})})
        ]
        assert interior == 2.0
        assert t.distance("a", "b") == 2.0
        assert t.distance("a", "c") == 4.0

    def test_default_weights_survive_suppression(self):
        # A tree written without any lengths is unit-weighted, including the
        # edge created by suppressing the two-child root.
        t = parse_newick("((a,b),c);")
        assert sorted(w for _, _, w in t.edges()) == [1.0, 1.0, 1.0]
        assert t.distance("a", "c") == 2.0

    def test_mixed_missing_weights(self):
        # An explicit weight merged with a missing one counts the missing
        # side as the 1.0 default.
        t = parse_newick("((a:1,b:1):2,c);")
        assert t.distance("a", "c") == 1 + 2 + 1

    @pytest.mark.parametrize(
        "text",
        ["((a,b)", "(a,b));", "(a,,b,c);", "", ";", "(a:1 b:2,c);"],
    )
    def test_syntax_errors(self, text):
        with pytest.raises(NewickError):
            parse_newick(text)

    def test_error_carries_position(self):
        with pytest.raises(NewickError) as err:
            parse_newick("(a,\n(b,)\n,c);")
        assert err.value.line == 2

    def test_duplicate_label(self):
        with pytest.raises(NewickError, match="duplicate"):
            parse_newick("((a,b),a);")

    def test_fewer_than_three_leaves(self):
        with pytest.raises(NewickError, match="fewer than 3"):
            parse_newick("(a,b);")

    def test_negative_branch_length(self):
        with pytest.raises(NewickError, match="negative"):
            parse_newick("((a:1,b:-0.5),c);")

    def test_invalid_label_characters(self):
        with pytest.raises(NewickError):
            parse_newick("((a,b'),c);")

    def test_internal_labels_discarded(self):
        t = parse_newick("((a,b)support99,c);")
        assert t.taxa == {"a", "b", "c"}

    def test_multifurcation_is_readable(self):
        t = parse_newick("(a,b,c,d);")
        assert not t.is_fully_resolved()
        assert t.n_leaves == 4


class TestConstructor:
    @pytest.mark.parametrize("star_taxa", ["abc", "xyz"])
    def test_edge_count_of_a_tree_but_disconnected(self, star_taxa):
        # A star plus a triangle with a pendant leaf at each corner: one edge
        # fewer than vertices, every degree 1 or 3, every leaf labelled.
        star = [(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0)]
        triangle = [(10, 11, 1.0), (11, 12, 1.0), (10, 12, 1.0)]
        pendants = [(10, 13, 1.0), (11, 14, 1.0), (12, 15, 1.0)]
        other = "xyz" if star_taxa == "abc" else "abc"
        labels = dict(zip([1, 2, 3, 13, 14, 15], star_taxa + other))
        with pytest.raises(TreeError, match="^edges do not form a single tree$"):
            XTree(star + triangle + pendants, labels)


class TestWriteNewick:
    def test_canonical_quartet(self, quartet_abcd):
        # By hand: root at the interior vertex next to 'a'; children sorted
        # by smallest descendant are a, b, then the cd subtree at weight 2.
        assert write_newick(quartet_abcd) == "(a:1,b:1,(c:1,d:1):2);"

    def test_equal_trees_same_string(self):
        s1 = "((a:1,b:1):1,(c:1,d:1):1);"
        s2 = "((d:1,c:1):2,b:1,a:1);"  # same tree, different rooting/order
        assert parse_newick(s1).newick() == parse_newick(s2).newick()

    def test_round_trip_random_trees(self):
        for seed in range(25):
            t = random_tree(8, seed=seed, weight_range=(0.1, 3.0))
            back = parse_newick(t.newick())
            assert is_equivalent(t, back)
            assert split_weight_delta(t, back) <= 1e-12

    def test_deep_caterpillar_round_trip(self):
        # 5000 nesting levels, far past the interpreter's recursion limit.
        text = "t0001"
        for i in range(2, 5001):
            text = f"({text},t{i:04d})"
        tree = parse_newick(text + ";")
        written = tree.newick()
        again = parse_newick(written)
        assert again.newick() == written

        def split_bits(t):
            # splits() would hold O(n^2) labels; compare the index's bitsets
            # over the (shared) sorted taxa instead.
            index = t._index
            return {frozenset({b, index.full ^ b}) for v, b in index.below.items() if v != index.order[0]}

        assert len(split_bits(tree)) == 2 * 5000 - 3
        assert split_bits(again) == split_bits(tree)

    def test_two_leaf_tree_not_serialisable(self, quartet_abcd):
        with pytest.raises(TreeError):
            quartet_abcd.restrict({"a", "b"}).newick()


class TestPathDistance:
    def test_published_unit_distances(self, caterpillar7):
        assert caterpillar7.distance("a", "b") == 2.0
        assert caterpillar7.distance("c", "e") == 4.0
        assert caterpillar7.distance("c", "f") == 5.0

    def test_self_distance_zero(self, caterpillar7):
        assert caterpillar7.distance("d", "d") == 0.0

    def test_symmetric_exactly(self):
        t = random_tree(10, seed=3, weight_range=(0.01, 5.0))
        taxa = sorted(t.taxa)
        for x, y in itertools.combinations(taxa, 2):
            assert t.distance(x, y) == t.distance(y, x)

    def test_unknown_taxon(self, caterpillar7):
        with pytest.raises(KeyError):
            caterpillar7.distance("a", "zz")


class TestClusters:
    def test_snowflake_clusters(self, snowflake6):
        clusters = snowflake6.clusters()
        for pair in ({"a", "ap"}, {"b", "bp"}, {"c", "cp"}):
            assert frozenset(pair) in clusters
            assert snowflake6.taxa - pair in clusters
        for x in snowflake6.taxa:
            assert frozenset({x}) in clusters
            assert snowflake6.taxa - {x} in clusters
        # 9 edges, both sides each, no duplicates on this tree
        assert len(clusters) == 18

    def test_three_leaf_star(self):
        t = parse_newick("(x,y,z);")
        assert t.clusters() == frozenset(
            frozenset(s) for s in [{"x"}, {"y"}, {"z"}, {"x", "y"}, {"x", "z"}, {"y", "z"}]
        )

    def test_quartet_nontrivial_clusters(self, quartet_abcd):
        nontrivial = {c for c in quartet_abcd.clusters() if 1 < len(c) < 3}
        assert nontrivial == {frozenset({"a", "b"}), frozenset({"c", "d"})}


class TestRestrict:
    def test_snowflake_to_quartet(self, snowflake6):
        r = snowflake6.restrict({"a", "ap", "b", "c"})
        assert r.taxa == {"a", "ap", "b", "c"}
        assert r.quartet_topology("a", "ap", "b", "c") == frozenset(
            {frozenset({"a", "ap"}), frozenset({"b", "c"})}
        )

    def test_identity(self, caterpillar7):
        assert caterpillar7.restrict(caterpillar7.taxa) is caterpillar7

    def test_cherry_becomes_single_edge(self, caterpillar7):
        r = caterpillar7.restrict({"f", "g"})
        assert r.n_leaves == 2
        assert r.distance("f", "g") == caterpillar7.distance("f", "g")

    def test_preserves_distances_exactly_on_dyadic_weights(self):
        # Weights on a dyadic grid sum without rounding, so restriction must
        # preserve distances exactly no matter how chains merge.
        for seed in range(10):
            t = _dyadic_tree(9, seed)
            keep = sorted(t.taxa)[:5]
            r = t.restrict(keep)
            for x, y in itertools.combinations(keep, 2):
                assert r.distance(x, y) == t.distance(x, y)

    def test_preserves_distances_tightly_in_general(self):
        for seed in range(10):
            t = random_tree(10, seed=seed, weight_range=(0.05, 4.0))
            keep = sorted(t.taxa)[2:8]
            r = t.restrict(keep)
            for x, y in itertools.combinations(keep, 2):
                assert r.distance(x, y) == pytest.approx(t.distance(x, y), abs=1e-12)

    def test_too_few_taxa(self, caterpillar7):
        with pytest.raises(TreeError):
            caterpillar7.restrict({"a"})


class TestQuartetTopology:
    def test_snowflake_cherry_pairs(self, snowflake6):
        assert snowflake6.quartet_topology("a", "ap", "b", "bp") == frozenset(
            {frozenset({"a", "ap"}), frozenset({"b", "bp"})}
        )

    def test_caterpillar_separations(self, caterpillar7):
        # The published pivots for the missing cords assert these shapes.
        assert caterpillar7.quartet_topology("c", "e", "b", "f") == frozenset(
            {frozenset({"c", "b"}), frozenset({"f", "e"})}
        )
        assert caterpillar7.quartet_topology("b", "g", "a", "d") == frozenset(
            {frozenset({"b", "a"}), frozenset({"d", "g"})}
        )

    def test_star_unresolved(self):
        t = parse_newick("(a,b,c,d);")
        assert t.quartet_topology("a", "b", "c", "d") is None

    def test_distinctness_required(self, caterpillar7):
        with pytest.raises(TreeError):
            caterpillar7.quartet_topology("a", "a", "b", "c")


class TestCherries:
    def test_caterpillar_has_exactly_two(self, caterpillar7):
        assert caterpillar7.cherries() == [("a", "b"), ("f", "g")]

    def test_snowflake_has_three(self, snowflake6):
        assert snowflake6.cherries() == [("a", "ap"), ("b", "bp"), ("c", "cp")]

    def test_quartet(self, quartet_abcd):
        assert quartet_abcd.cherries() == [("a", "b"), ("c", "d")]

    def test_every_random_tree_has_a_cherry(self):
        for seed in range(20):
            assert random_tree(3 + seed % 10, seed=seed).cherries()


class TestEquivalence:
    def test_relabelled_internals_equal(self):
        t1 = parse_newick("((a:1,b:2):1,(c:1,d:1):1);")
        t2 = parse_newick("((c:1,d:1):1,(b:2,a:1):1);")
        assert is_equivalent(t1, t2)
        assert split_weight_delta(t1, t2) == 0.0

    def test_different_splits(self):
        t1 = parse_newick("((a,b),(c,d));")
        t2 = parse_newick("((a,c),(b,d));")
        assert not is_equivalent(t1, t2)

    def test_leaf_set_mismatch(self, caterpillar7, snowflake6):
        with pytest.raises(TreeError):
            is_equivalent(caterpillar7, snowflake6)


class TestRandomTree:
    def test_three_leaves_is_star(self):
        t = random_tree(3, seed=0)
        assert t.n_leaves == 3
        assert len(t.interior_vertices()) == 1

    def test_edge_count(self):
        t = random_tree(5, seed=11)
        assert len(t.edges()) == 2 * 5 - 3

    def test_deterministic(self):
        a = random_tree(9, seed=42, weight_range=(0.2, 1.7))
        b = random_tree(9, seed=42, weight_range=(0.2, 1.7))
        assert a.newick() == b.newick()

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            random_tree(2, seed=0)
        with pytest.raises(ValueError):
            random_tree(5, seed=0, weight_range=(0.0, 1.0))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(4, 12))
def test_four_point_condition(seed, n):
    """In every weighted tree the two largest of the three quartet sums agree."""
    t = random_tree(n, seed=seed, weight_range=(0.05, 3.0))
    taxa = sorted(t.taxa)
    rng_quads = list(itertools.combinations(taxa, 4))[:15]
    for a, b, c, d in rng_quads:
        sums = sorted(
            [
                t.distance(a, b) + t.distance(c, d),
                t.distance(a, c) + t.distance(b, d),
                t.distance(a, d) + t.distance(b, c),
            ]
        )
        assert math.isclose(sums[1], sums[2], rel_tol=1e-9, abs_tol=1e-9)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(3, 14))
def test_fully_resolved_edge_count(seed, n):
    t = random_tree(n, seed=seed)
    assert t.is_fully_resolved()
    assert len(t.edges()) == 2 * n - 3


def _dyadic_tree(n: int, seed: int) -> XTree:
    """Random topology with weights on the 2^-8 grid (sums are exact)."""
    import random as _random

    base = random_tree(n, seed=seed)
    rng = _random.Random(seed + 1)
    edges = [
        (u, v, rng.randrange(1, 512) / 256.0) for u, v, _ in base.edges()
    ]
    labels = {base.leaf_vertex(t): t for t in base.taxa}
    return XTree(edges, labels)
