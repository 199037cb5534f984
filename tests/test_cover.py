"""Transversals, stability, and the cord sets generated from them."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treelasso import (
    Cord,
    all_cords,
    closest_leaf_transversal,
    is_cover,
    is_stable,
    is_triplet_cover,
    min_order_transversal,
    parse_newick,
    random_tree,
    stability_violation,
    triplet_cover,
)
from treelasso.tree import TreeError
from conftest import cords_of


class TestIsStable:
    def test_example_transversal_is_stable(self, example3_transversal, snowflake6):
        assert is_stable(example3_transversal, snowflake6)

    def test_modified_transversal_with_witness(self, example3_transversal, snowflake6):
        # Forcing the bb' pick to b' while X-{a,a'} still picks b breaks
        # stability exactly at that nested pair.
        f = dict(example3_transversal)
        f[frozenset({"b", "bp"})] = "bp"
        assert not is_stable(f, snowflake6)
        witness = stability_violation(f, snowflake6)
        assert witness == (snowflake6.taxa - {"a", "ap"}, frozenset({"b", "bp"}))

    def test_min_rule_completion_of_example3_is_unstable(self, snowflake6):
        # min(X-{b}) = a sits inside X-{b,b'} whose pick is c: the min-rule
        # default cannot complete the published co-singleton-free assignment.
        taxa = snowflake6.taxa
        f = min_order_transversal(snowflake6)
        f[taxa - {"a", "ap"}] = "b"
        f[taxa - {"b", "bp"}] = "c"
        f[taxa - {"c", "cp"}] = "a"
        assert not is_stable(f, snowflake6)

    def test_min_order_always_stable(self, caterpillar7):
        assert is_stable(min_order_transversal(caterpillar7), caterpillar7)

    def test_partial_transversal_rejected(self, snowflake6):
        with pytest.raises(ValueError, match="missing"):
            is_stable({}, snowflake6)


class TestMinOrderTransversal:
    def test_alphabetical_picks_on_snowflake(self, snowflake6):
        f = min_order_transversal(snowflake6)
        assert f[frozenset({"b", "bp"})] == "b"
        assert f[snowflake6.taxa - {"a", "ap"}] == "b"

    def test_singletons_pick_themselves(self, caterpillar7):
        f = min_order_transversal(caterpillar7)
        for x in caterpillar7.taxa:
            assert f[frozenset({x})] == x

    def test_any_order_is_stable(self):
        star = parse_newick("(x,y,z);")
        for order in itertools.permutations(sorted(star.taxa)):
            assert is_stable(min_order_transversal(star, list(order)), star)

    def test_order_must_be_permutation(self, snowflake6):
        with pytest.raises(ValueError):
            min_order_transversal(snowflake6, ["a", "b"])


class TestClosestLeafTransversal:
    def test_unit_weights_fall_back_to_tiebreak(self, snowflake6):
        f = closest_leaf_transversal(snowflake6, tiebreak=sorted(snowflake6.taxa))
        assert f[frozenset({"a", "ap"})] == "a"

    def test_closest_vs_furthest(self):
        # Cluster {x,y} hangs off one interior edge with pendant weights 1
        # and 5: closest picks x, furthest picks y.
        t = parse_newick("((x:1,y:5):1,(z:1,w:1):1);")
        closest = closest_leaf_transversal(t, mode="closest")
        furthest = closest_leaf_transversal(t, mode="furthest")
        cluster = frozenset({"x", "y"})
        assert closest[cluster] == "x"
        assert furthest[cluster] == "y"

    def test_singletons(self, caterpillar7):
        f = closest_leaf_transversal(caterpillar7)
        for x in caterpillar7.taxa:
            assert f[frozenset({x})] == x

    def test_bad_mode(self, caterpillar7):
        with pytest.raises(ValueError):
            closest_leaf_transversal(caterpillar7, mode="median")

    @pytest.mark.parametrize("eps", [-1e-9, float("nan")])
    def test_eps_must_be_non_negative(self, caterpillar7, eps):
        # No leaf is within a negative or nan tolerance of the best one.
        with pytest.raises(ValueError, match="eps must be >= 0"):
            closest_leaf_transversal(caterpillar7, eps=eps)

    def test_improper_weighting_rejected(self):
        from treelasso import XTree

        base = parse_newick("((a:1,b:1):1,(c:1,d:1):1);")
        edges = [
            (u, v, 0.0 if not base.is_leaf(u) and not base.is_leaf(v) else w)
            for u, v, w in base.edges()
        ]
        flat = XTree(edges, {base.leaf_vertex(t): t for t in base.taxa})
        with pytest.raises(Exception):
            closest_leaf_transversal(flat)

    @pytest.mark.parametrize("mode", ["closest", "furthest"])
    def test_overflowing_extremal_distance_raises(self, mode):
        # Legal weights whose leaf distances pass the float range; the
        # min-order transversal needs no distances.
        tree = parse_newick("((a:1e308,b:1e308):1e308,(c:1e308,d:1e308):1e308,e:1e308);")
        with pytest.raises(TreeError) as raised:
            closest_leaf_transversal(tree, mode=mode)
        assert str(raised.value) == "closest/furthest transversals: a leaf distance overflows the float range"
        assert len(triplet_cover(tree, min_order_transversal(tree))) == 7

    def test_overflow_beyond_the_closest_leaf_is_ignored(self):
        # Closest leaves are all within 1e308 + 1; the furthest from the
        # cherry {a, b}, through two 1e308 edges, is not.
        tree = parse_newick("((a:1,b:1):1e308,(c:1,d:1):1e308,e:1);")
        f = closest_leaf_transversal(tree)
        assert f[frozenset("bcde")] == "b" and f[frozenset("abcd")] == "a"
        with pytest.raises(TreeError, match="overflows"):
            closest_leaf_transversal(tree, mode="furthest")


class TestTripletCover:
    def test_example3_cover_exact(self, snowflake6, example3_transversal, cover9):
        assert triplet_cover(snowflake6, example3_transversal) == cover9

    def test_three_leaf_star(self):
        star = parse_newick("(x,y,z);")
        cover = triplet_cover(star, min_order_transversal(star))
        assert cover == all_cords({"x", "y", "z"})
        assert len(cover) == 2 * 3 - 3

    def test_random_ten_leaf_size(self):
        t = random_tree(10, seed=77)
        assert len(triplet_cover(t, min_order_transversal(t))) == 17

    def test_rejects_non_stable_without_force(self, snowflake6, example3_transversal):
        f = dict(example3_transversal)
        f[frozenset({"b", "bp"})] = "bp"
        with pytest.raises(ValueError, match="not stable") as raised:
            triplet_cover(snowflake6, f)
        assert str(raised.value) == (
            "transversal is not stable: f(A) = b lies in B but f(B) = bp,"
            " with |A| = 4, |B| = 2, B = {b,bp}"
        )
        forced = triplet_cover(snowflake6, f, force=True)
        assert is_triplet_cover(snowflake6, forced)

    def test_unstable_message_lists_ten_labels_of_b(self):
        tree = random_tree(60, seed=2)
        f = min_order_transversal(tree)
        for cluster in sorted((c for c in f if len(c) > 11), key=sorted):
            unstable = {**f, cluster: max(cluster)}
            witness = stability_violation(unstable, tree)
            if witness is not None and len(witness[1]) > 10:
                break
        else:
            pytest.fail("no re-pick gives a witness B with more than 10 taxa")
        a, b = witness
        with pytest.raises(ValueError) as raised:
            triplet_cover(tree, unstable)
        shown = ",".join(sorted(b)[:10])
        assert str(raised.value).endswith(f"|A| = {len(a)}, |B| = {len(b)}, B = {{{shown},…}}")

    def test_rejects_non_transversal(self, snowflake6, example3_transversal):
        f = dict(example3_transversal)
        f[frozenset({"b", "bp"})] = "a"
        with pytest.raises(ValueError, match="transversal"):
            triplet_cover(snowflake6, f, force=True)


class TestIsCover:
    def test_example3_cover(self, snowflake6, cover9):
        assert is_cover(snowflake6, cover9)

    def test_cherry_cords_only_is_not_a_cover(self, snowflake6):
        assert not is_cover(
            snowflake6, cords_of([("a", "ap"), ("b", "bp"), ("c", "cp")])
        )

    def test_empty_set(self, snowflake6):
        assert not is_cover(snowflake6, [])


class TestIsTripletCover:
    def test_example3(self, snowflake6, cover9):
        assert is_triplet_cover(snowflake6, cover9)

    def test_lasso11_is_not_a_triplet_cover(self, caterpillar7, lasso11):
        # The graph of the 11-cord lasso has triangles abd, adg, bef only;
        # none contains c, yet the component {c} at c's interior vertex
        # must contribute a triangle corner.  (Shellable, but not a
        # triplet cover: the notions genuinely differ.)
        triangles = [
            trio
            for trio in itertools.combinations(sorted(caterpillar7.taxa), 3)
            if all(Cord(p, q) in lasso11 for p, q in itertools.combinations(trio, 2))
        ]
        assert triangles == [("a", "b", "d"), ("a", "d", "g"), ("b", "e", "f")]
        assert not is_triplet_cover(caterpillar7, lasso11)
        assert is_cover(caterpillar7, lasso11)

    def test_triangle_free_set(self, quartet_abcd):
        assert not is_triplet_cover(
            quartet_abcd, cords_of([("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])
        )

    def test_brute_force_agreement_on_random_sets(self, snowflake6):
        # Independent oracle: enumerate all taxon triples per interior
        # vertex instead of walking cross cords.
        rng = random.Random(9)
        pool = sorted(all_cords(snowflake6.taxa))
        for _ in range(40):
            cords = frozenset(rng.sample(pool, rng.randrange(3, len(pool))))
            assert is_triplet_cover(snowflake6, cords) == _brute_triplet_cover(
                snowflake6, cords
            )


def _brute_triplet_cover(tree, cords):
    cords = set(cords)
    for v in tree.interior_vertices():
        comps = tree.components(v)
        found = any(
            Cord(x, y) in cords and Cord(x, z) in cords and Cord(y, z) in cords
            for x in comps[0]
            for y in comps[1]
            for z in comps[2]
        )
        if not found:
            return False
    return True


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(4, 12), kind=st.sampled_from(["min", "closest", "furthest"]))
def test_constructors_are_stable_and_sized(seed, n, kind):
    t = random_tree(n, seed=seed, weight_range=(0.2, 3.0))
    rng = random.Random(seed)
    order = sorted(t.taxa)
    rng.shuffle(order)
    if kind == "min":
        f = min_order_transversal(t, order)
    else:
        f = closest_leaf_transversal(t, mode=kind, tiebreak=order)
    assert is_stable(f, t)
    cover = triplet_cover(t, f)
    assert len(cover) == 2 * n - 3
    assert is_triplet_cover(t, cover)
    assert is_cover(t, cover)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_triplet_cover_implies_cover_on_random_sets(seed):
    rng = random.Random(seed)
    t = random_tree(rng.randrange(4, 9), seed=seed)
    pool = sorted(all_cords(t.taxa))
    cords = frozenset(rng.sample(pool, rng.randrange(0, len(pool) + 1)))
    if is_triplet_cover(t, cords):
        assert is_cover(t, cords)
