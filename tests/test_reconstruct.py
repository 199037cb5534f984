"""Neighbor-Joining and the closure-then-NJ reconstruction pipeline."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treelasso import (
    Cord,
    InconsistentDistanceError,
    NonAdditiveError,
    PartialDistance,
    XTree,
    all_cords,
    closest_leaf_transversal,
    closure,
    full_distance,
    induced_distance,
    is_equivalent,
    min_order_transversal,
    neighbor_joining,
    random_tree,
    reconstruct,
    split_weight_delta,
    triplet_cover,
)


def _reweighted(tree, rng, lo=0.1, hi=2.5):
    edges = [(u, v, rng.uniform(lo, hi)) for u, v, _ in tree.edges()]
    return XTree(edges, {tree.leaf_vertex(t): t for t in tree.taxa})


class TestNeighborJoining:
    def test_snowflake_unit_weights(self, snowflake6):
        # All 15 pairwise distances by hand: 2 within a cherry, 4 across.
        taxa = sorted(snowflake6.taxa)
        partner = {"a": "ap", "ap": "a", "b": "bp", "bp": "b", "c": "cp", "cp": "c"}
        d = PartialDistance(
            {
                Cord(x, y): 2.0 if partner[x] == y else 4.0
                for x, y in itertools.combinations(taxa, 2)
            }
        )
        tree = neighbor_joining(d)
        assert is_equivalent(tree, snowflake6)
        assert split_weight_delta(tree, snowflake6) <= 1e-9

    def test_three_leaf_closed_form(self):
        d = PartialDistance(
            {Cord("x", "y"): 3.0, Cord("x", "z"): 4.0, Cord("y", "z"): 5.0}
        )
        tree = neighbor_joining(d)
        # three-point formulas: x: (3+4-5)/2 = 1, y: (3+5-4)/2 = 2, z: 3
        weights = {min(split, key=len): w for split, w in tree.split_weights().items()}
        assert weights[frozenset({"x"})] == pytest.approx(1.0)
        assert weights[frozenset({"y"})] == pytest.approx(2.0)
        assert weights[frozenset({"z"})] == pytest.approx(3.0)

    def test_quartet_exact(self, quartet_abcd):
        tree = neighbor_joining(full_distance(quartet_abcd))
        assert is_equivalent(tree, quartet_abcd)
        assert split_weight_delta(tree, quartet_abcd) <= 1e-12

    def test_two_taxa(self):
        tree = neighbor_joining(PartialDistance({Cord("p", "q"): 7.5}))
        assert tree.distance("p", "q") == 7.5

    def test_incomplete_matrix_rejected(self):
        with pytest.raises(ValueError, match="not total"):
            neighbor_joining(
                PartialDistance({Cord("x", "y"): 1.0, Cord("x", "z"): 1.0})
            )

    def test_non_additive_detected(self):
        # Gross triangle-inequality violation: the three-point formula for
        # x gives (1+1-10)/2 = -4.
        d = PartialDistance(
            {Cord("x", "y"): 1.0, Cord("x", "z"): 1.0, Cord("y", "z"): 10.0}
        )
        with pytest.raises(NonAdditiveError):
            neighbor_joining(d)

    def test_exactness_on_random_additive_input(self):
        for seed in range(30):
            t = random_tree(4 + seed % 11, seed=seed, weight_range=(0.05, 3.0))
            out = neighbor_joining(full_distance(t))
            assert is_equivalent(out, t)
            assert split_weight_delta(out, t) <= 1e-6


class TestReconstruct:
    def test_example1_lasso_random_weights(self, caterpillar7, lasso11):
        rng = random.Random(1)
        for _ in range(5):
            t = _reweighted(caterpillar7, rng)
            result = reconstruct(induced_distance(t, lasso11))
            assert result.ok
            assert is_equivalent(result.tree, t)
            assert split_weight_delta(result.tree, t) <= 1e-6

    def test_example3_cover_unit_weights(self, snowflake6, cover9):
        result = reconstruct(induced_distance(snowflake6, cover9))
        assert result.ok
        assert is_equivalent(result.tree, snowflake6)
        assert split_weight_delta(result.tree, snowflake6) <= 1e-9

    def test_incompleteness_is_a_result_not_an_error(self):
        d = PartialDistance({Cord("a", "b"): 2.0, Cord("a", "c"): 2.0})
        result = reconstruct(d)
        assert not result.ok
        assert result.tree is None
        assert result.missing == {Cord("b", "c")}

    def test_minimal_lasso_absorbs_single_perturbation(self, snowflake6, cover9):
        # A minimal (rank 2n-3) lasso leaves no redundancy: perturbing one
        # entry yields the metric of a *different* weighting of the same
        # tree, so the pipeline legitimately succeeds and reproduces the
        # perturbed inputs.
        d = dict(induced_distance(snowflake6, cover9))
        d[Cord("a", "b")] += 0.37
        result = reconstruct(PartialDistance(d))
        assert result.ok
        assert is_equivalent(result.tree, snowflake6)
        assert result.tree.distance("a", "b") == pytest.approx(4.37, abs=1e-9)

    def test_verification_catches_corruption(self, snowflake6):
        # An overdetermined input pins the tree: corrupting one entry of the
        # full metric breaks the four-point condition (e.g. on {a,ap,b,bp})
        # and must be flagged, never returned as a silently wrong tree.
        d = dict(full_distance(snowflake6))
        d[Cord("a", "b")] += 0.37
        from treelasso import InconsistentDistanceError

        with pytest.raises((NonAdditiveError, InconsistentDistanceError)):
            reconstruct(PartialDistance(d))

    def test_a_negative_derived_distance_is_inconsistent(self):
        # Five well-formed values whose quartet derives d(c,d) = 1+1-10.
        d = PartialDistance(
            {Cord("a", "b"): 10.0, Cord("a", "c"): 1.0, Cord("b", "c"): 1.0, Cord("a", "d"): 1.0, Cord("b", "d"): 2.0}
        )
        message = "cd derivable as -7.0 via (c,b,a,d), below 0"
        for run in (closure, reconstruct, lambda d: reconstruct(d, exact_rational=True)):
            with pytest.raises(InconsistentDistanceError) as caught:
                run(d)
            assert str(caught.value) == message

    def test_monotone_under_supersets(self):
        rng = random.Random(5)
        for seed in range(6):
            t = random_tree(8, seed=seed, weight_range=(0.2, 2.0))
            cover = triplet_cover(t, min_order_transversal(t))
            extra = rng.sample(sorted(all_cords(t.taxa) - cover), 4)
            for cords in (cover, cover | set(extra)):
                result = reconstruct(induced_distance(t, cords))
                assert result.ok
                assert is_equivalent(result.tree, t)

    def test_verifies_every_input_entry(self, caterpillar7, lasso11):
        result = reconstruct(induced_distance(caterpillar7, lasso11))
        for cord in lasso11:
            assert result.tree.distance(cord.a, cord.b) == pytest.approx(
                caterpillar7.distance(cord.a, cord.b), abs=1e-6
            )


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(4, 14))
def test_round_trip_random_stable_covers(seed, n):
    rng = random.Random(seed)
    t = random_tree(n, seed=seed, weight_range=(0.1, 2.0))
    order = sorted(t.taxa)
    rng.shuffle(order)
    if rng.random() < 0.5:
        f = min_order_transversal(t, order)
    else:
        f = closest_leaf_transversal(t, tiebreak=order)
    result = reconstruct(induced_distance(t, triplet_cover(t, f)))
    assert result.ok
    assert is_equivalent(result.tree, t)
    assert split_weight_delta(result.tree, t) <= 1e-6
