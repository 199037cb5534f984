"""Closure, shellability, 2d-trees, rank certificate, topological oracle."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treelasso import (
    Cord,
    InconsistentDistanceError,
    PartialDistance,
    TreeError,
    all_cords,
    closure,
    edge_weight_lasso_certificate,
    induced_distance,
    integer_matrix_rank,
    is_2dtree,
    is_shellable,
    min_order_transversal,
    parse_newick,
    path_incidence_matrix,
    random_tree,
    topological_lasso_oracle,
    tree_from_2dtree,
    triplet_cover,
    verify_2dtree_ordering,
    verify_shelling,
)
from treelasso.lasso import _bareiss_rank, _rank_mod_prime
from conftest import cords_of


class TestClosure:
    def test_single_quartet_derivation(self):
        # Quartet xy||uz, unit pendants, interior 1: the five known
        # distances are xy=2, uz=2, xu=3, yu=3, yz=3, and the rule adds
        # d(x,z) = d(x,u)+d(y,z)-d(y,u) = 3+3-3 = 3.
        d = PartialDistance(
            {
                Cord("x", "y"): 2.0,
                Cord("u", "z"): 2.0,
                Cord("x", "u"): 3.0,
                Cord("y", "u"): 3.0,
                Cord("y", "z"): 3.0,
            }
        )
        trace = closure(d)
        assert len(trace.steps) == 1
        step = trace.steps[0]
        assert step.cord == Cord("x", "z")
        assert step.value == 3.0
        assert step.quadruple == ("x", "y", "u", "z")
        assert trace.is_complete

    def test_lasso11_closes_to_all_21(self, caterpillar7, lasso11):
        rng = random.Random(4)
        for _ in range(5):
            t = _reweighted(caterpillar7, rng)
            trace = closure(induced_distance(t, lasso11))
            assert trace.is_complete
            assert len(trace.final) == 21

    def test_total_input_needs_no_steps(self, snowflake6):
        trace = closure(induced_distance(snowflake6, all_cords(snowflake6.taxa)))
        assert trace.steps == ()
        assert trace.is_complete

    def test_derived_values_match_tree_distances(self):
        for seed in range(10):
            t = random_tree(8, seed=seed, weight_range=(0.1, 2.0))
            cover = triplet_cover(t, min_order_transversal(t))
            trace = closure(induced_distance(t, cover))
            for step in trace.steps:
                assert step.value == pytest.approx(
                    t.distance(step.cord.a, step.cord.b), abs=1e-9
                )

    def test_steps_satisfy_rule_precondition(self, snowflake6, cover9):
        trace = closure(induced_distance(snowflake6, cover9))
        known = set(cover9)
        for step in trace.steps:
            x, y, u, z = step.quadruple
            assert step.cord == Cord(x, z)
            others = {Cord(p, q) for p, q in itertools.combinations((x, y, u, z), 2)} - {
                step.cord
            }
            assert others <= known
            assert step.cord not in known
            known.add(step.cord)

    def test_inconsistent_input_detected(self):
        # Two quartets forced to derive the same cord with different values.
        d = {
            Cord(a, b): 1.0
            for a, b in itertools.combinations("pqrsx", 2)
            if {a, b} != {"p", "x"}
        }
        d[Cord("q", "x")] = 3.0
        d[Cord("r", "x")] = 0.5
        with pytest.raises(InconsistentDistanceError):
            closure(PartialDistance(d))

    def test_exact_rational_mode(self, snowflake6, cover9):
        trace = closure(induced_distance(snowflake6, cover9), exact_rational=True)
        assert trace.is_complete
        for cord, value in trace.final.items():
            assert value == snowflake6.distance(cord.a, cord.b)

    def test_trace_lines_format(self):
        d = PartialDistance(
            {
                Cord("x", "y"): 2.0,
                Cord("u", "z"): 2.0,
                Cord("x", "u"): 3.0,
                Cord("y", "u"): 3.0,
                Cord("y", "z"): 3.0,
            }
        )
        (line,) = closure(d).lines()
        assert line == "x z := d(x,u)+d(y,z)-d(y,u) via (x,y,u,z) = 3.0"

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            closure(PartialDistance({}))


class TestShellability:
    def test_example1_succeeds(self, caterpillar7, lasso11):
        result = is_shellable(caterpillar7, lasso11)
        assert result.is_complete
        assert len(result.steps) == 10
        # the greedy trace is itself a valid shelling
        verify_shelling(caterpillar7, lasso11, result.steps, require_complete=True)

    def test_published_ordering_validates(self, caterpillar7, lasso11, shelling10):
        verify_shelling(caterpillar7, lasso11, shelling10, require_complete=True)

    def test_full_cord_set_trivially_shellable(self, snowflake6):
        result = is_shellable(snowflake6, all_cords(snowflake6.taxa))
        assert result.is_complete and result.steps == ()

    def test_remark1_cords_not_shellable_on_quartet(self, quartet_abcd, remark1_cords):
        result = is_shellable(quartet_abcd, remark1_cords)
        assert not result.is_complete
        assert result.missing == {Cord("c", "d")}

    def test_taxon_in_no_cord_leaves_all_its_cords_missing(self, caterpillar7, lasso11):
        # Without e the other six taxa still shell completely, but no cord
        # of e can be derived: each needs two cords of e already available.
        cords = {c for c in lasso11 if "e" not in c.taxa}
        result = is_shellable(caterpillar7, cords)
        assert result.missing == {Cord("e", t) for t in caterpillar7.taxa - {"e"}}

    def test_verdict_invariant_under_scan_order(self, caterpillar7, lasso11):
        baseline = is_shellable(caterpillar7, lasso11).is_complete
        for seed in range(6):
            shuffled = is_shellable(caterpillar7, lasso11, rng=random.Random(seed))
            assert shuffled.is_complete == baseline
        # lasso11 places, so rng has nothing to permute; without bc the
        # closure answers, in the taxon order rng draws.
        cords = lasso11 - {Cord("b", "c")}
        missing = is_shellable(caterpillar7, cords).missing
        for seed in range(6):
            shuffled = is_shellable(caterpillar7, cords, rng=random.Random(seed))
            assert shuffled.missing == missing
            verify_shelling(caterpillar7, cords, shuffled.steps)

    def test_verify_rejects_wrong_pivots(self, caterpillar7, lasso11):
        # cd with pivots (a,e): the quartet {c,d,a,e} has split ca|de?  No:
        # positions put a before c before d before e, so the split keeps
        # c and d apart only with pivots straddling them.
        bad = [(Cord("b", "g"), ("c", "e"))]
        with pytest.raises(ValueError):
            verify_shelling(caterpillar7, lasso11, bad)

    def test_verify_rejects_missing_companions(self, caterpillar7, lasso11):
        # eg before af: pivot cord af not yet available
        bad = [(Cord("e", "g"), ("a", "f"))]
        with pytest.raises(ValueError, match="companion"):
            verify_shelling(caterpillar7, lasso11, bad)

    @pytest.mark.parametrize(
        "pivots", [("c", "a"), ("a", "d"), ("a", "a")], ids=["pivot-is-first-end", "pivot-is-second-end", "equal-pivots"]
    )
    def test_verify_names_a_step_whose_taxa_repeat(self, pivots):
        tree = parse_newick("((a:1,b:1):1,(c:1,d:1):1,e:1);")
        cords = all_cords(tree.taxa) - {Cord("c", "d")}
        with pytest.raises(ValueError, match=r"^step 1: .* not four distinct taxa"):
            verify_shelling(tree, cords, [(Cord("c", "d"), pivots)])

    def test_steps_equal_their_field_tuples(self, caterpillar7, lasso11):
        result = is_shellable(caterpillar7, lasso11)
        assert all(step == (step.cord, step.pivots) for step in result.steps)
        verify_shelling(caterpillar7, lasso11, [tuple(step) for step in result.steps], require_complete=True)

    def test_verify_takes_a_cord_spelled_as_a_plain_pair(self):
        tree = parse_newick("((a:1,b:1):1,(c:1,d:1):1);")
        cords = [Cord(*pair) for pair in ("ab", "ad", "bc", "bd", "cd")]
        for cord in (("a", "c"), ("c", "a"), Cord("a", "c")):
            verify_shelling(tree, cords, [(cord, ("b", "d"))], require_complete=True)
        reversed_pairs = [pair[::-1] for pair in cords]
        verify_shelling(tree, reversed_pairs, [(("c", "a"), ("d", "b"))], require_complete=True)
        with pytest.raises(ValueError, match="already available"):
            verify_shelling(tree, cords, [(("d", "a"), ("b", "c"))])

    def test_closure_steps_verify_however_a_cord_is_spelled(self, caterpillar7, lasso11):
        cords = lasso11 - {Cord("b", "c")}  # 6 of the 11 missing cords derive
        result = is_shellable(caterpillar7, cords)
        assert result.steps and not result.is_complete
        flipped = [((step.cord.b, step.cord.a), step.pivots[::-1]) for step in result.steps]
        verify_shelling(caterpillar7, cords, flipped)

    def test_missing_cords_hold_what_their_frozenset_holds(self, quartet_abcd, remark1_cords):
        missing = is_shellable(quartet_abcd, remark1_cords).missing
        eager = frozenset(missing)
        for probe in [("c", "d"), Cord("d", "c"), ("d", "c"), ("c", "c"), ("a", "b"), ("c", "z"), "cd", ("c",), 7]:
            assert (probe in missing) == (probe in eager), probe
        assert ("c", "d") in missing

    def test_non_fully_resolved_rejected(self):
        star = parse_newick("(a,b,c,d);")
        with pytest.raises(Exception):
            is_shellable(star, [Cord("a", "b")])


class TestShellabilityTheorems:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10**6), n=st.integers(4, 12))
    def test_stable_covers_are_shellable_and_2dtrees(self, seed, n):
        t = random_tree(n, seed=seed, weight_range=(0.2, 2.0))
        order = sorted(t.taxa)
        random.Random(seed).shuffle(order)
        cover = triplet_cover(t, min_order_transversal(t, order))
        assert is_shellable(t, cover).is_complete
        ordering = is_2dtree(cover, t.taxa)
        assert ordering is not None
        assert verify_2dtree_ordering(cover, ordering)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10**6), n=st.integers(4, 10))
    def test_shellable_implies_closure_complete(self, seed, n):
        t = random_tree(n, seed=seed, weight_range=(0.1, 3.0))
        rng = random.Random(seed)
        pool = sorted(all_cords(t.taxa))
        cords = frozenset(rng.sample(pool, rng.randrange(n, len(pool) + 1)))
        if is_shellable(t, cords).is_complete:
            assert closure(induced_distance(t, cords)).is_complete


class Test2dTree:
    def test_snowflake_cover_graph(self, cover9):
        assert verify_2dtree_ordering(cover9, ["a", "b", "c", "ap", "bp", "cp"])
        found = is_2dtree(cover9)
        assert found is not None
        assert verify_2dtree_ordering(cover9, found)

    def test_lasso11_graph(self, lasso11):
        assert verify_2dtree_ordering(lasso11, ["a", "b", "d", "g", "c", "f", "e"])
        found = is_2dtree(lasso11)
        assert found is not None
        assert verify_2dtree_ordering(lasso11, found)

    def test_edge_count_quick_reject(self):
        five_cycle = cords_of([("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "a")])
        assert is_2dtree(five_cycle) is None

    def test_right_count_wrong_shape(self):
        # 7 = 2*5-3 edges but a K4 plus pendant path: the pendant vertex
        # has degree 1 and can never be eliminated.
        cords = cords_of(
            [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "d"), ("d", "e")]
        )
        assert is_2dtree(cords) is None

    def test_remark1_cords(self, remark1_cords):
        ordering = is_2dtree(remark1_cords)
        assert ordering is not None
        assert verify_2dtree_ordering(remark1_cords, ordering)

    def test_greedy_fast_path_on_covers(self):
        for seed in range(10):
            t = random_tree(8, seed=seed)
            cover = triplet_cover(t, min_order_transversal(t))
            assert is_2dtree(cover, t.taxa) is not None

    def test_5000_vertex_ladder(self):
        # Vertex i is adjacent to i-1 and i-2: the peel deletes one end of
        # the ladder after the other, far past the interpreter's recursion
        # limit.
        ladder = cords_of(
            [(f"v{i:04d}", f"v{i - k:04d}") for i in range(5000) for k in (1, 2) if i >= k]
        )
        ordering = is_2dtree(ladder)
        assert ordering is not None
        assert verify_2dtree_ordering(ladder, ordering)

    def test_verify_rejects_bad_orderings(self, cover9):
        assert not verify_2dtree_ordering(cover9, ["a", "bp", "c", "ap", "b", "cp"])
        assert not verify_2dtree_ordering(cover9, ["a", "b", "c"])

    def test_verify_rejects_malformed_orderings(self, cover9):
        assert not verify_2dtree_ordering(cover9, ["a", "b", "c", "ap", "bp", "cp", "a"])
        assert not verify_2dtree_ordering([], [])
        assert not verify_2dtree_ordering([], ["a"])
        # c has its two back-neighbours, but the first two are not adjacent.
        assert not verify_2dtree_ordering(cords_of([("a", "c"), ("b", "c")]), ["a", "b", "c"])


class TestTreeFrom2dTree:
    def test_snowflake_cover_builds_a_lassoed_tree(self, snowflake6, cover9):
        # The construction promises *some* fully-resolved tree lassoed by
        # the cord set, not the original: with unit construction weights the
        # midpoint policy attaches bp between the centre and c, giving a
        # tree with cherries (a,ap),(bp,c) instead of the three-cherry one.
        # Both are legitimately lassoed by the 9 cords.
        built = tree_from_2dtree(cover9, ["a", "b", "c", "ap", "bp", "cp"], certify=True)
        assert built.is_fully_resolved()
        assert built.taxa == snowflake6.taxa
        assert edge_weight_lasso_certificate(built, cover9)
        assert closure(induced_distance(built, cover9)).is_complete

    def test_lasso11_construction_closes(self, caterpillar7, lasso11):
        built = tree_from_2dtree(lasso11, ["a", "b", "d", "g", "c", "f", "e"], certify=True)
        assert built.is_fully_resolved()
        assert built.taxa == caterpillar7.taxa
        trace = closure(induced_distance(built, lasso11))
        assert trace.is_complete and len(trace.final) == 21

    def test_triangle_gives_star(self):
        triangle = cords_of([("a", "b"), ("b", "c"), ("a", "c")])
        built = tree_from_2dtree(triangle, ["a", "b", "c"])
        assert built.taxa == {"a", "b", "c"}
        assert len(built.interior_vertices()) == 1

    def test_midpoint_tie_goes_towards_the_earlier_back_neighbour(self):
        # d's back-neighbours a, b sit at the ends of two half-unit edges,
        # equally near the path midpoint: d goes on a's edge.
        cords = cords_of([("a", "b"), ("a", "c"), ("b", "c"), ("a", "d"), ("b", "d")])
        built = tree_from_2dtree(cords, ["a", "b", "c", "d"])
        assert built.distance("a", "d") < built.distance("b", "d")

    def test_remark1_both_directions(self, quartet_abcd, remark1_cords):
        ordering = is_2dtree(remark1_cords)
        built = tree_from_2dtree(remark1_cords, ordering, certify=True)
        assert built.is_fully_resolved()
        trace = closure(induced_distance(built, remark1_cords))
        assert trace.is_complete and len(trace.final) == 6

    def test_invalid_ordering_rejected(self, remark1_cords):
        with pytest.raises(ValueError, match="ordering"):
            tree_from_2dtree(remark1_cords, ["c", "d", "a", "b"])


class TestIntegerRank:
    def test_known_ranks(self):
        assert integer_matrix_rank([[1, 0], [0, 1]]) == 2
        assert integer_matrix_rank([[1, 2], [2, 4]]) == 1
        assert integer_matrix_rank([[0, 0], [0, 0]]) == 0
        assert integer_matrix_rank([]) == 0

    def test_against_numpy_on_random_matrices(self):
        rng = random.Random(12)
        for _ in range(60):
            rows = rng.randrange(1, 8)
            cols = rng.randrange(1, 8)
            m = [[rng.randrange(-4, 5) for _ in range(cols)] for _ in range(rows)]
            assert integer_matrix_rank(m) == np.linalg.matrix_rank(np.array(m))

    def test_singular_mod_p_falls_back_to_exact(self):
        m = [[2147483647, 0], [0, 1]]  # 2**31 - 1 is the modulus itself
        assert _rank_mod_prime(m) == 1
        assert integer_matrix_rank(m) == 2

    def test_entries_beyond_int64(self):
        assert integer_matrix_rank([[2**70, 1], [1, 1]]) == 2
        assert integer_matrix_rank([[2**64 + 1, 2**63], [2**65 + 2, 2**64]]) == 1
        assert integer_matrix_rank([[-(2**63) - 5, 3, 2**80]]) == 1

    def test_path_incidence_of_covers_minus_a_cord_matches_bareiss(self):
        for seed in range(6):
            rng = random.Random(seed)
            tree = random_tree(6 + 3 * seed, seed=seed)
            cover = triplet_cover(tree, min_order_transversal(tree))
            others = sorted(all_cords(tree.taxa) - cover)
            for cord in rng.sample(sorted(cover), 3):
                rest = cover - {cord}
                matrix = path_incidence_matrix(tree, rest)
                square = path_incidence_matrix(tree, rest | {rng.choice(others)})
                for m in (matrix, matrix + [matrix[0]], [list(c) for c in zip(*matrix)], square):
                    assert integer_matrix_rank(m) == _bareiss_rank([row[:] for row in m])
                assert integer_matrix_rank(matrix + [matrix[0]]) == len(tree.edges()) - 1


class TestEdgeWeightLassoCertificate:
    def test_example3_cover_full_rank(self, snowflake6, cover9):
        matrix = path_incidence_matrix(snowflake6, cover9)
        assert len(matrix) == 9 and len(matrix[0]) == 9
        assert integer_matrix_rank(matrix) == 9
        assert edge_weight_lasso_certificate(snowflake6, cover9)

    def test_every_strict_subset_fails(self, snowflake6, cover9):
        for cord in sorted(cover9):
            assert not edge_weight_lasso_certificate(snowflake6, cover9 - {cord})

    def test_full_cord_set_certifies(self):
        for seed in range(5):
            t = random_tree(7, seed=seed)
            assert edge_weight_lasso_certificate(t, all_cords(t.taxa))

    @pytest.mark.parametrize("extra", [0, 4])
    def test_stray_taxa_raise_at_any_cord_count(self, quartet_abcd, extra):
        # One stray cord sits below the size check, five reach the rank.
        cords = {Cord("a", "z")} | set(sorted(all_cords("abcd"))[:extra])
        with pytest.raises(KeyError, match=r"cords mention taxa outside the tree: \['z'\]"):
            edge_weight_lasso_certificate(quartet_abcd, cords)

    def test_remark1_cords_fail_on_quartet(self, quartet_abcd, remark1_cords):
        # 5 cords, 5 edges, but the incidence matrix has rank 4: the two
        # wing rows ac-bc and ad-bd express the same difference a-b.
        assert not edge_weight_lasso_certificate(quartet_abcd, remark1_cords)

    def test_cords_spelled_as_plain_pairs(self):
        tree = random_tree(6, seed=1)
        cover = sorted(triplet_cover(tree, min_order_transversal(tree)))
        plain = [tuple(c) for c in cover]
        assert path_incidence_matrix(tree, plain) == path_incidence_matrix(tree, cover)
        assert path_incidence_matrix(tree, [c[::-1] for c in plain]) == path_incidence_matrix(tree, cover)
        # A reversed duplicate is the same cord, so the count falls short.
        assert not edge_weight_lasso_certificate(tree, plain[:-1] + [plain[0][::-1]])
        assert edge_weight_lasso_certificate(tree, [c[::-1] for c in plain])
        # A set that the rank decides: the cover less a cord plus another.
        other = sorted(all_cords(tree.taxa) - set(cover))[0]
        swapped = plain[1:] + [other[::-1]]
        expected = integer_matrix_rank(path_incidence_matrix(tree, cover[1:] + [other])) == len(tree.edges())
        assert edge_weight_lasso_certificate(tree, swapped) == expected
        assert topological_lasso_oracle(tree, plain) == topological_lasso_oracle(tree, cover)


class TestTopologicalOracle:
    def test_remark1_refuted(self, quartet_abcd, remark1_cords):
        witness = topological_lasso_oracle(quartet_abcd, remark1_cords)
        assert witness is not None
        assert witness.splits() != quartet_abcd.splits()
        for c in sorted(remark1_cords):
            assert witness.distance(c.a, c.b) == pytest.approx(
                quartet_abcd.distance(c.a, c.b), abs=1e-5
            )

    def test_example3_cover_generically_topological(self, snowflake6, cover9):
        assert topological_lasso_oracle(snowflake6, cover9) is None

    def test_full_cords_generically_topological(self):
        for seed in range(3):
            t = random_tree(5, seed=seed, weight_range=(0.3, 2.0))
            assert topological_lasso_oracle(t, all_cords(t.taxa)) is None

    def test_too_many_taxa_rejected(self):
        t = random_tree(10, seed=0)
        with pytest.raises(ValueError, match="at most"):
            topological_lasso_oracle(t, all_cords(t.taxa))

    def test_overflowing_cord_distance_rejected(self):
        # Legal weights: the b-e path sums three weights of 1e308.
        t = parse_newick("((a:1,b:1):1e308,(c:1,d:1):1e308,e:1e308);")
        cords = [Cord(*p) for p in ("ac", "ae", "ce", "ab", "cd", "bd", "be")]
        with pytest.raises(TreeError) as raised:
            topological_lasso_oracle(t, cords)
        assert str(raised.value) == "topological oracle: a cord distance overflows the float range"


def _reweighted(tree, rng):
    """Same topology, fresh random proper weights."""
    from treelasso import XTree

    edges = [(u, v, rng.uniform(0.1, 2.5)) for u, v, _ in tree.edges()]
    return XTree(edges, {tree.leaf_vertex(t): t for t in tree.taxa})
