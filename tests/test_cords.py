"""Cord sets, partial distance maps, their file formats, and the
necessary-condition graph checks."""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treelasso import (
    Cord,
    CordFormatError,
    all_cords,
    format_cord_distances,
    format_cord_set,
    graph_necessary_checks,
    induced_distance,
    min_order_transversal,
    parse_cord_distances,
    parse_cord_set,
    random_tree,
    triplet_cover,
)


class TestCord:
    def test_order_insensitive(self):
        assert Cord("b", "a") == Cord("a", "b")
        assert Cord("b", "a").a == "a"
        assert hash(Cord("y", "x")) == hash(Cord("x", "y"))

    def test_self_cord_rejected(self):
        with pytest.raises(ValueError):
            Cord("a", "a")

    def test_sortable(self):
        cords = [Cord("b", "c"), Cord("a", "c"), Cord("a", "b")]
        assert sorted(cords) == [Cord("a", "b"), Cord("a", "c"), Cord("b", "c")]

    def test_equals_its_sorted_pair(self):
        cord = Cord("b", "a")
        assert cord == ("a", "b") and hash(cord) == hash(("a", "b"))
        assert cord != ("b", "a")
        assert ("a", "b") in {cord} and cord in {("a", "b")}
        assert repr(cord) == "Cord(a='a', b='b')"
        assert str(cord) == "ab" and str(Cord("t10", "t02")) == "t02-t10"
        assert cord.taxa == frozenset("ab") and cord.other("a") == "b"

    def test_namedtuple_constructors_normalise(self):
        assert Cord._make(("b", "a")) == ("a", "b")
        assert Cord("a", "b")._replace(a="z") == ("b", "z")
        with pytest.raises(ValueError, match="self-cord"):
            Cord("a", "b")._replace(a="b")


class TestParseCordDistances:
    def test_published_three_cord_file(self):
        d = parse_cord_distances("a\tb\t2.0\nc\te\t4.0\nc\tf\t5.0\n")
        assert len(d) == 3
        assert d[Cord("a", "b")] == 2.0
        assert d[Cord("c", "e")] == 4.0
        assert d[Cord("c", "f")] == 5.0

    def test_self_cord_is_error(self):
        with pytest.raises(CordFormatError, match="self-cord"):
            parse_cord_distances("a\ta\t1.0")

    def test_unordered_duplicates_merge(self):
        d = parse_cord_distances("a\tb\t2.0\nb\ta\t2.0")
        assert len(d) == 1

    def test_conflicting_duplicate(self):
        with pytest.raises(CordFormatError, match="conflicting"):
            parse_cord_distances("a\tb\t2.0\nb\ta\t2.5")

    def test_negative_distance_with_line_number(self):
        with pytest.raises(CordFormatError, match="line 2") as err:
            parse_cord_distances("a\tb\t1.0\na\tc\t-3\n")
        assert err.value.line == 2

    def test_malformed_line(self):
        with pytest.raises(CordFormatError, match="line 1"):
            parse_cord_distances("a b 1.0\n")

    def test_comments_and_blanks_ignored(self):
        d = parse_cord_distances("# header\n\na\tb\t1.5\n   \n# tail\n")
        assert dict(d) == {Cord("a", "b"): 1.5}

    def test_round_trip(self):
        d = parse_cord_distances("a\tb\t1.25\nb\tc\t0.5\n")
        assert dict(parse_cord_distances(format_cord_distances(d))) == dict(d)

    @pytest.mark.parametrize(
        "value, message",
        [
            ("nan", "non-finite distance 'nan'"),
            ("inf", "non-finite distance 'inf'"),
            ("-inf", "non-finite distance '-inf'"),
            ("-3", "negative distance '-3'"),
            (" -3 ", "negative distance '-3'"),
            ("abc", "invalid distance 'abc'"),
        ],
    )
    def test_bad_value_messages(self, value, message):
        with pytest.raises(CordFormatError) as err:
            parse_cord_distances(f"a\tb\t1.0\n# note\nc\td\t{value}\n")
        assert (err.value.line, str(err.value)) == (3, f"line 3: {message}")

    def test_negative_zero_is_kept(self):
        d = parse_cord_distances("a\tb\t-0.0\n")
        assert math.copysign(1.0, d[Cord("a", "b")]) == -1.0

    @pytest.mark.parametrize(
        "text, message",
        [
            ("a\tb\t2.0\nb\ta\t2.5\n", "line 2: conflicting duplicate for ab: 2.0 vs 2.5"),
            ("a\tb\t1.0\nb\tx$\t-3\n", "line 2: negative distance '-3'"),  # the value is checked first
            ("a\tb\t1.0\nb\tx$\tabc\n", "line 2: invalid distance 'abc'"),
        ],
    )
    def test_line_messages(self, text, message):
        with pytest.raises(CordFormatError) as err:
            parse_cord_distances(text)
        assert str(err.value) == message

    def test_a_duplicate_within_eps_keeps_the_first_value(self):
        d = parse_cord_distances("a\tb\t2.0\nb\ta\t2.0000000000001\n")
        assert d[Cord("a", "b")] == 2.0

    def test_bad_label_reports_the_line_it_first_appears_on(self):
        # Labels are checked once each: the first line naming a bad one is
        # the line reported, whatever comes after it.
        text = "a\tb\t1.0\nb\tc\t1.0\n# note\nc\tx$\t2.0\nx$\ta\t3.0\n"
        with pytest.raises(CordFormatError) as err:
            parse_cord_distances(text)
        assert err.value.line == 4
        assert str(err.value) == "line 4: invalid taxon label 'x$'"
        with pytest.raises(CordFormatError, match="^line 2: invalid taxon label 'b c'$"):
            parse_cord_set("a\tb\nb c\ta\n")

    def test_self_cord_of_labels_already_seen_fails(self):
        with pytest.raises(CordFormatError) as err:
            parse_cord_distances("a\tb\t1.0\nb\tb\t2.0\n")
        assert str(err.value) == "line 2: self-cord 'b'"
        with pytest.raises(CordFormatError, match="^line 2: self-cord 'a'$"):
            parse_cord_set("a\tb\na\ta\n")

    def test_parsed_cords_are_sorted_cords(self):
        d = parse_cord_distances(" b \t a\t 1.5 \nc\tb\t2\n")
        assert [type(c) for c in d] == [Cord, Cord]
        assert list(d) == [("a", "b"), ("b", "c")] and [c.a for c in d] == ["a", "b"]
        assert parse_cord_set("d\tc\n") == {Cord("c", "d")}


class TestCordSetFormat:
    def test_round_trip(self):
        cords = frozenset({Cord("a", "b"), Cord("b", "c")})
        assert parse_cord_set(format_cord_set(cords)) == cords

    def test_malformed(self):
        with pytest.raises(CordFormatError):
            parse_cord_set("a\tb\t1.0\n")


class TestInducedDistance:
    def test_published_values(self, caterpillar7):
        cords = [Cord("a", "b"), Cord("c", "e"), Cord("c", "f")]
        d = induced_distance(caterpillar7, cords)
        assert d[Cord("a", "b")] == 2.0
        assert d[Cord("c", "e")] == 4.0
        assert d[Cord("c", "f")] == 5.0

    def test_empty(self, caterpillar7):
        assert len(induced_distance(caterpillar7, [])) == 0

    def test_plain_label_pairs(self):
        tree = random_tree(5, seed=1)
        d = induced_distance(tree, [("t02", "t01"), ("t03", "t05")])
        assert list(d) == [Cord("t01", "t02"), Cord("t03", "t05")]
        assert d[Cord("t01", "t02")] == tree.distance("t01", "t02")

    def test_stray_taxon_is_a_key_error(self, caterpillar7):
        with pytest.raises(KeyError, match="outside the tree"):
            induced_distance(caterpillar7, [("a", "b"), ("a", "zz")])

    def test_three_leaf_star_all_two(self):
        from treelasso import parse_newick

        star = parse_newick("(x,y,z);")
        d = induced_distance(star, all_cords(star.taxa))
        assert set(d.values()) == {2.0}

    def test_triangle_inequality_on_cord_triangles(self):
        for seed in range(8):
            t = random_tree(9, seed=seed, weight_range=(0.1, 2.5))
            d = induced_distance(t, all_cords(t.taxa))
            for x, y, z in itertools.combinations(sorted(t.taxa), 3):
                assert d[Cord(x, y)] <= d[Cord(x, z)] + d[Cord(y, z)] + 1e-12


class TestGraphChecks:
    def test_snowflake_cover_graph(self, cover9, snowflake6):
        checks = graph_necessary_checks(cover9, snowflake6.taxa)
        assert checks.connected
        assert checks.all_components_non_bipartite

    def test_disconnected(self):
        checks = graph_necessary_checks(
            [Cord("a", "b"), Cord("c", "d")], {"a", "b", "c", "d"}
        )
        assert not checks.connected

    def test_even_cycle_is_bipartite(self):
        four_cycle = [Cord("a", "b"), Cord("b", "c"), Cord("c", "d"), Cord("d", "a")]
        checks = graph_necessary_checks(four_cycle, {"a", "b", "c", "d"})
        assert checks.connected
        assert not checks.all_components_non_bipartite

    def test_isolated_taxon_disconnects(self):
        checks = graph_necessary_checks([Cord("a", "b")], {"a", "b", "z"})
        assert not checks.connected

    def test_stray_taxa_rejected(self):
        with pytest.raises(ValueError):
            graph_necessary_checks([Cord("a", "b")], {"a"})


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(4, 10))
def test_stable_cover_passes_graph_checks(seed, n):
    """Stable triplet covers always give a connected, non-bipartite graph."""
    t = random_tree(n, seed=seed)
    cover = triplet_cover(t, min_order_transversal(t))
    checks = graph_necessary_checks(cover, t.taxa)
    assert checks.connected and checks.all_components_non_bipartite
