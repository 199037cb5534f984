"""parse_cord_distances against the line-by-line parser it replaced
(reference_cords.py): on seeded clean files, which it reads in bulk, the
same cords in the same order with the same value bits; on a corpus of
malformed and unusual files, the same map or the same error, message and
line.  Maps built from arrays and from dicts agree, and the library's
readers build no Cord view."""

import random

import pytest

import reference_cords as ref
from treelasso import (
    Cord,
    CordFormatError,
    PartialDistance,
    format_cord_distances,
    full_distance,
    induced_distance,
    parse_cord_distances,
    random_tree,
    reconstruct,
)
from treelasso.cords import _parse_clean


def _outcome(parse, text):
    """(cord, value bits) in iteration order, or the error and its line."""
    try:
        got = parse(text)
    except CordFormatError as exc:
        return "error", str(exc), exc.line
    items = got.items() if isinstance(got, PartialDistance) else sorted(got.items())
    assert all(type(c) is Cord for c, _ in items)
    return [(c, v.hex()) for c, v in items]


def _same(text):
    expected = _outcome(ref.parse_cord_distances, text)
    assert _outcome(parse_cord_distances, text) == expected, text[:200]
    return expected


_SHOWN = [repr, lambda v: f"{v:.3f}", lambda v: f"{v:g}", lambda v: f"{v:.6e}", lambda v: str(int(v))]


def _clean_file(seed):
    """The distances of a random tree on a random cord set, the lines
    shuffled, some pairs written b-a and the values in several styles."""
    rng = random.Random(f"clean:{seed}")
    tree = random_tree(rng.randrange(3, 40), seed=seed)
    taxa = sorted(tree.taxa)
    pairs = [(a, b) for i, a in enumerate(taxa) for b in taxa[i + 1:]]
    d = induced_distance(tree, rng.sample(pairs, rng.randrange(1, len(pairs) + 1)))
    lines = []
    for (a, b), v in d.items():
        if rng.random() < 0.3:
            a, b = b, a
        lines.append(f"{a}\t{b}\t{rng.choice(_SHOWN)(v)}")
    rng.shuffle(lines)
    return "\n".join(lines) + ("\n" if rng.random() < 0.8 else "")


@pytest.mark.parametrize("seed", range(60))
def test_clean_files_read_in_bulk_as_line_by_line(seed):
    text = _clean_file(seed)
    assert _parse_clean(text) is not None  # the bulk path answers
    assert _same(text) != []


def test_formatted_maps_read_in_bulk_and_write_back_the_same_bytes():
    for n in (3, 4, 17, 60):
        text = format_cord_distances(full_distance(random_tree(n, seed=n)))
        assert _parse_clean(text) is not None
        assert format_cord_distances(parse_cord_distances(text)) == text
        _same(text)


BASE = "a\tb\t1.5\na\tc\t2.5\nb\tc\t2.0\n"

#: Files the bulk path declines or that raise, each against the reference.
CORPUS = [
    "",
    "\n",
    "\n\n\n",
    "# only a comment\n",
    "# comment\n" + BASE,
    BASE + "# trailing comment",
    "a\tb\t1.5\n\na\tc\t2.5\n  \nb\tc\t2.0\n",
    BASE.replace("\n", "\r\n"),
    "# head\r\n" + BASE.replace("\n", "\r\n"),
    BASE.replace("\n", "\r"),
    BASE.replace("\n", "\x0b"),
    BASE.replace("\n", "\x0c"),
    BASE.replace("\n", "\x1c"),
    BASE.replace("\n", "\x1d"),
    BASE.replace("\n", "\x85"),
    BASE.replace("\n", "\u2028"),
    BASE.replace("\n", "\u2029"),
    " a\tb\t1.5\n",
    "a \tb\t1.5\n",
    "a\t b\t1.5\n",
    "a\tb\t 1.5\n",
    "a\tb\t1.5 \n",
    "a\tb\t1.5\t\n",
    "\ta\tb\t1.5\n",
    "a\tb\t\t1.5\n",
    "a\tb\t1.5\x1f\n",
    "b\ta\t1.5\nc\ta\t2.5\nc\tb\t2.0\n",
    BASE + "a\tb\t1.5\n",
    BASE + "b\ta\t1.5000000001\n",
    BASE + "b\ta\t1.6\n",
    BASE + "c\ta\t9\n",
    "a\ta\t1.0\n",
    BASE + "c\tc\t0\n",
    "a\tb\t-0.0\na\tc\t0.0\nb\tc\t-0\n",
    "a\tb\t1_0\na\tc\t1_000.5\nb\tc\t0_1\n",
    "a\tb\t_1\n",
    "a\tb\tinf\n",
    "a\tb\t-inf\n",
    "a\tb\tnan\n",
    "a\tb\tNaN\n",
    "a\tb\t1e400\n",
    "a\tb\t1e-400\n",
    "a\tb\t-1.5\n",
    "a\tb\t-1e-300\n",
    "a\tb\t0x1p3\n",
    "a\tb\t1,5\n",
    "a\tb\t\n",
    "a\tb\n",
    "a\tb\t1\t2\nc\t3\n",
    "a\tb\t1\n2\tc\t3\n",
    "a b\tc\t1\n",
    "a#\tb\t1\n",
    "a\tb!\t1\n",
    "\u00e9\tb\t1\n",
    "a\tb\t\uff11\n",
    "t1\tt2\t1.0\nt2\tt3\t2.0",
    "x.1\ty-2\t3\nx.1\tZ_9\t4.25\n",
]


@pytest.mark.parametrize("k", range(len(CORPUS)))
def test_the_corpus_parses_as_line_by_line(k):
    _same(CORPUS[k])


def test_the_corpus_reaches_both_outcomes():
    errors = sum(isinstance(_outcome(ref.parse_cord_distances, text), tuple) for text in CORPUS)
    assert 10 < errors < len(CORPUS) - 10


def _maps(seed):
    """The same distances as an array-built map (parsed) and a dict-built one."""
    rng = random.Random(f"maps:{seed}")
    tree = random_tree(rng.randrange(3, 30), seed=seed)
    taxa = sorted(tree.taxa)
    pairs = [(a, b) for i, a in enumerate(taxa) for b in taxa[i + 1:]]
    d = induced_distance(tree, rng.sample(pairs, rng.randrange(1, len(pairs) + 1)))
    return parse_cord_distances(format_cord_distances(d)), PartialDistance(dict(ref.parse_cord_distances(format_cord_distances(d))))


@pytest.mark.parametrize("seed", range(30))
def test_array_and_dict_built_maps_agree(seed):
    arrays, built = _maps(seed)
    assert arrays == built and built == arrays
    assert len(arrays) == len(built)
    assert arrays.taxa == built.taxa
    assert arrays.cords == built.cords
    assert list(arrays) == list(built) == sorted(built.cords)
    for c in built:
        assert arrays.value(c.b, c.a).hex() == built[c].hex() == arrays[c].hex()
    assert repr(arrays) == repr(built)
    text = format_cord_distances(arrays)
    assert text == format_cord_distances(built) == ref.format_cord_distances(built)


def test_the_readers_build_no_cord_view():
    text = format_cord_distances(full_distance(random_tree(30, seed=3)))
    d = parse_cord_distances(text)
    result = reconstruct(d)
    assert format_cord_distances(d) == text and format_cord_distances(result.trace.final) == text
    assert "_data" not in vars(d)
    d[Cord("t01", "t02")]  # the first Mapping access builds it
    assert "_data" in vars(d)


def test_the_constructor_keeps_its_validation():
    with pytest.raises(ValueError, match="must be finite and >= 0"):
        PartialDistance({Cord("a", "b"): -1.0})
    with pytest.raises(ValueError, match="self-cord"):
        PartialDistance({("a", "a"): 1.0})
    d = PartialDistance([(("b", "a"), 2)])
    assert list(d.items()) == [(Cord("a", "b"), 2.0)]
    empty = PartialDistance({})
    assert (len(empty), list(empty), empty.taxa, format_cord_distances(empty)) == (0, [], frozenset(), "")
