"""parse_newick's token scan against the character-by-character parser it
replaced (reference_tree.parse_newick).

On valid text both must build the same tree: equal vertex ids (``edges()``),
leaf labels and canonical Newick.  On malformed text both must raise the
same exception type with the same message, line and column.  The inputs are
random trees written with and without lengths, with extra whitespace,
internal labels, redundant parentheses and single-child root chains; a
corpus of malformed texts; and a seeded fuzz of small edits.
"""

import random

import pytest

import reference_tree as ref
from treelasso import NewickError, parse_newick, random_tree
from treelasso.tree import TreeError

_SPACE = ("", "", "", " ", "  ", "\n", "\t", "\r\n", " \n ")


def _outcome(parse, text):
    try:
        tree = parse(text)
    except Exception as exc:  # any type: the two parsers must agree on it
        return type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "column", None)
    return tree.edges(), dict(tree._label_by_leaf), tree.newick()


def _same(text):
    expected = _outcome(ref.parse_newick, text)
    assert _outcome(parse_newick, text) == expected, text
    return expected


def _written(tree, rng, lengths=True, space=False, labels=False, redundant=False, chain=0):
    """Newick text of *tree* from its index's root, children in shuffled
    order, with the requested decorations."""
    parent = tree._index.parent

    def ws():
        return rng.choice(_SPACE) if space else ""

    def length(w):
        if not lengths or rng.random() < 0.1:
            return ""
        return ws() + ":" + ws() + rng.choice((repr(w), f"{w:.3g}", f"{w:e}"))

    def subtree(v):
        if tree.is_leaf(v) and parent[v] is not None:
            text = ws() + tree.leaf_label(v) + ws()
        else:
            kids = [c for c in tree.neighbors(v) if c != parent[v]]
            rng.shuffle(kids)
            text = ws() + "(" + ",".join(subtree(c) + length(tree.weight(v, c)) for c in kids) + ")" + ws()
            if labels and rng.random() < 0.5:
                text += rng.choice(("x", "n7", "in.ner-1_")) + ws()
        while redundant and rng.random() < 0.2:
            text = "(" + ws() + text + ")" + ws()
        return text

    text = subtree(tree._index.order[0])
    for _ in range(chain):
        text = "(" + ws() + text + ws() + ")" + (rng.choice(("", "r")) if labels else "") + ws()
    return text + ";" + ws()


def test_valid_trees_parse_to_the_same_tree():
    rng = random.Random(28)
    kinds = dict(plain={}, bare=dict(lengths=False), spaced=dict(space=True), labelled=dict(labels=True),
                 redundant=dict(redundant=True), chained=dict(chain=2, labels=True),
                 everything=dict(space=True, labels=True, redundant=True, chain=1))
    for n in range(3, 201):
        tree = random_tree(n, seed=n)
        assert _same(tree.newick())[2] == tree.newick()
        for name in (rng.sample(sorted(kinds), 3) if n > 40 else kinds):
            text = _written(tree, rng, **kinds[name])
            edges, _, newick = _same(text)
            assert len(edges) == 2 * n - 3, (n, name)
            if name == "bare":
                assert {w for _, _, w in edges} == {1.0}, n


def _layout(tree):
    """What the tree keeps, in the order it keeps it: the adjacency with each
    vertex's neighbours, the leaves both ways, whether it is fully resolved,
    and the rooted index."""
    return ([(v, list(nbrs.items())) for v, nbrs in tree._adj.items()], list(tree._leaf_by_label.items()),
            list(tree._label_by_leaf.items()), tree._resolved, tree._index)


def test_trees_keep_the_constructors_layout():
    # parse_newick builds its tree without XTree's constructor; the
    # reference goes through it, so each dict must come out in the same
    # order (the index's preorder and every walk over the adjacency follow it).
    rng = random.Random(40)
    for n in range(3, 121):
        tree = random_tree(n, seed=n)
        for kind in ({}, dict(lengths=False), dict(redundant=True), dict(chain=2, labels=True),
                     dict(space=True, labels=True, redundant=True, chain=1)):
            text = _written(tree, rng, **kind)
            assert _layout(parse_newick(text)) == _layout(ref.parse_newick(text)), text


def test_a_merged_length_past_the_float_range_names_its_edge():
    # The two root edges merge into one of length 2e308, which is inf.
    with pytest.raises(TreeError) as err:
        parse_newick("((a:1,b:1):1e308,(c:1,d:1):1e308);")
    assert str(err.value) == "edge (1,4) has invalid weight inf"


@pytest.mark.parametrize(
    "text",
    [
        "", " \n", ";", "a;", "(a);", "(a,b);", "((a));", "(a:1);", "((a,b,c):1);", "(((a,b,c)));",
        "(a,b,c):1;", "(a,b,c)root:0.5;", "(a:1_0,b,c);", "(a:inf,b,c);", "(a:nan,b,c);",
        "(a:1e999,b,c);", "(a:-1,b,c);", "(a:-0,b,c);", "(a:1.0x,b,c);", "(a:1.0.0,b,c);",
        "(a:,b,c);", "(a: ,b,c);", "(a:e,b,c);", "(a:+,b,c);", "(a,b,c)", "(a,b,c);;", "(a,b,c); x",
        "(a,b,c);\n\n", "(a,b,c)\n;", "(a,,b,c);", "(,a,b);", "(a,b,c,);", "(a,b,());", "(a b,c,d);",
        "(a,b,c)x y;", "(a,b,(c,d)e:1f);", "(a,b,c;", "(a,b,c));", "(a,b)(c,d);", "((a,b)c,d)e:1:2;",
        "(a,a,b);", "(a,b,(c,a));", "(a,b,é);", "(a,b,c\u00a0);", "(a,b,c)\x0c;", "(a,\tb,\r\nc);",
        "(a,b,c)[comment];", "(a:1,(b:1e308,c:1e308):1e308);", "((a,b):1e308,(c,d):1e308);",
        "(\n(a,\nb)\n,\nc\n:\n-2);", "(a:1e+3,b:1E-3,c:.5);", "(a:1.,b:+2,c:0e0);",
    ],
)
def test_malformed_and_edge_inputs_match_the_reference(text):
    _same(text)


def test_errors_point_at_their_token():
    with pytest.raises(NewickError) as err:
        parse_newick("(a,b,\n  c:\n -2);")
    assert (str(err.value), err.value.line, err.value.column) == (
        "negative branch length '-2' (line 3, column 2)", 3, 2)
    with pytest.raises(NewickError, match=r"^expected ';' \(line 1, column 8\)$"):
        parse_newick("(a,b,c)")


_ERRORS = ("expected ';'", "expected '(' or a taxon label", "unexpected end of input",
           "unbalanced parenthesis", "trailing characters after ';'", "invalid branch length",
           "non-finite branch length", "negative branch length", "branch length on a single-child root",
           "duplicate leaf label", "fewer than 3 leaves")


def test_seeded_fuzz_matches_the_reference():
    rng = random.Random(2028)
    alphabet = "(),:;;ab1.eE+-_ \t\n\r" + "é#"
    bases = []
    for n in (3, 4, 5, 7):
        tree = random_tree(n, seed=n)
        bases += [tree.newick(), _written(tree, rng, space=True, labels=True, redundant=True, chain=1),
                  _written(tree, rng, lengths=False)]
    kinds = set()
    for _ in range(20_000):
        text = list(rng.choice(bases))
        for _ in range(rng.randint(1, 3)):
            k = rng.randrange(len(text) + 1)
            edit = rng.randrange(3)
            if edit == 0:
                text.insert(k, rng.choice(alphabet))
            elif k < len(text):
                if edit == 1:
                    del text[k]
                else:
                    text[k] = rng.choice(alphabet)
        outcome = _same("".join(text))
        parsed = isinstance(outcome[0], list)
        assert parsed or outcome[0] is NewickError, outcome
        kinds.add("tree" if parsed else next(k for k in _ERRORS if outcome[1].startswith(k)))
    # Every other kind of outcome occurs; edits this small reach neither an
    # early end nor a length on a single-child root, which the corpus has.
    assert kinds == {"tree", *_ERRORS} - {"unexpected end of input", "branch length on a single-child root"}, kinds
