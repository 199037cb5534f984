"""Shared fixtures: the two worked example trees and their cord sets.

Tree A ("caterpillar7") is the 7-taxon caterpillar with cherries {a,b} and
{f,g} and backbone order a,b | c | d | e | f,g.  That topology is pinned
down by the published facts about it: exactly two cherries, and unit-weight
distances d(a,b)=2, d(c,e)=4, d(c,f)=5 (the two-cherry condition forces a
caterpillar shape, and those distances force c,d,e onto the backbone in
that order).  The 11-cord lasso and its shelling ordering below validate
against exactly this topology.

Tree B ("snowflake6") is the 6-taxon tree with three cherries {a,a'},
{b,b'}, {c,c'} around a central vertex.  Primes are spelled 'p' (ap, bp,
cp) because apostrophes are outside the taxon-label alphabet.
"""

import os
from pathlib import Path

import pytest

import treelasso
from treelasso import Cord, parse_newick

# The tests that run `python -m treelasso` in a subprocess need the package
# this suite imports, also when it comes from pyproject.toml's pytest
# pythonpath rather than from an install.
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(treelasso.__file__).parents[1]), os.environ.get("PYTHONPATH")])
)

CATERPILLAR7_NEWICK = "(a:1,b:1,(c:1,(d:1,(e:1,(f:1,g:1):1):1):1):1);"
SNOWFLAKE6_NEWICK = "(a:1,ap:1,((b:1,bp:1):1,(c:1,cp:1):1):1);"

#: Example-1 lasso: the 11 = 2*7-3 cords whose graph is a strong lasso of
#: the caterpillar.
LASSO11_PAIRS = [
    ("a", "b"), ("b", "d"), ("a", "d"), ("b", "c"), ("b", "f"), ("a", "g"),
    ("d", "g"), ("e", "b"), ("e", "f"), ("f", "g"), ("g", "c"),
]

#: The published shelling of the remaining 10 cords with its pivot pairs.
SHELLING10 = [
    (("b", "g"), ("a", "d")),
    (("c", "d"), ("b", "g")),
    (("a", "c"), ("b", "d")),
    (("c", "f"), ("b", "g")),
    (("c", "e"), ("b", "f")),
    (("a", "f"), ("b", "g")),
    (("d", "f"), ("b", "g")),
    (("a", "e"), ("b", "f")),
    (("e", "g"), ("a", "f")),
    (("e", "d"), ("b", "f")),
]

#: The stable triplet cover of the snowflake generated in Example 3.
COVER9_PAIRS = [
    ("a", "b"), ("a", "c"), ("b", "c"),
    ("a", "ap"), ("ap", "b"), ("b", "bp"),
    ("bp", "c"), ("c", "cp"), ("cp", "a"),
]

#: Remark-(1) cord set: a 2d-tree on four taxa that is not a strong lasso
#: for the quartet ab||cd.
REMARK1_PAIRS = [("a", "b"), ("a", "c"), ("b", "c"), ("a", "d"), ("b", "d")]


def cords_of(pairs):
    return frozenset(Cord(x, y) for x, y in pairs)


@pytest.fixture(scope="session")
def caterpillar7():
    return parse_newick(CATERPILLAR7_NEWICK)


@pytest.fixture(scope="session")
def lasso11():
    return cords_of(LASSO11_PAIRS)


@pytest.fixture(scope="session")
def shelling10():
    return [(Cord(a, b), pivots) for (a, b), pivots in SHELLING10]


@pytest.fixture(scope="session")
def snowflake6():
    return parse_newick(SNOWFLAKE6_NEWICK)


@pytest.fixture(scope="session")
def cover9():
    return cords_of(COVER9_PAIRS)


@pytest.fixture(scope="session")
def example3_transversal(snowflake6):
    """Example 3's stable transversal, completed on the co-singletons.

    The cherry and cherry-complement picks are the published ones; each
    co-singleton X-{x} takes the value of the cherry-complement it contains
    (the min rule would violate stability here: min(X-{b}) = a lands inside
    X-{b,b'} whose pick is c).
    """
    taxa = snowflake6.taxa
    f = {frozenset({x}): x for x in taxa}
    f[frozenset({"a", "ap"})] = "a"
    f[frozenset({"b", "bp"})] = "b"
    f[frozenset({"c", "cp"})] = "c"
    f[taxa - {"a", "ap"}] = "b"
    f[taxa - {"b", "bp"}] = "c"
    f[taxa - {"c", "cp"}] = "a"
    co_singleton = {"a": "b", "ap": "b", "b": "c", "bp": "c", "c": "a", "cp": "a"}
    for x, image in co_singleton.items():
        f[taxa - {x}] = image
    return f


@pytest.fixture(scope="session")
def quartet_abcd():
    """ab||cd with unit pendant edges and interior weight 2."""
    return parse_newick("((a:1,b:1):1,(c:1,d:1):1);")


@pytest.fixture(scope="session")
def remark1_cords():
    return cords_of(REMARK1_PAIRS)
