"""Cords (unordered taxon pairs), cord sets, and partial distance maps.

A cord set L can be read as the graph (X, L) on the taxon set; a partial
distance map assigns a non-negative value to each cord of its domain.  The
file formats are line oriented: ``taxonA<TAB>taxonB`` for cord sets and
``taxonA<TAB>taxonB<TAB>decimal`` for distances, with '#' comments and blank
lines ignored.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, NamedTuple

from .tolerance import DEFAULT_EPSILON, approx_equal
from .tree import LABEL_PATTERN, XTree


class CordFormatError(ValueError):
    """Malformed cord/distance file, with the offending 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


@dataclass(frozen=True, order=True)
class Cord:
    """An unordered pair of distinct taxa; Cord('b','a') == Cord('a','b')."""

    a: str
    b: str

    def __post_init__(self):
        if self.a == self.b:
            raise ValueError(f"self-cord {self.a!r}")
        if self.a > self.b:
            first, second = self.b, self.a
            object.__setattr__(self, "a", first)
            object.__setattr__(self, "b", second)

    @property
    def taxa(self) -> frozenset[str]:
        return frozenset((self.a, self.b))

    def other(self, taxon: str) -> str:
        if taxon == self.a:
            return self.b
        if taxon == self.b:
            return self.a
        raise KeyError(f"{taxon!r} is not an end of {self}")

    def __str__(self) -> str:
        return f"{self.a}{self.b}" if len(self.a) == len(self.b) == 1 else f"{self.a}-{self.b}"


def all_cords(taxa: Iterable[str]) -> frozenset[Cord]:
    """Every cord over the given taxa."""
    return frozenset(Cord(a, b) for a, b in itertools.combinations(sorted(set(taxa)), 2))


def cord_taxa(cords: Iterable[Cord]) -> frozenset[str]:
    return frozenset(t for c in cords for t in (c.a, c.b))


class PartialDistance(Mapping):
    """Immutable map from cords to non-negative distances."""

    def __init__(self, entries: Mapping[Cord, float] | Iterable[tuple[Cord, float]]):
        items = entries.items() if isinstance(entries, Mapping) else entries
        data: dict[Cord, float] = {}
        for cord, value in items:
            value = float(value)
            if not math.isfinite(value) or value < 0.0:
                raise ValueError(f"distance for {cord} must be finite and >= 0, got {value}")
            data[cord] = value
        self._data = data

    def __getitem__(self, cord: Cord) -> float:
        return self._data[cord]

    def __iter__(self) -> Iterator[Cord]:
        return iter(sorted(self._data))

    def __len__(self) -> int:
        return len(self._data)

    @property
    def cords(self) -> frozenset[Cord]:
        return frozenset(self._data)

    @property
    def taxa(self) -> frozenset[str]:
        return cord_taxa(self._data)

    def value(self, x: str, y: str) -> float:
        return self._data[Cord(x, y)]

    def __repr__(self) -> str:
        return f"<PartialDistance: {len(self._data)} cords on {len(self.taxa)} taxa>"


def _content_lines(text: str) -> Iterator[tuple[int, str]]:
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield lineno, line


def _checked_cord(a: str, b: str, lineno: int) -> Cord:
    for label in (a, b):
        if not LABEL_PATTERN.match(label):
            raise CordFormatError(f"invalid taxon label {label!r}", lineno)
    try:
        return Cord(a, b)
    except ValueError:
        raise CordFormatError(f"self-cord {a!r}", lineno) from None


def parse_cord_distances(text: str, eps: float = DEFAULT_EPSILON) -> PartialDistance:
    """Parse a cord-distance TSV.

    Duplicate cords with consistent values (within eps) are deduplicated;
    conflicting duplicates, self-cords, negative distances and malformed
    lines raise CordFormatError with the line number.
    """
    data: dict[Cord, float] = {}
    for lineno, line in _content_lines(text):
        fields = line.split("\t")
        if len(fields) != 3:
            raise CordFormatError(
                f"expected 'taxonA<TAB>taxonB<TAB>decimal', got {line!r}", lineno
            )
        a, b, raw_value = (f.strip() for f in fields)
        try:
            value = float(raw_value)
        except ValueError:
            raise CordFormatError(f"invalid distance {raw_value!r}", lineno) from None
        if not math.isfinite(value):
            raise CordFormatError(f"non-finite distance {raw_value!r}", lineno)
        if value < 0:
            raise CordFormatError(f"negative distance {raw_value!r}", lineno)
        cord = _checked_cord(a, b, lineno)
        if cord in data and not approx_equal(data[cord], value, eps):
            raise CordFormatError(
                f"conflicting duplicate for {cord}: {data[cord]} vs {value}", lineno
            )
        data.setdefault(cord, value)
    return PartialDistance(data)


def format_cord_distances(d: PartialDistance) -> str:
    """Serialise a distance map as sorted TSV lines."""
    return "".join(f"{c.a}\t{c.b}\t{d[c]!r}\n" for c in d)


def parse_cord_set(text: str) -> frozenset[Cord]:
    """Parse a cord-set file (one 'taxonA<TAB>taxonB' per line)."""
    cords = set()
    for lineno, line in _content_lines(text):
        fields = line.split("\t")
        if len(fields) != 2:
            raise CordFormatError(f"expected 'taxonA<TAB>taxonB', got {line!r}", lineno)
        a, b = (f.strip() for f in fields)
        cords.add(_checked_cord(a, b, lineno))
    return frozenset(cords)


def format_cord_set(cords: Iterable[Cord]) -> str:
    return "".join(f"{c.a}\t{c.b}\n" for c in sorted(cords))


def induced_distance(tree: XTree, cords: Iterable[Cord]) -> PartialDistance:
    """Restriction of the tree metric to the given cords."""
    return PartialDistance({c: tree.distance(c.a, c.b) for c in cords})


def full_distance(tree: XTree) -> PartialDistance:
    """The complete tree metric on all leaf pairs."""
    return induced_distance(tree, all_cords(tree.taxa))


def _cords_over(cords: Iterable[Cord], tree: XTree) -> set[Cord]:
    """The cords as a set; KeyError when one names a taxon outside the tree."""
    cords = set(cords)
    stray = cord_taxa(cords) - tree.taxa
    if stray:
        raise KeyError(f"cords mention taxa outside the tree: {sorted(stray)!r}")
    return cords


def _adjacency(cords: set[Cord], taxa: Iterable[str]) -> dict[str, set[str]]:
    """The graph (X, L) as neighbour sets; a taxon in no cord is isolated."""
    adj: dict[str, set[str]] = {t: set() for t in taxa}
    stray = cord_taxa(cords) - adj.keys()
    if stray:
        raise ValueError(f"cords mention taxa outside X: {sorted(stray)!r}")
    for c in cords:
        adj[c.a].add(c.b)
        adj[c.b].add(c.a)
    return adj


class GraphChecks(NamedTuple):
    connected: bool
    all_components_non_bipartite: bool


def graph_necessary_checks(cords: Iterable[Cord], taxa: Iterable[str]) -> GraphChecks:
    """Connectivity and per-component non-bipartiteness of the graph (X, L).

    Both must hold for L to be a strong lasso of any tree on X; taxa missing
    from every cord count as isolated vertices.
    """
    adj = _adjacency(set(cords), taxa)
    color: dict[str, int] = {}
    components = 0
    all_odd = True
    for start in sorted(adj):
        if start in color:
            continue
        components += 1
        component_has_odd_cycle = False
        color[start] = 0
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for nb in adj[v]:
                if nb not in color:
                    color[nb] = 1 - color[v]
                    queue.append(nb)
                elif color[nb] == color[v]:
                    component_has_odd_cycle = True
        if not component_has_odd_cycle:
            all_odd = False
    return GraphChecks(components <= 1, all_odd)
