"""Cords (unordered taxon pairs), cord sets, and partial distance maps.

A Cord equals its sorted 2-tuple, hash included.  A cord set L can be read
as the graph (X, L) on the taxon set, one partner bitset per taxon; a partial
distance map assigns a non-negative value to each cord of its domain.  The
file formats are line oriented: ``taxonA<TAB>taxonB`` for cord sets and
``taxonA<TAB>taxonB<TAB>decimal`` for distances, with '#' comments and blank
lines ignored.

A distance map is stored on taxon indices, not on Cords: the sorted taxa,
two index arrays i < j and a float64 value array, in cord order (see
PartialDistance).  Parsing, formatting and the tree distances write or read
those arrays in bulk; a Cord is made only when the map is read as a Mapping.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import namedtuple
from typing import Collection, Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .tolerance import DEFAULT_EPSILON, approx_equal
from .tree import LABEL_PATTERN, XTree


class CordFormatError(ValueError):
    """Malformed cord/distance file, with the offending 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class Cord(namedtuple("Cord", "a b")):
    """An unordered pair of distinct taxa, kept sorted: Cord('b','a') == Cord('a','b') == ('a','b')."""

    __slots__ = ()

    def __new__(cls, a: str, b: str):
        if a == b:
            raise ValueError(f"self-cord {a!r}")
        return tuple.__new__(cls, (a, b) if a < b else (b, a))

    @classmethod
    def _make(cls, iterable):  # namedtuple's own skips __new__; _replace goes through it
        return cls(*iterable)

    @property
    def taxa(self) -> frozenset[str]:
        return frozenset(self)

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
    return frozenset(itertools.starmap(Cord, itertools.combinations(sorted(set(taxa)), 2)))


def cord_taxa(cords: Iterable[Cord]) -> frozenset[str]:
    return frozenset(itertools.chain.from_iterable(cords))


class PartialDistance(Mapping):
    """Immutable map from cords to non-negative distances.

    Stored form: the sorted taxa its cords mention, and three arrays in cord
    order, one entry per cord (taxa[i], taxa[j]): indices i < j and float64
    values.  As the taxa are sorted, cord order is the order of the codes
    i*n + j, so the arrays are the sorted iteration itself.  The library's
    producers (parse_cord_distances, induced_distance, full_distance, the
    closure's *final*) write the arrays and its readers (format, insertion, NJ,
    reconstruct's check and blocks, the closure engine) read them, with no
    Cord per pair.  The Cord-keyed dict is a view, built in cord order on
    the first Mapping access (d[c], iteration, *cords*, *value*) and kept.
    """

    def __init__(self, entries: Mapping[Cord, float] | Iterable[tuple[Cord, float]]):
        items = entries.items() if isinstance(entries, Mapping) else entries
        data: dict[Cord, float] = {}
        for cord, value in items:
            value = float(value)
            if not math.isfinite(value) or value < 0.0:
                raise ValueError(f"distance for {cord} must be finite and >= 0, got {value}")
            data[cord if type(cord) is Cord else Cord(*cord)] = value
        self._store(*_arrays(data))

    @classmethod
    def _of(cls, taxa: Sequence[str], i: np.ndarray, j: np.ndarray, v: np.ndarray) -> PartialDistance:
        """The map of the cords (taxa[i[k]], taxa[j[k]]), i[k] < j[k] over
        the sorted *taxa*, to the values v[k], which the caller has checked,
        no cord twice; put in cord order here, and the taxa of no cord left
        out."""
        d = cls.__new__(cls)
        d._store(taxa, i, j, v)
        return d

    def _store(self, taxa: Sequence[str], i: np.ndarray, j: np.ndarray, v: np.ndarray) -> None:
        n = len(taxa)
        used = np.zeros(n, dtype=bool)
        used[i] = used[j] = True
        if not used.all():  # renumber the taxa that some cord mentions
            renumber = np.cumsum(used) - 1
            taxa, i, j = list(itertools.compress(taxa, used.tolist())), renumber[i], renumber[j]
            n = len(taxa)
        codes = i * n + j
        if not (codes[1:] > codes[:-1]).all():
            order = np.argsort(codes, kind="stable")
            i, j, v = i[order], j[order], v[order]
        self._taxa, self._i, self._j, self._v = list(taxa), i, j, v

    @functools.cached_property
    def _data(self) -> dict[Cord, float]:
        """The Cord-keyed view, in cord order."""
        taxa, new = self._taxa, tuple.__new__
        pairs = zip(map(taxa.__getitem__, self._i.tolist()), map(taxa.__getitem__, self._j.tolist()))
        return dict(zip(map(functools.partial(new, Cord), pairs), self._v.tolist()))

    def _partners(self) -> list[int]:
        """The graph of the cords as one partner bitset per taxon, bit j of
        entry i set when taxa[i] and taxa[j] share a cord (_partner_bits)."""
        n = len(self._taxa)
        known = np.zeros((n, n), dtype=bool)
        known[self._i, self._j] = known[self._j, self._i] = True
        return _row_bits(known)

    def __getitem__(self, cord: Cord) -> float:
        return self._data[cord]

    def __iter__(self) -> Iterator[Cord]:
        return iter(self._data)

    def __len__(self) -> int:
        return len(self._v)

    @property
    def cords(self) -> frozenset[Cord]:
        return frozenset(self._data)

    @functools.cached_property
    def taxa(self) -> frozenset[str]:
        return frozenset(self._taxa)

    def value(self, x: str, y: str) -> float:
        return self._data[Cord(x, y)]

    def __repr__(self) -> str:
        return f"<PartialDistance: {len(self)} cords on {len(self._taxa)} taxa>"


def _arrays(data: Mapping[Cord, float]) -> tuple[list[str], np.ndarray, np.ndarray, np.ndarray]:
    """The stored form of a dict of Cords: sorted taxa, index arrays, values."""
    taxa = sorted(cord_taxa(data))
    index = {t: k for k, t in enumerate(taxa)}
    ends = np.fromiter(map(index.__getitem__, itertools.chain.from_iterable(data)), np.intp, 2 * len(data))
    return taxa, ends[0::2], ends[1::2], np.fromiter(data.values(), float, len(data))


def _content_lines(text: str) -> Iterator[tuple[int, str]]:
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield lineno, line


def _checked_cord(a: str, b: str, lineno: int, valid: set[str]) -> Cord:
    """The cord a-b of a file line; *valid* holds the labels already
    checked, so each distinct label meets the pattern once."""
    for label in (a, b):
        if label not in valid:
            if not LABEL_PATTERN.match(label):
                raise CordFormatError(f"invalid taxon label {label!r}", lineno)
            valid.add(label)
    if a == b:
        raise CordFormatError(f"self-cord {a!r}", lineno)
    return tuple.__new__(Cord, (a, b) if a < b else (b, a))


def parse_cord_distances(text: str, eps: float = DEFAULT_EPSILON) -> PartialDistance:
    """Parse a cord-distance TSV.

    Duplicate cords with consistent values (within eps) are deduplicated;
    conflicting duplicates, self-cords, negative distances and malformed
    lines raise CordFormatError with the line number.  A clean file, every
    line exactly 'taxonA<TAB>taxonB<TAB>decimal' with no comment, blank line,
    padded label or repeated cord, is read in bulk (_parse_clean); any other
    goes whole through the line-by-line loop, which gives the same map on
    what both accept and alone raises the errors.
    """
    clean = _parse_clean(text)
    if clean is not None:
        return clean
    data: dict[Cord, float] = {}
    valid: set[str] = set()
    for lineno, line in _content_lines(text):
        fields = line.split("\t")
        if len(fields) != 3:
            raise CordFormatError(
                f"expected 'taxonA<TAB>taxonB<TAB>decimal', got {line!r}", lineno
            )
        a, b, raw_value = fields
        raw_value = raw_value.strip()
        try:
            value = float(raw_value)
        except ValueError:
            raise CordFormatError(f"invalid distance {raw_value!r}", lineno) from None
        if not 0 <= value < math.inf:  # also false on nan
            kind = "negative" if math.isfinite(value) else "non-finite"
            raise CordFormatError(f"{kind} distance {raw_value!r}", lineno)
        cord = _checked_cord(a.strip(), b.strip(), lineno, valid)
        kept = data.setdefault(cord, value)  # the first value given for the cord
        if kept is not value and not approx_equal(kept, value, eps):
            raise CordFormatError(f"conflicting duplicate for {cord}: {kept} vs {value}", lineno)
    return PartialDistance._of(*_arrays(data))


def _parse_clean(text: str) -> PartialDistance | None:
    """The map of a clean distance file in one pass per column, or None when
    the file is not clean.  Each line holds exactly two tabs; each distinct
    label meets the pattern, which admits no whitespace or '#', so no line
    is blank, a comment or padded before a value; each value is float() of
    its field, finite and >= 0 (float() strips the same whitespace that the
    line loop strips); no cord is a self-cord or repeats.  On such a file
    the line loop keeps every line as it stands: the same map."""
    lines = text.splitlines()
    if not lines or set(map(str.count, lines, itertools.repeat("\t"))) != {2}:
        return None
    joined = "\t".join(lines)
    del lines  # each copy of the text is dropped once read: a lower peak
    fields = joined.split("\t")
    del joined
    firsts, seconds = fields[0::3], fields[1::3]
    taxa = sorted(set(firsts).union(seconds))
    if not all(map(LABEL_PATTERN.match, taxa)):
        return None
    try:
        values = np.fromiter(map(float, itertools.islice(fields, 2, None, 3)), float, len(firsts))
    except ValueError:
        return None
    del fields
    if not ((values >= 0) & (values < math.inf)).all():
        return None
    index = dict(zip(taxa, itertools.count()))
    a = np.fromiter(map(index.__getitem__, firsts), np.intp, len(firsts))
    b = np.fromiter(map(index.__getitem__, seconds), np.intp, len(seconds))
    if (a == b).any():
        return None
    d = PartialDistance._of(taxa, np.minimum(a, b), np.maximum(a, b), values)
    codes = d._i * len(taxa) + d._j
    return None if (codes[1:] == codes[:-1]).any() else d


def format_cord_distances(d: PartialDistance) -> str:
    """Serialise a distance map as sorted TSV lines, one pass over its
    arrays, which are in cord order."""
    taxa = d._taxa
    firsts, seconds = map(taxa.__getitem__, d._i.tolist()), map(taxa.__getitem__, d._j.tolist())
    return "".join([f"{a}\t{b}\t{v!r}\n" for a, b, v in zip(firsts, seconds, d._v.tolist())])


def parse_cord_set(text: str) -> frozenset[Cord]:
    """Parse a cord-set file (one 'taxonA<TAB>taxonB' per line)."""
    cords = set()
    valid: set[str] = set()
    for lineno, line in _content_lines(text):
        fields = line.split("\t")
        if len(fields) != 2:
            raise CordFormatError(f"expected 'taxonA<TAB>taxonB', got {line!r}", lineno)
        a, b = fields
        cords.add(_checked_cord(a.strip(), b.strip(), lineno, valid))
    return frozenset(cords)


def format_cord_set(cords: Iterable[Cord]) -> str:
    return "".join(f"{c.a}\t{c.b}\n" for c in sorted(cords))


def induced_distance(tree: XTree, cords: Iterable[Cord]) -> PartialDistance:
    """Restriction of the tree metric to the given cords, each a Cord or a
    pair of labels; KeyError when one names a taxon outside the tree.  Each
    value is the exact sum of its path's weights, rounded once: N / 2^s in
    integers, 2^-s the weights' finest unit, which Python's int division
    rounds correctly and ``tree.distance`` returns too, so the values are
    bit-identical to it and an OverflowError comes where it raises
    (XTree._pair_distances); found in one pass."""
    cords = _cords_over(cords, tree)
    taxa = tree._index.taxa
    index = {t: k for k, t in enumerate(taxa)}
    ends = np.fromiter(map(index.__getitem__, itertools.chain.from_iterable(cords)), np.intp, 2 * len(cords))
    codes = np.sort(ends[0::2] * len(taxa) + ends[1::2])  # each Cord is sorted, so i < j: cord order
    return _distances(tree, *np.divmod(codes, len(taxa)))


def full_distance(tree: XTree) -> PartialDistance:
    """The complete tree metric on all leaf pairs, each value the exact
    path sum rounded once, as in induced_distance: bit-identical to
    ``tree.distance`` on each, found in one pass."""
    return _distances(tree, *np.triu_indices(tree.n_leaves, 1))


def _distances(tree: XTree, i: np.ndarray, j: np.ndarray) -> PartialDistance:
    """``tree.distance`` of the cords (taxa[i[k]], taxa[j[k]]) over the
    tree's sorted taxa, i < j and in cord order, as arrays handed straight
    to PartialDistance: path sums of finite non-negative weights, so finite
    and non-negative themselves (an overflow raises), as it needs."""
    return PartialDistance._of(tree._index.taxa, i, j, tree._pair_distances(i, j))


def _cords_over(cords: Iterable[Cord], tree: XTree) -> set[Cord]:
    """The cords as a set of Cords, each given as a Cord or as any pair of
    labels; KeyError when one names a taxon outside the tree."""
    cords = {c if type(c) is Cord else Cord(*c) for c in cords}
    stray = cord_taxa(cords) - tree.taxa
    if stray:
        raise KeyError(f"cords mention taxa outside the tree: {sorted(stray)!r}")
    return cords


class _Bound(NamedTuple):
    """A cord set bound to a tree (_bind): its Cords, their partner bitsets
    and is_shellable's verdict once known; *key*, the slot's frozenset."""

    key: frozenset | None
    cords: set[Cord]
    partners: list[int]
    shellable: bool | None = None

    def record(self, tree: XTree, shellable: bool) -> None:
        if self.key is not None:  # the binding that the tree's cord slot keeps
            tree._cord_slot = self._replace(shellable=shellable)


def _bind(cords: Iterable[Cord], tree: XTree) -> _Bound:
    """The cords bound to the tree: a frozenset once per tree, in its cord
    slot, keyed by identity (see XTree), any other iterable on each call.
    The slot is replaced by one assignment, never changed in place."""
    slot = tree._cord_slot
    if slot is not None and slot.key is cords:
        return slot
    checked = _cords_over(cords, tree)
    key = cords if type(cords) is frozenset else None
    bound = _Bound(key, checked, _partner_bits(checked, tree._index.taxa))
    if key is not None:
        tree._cord_slot = bound
    return bound


def _partner_bits(cords: Collection[Cord], taxa: Sequence[str]) -> list[int]:
    """The graph (X, L) as one bitset per taxon: entry i holds bit j when
    taxa[i] and taxa[j] share a cord.  Callers pass X sorted, so bit order is
    label order; a taxon in no cord is isolated."""
    bit = {t: i for i, t in enumerate(taxa)}
    stray = cord_taxa(cords) - bit.keys()
    if stray:
        raise ValueError(f"cords mention taxa outside X: {sorted(stray)!r}")
    partners = [0] * len(taxa)
    for a, b in cords:
        partners[bit[a]] |= 1 << bit[b]
        partners[bit[b]] |= 1 << bit[a]
    return partners


def _row_bits(mask: np.ndarray) -> list[int]:
    """Each row of a boolean n x n *mask* as a bitset, bit j of entry i set
    where mask[i, j] is."""
    n = len(mask)
    width = (n + 7) // 8
    packed = np.packbits(mask, axis=1, bitorder="little").tobytes()
    return [int.from_bytes(packed[k:k + width], "little") for k in range(0, n * width, width)]


def _bit_indices(bits: int) -> Iterator[int]:
    """Positions of the set bits, lowest first, computed as they are read."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


class GraphChecks(NamedTuple):
    connected: bool
    all_components_non_bipartite: bool


def graph_necessary_checks(cords: Iterable[Cord], taxa: Iterable[str]) -> GraphChecks:
    """Connectivity and per-component non-bipartiteness of the graph (X, L).

    Both must hold for L to be a strong lasso of any tree on X; taxa missing
    from every cord count as isolated vertices.  From the lowest unreached
    taxon, walks[p] gathers the taxa reached by walks of parity p: a search
    of the bipartite double cover, one frontier at a time.  The component
    has an odd cycle exactly when some taxon is in both walks[0] and walks[1].
    """
    partners = _partner_bits(set(cords), sorted(set(taxa)))
    unreached = (1 << len(partners)) - 1
    odd: list[bool] = []  # per component: does it hold an odd cycle?
    while unreached:
        walks = [unreached & -unreached, 0]
        frontier, parity = walks[0], 0
        while frontier:
            parity ^= 1
            reach = 0
            for v in _bit_indices(frontier):
                reach |= partners[v]
            frontier = reach & ~walks[parity]
            walks[parity] |= frontier
        unreached &= ~(walks[0] | walks[1])
        odd.append(bool(walks[0] & walks[1]))
    return GraphChecks(len(odd) <= 1, all(odd))
