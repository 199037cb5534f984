"""Unrooted leaf-labelled trees (X-trees) with non-negative edge weights.

An X-tree has its leaves bijectively labelled by a taxon set X, carries a
non-negative weight on every edge, and contains no degree-2 vertices.  The
weighted path length between two leaves induces the usual tree metric on X.

This module provides the representation plus the structural queries the rest
of the package is built on: Newick I/O in a canonical form, path distances,
clusters/splits, restriction to a taxon subset, quartet topologies, cherries,
topology equality, and a seeded random-tree generator for property tests.

Conventions
-----------
* Taxon labels match ``[A-Za-z0-9_.-]+`` and are unique within a tree.
* Vertices are opaque integer ids; only leaves are labelled.
* ``XTree`` values are immutable after construction: every operation returns
  a new tree or a plain value, so instances are safe to share between
  threads.
* A path distance is the exact sum of the path's weights, rounded once
  (``math.fsum``, or integers where fsum overflows midway), so
  ``distance(x, y) == distance(y, x)`` exactly.

Rooted index
------------
Path, side and hop queries read one index per tree, built by the depth-first
walk with which the constructor checks that the edges form a single tree:
the tree rooted next to its smallest taxon, its vertices in preorder, with
each vertex's parent, hop depth and the bitset (a Python int, bit i for the
i-th sorted taxon) of the leaves at or below it.  ``lca`` climbs parent
pointers; the hop distance is depth[x] + depth[y] - 2 * depth[lca], and
``distance`` sums the weights from both ends up to it.
The side of edge {u, v} where v is u's parent is ``below[u]``, the other
its complement; an edge is on a leaf path exactly when its side holds one end.

Distances in bulk (``_pair_distances``, behind ``full_distance``,
``induced_distance`` and reconstruct's check) take no path walk per pair.
With s the largest exponent of the power-of-two denominators of the edge
weights, every weight is an integer in units of 2^-s, and so is each
vertex's root-path sum U, kept as a Python int, exactly.  A pair's path
sum is N / 2^s, N = U[x] + U[y] - 2 U[v], v their lowest common ancestor.
In the preorder, v is the shallowest of the gap vertices between the two
leaves, the gap after a leaf being the parent of the vertex that follows
it; U never falls going down the tree, so U[v] is the least U over those
gaps, read off one sparse table of range minima (Bender and
Farach-Colton, 2000).  Python's int division rounds N / 2^s correctly
(half to even, subnormals included) and raises OverflowError past the
float range, and ``distance`` returns the same correctly rounded sum, so
the two agree bit for bit and raise on the same paths.  When every U is
below 2^61 and s <= 1022 the quotients are taken in int64 and one numpy
pass instead, exact there as well (``_quotients_int64``).
Newick parsing and writing are iterative, so nesting depth is bounded by
memory, not by the interpreter's recursion limit.

``parse_newick`` reads the text in one compiled regular-expression scan, a
match per token (a label, ':' and a length, or one other character) after
the whitespace before it.  A state machine over the tokens numbers each
vertex in preorder at its first token and raises each error at its token's
line and column; single-child roots are then dropped, degree-2 vertices
suppressed and missing lengths set to 1.0.  The tree is built on that
adjacency (``XTree._of``), laid out as the constructor would lay out its
edge list, with none of the constructor's checks run again: the parse has
made each of them hold, but for a merged length past the float range,
which goes through the constructor to be named.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import random
import re
from collections import deque
from typing import Iterable, Mapping, NamedTuple

import numpy as np

LABEL_PATTERN = re.compile(r"[A-Za-z0-9_.\-]+\Z")

#: A split is a bipartition of the taxon set, stored as a frozenset of its
#: two sides (each a frozenset of labels).
Split = frozenset

#: A resolved quartet topology: frozenset of the two cherry-side pairs.
#: ``None`` stands for the unresolved (star) case.
QuartetSplit = frozenset


class TreeError(ValueError):
    """Structural problem with a tree (not a parse error)."""


class NewickError(ValueError):
    """Malformed Newick input, with 1-based line/column when available."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
        self.line = line
        self.column = column


def _check_label(label: str) -> str:
    if not LABEL_PATTERN.match(label or ""):
        raise TreeError(f"invalid taxon label {label!r}")
    return label


#: Maps the digits of ``bin(bits)`` to ``itertools.compress`` selectors.
_BIT_SELECTORS = bytes.maketrans(b"01", b"\x00\x01")


def _bit_selectors(bits: int) -> bytes:
    # bin() writes the most significant bit first; reversed, its digits
    # select bit 0, bit 1, ... in one C-level pass.
    return bin(bits)[:1:-1].encode().translate(_BIT_SELECTORS)


def _fixed_point(weights: list[float]) -> tuple[int, list[int]]:
    """The least s >= 0 for which every weight, a finite float, is an
    integer in units of 2^-s, and the weights as those integers, exactly:
    w = p / 2^k in lowest terms (``as_integer_ratio``) is p * 2^(s - k)."""
    ratios = list(map(float.as_integer_ratio, weights))
    s = max(map(operator.itemgetter(1), ratios)).bit_length() - 1
    return s, [p << (s + 1 - q.bit_length()) for p, q in ratios]


def _range_minima(gaps: list, p: np.ndarray, q: np.ndarray, dtype) -> np.ndarray:
    """The least of gaps[p[k]:q[k]] for each k, p[k] < q[k], read off a
    sparse table of *dtype*, any with an order (Bender and Farach-Colton,
    "The LCA problem revisited", 2000): row e holds the least of each 2^e
    consecutive gaps, and a range is covered by the two runs of 2^e at its
    ends, 2^e the largest power of two within its length.  Each row's last
    2^e - 1 entries, never read, are left unset."""
    span = np.frexp(q - p)[1] - 1  # floor(log2(q - p))
    table = np.empty((len(gaps).bit_length(), len(gaps)), dtype=dtype)
    table[0] = gaps
    for e in range(1, len(table)):
        half, width = 1 << (e - 1), len(gaps) - (1 << e) + 1
        np.minimum(table[e - 1, :width], table[e - 1, half:half + width], out=table[e, :width])
    # Flat indices cost a third of table[span, p]'s.
    flat, row = table.ravel(), np.multiply(span, len(gaps), dtype=np.intp)
    return np.minimum(flat[row + p], flat[row + q - (1 << span)])


def _quotients_int64(ups: list[int], gaps: list[int], p: np.ndarray, q: np.ndarray, s: int) -> np.ndarray:
    """N / 2^s for each pair k, N = ups[p[k]] + ups[q[k]] - 2 * (the least
    of gaps[p[k]:q[k]]) >= 0, in int64 and one numpy pass, where every ups
    and gaps is below 2^61 (so every term and sum fits) and s <= 1022.
    ldexp casts N to float64, rounding to nearest, ties to even, and its
    scaling by 2^-s is exact, as every nonzero result is at least 2^-s >=
    2^-1022 and so normal: N / 2^s correctly rounded, as _quotients_int
    computes it.  With no subnormal operand or result, the pass does not
    depend on a flush-to-zero mode of the processor."""
    u = np.array(ups, dtype=np.int64)
    return np.ldexp(u[p] + u[q] - 2 * _range_minima(gaps, p, q, np.int64), -s)


def _quotients_int(ups: list[int], gaps: list[int], p: np.ndarray, q: np.ndarray, s: int) -> np.ndarray:
    """_quotients_int64's quotients for any ups, gaps and s, on Python ints
    in object arrays: int true division rounds correctly and raises
    OverflowError past the float range.  The steps work in place, so each
    replaces its pair's int and the peak holds one int per pair, not three."""
    u = np.array(ups, dtype=object)
    n, low = u[p] + u[q], _range_minima(gaps, p, q, object)
    n -= low
    n -= low
    n /= 1 << s
    return n.astype(np.float64)


class _RootedIndex(NamedTuple):
    """An XTree rooted at ``order[0]``; *order* is a preorder (each subtree a run)."""

    order: list[int]
    parent: dict[int, int | None]
    depth: dict[int, int]
    below: dict[int, int]  # leaf bitset of each vertex's subtree
    taxa: list[str]  # sorted; bit i stands for taxa[i]
    full: int  # bitset of every taxon

    def members(self, bits: int) -> frozenset[str]:
        return frozenset(itertools.compress(self.taxa, _bit_selectors(bits)))

    def lca(self, u: int, v: int) -> int:
        """The lowest common ancestor of vertices u and v."""
        parent, depth = self.parent, self.depth
        while depth[u] > depth[v]:
            u = parent[u]
        while depth[v] > depth[u]:
            v = parent[v]
        while u != v:
            u, v = parent[u], parent[v]
        return u


class XTree:
    """Unrooted edge-weighted tree with labelled leaves and no degree-2 vertices.

    What the tree fixes is computed once and kept: its taxa, whether it is
    fully resolved, its rooted index and, on first use, its sorted edges
    (``edges()`` copies them) and the sides of each edge and interior vertex.
    Its one cord slot binds one frozenset of cords, keyed by identity (the
    set is immutable, and the slot keeps it alive): the Cords, their partner
    bitsets and is_shellable's verdict (cords._bind).  Other iterables are
    bound per call.  One slot bounds the memory, and it is replaced by one
    atomic assignment, so a tree shared between threads stays safe.
    """

    def __init__(
        self,
        edges: Iterable[tuple[int, int, float]],
        leaf_labels: Mapping[int, str],
    ):
        adj: dict[int, dict[int, float]] = {}
        for u, v, w in edges:
            if u == v:
                raise TreeError(f"self-loop at vertex {u}")
            w = float(w)
            if not math.isfinite(w) or w < 0.0:
                raise TreeError(f"edge ({u},{v}) has invalid weight {w}")
            if v in adj.get(u, ()):
                raise TreeError(f"duplicate edge ({u},{v})")
            adj.setdefault(u, {})[v] = w
            adj.setdefault(v, {})[u] = w

        if len(adj) < 2:
            raise TreeError("a tree needs at least two leaves")
        n_edges = sum(len(nb) for nb in adj.values()) // 2
        if n_edges != len(adj) - 1:
            raise TreeError("edges do not form a single tree")

        leaf_map: dict[str, int] = {}
        resolved = True
        for vertex, nbrs in adj.items():
            deg = len(nbrs)
            if deg == 2:
                raise TreeError(f"vertex {vertex} has degree 2")
            if deg == 1:
                if vertex not in leaf_labels:
                    raise TreeError(f"leaf vertex {vertex} carries no taxon")
            elif vertex in leaf_labels:
                raise TreeError(f"labelled vertex {vertex} is not a leaf")
            elif deg > 3:
                resolved = False
        for vertex, label in leaf_labels.items():
            _check_label(label)
            if vertex not in adj or len(adj[vertex]) != 1:
                raise TreeError(f"label {label!r} attached to non-leaf vertex {vertex}")
            if label in leaf_map:
                raise TreeError(f"duplicate taxon label {label!r}")
            leaf_map[label] = vertex
        self._set(adj, leaf_map, resolved)

    @classmethod
    def _of(cls, adj: dict[int, dict[int, float]], leaf_map: dict[str, int], resolved: bool) -> "XTree":
        """The tree on an adjacency that already meets every check of the
        constructor, in the order the constructor would build it, with its
        leaves by label and whether it is fully resolved; kept, not copied."""
        tree = cls.__new__(cls)
        tree._set(adj, leaf_map, resolved)
        return tree

    def _set(self, adj: dict[int, dict[int, float]], leaf_map: dict[str, int], resolved: bool) -> None:
        self._adj = adj
        self._resolved = resolved
        self._leaf_by_label = leaf_map
        self._label_by_leaf = {v: lab for lab, v in leaf_map.items()}
        self._taxa = frozenset(leaf_map)
        self._index = self._rooted_index()
        self._cord_slot = None  # see the class docstring

    # -- basic accessors ------------------------------------------------

    @property
    def taxa(self) -> frozenset[str]:
        return self._taxa

    @property
    def n_leaves(self) -> int:
        return len(self._leaf_by_label)

    def vertices(self) -> list[int]:
        return sorted(self._adj)

    def edges(self) -> list[tuple[int, int, float]]:
        """All edges as (u, v, weight) with u < v, sorted."""
        return list(self._edges)

    @functools.cached_property
    def _edges(self) -> tuple[tuple[int, int, float], ...]:
        return tuple(sorted((u, v, w) for u, nbrs in self._adj.items() for v, w in nbrs.items() if u < v))

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(sorted(self._adj[v]))

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def weight(self, u: int, v: int) -> float:
        return self._adj[u][v]

    def is_leaf(self, v: int) -> bool:
        return len(self._adj[v]) == 1

    def leaf_vertex(self, label: str) -> int:
        try:
            return self._leaf_by_label[label]
        except KeyError:
            raise KeyError(f"unknown taxon {label!r}") from None

    def leaf_label(self, v: int) -> str:
        return self._label_by_leaf[v]

    def interior_vertices(self) -> list[int]:
        return sorted(v for v in self._adj if len(self._adj[v]) > 1)

    def is_fully_resolved(self) -> bool:
        """Every interior vertex has degree exactly three."""
        return self._resolved

    def is_properly_weighted(self) -> bool:
        """Every edge not incident with a leaf has strictly positive weight."""
        for u, v, w in self._edges:
            if not self.is_leaf(u) and not self.is_leaf(v) and w <= 0.0:
                return False
        return True

    # -- metric queries ---------------------------------------------------

    def distance(self, x: str, y: str) -> float:
        """Weighted path distance between taxa x and y: the exact sum of the
        path's weights, rounded once to the nearest float (ties to even);
        OverflowError when that rounds past the float range.  ``math.fsum``
        of the weights gives it; but near the largest float fsum may
        overflow midway on a sum that rounds to it, so after an overflow
        the sum is taken again in integers (_fixed_point), which raise only
        past the range."""
        if x == y:
            self.leaf_vertex(x)
            return 0.0
        path = self._path(self.leaf_vertex(x), self.leaf_vertex(y))
        weights = [self._adj[a][b] for a, b in zip(path, path[1:])]
        try:
            return math.fsum(weights)
        except OverflowError:
            s, units = _fixed_point(weights)
            return sum(units) / (1 << s)

    def _pair_distances(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """distance(x, y) for each pair k of distinct taxa, x and y the
        i[k]-th and j[k]-th of the sorted taxa, in the order given, bit for
        bit; OverflowError where ``distance`` raises.

        Every weight is an integer in units of 2^-s (_fixed_point), and so
        is each vertex's root-path sum U, a Python int, exactly.  The path
        from x to y turns at their lowest common ancestor v, so its exact
        sum is N / 2^s, N = U[x] + U[y] - 2 U[v].  Python's int division
        rounds that quotient correctly, half to even, a subnormal included,
        and raises OverflowError past the float range: that is the exact
        sum rounded once, which ``distance`` returns too, so the two agree
        bit for bit and raise on the same paths.

        U[v] is a range minimum.  The index's order is a preorder; in it,
        the lowest common ancestor of a leaf and the next leaf is the gap
        vertex parent[order[k + 1]], order[k] the leaf, and that of any two
        leaves is the shallowest gap vertex between them.  Every weight is
        >= 0, so U never falls going down the tree, and U[v] is exactly the
        least U over those gaps.  _quotients_int64 evaluates the formula in
        one numpy pass where the sums fit int64; _quotients_int, on Python
        ints, everywhere else."""
        index, adj, leaf = self._index, self._adj, self._label_by_leaf
        parent, order = index.parent, index.order
        s, units = _fixed_point([adj[v][parent[v]] for v in order[1:]])
        up = {order[0]: 0}  # each vertex's root-path sum in units of 2^-s
        for v, w in zip(order[1:], units):
            up[v] = up[parent[v]] + w
        leaves = [k for k, v in enumerate(order) if v in leaf]  # the last vertex of a preorder is a leaf
        ups = [up[order[k]] for k in leaves]
        gaps = [up[parent[order[k + 1]]] for k in leaves[:-1]]
        position = {leaf[order[k]]: p for p, k in enumerate(leaves)}
        at = np.array([position[t] for t in index.taxa], dtype=np.intp)
        p, q = at[i], at[j]
        p, q = np.minimum(p, q), np.maximum(p, q)
        quotients = _quotients_int64 if max(ups) < 1 << 61 and s <= 1022 else _quotients_int
        return quotients(ups, gaps, p, q, s)

    def _rooted_index(self) -> _RootedIndex:
        # With |V| - 1 edges, the graph is a tree exactly when it is
        # connected, so this walk is also the constructor's last check.
        taxa = sorted(self._leaf_by_label)
        (root,) = self._adj[self._leaf_by_label[taxa[0]]]
        parent: dict[int, int | None] = {root: None}
        depth = {root: 0}
        order, stack = [], [root]
        while stack:  # preorder: a popped vertex's subtree is popped whole next
            order.append(v := stack.pop())
            for nb in self._adj[v]:
                if nb not in parent:
                    parent[nb] = v
                    depth[nb] = depth[v] + 1
                    stack.append(nb)
        if len(order) != len(self._adj):
            raise TreeError("edges do not form a single tree")
        below = dict.fromkeys(order, 0)
        for i, label in enumerate(taxa):
            below[self._leaf_by_label[label]] = 1 << i
        for v in reversed(order[1:]):
            below[parent[v]] |= below[v]
        return _RootedIndex(order, parent, depth, below, taxa, below[root])

    def _path(self, src: int, dst: int) -> list[int]:
        parent, top = self._index.parent, self._index.lca(src, dst)
        up, down = [src], [dst]
        for trail in up, down:
            while trail[-1] != top:
                trail.append(parent[trail[-1]])
        return up + down[-2::-1]

    def path_edges(self, x: str, y: str) -> list[tuple[int, int]]:
        """Edges (u, v) with u < v on the leaf path from x to y."""
        path = self._path(self.leaf_vertex(x), self.leaf_vertex(y))
        return [(min(a, b), max(a, b)) for a, b in zip(path, path[1:])]

    def vertex_distances(self, start: int) -> dict[int, float]:
        """Weighted distance from *start* to every vertex."""
        dist = {start: 0.0}
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for nb, w in self._adj[v].items():
                if nb not in dist:
                    dist[nb] = dist[v] + w
                    queue.append(nb)
        return dist

    def _hops(self, x: str, y: str) -> int:
        # Unit (edge-count) leaf distance, depth[x] + depth[y] - 2 * depth[lca];
        # an exact integer, so quartet topology tests are free of float
        # comparisons.
        index, u, v = self._index, self.leaf_vertex(x), self.leaf_vertex(y)
        return index.depth[u] + index.depth[v] - 2 * index.depth[index.lca(u, v)]

    # -- structural queries ----------------------------------------------

    def side_leaves(self, u: int, v: int) -> frozenset[str]:
        """Taxa on u's side of the edge {u, v}."""
        if v not in self._adj[u]:
            raise TreeError(f"({u},{v}) is not an edge")
        index = self._index
        if index.parent[u] == v:
            return index.members(index.below[u])
        return index.members(index.full ^ index.below[v])

    @functools.cached_property
    def _side_bits(self) -> dict[tuple[int, int], int]:
        """u's side of each edge {u, v} as a leaf bitset, keyed (u, v):
        ``edges()`` order, u's side first; read-only, kept with the tree."""
        index = self._index
        parent, below, full = index.parent, index.below, index.full
        side = {}
        for u, v, _ in self._edges:
            side[u, v] = bits = below[u] if parent[u] == v else full ^ below[v]
            side[v, u] = full ^ bits
        return side

    @functools.cached_property
    def _vertex_sides(self) -> list[tuple[list[int], list[int]]]:
        """Per interior vertex: its children, and its sides' bitsets, theirs first."""
        parent, below, full = self._index.parent, self._index.below, self._index.full
        out = []
        for v in self.interior_vertices():
            children = [w for w in self._adj[v] if parent[w] == v]
            out.append((children, [below[w] for w in children] + [full ^ below[v]] * (parent[v] is not None)))
        return out

    def _side_table(self) -> dict[tuple[int, int], frozenset[str]]:
        """u's side of each edge {u, v}, keyed (u, v): ``edges()`` order, u's side first."""
        members = self._index.members
        return {p: members(bits) for p, bits in self._side_bits.items()}

    def components(self, v: int) -> tuple[frozenset[str], ...]:
        """Leaf sets of the components of T - v, sorted by smallest label."""
        comps = [self.side_leaves(nb, v) for nb in self._adj[v]]
        return tuple(sorted(comps, key=min))

    def clusters(self) -> frozenset[frozenset[str]]:
        """Both sides of every edge-induced split (the clusters of the tree)."""
        return frozenset(self._side_table().values())

    def splits(self) -> frozenset[Split]:
        """Every edge-induced bipartition of the taxon set."""
        return frozenset(self.split_weights())

    def split_weights(self) -> dict[Split, float]:
        """Map each edge-induced split (one per edge: no degree 2) to its weight."""
        side = self._side_table()
        return {frozenset({side[u, v], side[v, u]}): w for u, v, w in self._edges}

    def cherries(self) -> list[tuple[str, str]]:
        """All leaf pairs sharing a neighbour, each pair sorted, list sorted."""
        out = []
        for v in self.interior_vertices():
            leaf_nbrs = sorted(
                self._label_by_leaf[nb] for nb in self._adj[v] if self.is_leaf(nb)
            )
            out.extend(itertools.combinations(leaf_nbrs, 2))
        return sorted(out)

    def quartet_topology(self, a: str, b: str, c: str, d: str) -> QuartetSplit | None:
        """Topology of the restriction to four taxa.

        Returns the split as ``frozenset({frozenset({x, y}), frozenset({u, v})})``
        pairing the two taxa on each side, or None for the unresolved star
        (possible only when the tree is not fully resolved on that quartet).
        """
        if len({a, b, c, d}) != 4:
            raise TreeError("quartet taxa must be distinct")
        h = self._hops
        s_ab = h(a, b) + h(c, d)
        s_ac = h(a, c) + h(b, d)
        s_ad = h(a, d) + h(b, c)
        # Four-point condition on the unit weighting: the two largest sums
        # are equal; a unique minimum identifies the split, all-equal is a star.
        low = min(s_ab, s_ac, s_ad)
        if s_ab == s_ac == s_ad:
            return None
        if s_ab == low:
            return frozenset({frozenset({a, b}), frozenset({c, d})})
        if s_ac == low:
            return frozenset({frozenset({a, c}), frozenset({b, d})})
        return frozenset({frozenset({a, d}), frozenset({b, c})})

    def restrict(self, keep: Iterable[str]) -> "XTree":
        """The tree induced on a taxon subset, degree-2 vertices suppressed.

        Suppressed chains merge their edge weights (correctly rounded sums),
        so path distances between kept taxa are preserved.
        """
        keep = set(keep)
        unknown = keep - self.taxa
        if unknown:
            raise KeyError(f"unknown taxa {sorted(unknown)!r}")
        if len(keep) < 2:
            raise TreeError("restriction needs at least two taxa")
        if keep == self.taxa:
            return self

        adj = {v: dict(nb) for v, nb in self._adj.items()}

        def drop(v: int) -> None:
            for nb in list(adj[v]):
                del adj[nb][v]
            del adj[v]

        # Prune leaves outside the kept set (cascading).
        pending = deque(
            v
            for v in adj
            if len(adj[v]) == 1 and self._label_by_leaf.get(v) not in keep
        )
        while pending:
            v = pending.popleft()
            if v not in adj or len(adj[v]) != 1:
                continue
            (nb,) = adj[v]
            drop(v)
            if len(adj[nb]) == 1 and self._label_by_leaf.get(nb) not in keep:
                pending.append(nb)

        # Suppress the degree-2 vertices left behind.
        for v in [v for v in adj if len(adj[v]) == 2]:
            (p, wp), (q, wq) = adj[v].items()
            drop(v)
            adj[p][q] = adj[q][p] = math.fsum((wp, wq))

        edges = [
            (u, v, w) for u, nbrs in adj.items() for v, w in nbrs.items() if u < v
        ]
        labels = {self._leaf_by_label[lab]: lab for lab in keep}
        return XTree(edges, labels)

    # -- canonical form -----------------------------------------------------

    def newick(self) -> str:
        """Canonical Newick serialisation.

        Rooted at the interior vertex adjacent to the smallest taxon, children
        ordered by their smallest descendant taxon, so equivalent trees with
        equal weights serialise identically.
        """
        if self.n_leaves < 3:
            raise TreeError("canonical Newick requires at least three leaves")
        # The index is rooted at the interior vertex next to the smallest taxon.
        index = self._index
        rendered: dict[int, tuple[str, str]] = {}
        for v in reversed(index.order):
            if v in self._label_by_leaf:
                rendered[v] = (self._label_by_leaf[v],) * 2
                continue
            parts = []
            for child, w in self._adj[v].items():
                if child != index.parent[v]:
                    key, text = rendered.pop(child)
                    parts.append((key, f"{text}:{_format_weight(w)}"))
            parts.sort()
            rendered[v] = parts[0][0], "(" + ",".join(text for _, text in parts) + ")"
        return rendered[index.order[0]][1] + ";"

    def __repr__(self) -> str:
        taxa = ",".join(sorted(self.taxa))
        return f"<XTree on {{{taxa}}} with {len(self._edges)} edges>"


def _format_weight(w: float) -> str:
    if w == int(w) and abs(w) < 1e15:
        return str(int(w))
    return repr(w)


# -- Newick parsing ----------------------------------------------------------

# One token per match, after the whitespace before it: group 1 a branch
# length (':' and the number characters after it, group 2), group 3 a label,
# group 4 any other character, or '' at the end of the text.
_NEWICK_TOKEN = re.compile(r"[ \t\r\n]*(?:(:[ \t\r\n]*([0-9.eE+\-]*))|([A-Za-z0-9_.\-]+)|(.|\Z))", re.S)
_LENGTH, _LABEL = 1, 3
# What the next token may be: a subtree; after a ')', an internal label;
# after a label, a branch length; after a length, ',' ')' or ';'; the end.
_NODE, _CLOSED, _LABELLED, _SEPARATOR, _END = range(5)


def _newick_error(text: str, message: str, pos: int) -> NewickError:
    line = text.count("\n", 0, pos) + 1
    column = pos - (text.rfind("\n", 0, pos) + 1) + 1
    return NewickError(message, line, column)


def _branch_length(text: str, token: re.Match) -> float:
    number, start = token[2], token.start(2)
    try:
        value = float(number)
    except ValueError:
        raise _newick_error(text, f"invalid branch length {number!r}", start) from None
    if not 0 <= value < math.inf:
        kind = "negative" if math.isfinite(value) else "non-finite"
        raise _newick_error(text, f"{kind} branch length {number!r}", start)
    return value


def parse_newick(text: str) -> XTree:
    """Parse a ';'-terminated Newick string into an XTree.

    Missing branch lengths default to 1.0; a chain of length-less edges
    collapsed by degree-2 suppression still defaults to 1.0 in total, so a
    tree written entirely without lengths comes out unit-weighted.  Degree-2
    vertices introduced by redundant parentheses (including a two-child root)
    are suppressed, summing the two incident weights.

    Raises NewickError on syntax problems (with line/column), duplicate or
    invalid leaf labels, fewer than three leaves, or negative lengths.
    """
    adj: dict[int, dict[int, float | None]] = {}
    labels: dict[int, str] = {}
    open_: list[int] = []  # the vertices of the '(' not yet closed
    last = parent = None  # the vertex whose length may come next, and its parent
    stage = _NODE
    for token in _NEWICK_TOKEN.finditer(text):
        kind = token.lastindex
        tok = token[kind]
        if stage == _NODE:
            if tok != "(" and kind != _LABEL:
                message = "expected '(' or a taxon label" if tok else "unexpected end of input"
                raise _newick_error(text, message, token.start(kind))
            # Vertex ids in preorder, children in their written order.
            last, parent = len(adj), open_[-1] if open_ else None
            adj[last] = {}
            if parent is not None:
                adj[parent][last] = adj[last][parent] = None
            if kind == _LABEL:
                labels[last] = tok
                stage = _LABELLED
            else:
                open_.append(last)
        elif stage == _CLOSED and kind == _LABEL:
            stage = _LABELLED  # internal labels are tolerated and discarded
        elif stage <= _LABELLED and kind == _LENGTH:
            length = _branch_length(text, token)
            if parent is not None:  # the root's length has no unrooted meaning
                adj[parent][last] = adj[last][parent] = length
            stage = _SEPARATOR
        elif stage == _END:  # the last token, '' at the end of the text, ends the loop
            if tok:
                raise _newick_error(text, "trailing characters after ';'", token.start(kind))
        elif not open_:
            if tok != ";":
                raise _newick_error(text, "expected ';'", token.start(kind))
            stage = _END
        elif tok == ",":
            stage = _NODE
        elif tok == ")":
            last = open_.pop()
            parent = open_[-1] if open_ else None
            stage = _CLOSED
        else:
            raise _newick_error(text, "unbalanced parenthesis: expected ')' or ','", token.start(kind))

    # A root with one child is dropped, as often as it recurs; in preorder
    # the child of vertex r is r + 1, and r's parent r - 1.
    root = 0
    while len(adj[root]) - bool(root) == 1:
        if adj[root][root + 1] is not None:
            raise NewickError("branch length on a single-child root has no unrooted meaning")
        root += 1
    if len(adj[root]) == bool(root):
        raise NewickError("fewer than 3 leaves")
    if root:
        del adj[root][root - 1]
        adj = {v - root: {u - root: w for u, w in nbrs.items()} for v, nbrs in adj.items() if v >= root}
        labels = {v - root: label for v, label in labels.items()}

    seen: set[str] = set()
    for label in labels.values():
        if label in seen:
            raise NewickError(f"duplicate leaf label {label!r}")
        seen.add(label)
    if len(labels) < 3:
        raise NewickError("fewer than 3 leaves")

    # Suppress degree-2 vertices; merging two length-less edges stays
    # length-less so the 1.0 default applies once to the merged edge.
    overflow = False
    for v in [v for v in list(adj) if len(adj[v]) == 2 and v not in labels]:
        (p, wp), (q, wq) = adj[v].items()
        del adj[p][v], adj[q][v], adj[v]
        if wp is None and wq is None:
            merged: float | None = None
        else:
            merged = (1.0 if wp is None else wp) + (1.0 if wq is None else wq)
            overflow |= merged == math.inf
        adj[p][q] = adj[q][p] = merged

    if overflow:  # the constructor raises, naming the first infinite edge
        return XTree([(u, v, 1.0 if w is None else w) for u, nbrs in adj.items() for v, w in nbrs.items() if u < v], labels)
    # A tree with a label on each leaf and on nothing else, no degree-2
    # vertex and finite lengths: XTree's checks hold, so it is laid out as
    # the constructor lays out the edges u < v listed in this order, and
    # not checked again.
    tree_adj: dict[int, dict[int, float]] = {}
    resolved = True
    for u, nbrs in adj.items():
        resolved &= len(nbrs) <= 3
        for v, w in nbrs.items():
            if u < v:
                tree_adj.setdefault(u, {})[v] = tree_adj.setdefault(v, {})[u] = 1.0 if w is None else w
    return XTree._of(tree_adj, {label: v for v, label in labels.items()}, resolved)


def write_newick(tree: XTree) -> str:
    """Canonical Newick string of *tree* (see XTree.newick)."""
    return tree.newick()


# -- comparison ---------------------------------------------------------------


def is_equivalent(t1: XTree, t2: XTree) -> bool:
    """True when the two trees have the same taxa and the same split set.

    Edge weights are ignored; compare them with split_weight_delta.
    """
    if t1.taxa != t2.taxa:
        raise TreeError("trees have different leaf sets")
    return t1.splits() == t2.splits()


def split_weight_delta(t1: XTree, t2: XTree) -> float:
    """Largest per-split weight difference between two equivalent trees."""
    if not is_equivalent(t1, t2):
        raise TreeError("trees are not equivalent")
    w1 = t1.split_weights()
    w2 = t2.split_weights()
    return max(abs(w1[s] - w2[s]) for s in w1)


# -- generation ---------------------------------------------------------------


def random_tree(
    n: int,
    seed: int,
    weight_range: tuple[float, float] = (0.5, 2.0),
) -> XTree:
    """Random fully-resolved tree on taxa t01..tNN, deterministic per seed.

    The topology grows by attaching each new leaf to a uniformly random edge,
    which samples labelled fully-resolved topologies uniformly; edge weights
    are then drawn i.i.d. uniform from *weight_range*.
    """
    if n < 3:
        raise ValueError("need at least 3 leaves")
    lo, hi = weight_range
    if not (0 < lo <= hi):
        raise ValueError("weight range must satisfy 0 < lo <= hi")

    rng = random.Random(seed)
    width = max(2, len(str(n)))
    labels = [f"t{str(i).zfill(width)}" for i in range(1, n + 1)]

    counter = itertools.count()
    leaf_vertices = [next(counter) for _ in range(n)]
    center = next(counter)
    edges = [(leaf_vertices[i], center) for i in range(3)]
    for i in range(3, n):
        u, v = edges.pop(rng.randrange(len(edges)))
        mid = next(counter)
        edges.extend([(u, mid), (mid, v), (mid, leaf_vertices[i])])

    weighted = [
        (u, v, rng.uniform(lo, hi)) for u, v in sorted((min(u, v), max(u, v)) for u, v in edges)
    ]
    return XTree(weighted, dict(zip(leaf_vertices, labels)))
