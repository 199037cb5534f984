"""Stable transversals of the cluster set and the cord sets they generate.

A transversal picks one taxon from each cluster of the tree (both sides of
every edge).  A *stable* transversal additionally satisfies: whenever its
pick for a cluster A lies in a sub-cluster B, it must pick the same taxon
for B.  Feeding a stable transversal to triplet_cover yields a cord set of
size 2n-3 that is simultaneously a triplet cover, a shellable lasso and a
2d-tree; those downstream facts live in the lasso module, this one only
builds and checks the combinatorial objects.

Clusters are leaf bitsets over the tree's sorted taxa, read off its rooted
index: u's side of the edge {u, v} is ``below[u]`` when v is u's parent,
and the complement of ``below[v]`` otherwise.  The constructors return a
``Transversal`` keyed by these bitsets, and the checks read any transversal
as one taxon index per oriented edge, so no cluster becomes a set of labels
unless a caller reads it as one: a key of the mapping, a witness, or the
first missing cluster in a message.
"""

from __future__ import annotations

import math
from collections.abc import ItemsView, MutableMapping
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Sequence

from .cords import Cord, _bind, _bit_indices
from .tolerance import DEFAULT_EPSILON
from .tree import TreeError, XTree

_OUTSIDE = -1  # the taxon index of a pick that is no taxon of the tree
_MISSING = object()  # the pick of a cluster that f does not map; its index is None


class Transversal(MutableMapping):
    """A map from clusters of a tree (frozen sets of taxa) to taxa.

    It behaves as the dict it replaces: it compares equal to a dict with
    the same items, ``dict(f)`` and ``{**f}`` copy it, and keys can be
    looked up, assigned and deleted; ``Transversal(tree, f)`` copies any
    mapping f.  A cluster of the tree is stored under its bitset over the
    tree's sorted taxa; a label set becomes a bitset on lookup, and a
    bitset becomes a label set only when the keys are read.  Any other key
    is kept as given, as a dict keeps it; the checks ignore it.  Clusters
    come first in insertion order, which for the constructors is
    ``tree.edges()`` order, u's side of each edge {u, v} first; then the
    other keys, in theirs.
    """

    def __init__(self, tree: XTree, f: Mapping | Iterable = ()):
        self._index = tree._index
        self._picks: dict[int, object] = {}  # cluster bitset -> pick
        self._other: dict = {}  # keys that are no cluster of the tree
        self.update(f)

    @classmethod
    def _of(cls, tree: XTree, picks: dict[int, object]) -> Transversal:
        """The transversal over *picks*, keyed by cluster bitsets."""
        f = cls(tree)
        f._picks = picks
        return f

    @cached_property
    def _bit(self) -> dict[str, int]:
        return {t: i for i, t in enumerate(self._index.taxa)}

    @cached_property
    def _clusters(self) -> frozenset[int]:
        index = self._index
        below = [index.below[v] for v in index.order[1:]]
        return frozenset(below + [index.full ^ bits for bits in below])

    def _cluster_bits(self, key) -> int | None:
        """The bitset of *key* when it is a cluster of the tree, else None."""
        if not isinstance(key, frozenset):
            return None
        bits = 0
        for t in key:
            i = self._bit.get(t)
            if i is None:
                return None
            bits |= 1 << i
        return bits if bits in self._clusters else None

    def __getitem__(self, key):
        bits = self._cluster_bits(key)
        if bits is None:
            return self._other[key]
        try:
            return self._picks[bits]
        except KeyError:
            raise KeyError(key) from None

    def __setitem__(self, key, taxon) -> None:
        bits = self._cluster_bits(key)
        if bits is None:
            self._other[key] = taxon
        else:
            self._picks[bits] = taxon

    def __delitem__(self, key) -> None:
        bits = self._cluster_bits(key)
        if bits is None:
            del self._other[key]
        elif self._picks.pop(bits, self) is self:
            raise KeyError(key)

    def __iter__(self) -> Iterator:
        yield from map(self._index.members, self._picks)
        yield from self._other

    def __len__(self) -> int:
        return len(self._picks) + len(self._other)

    def items(self) -> ItemsView:
        return _Items(self)

    def __repr__(self) -> str:
        return f"Transversal({dict(self.items())!r})"


class _Items(ItemsView):
    def __iter__(self):
        f = self._mapping
        members = f._index.members
        for bits, taxon in f._picks.items():
            yield members(bits), taxon
        yield from f._other.items()


def _checked(f: Mapping[frozenset, str], tree: XTree) -> tuple[dict, dict, dict | None]:
    """f read once per oriented edge (u, v), in ``edges()`` order, and
    checked to map every cluster: u's side as a bitset, f's pick for it as
    a taxon index (``_OUTSIDE`` for a pick outside X), and, unless f is a
    Transversal over the same taxa, the side table of label sets through
    which f was read."""
    index = tree._index
    side = tree._side_bits
    bit = {t: i for i, t in enumerate(index.taxa)}
    bit[_MISSING] = None
    if isinstance(f, Transversal) and (f._index is index or f._index.taxa == index.taxa):
        labels = None
        pick = {p: bit.get(f._picks.get(bits, _MISSING), _OUTSIDE) for p, bits in side.items()}
        if f._other:  # a cluster of this tree that is none of f's tree
            for p, i in pick.items():
                if i is None:
                    pick[p] = bit.get(f._other.get(index.members(side[p]), _MISSING), _OUTSIDE)
    else:
        labels = {p: index.members(bits) for p, bits in side.items()}
        pick = {p: bit.get(f.get(c, _MISSING), _OUTSIDE) for p, c in labels.items()}
    missing = [p for p, i in pick.items() if i is None]
    if missing:  # the first in edge order, whatever the string hash
        shown = ",".join(sorted(_labelled(tree, side, labels, missing[0])))
        raise ValueError(f"transversal is missing {len(missing)} cluster(s), e.g. {{{shown}}}")
    return side, pick, labels


def _labelled(tree: XTree, side: dict, labels: dict | None, p: tuple[int, int]) -> frozenset[str]:
    return labels[p] if labels else tree._index.members(side[p])


def _outside(side: dict, pick: dict) -> bool:
    """Does some pick lie outside its cluster?"""
    return any(i < 0 or not side[p] >> i & 1 for p, i in pick.items())


def _violation(tree: XTree, side: dict, pick: dict) -> tuple | None:
    """The oriented edges (p, q) of the first pair of sides A, B that breaks
    stability, in ``edges()`` order: the child clusters of A are disjoint,
    so at most one holds f(A)."""
    adj = tree._adj
    for (u, v), i in pick.items():
        if i >= 0:
            for w in adj[u]:
                if w != v and side[w, u] >> i & 1:
                    if pick[w, u] != i:
                        return (u, v), (w, u)
                    break
    return None


def is_transversal(f: Mapping[frozenset, str], tree: XTree) -> bool:
    """f picks a member of every cluster of the tree."""
    side, pick, _ = _checked(f, tree)
    return not _outside(side, pick)


def stability_violation(
    f: Mapping[frozenset, str], tree: XTree
) -> tuple[frozenset, frozenset] | None:
    """A witnessing cluster pair (A, B) with f(A) in B ⊊ A but f(A) != f(B).

    Returns None when no pair violates stability.  Each cluster A, the side
    of an edge, is compared only with its child clusters, the sides of the
    next edges away from A's edge.  That decides stability in O(n) lookups:
    a chain of child clusters leads from A down to any B ⊊ A, and if f(A) ∈ B
    agreement along it carries f(A) down to B.  The witness is the first
    disagreeing pair in ``tree.edges()`` order, so B is a child cluster of A.
    """
    side, pick, labels = _checked(f, tree)
    witness = _violation(tree, side, pick)
    return witness and tuple(_labelled(tree, side, labels, p) for p in witness)


def is_stable(f: Mapping[frozenset, str], tree: XTree) -> bool:
    """Transversality plus stability over all nested cluster pairs."""
    side, pick, _ = _checked(f, tree)
    return _violation(tree, side, pick) is None and not _outside(side, pick)


def min_order_transversal(tree: XTree, order: Sequence[str] | None = None) -> Transversal:
    """The stable transversal g(A) = min A under a total order on X.

    *order* is a permutation of the taxa (default: sorted labels).  Stability
    is automatic: if min A lands in B ⊆ A then min B = min A.  One pass up
    the rooted index ORs leaf bitsets in which bit r stands for the taxon of
    rank r, so min A is the lowest set bit of a subtree's bitset, or of the
    complement of one.
    """
    order = _order_of(order, tree)
    index = tree._index
    parent = index.parent
    ranked = dict.fromkeys(index.order, 0)
    for r, t in enumerate(order):
        ranked[tree.leaf_vertex(t)] = 1 << r
    for v in reversed(index.order[1:]):
        ranked[parent[v]] |= ranked[v]
    everything = ranked[index.order[0]]
    picks = {}
    for (u, v), bits in tree._side_bits.items():
        by_rank = ranked[u] if parent[u] == v else everything ^ ranked[v]
        picks[bits] = order[(by_rank & -by_rank).bit_length() - 1]
    return Transversal._of(tree, picks)


def closest_leaf_transversal(
    tree: XTree,
    mode: str = "closest",
    tiebreak: Sequence[str] | None = None,
    eps: float = DEFAULT_EPSILON,
) -> Transversal:
    """Stable transversal picking per cluster a closest (or furthest) leaf.

    For the cluster A cut off by edge e, each leaf of A is scored by its
    weighted distance to the endpoint a of e on A's side, summed as
    ``tree.vertex_distances(a)`` sums it: 0.0, plus each edge weight from a
    outward.  With best the extremal score, the leaves scored within
    ``eps * max(1, |best|)`` of it are extremal, and the *tiebreak* total
    order (default: sorted labels) picks one of them.  Requires a proper
    weighting and eps >= 0; raises TreeError when best overflows the float
    range.

    Most clusters have a clear winner, found without scoring.  A pass down
    the rooted index and a pass up give, for every oriented edge (a, b),
    the extremal distance over a's side from a, its leaf, and the
    runner-up, summed in another order.  Any float sum of the at most |V|
    weights of a path lies within |V|·2⁻⁵³·W of the path's length, W the
    total weight, so such a sum and the score of the same leaf differ by at
    most half of slack = 4·|V|·2⁻⁵³·W, and no score's tolerance exceeds
    tol = eps·max(1, |best| + slack).  When the runner-up trails the best
    by more than tol + 2·slack, every other leaf's score trails the best
    leaf's by more than its tolerance: the best leaf is the only extremal
    one, and the pick.  Otherwise a walk from a scores the leaves of a's
    side, and skips each branch whose bound (the score of its first vertex
    plus its extremal distance from there) trails best by more than
    tol + 2·slack; by the same argument, no leaf in it is extremal.  When
    the total weight overflows, slack is infinite and every leaf is scored.
    """
    if mode not in ("closest", "furthest"):
        raise ValueError(f"mode must be 'closest' or 'furthest', got {mode!r}")
    if not eps >= 0.0:  # nan too: no leaf would be extremal
        raise ValueError(f"eps must be >= 0, got {eps}")
    if not tree.is_properly_weighted():
        raise TreeError("closest/furthest transversals need a proper edge weighting")
    rank = {t: r for r, t in enumerate(_order_of(tiebreak, tree))}
    index, adj, label = tree._index, tree._adj, tree._label_by_leaf
    parent = index.parent
    # Furthest is closest on negated weights: rounding to nearest is
    # symmetric, so every sum and difference comes out exactly negated.
    sign = 1.0 if mode == "closest" else -1.0
    total = sum(w for _, _, w in tree.edges())
    slack = 4 * len(adj) * 2.0**-53 * total
    if not math.isfinite(total + slack):
        slack = math.inf

    # down[v]: the two nearest leaves below v as (distance from v, leaf);
    # out[c]: the two nearest outside c's subtree, from c's parent.
    down, out = {}, {}
    for v in reversed(index.order):
        kids = [(c, sign * w) for c, w in adj[v].items() if c != parent[v]]
        # A leaf is its own nearest leaf.
        down[v] = sorted((w + d, leaf) for c, w in kids for d, leaf in down[c])[:2] or [(0.0, v)]
    for p in index.order:
        kids = [(c, sign * w) for c, w in adj[p].items() if c != parent[p]]
        near = [(w + d, leaf, c) for c, w in kids for d, leaf in down[c]]
        if parent[p] is not None:
            w = sign * adj[p][parent[p]]
            near += [(w + d, leaf, None) for d, leaf in out[p]]
        near = sorted(near)[:4]  # each child holds two of them at most
        for c, _ in kids:
            out[c] = [(d, leaf) for d, leaf, source in near if source != c][:2]

    picks = {}
    for (a, b), bits in tree._side_bits.items():
        if a in label:  # a leaf's own cluster
            picks[bits] = label[a]
            continue
        (best, leaf), (runner, _) = down[a] if parent[a] == b else out[b]
        margin = eps * max(1.0, abs(best) + slack) + 2 * slack
        if runner - best > margin:
            picks[bits] = label[leaf]
            continue
        scores = []
        stack = [(a, b, 0.0)]
        while stack:
            x, back, s = stack.pop()
            if x in label:
                scores.append((s, label[x]))
            for y, w in adj[x].items():
                if y != back:
                    s_y = s + sign * w
                    # Not "<=": a nan bound, from an overflow, prunes nothing.
                    if not s_y + (down[y] if parent[y] == x else out[x])[0][0] > best + margin:
                        stack.append((y, x, s_y))
        best = min(s for s, _ in scores)
        if not math.isfinite(best):
            raise TreeError("closest/furthest transversals: a leaf distance overflows the float range")
        tol = eps * max(1.0, abs(best))
        picks[bits] = min((t for s, t in scores if abs(s - best) <= tol), key=rank.__getitem__)
    return Transversal._of(tree, picks)


def _order_of(order: Sequence[str] | None, tree: XTree) -> Sequence[str]:
    order = sorted(tree.taxa) if order is None else order
    if set(order) != tree.taxa or len(order) != tree.n_leaves:
        raise ValueError("order must be a permutation of the taxon set")
    return order


def triplet_cover(tree: XTree, f: Mapping[frozenset, str], force: bool = False) -> frozenset[Cord]:
    """The cord set gathering, per interior vertex, the triangle on the
    f-images of the three components hanging off it.

    With a stable transversal the result has size exactly 2n-3.  A merely
    transversal (non-stable) f still produces a plain triplet cover; pass
    force=True to allow that, otherwise non-stable input is rejected.
    """
    if not tree.is_fully_resolved():
        raise TreeError("triplet covers are defined for fully-resolved trees")
    side, pick, labels = _checked(f, tree)
    if _outside(side, pick):
        raise ValueError("f is not a transversal: some f(A) is outside A")
    witness = _violation(tree, side, pick)
    taxa = tree._index.taxa
    if witness and not force:
        a, b = (_labelled(tree, side, labels, p) for p in witness)
        x, y = (taxa[pick[p]] for p in witness)
        shown = ",".join(sorted(b)[:10]) + (",…" if len(b) > 10 else "")
        raise ValueError(f"transversal is not stable: f(A) = {x} lies in B but f(B) = {y}, "
                         f"with |A| = {len(a)}, |B| = {len(b)}, B = {{{shown}}}")
    new = tuple.__new__
    cords = set()
    for v, nbrs in tree._adj.items():
        if len(nbrs) == 1:
            continue
        x, y, z = (taxa[i] for i in sorted(pick[w, v] for w in nbrs))
        cords.update((new(Cord, (x, y)), new(Cord, (x, z)), new(Cord, (y, z))))
    return frozenset(cords)


def is_cover(tree: XTree, cords: Iterable[Cord]) -> bool:
    """Does L hit every pair of components at every interior vertex?  Each
    pair holds a child side c, and is joined when ``reach[c]``, the OR of the
    partner bitsets of the taxa below c, meets the other side."""
    if not tree.is_fully_resolved():
        raise TreeError("covers are defined for fully-resolved trees")
    index = tree._index
    partners = _bind(cords, tree).partners
    reach = dict.fromkeys(index.order, 0)
    reach.update((tree.leaf_vertex(t), bits) for t, bits in zip(index.taxa, partners))
    for v in reversed(index.order[1:]):
        reach[index.parent[v]] |= reach[v]
    return all(
        reach[c] & other
        for children, sides in tree._vertex_sides
        for i, c in enumerate(children)
        for other in sides[i + 1 :]
    )


def is_triplet_cover(tree: XTree, cords: Iterable[Cord]) -> bool:
    """Does L contain, at every interior vertex, a full triangle with one
    corner in each of the three components?  With v's sides smallest first:
    a taxon a of the first, a partner of a in the second, and a common
    partner in the third; only the smallest sides, O(n log n), are walked."""
    if not tree.is_fully_resolved():
        raise TreeError("triplet covers are defined for fully-resolved trees")
    partners = _bind(cords, tree).partners
    for _, sides in tree._vertex_sides:
        first, second, third = sorted(sides, key=int.bit_count)
        if not any(
            partners[a] & partners[b] & third
            for a in _bit_indices(first)
            for b in _bit_indices(partners[a] & second)
        ):
            return False
    return True

