"""Stable transversals of the cluster set and the cord sets they generate.

A transversal picks one taxon from each cluster of the tree (both sides of
every edge).  A *stable* transversal additionally satisfies: whenever its
pick for a cluster A lies in a sub-cluster B, it must pick the same taxon
for B.  Feeding a stable transversal to triplet_cover yields a cord set of
size 2n-3 that is simultaneously a triplet cover, a shellable lasso and a
2d-tree; those downstream facts live in the lasso module, this one only
builds and checks the combinatorial objects.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Sequence

from .cords import Cord, _bit_indices, _cords_over, _partner_bits
from .tolerance import DEFAULT_EPSILON
from .tree import TreeError, XTree

#: A transversal maps each cluster (frozen set of taxa) to a member taxon.
Transversal = dict


def _checked(f: Mapping[frozenset, str], tree: XTree) -> tuple[dict, tuple | None]:
    """The tree's side table, once f is checked to map every cluster in it,
    and the first pair in it that breaks stability (see stability_violation)."""
    side = tree._side_table()
    missing = [c for c in side.values() if c not in f]
    if missing:  # the first in table order, whatever the string hash
        shown = ",".join(sorted(missing[0]))
        raise ValueError(f"transversal is missing {len(missing)} cluster(s), e.g. {{{shown}}}")
    for (u, v), a in side.items():
        for b in (side[w, u] for w in tree.neighbors(u) if w != v):
            if f[a] in b and f[b] != f[a]:
                return side, (a, b)
    return side, None


def is_transversal(f: Mapping[frozenset, str], tree: XTree) -> bool:
    """f picks a member of every cluster of the tree."""
    side, _ = _checked(f, tree)
    return all(f[c] in c for c in side.values())


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
    return _checked(f, tree)[1]


def is_stable(f: Mapping[frozenset, str], tree: XTree) -> bool:
    """Transversality plus stability over all nested cluster pairs."""
    side, witness = _checked(f, tree)
    return witness is None and all(f[c] in c for c in side.values())


def min_order_transversal(tree: XTree, order: Sequence[str] | None = None) -> Transversal:
    """The stable transversal g(A) = min A under a total order on X.

    *order* is a permutation of the taxa (default: sorted labels).  Stability
    is automatic: if min A lands in B ⊆ A then min B = min A.
    """
    rank = _rank_of(order, tree)
    return {c: min(c, key=rank.__getitem__) for c in tree._side_table().values()}


def closest_leaf_transversal(
    tree: XTree,
    mode: str = "closest",
    tiebreak: Sequence[str] | None = None,
    eps: float = DEFAULT_EPSILON,
) -> Transversal:
    """Stable transversal picking per cluster a closest (or furthest) leaf.

    For the cluster A cut off by edge e, each leaf of A is scored by its
    weighted distance to the endpoint of e on A's side; the extremal set is
    then resolved by the *tiebreak* total order (default: sorted labels).
    Requires a proper weighting.
    """
    if mode not in ("closest", "furthest"):
        raise ValueError(f"mode must be 'closest' or 'furthest', got {mode!r}")
    if not tree.is_properly_weighted():
        raise TreeError("closest/furthest transversals need a proper edge weighting")
    rank = _rank_of(tiebreak, tree)

    side = tree._side_table()
    f: Transversal = {frozenset((t,)): t for t in tree.taxa}  # a leaf's own cluster
    for near in tree.interior_vertices():
        dist = tree.vertex_distances(near)  # one search for all its clusters
        for far in tree.neighbors(near):
            cluster = side[near, far]
            scores = {leaf: dist[tree.leaf_vertex(leaf)] for leaf in cluster}
            best = min(scores.values()) if mode == "closest" else max(scores.values())
            tol = eps * max(1.0, abs(best))
            extremal = [leaf for leaf, s in scores.items() if abs(s - best) <= tol]
            f[cluster] = min(extremal, key=rank.__getitem__)
    return f


def _rank_of(order: Sequence[str] | None, tree: XTree) -> dict[str, int]:
    order = sorted(tree.taxa) if order is None else order
    if set(order) != tree.taxa or len(order) != tree.n_leaves:
        raise ValueError("order must be a permutation of the taxon set")
    return {label: i for i, label in enumerate(order)}


def triplet_cover(tree: XTree, f: Mapping[frozenset, str], force: bool = False) -> frozenset[Cord]:
    """The cord set gathering, per interior vertex, the triangle on the
    f-images of the three components hanging off it.

    With a stable transversal the result has size exactly 2n-3.  A merely
    transversal (non-stable) f still produces a plain triplet cover; pass
    force=True to allow that, otherwise non-stable input is rejected.
    """
    if not tree.is_fully_resolved():
        raise TreeError("triplet covers are defined for fully-resolved trees")
    side, witness = _checked(f, tree)
    if not all(f[c] in c for c in side.values()):
        raise ValueError("f is not a transversal: some f(A) is outside A")
    if witness and not force:
        a, b = witness
        shown = ",".join(sorted(b)[:10]) + (",…" if len(b) > 10 else "")
        raise ValueError(f"transversal is not stable: f(A) = {f[a]} lies in B but f(B) = {f[b]}, "
                         f"with |A| = {len(a)}, |B| = {len(b)}, B = {{{shown}}}")
    cords = set()
    for v in tree.interior_vertices():
        x, y, z = (f[side[w, v]] for w in tree.neighbors(v))
        cords.update((Cord(x, y), Cord(x, z), Cord(y, z)))
    return frozenset(cords)


def is_cover(tree: XTree, cords: Iterable[Cord]) -> bool:
    """Does L hit every pair of components at every interior vertex?  Each
    pair holds a child side c, and is joined when ``reach[c]``, the OR of the
    partner bitsets of the taxa below c, meets the other side."""
    if not tree.is_fully_resolved():
        raise TreeError("covers are defined for fully-resolved trees")
    index = tree._index
    partners = _partner_bits(_cords_over(cords, tree), index.taxa)
    reach = dict.fromkeys(index.order, 0)
    reach.update((tree.leaf_vertex(t), bits) for t, bits in zip(index.taxa, partners))
    for v in reversed(index.order[1:]):
        reach[index.parent[v]] |= reach[v]
    return all(
        reach[c] & other
        for children, sides in _sides(tree)
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
    partners = _partner_bits(_cords_over(cords, tree), tree._index.taxa)
    for _, sides in _sides(tree):
        first, second, third = sorted(sides, key=int.bit_count)
        if not any(
            partners[a] & partners[b] & third
            for a in _bit_indices(first)
            for b in _bit_indices(partners[a] & second)
        ):
            return False
    return True


def _sides(tree: XTree) -> Iterator[tuple[list[int], list[int]]]:
    """Per interior vertex: its children, and its sides' bitsets, theirs first."""
    index = tree._index
    for v in tree.interior_vertices():
        children = [w for w in tree.neighbors(v) if index.parent[w] == v]
        up = [] if index.parent[v] is None else [index.full ^ index.below[v]]
        yield children, [index.below[w] for w in children] + up

