"""Test-only references for the cover module, each as it was before a
rewrite: closest_leaf_transversal before each interior vertex's distance
search was shared by its clusters (it searches the whole tree once per
oriented edge); is_cover and is_triplet_cover before they read partner
bitsets off the rooted index (they map every taxon to its component at each
interior vertex and scan every cord); and is_transversal,
stability_violation and triplet_cover before they shared one side table
(each builds its own cluster label sets, through clusters(), side_leaves()
and components()); and min_order_transversal, closest_leaf_transversal and
the checks as they were before clusters became bitsets (one side table of
label sets per call, and per-cluster scans of those sets).  The
differential tests compare them with the library on seeded sweeps; nothing
in the library imports this module.
"""

import itertools

from treelasso.cords import Cord
from treelasso.tolerance import DEFAULT_EPSILON
from treelasso.tree import TreeError


def per_edge_closest_leaf_transversal(tree, mode="closest", tiebreak=None, eps=DEFAULT_EPSILON):
    """closest_leaf_transversal with one vertex_distances call per oriented
    edge, on the same validated input."""
    order = tiebreak if tiebreak is not None else sorted(tree.taxa)
    rank = {label: i for i, label in enumerate(order)}
    f = {}
    for u, v, _ in tree.edges():
        for near, far in ((u, v), (v, u)):
            cluster = tree.side_leaves(near, far)
            dist = tree.vertex_distances(near)
            scores = {leaf: dist[tree.leaf_vertex(leaf)] for leaf in cluster}
            best = min(scores.values()) if mode == "closest" else max(scores.values())
            tol = eps * max(1.0, abs(best))
            extremal = [leaf for leaf, s in scores.items() if abs(s - best) <= tol]
            f[cluster] = min(extremal, key=rank.__getitem__)
    return f


def is_cover(tree, cords):
    """is_cover as it was before the partner bitsets: per interior vertex,
    a map from taxon to component and a pass over every cord."""
    cords = set(cords)
    for v in tree.interior_vertices():
        components = tree.components(v)
        where = {t: i for i, comp in enumerate(components) for t in comp}
        hit = set()
        for c in cords:
            ia, ib = where[c.a], where[c.b]
            if ia != ib:
                hit.add(frozenset((ia, ib)))
        if len(hit) < 3:
            return False
    return True


def is_triplet_cover(tree, cords):
    """is_triplet_cover as it was before the partner bitsets."""
    cords = set(cords)
    for v in tree.interior_vertices():
        components = tree.components(v)
        where = {t: i for i, comp in enumerate(components) for t in comp}
        if not _has_rainbow_triangle(cords, where, components):
            return False
    return True


def _has_rainbow_triangle(cords, where, components):
    for c in cords:
        ia, ib = where[c.a], where[c.b]
        if ia == ib:
            continue
        (ic,) = {0, 1, 2} - {ia, ib}
        for t in components[ic]:
            if Cord(c.a, t) in cords and Cord(c.b, t) in cords:
                return True
    return False


def _require_total(f, clusters):
    missing = [c for c in clusters if c not in f]
    if missing:
        shown = ",".join(sorted(min(missing, key=min)))
        raise ValueError(f"transversal is missing {len(missing)} cluster(s), e.g. {{{shown}}}")
    return clusters


def is_transversal(f, tree):
    """is_transversal as it was before the side table, on tree.clusters()."""
    clusters = _require_total(f, tree.clusters())
    return all(f[c] in c for c in clusters)


def stability_violation(f, tree):
    """stability_violation as it was before the side table: its own side
    dict, one side_leaves() call per oriented edge."""
    side = {}
    for u, v, _ in tree.edges():
        side[u, v], side[v, u] = tree.side_leaves(u, v), tree.side_leaves(v, u)
    _require_total(f, frozenset(side.values()))
    for (u, v), a in side.items():
        for b in (side[w, u] for w in tree.neighbors(u) if w != v):
            if f[a] in b and f[b] != f[a]:
                return (a, b)
    return None


def triplet_cover(tree, f, force=False):
    """triplet_cover as it was before the side table: is_transversal,
    stability_violation and components() each rebuild the clusters."""
    if not tree.is_fully_resolved():
        raise TreeError("triplet covers are defined for fully-resolved trees")
    if not is_transversal(f, tree):
        raise ValueError("f is not a transversal: some f(A) is outside A")
    if not force and stability_violation(f, tree) is not None:
        raise ValueError("transversal is not stable (pass force=True for a plain triplet cover)")
    cords = set()
    for v in tree.interior_vertices():
        images = [f[component] for component in tree.components(v)]
        cords.update(Cord(x, y) for x, y in itertools.combinations(images, 2))
    return frozenset(cords)


# -- the side table of label sets, as it was before the bitset engine -------


def _checked(f, tree):
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


def side_table_is_transversal(f, tree):
    side, _ = _checked(f, tree)
    return all(f[c] in c for c in side.values())


def side_table_stability_violation(f, tree):
    return _checked(f, tree)[1]


def side_table_is_stable(f, tree):
    side, witness = _checked(f, tree)
    return witness is None and all(f[c] in c for c in side.values())


def min_order_transversal(tree, order=None):
    rank = _rank_of(order, tree)
    return {c: min(c, key=rank.__getitem__) for c in tree._side_table().values()}


def closest_leaf_transversal(tree, mode="closest", tiebreak=None, eps=DEFAULT_EPSILON):
    if mode not in ("closest", "furthest"):
        raise ValueError(f"mode must be 'closest' or 'furthest', got {mode!r}")
    if not tree.is_properly_weighted():
        raise TreeError("closest/furthest transversals need a proper edge weighting")
    rank = _rank_of(tiebreak, tree)

    side = tree._side_table()
    f = {frozenset((t,)): t for t in tree.taxa}  # a leaf's own cluster
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


def _rank_of(order, tree):
    order = sorted(tree.taxa) if order is None else order
    if set(order) != tree.taxa or len(order) != tree.n_leaves:
        raise ValueError("order must be a permutation of the taxon set")
    return {label: i for i, label in enumerate(order)}


def side_table_triplet_cover(tree, f, force=False):
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
