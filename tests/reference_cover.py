"""Test-only references for the cover module, each as it was before a
rewrite: closest_leaf_transversal before each interior vertex's distance
search was shared by its clusters (it searches the whole tree once per
oriented edge), and is_cover and is_triplet_cover before they read partner
bitsets off the rooted index (they map every taxon to its component at each
interior vertex and scan every cord).  The differential tests compare them
with the library on seeded sweeps; nothing in the library imports this
module.
"""

from treelasso.cords import Cord
from treelasso.tolerance import DEFAULT_EPSILON


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
