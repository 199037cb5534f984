"""Test-only reference: closest_leaf_transversal as it was before each
interior vertex's distance search was shared by its clusters.  It searches
the whole tree once per oriented edge.  The differential test compares the
two on a seeded sweep; nothing in the library imports this module.
"""

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
