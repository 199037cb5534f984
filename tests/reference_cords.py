"""Test-only reference for the cords module: graph_necessary_checks as it
was before every graph query read partner bitsets, a breadth-first search
that two-colours the graph (X, L) from a dict of neighbour sets; and
format_cord_distances as it was before it walked the sorted items once.
The differential tests compare them with the library on seeded sweeps;
nothing in the library imports this module.
"""

from collections import deque

from treelasso.cords import GraphChecks, cord_taxa


def bfs_graph_necessary_checks(cords, taxa):
    cords = set(cords)
    adj = {t: set() for t in taxa}
    stray = cord_taxa(cords) - adj.keys()
    if stray:
        raise ValueError(f"cords mention taxa outside X: {sorted(stray)!r}")
    for c in cords:
        adj[c.a].add(c.b)
        adj[c.b].add(c.a)
    color = {}
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


def format_cord_distances(d):
    """One line per cord of the sorted iteration, each value read by d[c]."""
    return "".join(f"{c.a}\t{c.b}\t{d[c]!r}\n" for c in d)
