"""Test-only reference tree queries: the per-query breadth-first searches
that XTree's rooted index replaced, and the all-pairs stability scan that
cover.stability_violation once ran for its witness.  The scan is now only a
reference: the library's witness is the first pair its local pass rejects,
so the stability test compares verdicts, not witnesses.  The differential
tests compare the rest with the library on seeded trees; nothing in the
library imports this module.
"""

import itertools
import math
from collections import deque


def path(tree, src, dst):
    parent = {src: src}
    queue = deque([src])
    while queue:
        v = queue.popleft()
        if v == dst:
            break
        for nb in tree.neighbors(v):
            if nb not in parent:
                parent[nb] = v
                queue.append(nb)
    out = [dst]
    while out[-1] != src:
        out.append(parent[out[-1]])
    out.reverse()
    return out


def distance(tree, x, y):
    if x == y:
        return 0.0
    p = path(tree, tree.leaf_vertex(x), tree.leaf_vertex(y))
    return math.fsum(tree.weight(a, b) for a, b in zip(p, p[1:]))


def distances_from(tree, x):
    """distance(tree, x, y) for every taxon y, from one search that carries
    each vertex's path weights from x."""
    start = tree.leaf_vertex(x)
    path = {start: []}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for nb in tree.neighbors(v):
            if nb not in path:
                path[nb] = path[v] + [tree.weight(v, nb)]
                queue.append(nb)
    return {y: math.fsum(path[tree.leaf_vertex(y)]) for y in tree.taxa}


def path_edges(tree, x, y):
    p = path(tree, tree.leaf_vertex(x), tree.leaf_vertex(y))
    return [(min(a, b), max(a, b)) for a, b in zip(p, p[1:])]


def hops(tree):
    out = {}
    for label in tree.taxa:
        start = tree.leaf_vertex(label)
        hop = {start: 0}
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for nb in tree.neighbors(v):
                if nb not in hop:
                    hop[nb] = hop[v] + 1
                    queue.append(nb)
        out[label] = {lab: hop[tree.leaf_vertex(lab)] for lab in tree.taxa}
    return out


def side_leaves(tree, u, v):
    seen = {u, v}
    queue = deque([u])
    labels = []
    while queue:
        w = queue.popleft()
        if w != v and tree.is_leaf(w):
            labels.append(tree.leaf_label(w))
        for nb in tree.neighbors(w):
            if nb not in seen:
                seen.add(nb)
                queue.append(nb)
    return frozenset(labels)


def components(tree, v):
    return tuple(sorted((side_leaves(tree, nb, v) for nb in tree.neighbors(v)), key=min))


def clusters(tree):
    out = set()
    for u, v, _ in tree.edges():
        out.add(side_leaves(tree, u, v))
        out.add(side_leaves(tree, v, u))
    return frozenset(out)


def split_weights(tree):
    return {
        frozenset({side_leaves(tree, u, v), side_leaves(tree, v, u)}): w
        for u, v, w in tree.edges()
    }


def quartet_topology(h, a, b, c, d):
    """Quartet topology from a hops(tree) table."""
    s_ab = h[a][b] + h[c][d]
    s_ac = h[a][c] + h[b][d]
    s_ad = h[a][d] + h[b][c]
    low = min(s_ab, s_ac, s_ad)
    if s_ab == s_ac == s_ad:
        return None
    if s_ab == low:
        return frozenset({frozenset({a, b}), frozenset({c, d})})
    if s_ac == low:
        return frozenset({frozenset({a, c}), frozenset({b, d})})
    return frozenset({frozenset({a, d}), frozenset({b, c})})


def stability_violation(f, tree):
    ordered = sorted(clusters(tree), key=lambda c: (len(c), sorted(c)))
    for b, a in itertools.combinations(ordered, 2):
        if f[a] in b and b < a and f[a] != f[b]:
            return (a, b)
    return None
