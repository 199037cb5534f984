"""Answers the benchmark computes itself, independently of treelasso.

Every task output is checked against these helpers, never against another
treelasso function: leaf distances come from a plain Newick tokenizer and a
breadth-first search over the edges, 2d-tree orderings are checked against
the definition, and splits are read off the edges directly.
"""

from __future__ import annotations

import re
from collections import deque

_TOKEN = re.compile(r"\s*([(),:;]|[^(),:;\s]+)")


def newick_edges(text: str) -> tuple[list[tuple[int, int, float]], dict[int, str]]:
    """Edges (parent, child, weight) and leaf labels of a Newick string."""
    tokens = _TOKEN.findall(text)
    if not tokens or tokens[-1] != ";":
        raise ValueError("Newick text must end with ';'")
    parent_of: dict[int, int | None] = {}
    weight: dict[int, float] = {}
    labels: dict[int, str] = {}
    stack: list[int] = []
    last = None  # the vertex a following ':weight' belongs to
    prev = None
    for tok in tokens[:-1]:
        if prev == ":":
            weight[last] = float(tok)
        elif tok == "(":
            last = len(parent_of)
            parent_of[last] = stack[-1] if stack else None
            stack.append(last)
        elif tok == ")":
            last = stack.pop()
        elif tok not in (":", ",") and prev != ")":  # a label after ')' names an interior vertex
            last = len(parent_of)
            parent_of[last] = stack[-1] if stack else None
            labels[last] = tok
        prev = tok
    if stack:
        raise ValueError("unbalanced parentheses in Newick text")
    edges = [(p, c, weight.get(c, 0.0)) for c, p in parent_of.items() if p is not None]
    return edges, labels


def tree_edges(tree) -> tuple[list[tuple[int, int, float]], dict[int, str]]:
    """Edges and leaf labels of an XTree, read through its plain accessors."""
    labels = {v: tree.leaf_label(v) for v in tree.vertices() if tree.is_leaf(v)}
    return list(tree.edges()), labels


def _adjacency(edges) -> dict[int, list[tuple[int, float]]]:
    adj: dict[int, list[tuple[int, float]]] = {}
    for u, v, w in edges:
        adj.setdefault(u, []).append((v, w))
        adj.setdefault(v, []).append((u, w))
    return adj


def leaf_distances(edges, labels) -> dict[str, dict[str, float]]:
    """Weighted leaf-to-leaf path lengths, by one BFS per leaf."""
    adj = _adjacency(edges)
    out: dict[str, dict[str, float]] = {}
    for src, name in labels.items():
        dist = {src: 0.0}
        queue = deque([src])
        while queue:
            v = queue.popleft()
            for nb, w in adj[v]:
                if nb not in dist:
                    dist[nb] = dist[v] + w
                    queue.append(nb)
        out[name] = {labels[v]: d for v, d in dist.items() if v in labels}
    return out


def splits(edges, labels) -> set[frozenset]:
    """Every edge's bipartition of the leaf labels, as a frozenset of sides."""
    adj = _adjacency(edges)
    taxa = frozenset(labels.values())
    out = set()
    for u, v, _ in edges:
        seen = {u, v}
        stack = [v]
        side = set()
        while stack:
            x = stack.pop()
            if x in labels:
                side.add(labels[x])
            for nb, _ in adj[x]:
                if nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        side = frozenset(side)
        out.add(frozenset((side, taxa - side)))
    return out


def compare_distances(got, truth, pairs, tol: float) -> str | None:
    """First pair whose distance got(a, b) differs from the truth by more than tol."""
    for a, b in pairs:
        g = got(a, b)
        if abs(g - truth[a][b]) > tol:
            return f"d({a},{b}) = {g!r}, expected {truth[a][b]!r}"
    return None


def is_2dtree_ordering(cords, ordering, taxa) -> bool:
    """First pair adjacent; every later vertex has exactly two earlier neighbours."""
    if ordering is None or sorted(ordering) != sorted(taxa) or len(ordering) < 2:
        return False
    pairs = {frozenset((c.a, c.b)) for c in cords}
    if frozenset(ordering[:2]) not in pairs:
        return False
    for i in range(2, len(ordering)):
        back = sum(frozenset((ordering[i], ordering[j])) in pairs for j in range(i))
        if back != 2:
            return False
    return True


def is_resolved_tree_on(edges, labels, taxa) -> bool:
    """A connected, acyclic tree whose leaves are the taxa and whose interior
    vertices all have degree 3."""
    adj = _adjacency(edges)
    if sorted(labels.values()) != sorted(taxa) or len(edges) != len(adj) - 1:
        return False
    for v, nbrs in adj.items():
        if (v in labels) != (len(nbrs) == 1) or (v not in labels and len(nbrs) != 3):
            return False
    seen = {next(iter(adj))}
    stack = list(seen)
    while stack:
        for nb, _ in adj[stack.pop()]:
            if nb not in seen:
                seen.add(nb)
                stack.append(nb)
    return len(seen) == len(adj)
