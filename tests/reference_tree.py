"""Test-only reference tree queries: the per-query breadth-first searches
that XTree's rooted index replaced, the all-pairs stability scan that
cover.stability_violation once ran for its witness, and the character-by-
character Newick parser that parse_newick's token scan replaced.  The scan
is now only a reference: the library's witness is the first pair its local
pass rejects, so the stability test compares verdicts, not witnesses.  The
differential tests compare the rest with the library on seeded trees and
inputs; nothing in the library imports this module.
"""

import itertools
import math
from collections import deque

from treelasso.tree import LABEL_PATTERN, NewickError, XTree


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


class _RawNode:
    __slots__ = ("children", "label", "length")

    def __init__(self):
        self.children: list[_RawNode] = []
        self.label: str | None = None
        self.length: float | None = None


class _NewickParser:
    """Newick parser tracking position for error messages."""

    _LABEL_CHARS = set("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_.-")
    _NUMBER_CHARS = set("0123456789.eE+-")

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def fail(self, message: str, pos: int | None = None) -> None:
        pos = self.pos if pos is None else pos
        line = self.text.count("\n", 0, pos) + 1
        column = pos - (self.text.rfind("\n", 0, pos) + 1) + 1
        raise NewickError(message, line, column)

    def _skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos] in " \t\r\n":
            self.pos += 1

    def _peek(self) -> str:
        self._skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def parse(self) -> _RawNode:
        root = self._subtree()
        if self._peek() != ";":
            self.fail("expected ';'")
        self.pos += 1
        self._skip_ws()
        if self.pos != len(self.text):
            self.fail("trailing characters after ';'")
        return root

    def _subtree(self) -> _RawNode:
        # Recursive descent with an explicit stack of the open '(' nodes.
        open_nodes: list[_RawNode] = []
        while True:
            node = _RawNode()
            ch = self._peek()
            if ch == "(":
                self.pos += 1
                open_nodes.append(node)
                continue
            if ch in self._LABEL_CHARS:
                node.label = self._read_label()
            else:
                self.fail("expected '(' or a taxon label" if ch else "unexpected end of input")
            self._read_length(node)
            while open_nodes:  # close the nodes this one completes
                open_nodes[-1].children.append(node)
                if self._peek() == ",":
                    self.pos += 1
                    break
                if self._peek() != ")":
                    self.fail("unbalanced parenthesis: expected ')' or ','")
                self.pos += 1
                # Internal node labels are tolerated and discarded.
                if self._peek() in self._LABEL_CHARS:
                    self._read_label()
                node = open_nodes.pop()
                self._read_length(node)
            else:  # no '(' left open: node is the whole tree
                return node

    def _read_length(self, node: _RawNode) -> None:
        if self._peek() == ":":
            self.pos += 1
            node.length = self._read_number()

    def _read_label(self) -> str:
        self._skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] in self._LABEL_CHARS:
            self.pos += 1
        return self.text[start : self.pos]

    def _read_number(self) -> float:
        self._skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] in self._NUMBER_CHARS:
            self.pos += 1
        token = self.text[start : self.pos]
        try:
            value = float(token)
        except ValueError:
            self.fail(f"invalid branch length {token!r}", start)
        if not math.isfinite(value):
            self.fail(f"non-finite branch length {token!r}", start)
        if value < 0:
            self.fail(f"negative branch length {token!r}", start)
        return value


def parse_newick(text):
    """treelasso.parse_newick as it was: _NewickParser's raw tree, then
    vertex ids in preorder and degree-2 suppression."""
    root = _NewickParser(text).parse()

    while len(root.children) == 1:
        child = root.children[0]
        if child.length is not None:
            raise NewickError("branch length on a single-child root has no unrooted meaning")
        root = child
    if not root.children:
        raise NewickError("fewer than 3 leaves")

    counter = itertools.count()
    adj = {}
    labels = {}

    # Vertex ids in preorder, children in their written order.
    stack = [(root, None)]
    while stack:
        node, parent = stack.pop()
        vid = next(counter)
        adj[vid] = {}
        if parent is not None:
            adj[parent][vid] = adj[vid][parent] = node.length
        if node.children:
            stack.extend((child, vid) for child in reversed(node.children))
        else:
            if node.label is None:
                raise NewickError("leaf without a label")
            labels[vid] = node.label

    for vid, label in labels.items():
        if not LABEL_PATTERN.match(label):
            raise NewickError(f"invalid taxon label {label!r}")
    seen = set()
    for label in labels.values():
        if label in seen:
            raise NewickError(f"duplicate leaf label {label!r}")
        seen.add(label)
    if len(labels) < 3:
        raise NewickError("fewer than 3 leaves")

    # Suppress degree-2 vertices; merging two length-less edges stays
    # length-less so the 1.0 default applies once to the merged edge.
    for v in [v for v in list(adj) if len(adj[v]) == 2 and v not in labels]:
        (p, wp), (q, wq) = adj[v].items()
        del adj[p][v], adj[q][v], adj[v]
        if wp is None and wq is None:
            merged = None
        else:
            merged = (1.0 if wp is None else wp) + (1.0 if wq is None else wq)
        adj[p][q] = adj[q][p] = merged

    edges = [
        (u, v, 1.0 if w is None else w)
        for u, nbrs in adj.items()
        for v, w in nbrs.items()
        if u < v
    ]
    return XTree(edges, labels)
