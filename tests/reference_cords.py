"""Test-only reference for the cords module: graph_necessary_checks as it
was before every graph query read partner bitsets, a breadth-first search
that two-colours the graph (X, L) from a dict of neighbour sets; and
format_cord_distances as it was before it walked the sorted items once;
and parse_cord_distances as it was before clean files were read in bulk,
one line at a time into a dict of Cords.  The differential tests compare
them with the library on seeded sweeps; nothing in the library imports
this module.
"""

import math
from collections import deque

from treelasso.cords import Cord, CordFormatError, GraphChecks, cord_taxa
from treelasso.tolerance import DEFAULT_EPSILON, approx_equal
from treelasso.tree import LABEL_PATTERN


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


def parse_cord_distances(text, eps=DEFAULT_EPSILON):
    """The cords of a distance file and their first values, as a dict in
    file order; CordFormatError with the line number on a bad line."""
    data = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise CordFormatError(f"expected 'taxonA<TAB>taxonB<TAB>decimal', got {line!r}", lineno)
        a, b, raw_value = fields
        raw_value = raw_value.strip()
        try:
            value = float(raw_value)
        except ValueError:
            raise CordFormatError(f"invalid distance {raw_value!r}", lineno) from None
        if not 0 <= value < math.inf:
            kind = "negative" if math.isfinite(value) else "non-finite"
            raise CordFormatError(f"{kind} distance {raw_value!r}", lineno)
        a, b = a.strip(), b.strip()
        for label in (a, b):
            if not LABEL_PATTERN.match(label):
                raise CordFormatError(f"invalid taxon label {label!r}", lineno)
        if a == b:
            raise CordFormatError(f"self-cord {a!r}", lineno)
        cord = Cord(a, b)
        kept = data.setdefault(cord, value)
        if kept is not value and not approx_equal(kept, value, eps):
            raise CordFormatError(f"conflicting duplicate for {cord}: {kept} vs {value}", lineno)
    return data
