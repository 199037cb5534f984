"""Test-only reference engines: the lexicographic-rescan closure and the
count-based shellability saturation that the dense fixpoint engine in
treelasso.lasso replaced, with the scalar tolerance helpers they used, the
shellability answer of that engine on hop counts that the bitset closure
of is_shellable replaced, the placement (a 2d-tree in its peel ordering, a
larger cord set greedily) that answered is_shellable's "yes" before that
closure did it alone, and the exhaustive topological oracle (one LP per
alternative topology) that the pruned oracle replaced, the memoised
backtracking 2d-tree recognition
that the greedy peel replaced, and the tree_from_2dtree construction with a
breadth-first path search per inserted vertex that the parent-pointer climb
replaced, and the eager builders of is_shellable's steps and of the closure
trace that the lazy step views replaced, and the cross-check of every
block seed against every quartet that checking each block cord against its
own block replaced, and the oracle's pruning bounds taken along the quartet
engine's derivations that the oracle's own fixpoint of sure derivations
replaced, and the closure that ran the quartet engine from the cords
alone, float or exact, until closure took reconstruct's route through
metric blocks.  The differential tests compare each pair on seeded sweeps;
nothing in the library imports this module.
"""

import itertools
import math
from collections import deque
from fractions import Fraction

import numpy as np

from treelasso import Cord, InconsistentDistanceError, PartialDistance, XTree, all_cords, tolerance
from treelasso.cords import _bit_indices, _partner_bits, cord_taxa
from treelasso.lasso import (
    MAX_ORACLE_TAXA,
    ClosureStep,
    ClosureTrace,
    ShellingResult,
    ShellingStep,
    _back_neighbours,
    _closure_trace,
    _contract_tiny_interior,
    _extend,
    _grow,
    _named,
    _peel,
    _Placer,
    _ROUNDING,
    _shown,
    _surely_below,
    four_point,
)
from treelasso.tolerance import DEFAULT_EPSILON
from treelasso.tree import TreeError


def _scale(*values):
    return max(1.0, *(abs(v) for v in values))


def approx_equal(x, y, eps=DEFAULT_EPSILON):
    return abs(x - y) <= eps * _scale(x, y)


def definitely_less(x, y, eps=DEFAULT_EPSILON):
    if eps == 0:
        return x < y
    return x < y - eps * _scale(x, y)


def rescan_closure(d, eps=DEFAULT_EPSILON, exact_rational=False):
    """Scan every 4-taxon set in lexicographic order, pass after pass, until
    a pass derives nothing; cross-check each derived cord against every
    quadruple able to derive it at that moment."""
    if not len(d):
        raise ValueError("closure needs a non-empty distance map")
    taxa = sorted(d.taxa)
    if exact_rational:
        known = {c: Fraction(d[c]) for c in d.cords}
        eff_eps = 0.0
    else:
        known = dict(d)
        eff_eps = eps

    total = len(taxa) * (len(taxa) - 1) // 2
    steps = []
    changed = len(known) < total
    while changed:
        changed = False
        for quad in itertools.combinations(taxa, 4):
            derived = _derive(quad, known, eff_eps)
            if derived is None:
                continue
            cord, quadruple, value = derived
            _cross_check(cord, value, known, taxa, eff_eps)
            known[cord] = value
            steps.append(ClosureStep(cord, quadruple, float(value)))
            changed = True
        if len(known) == total:
            break

    final = PartialDistance({c: float(v) for c, v in known.items()})
    return ClosureTrace(tuple(steps), final)


def engine_closure(d, eps=DEFAULT_EPSILON, exact_rational=False):
    """closure as it ran before it took reconstruct's route through metric
    blocks: the quartet engine (lasso._extend) from the cords alone, every
    derivation cross-checked against every set able to derive its cord at
    that moment, in the order of a lexicographic rescan; with
    exact_rational=True on Fractions with eps=0."""
    if not len(d):
        raise ValueError("closure needs a non-empty distance map")
    taxa = d._taxa
    if len(d) == len(taxa) * (len(taxa) - 1) // 2:
        return ClosureTrace((), d)
    values = list(map(Fraction, d._v.tolist())) if exact_rational else None
    rows, _ = _extend(taxa, d, 0.0 if exact_rational else eps, values=values)
    return _closure_trace(d, taxa, rows)


def _derive(quad, known, eps):
    cords6 = [Cord(p, q) for p, q in itertools.combinations(quad, 2)]
    missing = [c for c in cords6 if c not in known]
    if len(missing) != 1:
        return None
    (m,) = missing
    p1, p2 = sorted(set(quad) - {m.a, m.b})
    s1 = known[Cord(m.a, p1)] + known[Cord(m.b, p2)]
    s2 = known[Cord(m.a, p2)] + known[Cord(m.b, p1)]
    base = known[Cord(p1, p2)]
    if definitely_less(s1, s2, eps):
        return m, (m.a, p1, p2, m.b), s2 - base
    if definitely_less(s2, s1, eps):
        return m, (m.a, p2, p1, m.b), s1 - base
    return None


def _cross_check(cord, value, known, taxa, eps):
    exact = eps == 0
    for q1, q2 in itertools.combinations([t for t in taxa if t not in (cord.a, cord.b)], 2):
        needed = (
            Cord(cord.a, q1),
            Cord(cord.a, q2),
            Cord(cord.b, q1),
            Cord(cord.b, q2),
            Cord(q1, q2),
        )
        if any(c not in known for c in needed):
            continue
        alt = _derive((cord.a, cord.b, q1, q2), known, eps)
        if alt is None:
            continue
        other = alt[2]
        agree = value == other if exact else approx_equal(value, other, eps)
        if not agree:
            raise InconsistentDistanceError(
                f"{cord} derivable as both {float(value)} and {float(other)}"
            )


def counting_is_shellable(tree, cords, rng=None):
    """Count available cords per 4-taxon set and saturate from a FIFO queue
    of quartets that lack exactly one cord."""
    if not tree.is_fully_resolved():
        raise TreeError("shellability is defined for fully-resolved trees")
    taxa = sorted(tree.taxa)
    present = set(cords)
    stray = cord_taxa(present) - tree.taxa
    if stray:
        raise KeyError(f"cords mention taxa outside the tree: {sorted(stray)!r}")
    quartets = list(itertools.combinations(taxa, 4))
    if rng is not None:
        rng.shuffle(quartets)
    count = []
    by_cord = {c: [] for c in all_cords(taxa)}
    for idx, quad in enumerate(quartets):
        k = 0
        for p, q in itertools.combinations(quad, 2):
            c = Cord(p, q)
            by_cord[c].append(idx)
            if c in present:
                k += 1
        count.append(k)

    def derivable(idx):
        quad = quartets[idx]
        gap = [Cord(p, q) for p, q in itertools.combinations(quad, 2) if Cord(p, q) not in present]
        if len(gap) != 1:
            return None
        (m,) = gap
        split = tree.quartet_topology(*quad)
        if split is None:
            return None
        (side,) = [s for s in split if m.a in s]
        if m.b in side:
            return None
        x = next(iter(side - {m.a}))
        other = next(s for s in split if s is not side)
        y = next(iter(other - {m.b}))
        return ShellingStep(m, (x, y))

    queue = deque(idx for idx in range(len(quartets)) if count[idx] == 5)
    steps = []
    while queue:
        idx = queue.popleft()
        if count[idx] != 5:
            continue
        step = derivable(idx)
        if step is None:
            continue
        present.add(step.cord)
        steps.append(step)
        for jdx in by_cord[step.cord]:
            count[jdx] += 1
            if count[jdx] == 5:
                queue.append(jdx)

    missing = all_cords(taxa) - present
    return ShellingResult(tuple(steps), frozenset(missing))


def engine_is_shellable(tree, cords, rng=None):
    """The dense closure engine on the tree's unit-hop distances with eps=0,
    steps in lexicographic-rescan order over the taxa, which *rng*
    permutes.  The cross-check is off: every value is an exact hop count,
    so all derivations of a cord agree."""
    if not tree.is_fully_resolved():
        raise TreeError("shellability is defined for fully-resolved trees")
    present = set(cords)
    stray = cord_taxa(present) - tree.taxa
    if stray:
        raise KeyError(f"cords mention taxa outside the tree: {sorted(stray)!r}")
    taxa = sorted(tree.taxa)
    if rng is not None:
        rng.shuffle(taxa)
    hops = {c: tree._hops(c.a, c.b) for c in present}
    rows, known = _extend(taxa, PartialDistance(hops), 0.0, cross_check=False)
    steps = tuple(ShellingStep(Cord(x, z), (y, u) if x < z else (u, y)) for (x, y, u, z), _ in _named(taxa, rows))
    missing = frozenset(Cord(taxa[i], taxa[j]) for i, j in zip(*np.nonzero(np.triu(~known, 1))))
    return ShellingResult(steps, missing)


def placement(tree, cords):
    """Every taxon placed by a spanning 2d-subgraph of L, or None: the
    placement that answered is_shellable's "yes" before the shelling
    closure did it alone.

    Returns the two starting taxa, the placement (see lasso._Placer) and
    L's partner bitsets.  With fewer than 2n-3 cords there is no spanning
    2d-subgraph.  With 2n-3 the ordering is is_2dtree's, a before b.  With
    more, the greedy (lasso._grow) starts from the smallest cord in a
    triangle of L.
    """
    n = len(tree._index.taxa)
    if len(cords) < 2 * n - 3:
        return None
    partners = _partner_bits(cords, tree._index.taxa)
    placer = _Placer(tree)
    if len(cords) == 2 * n - 3:
        ordering = _peel(partners)
        if ordering is None:
            return None
        position = {v: k for k, v in enumerate(ordering)}
        placed, prefix = [], 1 << ordering[0] | 1 << ordering[1]
        for z in ordering[2:]:  # a 2d-tree ordering: two earlier neighbours each
            a, b = sorted(_bit_indices(partners[z] & prefix), key=position.__getitem__)
            if not placer.place(z, a, b, prefix, placed):
                return None
            prefix |= 1 << z
        return ordering[:2], placed, partners
    start = next(
        ((i, j) for i in range(n) for j in _bit_indices(partners[i]) if i < j and partners[i] & partners[j]),
        None,
    )
    if start is None:  # no triangle: nothing places
        return None
    placed, prefix = _grow(partners, start, placer.place)
    return (start, placed, partners) if prefix == placer.full else None


def placement_steps(tree, cords):
    """The steps of placement's shelling, or None when it does not place."""
    placed = placement(tree, cords)
    return None if placed is None else eager_placement_steps(tree, *placed)


def eager_placement_steps(tree, start, placed, partners):
    """The shelling a placement certifies, in placement order, built at
    once: for each later taxon z, pivots a and b, each cord zs to an earlier
    taxon s not already in partners[z], with s paired with a when it lies in
    a's component of T-m (s a || b z)."""
    taxa, prefix, steps = tree._index.taxa, list(start), []
    for z, a, b, a_side in placed:
        for s in prefix:
            if not partners[z] >> s & 1:
                x, y = (a, b) if (a_side >> s & 1) == (s < z) else (b, a)  # lower end first
                steps.append(ShellingStep(Cord(taxa[s], taxa[z]), (taxa[x], taxa[y])))
        prefix.append(z)
    return tuple(steps)


def eager_shelling_steps(tree, blocks, derivations):
    """is_shellable's steps from _hop_closure's blocks and derivations, built
    at once into a tuple: each block's placement steps, then the
    derivations."""
    taxa = tree._index.taxa
    steps = [step for block in blocks for step in eager_placement_steps(tree, *block)]
    steps += (ShellingStep(Cord(taxa[u], taxa[v]), (taxa[x], taxa[y])) for u, v, x, y in derivations)
    return tuple(steps)


#: Largest element count of one intermediate array of full_check_extend.
_CHECK_ELEMENTS = 2**20


def full_check_extend(taxa, cords, eps, cross_check=True, blocks=(), quiet=0, values=None):
    """lasso._extend as reconstruct's closure path ran it before each block
    was checked against its own block tree: each seed row (z, x, y, s, v),
    in order, cross-checked against every set {z, s, q1, q2} with q1, q2
    known to both and q1q2 known, one z's rows in one vectorised pass (for
    row k, q ranges over z's partners before the rows and the s of earlier
    rows); then the engine from the cords plus the seeds, whose
    derivations follow the seeds.  The signature is _extend's, on float
    values only."""
    assert values is None, "float values only"
    seeds = [row for _, _, rows in blocks for row in rows]
    n = len(taxa)
    index = {t: i for i, t in enumerate(taxa)}
    value, known = np.zeros((n, n)), np.zeros((n, n), dtype=bool)
    for c, v in cords.items():
        i, j = index[c.a], index[c.b]
        value[i, j] = value[j, i] = v
        known[i, j] = known[j, i] = True

    def quartet(ma, mb, p1, p2):
        s1 = value[ma, p1] + value[mb, p2]
        s2 = value[ma, p2] + value[mb, p1]
        strict, lt = four_point(s1, s2, eps)
        return strict, lt, np.where(lt, s2, s1) - value[p1, p2]

    def cross_check_seeds(z, s, v):
        when = np.where(known[z], -1, len(s))  # the k from which q is z's partner
        when[s] = np.arange(len(s))
        cols = np.flatnonzero(when < len(s))
        pairs = np.triu(known[np.ix_(cols, cols)], 1)
        step = max(1, _CHECK_ELEMENTS // max(1, cols.size**2))
        for lo in range(0, len(s), step):
            ks = np.arange(lo, min(lo + step, len(s)))
            mask = (when[cols] < ks[:, None]) & known[np.ix_(s[ks], cols)]
            r, q1, q2 = np.nonzero(mask[:, :, None] & mask[:, None, :] & pairs)
            strict, _, other = quartet(z, s[ks[r]], cols[q1], cols[q2])
            bad = np.flatnonzero(strict & ~tolerance.approx_equal(v[ks[r]], other, eps))
            if bad.size:
                k = ks[r[bad[0]]]
                raise InconsistentDistanceError(
                    f"{Cord(taxa[z], taxa[s[k]])} derivable as both {_shown(v[k])} and {_shown(other[bad[0]])}"
                )

    with np.errstate(over="ignore", invalid="ignore"):
        for z, batch in itertools.groupby(seeds, key=lambda row: row[0]):
            batch = list(batch)
            s, v = np.array([row[3] for row in batch], dtype=np.intp), np.array([row[4] for row in batch])
            value[z, s] = value[s, z] = v
            if cross_check:
                cross_check_seeds(z, s, v)
            known[z, s] = known[s, z] = True
    merged = dict(cords)
    merged.update((Cord(taxa[z], taxa[s]), v) for z, _, _, s, v in seeds)
    ends = np.array([(index[c.a], index[c.b]) for c in merged], dtype=np.intp).reshape(-1, 2)
    merged = PartialDistance._of(taxa, ends.min(axis=1), ends.max(axis=1), np.array(list(merged.values())))
    derivations, known = _extend(taxa, merged, eps, cross_check, quiet=quiet)
    return seeds + derivations, known


def eager_closure_trace(d, taxa, rows):
    """The closure trace of _extend's rows over d, every step built at once
    and *final* validated entry by entry; the same errors as the lazy trace."""
    steps, final = [], dict(d)
    for q, v in _named(taxa, rows):
        cord = Cord(q[0], q[3])
        try:
            value = float(v)
        except OverflowError:
            value = math.inf
        if not 0 <= value < math.inf:
            why = "below 0" if value < 0 else "beyond the float range"
            raise InconsistentDistanceError(f"{cord} derivable as {_shown(v)} via ({','.join(q)}), {why}")
        steps.append(ClosureStep(cord, q, value))
        final[cord] = value
    return ClosureTrace(tuple(steps), PartialDistance(final))


def insertion_topologies(taxa):
    """Every fully-resolved topology on the taxa by stepwise leaf insertion,
    depth first, with nothing pruned."""
    taxa = sorted(taxa)
    if len(taxa) < 3:
        raise ValueError("topology enumeration needs at least 3 taxa")

    def expand(edges, leaf_of, next_id, i):
        if i == len(taxa):
            yield XTree([(u, v, 1.0) for u, v in edges], dict(leaf_of))
            return
        leaf, mid = next_id, next_id + 1
        for k in range(len(edges)):
            u, v = edges[k]
            new_edges = edges[:k] + edges[k + 1 :] + [(u, mid), (mid, v), (mid, leaf)]
            new_leaf_of = dict(leaf_of)
            new_leaf_of[leaf] = taxa[i]
            yield from expand(new_edges, new_leaf_of, next_id + 2, i + 1)

    center = 3
    base_edges = [(0, center), (1, center), (2, center)]
    base_leaves = {0: taxa[0], 1: taxa[1], 2: taxa[2]}
    yield from expand(base_edges, base_leaves, 4, 3)


def exhaustive_oracle(tree, cords, eps=DEFAULT_EPSILON):
    """One LP per alternative topology, in insertion order; the first fit
    within twice the LP's tolerance on every cord is the witness."""
    from scipy.optimize import linprog

    taxa = sorted(tree.taxa)
    if len(taxa) > MAX_ORACLE_TAXA:
        raise ValueError(f"oracle supports at most {MAX_ORACLE_TAXA} taxa, got {len(taxa)}")
    if not tree.is_fully_resolved():
        raise TreeError("the oracle assumes a fully-resolved input tree")
    if not tree.is_properly_weighted():
        raise TreeError("the oracle needs a proper edge weighting")
    cords = sorted(set(cords))
    stray = cord_taxa(cords) - tree.taxa
    if stray:
        raise KeyError(f"cords mention taxa outside the tree: {sorted(stray)!r}")
    if not cords:
        raise ValueError("oracle needs a non-empty cord set")

    b = np.array([tree.distance(c.a, c.b) for c in cords])
    fit_tol = max(1e-7, eps) * max(1.0, float(np.max(np.abs(b))))
    own_splits = tree.splits()

    for candidate in insertion_topologies(taxa):
        if candidate.splits() == own_splits:
            continue
        edges = candidate.edges()
        a_mat = np.array(
            [
                [1 if e in path else 0 for e in ((u, v) for u, v, _ in edges)]
                for path in (set(candidate.path_edges(c.a, c.b)) for c in cords)
            ],
            dtype=float,
        )
        interior = np.array(
            [0.0 if candidate.is_leaf(u) or candidate.is_leaf(v) else 1.0 for u, v, _ in edges]
        )
        res = linprog(
            c=interior,
            A_ub=np.vstack([a_mat, -a_mat]),
            b_ub=np.concatenate([b + fit_tol, -(b - fit_tol)]),
            bounds=[(0, None)] * len(edges),
            method="highs",
        )
        if not res.success:
            continue
        weights = np.maximum(res.x, 0.0)
        if np.max(np.abs(a_mat @ weights - b)) > 2 * fit_tol:
            continue
        return _contract_tiny_interior(candidate, weights, 10 * fit_tol)
    return None


def engine_forbidden_pairings(n, pairs, values, accept):
    """The oracle's forbidden pairings, as treelasso.lasso._forbidden_pairings
    gives them, with the bounds of derived cords taken from the quartet
    engine (eps=0, no cross-check): a cord is bounded only when the quartet
    the engine derived it by is sure for the bounds of its other five cords
    at that point of the engine's order."""
    taxa = [f"t{i:02d}" for i in range(n)]
    cords = [Cord(taxa[p], taxa[q]) for p, q in pairs]
    bound = {c: (v, accept + _ROUNDING * (v + accept)) for c, v in zip(cords, values)}
    rows, _ = _extend(taxa, PartialDistance(dict(zip(cords, values))), 0.0, cross_check=False)
    for (x, y, u, z), v in _named(taxa, rows):
        xy, uz, xu, yz, yu = (bound.get(Cord(p, q)) for p, q in ((x, y), (u, z), (x, u), (y, z), (y, u)))
        if None not in (xy, uz, xu, yz, yu) and _surely_below((xy, uz), (xu, yz)):
            used = (xu, yz, yu)
            bound[Cord(x, z)] = (v, sum(e for _, e in used) + _ROUNDING * sum(abs(w) + e for w, e in used))
    forbidden = {}
    for quad in itertools.combinations(range(n), 4):
        pairings = [((quad[0], quad[k]), tuple(q for q in quad[1:] if q != quad[k])) for k in (1, 2, 3)]
        sums = [[bound.get(Cord(taxa[p], taxa[q])) for p, q in pairing] for pairing in pairings]
        sums = [s if None not in s else None for s in sums]
        banned = set()
        for low, high in itertools.permutations(range(3), 2):
            if sums[low] and sums[high] and _surely_below(sums[low], sums[high]):
                banned.update({0, 1, 2} - {low})
        for k in sorted(banned):
            forbidden.setdefault(quad[3], []).append(tuple((1 << p) | (1 << q) for p, q in pairings[k]))
    return forbidden


def backtracking_is_2dtree(cords, taxa=None, greedy=False):
    """Delete a vertex of current degree 2, trying the candidates in label
    order and backtracking, with memoisation on the remaining vertex set;
    greedy=True tries the first candidate only."""
    cords = set(cords)
    taxa = set(taxa) if taxa is not None else set(cord_taxa(cords))
    stray = cord_taxa(cords) - taxa
    if stray:
        raise ValueError(f"cords mention taxa outside X: {sorted(stray)!r}")
    n = len(taxa)
    if n < 2 or len(cords) != 2 * n - 3:
        return None

    adj = {t: set() for t in taxa}
    for c in cords:
        adj[c.a].add(c.b)
        adj[c.b].add(c.a)

    dead = set()

    def eliminate(remaining):
        if len(remaining) == 2:
            a, b = sorted(remaining)
            return [a, b] if b in adj[a] else None
        key = remaining
        if key in dead:
            return None
        degree = {v: len(adj[v] & remaining) for v in remaining}
        if min(degree.values()) < 2:
            dead.add(key)
            return None  # a vertex below degree 2 can never be eliminated
        candidates = sorted(v for v in remaining if degree[v] == 2)
        if greedy:
            candidates = candidates[:1]
        for v in candidates:
            rest = eliminate(remaining - {v})
            if rest is not None:
                rest.append(v)
                return rest
        dead.add(key)
        return None

    return eliminate(frozenset(taxa))


def bfs_tree_from_2dtree(cords, ordering):
    """tree_from_2dtree without certify, finding each back-neighbour path by
    a breadth-first search over the whole growing tree."""
    cords = set(cords)
    ordering = list(ordering)
    back = _back_neighbours(cords, ordering)
    if back is None:
        raise ValueError("ordering is not a valid 2d-tree ordering of the cord set")

    counter = itertools.count()
    leaf_of = {ordering[0]: next(counter), ordering[1]: next(counter)}
    adj = {}

    def connect(u, v, w):
        adj.setdefault(u, {})[v] = w
        adj.setdefault(v, {})[u] = w

    connect(leaf_of[ordering[0]], leaf_of[ordering[1]], 1.0)

    for label, (xj, xk) in zip(ordering[2:], back):
        path = _vertex_path(adj, leaf_of[xj], leaf_of[xk])
        u, v = _edge_nearest_path_midpoint(adj, path)
        w = adj[u][v]
        del adj[u][v], adj[v][u]
        mid = next(counter)
        connect(u, mid, w / 2.0)
        connect(mid, v, w / 2.0)
        leaf = next(counter)
        leaf_of[label] = leaf
        connect(mid, leaf, 1.0)

    return XTree(
        [(u, v, w) for u, nbrs in adj.items() for v, w in nbrs.items() if u < v],
        {vid: lab for lab, vid in leaf_of.items()},
    )


def _vertex_path(adj, src, dst):
    parent = {src: src}
    queue = deque([src])
    while queue:
        v = queue.popleft()
        if v == dst:
            break
        for nb in adj[v]:
            if nb not in parent:
                parent[nb] = v
                queue.append(nb)
    path = [dst]
    while path[-1] != src:
        path.append(parent[path[-1]])
    path.reverse()
    return path


def _edge_nearest_path_midpoint(adj, path):
    """The path edge, in path order, whose midpoint is first nearest to the
    path's midpoint."""
    total = sum(adj[a][b] for a, b in zip(path, path[1:]))
    target = total / 2.0
    best = None
    prefix = 0.0
    for a, b in zip(path, path[1:]):
        w = adj[a][b]
        score = abs(prefix + w / 2.0 - target)
        if best is None or score < best[0]:
            best = (score, (a, b))
        prefix += w
    return best[1]
