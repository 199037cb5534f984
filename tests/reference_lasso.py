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
metric blocks, and that quartet engine itself (heap_extend), which took
ready 4-taxon sets from a heap in the order of a lexicographic rescan
until lasso._extend examined each known cord once, and the second phase
of the shelling closure (pending_hop_closure) that kept its pending cords
as rank-ordered bitsets until a FIFO queue replaced them, and the block
loop (per_cord_block_loop) that started a block from every known cord in
a triangle and in no block with its first end, until one block per taxon
that no block holds replaced it, and the path-incidence matrix with one
path walk per cord and the contraction of a candidate built as an XTree,
until both read edge sides (the exhaustive oracle contracts its witnesses
so), and the seeds' cross-check (batched_seed_extend) that broadcast all of
one taxon's block rows against its sets in chunks, until _extend checked
each row with the engine's own ready-set test, and the oracle's bound
closure (pass_forbidden_pairings) that passed over every 4-taxon set until
a pass bounded nothing new, until it ran on the closures' shared driver.
The differential tests compare each pair on seeded sweeps; nothing in the
library imports this module.
"""

import heapq
import itertools
import math
from collections import deque
from collections.abc import Sequence
from fractions import Fraction
from operator import itemgetter

import numpy as np

from treelasso import Cord, InconsistentDistanceError, PartialDistance, XTree, all_cords, tolerance
from treelasso.cords import _bit_indices, _cords_over, _partner_bits, _row_bits, cord_taxa
from treelasso.lasso import (
    MAX_ORACLE_TAXA,
    ClosureStep,
    ClosureTrace,
    ShellingResult,
    ShellingStep,
    _back_neighbours,
    _closure_trace,
    _extend,
    _grow,
    _lowest,
    _missing_loop,
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


#: The six cords of a sorted 4-taxon set (a, b, c, d), as positions in it:
#: ab, ac, ad, bc, bd, cd.  Cords k and 5 - k form a pairing: ab|cd, ac|bd
#: and ad|bc for k = 0, 1, 2.
_QUARTET_CORDS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


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
    blocks: the heap engine (heap_extend) from the cords alone, every
    derivation cross-checked against every set able to derive its cord at
    that moment, in the order of a lexicographic rescan; with
    exact_rational=True on Fractions with eps=0."""
    if not len(d):
        raise ValueError("closure needs a non-empty distance map")
    taxa = d._taxa
    if len(d) == len(taxa) * (len(taxa) - 1) // 2:
        return ClosureTrace((), d)
    values = list(map(Fraction, d._v.tolist())) if exact_rational else None
    rows, _ = heap_extend(taxa, d, 0.0 if exact_rational else eps, values=values)
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
    """The heap engine (heap_extend) on the tree's unit-hop distances with eps=0,
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
    rows, known = heap_extend(taxa, PartialDistance(hops), 0.0, cross_check=False)
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


def per_cord_block_loop(given: list[int], order, grow) -> tuple[list[int], list[list[int]], int]:
    """lasso._block_loop as it was before it grew one block per taxon that
    no block holds and built the closures' starting queue: the blocks of a
    closure over the partner bitsets *given*, as (known, home, quiet): the
    partner bitsets of the known cords after them, the blocks holding each
    taxon, and the bitset of the quiet taxa, those whose known partners
    plus itself are exactly one of their blocks.  For each taxon i in
    *order*, each known cord ij in no block with i and in a triangle of the
    known cords starts grow((i, j), known), which grows a block from it and
    returns the bitset of its taxa; the pairs within the block then become
    known."""
    n = len(given)
    full = (1 << n) - 1
    known = list(given)
    home: list[list[int]] = [[] for _ in range(n)]
    covered = [0] * n  # the union of each taxon's blocks
    for i in order:
        untried = known[i]
        while untried := untried & ~covered[i]:
            j = _lowest(untried)
            untried ^= 1 << j
            if known[i] & known[j]:
                block = grow((i, j), known)
                if block == full:  # every pair is known, and every taxon quiet
                    return [full ^ 1 << b for b in range(n)], [[full] for _ in range(n)], full
                for b in _bit_indices(block):
                    known[b] |= block ^ 1 << b
                    covered[b] |= block
                    home[b].append(block)
    quiet = sum(1 << b for b in range(n) if (known[b] | 1 << b) in home[b])
    return known, home, quiet


def pending_hop_closure(tree: XTree, given: list[int], rng=None):
    """lasso._hop_closure as it was before its second phase took the known
    cords from a FIFO queue: the shelling closure of L, *given* as partner
    bitsets, on the tree, as (known, blocks, derivations): the final
    partner bitsets of the known cords, and the material of the steps that derive every derivable cord,
    which only is_shellable's view turns into ShellingSteps.  Each block is
    (start, placement, before), *before* mapping each placed taxon to its
    known partners before the block was grown (see _shelling_steps).
    Each derivation is (u, v, x, y) in taxon indices, u < v: cord uv with
    pivots x, y, the quartet u x || y v.

    Blocks first (per_cord_block_loop): for each taxon i in turn, each
    known cord ij not inside a block and in a triangle of the known cords
    starts a greedy placement over L (_grow), which need not reach all of
    X; the pairs within the block it places become known.  With no *rng*
    the first block starts from the smallest cord in a triangle of L, and
    when it spans X nothing is left to derive.

    Then each known cord pq is examined once, as the cord that completes
    quartets (see the module docstring).  Let W = K(p) & K(q) and cut the
    taxa by the off-path branches of the p-q path, numbered from p's end.
    A quartet with five known cords including pq, whose sixth cord is
    missing, is of one of three kinds:
    - pivots p and q, missing cord uv with u, v in W: derivable exactly
      when u and v lie in different branches;
    - pivots q and s, missing cord pt with s in W and t in K(q) & K(s):
      derivable exactly when t's branch is not nearer p than s's;
    - pivots p and s, missing cord qt, the same from q's end.
    A missing pair with both ends in a block is impossible, so for pq inside
    a block only u outside it is tried; t's branch test runs on the union of
    the K(s) cut to the allowed branches, one OR per s in W.  Each derived
    cord joins the pending ones, kept as one bitset per taxon (cord pq at
    the end that comes first in the taxon order), and the closure ends when
    none is pending.  A cord becomes derivable only when the last of its
    quartet's five cords becomes known, and that cord is examined after it,
    so nothing derivable is left.  Cords within a block whose ends have no
    known partner outside it complete no quartet with a missing cord, and
    are never pending.
    """
    placer = _Placer(tree)
    parent, depth, below, full, leaf = placer.parent, placer.depth, placer.below, placer.full, placer.leaf
    n = len(given)
    order = list(range(n))
    if rng is not None:
        rng.shuffle(order)
    blocks, derivations = [], []

    def grow(start, known):
        placed, block = _grow(given, start, placer.place)
        blocks.append((start, placed, {z: known[z] for z, _, _, _ in placed}))
        return block

    known, home, quiet = per_cord_block_loop(given, order, grow)
    if quiet == full:  # nothing is pending
        return known, blocks, derivations
    rank = [0] * n  # position in the taxon order
    for k, p in enumerate(order):
        rank[p] = k
    pending, due = [0] * n, 0  # due: bit rank[p] set while pending[p] is not empty

    def note(u, v):
        nonlocal due
        if rank[u] > rank[v]:
            u, v = v, u
        pending[u] |= 1 << v
        due |= 1 << rank[u]

    def derive(u, v, x, y):  # x pairs with u, y with v
        known[u] |= 1 << v
        known[v] |= 1 << u
        note(u, v)
        derivations.append((u, v, x, y) if u < v else (v, u, y, x))

    for p in order:
        for q in _bit_indices(known[p] & ~(quiet if quiet >> p & 1 else 0)):
            if rank[p] < rank[q]:
                note(p, q)

    while due:
        k = _lowest(due)
        p = order[k]
        batch, pending[p] = pending[p], 0
        due ^= 1 << k
        for q in _bit_indices(batch):
            kp, kq = known[p], known[q]
            w = kp & kq
            if not w:
                continue
            outside = full ^ next((blk for blk in home[p] if blk >> q & 1), 0)
            tp, tq, wz = kq & ~kp & ~(1 << p), kp & ~kq & ~(1 << q), w & outside
            if not (tp or tq or wz):
                continue
            # The off-path branches of the p-q path, from p's end: climb from
            # both leaves to their lowest common ancestor, which has the
            # rest of the tree as its branch.
            ca, a, cb, b = leaf[p], parent[leaf[p]], leaf[q], parent[leaf[q]]
            branches, from_q = [], []
            while a != b:
                if depth[a] >= depth[b]:
                    branches.append(below[a] ^ below[ca])
                    ca, a = a, parent[a]
                else:
                    from_q.append(below[b] ^ below[cb])
                    cb, b = b, parent[b]
            branches.append(full ^ below[ca] ^ below[cb])
            branches.extend(reversed(from_q))
            # Each u in W, in branch g: an end of the first kind, and as the
            # pivot s of the other two, the taxa t its branch allows.  Only a
            # partner of some t can be that pivot.
            ends, pivots = tp | tq, full
            if ends.bit_count() < w.bit_count():
                pivots = 0
                for t in _bit_indices(ends):
                    pivots |= known[t]
            before, reach_p, reach_q = 0, 0, 0  # before: the branches nearer p
            for g in branches:
                for u in _bit_indices(w & g & (pivots | outside)):
                    ku = known[u]
                    reach_p |= ku & ~before
                    reach_q |= ku & (before | g)
                    if outside >> u & 1:
                        for v in _bit_indices(w & ~g & ~ku):
                            x, y = (q, p) if before >> v & 1 else (p, q)  # v nearer p: v p || u q
                            derive(u, v, x, y)
                before |= g
            tp &= reach_p
            tq &= reach_q
            if not tp | tq:
                continue
            before = 0
            for g in branches:
                for t in _bit_indices(tp & g):
                    if not known[p] >> t & 1:
                        s = _lowest(w & known[t] & (before | g))
                        x, y = (s, q) if before >> s & 1 else (q, s)  # s nearer p: p s || t q
                        derive(p, t, x, y)
                for t in _bit_indices(tq & g):
                    if not known[q] >> t & 1:
                        s = _lowest(w & known[t] & ~before)
                        x, y = (p, s) if g >> s & 1 else (s, p)  # s in t's branch: q p || t s
                        derive(q, t, x, y)
                before |= g
    return known, blocks, derivations


#: Largest element count of one intermediate array of full_check_extend and
#: of the seeds' cross-checks of heap_extend and batched_seed_extend.
_CHECK_ELEMENTS = 2**20

#: Row g: positions in a sorted 4-taxon set of the ends of its g-th cord,
#: then of the other two taxa.
_ROLES = np.array([[0, 1, 2, 3], [0, 2, 1, 3], [0, 3, 1, 2], [1, 2, 0, 3], [1, 3, 0, 2], [2, 3, 0, 1]])


@np.errstate(over="ignore", invalid="ignore")  # an inf or nan sum is never strict
def heap_extend(taxa: Sequence[str], d: PartialDistance, eps: float,
                blocks: Sequence[tuple[int, list, list]] = (), values: Sequence | None = None,
                cross_check: bool = True):
    """lasso._extend as it was before it examined each known cord once: the
    extension rule's fixpoint over *taxa* from the distance map *d* (over
    some of them), on its floats, or on *values*, its values in cord order
    as Fractions, with eps=0.  Returns the derivations as rows (x, y, u, z, value) over taxon
    indices, quartet xy||uz giving cord xz (the form of the blocks' rows
    below; _named puts labels on them), and the final n x n known-mask over
    *taxa*.  With *cross_check* each derived value is compared with every set
    able to derive its cord at that moment, and a clash raises
    InconsistentDistanceError.

    A 4-taxon set is ready once exactly one of its cords is missing; its five
    values never change after that, so its four-point test runs once, when
    it becomes ready.  Strict ready sets wait in a heap keyed by their sorted
    index 4-tuple; one made ready behind the set that fired waits for the
    next pass, as in a lexicographic rescan, pass after pass.

    *blocks* are the route's metric blocks in the order they grew, each
    (members, anchors, rows): the bitset of its taxa; (z, a, b, joined) for
    each taxon z it placed after its start cord, in placement order, with
    z's anchors a, b and its known partners before the block grew; and its
    derivations, rows (z, x, y, s, v) in order, cord zs of value v by the
    quartet zx||ys, the rows of one z together.  Each row passed four_point
    at eps on the values known at its turn.  The rows seed the engine: they
    become known and head the derivations.  The derivable set only grows,
    so the fixpoint from the cords plus the seeds is the one from the cords.
    With *cross_check* the seeds are checked in two parts, which in exact
    arithmetic raise where the cross-check of each row against every set
    raises (reconstruct's module docstring):
    - each cord zs inside a block, known before it grew, z the later placed
      and s no anchor of z, is compared with the value that z's placing
      quartet {z, a, b, s} derives, all blocks in one vectorised pass;
    - each row is cross-checked, as a derivation is, against every set {z,
      s, q1, q2} with q1, q2 known to both and q1q2 known (for row k, q
      ranges over z's partners before the block and the s of earlier rows),
      one z's rows in one vectorised pass in chunks of at most
      _CHECK_ELEMENTS elements.  In a block whose known cords all agree,
      only sets with q1 or q2 outside the block are checked, so a z with no
      known partner outside has nothing to check.  In a block with a cord
      that disagrees every set is, and a clash names that cord.

    Every known cord arrives first, and offers the sets it is one cord
    short of.  The signature is lasso._extend's, plus *cross_check*.
    """
    n = len(taxa)
    index = {t: i for i, t in enumerate(taxa)}
    at = np.array([index[t] for t in d._taxa], dtype=np.intp)  # d's arrays are over its own sorted taxa
    i, j = at[d._i], at[d._j]
    given = d._v if values is None else np.array(values, dtype=object)
    value, known = np.zeros((n, n), dtype=given.dtype), np.zeros((n, n), dtype=bool)
    value[i, j] = value[j, i] = given
    known[i, j] = known[j, i] = True
    first, second = np.triu_indices(n, 1)
    # Heaps for this pass (keyed ahead of the cursor) and the next, each with
    # the earliest key it holds per cord: a set keyed after that one would
    # find its cord already derived, so it is not queued at all.
    now, later = ([], {}), ([], {})

    def quartet(ma, mb, p1, p2):
        """Strict mask, ma-with-p1 flag and value for cords ma-mb."""
        s1 = value[ma, p1] + value[mb, p2]
        s2 = value[ma, p2] + value[mb, p1]
        strict, lt = four_point(s1, s2, eps)
        return strict, lt, np.where(lt, s2, s1) - value[p1, p2]

    def contradicted():
        """For each block, the message of its first cord zs known before it
        grew, z the later placed and s no anchor of z, whose value z's
        placing quartet {z, a, b, s} contradicts, or None."""
        quads, owner = [], []
        for k, (members, anchors, _) in enumerate(blocks):
            placed = members
            for z, _, _, _ in anchors:
                placed ^= 1 << z  # the ends of the start cord
            for z, a, b, joined in anchors:
                for s in _bit_indices(joined & placed & ~(1 << a | 1 << b)):
                    quads.append((z, s, a, b))
                    owner.append(k)
                placed |= 1 << z
        first = [None] * len(blocks)
        if quads:
            z, s, a, b = np.array(quads, dtype=np.intp).T
            had, derived = value[z, s], quartet(z, s, a, b)[2]
            for q in reversed(np.flatnonzero(~tolerance.approx_equal(had, derived, eps)).tolist()):
                first[owner[q]] = (
                    f"{Cord(taxa[z[q]], taxa[s[q]])} derivable as both {_shown(had[q])} and {_shown(derived[q])}"
                )
        return first

    def cross_check_seeds(z, s, v, inside):
        """The message for the first k whose new cord zs[k], of value v[k],
        derived after the cords z s[:k], fails the cross-check on a set with
        a taxon off *inside* (a mask), naming the value that set gives; or
        None."""
        when = np.where(known[z], -1, len(s))  # the k from which q is z's partner
        when[s] = np.arange(len(s))
        cols = np.flatnonzero(when < len(s))
        out = np.flatnonzero(~inside[cols])  # positions in cols of the partners off it
        # q1 off it, q2 any other partner; a set with both off it once
        pairs = known[np.ix_(cols[out], cols)] & (inside[cols] | (out[:, None] < np.arange(cols.size)))
        step = max(1, _CHECK_ELEMENTS // max(1, out.size * cols.size))
        for lo in range(0, len(s), step):
            ks = np.arange(lo, min(lo + step, len(s)))
            mask = (when[cols] < ks[:, None]) & known[np.ix_(s[ks], cols)]
            r, q1, q2 = np.nonzero(mask[:, out, None] & mask[:, None, :] & pairs)
            q1, q2 = cols[out[q1]], cols[q2]
            strict, _, other = quartet(z, s[ks[r]], q1, q2)
            bad = np.flatnonzero(strict & ~tolerance.approx_equal(v[ks[r]], other, eps))
            if bad.size:  # the first set in the order (k, lower q, higher q)
                bad = bad[np.lexsort((np.maximum(q1, q2)[bad], np.minimum(q1, q2)[bad], r[bad]))[0]]
                k = ks[r[bad]]
                return f"{Cord(taxa[z], taxa[s[k]])} derivable as both {_shown(v[k])} and {_shown(other[bad])}"
        return None

    def cross_check_blocks(zs, ss, vs):
        """Raise InconsistentDistanceError at the first seed row (z, s, v
        in *zs*, *ss*, *vs*) whose cross-check fails."""
        done = at = 0  # the rows before *done* are known; z's rows start at *at*
        for (members, anchors, rows), clash in zip(blocks, contradicted()):
            # A block that agrees with its known cords is checked only on
            # sets with a taxon off it; one that does not, on every set.
            off, inside = (-1, np.zeros(n, dtype=bool)) if clash else (~members, None)
            partners = {z: joined & off for z, _, _, joined in anchors}
            for z, batch in itertools.groupby(rows, key=itemgetter(0)):
                size = sum(1 for _ in batch)
                if partners[z]:
                    if inside is None:
                        inside = np.zeros(n, dtype=bool)
                        inside[list(_bit_indices(members))] = True
                    known[zs[done:at], ss[done:at]] = known[ss[done:at], zs[done:at]] = True
                    done = at
                    if message := cross_check_seeds(z, ss[at:at + size], vs[at:at + size], inside):
                        raise InconsistentDistanceError(clash or message)
                at += size

    derivations = [row for _, _, rows in blocks for row in rows]
    if derivations:
        zs, ss = np.array([(row[0], row[3]) for row in derivations], dtype=np.intp).T
        vs = np.array([row[4] for row in derivations])
        value[zs, ss] = value[ss, zs] = vs
        if cross_check:
            cross_check_blocks(zs, ss, vs)
        known[zs, ss] = known[ss, zs] = True

    def offer(quads, cursor):
        """Test ready 4-taxon sets (rows) and queue the strict ones."""
        quads = np.sort(quads, axis=1)
        gap = np.argmin(known[quads[:, _ROLES[:, 0]], quads[:, _ROLES[:, 1]]], axis=1)
        ma, mb, p1, p2 = np.take_along_axis(quads, _ROLES[gap], axis=1).T
        strict, lt, derived = quartet(ma, mb, p1, p2)
        keys = ((quads[:, 0] * n + quads[:, 1]) * n + quads[:, 2]) * n + quads[:, 3]
        pa, pb = np.where(lt, p1, p2)[strict], np.where(lt, p2, p1)[strict]
        for entry in zip(keys[strict].tolist(), ma[strict].tolist(), pa.tolist(), pb.tolist(),
                         mb[strict].tolist(), derived[strict].tolist()):
            heap, earliest = now if entry[0] > cursor else later
            if entry[0] < earliest.get((entry[1], entry[4]), entry[0] + 1):
                earliest[entry[1], entry[4]] = entry[0]
                heapq.heappush(heap, entry)

    def arrived(a, b, cursor):
        """Offer the sets {a, b, x, y} that the new cord ab left one cord short."""
        gaps = (~known[a]).astype(np.int8) + ~known[b]
        gaps[[a, b]] = 3
        sel = np.flatnonzero(gaps[first] + gaps[second] + ~known[first, second] == 1)
        if sel.size:
            offer(np.stack(np.broadcast_arrays(a, b, first[sel], second[sel]), axis=1), cursor)

    for a, b in np.argwhere(np.triu(known, 1)).tolist():  # every ready set holds one
        arrived(a, b, -1)
    while now[0] or later[0]:
        if not now[0]:
            now, later = later, ([], {})
        key, x, y, u, z, v = heapq.heappop(now[0])
        if known[x, z]:
            continue
        if cross_check:  # against every set {x, z, q1, q2} deriving xz right now
            q = np.flatnonzero(known[x] & known[z])
            q1, q2 = (q[k] for k in np.nonzero(np.triu(known[np.ix_(q, q)], 1)))
            strict, _, other = quartet(x, z, q1, q2)
            clash = np.flatnonzero(strict & ~tolerance.approx_equal(v, other, eps))
            if clash.size:
                raise InconsistentDistanceError(
                    f"{Cord(taxa[x], taxa[z])} derivable as both {_shown(v)} and {_shown(other[clash[0]])}"
                )
        value[x, z] = value[z, x] = v
        known[x, z] = known[z, x] = True
        derivations.append((x, y, u, z, v))
        arrived(x, z, key)
    return derivations, known


def full_check_extend(taxa, cords, eps, blocks=(), values=None):
    """lasso._extend as reconstruct's closure path ran it before each block
    was checked against its own block tree: each seed row (z, x, y, s, v),
    in order, cross-checked against every set {z, s, q1, q2} with q1, q2
    known to both and q1q2 known, one z's rows in one vectorised pass (for
    row k, q ranges over z's partners before the rows and the s of earlier
    rows); then lasso._extend from the cords plus the seeds, whose
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
            cross_check_seeds(z, s, v)
            known[z, s] = known[s, z] = True
    merged = dict(cords)
    merged.update((Cord(taxa[z], taxa[s]), v) for z, _, _, s, v in seeds)
    ends = np.array([(index[c.a], index[c.b]) for c in merged], dtype=np.intp).reshape(-1, 2)
    merged = PartialDistance._of(taxa, ends.min(axis=1), ends.max(axis=1), np.array(list(merged.values())))
    derivations, known = _extend(taxa, merged, eps)
    return seeds + derivations, known


@np.errstate(over="ignore", invalid="ignore")  # an inf or nan sum is never strict
def batched_seed_extend(taxa: Sequence[str], d: PartialDistance, eps: float,
                        blocks: Sequence[tuple[int, list, list]] = (), values: Sequence | None = None):
    """lasso._extend as it was before it checked each block row with the
    engine's own ready-set test: the extension rule's fixpoint over *taxa*
    from the distance map *d* (over some of them), on its floats, or on
    *values*, its values in cord order as Fractions, with eps=0.  Returns
    the derivations as rows (x, y, u, z, value) over taxon indices, quartet
    xy||uz giving cord xz (the form of the blocks' rows below; _named puts
    labels on them), and the final n x n known-mask over *taxa*.  Each
    derived value is compared with every set able to derive its cord at
    that moment, and a clash raises InconsistentDistanceError.

    The missing cords are tested by _missing_loop, in index order.  The
    test of xz runs four_point once over every set {x, z, p, q} with p, q
    in K(x) & K(z) and pq known, on the values known then, pairs (p, q) in
    lexicographic order: the first strict set derives xz, and comparing
    the values of all strict sets in that same call is the cross-check.

    *blocks* are the route's metric blocks in the order they grew, each
    (members, anchors, rows): the bitset of its taxa; (z, a, b, joined) for
    each taxon z it placed after its start cord, in placement order, with
    z's anchors a, b and its known partners before the block grew; and its
    derivations, rows (z, x, y, s, v) in order, cord zs of value v by the
    quartet zx||ys, the rows of one z together.  Each row passed four_point
    at eps on the values known at its turn.  The rows seed the engine: they
    become known and head the derivations.  The derivable set only grows,
    so the fixpoint from the cords plus the seeds is the one from the cords.
    The seeds are checked in two parts, which in exact arithmetic raise
    where the cross-check of each row against every set raises
    (reconstruct's module docstring):
    - each cord zs inside a block, known before it grew, z the later placed
      and s no anchor of z, is compared with the value that z's placing
      quartet {z, a, b, s} derives, all blocks in one vectorised pass;
    - each row is cross-checked, as a derivation is, against every set {z,
      s, q1, q2} with q1, q2 known to both and q1q2 known (for row k, q
      ranges over z's partners before the block and the s of earlier rows),
      one z's rows in one vectorised pass in chunks of at most
      _CHECK_ELEMENTS elements.  In a block whose known cords all agree,
      only sets with q1 or q2 outside the block are checked, so a z with no
      known partner outside has nothing to check.  In a block with a cord
      that disagrees every set is, and a clash names that cord.
    """
    n = len(taxa)
    index = {t: i for i, t in enumerate(taxa)}
    at = np.array([index[t] for t in d._taxa], dtype=np.intp)  # d's arrays are over its own sorted taxa
    i, j = at[d._i], at[d._j]
    given = d._v if values is None else np.array(values, dtype=object)
    value, known = np.zeros((n, n), dtype=given.dtype), np.zeros((n, n), dtype=bool)
    value[i, j] = value[j, i] = given
    known[i, j] = known[j, i] = True

    def quartet(ma, mb, p1, p2):
        """Strict mask, ma-with-p1 flag and value for cords ma-mb."""
        s1 = value[ma, p1] + value[mb, p2]
        s2 = value[ma, p2] + value[mb, p1]
        strict, lt = four_point(s1, s2, eps)
        return strict, lt, np.where(lt, s2, s1) - value[p1, p2]

    def contradicted():
        """For each block, the message of its first cord zs known before it
        grew, z the later placed and s no anchor of z, whose value z's
        placing quartet {z, a, b, s} contradicts, or None."""
        quads, owner = [], []
        for k, (members, anchors, _) in enumerate(blocks):
            placed = members
            for z, _, _, _ in anchors:
                placed ^= 1 << z  # the ends of the start cord
            for z, a, b, joined in anchors:
                for s in _bit_indices(joined & placed & ~(1 << a | 1 << b)):
                    quads.append((z, s, a, b))
                    owner.append(k)
                placed |= 1 << z
        first = [None] * len(blocks)
        if quads:
            z, s, a, b = np.array(quads, dtype=np.intp).T
            had, derived = value[z, s], quartet(z, s, a, b)[2]
            for q in reversed(np.flatnonzero(~tolerance.approx_equal(had, derived, eps)).tolist()):
                first[owner[q]] = (
                    f"{Cord(taxa[z[q]], taxa[s[q]])} derivable as both {_shown(had[q])} and {_shown(derived[q])}"
                )
        return first

    def cross_check_seeds(z, s, v, inside):
        """The message for the first k whose new cord zs[k], of value v[k],
        derived after the cords z s[:k], fails the cross-check on a set with
        a taxon off *inside* (a mask), naming the value that set gives; or
        None."""
        when = np.where(known[z], -1, len(s))  # the k from which q is z's partner
        when[s] = np.arange(len(s))
        cols = np.flatnonzero(when < len(s))
        out = np.flatnonzero(~inside[cols])  # positions in cols of the partners off it
        # q1 off it, q2 any other partner; a set with both off it once
        pairs = known[np.ix_(cols[out], cols)] & (inside[cols] | (out[:, None] < np.arange(cols.size)))
        step = max(1, _CHECK_ELEMENTS // max(1, out.size * cols.size))
        for lo in range(0, len(s), step):
            ks = np.arange(lo, min(lo + step, len(s)))
            mask = (when[cols] < ks[:, None]) & known[np.ix_(s[ks], cols)]
            r, q1, q2 = np.nonzero(mask[:, out, None] & mask[:, None, :] & pairs)
            q1, q2 = cols[out[q1]], cols[q2]
            strict, _, other = quartet(z, s[ks[r]], q1, q2)
            bad = np.flatnonzero(strict & ~tolerance.approx_equal(v[ks[r]], other, eps))
            if bad.size:  # the first set in the order (k, lower q, higher q)
                bad = bad[np.lexsort((np.maximum(q1, q2)[bad], np.minimum(q1, q2)[bad], r[bad]))[0]]
                k = ks[r[bad]]
                return f"{Cord(taxa[z], taxa[s[k]])} derivable as both {_shown(v[k])} and {_shown(other[bad])}"
        return None

    def cross_check_blocks(zs, ss, vs):
        """Raise InconsistentDistanceError at the first seed row (z, s, v
        in *zs*, *ss*, *vs*) whose cross-check fails."""
        done = at = 0  # the rows before *done* are known; z's rows start at *at*
        for (members, anchors, rows), clash in zip(blocks, contradicted()):
            # A block that agrees with its known cords is checked only on
            # sets with a taxon off it; one that does not, on every set.
            off, inside = (-1, np.zeros(n, dtype=bool)) if clash else (~members, None)
            partners = {z: joined & off for z, _, _, joined in anchors}
            for z, batch in itertools.groupby(rows, key=itemgetter(0)):
                size = sum(1 for _ in batch)
                if partners[z]:
                    if inside is None:
                        inside = np.zeros(n, dtype=bool)
                        inside[list(_bit_indices(members))] = True
                    known[zs[done:at], ss[done:at]] = known[ss[done:at], zs[done:at]] = True
                    done = at
                    if message := cross_check_seeds(z, ss[at:at + size], vs[at:at + size], inside):
                        raise InconsistentDistanceError(clash or message)
                at += size

    derivations = [row for _, _, rows in blocks for row in rows]
    if derivations:
        zs, ss = np.array([(row[0], row[3]) for row in derivations], dtype=np.intp).T
        vs = np.array([row[4] for row in derivations])
        value[zs, ss] = value[ss, zs] = vs
        cross_check_blocks(zs, ss, vs)
        known[zs, ss] = known[ss, zs] = True

    def test(x, z):
        q = np.flatnonzero(known[x] & known[z])
        q1, q2 = (q[k] for k in np.nonzero(np.triu(known[np.ix_(q, q)], 1)))
        strict, lt, derived = quartet(x, z, q1, q2)
        hits = np.flatnonzero(strict)
        if not hits.size:
            return False
        found = derived[hits]
        clash = np.flatnonzero(~tolerance.approx_equal(found[0], found, eps))
        if clash.size:
            raise InconsistentDistanceError(
                f"{Cord(taxa[x], taxa[z])} derivable as both {_shown(found[0])} and {_shown(found[clash[0]])}"
            )
        k = hits[0]
        y, u = (q1[k], q2[k]) if lt[k] else (q2[k], q1[k])
        v = found[:1].tolist()[0]
        value[x, z] = value[z, x] = v
        known[x, z] = known[z, x] = True
        derivations.append((x, int(y), int(u), z, v))
        return True

    _missing_loop(_row_bits(known), range(n), test)
    return derivations, known


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
    within twice the LP's tolerance on every cord is the witness.  The
    distances are divided by the power of two that brings them below 2**64,
    as in the library (HiGHS reads any bound from 1e20 up as infinite), and
    the witness's weights and the contraction tolerance are scaled back."""
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
    scale = 2.0 ** max(0, math.frexp(float(np.max(b)))[1] - 64)
    b = b / scale
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
        return _contract_tiny_interior(candidate, weights * scale, 10 * fit_tol * scale)
    return None


def path_incidence_matrix(tree: XTree, cords) -> list[list[int]]:
    """0/1 matrix: one row per cord (sorted), one column per edge (sorted),
    1 where the edge lies on the cord's leaf path."""
    edge_index = {(u, v): i for i, (u, v, _) in enumerate(tree.edges())}
    rows = []
    for c in sorted(_cords_over(cords, tree)):
        row = [0] * len(edge_index)
        for e in tree.path_edges(c.a, c.b):
            row[edge_index[e]] = 1
        rows.append(row)
    return rows


def _contract_tiny_interior(candidate: XTree, weights, tol: float) -> XTree:
    """Rebuild the fitted tree, contracting interior edges of ~zero weight."""
    edges = candidate.edges()
    parent: dict[int, int] = {}

    def find(v: int) -> int:
        while v in parent:
            v = parent[v]
        return v

    for (u, v, _), w in zip(edges, weights):
        interior = not candidate.is_leaf(u) and not candidate.is_leaf(v)
        if interior and w <= tol:
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[max(ru, rv)] = min(ru, rv)

    merged = []
    for (u, v, _), w in zip(edges, weights):
        ru, rv = find(u), find(v)
        if ru != rv:
            merged.append((ru, rv, float(w)))
    labels = {find(candidate.leaf_vertex(t)): t for t in candidate.taxa}
    return XTree(merged, labels)


def engine_forbidden_pairings(n, pairs, values, accept):
    """The oracle's forbidden pairings, as treelasso.lasso._forbidden_pairings
    gives them, with the bounds of derived cords taken from the heap engine
    (heap_extend, eps=0, no cross-check): a cord is bounded only when the quartet
    the engine derived it by is sure for the bounds of its other five cords
    at that point of the engine's order."""
    taxa = [f"t{i:02d}" for i in range(n)]
    cords = [Cord(taxa[p], taxa[q]) for p, q in pairs]
    bound = {c: (v, accept + _ROUNDING * (v + accept)) for c, v in zip(cords, values)}
    rows, _ = heap_extend(taxa, PartialDistance(dict(zip(cords, values))), 0.0, cross_check=False)
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


def pass_forbidden_pairings(n: int, pairs: Sequence[tuple[int, int]], values: Sequence[float], accept: float):
    """lasso._forbidden_pairings as it was before its bound closure ran on
    lasso._missing_loop, with whole passes over every 4-taxon set until one
    bounds nothing new.

    Pairings of 4-taxon sets over taxon indices 0..n-1 that no tree within
    *accept* of *values* on every cord in *pairs* (p < q) can display, keyed
    by the largest taxon index of the set, as in _topologies.

    Every accepted fit d' is a tree metric within a bound (value, error) on
    each cord: the given value and *accept* on the given cords, plus
    rounding; d'(P) is its sum over the two cords of a pairing P.  A cord xz
    of a 4-taxon set {x, y, u, z} whose other five cords are bounded gets a
    bound when one of the pairings xy|uz and xu|yz, say P, has a sum surely
    below the other's, Q: below for every metric within the bounds.  Then
    d'(P) < d'(Q), so under the four-point condition d' displays P and the
    pairing xz|yu has the sum d'(Q): d'(xz) = d'(Q) - d'(yu) lies within
    the three errors used (plus rounding) of Q's summed values less yu's.
    Each bound holds on its own, whatever the order of derivation, which
    changes only how tight the bounds are.  Passes over the 4-taxon sets
    run until one bounds nothing new.

    When d'(P) < d'(Q) is sure for two pairings P and Q of a 4-taxon set,
    both with bounded cords, every pairing but P is forbidden: a tree with
    non-negative weights that displays pairing R has d'(R) no larger than
    the other two sums, which are equal.
    """
    bound = {pair: (v, accept + _ROUNDING * (v + accept)) for pair, v in zip(pairs, values)}
    quads = [(quad, [(quad[i], quad[j]) for i, j in _QUARTET_CORDS]) for quad in itertools.combinations(range(n), 4)]
    grew = True
    while grew:
        grew = False
        for _, cords in quads:
            known = [bound.get(c) for c in cords]
            if known.count(None) != 1:
                continue
            k = known.index(None)
            yu = known[5 - k]
            p, q = [(known[j], known[5 - j]) for j in range(3) if j != min(k, 5 - k)]
            for low, high in ((p, q), (q, p)):
                if _surely_below(low, high):
                    used = (*high, yu)
                    value = high[0][0] + high[1][0] - yu[0]
                    bound[cords[k]] = (value, sum(e for _, e in used) + _ROUNDING * sum(abs(w) + e for w, e in used))
                    grew = True
                    break
    forbidden: dict[int, list[tuple[int, int]]] = {}
    for quad, cords in quads:
        known = [bound.get(c) for c in cords]
        sums = [(known[j], known[5 - j]) if known[j] and known[5 - j] else None for j in range(3)]
        banned = set()
        for low, high in itertools.permutations(range(3), 2):
            if sums[low] and sums[high] and _surely_below(sums[low], sums[high]):
                banned.update({0, 1, 2} - {low})
        for j in sorted(banned):
            (a, b), (c, d) = cords[j], cords[5 - j]
            forbidden.setdefault(quad[3], []).append(((1 << a) | (1 << b), (1 << c) | (1 << d)))
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
