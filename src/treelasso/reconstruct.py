"""End-to-end reconstruction: rebuild the tree and its edge weights from
partial distances, and verify the result against every input distance.

One route (_close), float or exact, for reconstruct and closure alike.

Placement.  An incomplete input grows metric blocks, and the first of
them may span X.  A block is grown from a known cord by the greedy loop
that places blocks for shellability (lasso._grow), with a distance test in
place of the index test: the classical additive-tree insertion (Waterman,
Smith, Singh & Beyer, "Additive evolutionary trees", 1977) along a 2d-
subgraph of the cords, the paper's polynomial-time reconstruction.  The
growing tree is kept as parent pointers, as in tree_from_2dtree, starting
from the edge of the start cord; the first block starts from the smallest
cord in a triangle of L.  A taxon z with placed neighbours a and b gets a
pendant edge of length p = (d(z,a)+d(z,b)-D)/2, D the length of the a-b
path of the tree built so far, attached at the point that lies d(z,a)-p
from a on that path.  z places only when each quartet {z, a, b, s}, s a
placed taxon other than a and b, is strict under the engine's own test
(lasso.four_point, inlined on scalars) at eps, d(z,a)+d(s,b) against
d(z,b)+d(s,a), on the values given or derived before.  Float guards
(p >= 0, the point strictly inside the edge it splits) keep the tree well
formed.  It only adds, halves and compares, so exact_rational=True places
on Fractions, eps=0.

Soundness.  Let the values be the metric of a tree T, every edge of
positive weight, and by induction let the tree built on the placed taxa S
be T restricted to S with its weights.  Let m be the median of a, b and z
in T: m lies on the a-b path, d(z,a)-p from a, and p = d(z,m).  If s
leaves the a-b path at u, the two sums of {z, a, b, s} differ by exactly
twice d(m,u), the smaller pairing z with a when u lies on b's side of m.
The path's vertices in T restricted to S are these u and the leaves a and
b, and m is interior, so all quartets are strict exactly when m is no
vertex of T restricted to S, when the component of T-m holding z has no
taxon of S: the index test of lasso's placement on T.  m then lies inside
an edge, and hanging z there at distance p gives T restricted to S+{z}.
Under floats z declines, rather than guess, on a quartet that ties within
the margin.  Each quartet derives cord zs, if not known, as the engine
would: pivots a, b by the smaller sum, value the larger less d(a,b),
written where later quartets and blocks read it.  When the first block
places every taxon, the tree is T, the cords are a shellable lasso of it,
and the trace holds the shelling the placement certifies (lasso's module
docstring), these derivations in placement order; no closure or NJ runs.

Closure.  A complete input needs no closure: reconstruct builds its tree
by insertion (Complete maps, below), with the empty trace that closure
returns for it.  When the first block of an incomplete input spans
X, reconstruct answers with its tree.  Otherwise, and always for closure,
the route keeps growing blocks by the loop that grows lasso._hop_closure's
on T (lasso._block_loop): each taxon in turn that no block holds yet
starts one from a known cord in a triangle of the known cords, over the
given cords, and the pairs within a block become known.  The first block
stops short when there are fewer than 2n-3 cords, which cannot fix the
2n-3 edge weights, or a taxon does not place.  The blocks' derivations,
each one the engine's test passed on the engine's values, seed the closure
engine (lasso._extend), which tests the cords still missing.  The
derivable set only grows, so the fixpoint from the cords plus the block
cords is the fixpoint from the cords: the same missing cords, and the
engine finishes it.  Float values may differ in their last bits from a run
of the engine alone.  A complete closure is built by insertion too.  The
engine checks the seeds block by block, in two parts stated in
lasso._extend's docstring: the block's cords known before it grew against
the placing quartets, then each block cord, in turn, against the quartets
deriving it that hold a taxon outside the block, or every quartet when a
known cord of the block disagrees; a clash raises
InconsistentDistanceError.  On a first block that spans X, closure builds
no tree to check, and these checks stand in for it.  The engine then tests
each missing cord with two or more known partners in common, and again
when a cord of its sets becomes known (lasso._missing_loop).  The trace
lists the block cords in placement order, then the engine's derivations,
in the order its tests derive them.

Soundness of the skip.  Take exact arithmetic, eps = 0, and a block B
whose known cords all agree.  By induction on placement order, every value
between placed taxa of B is their distance in the block's tree T_B: the
start cord is T_B's first edge; z's pendant edge and attachment point fit
d(z,a) and d(z,b) exactly; a derived value is the four-point formula on a
strict quartet of T_B distances, which gives the T_B distance; and a known
value agrees with that same formula.  T_B is a tree metric, so every
strict quartet inside B derives the T_B distance of its cord, the value
the block wrote: a cross-check on a set inside B cannot fire, and is
skipped.  Under floats and eps > 0 the skipped checks could fire only
where rounding and the differences within eps that agreement allows,
compounded over several placements, reach eps: values off a tree metric by
just under eps may pass here where the full cross-check raised.  A block
whose known cord disagrees is no tree metric, and gets the full
cross-check; the disagreement alone raises nothing, so a clash that no
quartet sees is still left to the check of the output tree, or to an
incomplete closure, as under the full cross-check.  On a cover less one
cord, one block holds every taxon but x, left with a single cord: only x's
partner has a partner outside the block, and no other taxon knows x, so no
quartet is cross-checked and the seeds cost O(n^2), not O(n^4).

Complete maps.  Every value known, the classical additive-tree insertion
needs no cords to hang a taxon from (Waterman et al. 1977, with Buneman's
four-point condition, 1974).  Root the tree at taxon r = 0 and insert the
others in index order.  For z, let s* maximise the Gromov product g(s) =
(d(z,r) + d(s,r) - d(z,s))/2 over the taxa s placed before z; hang z on
the r-s* path at g(s*) from r, with a pendant edge of d(z,r) - g(s*).
Soundness: on the metric of a fully-resolved tree T with positive weights,
let the tree built on the taxa S placed so far, r among them, be the
subtree of T that S spans, with its weights, and let m be its point
nearest z.  For each s in S, g(s) is the distance from r to where z's path
to r leaves the r-s path, so g(s) <= d(r,m), with equality exactly when m
lies on the r-s path, as it does for some s; m is then g(s*) from r on the
r-s* path, and d(z,m) = d(z,r) - g(s*).  T is fully resolved and z is a
leaf, so m is no vertex of the subtree and the pendant is positive:
hanging z there gives the subtree that S + {z} spans.  The argmax of every
row is one numpy pass over the lower triangle of the matrix of g, and the
edge to split is found by climbing from s*'s leaf on root-path sums.
Under floats insertion declines (_insert returns None), rather than guess,
when g(s*) lies within tol of a vertex's root-path sum, when the pendant
is at most tol, tol being eps relative to the largest value as in NJ, or
when a value is not finite: ties, zero-length edges, stars and sums past
the float range.  A declined input goes to Neighbor-Joining, as does one
whose inserted tree fails the check below, so such inputs print NJ's tree
or NJ's error; a verdict can only move from an error to a tree, where the
inserted tree fits within verify_eps and NJ's does not.

Either way the pipeline finishes by checking the output tree against every
*input* distance, so corrupt or non-additive data cannot slip through
unnoticed.  Each tree distance is the exact path sum rounded once, read off
the tree's one bulk evaluator (XTree._pair_distances): the verdict carries
no rounding error of the check's own.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .cords import Cord, PartialDistance
from .lasso import (
    ClosureTrace,
    _block_loop,
    _closure_trace,
    _extend,
    _grow,
    _parent_tree,
    _path_edges,
)
from .tolerance import DEFAULT_EPSILON
from .tree import XTree

#: Absolute tolerance of the final check of the tree against the input (see tolerance).
VERIFY_EPSILON = 1e-6


class NonAdditiveError(ValueError):
    """The distances are not the restriction of any tree metric."""


def neighbor_joining(d: PartialDistance, eps: float = DEFAULT_EPSILON) -> XTree:
    """Classical agglomerative NJ on a complete distance map: reconstruct's
    fallback, where insertion declines or its tree fails the check (the
    module docstring's Complete maps paragraph).

    Joins the pair minimising the Q-criterion, assigns branch lengths by the
    two-point formulas, reduces the matrix, and solves the 3-taxon core in
    closed form.  Exact on additive input.  Branch-length estimates below
    -eps (relative) raise NonAdditiveError; estimates in [-eps, 0) clamp
    to 0.  The matrix, filled from the map's index arrays, is reduced in place:
    a join keeps the new vertex in the lower row of the pair, and the rows
    and columns past the higher shift down by one, as if deleted.  Rows stay
    in sorted taxon order, so Q-ties break towards the first pair in it.

    Overflow.  On a tree metric with largest value M, reduced entries are
    tree distances, so row sums stay below nM and Q entries below 2nM.  NJ
    runs on the values as given, overflow raising: where nothing overflows
    the output is exactly what it was without the check.  Only then does it
    run again on the values times 2^-k, the least power of two that puts 4nM
    below the largest float.  Powers of two scale every sum, difference,
    half and quotient exactly (subnormals aside), and the lengths are scaled
    back.  An overflow in that run proves the input is no tree metric.
    """
    taxa = d._taxa
    n = len(taxa)
    if n < 2:
        raise ValueError("neighbor joining needs at least 2 taxa")
    missing = n * (n - 1) // 2 - len(d)
    if missing:
        raise ValueError(f"distance map is not total: {missing} cord(s) missing")

    rows, cols, values = d._i, d._j, d._v
    largest = float(values.max())
    shift = math.frexp(4 * n * (largest / sys.float_info.max))[1]  # 4nM < 2^shift * largest float
    for scale in (1.0, math.ldexp(1.0, -shift)) if shift > 0 else (1.0,):
        dist = np.zeros((n, n))
        dist[rows, cols] = dist[cols, rows] = values * scale
        try:
            with np.errstate(over="raise"):
                edges = _joins(dist, eps, scale)
        except FloatingPointError:
            continue
        return XTree(edges, {i: taxa[i] for i in range(n)})
    raise NonAdditiveError(f"neighbor joining overflows on distances up to {largest}")


def _joins(dist: np.ndarray, eps: float, scale: float) -> list[tuple[int, int, float]]:
    """The edges NJ builds on the matrix *dist*, reduced in place, with each
    length divided by *scale*, the factor the values were multiplied by."""
    n = m = dist.shape[0]
    tol = eps * max(1.0, float(dist.max()))

    def checked(length: float, context: str) -> float:
        if length < -tol:
            raise NonAdditiveError(f"negative branch length {length / scale} at {context}")
        return max(length, 0.0) / scale

    next_vertex = n
    nodes = list(range(n))  # vertex ids of the active rows
    edges: list[tuple[int, int, float]] = []
    q_buffer = np.empty(n * n)

    while m > 3:
        view = dist[:m, :m]
        row_sums = view.sum(axis=1)
        q = np.multiply(view, m - 2, out=q_buffer[: m * m].reshape(m, m))
        q -= row_sums[:, None]
        q -= row_sums[None, :]
        np.fill_diagonal(q, np.inf)
        i, j = divmod(int(q.argmin()), m)
        if i > j:
            i, j = j, i
        dij = view[i, j]
        li = 0.5 * dij + (row_sums[i] - row_sums[j]) / (2 * (m - 2))
        lj = dij - li
        u = next_vertex
        next_vertex += 1
        edges.append((nodes[i], u, checked(li, f"join {i},{j}")))
        edges.append((nodes[j], u, checked(lj, f"join {i},{j}")))

        new_row = 0.5 * (view[i, :] + view[j, :] - dij)
        view[i, :] = view[:, i] = new_row
        view[i, i] = 0.0
        view[j:-1] = view[j + 1:]  # drop row and column j
        view[:, j:-1] = view[:, j + 1:]
        m -= 1
        nodes[i] = u
        del nodes[j]

    if m == 3:
        d01, d02, d12 = dist[0, 1], dist[0, 2], dist[1, 2]
        center = next_vertex
        edges.append((nodes[0], center, checked((d01 + d02 - d12) / 2.0, "3-taxon solve")))
        edges.append((nodes[1], center, checked((d01 + d12 - d02) / 2.0, "3-taxon solve")))
        edges.append((nodes[2], center, checked((d02 + d12 - d01) / 2.0, "3-taxon solve")))
    else:  # exactly two taxa
        edges.append((nodes[0], nodes[1], checked(dist[0, 1], "2-taxon solve")))
    return edges


@dataclass(frozen=True)
class Reconstruction:
    """Outcome of the pipeline: a tree on success, the trace of the derived
    cords always (the placement's or the closure's), and the cords the
    closure could not reach (empty on success).  The trace's steps are a
    lazy view over the derivations, as ClosureTrace says: len is cheap, and
    no ClosureStep is made unless the steps are read."""

    tree: XTree | None
    trace: ClosureTrace
    missing: frozenset[Cord]

    @property
    def ok(self) -> bool:
        return self.tree is not None


def reconstruct(
    d: PartialDistance,
    eps: float = DEFAULT_EPSILON,
    exact_rational: bool = False,
    verify_eps: float = VERIFY_EPSILON,
) -> Reconstruction:
    """Rebuild the tree from the distances and verify it.

    An incomplete input grows metric blocks first, on Fractions with
    exact_rational=True (see the module docstring); when the first spans X,
    that tree, its weights rounded to float, is the answer and the trace
    lists its derivations in placement order.  Otherwise the block cords
    seed the closure under the extension rule, as closure() runs it.  A
    complete input or closure is built by four-point insertion (_insert),
    and goes through neighbor_joining only where insertion declines (ties,
    zero-length edges, values not finite) or its tree fails the check below;
    the tree or the error is then NJ's.  Either way succeeds whenever the
    cord set contains a shellable lasso of the source tree and the values
    are its induced metric.  An incomplete closure is a structured result
    (the missing cords say which distances to measure next), not an error.
    Inconsistent or non-additive input raises InconsistentDistanceError /
    NonAdditiveError; a tree that misses an input distance by more than
    verify_eps raises NonAdditiveError naming the smallest such cord.

    The check.  A cord fails when |D - v| > verify_eps in floats, D the
    tree distance summed exactly and rounded once (XTree.distance's value,
    which XTree._pair_distances gives for every cord in one pass) and v the
    input value.
    """
    trace, tree = _close(d, eps, exact_rational)
    if tree is None:
        if not trace.is_complete:
            return Reconstruction(None, trace, trace.missing)
        tree = _insert(trace.final, eps)
        if tree is None or not _check(tree, d, verify_eps, quiet=True):  # NJ then, whose tree may fit
            tree = neighbor_joining(trace.final, eps=eps)
            _check(tree, d, verify_eps)
    else:
        _check(tree, d, verify_eps)
    if callable(trace):  # a placement's, derived only now: corrupt values fail the check above first
        trace = trace()
    return Reconstruction(tree, trace, frozenset())


def _insert(final: PartialDistance, eps: float) -> XTree | None:
    """The tree of the complete map *final* by four-point insertion, or None
    where insertion declines (the module docstring's Complete maps
    paragraph), tol being eps relative to the largest value, as in NJ.
    Vertex 0 is r's leaf and the root, taxon k > 0 has leaf 2k - 1, and
    taxon z >= 2 hangs from vertex 2z - 2.  Past two taxa, every weight is
    the difference of two root-path sums more than tol apart."""
    taxa = final._taxa
    n = len(taxa)
    rows, cols, values = final._i, final._j, final._v
    tol = eps * max(1.0, float(values.max()))
    to_root = np.zeros(n)
    to_root[cols[rows == 0]] = values[rows == 0]
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowed value declines below
        g = np.full((n, n), -math.inf)
        g[cols, rows] = (to_root[cols] + to_root[rows] - values) / 2  # row z, column s < z
        best = g.argmax(axis=1).tolist()  # a nan wins, and declines
        reach = g[np.arange(n), best].tolist()
    to_root = to_root.tolist()
    up = [0.0, to_root[1]]  # each vertex's root-path sum: r's leaf, then taxon 1's
    parent: list[int | None] = [None, 0]
    for z in range(2, n):
        at, pendant = reach[z], to_root[z] - reach[z]
        if not (math.isfinite(at) and pendant > tol):
            return None
        v = 2 * best[z] - 1 if best[z] else 0  # s*'s leaf: taxon k > 0 has leaf 2k - 1
        p = parent[v]
        while p is not None and up[p] >= at:  # climb to the edge whose lower end lies past the point
            v, p = p, parent[p]
        if p is None or not (up[p] + tol < at < up[v] - tol):
            return None
        parent[v] = len(up)  # the split vertex 2z - 2, then z's leaf 2z - 1
        parent += [p, len(up)]
        up += [at, to_root[z]]
    weight = [0.0 if p is None else up[v] - up[p] for v, p in enumerate(parent)]
    return _parent_tree(parent, weight, {taxa[0]: 0, **{taxa[k]: 2 * k - 1 for k in range(1, n)}})


def _check(tree: XTree, d: PartialDistance, verify_eps: float, quiet: bool = False) -> bool:
    """Raise NonAdditiveError naming the first cord of d, in cord order,
    whose value the tree misses by more than verify_eps, with the tree's
    distance, the exact path sum rounded once (XTree._pair_distances, read
    back as plain floats), or saying that the path of a cord passes the
    float range.  With *quiet*, return False instead of raising."""
    try:
        got = tree._pair_distances(d._i, d._j)
    except OverflowError:  # a path sum past the float range, which no input value fits
        if quiet:
            return False
        raise NonAdditiveError("reconstructed tree has a cord's path beyond the float range") from None
    failed = np.flatnonzero(np.abs(got - d._v) > verify_eps)
    if failed.size and not quiet:
        k = failed[0]
        taxa = d._taxa
        raise NonAdditiveError(
            f"reconstructed tree gives {got[k].item()} for {Cord(taxa[d._i[k]], taxa[d._j[k]])}, input says {d._v[k].item()}"
        )
    return not failed.size


def closure(d: PartialDistance, eps: float = DEFAULT_EPSILON, exact_rational: bool = False) -> ClosureTrace:
    """Fixpoint of the distance-extension rule, with a step-by-step trace:
    reconstruct's route (the module docstring's Closure paragraph), metric
    blocks first, their cords in placement order, then the closure engine's
    derivations, in the order its tests of the missing cords derive them
    (lasso._extend).  Each passes the rule's test at eps on the values
    given or derived before it; a cord found derivable as values that
    differ beyond tolerance raises InconsistentDistanceError.  With
    exact_rational=True the same route runs on Fractions with eps=0, all
    exact (for adversarial fixtures); values convert back to float in the
    result."""
    return _close(d, eps, exact_rational, place=False)[0]


def _close(d: PartialDistance, eps: float, exact: bool = False, place: bool = True
           ) -> tuple[ClosureTrace | Callable[[], ClosureTrace], XTree | None]:
    """The closure of d, on Fractions with eps=0 if *exact*: (trace, None),
    with nothing to derive on a complete map, else metric blocks, then the
    engine seeded by them.  With *place*, when the first block spans X,
    (a builder of its trace, its tree) instead, and no engine runs.
    No exact weight of that tree passes the largest given value (a given
    start cord, pendants of half two given values, splits), so none
    overflows as it is rounded to float."""
    if not len(d):
        raise ValueError("closure needs a non-empty distance map")
    taxa = d._taxa
    n = len(taxa)
    if len(d) == n * (n - 1) // 2:
        return ClosureTrace((), d), None
    given = d._v.tolist()
    if exact:
        given, eps = list(map(Fraction, given)), 0.0
    value = [[0] * n for _ in range(n)]  # given values, then each block's derived ones
    for a, b, v in zip(d._i.tolist(), d._j.tolist(), given):
        value[a][b] = value[b][a] = v
    partners = d._partners()
    grown = []  # (placer, its rows, its taxa) per block

    def grow(start, known):
        placer = _MetricPlacer(value, start, eps, known)
        rows, block = _grow(partners, start, placer.place)
        grown.append((placer, rows, block))
        return block

    _block_loop(partners, range(n), grow)
    if place and len(grown) == 1 and len(grown[0][0].leaf_of) == n:  # the first block spans X, and ends the loop
        placer, rows, _ = grown[0]
        leaf_of = {taxa[i]: v for i, v in placer.leaf_of.items()}
        tree = _parent_tree(placer.parent, list(map(float, placer.weight)), leaf_of)
        return lambda: _closure_trace(d, taxa, rows), tree
    blocks = [(block, placer.anchors, rows) for placer, rows, block in grown]
    derivations, _ = _extend(taxa, d, eps, blocks, given if exact else None)
    return _closure_trace(d, taxa, derivations), None


class _MetricPlacer:
    """The distance test of a placement over taxon indices, for _grow, and
    the tree it grows: parent pointers with each vertex's weight to its
    parent, from the edge of the start cord.  Its entries are _extend's
    seed rows (z, x, y, s, v), the cords zs beyond *known*, written to
    *value*; *anchors* lists (z, a, b, known[z]) for each taxon it places.
    The values may be floats or Fractions; it brings in no float of its own."""

    def __init__(self, value: list[list[float]], start: tuple[int, int], eps: float, known: list[int]):
        a, b = start
        self.value, self.eps, self.known = value, eps, known
        self.leaf_of = {a: 0, b: 1}  # the placed taxa, in placement order
        self.anchors: list[tuple[int, int, int, int]] = []
        self.parent: list[int | None] = [None, 0]
        self.weight = [0, value[a][b]]  # to the parent; unused at the root

    def place(self, z, a, b, prefix, placed) -> bool:
        parent, weight, value, eps = self.parent, self.weight, self.value, self.eps
        vz, joined = value[z], self.known[z]
        za, zb, ab = vz[a], vz[b], value[a][b]
        rows = []
        for s in self.leaf_of:  # the engine's test on each quartet {z, a, b, s}
            if s != a and s != b:
                s1, s2 = za + value[s][b], zb + value[s][a]
                tol = eps * max(abs(s1), abs(s2), 1.0) if eps else 0  # four_point, inlined
                lt = s1 < s2 - tol
                if not lt and not s2 < s1 - tol:  # z's attachment point is a vertex of the block tree
                    return False
                if not joined >> s & 1:
                    rows.append((z, a, b, s, s2 - ab) if lt else (z, b, a, s, s1 - ab))
        lower = _path_edges(parent, self.leaf_of[a], self.leaf_of[b])
        length = sum(weight[v] for v in lower)
        at = (za - zb + length) / 2  # the attachment point, as its distance from a
        pos, end = 0, self.leaf_of[a]  # end: the path vertex pos from a
        for v in lower:  # the edge the point splits
            after = pos + weight[v]
            if at < after:
                break
            pos, end = after, parent[v] if v == end else v
        if za + zb < length or not pos < at < after:  # a negative pendant, or a point off the edge's inside
            return False
        near, far = at - pos, after - at
        mid = len(parent)
        up, down = (far, near) if v == end else (near, far)  # mid to parent[v], v to mid
        parent += [parent[v], mid]
        weight += [up, (za + zb - length) / 2]
        parent[v], weight[v] = mid, down
        self.leaf_of[z] = mid + 1
        for _, _, _, s, w in rows:
            vz[s] = value[s][z] = w
        placed += rows
        self.anchors.append((z, a, b, joined))
        return True
