"""Classification machinery for cord sets: distance closure, shellability,
2d-tree recognition and construction, and lasso certificates.

Closure (the extension rule)
----------------------------
Given distances on a cord set, a quadruple x,y,u,z with every cord except xz
known and d(x,y)+d(u,z) strictly below d(x,u)+d(y,z) pins the quartet shape,
and the missing value follows from the four-point equality:

    d(x,z) := d(x,u) + d(y,z) - d(y,u)

Iterating to a fixpoint yields the closure of the cord set.  When the input
cords contain a shellable lasso of the source tree, the closure reaches all
pairs, after which the whole tree is recoverable (see reconstruct, whose
one route grows metric blocks, then runs the engine here seeded by them).
The engine works on dense taxon indices and tests the missing cords, each
when a cord of its sets becomes known (_extend), by the driver that the
shelling closure below and the oracle's bound closure share
(_missing_loop), read on distances.

Shellability
------------
A cord set L is a shellable lasso for a tree T when the missing cords admit
an ordering in which each cord ab has "pivots" x,y: T restricted to
{a,b,x,y} is the quartet ax||yb and the other five cords of the quartet are
already available: on a fully-resolved tree, the extension rule on T's
unit-hop distances with eps=0.  A derivable cord stays derivable (the
available set only grows and the quartet shape is a property of T alone),
so the reachable set is a closure and any maximal greedy run finds it;
order influences the trace, never the verdict.

A placement answers "yes" from the tree's index alone.  Take an ordering of
X that starts with a cord of L and gives each later taxon z two earlier
neighbours a, b in L, and let S be the taxa before z.  z places when it
hangs off the a-b path of T restricted to S+{z}: when the component of T-m
holding z, m the median of a, b and z, holds no taxon of S.  On the tree's
rooted index that is the index's lca climb for m and one AND of
that component's leaf bitset with the bitset of S.  If every z places, L is
shellable.  By induction all cords within S are available, and for s in S
other than a, b, s lies in the component of T-m holding a or the one
holding b, say a's.  Then T restricted to {z, a, b, s} is sa||bz, since the
a-s path stays in a's component and the b-z path runs through m, and its
other five cords are available: za and zb in L, the rest within S.  So zs
is derivable with pivots a, b.  The induction never looks outside S, so
a placement that starts from an available cord and stops short of X (a
"block") still derives every pair within the taxa it places.  The shelling
closure (_hop_closure) grows its blocks greedily, the first from the
smallest cord in a triangle of L; when that block spans X, the closure is
done.

Past the blocks the closure stays exact on the same index, with no quartet
engine.  Take distinct taxa p, q, r, s of T and let m be the median
of p, q and r.  T restricted to {p, q, r, s} is pq||rs exactly when s lies
in the component of T-m holding r.  That component avoids the p-q path, so
the r-s path inside it misses the p-q path, which gives pq||rs; any other s
is reached from r through m, which lies on the p-q path, so the two paths
meet and the quartet is not pq||rs.  Hence a missing cord pq is derivable
from the known cords K exactly when some r, s in C = K(p) & K(q) with rs
in K has s outside r's component.  As T is fully resolved, each interior
vertex of the p-q path has one branch off the path, and the components in
question are these branches; the test reads "r and s hang off different
vertices of the p-q path", and with the branches as bitsets it is one pass
along the path from p's end.  Each missing cord is tested so, when a cord
of its sets may have completed one (_missing_loop, see _hop_closure).

The topological oracle prunes its enumeration by a third closure on the
same driver, over error bounds: a missing cord is bounded by a set whose
two pairings through it have sums surely apart (_forbidden_pairings).
The rank certificate's path-incidence matrix and the oracle's LPs read the
edges on each cord's path from edge sides (_path_rows): the tree's, or each
candidate topology's as _topologies grows it, so no path is walked, and the
oracle builds no XTree but its witness.
"""

from __future__ import annotations

import heapq
import itertools
import math
import warnings
from collections import deque
from collections.abc import Set as AbstractSet
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Callable, Collection, Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .cords import Cord, PartialDistance, _bind, _bit_indices, _Bound, _cords_over, _partner_bits, _row_bits, all_cords, cord_taxa
from .cover import is_cover
from .tolerance import DEFAULT_EPSILON, approx_equal, margin
from .tree import TreeError, XTree


class InconsistentDistanceError(ValueError):
    """The same cord is derivable with conflicting values (input is not a
    restriction of any tree metric)."""


class _Steps(Sequence):
    """A read-only sequence of the steps that generate(*records) yields, over
    records a closure keeps: a step is made only when the view is iterated
    or indexed, and len and truth make none.  Otherwise it acts as the tuple
    of its steps: slices give tuples, and it equals and hashes as that tuple."""

    def __init__(self, size: int, generate: Callable[..., Iterator], *records):
        self._size, self._generate, self._records = size, generate, records

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator:
        return self._generate(*self._records)

    def __reversed__(self) -> Iterator:
        return reversed(tuple(self))

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self)[index]
        return next(itertools.islice(self, range(self._size)[index], None))  # IndexError as a tuple's

    def __eq__(self, other) -> bool:
        if isinstance(other, (tuple, _Steps)):
            return len(self) == len(other) and tuple(self) == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))


# ---------------------------------------------------------------------------
# Rule-based closure
# ---------------------------------------------------------------------------


class ClosureStep(NamedTuple):
    cord: Cord
    quadruple: tuple[str, str, str, str]  # (x, y, u, z) with cord == xz
    value: float

    def line(self) -> str:
        x, y, u, z = self.quadruple
        return (
            f"{x} {z} := d({x},{u})+d({y},{z})-d({y},{u})"
            f" via ({x},{y},{u},{z}) = {self.value!r}"
        )


@dataclass(frozen=True)
class ClosureTrace:
    """A closure's derivations and final distances; closure gives *steps* as
    a lazy view (_Steps) over its derivation rows, with a cheap len, and
    *final* as a PartialDistance on its index arrays: the given map's plus
    one entry per derivation, with no Cord made until it is read as a
    Mapping."""

    steps: Sequence[ClosureStep]
    final: PartialDistance

    @cached_property
    def missing(self) -> frozenset[Cord]:
        return frozenset(_MissingCords(self.final._taxa, self.final._partners()))

    @property
    def is_complete(self) -> bool:
        n = len(self.final._taxa)
        return len(self.final) == n * (n - 1) // 2

    def lines(self) -> list[str]:
        return [s.line() for s in self.steps]


def _closure_trace(d: PartialDistance, taxa: Sequence[str], rows) -> ClosureTrace:
    """The trace over d of _extend's *rows* over the sorted *taxa* (d's own),
    its steps a view over the rows and *final* d's arrays plus one entry per
    row, with no Cord made.  Each value is checked here: a derived value
    below 0 fits no tree metric, and an exact one beyond the float range
    (where float sums overflow and never pass four_point) cannot be
    returned; either raises InconsistentDistanceError naming cord, value
    and quadruple, at the first such row."""
    try:
        values = np.fromiter(map(itemgetter(4), rows), float, len(rows))
    except OverflowError:  # an exact value beyond the float range
        values = None
    if values is None or not ((values >= 0) & (values < math.inf)).all():
        for z, x, y, s, v in rows:
            try:
                value = float(v)
            except OverflowError:
                value = math.inf
            if not 0 <= value < math.inf:
                why = "below 0" if value < 0 else "beyond the float range"
                (q, _), = _named(taxa, [(z, x, y, s, v)])
                raise InconsistentDistanceError(f"{Cord(q[0], q[3])} derivable as {_shown(v)} via ({','.join(q)}), {why}")
    ends = np.fromiter(itertools.chain.from_iterable(map(itemgetter(0, 3), rows)), np.intp, 2 * len(rows))
    z, s = ends[0::2], ends[1::2]
    final = PartialDistance._of(
        taxa,
        np.concatenate([d._i, np.minimum(z, s)]),
        np.concatenate([d._j, np.maximum(z, s)]),
        np.concatenate([d._v, values]),
    )
    return ClosureTrace(_Steps(len(rows), _closure_steps, taxa, rows), final)


def _closure_steps(taxa: Sequence[str], rows) -> Iterator[ClosureStep]:
    for q, v in _named(taxa, rows):
        # lower index first, and the taxa are sorted; *final* holds float(v)
        yield ClosureStep(tuple.__new__(Cord, q[::3]), q, float(v))


def _shown(value) -> str:
    """A value as a float, or an exact one beyond the float range to 17 digits."""
    try:
        return str(float(value))
    except OverflowError:
        from decimal import Decimal  # only this rare message needs it
        return format(Decimal(value.numerator) / value.denominator, ".17g")


def four_point(s1, s2, eps: float):
    """The extension rule's test, for the closure engine (_extend) and the
    metric placer, on s1 = d(x,p)+d(z,q) and s2 = d(x,q)+d(z,p), cord xz
    and pivots p, q: (strict, lt), strict when one sum is definitely less
    than the other, lt when s1 is (quartet xp||qz, d(x,z) = s2 - d(p,q));
    elementwise."""
    tol = margin(s1, s2, eps)  # one margin serves both definitely_less tests
    lt = s1 < s2 - tol
    return lt | (s2 < s1 - tol), lt


def _named(taxa: Sequence[str], rows) -> Iterator:
    """Derivation rows (z, x, y, s, v), cord zs of value v by the quartet
    zx||ys, as ((x', y', u', z'), v) over *taxa*, the quartet x'y'||u'z'
    giving cord x'z', lower index first."""
    for z, x, y, s, v in rows:
        yield ((taxa[z], taxa[x], taxa[y], taxa[s]) if z < s else (taxa[s], taxa[y], taxa[x], taxa[z]), v)


@np.errstate(over="ignore", invalid="ignore")  # an inf or nan sum is never strict
def _extend(taxa: Sequence[str], d: PartialDistance, eps: float,
            blocks: Sequence[tuple[int, list, list]] = (), values: Sequence | None = None):
    """The extension rule's fixpoint over *taxa*, d's own sorted taxa, from
    the distance map *d*, on its floats, or on *values*, its values in cord
    order as Fractions, with eps=0; reconstruct._close is the one library
    caller.  Returns the derivations as rows (x, y, u, z, value) over taxon
    indices, quartet xy||uz giving cord xz (the form of the blocks' rows
    below; _named puts labels on them), and the final n x n known-mask over
    *taxa*.  Each derived value is compared with every set able to derive
    its cord at that moment, and a clash raises InconsistentDistanceError.

    The missing cords are tested by _missing_loop, in index order.  The test
    of xz runs four_point once over every set {x, z, p, q} with p, q in
    K(x) & K(z) and pq known (ready, with no taxon masked), on the values
    known then, pairs (p, q) in lexicographic order: the first strict set
    derives xz, and comparing the values of all strict sets in that same
    call is the cross-check.

    *blocks* are the route's metric blocks in the order they grew, each
    (members, anchors, rows): the bitset of its taxa; (z, a, b, joined) for
    each taxon z it placed after its start cord, in placement order, with
    z's anchors a, b and its known partners before the block grew; and its
    derivations, rows (z, x, y, s, v) in order, cord zs of value v by the
    quartet zx||ys, the rows of one z together.  Each row passed four_point
    at eps on the values known at its turn.  The rows seed the engine: they
    become known and head the derivations.  The derivable set only grows,
    so the fixpoint from the cords plus the seeds is the one from the cords.
    The seeds are checked block by block, in the order the blocks grew,
    after every seed value is written; in exact arithmetic this raises
    where the cross-check of each row against every set raises (the
    soundness of the skip is in reconstruct's module docstring):
    - first, each cord zs inside the block, known before it grew, z the
      later placed and s no anchor of z, is compared with the value that
      z's placing quartet {z, a, b, s} derives, in one vectorised call;
    - then the block's rows run in order.  A row is cross-checked, as a
      derivation is, against its ready sets {z, s, q1, q2} (q1, q2 known
      to both, q1q2 known) with a taxon off the block, then becomes known.
      So only the rows of a z with a known partner off the block are
      checked.  When a cord of the first part disagrees, every row is
      checked against every set, and a clash names that cord; otherwise
      it names the row and the first failing set by (lower q, higher q).
    """
    n, i, j = len(taxa), d._i, d._j
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

    def ready(x, z, inside):
        """The sets {x, z, q1, q2} with q1, q2 in K(x) & K(z), q1q2 known and
        q1 off *inside* (a mask), each once (q1 < q2 when both are off),
        ordered by q1, then q2: q1, q2 and their quartets for cord xz, as
        strict mask, q1-with-x flag and value."""
        q = np.flatnonzero(known[x] & known[z])
        off = q[~inside[q]]
        r, c = np.nonzero(known[np.ix_(off, q)] & (inside[q] | (off[:, None] < q)))
        return (off[r], q[c], *quartet(x, z, off[r], q[c]))

    def both(x, z, v, w):
        """The error for cord xz, derivable as both v and w."""
        return InconsistentDistanceError(f"{Cord(taxa[x], taxa[z])} derivable as both {_shown(v)} and {_shown(w)}")

    derivations = [row for _, _, rows in blocks for row in rows]
    zs, ss = np.fromiter(itertools.chain.from_iterable(map(itemgetter(0, 3), derivations)), np.intp).reshape(-1, 2).T
    value[zs, ss] = value[ss, zs] = np.array([row[4] for row in derivations])  # all first: the checks read them
    for members, anchors, rows in blocks:
        placed, quads = members, []
        for z, _, _, _ in anchors:
            placed ^= 1 << z  # the ends of the start cord
        for z, a, b, joined in anchors:
            quads += [(z, s, a, b) for s in _bit_indices(joined & placed & ~(1 << a | 1 << b))]
            placed |= 1 << z
        z, s, a, b = np.array(quads, dtype=np.intp).reshape(-1, 4).T
        had, derived = value[z, s], quartet(z, s, a, b)[2]
        bad = np.flatnonzero(~approx_equal(had, derived, eps))
        clash = both(z[bad[0]], s[bad[0]], had[bad[0]], derived[bad[0]]) if bad.size else None
        # A block that agrees with its known cords is checked only on sets
        # with a taxon off it; one that does not, on every set.
        inside = np.zeros(n, dtype=bool)
        if clash is None:
            inside[list(_bit_indices(members))] = True
        off = ~members if clash is None else -1
        checked = {z for z, _, _, joined in anchors if joined & off}
        for z, group in itertools.groupby(rows, key=itemgetter(0)):
            if z not in checked:  # nothing to check: its rows become known at once
                s = np.fromiter(map(itemgetter(3), group), np.intp)
                known[z, s] = known[s, z] = True
                continue
            for _, _, _, s, v in group:
                q1, q2, strict, _, other = ready(z, s, inside)
                bad = np.flatnonzero(strict & ~approx_equal(v, other, eps))
                if bad.size:  # the first set in the order (lower q, higher q)
                    bad = bad[np.lexsort((np.maximum(q1, q2)[bad], np.minimum(q1, q2)[bad]))[0]]
                    raise clash or both(z, s, v, other[bad])
                known[z, s] = known[s, z] = True

    def test(x, z):
        q1, q2, strict, lt, derived = ready(x, z, np.zeros(n, dtype=bool))
        hits = np.flatnonzero(strict)
        if not hits.size:
            return False
        found = derived[hits]
        clash = np.flatnonzero(~approx_equal(found[0], found, eps))
        if clash.size:
            raise both(x, z, found[0], found[clash[0]])
        k = hits[0]
        y, u = (q1[k], q2[k]) if lt[k] else (q2[k], q1[k])
        v = found[:1].tolist()[0]
        value[x, z] = value[z, x] = v
        known[x, z] = known[z, x] = True
        derivations.append((x, int(y), int(u), z, v))
        return True

    _missing_loop(_row_bits(known), range(n), test)
    return derivations, known


# ---------------------------------------------------------------------------
# Shellability
# ---------------------------------------------------------------------------


class ShellingStep(NamedTuple):
    cord: Cord
    pivots: tuple[str, str]  # (x, y): quartet is  cord.a x || y cord.b

    def line(self) -> str:
        return f"{self.cord.a} {self.cord.b} | pivots {self.pivots[0]} {self.pivots[1]}"


class _MissingCords(AbstractSet):
    """Read-only set of the cords that partner bitsets over *taxa* leave out.

    It keeps one bitset per taxon, bit j of entry i set when taxa[i] and
    taxa[j] share a known cord, not one Cord per missing pair; a Cord is built
    only when the set is iterated.  Equal to the frozenset of the same cords.
    """

    def __init__(self, taxa: Sequence[str], known: Sequence[int]):
        self._taxa, self._known = list(taxa), list(known)
        self._index = {t: i for i, t in enumerate(self._taxa)}

    def __contains__(self, cord) -> bool:
        try:
            a, b = cord
            i, j = self._index[a], self._index[b]
        except (TypeError, ValueError, KeyError):  # not a pair, or not over these taxa
            return False
        # A Cord equals its sorted pair and nothing else, so only that pair is in.
        return isinstance(cord, tuple) and a < b and not self._known[i] >> j & 1

    def __iter__(self) -> Iterator[Cord]:
        everyone = (1 << len(self._taxa)) - 1
        for i, a in enumerate(self._taxa):
            for j in _bit_indices(everyone >> (i + 1) << (i + 1) & ~self._known[i]):
                yield Cord(a, self._taxa[j])

    def __len__(self) -> int:  # each known cord sets two bits, none on the diagonal
        n = len(self._taxa)
        return n * (n - 1) // 2 - sum(k.bit_count() for k in self._known) // 2

    __hash__ = AbstractSet._hash

    @classmethod
    def _from_iterable(cls, cords):  # what set operators such as - return
        return frozenset(cords)


@dataclass(frozen=True)
class ShellingResult:
    """The shelling steps found, and the cords they leave underived.

    is_shellable gives both as lazy read-only views, *steps* (_Steps, with
    a cheap len) over its closure's blocks and derivations and *missing*
    over its partner bitsets; any steps and set of Cords may be passed in.
    """

    steps: Sequence[ShellingStep]
    missing: AbstractSet[Cord]

    @property
    def is_complete(self) -> bool:
        return not self.missing

    def __bool__(self) -> bool:
        return self.is_complete

    def lines(self) -> list[str]:
        return [s.line() for s in self.steps]


def is_shellable(tree: XTree, cords: Iterable[Cord], rng=None) -> ShellingResult:
    """Whether L is a shellable lasso for the tree, with the shelling steps;
    complete exactly when it is.

    A cord ab is derivable once pivots x,y exist with the restriction to
    {a,b,x,y} equal to ax||yb and the other five cords available.
    _hop_closure computes the closure exactly, with no quartet engine.  Its
    first block is a placement grown greedily from the smallest cord in a
    triangle of L; when it spans X the answer is yes, and the steps derive,
    taxon by taxon in placement order, each cord from the new taxon z to an
    earlier taxon, pivoted on z's two earlier neighbours.  Otherwise the
    steps derive first the pairs within each block, then the missing cords
    in the order the closure's tests derive them, and *missing* holds the
    rest, as a view over the closure's partner bitsets.  The steps are a
    lazy view too, so the verdict costs the closure alone.  Each step
    derives one cord that is neither given nor derived earlier, and each
    known cord that is not given has one, so their len is a count of bits.
    *rng* (a random.Random) permutes the taxon order in which the closure
    grows its blocks and first tests the missing cords; the steps change
    with it, the verdict and *missing* do not (the closure is monotone),
    which the test suite exercises.  The verdict is kept with the tree for a
    frozenset of cords (see XTree), where edge_weight_lasso_certificate
    reads it.
    """
    if not tree.is_fully_resolved():
        raise TreeError("shellability is defined for fully-resolved trees")
    return _shelling(tree, _bind(cords, tree), rng)


def _shelling(tree: XTree, bound: _Bound, rng=None) -> ShellingResult:
    """is_shellable on cords bound to the tree; records the verdict."""
    known, blocks, derivations = _hop_closure(tree, bound.partners, rng)
    taxa = tree._index.taxa
    missing = _MissingCords(taxa, known)
    bound.record(tree, not missing)
    size = len(taxa) * (len(taxa) - 1) // 2 - len(missing) - len(bound.cords)
    return ShellingResult(_Steps(size, _shelling_steps, taxa, blocks, derivations), missing)


def _shelling_steps(taxa: Sequence[str], blocks, derivations) -> Iterator[ShellingStep]:
    """The steps of _hop_closure's records over *taxa*: the shelling each
    block certifies, in placement order (for each later taxon z, pivots a
    and b, each cord zs to an earlier taxon s not known before the block, s
    paired with a when it lies in a's component of T-m: s a || b z), then
    the derivations."""
    for start, placed, before in blocks:
        prefix = list(start)
        for z, a, b, a_side in placed:
            for s in prefix:
                if not before[z] >> s & 1:
                    x, y = (a, b) if (a_side >> s & 1) == (s < z) else (b, a)  # lower end first
                    yield ShellingStep(Cord(taxa[s], taxa[z]), (taxa[x], taxa[y]))
            prefix.append(z)
    for u, v, x, y in derivations:
        yield ShellingStep(Cord(taxa[u], taxa[v]), (taxa[x], taxa[y]))


class _Placer:
    """Placement on the tree's rooted index, taxa as bit positions as in its
    leaf bitsets.  A placement lists, for each taxon z after the first two,
    (z, a, b, a_side): z's two earlier neighbours a and b, and the leaf
    bitset of the component of T-m holding a, m the median of a, b and z,
    the deepest of the three lowest common ancestors (the index's lca)."""

    def __init__(self, tree: XTree):
        index = tree._index
        self.parent, self.depth, self.below, self.full = index.parent, index.depth, index.below, index.full
        self.lca = index.lca
        self.leaf = [tree._leaf_by_label[t] for t in index.taxa]  # below[leaf[i]] == 1 << i

    def side(self, m, x):
        """Leaf bitset of the component of T-m holding x."""
        if not self.below[m] & self.below[x]:
            return self.full ^ self.below[m]
        while self.parent[x] != m:
            x = self.parent[x]
        return self.below[x]

    def place(self, z, a, b, prefix, placed) -> bool:
        """Whether z places on a and b after the taxa of *prefix*; if so, its
        entry is appended to *placed*."""
        va, vb, vz = self.leaf[a], self.leaf[b], self.leaf[z]
        m = max(self.lca(va, vb), self.lca(va, vz), self.lca(vb, vz), key=self.depth.__getitem__)
        if self.side(m, vz) & prefix:
            return False
        placed.append((z, a, b, self.side(m, va)))
        return True


def _grow(partners, start, place) -> tuple[list, int]:
    """The greedy placement from the known cord *start* over the graph of
    *partners*, and the bitset of the taxa it places.  *place* is the test,
    with the signature of _Placer.place: on the tree's index there, on the
    distances in reconstruct.  A taxon z joins once a pair of its placed
    neighbours places it.  In T restricted to the placed taxa S plus z, z
    hangs off one edge of T restricted to S, and a pair places z exactly
    when that edge separates the pair.  As S grows, the edge shrinks to a
    piece of itself or moves into a branch newly hung off it, so two taxa
    on one side of it stay on one side.  A neighbour that fails with z's
    first placed neighbour is thus on the first's side for good, and each
    new neighbour need only be tried with the first."""
    placed, prefix = [], 1 << start[0] | 1 << start[1]
    first: list[int | None] = [None] * len(partners)  # each taxon's first placed neighbour
    queue = deque(start)
    while queue:
        v = queue.popleft()
        for z in _bit_indices(partners[v] & ~prefix):  # placing z changes only z's bit
            if first[z] is None:
                first[z] = v
            elif place(z, first[z], v, prefix, placed):
                prefix |= 1 << z
                queue.append(z)
    return placed, prefix


def _hop_closure(tree: XTree, given: list[int], rng=None):
    """The shelling closure of L, *given* as partner bitsets, on the tree,
    as (known, blocks, derivations): the final partner bitsets of the known
    cords, and the material of the steps that derive every derivable cord,
    which only is_shellable's view turns into ShellingSteps.  Each block is
    (start, placement, before), *before* mapping each placed taxon to its
    known partners before the block was grown (see _shelling_steps).
    Each derivation is (u, v, x, y) in taxon indices, u < v: cord uv with
    pivots x, y, the quartet u x || y v.

    Blocks first (_block_loop): each taxon that no block holds yet, in
    turn, starts a greedy placement over L (_grow) from a known cord in a
    triangle of the known cords; it need not reach all of X, and the pairs
    within the block it places become known.  With no *rng* the first
    block starts from the smallest cord in a triangle of L, and when it
    spans X nothing is left to derive.

    Then _missing_loop tests the missing cords, in the same taxon order.
    The test of xz is the module docstring's: with W = K(x) & K(z) and the
    off-path branches of the x-z path taken from x's end, the first r in W,
    branch by branch, with a known partner in W in a branch nearer z
    derives xz, the lowest such partner s giving the quartet x r || s z.
    """
    placer = _Placer(tree)
    parent, depth, below, full, leaf = placer.parent, placer.depth, placer.below, placer.full, placer.leaf
    order = list(range(len(given)))
    if rng is not None:
        rng.shuffle(order)
    blocks, derivations = [], []

    def grow(start, known):
        placed, block = _grow(given, start, placer.place)
        blocks.append((start, placed, {z: known[z] for z, _, _, _ in placed}))
        return block

    known = _block_loop(given, order, grow)

    def test(x, z):
        w = known[x] & known[z]
        # The off-path branches of the x-z path, from x's end: climb from
        # both leaves to their lowest common ancestor, which has the rest
        # of the tree as its branch.
        ca, a, cb, b = leaf[x], parent[leaf[x]], leaf[z], parent[leaf[z]]
        branches, from_z = [], []
        while a != b:
            if depth[a] >= depth[b]:
                branches.append(below[a] ^ below[ca])
                ca, a = a, parent[a]
            else:
                from_z.append(below[b] ^ below[cb])
                cb, b = b, parent[b]
        branches.append(full ^ below[ca] ^ below[cb])
        branches.extend(reversed(from_z))
        nearer = 0  # the branches from x's end up to r's
        for g in branches:
            nearer |= g
            for r in _bit_indices(w & g):
                if farther := known[r] & w & ~nearer:
                    derivations.append((x, z, r, _lowest(farther)))
                    return True
        return False

    _missing_loop(known, order, test)
    return known, blocks, derivations


def _block_loop(given: list[int], order: Sequence[int], grow) -> list[int]:
    """Where both closures start, over the partner bitsets *given*: the
    partner bitsets of the known cords after the blocks.  Each taxon i in
    *order* that no block holds yet, with j its lowest known partner that
    shares a known partner with it, starts grow((i, j), known), which grows
    a block and returns the bitset of its taxa; the pairs within the block
    then become known.  In index order the first block starts from the
    smallest cord in a triangle.  Blocks mark only derivable cords, so
    which of them grow never moves the fixpoint."""
    known = list(given)
    covered = 0  # the taxa of every block
    for i in order:
        j = None if covered >> i & 1 else next((j for j in _bit_indices(known[i]) if known[i] & known[j]), None)
        if j is None:  # i is in a block, or in no triangle
            continue
        block = grow((i, j), known)
        covered |= block
        for b in _bit_indices(block):
            known[b] |= block ^ 1 << b
    return known


def _missing_loop(known: list[int], order: Sequence[int], test) -> None:
    """The fixpoint driver of all three closures, from the partner bitsets
    *known*, updated in place: the second phase of the distance closure
    (_extend) and of the shelling closure (_hop_closure), from the bitsets
    the blocks leave, and the whole of the oracle's bound closure
    (_forbidden_pairings), from the given cords.  test(x, z), x < z, on a
    missing cord xz, derives it and returns True when some set {x, z, p, q}
    with p, q in W = K(x) & K(z) and pq known is strict: four_point on the
    distances in _extend, the tree's quartet on its index in _hop_closure,
    a sure pairing on the bounds in _forbidden_pairings.  The driver relies
    on one condition: a value or bound, once known, never changes.  So a
    set's verdict is the same whenever it is tested, and *order*, the taxon
    order, moves no verdict.

    A queue holds the cords to test, each once at a time.  It starts with
    every missing cord whose W holds two or more taxa, x over *order* and z
    over the taxa after x in it.  When xz becomes known, the missing cords
    it may have made derivable are queued again: xt for t in K(z) \\ K(x),
    zt for t in K(x) \\ K(z), and uv for u, v in K(x) & K(z).  A cord
    becomes derivable only when the last of its set's five other cords
    becomes known, and that cord is either at one of its ends or its pivot
    pair, so the queue runs dry at the fixpoint.  A cord whose W holds
    fewer than two taxa has no ready set, and is not queued."""
    queue, everyone, seen = deque(), (1 << len(known)) - 1, 0
    for x in order:
        seen |= 1 << x
        kx = known[x]
        for z in _bit_indices(everyone & ~(kx | seen)):
            if (kx & known[z]).bit_count() > 1:
                queue.append((x, z) if x < z else (z, x))
    waiting = set(queue)

    def offer(x, z):
        key = (x, z) if x < z else (z, x)
        if key not in waiting and (known[x] & known[z]).bit_count() > 1:
            waiting.add(key)
            queue.append(key)

    while queue:
        x, z = key = queue.popleft()
        waiting.remove(key)
        if not test(x, z):
            continue
        known[x] |= 1 << z
        known[z] |= 1 << x
        kx, kz = known[x], known[z]
        for t in _bit_indices(kz & ~kx & ~(1 << x)):
            offer(x, t)
        for t in _bit_indices(kx & ~kz & ~(1 << z)):
            offer(z, t)
        w = kx & kz
        for u in _bit_indices(w):
            for v in _bit_indices(w & ~known[u] & ~((2 << u) - 1)):
                offer(u, v)


def _lowest(bits: int) -> int:
    """The index of the lowest set bit of *bits*, or -1 when there is none."""
    return (bits & -bits).bit_length() - 1


def verify_shelling(
    tree: XTree,
    cords: Iterable[Cord],
    steps: Sequence[tuple[Cord, tuple[str, str]]],
    require_complete: bool = False,
) -> None:
    """Validate an explicit shelling ordering step by step.

    Each step must name a cord absent so far whose five companion cords are
    available and whose quartet with the pivots separates the cord's ends.
    A cord may be a Cord or any pair of labels, in either order.  The pivot
    pair is accepted in either orientation (the quartet shape determines
    which pivot sits with which end).  Raises ValueError naming the first
    failing step.
    """
    available = set(itertools.starmap(Cord, cords))
    for i, ((a, b), (x, y)) in enumerate(steps, start=1):
        if len({a, b, x, y}) != 4:
            raise ValueError(f"step {i}: cord {a} {b} and pivots {x}, {y} are not four distinct taxa")
        cord = Cord(a, b)
        if cord in available:
            raise ValueError(f"step {i}: cord {cord} is already available")
        companions = itertools.starmap(Cord, itertools.combinations((a, b, x, y), 2))
        absent = [c for c in companions if c != cord and c not in available]
        if absent:
            raise ValueError(f"step {i}: companion cord {absent[0]} not yet available")
        split = tree.quartet_topology(a, b, x, y)
        if split is None or cord.taxa in split:
            raise ValueError(
                f"step {i}: quartet on {{{cord.a},{cord.b},{x},{y}}} does not "
                f"separate {cord.a} from {cord.b}"
            )
        available.add(cord)
    if require_complete and available != all_cords(tree.taxa):
        raise ValueError("shelling does not reach every cord")


# ---------------------------------------------------------------------------
# 2d-trees
# ---------------------------------------------------------------------------


def is_2dtree(cords: Iterable[Cord], taxa: Iterable[str] | None = None) -> list[str] | None:
    """An ordering witnessing that (X, L) is a 2d-tree, or None.

    A 2d-tree ordering starts with an edge and adds each later vertex with
    exactly two earlier neighbours.  Recognition is one peel: while more
    than two vertices remain, delete the smallest-label vertex of degree 2;
    the answer is the last two, sorted, then the deletions reversed.
    |L| = 2|X|-3 is a necessary edge count, checked first.  As each deletion
    takes two cords, the last two vertices share the last cord, and a degree
    below 2 with three or more vertices left means no 2d-tree remains.

    The peel is exact: deleting a degree-2 vertex v from a 2d-tree G with at
    least 3 vertices leaves a 2d-tree.  If v is third or later in an
    ordering, no later vertex is adjacent to v, so the rest of the ordering
    stands.  If v is first or second, the third vertex v3 is adjacent to
    both first vertices, so v's neighbours are v3 and the other first vertex
    u, and (u, v3, v4, ...) orders G-v.  The last vertex of an ordering has
    degree 2, so the peel never gets stuck on a 2d-tree.
    """
    cords = set(cords)
    labels = sorted(cord_taxa(cords) if taxa is None else set(taxa))
    ordering = _peel(_partner_bits(cords, labels))
    return None if ordering is None else [labels[v] for v in ordering]


def _peel(partners: list[int]) -> list[int] | None:
    """is_2dtree's answer over taxon indices, smallest index first among the
    degree-2 vertices, with its count check."""
    degree = [p.bit_count() for p in partners]
    if len(partners) < 2 or sum(degree) != 2 * (2 * len(partners) - 3):
        return None
    ready = [v for v, d in enumerate(degree) if d == 2]  # ascending, so a heap
    alive = (1 << len(partners)) - 1
    peeled: list[int] = []
    for _ in range(len(partners) - 2):
        if not ready:
            return None
        # Degrees only fall, so a vertex enters the heap once, at degree 2.
        v = heapq.heappop(ready)
        if degree[v] != 2:
            return None
        alive ^= 1 << v
        peeled.append(v)
        for u in _bit_indices(partners[v] & alive):
            degree[u] -= 1
            if degree[u] == 2:
                heapq.heappush(ready, u)
    return [*_bit_indices(alive), *reversed(peeled)]


def _back_neighbours(cords: set[Cord], ordering: Sequence[str]) -> list[tuple[str, str]] | None:
    """The two earlier neighbours of each vertex after the first two, in
    ordering position, when *ordering* is a 2d-tree ordering of the cord set;
    otherwise None."""
    # A repeated label leaves its earlier position with no cords, so the
    # back-neighbour counts below reject it.
    try:
        partners = _partner_bits(cords, ordering)  # bits in ordering position
    except ValueError:  # a cord off the ordering
        return None
    back = [list(_bit_indices(p & (1 << k) - 1)) for k, p in enumerate(partners)]
    if len(back) < 2 or back[1] != [0] or any(len(b) != 2 for b in back[2:]):
        return None
    return [(ordering[i], ordering[j]) for i, j in back[2:]]


def verify_2dtree_ordering(cords: Iterable[Cord], ordering: Sequence[str]) -> bool:
    """Check a specific vertex ordering against the 2d-tree definition."""
    return _back_neighbours(set(cords), ordering) is not None


def tree_from_2dtree(
    cords: Iterable[Cord],
    ordering: Sequence[str],
    certify: bool = False,
) -> XTree:
    """A fully-resolved tree for which the 2d-tree cord set is a strong lasso.

    Follows the constructive recipe: start from the first two vertices as a
    single edge; each later vertex, with back-neighbours x_j, x_k, becomes a
    leaf attached to a fresh subdivision vertex on the tree path between x_j
    and x_k.  Which path edge to subdivide is immaterial for the guarantee;
    for determinism the edge whose midpoint lies closest to the path midpoint
    is split at its own midpoint, ties resolved towards x_j.

    certify=True asks is_shellable whether the cords are a shellable lasso
    of the built tree, reading its verdict alone: exact on hop counts and
    blind to the weights, so a no means a construction bug.  By induction
    on the ordering, a later z sits strictly inside an edge of the x_j-x_k
    path and an earlier s branches off that path at an older vertex, so
    the quartet on {z, x_j, x_k, s} derives zs from five available cords:
    zx_j and zx_k are in L, the rest by induction, as z keeps the prefix
    quartets.  A shellable lasso is a strong lasso for every proper
    weighting.  That induction is a placement (see the module docstring),
    and the closure answers from the tree's index, without the quartet
    engine, whether or not its greedy first block follows it.  The float
    closure it replaced failed on fans: each split halves a weight, to
    2^-32 at 35 taxa, inside the 1e-9 tolerance.

    The growing tree is kept as parent pointers, rooted at the leaf of
    ordering[0], with each vertex's weight to its parent.  The x_j-x_k path
    is found by climbing from both ends in turn, one step each: the first
    vertex one climb reaches on the other's trail is the lowest common
    ancestor, since a lower common ancestor would have been on both trails
    earlier.  Either climb overshoots the ancestor by at most the other's
    remaining steps, and splitting an edge re-points two parents, so the
    whole construction costs O(sum of path lengths), not a search over the
    growing tree per vertex.
    """
    cords = set(cords)
    ordering = list(ordering)
    back = _back_neighbours(cords, ordering)
    if back is None:
        raise ValueError("ordering is not a valid 2d-tree ordering of the cord set")

    # Vertex ids count up: the first two leaves, then a subdivision vertex
    # and its leaf per later taxon.
    leaf_of = {ordering[0]: 0, ordering[1]: 1}
    parent: list[int | None] = [None, 0]
    weight = [0.0, 1.0]  # to the parent; unused at the root
    for label, (xj, xk) in zip(ordering[2:], back):
        lower = _path_edges(parent, leaf_of[xj], leaf_of[xk])
        target = sum(weight[v] for v in lower) / 2.0
        starts = itertools.accumulate((weight[v] for v in lower), initial=0.0)
        # min keeps the first of equal scores: ties go towards x_j.
        v = min(zip(lower, starts), key=lambda e: abs(e[1] + weight[e[0]] / 2.0 - target))[0]
        mid, half = len(parent), weight[v] / 2.0
        parent += [parent[v], mid]
        weight += [half, 1.0]
        parent[v], weight[v] = mid, half
        leaf_of[label] = mid + 1

    tree = _parent_tree(parent, weight, leaf_of)
    if certify and not is_shellable(tree, cords).is_complete:
        raise AssertionError("constructed tree does not certify: cords not a shellable lasso of it")
    return tree


def _parent_tree(parent: list[int | None], weight: list[float], leaf_of: Mapping[str, int]) -> XTree:
    """The XTree of a tree kept as parent pointers, with each vertex's
    weight to its parent and each taxon's leaf."""
    return XTree(
        sorted((min(v, p), max(v, p), w) for v, (p, w) in enumerate(zip(parent, weight)) if p is not None),
        {vid: lab for lab, vid in leaf_of.items()},
    )


def _path_edges(parent: list[int | None], a: int, b: int) -> list[int]:
    """The edges on the path from a to b, in path order, each as its lower
    end: the climbs from a and b, each stopped below the lowest common
    ancestor, the second reversed."""
    trails = ([a], [b])
    owner = {a: 0, b: 1}
    side = 0
    while True:
        up = parent[trails[side][-1]]
        if up is not None:
            if owner.setdefault(up, side) != side:
                break
            trails[side].append(up)
        side ^= 1
    other = trails[1 - side]
    del other[other.index(up) :]
    return trails[0] + trails[1][::-1]


# ---------------------------------------------------------------------------
# Edge-weight lasso certificate (exact rank of the path-incidence matrix)
# ---------------------------------------------------------------------------


#: Prime modulus of the fast rank test; below 2**31, so the product of two
#: residues fits in int64.
_RANK_PRIME = 2**31 - 1


def integer_matrix_rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank over the rationals of an integer matrix, exact.

    The rank mod a prime p comes first, by numpy int64 elimination.  It
    never exceeds the rank over the rationals: a minor that is nonzero mod p
    is nonzero over the integers.  So when it reaches min(rows, columns) it
    is the answer; otherwise fraction-free (Bareiss) elimination decides,
    with no floating point.
    """
    m = [list(map(int, row)) for row in rows]
    if not m:
        return 0
    rank = _rank_mod_prime(m)
    if rank == min(len(m), len(m[0])):
        return rank
    return _bareiss_rank(m)


def _rank_mod_prime(m: list[list[int]]) -> int:
    p = _RANK_PRIME
    a = np.array([[x % p for x in row] for row in m], dtype=np.int64).reshape(len(m), -1)
    n_rows, n_cols = a.shape
    rank = 0
    for col in range(n_cols):
        nonzero = np.flatnonzero(a[rank:, col])
        if not nonzero.size:
            continue
        pivot = rank + nonzero[0]
        a[[rank, pivot]] = a[[pivot, rank]]
        top = a[rank, col:] * pow(int(a[rank, col]), -1, p) % p
        below = a[rank + 1 :, col:]
        below[:] = (below - np.outer(below[:, 0], top) % p) % p
        rank += 1
        if rank == n_rows:
            break
    return rank


def _bareiss_rank(m: list[list[int]]) -> int:
    """Rank by fraction-free (Bareiss) elimination; overwrites *m*."""
    n_rows, n_cols = len(m), len(m[0])
    rank = 0
    prev = 1
    for col in range(n_cols):
        pivot = next((r for r in range(rank, n_rows) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        p = m[rank][col]
        for r in range(rank + 1, n_rows):
            factor = m[r][col]
            row = m[r]
            top = m[rank]
            for c in range(n_cols):
                row[c] = (row[c] * p - factor * top[c]) // prev
        prev = p
        rank += 1
        if rank == n_rows:
            break
    return rank


def path_incidence_matrix(tree: XTree, cords: Iterable[Cord]) -> list[list[int]]:
    """0/1 matrix: one row per cord (sorted), one column per edge (sorted),
    1 where the edge lies on the cord's leaf path; read from the tree's side
    bitsets by _path_rows, with no path walked."""
    bit = {t: i for i, t in enumerate(tree._index.taxa)}
    cords = sorted(_cords_over(cords, tree))
    sides = [tree._side_bits[u, v] for u, v, _ in tree._edges]
    return _path_rows(sides, len(bit), [bit[c.a] for c in cords], [bit[c.b] for c in cords]).tolist()


def _path_rows(sides: Sequence[int], n: int, a: list[int], b: list[int]) -> np.ndarray:
    """The 0/1 path-incidence rows of taxon pairs a[k], b[k] over n taxa, a
    column per edge side (a leaf bitset): an edge is on the a-b path exactly
    when its side holds exactly one of a and b."""
    width = (n + 7) // 8
    packed = np.frombuffer(b"".join(s.to_bytes(width, "little") for s in sides), np.uint8).reshape(-1, width)
    held = np.unpackbits(packed, axis=1, count=n, bitorder="little").T.copy()  # taxa x edges
    return held[a] ^ held[b]


def edge_weight_lasso_certificate(tree: XTree, cords: Iterable[Cord]) -> bool:
    """True iff the distances on the cords determine the edge weights
    uniquely: the path-incidence matrix has full column rank 2n-3.

    When is_shellable says L is shellable, the answer is True with no
    elimination.  Each shelling step's four-point identity d(x,z) =
    d(x,u)+d(y,z)-d(y,u) holds for every weighting of T, so it is a linear
    identity between rows, and the rows of L span the row of every pair,
    whose matrix has full column rank on a tree without degree-2 vertices.
    The argument holds for any complete shelling, and a verdict that
    is_shellable recorded is read first.  Otherwise the rank decides.
    """
    if not tree.is_fully_resolved():
        raise TreeError("the rank certificate assumes a fully-resolved tree")
    bound = _bind(cords, tree)
    shellable = bound.shellable
    if shellable is None and len(bound.cords) >= len(tree._edges):
        shellable = _shelling(tree, bound).is_complete
    return shellable or _full_rank(tree, bound.cords)


def _full_rank(tree: XTree, cords: Collection[Cord]) -> bool:
    """The certificate past its shelling shortcut: whether the path-incidence
    matrix M has full column rank, with no matrix built when L has fewer
    cords than T has edges or is no cover.  A non-cover has an interior
    vertex v with sides A and B that no cord joins.  Put +1 on v's edges
    into A and into B, and -1 on its third edge: a cord's path through v
    takes the third edge and one other, any other path none of v's edges,
    so this w is nonzero and M w = 0."""
    n_edges = len(tree._edges)
    if len(cords) < n_edges or not is_cover(tree, cords):
        return False
    return integer_matrix_rank(path_incidence_matrix(tree, cords)) == n_edges


# ---------------------------------------------------------------------------
# Topological-lasso oracle (small n, exact, pruned by forced quartets)
# ---------------------------------------------------------------------------

MAX_ORACLE_TAXA = 9

#: Relative margin on every float test of the oracle's pruning: far above the
#: rounding of the few additions each bound or sum takes (about 1e-15).
_ROUNDING = 1e-12


def all_topologies(taxa: Sequence[str]):
    """Yield every fully-resolved tree topology on the taxa (unit weights),
    in a deterministic order: (2n-5)!! trees, each exactly once."""
    for edges, _, leaf_of in _topologies(sorted(taxa), {}):
        yield XTree([(u, v, 1.0) for u, v in edges], leaf_of)


def _topologies(taxa: Sequence[str], forbidden: Mapping[int, Sequence[tuple[int, int]]]):
    """Stepwise leaf insertion over *taxa*, depth first: taxon i splits each
    edge of the tree on taxa[:i] in turn.  forbidden[i] holds pairings of
    4-taxon sets whose largest taxon index is i, as leaf bitsets of the two
    pairs; a partial tree displaying one after taxon i is inserted is dropped
    with all its completions.  That is exact: inserting a leaf leaves the
    quartets on the earlier leaves as they were.

    Each edge (u, v) carries the bitset of the taxa on v's side.  Inserting
    taxon i into edge k adds it to v's side of every edge whose v side holds
    edge k, that is, one side of edge k.  A side s displays the pairing p|q
    when it holds one pair whole and nothing of the other, that is, when
    s & (p | q) is p or q; (p | q, p, q) is taken once per level.  Each tree
    comes as (edges, sides, leaf labels by vertex), so a caller that needs
    only its splits builds no XTree.
    """
    if len(taxa) < 3:
        raise ValueError("topology enumeration needs at least 3 taxa")

    banned = [[(p | q, p, q) for p, q in forbidden.get(i, ())] for i in range(len(taxa))]

    def expand(edges, sides, leaf_of, next_id, i):
        if i == len(taxa):
            yield edges, sides, leaf_of
            return
        leaf, mid, bit, seen = next_id, next_id + 1, 1 << i, (1 << i) - 1
        for k in range(len(edges)):
            u, v = edges[k]
            below, above = sides[k], seen & ~sides[k]
            new_sides = [
                s | bit if not below & ~s or not above & ~s else s for s in sides[:k] + sides[k + 1 :]
            ] + [below | bit, below, bit]
            if any(s & m == p or s & m == q for m, p, q in banned[i] for s in new_sides):
                continue
            new_edges = edges[:k] + edges[k + 1 :] + [(u, mid), (mid, v), (mid, leaf)]
            new_leaf_of = dict(leaf_of)
            new_leaf_of[leaf] = taxa[i]
            yield from expand(new_edges, new_sides, new_leaf_of, next_id + 2, i + 1)

    center = 3
    base_edges = [(0, center), (1, center), (2, center)]
    base_leaves = {0: taxa[0], 1: taxa[1], 2: taxa[2]}
    yield from expand(base_edges, [0b110, 0b101, 0b011], base_leaves, 4, 3)


def _surely_below(low, high) -> bool:
    """Whether every metric within the (value, error) bounds of the cords has
    a smaller sum over the pair *low* than over the pair *high*, with the
    float test's own rounding covered."""
    (v1, e1), (v2, e2) = low
    (v3, e3), (v4, e4) = high
    slack = e1 + e2 + e3 + e4
    return (v3 + v4) - (v1 + v2) > slack + _ROUNDING * (abs(v1) + abs(v2) + abs(v3) + abs(v4) + slack)


def _forbidden_pairings(n: int, pairs: Sequence[tuple[int, int]], values: Sequence[float], accept: float):
    """Pairings of 4-taxon sets over taxon indices 0..n-1 that no tree within
    *accept* of *values* on every cord in *pairs* (p < q) can display, keyed
    by the largest taxon index of the set, as in _topologies.

    Every accepted fit d' is a tree metric within a bound (value, error) on
    each cord: the given value and *accept* on the given cords, plus
    rounding; d'(P) is its sum over the two cords of a pairing P.  A cord xz
    of a 4-taxon set {x, z, p, q} whose other five cords are bounded gets a
    bound when one of the pairings xp|zq and xq|zp, say P, has a sum surely
    below the other's, Q: below for every metric within the bounds.  Then
    d'(P) < d'(Q), so under the four-point condition d' displays P and the
    pairing xz|pq has the sum d'(Q): d'(xz) = d'(Q) - d'(pq) lies within
    the three errors used (plus rounding) of Q's summed values less pq's.
    Each bound holds on its own, whatever the order of derivation, which
    changes only how tight the bounds are.

    The bounds close on _missing_loop, the closures' driver, over the
    partner bitsets of the bounded cords: the test of xz takes p < q in
    K(x) & K(z) with pq bounded, in lexicographic order, and the first set
    with a sure pairing bounds xz.  A bound is written once and never
    changes, so a set's verdict is the same whenever it is tested, and the
    loop stops when no missing cord has a ready set with a sure pairing.

    When d'(P) < d'(Q) is sure for two pairings P and Q of a 4-taxon set,
    both with bounded cords, every pairing but P is forbidden: a tree with
    non-negative weights that displays pairing R has d'(R) no larger than
    the other two sums, which are equal.  One pass reads these from the
    final bounds, over the sets a < b < c < d in lexicographic order, but
    only those in which two pairings have bounded cords, found on the
    bitsets: the others forbid nothing.  Each pairing's summed value is
    taken once, and _surely_below runs, as written, only on a positive gap
    between two sums: its right side is at least the slack, a sum of
    errors, which are >= 0, so a gap <= 0 never passes.
    """
    bound, bounded = {}, [0] * n  # each bound under both orders of its ends; partner bitsets
    for (p, q), v in zip(pairs, values):
        bound[p, q] = bound[q, p] = (v, accept + _ROUNDING * (v + accept))
        bounded[p] |= 1 << q
        bounded[q] |= 1 << p

    def test(x, z):
        common = bounded[x] & bounded[z]
        for p in _bit_indices(common):
            for q in _bit_indices(common & bounded[p] & ~((2 << p) - 1)):
                one, two = (bound[x, p], bound[z, q]), (bound[x, q], bound[z, p])
                for low, high in ((one, two), (two, one)):
                    if _surely_below(low, high):
                        used = (*high, bound[p, q])
                        value = high[0][0] + high[1][0] - bound[p, q][0]
                        error = sum(e for _, e in used) + _ROUNDING * sum(abs(w) + e for w, e in used)
                        bound[x, z] = bound[z, x] = (value, error)
                        return True
        return False

    _missing_loop(bounded, range(n), test)

    forbidden: dict[int, list[tuple[int, int]]] = {}
    for a, b, c in itertools.combinations(range(n), 3):
        # With d > c, ab|cd has both cords bounded when ab is and d is in
        # K(c), ac|bd when ac is and d is in K(b), ad|bc when bc is and d is
        # in K(a): only the sets in which two pairings have are read.
        ka, kb = bounded[a], bounded[b]
        ab_cd = bounded[c] if ka >> b & 1 else 0
        ac_bd = kb if ka >> c & 1 else 0
        ad_bc = ka if kb >> c & 1 else 0
        for d in _bit_indices((ab_cd & ac_bd | ab_cd & ad_bc | ac_bd & ad_bc) >> c + 1 << c + 1):
            orders = ((a, b, c, d), (a, c, b, d), (a, d, b, c))
            sums = []  # (j, summed value, bounds) of pairing j = wx|yz, both cords bounded
            for j, ((w, x, y, z), mask) in enumerate(zip(orders, (ab_cd, ac_bd, ad_bc))):
                if mask >> d & 1:
                    pair = bound[w, x], bound[y, z]
                    sums.append((j, pair[0][0] + pair[1][0], pair))
            banned = 0
            for (j, s, one), (k, t, two) in itertools.combinations(sums, 2):
                # A gap <= 0 never passes _surely_below, whose slack is >= 0.
                if t - s > 0 and _surely_below(one, two):
                    banned |= 7 ^ 1 << j
                elif s - t > 0 and _surely_below(two, one):
                    banned |= 7 ^ 1 << k
            for j, (w, x, y, z) in enumerate(orders):
                if banned >> j & 1:
                    forbidden.setdefault(d, []).append(((1 << w) | (1 << x), (1 << y) | (1 << z)))
    return forbidden


def _cannot_fit(a_mat: np.ndarray, b: np.ndarray, accept: float) -> bool:
    """Whether a non-negative least-squares fit of the 0/1 path matrix
    *a_mat* (cords x edges) to *b* proves that no w >= 0 has
    |a_mat w - b| <= accept on every cord.

    Let r = b - A w* for the NNLS solution w*, g = A^T r, and U_j the least
    b_i + accept over the cords i whose path holds edge j.  Any such w has
    w_j <= (A w)_i <= U_j on each of these cords, so

        r.b = r.(b - A w) + g.w <= |r|_1 accept + sum_j max(g_j, 0) U_j.

    When r.b exceeds the right side by more than a _ROUNDING-relative margin
    on the magnitudes summed, which also covers the rounding of the oracle's
    residual check, no weighting passes that check.  The bound holds for
    any r, so w* need not be exact; an NNLS stopped at its iteration cap, or
    a value that is not finite, proves nothing.
    """
    from scipy.optimize import nnls

    try:
        w, _ = nnls(a_mat, b)
    except RuntimeError:
        return False
    with np.errstate(over="ignore", invalid="ignore"):
        r = b - a_mat @ w
        g = a_mat.T @ r
        rising = g > 0  # an edge on no cord's path has g_j = 0 and no bound
        upper = np.where(a_mat[:, rising] > 0, (b + accept)[:, None], np.inf).min(axis=0)
        pushed = float(g[rising] @ upper)
        slack = float(np.abs(r).sum()) * accept
        gap = float(r @ b) - pushed - slack
        size = float(np.abs(r) @ b) + pushed + slack
    return math.isfinite(gap) and math.isfinite(size) and gap > _ROUNDING * size


def topological_lasso_oracle(
    tree: XTree,
    cords: Iterable[Cord],
    eps: float = DEFAULT_EPSILON,
) -> XTree | None:
    """Search for a different tree fitting the induced distances on L.

    Goes through every alternative fully-resolved topology and asks, by
    linear feasibility, whether some weighting with non-negative pendant
    edges and non-negative interior edges reproduces the L-distances of the
    input tree.  Interior edges are allowed to hit zero: such a fit is
    returned with the zero edges contracted, i.e. the witness may be
    multifurcating (a properly weighted tree metrically identical to the
    degenerate fit).  Returns the first witness in enumeration order, with
    its fitted weights, or None when no alternative fits -- in which case L
    is a topological lasso for this weighting ("generically topological":
    other weightings of the input tree are not examined).

    The search is exact, with pruning.  A fit is accepted only when its
    residual on every cord is at most 2*fit_tol, so every accepted metric
    lies within 2*fit_tol (plus rounding) of the input on each given cord.
    The oracle's own closure of these bounds, not the extension rule's
    engine, decides which cords are derived (_forbidden_pairings, on the
    closures' driver _missing_loop): a cord is bounded by any quartet whose
    sum gap exceeds its bounds' slack, with the summed bounds of the three
    cords its value comes from, until no missing cord has such a quartet;
    one pass over the 4-taxon sets with two bounded pairings then reads the
    pairings.  When one pairing of a 4-taxon set has a four-point sum surely
    below another's, every accepted fit displays that pairing (the
    displayed pairing's sum is the smallest, the other two are equal), so
    the enumeration drops every partial tree displaying another pairing of
    the set, before any LP.  A dropped candidate could not have passed the residual check and
    the survivors keep their order, so the witness is the one the
    exhaustive search returns.  A candidate with the input tree's splits
    is skipped on its leaf bitsets (the input's from its rooted index), and
    each candidate's matrix is read from its edge sides (_path_rows): only
    the witness is built as an XTree.  The distances are tree.distance on
    each cord, which induced_distance equals bit for bit.

    Before its LP, each candidate is fitted by non-negative least squares,
    and skipped when the residual proves that no w >= 0 lies within
    2*fit_tol of the distances on every cord (_cannot_fit, which states the
    proof).  Every weighting the LP could return is such a w, so a skipped
    candidate is one the residual check would reject; the LPs left run in
    the same order on the same data, and the witness and its weights keep
    their bits.  The distances are first divided by a power of two that
    brings them below 2**64, as HiGHS reads any bound from 1e20 up as
    infinite; the witness's weights and the contraction tolerance are
    scaled back, so below 2**64 nothing changes.  Legal weights whose cord
    distances pass the float range raise TreeError.

    Each LP minimises the interior weight subject to the rows A w <= b +
    fit_tol and -A w <= -(b - fit_tol), with w >= 0, through milp with no
    integer variable: one LinearConstraint with no lower bound, HiGHS's
    dual simplex with presolve, as linprog(method="highs") ran it, with
    fewer options for the wrapper to check.  HiGHS then solves the same
    model with the same settings but one: milp leaves output_flag on, and
    with it on HiGHS can end on another optimal vertex of a degenerate LP
    (it did on one of the 129 LPs of a 200-case test sweep), so it is
    turned off as linprog turns it off.  The same model and settings
    give the same x bit for bit, and so the same witness and weights.
    """
    from scipy.optimize import LinearConstraint, milp

    taxa = sorted(tree.taxa)
    if len(taxa) > MAX_ORACLE_TAXA:
        raise ValueError(f"oracle supports at most {MAX_ORACLE_TAXA} taxa, got {len(taxa)}")
    if not tree.is_fully_resolved():
        raise TreeError("the oracle assumes a fully-resolved input tree")
    if not tree.is_properly_weighted():
        raise TreeError("the oracle needs a proper edge weighting")
    cords = sorted(_cords_over(cords, tree))
    if not cords:
        raise ValueError("oracle needs a non-empty cord set")

    try:
        distances = np.array([tree.distance(x, y) for x, y in cords])
    except OverflowError:  # legal weights whose path sums pass the float range
        raise TreeError("topological oracle: a cord distance overflows the float range") from None
    # In cord order, scaled by a power of two below 2**64: HiGHS reads any
    # bound from 1e20 up as infinite.
    scale = 2.0 ** max(0, math.frexp(float(np.max(distances)))[1] - 64)
    b = distances / scale
    fit_tol = max(1e-7, eps) * max(1.0, float(np.max(np.abs(b))))
    accept = 2 * fit_tol
    index = {t: i for i, t in enumerate(taxa)}
    forbidden = _forbidden_pairings(len(taxa), [(index[x], index[y]) for x, y in cords], b.tolist(), accept)
    # Splits as the side without taxon 0, of the input tree and of each candidate.
    rooted, full = tree._index, (1 << len(taxa)) - 1
    own_splits = {bits ^ full if bits & 1 else bits for v, bits in rooted.below.items() if rooted.parent[v] is not None}

    ends = [index[c.a] for c in cords], [index[c.b] for c in cords]
    for bare, sides, leaf_of in _topologies(taxa, forbidden):
        if {bits ^ full if bits & 1 else bits for bits in sides} == own_splits:
            continue
        # The LP's columns in the order XTree.edges() would give them.
        edges, sides = zip(*sorted(((min(e), max(e)), bits) for e, bits in zip(bare, sides)))
        a_mat = _path_rows(sides, len(taxa), *ends).astype(float)
        if _cannot_fit(a_mat, b, accept):
            continue
        # Minimising the interior weight makes degenerate fits land exactly
        # on the boundary, so the contraction below is decisive.
        interior = np.array([0.0 if u in leaf_of or v in leaf_of else 1.0 for u, v in edges])
        rows = LinearConstraint(np.vstack([a_mat, -a_mat]), -np.inf, np.concatenate([b + fit_tol, -(b - fit_tol)]))
        with warnings.catch_warnings():  # milp hands output_flag to HiGHS as given, and says so
            warnings.filterwarnings("ignore", "Unrecognized options", RuntimeWarning)
            res = milp(interior, constraints=rows, bounds=(0, np.inf), options={"output_flag": False})
        if not res.success:
            continue
        weights = np.maximum(res.x, 0.0)
        if np.max(np.abs(a_mat @ weights - b)) > accept:
            continue
        return _contract_tiny_interior(edges, leaf_of, weights * scale, 10 * fit_tol * scale)
    return None


def _contract_tiny_interior(edges, leaf_of: Mapping[int, str], weights, tol: float) -> XTree:
    """The fitted tree on the sorted *edges* (u < v), each with its weight,
    and the taxa of the leaves in *leaf_of*, with interior edges of ~zero
    weight contracted."""
    parent: dict[int, int] = {}

    def find(v: int) -> int:
        while v in parent:
            v = parent[v]
        return v

    for (u, v), w in zip(edges, weights):
        if u not in leaf_of and v not in leaf_of and w <= tol:
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[max(ru, rv)] = min(ru, rv)

    merged = [(find(u), find(v), float(w)) for (u, v), w in zip(edges, weights) if find(u) != find(v)]
    return XTree(merged, {find(v): t for v, t in leaf_of.items()})
