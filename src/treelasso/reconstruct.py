"""End-to-end reconstruction: close the partial distances, then rebuild the
tree and its edge weights with Neighbor-Joining, and verify the result.

On additive (tree-metric) input NJ recovers the unique fully-resolved tree
exactly, up to float accumulation; the pipeline therefore finishes by
checking the output tree against every *input* distance, so corrupt or
non-additive data cannot slip through the closure unnoticed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cords import Cord, PartialDistance
from .lasso import ClosureTrace, closure
from .tolerance import DEFAULT_EPSILON
from .tree import XTree

#: Absolute tolerance for the final tree-against-input check; looser than the
#: closure epsilon to absorb NJ float accumulation over ~n agglomeration steps.
VERIFY_EPSILON = 1e-6


class NonAdditiveError(ValueError):
    """The distances are not the restriction of any tree metric."""


def neighbor_joining(d: PartialDistance, eps: float = DEFAULT_EPSILON) -> XTree:
    """Classical agglomerative NJ on a complete distance map.

    Joins the pair minimising the Q-criterion, assigns branch lengths by the
    two-point formulas, reduces the matrix, and solves the 3-taxon core in
    closed form.  Exact on additive input.  Branch-length estimates below
    -eps (relative) raise NonAdditiveError; estimates in [-eps, 0) clamp
    to 0.  Ties in the Q-criterion break towards the lexicographically
    smallest taxon pair, so the output is deterministic.
    """
    taxa = sorted(d.taxa)
    n = len(taxa)
    if n < 2:
        raise ValueError("neighbor joining needs at least 2 taxa")
    missing = n * (n - 1) // 2 - len(d)
    if missing:
        raise ValueError(f"distance map is not total: {missing} cord(s) missing")

    dist = np.zeros((n, n))
    for i, x in enumerate(taxa):
        for j in range(i + 1, n):
            dist[i, j] = dist[j, i] = d[Cord(x, taxa[j])]
    tol = eps * max(1.0, float(dist.max()))

    def checked(length: float, context: str) -> float:
        if length < -tol:
            raise NonAdditiveError(f"negative branch length {length} at {context}")
        return max(length, 0.0)

    next_vertex = n
    nodes = list(range(n))  # vertex ids of the active rows
    edges: list[tuple[int, int, float]] = []

    while len(nodes) > 3:
        m = dist.shape[0]
        row_sums = dist.sum(axis=1)
        q = (m - 2) * dist - row_sums[:, None] - row_sums[None, :]
        np.fill_diagonal(q, np.inf)
        i, j = divmod(int(np.argmin(q)), m)
        if i > j:
            i, j = j, i
        dij = dist[i, j]
        li = 0.5 * dij + (row_sums[i] - row_sums[j]) / (2 * (m - 2))
        lj = dij - li
        u = next_vertex
        next_vertex += 1
        edges.append((nodes[i], u, checked(li, f"join {i},{j}")))
        edges.append((nodes[j], u, checked(lj, f"join {i},{j}")))

        new_row = 0.5 * (dist[i, :] + dist[j, :] - dij)
        dist[i, :] = new_row
        dist[:, i] = new_row
        dist[i, i] = 0.0
        dist = np.delete(np.delete(dist, j, axis=0), j, axis=1)
        nodes[i] = u
        del nodes[j]

    if len(nodes) == 3:
        d01, d02, d12 = dist[0, 1], dist[0, 2], dist[1, 2]
        center = next_vertex
        edges.append((nodes[0], center, checked((d01 + d02 - d12) / 2.0, "3-taxon solve")))
        edges.append((nodes[1], center, checked((d01 + d12 - d02) / 2.0, "3-taxon solve")))
        edges.append((nodes[2], center, checked((d02 + d12 - d01) / 2.0, "3-taxon solve")))
    else:  # exactly two taxa
        edges.append((nodes[0], nodes[1], checked(dist[0, 1], "2-taxon solve")))

    return XTree(edges, {i: taxa[i] for i in range(n)})


@dataclass(frozen=True)
class Reconstruction:
    """Outcome of the pipeline: a tree on success, the closure trace always,
    and the cords the closure could not reach (empty on success)."""

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
    """Close the distances under the extension rule, then run NJ and verify.

    Succeeds whenever the cord set contains a shellable lasso of the source
    tree and the values are its induced metric.  An incomplete closure is a
    structured result (the missing cords say which distances to measure
    next), not an error.  Inconsistent or non-additive input raises
    InconsistentDistanceError / NonAdditiveError.
    """
    trace = closure(d, eps=eps, exact_rational=exact_rational)
    if not trace.is_complete:
        return Reconstruction(None, trace, trace.missing)
    tree = neighbor_joining(trace.final, eps=eps)
    for cord in d:
        reproduced = tree.distance(cord.a, cord.b)
        if abs(reproduced - d[cord]) > verify_eps:
            raise NonAdditiveError(
                f"reconstructed tree gives {reproduced} for {cord}, input says {d[cord]}"
            )
    return Reconstruction(tree, trace, frozenset())
