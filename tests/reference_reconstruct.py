"""Test-only reference: the closure -> Neighbor-Joining -> verify pipeline
that answered every reconstruct before incomplete inputs were placed taxon
by taxon, and the Neighbor-Joining that filled its matrix one Cord at a
time and shrank it with np.delete.  The differential tests compare
reconstruct and neighbor_joining with them on seeded sweeps; nothing in the
library imports this module.
"""

import numpy as np

from reference_lasso import engine_closure
from treelasso import Cord, NonAdditiveError, PartialDistance, Reconstruction, XTree
from treelasso.reconstruct import VERIFY_EPSILON
from treelasso.tolerance import DEFAULT_EPSILON


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


def closure_nj_reconstruct(d, eps=DEFAULT_EPSILON, exact_rational=False, verify_eps=VERIFY_EPSILON):
    """Close the distances under the extension rule with the quartet engine
    alone (reference_lasso.engine_closure), then run NJ and verify."""
    trace = engine_closure(d, eps=eps, exact_rational=exact_rational)
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

