"""Test-only reference: the closure -> Neighbor-Joining -> verify pipeline
that answered every reconstruct before incomplete inputs were placed taxon
by taxon.  The differential tests compare reconstruct with it on seeded
sweeps; nothing in the library imports this module.
"""

from treelasso import NonAdditiveError, Reconstruction, closure, neighbor_joining
from treelasso.reconstruct import VERIFY_EPSILON
from treelasso.tolerance import DEFAULT_EPSILON


def closure_nj_reconstruct(d, eps=DEFAULT_EPSILON, exact_rational=False, verify_eps=VERIFY_EPSILON):
    """Close the distances under the extension rule, then run NJ and verify."""
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
