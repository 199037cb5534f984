"""treelasso: reconstructing edge-weighted trees from partial leaf distances.

The library works with distances given only on a subset of leaf pairs (a
cord set).  It can decide what such a set is good for (cover / triplet
cover / shellable lasso / 2d-tree / edge-weight lasso), generate cord sets
with guaranteed reconstruction power from stable transversals, and rebuild
the tree plus its edge weights whenever the cords contain a shellable lasso.
"""

from .cords import (
    Cord,
    CordFormatError,
    GraphChecks,
    PartialDistance,
    all_cords,
    format_cord_distances,
    format_cord_set,
    full_distance,
    graph_necessary_checks,
    induced_distance,
    parse_cord_distances,
    parse_cord_set,
)
from .cover import (
    closest_leaf_transversal,
    is_cover,
    is_stable,
    is_transversal,
    is_triplet_cover,
    min_order_transversal,
    stability_violation,
    triplet_cover,
)
from .lasso import (
    ClosureStep,
    ClosureTrace,
    InconsistentDistanceError,
    ShellingResult,
    ShellingStep,
    all_topologies,
    edge_weight_lasso_certificate,
    integer_matrix_rank,
    is_2dtree,
    is_shellable,
    path_incidence_matrix,
    topological_lasso_oracle,
    tree_from_2dtree,
    verify_2dtree_ordering,
    verify_shelling,
)
from .reconstruct import (
    NonAdditiveError,
    Reconstruction,
    closure,
    neighbor_joining,
    reconstruct,
)
from .tolerance import DEFAULT_EPSILON
from .tree import (
    NewickError,
    TreeError,
    XTree,
    is_equivalent,
    parse_newick,
    random_tree,
    split_weight_delta,
    write_newick,
)

__version__ = "0.1.0"

__all__ = [
    "Cord",
    "CordFormatError",
    "ClosureStep",
    "ClosureTrace",
    "DEFAULT_EPSILON",
    "GraphChecks",
    "InconsistentDistanceError",
    "NewickError",
    "NonAdditiveError",
    "PartialDistance",
    "Reconstruction",
    "ShellingResult",
    "ShellingStep",
    "TreeError",
    "XTree",
    "all_cords",
    "all_topologies",
    "closest_leaf_transversal",
    "closure",
    "edge_weight_lasso_certificate",
    "format_cord_distances",
    "format_cord_set",
    "full_distance",
    "graph_necessary_checks",
    "induced_distance",
    "integer_matrix_rank",
    "is_2dtree",
    "is_cover",
    "is_equivalent",
    "is_shellable",
    "is_stable",
    "is_transversal",
    "is_triplet_cover",
    "min_order_transversal",
    "neighbor_joining",
    "parse_cord_distances",
    "parse_cord_set",
    "parse_newick",
    "path_incidence_matrix",
    "random_tree",
    "reconstruct",
    "split_weight_delta",
    "stability_violation",
    "topological_lasso_oracle",
    "tree_from_2dtree",
    "triplet_cover",
    "verify_2dtree_ordering",
    "verify_shelling",
    "write_newick",
]
