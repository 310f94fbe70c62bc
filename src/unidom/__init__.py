"""Extremal graphs with a unique minimum dominating set.

Library surface: bitmask graphs and serialization (graph), the exact
domination solver and uniqueness reports (domination), closed-form size
bounds (bounds), extremal family builders and certification (construct),
and exhaustive small-order search oracles (search).
"""

from .bounds import (
    Gamma2CaseBounds,
    bipartite_bound,
    bipartite_bound_gamma2,
    fischermann_bound,
    gamma2_case_bounds,
    min_forest_edges,
    n3g_bound,
    phi,
    star_bound,
    vizing_bound,
)
from .construct import (
    ConstructionLayout,
    VerificationCertificate,
    construct_bipartite,
    construct_fischermann,
    construct_star,
    verify_construction,
)
from .domination import (
    DominationReport,
    check_epn_condition,
    closed_neighborhoods_disjoint,
    domination_number,
    enumerate_minimum_dominating_sets,
    exterior_private_neighbors,
    is_dominating,
    is_perfectly_dominated,
    is_umd,
)
from .graph import (
    MAX_VERTICES,
    Bipartition,
    Graph,
    Graph6Error,
    are_isomorphic,
    bipartite_complement,
    bit_list,
    degree_sequence,
    emit_dot,
    emit_edge_list,
    emit_graph6,
    find_bipartition,
    from_edge_list,
    iter_bits,
    mask_of,
    parse_edge_list,
    parse_graph6,
)
from .search import (
    SearchResult,
    count_extremal_witnesses,
    max_umd_bipartite_size,
)

__all__ = [name for name in dir() if not name.startswith("_")]
