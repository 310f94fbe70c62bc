"""Extremal graphs with a unique minimum dominating set.

Library surface: bitmask graphs and serialization (graph), the exact
domination solver and uniqueness reports (domination), closed-form size
bounds (bounds), extremal family builders and certification (construct),
and exhaustive small-order search oracles (search).
"""

from .bounds import (
    bipartite_bound,
    fischermann_bound,
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
    Graph,
    Graph6Error,
    are_isomorphic,
    bipartite_complement,
    bit_list,
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

__all__ = [
    "bipartite_bound",
    "fischermann_bound",
    "n3g_bound",
    "phi",
    "star_bound",
    "vizing_bound",
    "ConstructionLayout",
    "VerificationCertificate",
    "construct_bipartite",
    "construct_fischermann",
    "construct_star",
    "verify_construction",
    "DominationReport",
    "check_epn_condition",
    "closed_neighborhoods_disjoint",
    "domination_number",
    "enumerate_minimum_dominating_sets",
    "exterior_private_neighbors",
    "is_dominating",
    "is_perfectly_dominated",
    "is_umd",
    "MAX_VERTICES",
    "Graph",
    "Graph6Error",
    "are_isomorphic",
    "bipartite_complement",
    "bit_list",
    "emit_dot",
    "emit_edge_list",
    "emit_graph6",
    "find_bipartition",
    "from_edge_list",
    "iter_bits",
    "mask_of",
    "parse_edge_list",
    "parse_graph6",
    "SearchResult",
    "count_extremal_witnesses",
    "max_umd_bipartite_size",
]
