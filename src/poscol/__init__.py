"""poscol: position colourings of graphs.

Compute, construct and verify vertex colourings whose classes are general
position, monophonic position or mutual-visibility sets (plus independent
variants): exact solvers for the six position chromatic numbers, closed-form
predictions for named graph families, the constructive colourings behind
them, and an executable NAE3-SAT reduction showing gp-colouring is hard.
"""

from .errors import BudgetExceededError, GraphInputError, Limits
from .graphs import (
    Graph,
    build_graph,
    complement,
    diameter,
    disjoint_union,
    extreme_vertices,
    is_block_graph,
    is_connected,
    is_diamond_free,
    is_disjoint_union_of_cliques,
    join,
    monophonic_diameter,
    product,
)
from .graph6 import graph6_decode, graph6_encode, graph_from_json, graph_to_json
from .position import (
    PositionKind,
    PositionWitness,
    exists_induced_path_through,
    is_maximal_position_set,
    is_position_set,
    parse_kind,
    position_number,
    position_sets_of_size,
)
from .solver import (
    BoundPair,
    CertifiedColouring,
    Colouring,
    bounds,
    check_inequality_suite,
    chromatic_number,
    chromatic_position_number,
    clique_cover_number,
    cochromatic_number,
    feasible_position_colouring,
    total_domination_number,
    verify_colouring,
)
from .families import FamilySpec, generate, parse_family
from .formulas import (
    Prediction,
    chi_gp_two_characterization,
    large_value_characterization,
    predicted_chi,
    predicted_position_number,
)
from .kirkman import TripleSystem, kirkman_triple_system
from .constructions import (
    colour_block_graph_peeling,
    colour_by_clique_cover,
    colour_by_total_domination,
    construct_colouring,
)
from .reduction import (
    NaeInstance,
    ReductionGraph,
    TriviallyNo,
    assignment_to_colouring,
    build_reduction,
    check_equivalence,
    colouring_to_assignment,
    nae_brute_force,
    normalize,
)

__all__ = [
    "BoundPair",
    "BudgetExceededError",
    "CertifiedColouring",
    "Colouring",
    "FamilySpec",
    "Graph",
    "GraphInputError",
    "Limits",
    "NaeInstance",
    "PositionKind",
    "PositionWitness",
    "Prediction",
    "ReductionGraph",
    "TripleSystem",
    "TriviallyNo",
    "assignment_to_colouring",
    "bounds",
    "build_graph",
    "build_reduction",
    "check_equivalence",
    "check_inequality_suite",
    "chi_gp_two_characterization",
    "chromatic_number",
    "chromatic_position_number",
    "clique_cover_number",
    "cochromatic_number",
    "colour_block_graph_peeling",
    "colour_by_clique_cover",
    "colour_by_total_domination",
    "colouring_to_assignment",
    "complement",
    "construct_colouring",
    "diameter",
    "disjoint_union",
    "exists_induced_path_through",
    "extreme_vertices",
    "feasible_position_colouring",
    "generate",
    "graph6_decode",
    "graph6_encode",
    "graph_from_json",
    "graph_to_json",
    "is_block_graph",
    "is_connected",
    "is_diamond_free",
    "is_disjoint_union_of_cliques",
    "is_maximal_position_set",
    "is_position_set",
    "join",
    "kirkman_triple_system",
    "large_value_characterization",
    "monophonic_diameter",
    "nae_brute_force",
    "normalize",
    "parse_family",
    "parse_kind",
    "position_number",
    "position_sets_of_size",
    "predicted_chi",
    "predicted_position_number",
    "product",
    "total_domination_number",
    "verify_colouring",
]
