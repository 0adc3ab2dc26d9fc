"""Simplicial complexes, squarefree monomial ideals and their duality,
with an exact homological engine for cross-checking every identity.

The library computes Alexander duals, skeletons, Stanley-Reisner and
facet ideals, leaf orders and relation trees of quasi-trees, chordality
with verifiable witnesses, and multigraded Betti numbers over exactly
represented fields; the ``verification`` module re-derives each
structural identity from two independent directions on exhaustive and
seeded random instance families.
"""

from .complexes import (
    VOID_DUAL,
    SimplicialComplex,
    alexander_dual,
    complement_complex,
    contains_face,
    dimension_info,
    minimal_nonfaces,
    pure_complement,
    skeleton,
)
from .errors import DomainError, ResourceLimitError
from .graphs import (
    Graph,
    clique_complex,
    complement_graph,
    edge_ideal,
    higher_dirac_check,
    is_chordal,
    isolated_vertices,
    maximal_cliques,
    one_skeleton_graph,
    verify_cycle_witness,
    verify_elimination_witness,
)
from .homological import (
    GF2,
    RATIONALS,
    BettiTable,
    FieldChoice,
    HomologyProfile,
    betti_table,
    is_cohen_macaulay,
    projdim_and_reg,
    reduced_homology,
    shelling_order,
    taylor_betti_table,
    verify_shelling,
)
from .ideals import (
    Monomial,
    MonomialIdeal,
    complex_from_ideal,
    facet_ideal,
    graded_component_ideal,
    linear_quotients_order,
    minimalize,
    power,
    restrict_ideal,
    skeleton_ideal_from_one_skeleton,
    stanley_reisner_ideal,
    verify_linear_quotients,
)
from .quasitrees import (
    LeafReport,
    RelationTree,
    build_m_delta,
    facet_complement_generators,
    is_quasi_tree,
    leaf_order,
    leaf_report,
    minor_certificates,
    reconstruct_generators,
    reconstructs,
    relation_trees,
    relation_tree_from_edges,
    tree_minor_det,
    verify_leaf_order,
    verify_minor_certificate,
)
from .verification import SUITES, has_linear_resolution, run_all, run_suite

__version__ = "1.0.0"

__all__ = [name for name in dir() if not name.startswith("_")]
