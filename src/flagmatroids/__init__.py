"""Exact computation with matroids and flag matroids on small ground sets."""

from .flag_core import (
    FlagMatroid,
    basis_flag,
    check_flag_axioms,
    chop,
    flag_contract,
    flag_delete,
    flag_dual,
    flag_interval,
    flag_has_minor,
    flag_isomorphic,
    flag_matroid,
    flag_minor,
    flag_rank,
    from_feasible_sets,
    from_sequence,
    independent_flag,
    spanning_flag,
)
from .gf_linalg import GFMatrix, FieldPrime, matrix
from .graphic import (
    MultiGraph,
    PartitionChain,
    counterexample_harness,
    cycle_matroid,
    graphic_flag,
    graphic_major,
    quotient_graph_matroid,
    reference_counterexample_config,
)
from .lifts_majors import (
    LiftWitnessSequence,
    MajorStructure,
    elementary_witness,
    enumerate_fillings,
    is_full,
    is_lift,
    lift_witness_sequence,
    search_major,
    verify_major,
    verify_quotient_pair,
)
from .matroid_core import (
    Matroid,
    circuits,
    closure,
    contract,
    delete,
    dual,
    flats,
    has_minor_isomorphic_to,
    is_binary,
    is_graphic,
    is_isomorphic,
    is_ternary,
    linear_matroid,
    matroid_from_bases,
    matroid_from_independent_sets,
    minor,
    rank_of,
    uniform,
)
from .representability import (
    FlagRepresentation,
    decide,
    dual_representation,
    flag_from_matrix,
    is_representable_via_fillings,
    major_from_representation,
    projectively_equivalent,
    search_representation,
    stitch_representations,
    uniform_flag_representation,
)

__version__ = "0.1.0"
