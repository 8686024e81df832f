"""Exact computation with matroids and flag matroids on small ground sets.

The package namespace is lazy (PEP 562): `flagmatroids.FlagMatroid` imports
`flag_core` on first access, and `import flagmatroids.<module>` loads that
module and its own imports only, so a process pays for what it uses."""

import sys

_EXPORTS = {
    "flag_core": """FlagMatroid basis_flag check_flag_axioms chop flag_contract
        flag_delete flag_dual flag_interval flag_has_minor flag_isomorphic
        flag_matroid flag_minor flag_rank from_feasible_sets from_sequence
        independent_flag spanning_flag""",
    "gf_linalg": "GFMatrix FieldPrime matrix",
    "graphic": """MultiGraph PartitionChain counterexample_harness cycle_matroid
        graphic_flag graphic_major quotient_graph_matroid
        reference_counterexample_config""",
    "lifts_majors": """LiftWitnessSequence MajorStructure elementary_witness
        enumerate_fillings is_full is_lift lift_witness_sequence search_major
        verify_major verify_quotient_pair""",
    "matroid_core": """Matroid circuits closure contract delete dual flats
        has_minor_isomorphic_to is_binary is_graphic is_isomorphic is_ternary
        linear_matroid matroid_from_bases matroid_from_independent_sets minor
        rank_of uniform""",
    "representability": """FlagRepresentation decide dual_representation
        flag_from_matrix is_representable_via_fillings
        major_from_representation projectively_equivalent search_representation
        stitch_representations uniform_flag_representation""",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}
_SUBMODULES = {*_EXPORTS, "bitset", "cli", "errors", "frozen", "jsonio"}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    """A submodule, imported on first access, or a re-exported name, read
    from its module and kept in the namespace."""
    if name in _SUBMODULES:
        __import__(f"{__name__}.{name}")
        return sys.modules[f"{__name__}.{name}"]
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(__getattr__(_MODULE_OF[name]), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
