"""The package namespace is lazy: `import flagmatroids.<module>` loads that
module and its own imports only, and each name the package used to import
eagerly resolves on first access to the same object as before.

`EAGER_EXPORTS` is the reference: the names `__init__.py` imported from each
module before the namespace became lazy."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import flagmatroids

EAGER_EXPORTS = {
    "flag_core": [
        "FlagMatroid", "basis_flag", "check_flag_axioms", "chop", "flag_contract",
        "flag_delete", "flag_dual", "flag_interval", "flag_has_minor", "flag_isomorphic",
        "flag_matroid", "flag_minor", "flag_rank", "from_feasible_sets", "from_sequence",
        "independent_flag", "spanning_flag",
    ],
    "gf_linalg": ["GFMatrix", "FieldPrime", "matrix"],
    "graphic": [
        "MultiGraph", "PartitionChain", "counterexample_harness", "cycle_matroid",
        "graphic_flag", "graphic_major", "quotient_graph_matroid",
        "reference_counterexample_config",
    ],
    "lifts_majors": [
        "LiftWitnessSequence", "MajorStructure", "elementary_witness", "enumerate_fillings",
        "is_full", "is_lift", "lift_witness_sequence", "search_major", "verify_major",
        "verify_quotient_pair",
    ],
    "matroid_core": [
        "Matroid", "circuits", "closure", "contract", "delete", "dual", "flats",
        "has_minor_isomorphic_to", "is_binary", "is_graphic", "is_isomorphic", "is_ternary",
        "linear_matroid", "matroid_from_bases", "matroid_from_independent_sets", "minor",
        "rank_of", "uniform",
    ],
    "representability": [
        "FlagRepresentation", "decide", "dual_representation", "flag_from_matrix",
        "is_representable_via_fillings", "major_from_representation",
        "projectively_equivalent", "search_representation", "stitch_representations",
        "uniform_flag_representation",
    ],
}
# the submodules an eager `import flagmatroids` bound as package attributes
EAGER_SUBMODULES = [
    "bitset", "errors", "flag_core", "frozen", "gf_linalg", "graphic", "lifts_majors",
    "matroid_core", "representability",
]


def test_all_lists_the_eagerly_exported_names():
    names = [name for names in EAGER_EXPORTS.values() for name in names]
    assert len(names) == 66
    assert sorted(flagmatroids.__all__) == sorted(names)


@pytest.mark.parametrize("module", sorted(EAGER_EXPORTS))
def test_each_exported_name_is_its_modules_object(module):
    mod = importlib.import_module(f"flagmatroids.{module}")
    for name in EAGER_EXPORTS[module]:
        assert getattr(flagmatroids, name) is getattr(mod, name), name
        assert name in dir(flagmatroids)


@pytest.mark.parametrize("module", EAGER_SUBMODULES)
def test_each_submodule_resolves_from_the_package(module):
    assert getattr(flagmatroids, module) is importlib.import_module(f"flagmatroids.{module}")


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        flagmatroids.no_such_name
    assert not hasattr(flagmatroids, "enumerate_elementary_coextensions")


def loaded_after(statement):
    """The flagmatroids modules a fresh interpreter holds after statement."""
    src = Path(flagmatroids.__file__).resolve().parents[1]
    probe = f"{statement}; import sys; print(' '.join(sorted(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, check=True,
    )
    return {m for m in out.stdout.split() if m.partition(".")[0] == "flagmatroids"}


def test_importing_representability_loads_no_graphic():
    loaded = loaded_after("import flagmatroids.representability")
    assert "flagmatroids.representability" in loaded
    assert "flagmatroids.graphic" not in loaded


def test_importing_matroid_core_loads_no_flag_core():
    loaded = loaded_after("import flagmatroids.matroid_core")
    assert "flagmatroids.matroid_core" in loaded
    assert "flagmatroids.flag_core" not in loaded


def test_bare_package_import_loads_no_submodule_until_a_name_is_read():
    assert loaded_after("import flagmatroids") == {"flagmatroids"}
    loaded = loaded_after("import flagmatroids; flagmatroids.graphic_flag")
    assert {"flagmatroids.graphic", "flagmatroids.flag_core"} <= loaded


def test_column_bases_on_the_hyperplane_path_loads_no_matroid_core():
    """The 2^n-bit family kernels live in `bitset`, so the GF(p) layer reads
    a 3 x 8 GF(2) matrix's bases through `_hyperplane_bases` without the
    matroid layer."""
    loaded = loaded_after(
        "from flagmatroids import gf_linalg as gl; "
        "a = gl.matrix(2, [[1,0,0,1,1,0,1,1], [0,1,0,1,0,1,1,0], [0,0,1,0,1,1,1,1]]); "
        "assert gl._hyperplanes_pay(2, 8, 3); assert len(list(gl.column_bases(a))) == 40"
    )
    assert "flagmatroids.gf_linalg" in loaded
    assert "flagmatroids.matroid_core" not in loaded
