"""Loading a flag costs one JSON pass and one rank computation per layer.

`flag_core._layer_check` memoizes each distinct layer's `Matroid`, with its
basis-exchange verdict and witness, which `FlagMatroid.layers` returns,
and the lift test between adjacent layers is one AND of the two matroids'
memoized `flat_bits`.  `jsonio._element_mask` builds each feasible set's mask in
one pass.  The references below are the code these replaced: a fresh
`Matroid` per layer and per lift, and the list parser that checked every
element, then repeats, then clamped.  The library must give exactly what the
references give: the same witnesses, masks, exceptions, exit codes and
error documents.
"""

from __future__ import annotations

import json
import random
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import all_flags, random_prefix_chain_matrix
from flagmatroids import flag_core as fl
from flagmatroids import jsonio as io
from flagmatroids import matroid_core as mc
from flagmatroids import representability as rp
from flagmatroids.bitset import elements_of, mask_of, size_masks
from flagmatroids.errors import EmptyResult, InvalidInput, LayerNotMatroid, NotALift


# --- one rank computation per distinct layer ---------------------------------------

def test_each_distinct_layer_is_ranked_once():
    u = [mc.uniform(r, 4) for r in range(5)]
    first = [b for m in u[1:4] for b in m.bases]
    shares_two = [b for m in (u[1], u[2], u[4]) for b in m.bases]
    fl._layer_check.cache_clear()
    fl.FlagMatroid(4, first)
    assert fl._layer_check.cache_info().misses == 3
    fl.FlagMatroid(4, first)
    assert fl._layer_check.cache_info().misses == 3
    fl.FlagMatroid(4, shares_two)
    assert fl._layer_check.cache_info().misses == 4


def test_layers_are_the_memo_matroids(corpus):
    """Each layer of a valid flag is the memo's object: two flags that share
    a layer share it, reading `layers` adds no memo miss, and the matroid
    keeps the canonical tuple it is given."""
    flags = [
        io.load_flag(json.loads((corpus["dir"] / name).read_text()))
        for name in ("iu23.json", "bf7.json", "chain3.json", "gap.json")
    ]
    rng = random.Random(27)
    for p in (2, 3, 5, 7):
        for _ in range(6):
            a = random_prefix_chain_matrix(rng, p, rng.randint(1, 4), rng.randint(4, 8))
            if a is not None:
                flags.append(rp.flag_from_matrix(a, range(rng.randint(0, 1), a.rows + 1)))
    assert len(flags) > 20
    seen = {}
    for fm in flags:
        misses = fl._layer_check.cache_info().misses
        layers = fm.layers
        assert fl._layer_check.cache_info().misses == misses
        for m in layers:
            assert m is fl._layer_check(fm.n, m.bases)
            assert seen.setdefault((fm.n, m.bases), m) is m
            # a canonical tuple is kept, not copied, so the memo key is the bases
            assert mc.Matroid(fm.n, m.bases).bases is m.bases
    assert flags[0].layers[1] is flags[2].layers[1]  # U_{2,3} in both


def reference_layered_witness(n, family):
    """A fresh `Matroid` per layer, then `first_unlifted` per adjacent pair."""
    by_size = {}
    for f in sorted(set(family), key=lambda m: (m.bit_count(), elements_of(m))):
        by_size.setdefault(f.bit_count(), []).append(f)
    if not by_size:
        return ("layer", (0, None))
    layers = []
    for size, bases in by_size.items():
        m = mc.Matroid(n, bases)
        if not m.is_matroid:
            return ("layer", (size, mc.basis_exchange_witness(m.bases)))
        layers.append((size, m))
    for (s1, lower), (s2, upper) in zip(layers, layers[1:]):
        flat = mc.first_unlifted(lower.flat_bits, upper.flat_bits)
        if flat is not None:
            return ("lift", ((s1, s2), flat))
    return None


def assert_matches_reference(n, family):
    ref = reference_layered_witness(n, family)
    assert fl.layered_witness(n, family) == ref
    if not family:
        with pytest.raises(EmptyResult):
            fl.FlagMatroid(n, family)
    elif ref is None:
        assert frozenset(fl.FlagMatroid(n, family).feasible) == frozenset(family)
    elif ref[0] == "layer":
        size, (b1, b2, x) = ref[1]
        with pytest.raises(LayerNotMatroid) as exc:
            fl.FlagMatroid(n, family)
        assert str(exc.value) == f"cardinality-{size} layer fails basis exchange"
        assert exc.value.payload == {
            "size": size,
            "witness": {"B1": elements_of(b1), "B2": elements_of(b2), "x": x},
        }
    else:
        (s1, s2), flat = ref[1]
        with pytest.raises(NotALift) as exc:
            fl.FlagMatroid(n, family)
        assert str(exc.value) == f"layer {s2} is not a lift of layer {s1}"
        assert exc.value.payload == {"sizes": (s1, s2), "flat": elements_of(flat)}


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_every_family_on_at_most_3_elements(n):
    subsets = range(1 << n)
    for pick in range(1 << len(subsets)):
        assert_matches_reference(n, [s for s in subsets if pick >> s & 1])


def test_every_family_one_set_away_from_a_flag_on_4_elements():
    flags = all_flags(4)
    assert flags
    for fm in flags:
        for s in range(1 << 4):
            assert_matches_reference(4, sorted(frozenset(fm.feasible) ^ {s}))


@lru_cache(maxsize=None)
def basis_families(n, rank):
    return tuple(m.bases for m in mc.enumerate_matroids(n) if m.rank == rank)


@st.composite
def stacked_layers(draw, n=5):
    """Per cardinality: no layer, a matroid's bases or any sets of that size,
    so lift failures below a non-matroid layer occur."""
    family = []
    for size in range(n + 1):
        kind = draw(st.sampled_from(["none", "matroid", "any"]))
        if kind == "matroid":
            family += draw(st.sampled_from(basis_families(n, size)))
        elif kind == "any":
            family += draw(st.lists(st.sampled_from(size_masks(n, size)), min_size=1, unique=True))
    return family


@settings(max_examples=300)
@given(family=stacked_layers())
def test_stacked_layers_on_5_elements(family):
    assert_matches_reference(5, family)


# --- one JSON pass per feasible set ---------------------------------------------------

def reference_element_set(xs, what, n):
    """The list parser `_element_mask` replaced: every element is checked,
    then repeats, and an element at or past n is clamped to n."""
    if not isinstance(xs, list):
        raise InvalidInput(f"{what}: expected an array, got {xs!r}")
    out = []
    for x in xs:
        if isinstance(x, bool) or not isinstance(x, int) or x < 0:
            raise InvalidInput(f"{what}: expected an integer >= 0, got {x!r}")
        out.append(x)
    if len(set(out)) != len(out):
        raise InvalidInput(f"{what}: repeated element in {out!r}")
    return [min(e, n) for e in out]


def reference_element_mask(xs, what, n):
    return mask_of(reference_element_set(xs, what, n))


def outcome(load, doc):
    try:
        return ("ok", load(doc))
    except Exception as exc:  # the class and message are what is compared
        return (type(exc), str(exc), getattr(exc, "payload", None))


def outcomes(doc):
    return [outcome(load, doc) for load in (io.load_flag, io.load_raw_family)]


@settings(max_examples=200)
@given(
    n=st.integers(0, 6),
    sets=st.lists(st.lists(st.integers(0, 9), unique=True, max_size=5), max_size=8),
)
def test_valid_sets_parse_to_the_same_masks(n, sets):
    doc = {"n": n, "feasible": sets}
    want = [reference_element_mask(f, "feasible set", n) for f in sets]
    assert io._feasible_masks(doc, n) == want


ELEMENT = (
    st.integers(-2, 9)
    | st.integers(10, 10**12)
    | st.booleans()
    | st.floats(allow_nan=False)
    | st.lists(st.integers(0, 3), max_size=2)
    | st.text(max_size=2)
)


@settings(max_examples=300)
@given(n=st.integers(0, 5), sets=st.lists(st.lists(ELEMENT, max_size=4) | ELEMENT, max_size=5))
def test_any_sets_load_as_the_list_parser_loads_them(n, sets):
    doc = {"n": n, "feasible": sets}
    got = outcomes(doc)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(io, "_element_mask", reference_element_mask)
        assert got == outcomes(doc)


MALFORMED = {
    "bool": [[0], [True]],
    "float": [[0], [1.0]],
    "nested-list": [[0], [[1]]],
    "negative": [[0], [-1]],
    "set-not-an-array": [[0], 1],
    "set-an-object": [[0], {"0": 1}],
    "repeat-below-n": [[0], [1, 2, 1]],
    "same-element-past-n-twice": [[0], [7, 7]],
    "two-elements-past-n": [[0], [7, 8]],
    "past-n-then-a-later-type-error": [[7], [0, "x"]],
    "repeat-then-a-type-error": [[1, 1, "x"]],
    "past-n-twice-then-a-type-error": [[7, 8, 1.5]],
    "huge-element": [[0], [10**8]],
    "not-a-family": {"0": [0]},
}


@pytest.mark.parametrize("feasible", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_sets_fail_as_the_list_parser_fails(capture, corpus, monkeypatch, feasible):
    path = corpus["write"]("doc.json", json.dumps({"n": 3, "feasible": feasible}))
    matroid = corpus["write"]("m.json", json.dumps({"n": 3, "bases": feasible}))
    argvs = [("validate", path), ("axioms", path), ("validate", matroid)]

    def answers():
        docs = [json.loads(open(p).read()) for p in (path, matroid)]
        return outcomes(docs[0]), outcome(io.load_matroid, docs[1]), [capture(*a) for a in argvs]

    got = answers()
    for status, out, _ in got[2]:
        assert status == 2 and "error" in json.loads(out)
    monkeypatch.setattr(io, "_element_mask", reference_element_mask)
    assert got == answers()
