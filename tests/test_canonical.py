"""Property tests for the interned core and canonical labeling.

Three contracts, each cross-checked against an independent oracle:

* :func:`~repro.structures.canonical.canonical_key` is a *complete*
  isomorphism invariant — equal keys exactly when
  ``find_isomorphism`` (the pairwise backtracking oracle, untouched by
  the interning refactor) finds a map, on random pairs, random constant
  renames and shuffled component re-assemblies;
* the interned representation is faithful — deterministic intern
  order, round-tripping rows, isolated elements preserved — and the
  interned wire format round-trips while legacy payloads still decode;
* counts through the interned engine are bit-identical to the naive
  recursive counter on the random structure-pair corpus (the legacy
  constant-based path), including mixed-type constants.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import StructureError
from repro.faults.budget import Budget, use_budget
from repro.hom.count import count_homs
from repro.hom.engine import HomEngine
from repro.hom.search import count_homomorphisms_direct
from repro.structures.canonical import canonical_key, canonical_stats, wl_colors
from repro.structures.generators import (
    cfi_pair,
    clique_structure,
    cycle_structure,
    grid_structure,
    hypercube_structure,
    paley_structure,
    path_structure,
    random_structure,
    star_structure,
)
from repro.structures.interned import InternTable, interned
from repro.structures.isomorphism import (
    are_isomorphic,
    find_isomorphism,
    neighbour_first,
)
from repro.structures.schema import Schema
from repro.structures.serialization import loads, dumps, structure_from_dict
from repro.structures.structure import Fact, Structure

SCHEMA = Schema({"R": 2, "S": 2, "P": 1, "T": 3, "N": 0})


def _random(seed: int, size=(0, 5)) -> Structure:
    rng = random.Random(seed)
    return random_structure(SCHEMA, rng.randint(*size),
                            density=rng.choice((0.1, 0.3, 0.6)), rng=rng)


def _random_rename(structure: Structure, seed: int):
    """An injective rename onto constants of mixed shapes."""
    rng = random.Random(seed)
    shapes = [
        lambda c: ("tag", rng.randint(0, 10**6), c),
        lambda c: f"c{rng.randint(0, 10**9)}_{id(c) % 97}",
        lambda c: (("deep", c), rng.randint(0, 10**6)),
    ]
    mapping = {}
    used = set()
    for constant in structure.domain():
        image = rng.choice(shapes)(constant)
        while image in used:
            image = ("salt", rng.randint(0, 10**9), image)
        used.add(image)
        mapping[constant] = image
    return structure.rename(mapping)


# ----------------------------------------------------------------------
# canonical_key ≡ isomorphism (oracle: pairwise find_isomorphism)
# ----------------------------------------------------------------------
@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_canonical_key_agrees_with_pairwise_oracle(seed):
    left, right = _random(seed), _random(seed + 1)
    same_key = canonical_key(left) == canonical_key(right)
    assert same_key == (find_isomorphism(left, right) is not None)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_canonical_key_invariant_under_random_renames(seed):
    structure = _random(seed)
    renamed = _random_rename(structure, seed + 7)
    assert canonical_key(renamed) == canonical_key(structure)
    assert are_isomorphic(structure, renamed)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_canonical_key_invariant_under_component_permutation(seed):
    """Re-assembling tagged component copies in any order (and under
    fresh per-copy renames) never changes the key of the union."""
    def assemble(parts):
        total = Structure()
        for position, part in enumerate(parts):
            total = total.union(part.tagged(position))
        return total

    rng = random.Random(seed)
    pieces = [_random(seed + i, size=(1, 3)) for i in range(3)]
    shuffled = list(pieces)
    rng.shuffle(shuffled)
    assert canonical_key(assemble(pieces)) == canonical_key(assemble(shuffled))


def test_canonical_key_on_symmetric_shapes():
    for structure in [cycle_structure(3), cycle_structure(8),
                      clique_structure(5), star_structure(4),
                      grid_structure(3, 3), path_structure(["R"] * 6),
                      hypercube_structure(4), paley_structure(13),
                      paley_structure(17)]:
        renamed = structure.rename({c: ("y", c) for c in structure.domain()})
        assert canonical_key(structure) == canonical_key(renamed)
    # direction-sensitive: out-star vs in-star
    out_star = star_structure(2)
    in_star = Structure([("R", (0, "c")), ("R", (1, "c"))])
    assert canonical_key(out_star) != canonical_key(in_star)
    # 1-WL-equal: Q3 and the Wagner graph are both 3-regular on 8 vertices
    wagner = Structure([("R", (i, (i + d) % 8)) for i in range(8)
                        for d in (1, 4, 7)])
    assert canonical_key(wagner) != canonical_key(hypercube_structure(3))


def test_canonical_key_edge_cases():
    empty = Structure()
    lonely = Structure((), domain=["v"])
    nullary = Structure([Fact("N", ())])
    assert len({canonical_key(empty), canonical_key(lonely),
                canonical_key(nullary)}) == 3
    # isolated elements change the class (the |dom| factor must survive)
    assert canonical_key(path_structure(["R"])) != \
        canonical_key(Structure([("R", (0, 1))], domain=[0, 1, 2]))
    # keys are stable byte strings, usable as SQLite/dict keys
    assert isinstance(canonical_key(empty), bytes)
    stats = canonical_stats()
    assert stats["keys"] >= 1


# ----------------------------------------------------------------------
# WL-hard families: the automorphism-pruned search
# ----------------------------------------------------------------------
@pytest.mark.parametrize("base", [cycle_structure(3), clique_structure(4)],
                         ids=["K3", "K4"])
def test_cfi_pairs_get_distinct_keys(base):
    untwisted, twisted = cfi_pair(base)
    assert canonical_key(untwisted) != canonical_key(twisted)
    assert find_isomorphism(neighbour_first(untwisted), twisted) is None
    for index, structure in enumerate((untwisted, twisted)):
        renamed = _random_rename(structure, index)
        assert canonical_key(renamed) == canonical_key(structure)
        assert find_isomorphism(neighbour_first(structure), renamed) is not None


@pytest.mark.parametrize("size", [8, 10])
def test_cliques_canonicalize_inside_a_small_step_budget(size):
    """Orbit pruning visits a few dozen nodes of a clique's search tree,
    not its ``size!`` leaves, so a 256-step budget (tripped after 320
    nodes) never fires.  The relation name keeps the clique out of the
    key cache, so the search really runs under the budget."""
    clique = clique_structure(size, relation="Kbudget")
    with use_budget(Budget(max_steps=256)):
        key = canonical_key(clique)
    renamed = clique.rename({v: ("k", -v) for v in clique.domain()})
    assert canonical_key(renamed) == key


# ----------------------------------------------------------------------
# Interned representation
# ----------------------------------------------------------------------
class TestInterned:
    def test_intern_table_roundtrip(self):
        table = InternTable()
        constants = ["a", ("t", 1), 7, "a"]
        indices = [table.intern(c) for c in constants]
        assert indices == [0, 1, 2, 0]
        assert table.constant(1) == ("t", 1)
        assert table.index("a") == 0
        assert len(table) == 3 and 7 in table

    def test_interned_structure_layout(self):
        s = Structure([("R", ("a", "b")), ("P", ("a",)), Fact("N", ())],
                      domain=["a", "b", "lonely"])
        inter = interned(s)
        assert inter.n == 3 and inter.n_active == 2
        assert list(inter.isolated_indices()) == [2]
        assert inter.table.constant(2) == "lonely"
        assert inter.arities == {"R": 2, "P": 1, "N": 0}
        assert inter.relations["N"] == ((),)
        # rows reference interned active constants only
        for _, row in inter.iter_facts():
            assert all(0 <= t < inter.n_active for t in row)

    def test_intern_order_is_deterministic(self):
        facts = [("R", ("b", "c")), ("R", ("a", "b")), ("S", ("c", "a"))]
        one = interned(Structure(facts))
        other = interned(Structure(list(reversed(facts))))
        assert one.table.constants() == other.table.constants()
        assert one.relations == other.relations

    def test_wl_colors_cover_full_domain(self):
        s = Structure([("R", ("a", "b"))], domain=["a", "b", "iso1", "iso2"])
        colors = wl_colors(interned(s))
        assert len(colors) == 4
        assert colors[2] == colors[3]  # isolated elements share a color


# ----------------------------------------------------------------------
# Interned engine ≡ legacy naive path, bit for bit
# ----------------------------------------------------------------------
@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_interned_counts_bit_identical_to_naive(seed):
    source, target = _random(seed), _random(seed + 13)
    truth = count_homomorphisms_direct(source, target)
    assert count_homs(source, target) == truth
    legacy: dict = {}
    assert count_homs(source, target, legacy) == truth  # dict-cache path


def test_interned_counts_with_mixed_constants():
    source = Structure(
        [("R", ("a", 1)), ("R", (1, ("t", 2))), ("S", (("t", 2), "a")),
         ("P", ("a",)), Fact("N", ())],
        domain=["a", 1, ("t", 2), "isolated"],
    )
    target = Structure(
        [("R", (i, j)) for i in range(3) for j in range(3)]
        + [("S", (i, j)) for i in range(3) for j in range(3)]
        + [("P", (i,)) for i in range(3)] + [Fact("N", ())],
        domain=range(3),
    )
    truth = count_homomorphisms_direct(source, target)
    engine = HomEngine()
    assert engine.count(source, target) == truth
    renamed = source.rename({c: ("r", c) for c in source.domain()})
    assert engine.count(renamed, target) == truth


# ----------------------------------------------------------------------
# Wire format v2
# ----------------------------------------------------------------------
class TestInternedWireFormat:
    def test_constants_shipped_once(self):
        from repro.structures.serialization import structure_to_dict

        bulky = ("deeply", ("nested", "tag"), 12345)
        s = Structure([("R", (bulky, "b")), ("S", (bulky, bulky)),
                       ("P", (bulky,))])
        payload = structure_to_dict(s)
        assert "constants" in payload
        encoded = payload["constants"]
        # the bulky constant appears once in the table, as indices after
        assert sum(1 for c in encoded if isinstance(c, dict)) == 1
        assert loads(dumps(s)) == s

    def test_legacy_inline_payload_still_decodes(self):
        legacy = {
            "kind": "structure",
            "schema": {"R": 2},
            "facts": [["R", ["a", {"t": ["x", 3]}]]],
            "isolated": ["c"],
        }
        s = structure_from_dict(legacy)
        assert s.has_fact("R", ("a", ("x", 3)))
        assert "c" in s.isolated_elements()

    def test_bad_index_rejected(self):
        from repro.structures.serialization import SerializationError

        for bad_terms in ([0, 5], [0, -1], [0, True]):
            with pytest.raises(SerializationError, match="index"):
                structure_from_dict({
                    "kind": "structure", "schema": {"R": 2},
                    "constants": ["a", "b"],
                    "facts": [["R", bad_terms]], "isolated": [],
                })


# ----------------------------------------------------------------------
# Fact eagerly rejects unhashable terms (satellite)
# ----------------------------------------------------------------------
class TestFactHashability:
    def test_list_term_rejected_at_construction(self):
        with pytest.raises(StructureError, match="hashable"):
            Fact("R", (["not", "hashable"],))

    def test_nested_unhashable_rejected(self):
        with pytest.raises(StructureError, match="hashable"):
            Fact("R", (("tuple", ["inner", "list"]),))

    def test_dict_and_set_terms_rejected(self):
        with pytest.raises(StructureError, match="hashable"):
            Fact("R", ({"k": 1},))
        with pytest.raises(StructureError, match="hashable"):
            Structure([("R", ({1, 2}, "b"))])

    def test_hashable_terms_still_fine(self):
        fact = Fact("R", ("a", 1, ("t", 2), frozenset({3})))
        assert fact.arity == 4
