"""Unit tests for structure generators."""

import random

import pytest

from repro.errors import StructureError
from repro.structures.components import is_connected
from repro.structures.generators import (
    cfi_pair,
    clique_structure,
    cycle_structure,
    enumerate_structures,
    grid_structure,
    hypercube_structure,
    loop_structure,
    paley_structure,
    path_structure,
    random_connected_structure,
    random_structure,
    star_structure,
)
from repro.structures.schema import Schema


class TestDeterministicFamilies:
    def test_path(self):
        p = path_structure(["A", "B"])
        assert p.count_facts() == 2
        assert len(p.domain()) == 3
        assert p.has_fact("A", (0, 1))
        assert p.has_fact("B", (1, 2))

    def test_empty_path_is_single_vertex(self):
        p = path_structure([])
        assert p.count_facts() == 0
        assert len(p.domain()) == 1

    def test_cycle(self):
        c = cycle_structure(4)
        assert c.count_facts("R") == 4
        assert is_connected(c)

    def test_cycle_length_one_is_loop(self):
        c = cycle_structure(1)
        assert c.has_fact("R", (0, 0))

    def test_cycle_invalid(self):
        with pytest.raises(StructureError):
            cycle_structure(0)

    def test_clique(self):
        k = clique_structure(3)
        assert k.count_facts("R") == 6  # directed, no loops
        assert clique_structure(3, loops=True).count_facts("R") == 9

    def test_star(self):
        s = star_structure(3)
        assert s.count_facts("R") == 3
        assert len(s.domain()) == 4

    def test_star_zero_rays(self):
        s = star_structure(0)
        assert s.count_facts() == 0
        assert len(s.domain()) == 1

    def test_grid(self):
        g = grid_structure(2, 3)
        assert g.count_facts("H") == 2 * 2  # 2 rows x 2 horizontal edges
        assert g.count_facts("V") == 1 * 3
        assert len(g.domain()) == 6

    def test_loop_structure(self):
        s = loop_structure(["R", "S"])
        assert s.has_fact("R", ("a", "a"))
        assert s.has_fact("S", ("a", "a"))


class TestWLHardFamilies:
    @staticmethod
    def degrees(structure):
        out = {v: 0 for v in structure.domain()}
        for fact in structure.facts():
            out[fact.terms[0]] += 1
        return set(out.values())

    def test_hypercube(self):
        q = hypercube_structure(3)
        assert len(q.domain()) == 8 and q.count_facts("R") == 2 * 12
        assert q.has_fact("R", (0b010, 0b110)) and q.has_fact("R", (6, 2))
        assert self.degrees(q) == {3} and is_connected(q)
        with pytest.raises(StructureError):
            hypercube_structure(0)

    def test_paley(self):
        p = paley_structure(13)
        assert len(p.domain()) == 13 and p.count_facts("R") == 13 * 6
        assert p.has_fact("R", (0, 1)) and not p.has_fact("R", (0, 2))
        assert self.degrees(p) == {6}
        for bad in (1, 7, 9, 21):
            with pytest.raises(StructureError):
                paley_structure(bad)

    def test_cfi_pair_over_k4(self):
        untwisted, twisted = cfi_pair(clique_structure(4))
        # per base vertex: 4 even edge subsets + 2 ends for each of 3 edges
        assert len(untwisted.domain()) == len(twisted.domain()) == 40
        assert untwisted.count_facts() == twisted.count_facts() == 2 * 60
        assert self.degrees(untwisted) == self.degrees(twisted) == {3}
        assert untwisted != twisted
        assert is_connected(untwisted) and is_connected(twisted)

    def test_cfi_pair_over_a_triangle(self):
        # degree-2 gadgets: untwisted is two 9-cycles, twisted one 18-cycle
        untwisted, twisted = cfi_pair(cycle_structure(3))
        assert not is_connected(untwisted) and is_connected(twisted)
        with pytest.raises(StructureError):
            cfi_pair(loop_structure(["R"]))


class TestRandomFamilies:
    def test_random_structure_reproducible(self):
        schema = Schema({"R": 2, "U": 1})
        a = random_structure(schema, 4, 0.4, random.Random(5))
        b = random_structure(schema, 4, 0.4, random.Random(5))
        assert a == b

    def test_random_structure_bounds(self):
        schema = Schema({"R": 2})
        s = random_structure(schema, 3, 0.5, random.Random(1))
        assert len(s.domain()) == 3
        assert all(f.relation == "R" for f in s.facts())

    def test_density_extremes(self):
        schema = Schema({"R": 2})
        empty = random_structure(schema, 3, 0.0, random.Random(1))
        full = random_structure(schema, 3, 1.0, random.Random(1))
        assert empty.count_facts() == 0
        assert full.count_facts("R") == 9

    def test_ensure_nonempty(self):
        schema = Schema({"R": 2})
        s = random_structure(schema, 2, 0.0, random.Random(1), ensure_nonempty=True)
        assert s.count_facts() == 1

    def test_invalid_parameters(self):
        schema = Schema({"R": 2})
        with pytest.raises(StructureError):
            random_structure(schema, -1)
        with pytest.raises(StructureError):
            random_structure(schema, 2, density=1.5)

    def test_random_connected_is_connected(self):
        schema = Schema({"R": 2})
        for seed in range(5):
            s = random_connected_structure(schema, 4, rng=random.Random(seed))
            assert is_connected(s)

    def test_random_connected_needs_binary_relation(self):
        with pytest.raises(StructureError):
            random_connected_structure(Schema({"U": 1}), 3)


class TestEnumeration:
    def test_enumerates_all_unary_structures(self):
        schema = Schema({"U": 1})
        # size 0: 1 structure; size 1: 2; size 2: 4 -> 7 total
        structures = list(enumerate_structures(schema, 2))
        assert len(structures) == 1 + 2 + 4

    def test_enumeration_contains_empty_and_full(self):
        schema = Schema({"U": 1})
        structures = list(enumerate_structures(schema, 1))
        counts = sorted(s.count_facts() for s in structures)
        assert counts == [0, 0, 1]
