"""Unit tests for the query model (CQ, UCQ, path queries)."""

import pytest

from repro.errors import QueryError
from repro.queries.cq import Atom, ConjunctiveQuery, boolean_cq, cq_from_structure
from repro.queries.path import EPSILON, PathQuery, signed_word
from repro.queries.ucq import UnionOfBooleanCQs, as_ucq
from repro.structures.generators import cycle_structure
from repro.structures.isomorphism import are_isomorphic


class TestAtom:
    def test_basic(self):
        atom = Atom("R", ("x", "y"))
        assert atom.arity == 2
        assert str(atom) == "R(x, y)"

    def test_freeze(self):
        fact = Atom("R", ("x", "y")).to_fact()
        assert fact.terms == (("var", "x"), ("var", "y"))

    def test_invalid_variable(self):
        with pytest.raises(QueryError):
            Atom("R", ("",))


class TestConjunctiveQuery:
    def test_boolean(self):
        q = boolean_cq([("R", ("x", "y"))])
        assert q.is_boolean()
        assert q.arity == 0

    def test_free_variables(self):
        q = ConjunctiveQuery([("R", ("x", "y"))], free=("x",))
        assert q.arity == 1
        assert q.existential_variables() == frozenset({"y"})

    def test_duplicate_free_rejected(self):
        with pytest.raises(QueryError):
            ConjunctiveQuery([("R", ("x", "y"))], free=("x", "x"))

    @pytest.mark.parametrize("field", ["free", "extra_variables"])
    @pytest.mark.parametrize("variable", [1, 1.0, True, None, ""])
    def test_non_string_variables_rejected(self, field, variable):
        with pytest.raises(QueryError,
                           match="variables must be non-empty strings"):
            ConjunctiveQuery([("R", ("x",))], **{field: [variable]})

    def test_inconsistent_arity_error_follows_atom_order(self):
        with pytest.raises(QueryError, match="arities 1 and 2"):
            boolean_cq([("R", ("x",)), ("R", ("x", "y"))])
        with pytest.raises(QueryError, match="arities 2 and 1"):
            boolean_cq([("R", ("x", "y")), ("R", ("x",))])

    def test_duplicate_atoms_collapse(self):
        q = boolean_cq([("R", ("x", "y")), ("R", ("x", "y"))])
        assert len(q.atoms) == 1

    def test_inconsistent_arity_rejected(self):
        with pytest.raises(QueryError):
            boolean_cq([("R", ("x",)), ("R", ("x", "y"))])

    def test_frozen_body_preserves_shape(self):
        q = boolean_cq([("R", ("x", "y")), ("R", ("y", "z"))])
        body = q.frozen_body()
        assert body.count_facts("R") == 2
        assert len(body.domain()) == 3

    def test_frozen_body_keeps_isolated_variables(self):
        q = ConjunctiveQuery([("R", ("x", "y"))], extra_variables=["lonely"])
        body = q.frozen_body()
        assert ("var", "lonely") in body.domain()
        assert body.isolated_elements() == frozenset({("var", "lonely")})

    def test_free_variable_not_in_body_is_isolated(self):
        q = ConjunctiveQuery([("R", ("x", "y"))], free=("x", "w"))
        assert "w" in q.extra_variables

    def test_rename(self):
        q = boolean_cq([("R", ("x", "y"))])
        renamed = q.rename_variables({"x": "a"})
        assert Atom("R", ("a", "y")) in renamed.atoms

    def test_rename_non_injective_rejected(self):
        q = boolean_cq([("R", ("x", "y"))])
        with pytest.raises(QueryError):
            q.rename_variables({"x": "y"})

    def test_conjoin(self):
        left = boolean_cq([("R", ("x", "y"))])
        right = boolean_cq([("S", ("y", "z"))])
        combined = left.conjoin(right)
        assert len(combined.atoms) == 2

    def test_boolean_closure(self):
        q = ConjunctiveQuery([("R", ("x", "y"))], free=("x",))
        assert q.boolean_closure().is_boolean()

    def test_nullary_atom_detection(self):
        assert boolean_cq([Atom("H", ())]).has_nullary_atom()
        assert not boolean_cq([("R", ("x", "y"))]).has_nullary_atom()

    def test_cq_from_structure_roundtrip(self):
        c3 = cycle_structure(3)
        q = cq_from_structure(c3)
        assert are_isomorphic(q.frozen_body(), c3)

    def test_hashable_and_equal(self):
        a = boolean_cq([("R", ("x", "y"))])
        b = boolean_cq([("R", ("x", "y"))])
        assert a == b
        assert len({a, b}) == 1


class TestUnionOfBooleanCQs:
    def test_basic(self):
        p = boolean_cq([("P", ("x",))])
        r = boolean_cq([("R", ("x",))])
        u = UnionOfBooleanCQs([p, r])
        assert len(u.disjuncts) == 2

    def test_nonboolean_disjunct_rejected(self):
        q = ConjunctiveQuery([("R", ("x", "y"))], free=("x",))
        with pytest.raises(QueryError):
            UnionOfBooleanCQs([q])

    def test_empty_rejected(self):
        with pytest.raises(QueryError):
            UnionOfBooleanCQs([])

    def test_repeated_multiplies(self):
        p = boolean_cq([("P", ("x",))])
        assert len(UnionOfBooleanCQs([p]).repeated(3).disjuncts) == 3

    def test_as_ucq(self):
        p = boolean_cq([("P", ("x",))])
        assert as_ucq(p).is_single_cq()


class TestPathQuery:
    def test_word_interface(self):
        q = PathQuery(("A", "B", "C"))
        assert len(q) == 3
        assert list(q) == ["A", "B", "C"]
        assert q[1] == "B"
        assert q[:2] == PathQuery(("A", "B"))

    def test_prefixes(self):
        q = PathQuery(("A", "B"))
        assert [p.letters for p in q.prefixes()] == [(), ("A",), ("A", "B")]

    def test_epsilon_falsy(self):
        assert not EPSILON
        assert PathQuery(("A",))

    def test_concatenation(self):
        assert (PathQuery(("A",)) + PathQuery(("B",))).letters == ("A", "B")

    def test_prefix_suffix_stripping(self):
        q = PathQuery(("A", "B", "C"))
        assert q.strip_prefix(PathQuery(("A",))).letters == ("B", "C")
        assert q.strip_suffix(PathQuery(("C",))).letters == ("A", "B")
        with pytest.raises(QueryError):
            q.strip_prefix(PathQuery(("B",)))
        with pytest.raises(QueryError):
            q.strip_suffix(PathQuery(("A",)))

    def test_to_cq(self):
        cq = PathQuery(("A", "B")).to_cq()
        assert cq.arity == 2
        assert len(cq.atoms) == 2

    def test_epsilon_to_cq_rejected(self):
        with pytest.raises(QueryError):
            EPSILON.to_cq()

    def test_frozen_path(self):
        body = PathQuery(("A", "B")).frozen_path()
        assert body.count_facts() == 2
        assert len(body.domain()) == 3

    def test_signed_word_inversion(self):
        q = PathQuery(("A", "B"))
        assert signed_word(q, 1) == (("A", 1), ("B", 1))
        # footnote 18: reversed and inverted
        assert signed_word(q, -1) == (("B", -1), ("A", -1))

    def test_signed_word_bad_sign(self):
        with pytest.raises(QueryError):
            signed_word(PathQuery(("A",)), 2)
