"""Unit tests for counterexample construction (Lemmas 41/55/56/57)."""

import random

import pytest

from repro.errors import DecisionError
from repro.hom.count import count_homs
from repro.queries.parser import parse_boolean_cq
from repro.core.decision import decide_bag_determinacy


def _witness_for(views_text, query_text, seed=3):
    views = [parse_boolean_cq(t) for t in views_text]
    query = parse_boolean_cq(query_text)
    result = decide_bag_determinacy(views, query)
    assert not result.determined
    return result.witness(rng=random.Random(seed))


class TestSimpleCases:
    def test_no_views(self):
        pair = _witness_for([], "R(x,y)")
        report = pair.verify()
        assert report.ok
        assert report.query_answers[0] != report.query_answers[1]

    def test_example42_shape(self):
        # q = edge, view = 2-path (q ⊆set v but not in span).
        pair = _witness_for(["R(x,y), R(y,z)"], "R(x,y)")
        report = pair.verify()
        assert report.ok
        # view answers agree exactly
        for left, right in report.view_answers:
            assert left == right

    def test_irrelevant_views_are_zeroed(self):
        # v over S is irrelevant; decency must force v(D) = v(D') = 0.
        pair = _witness_for(["S(x,y)"], "R(x,y)")
        report = pair.verify()
        assert report.ok
        assert report.irrelevant_answers == ((0, 0),)

    def test_multi_component_instance(self):
        # q = edge + triangle, view = edge + edge: not determined.
        pair = _witness_for(
            ["R(x,y), R(u,v)"],
            "R(x,y), R(a,b), R(b,c), R(c,a)",
        )
        assert pair.verify().ok

    def test_two_views_span_misses(self):
        # basis {edge, 2path, triangle}: views give 2 vectors, q outside.
        views = [
            "R(x,y), R(u,v), R(v,w)",             # edge + 2path
            "R(x,y), R(a,b), R(b,c), R(c,a)",     # edge + triangle
        ]
        pair = _witness_for(views, "R(x,y)")
        assert pair.verify().ok


class TestWitnessInternals:
    def test_multiplicities_nonnegative(self):
        pair = _witness_for(["R(x,y), R(y,z)"], "R(x,y)")
        assert all(a >= 0 for a in pair.left_multiplicities)
        assert all(a >= 0 for a in pair.right_multiplicities)
        assert pair.left_multiplicities != pair.right_multiplicities

    def test_parameter_is_not_one(self):
        pair = _witness_for(["R(x,y), R(y,z)"], "R(x,y)")
        assert pair.parameter != 1
        assert pair.parameter > 0

    def test_direction_orthogonal_to_views(self):
        from repro.linalg.matrix import dot

        views = [parse_boolean_cq("R(x,y), R(y,z)")]
        query = parse_boolean_cq("R(x,y)")
        result = decide_bag_determinacy(views, query)
        pair = result.witness()
        for vec in result.view_vectors:
            assert dot(pair.direction, vec) == 0
        assert dot(pair.direction, result.query_vector) != 0

    def test_basis_counts_cross_check(self):
        """Matrix-derived w_i(D) must equal symbolic hom counts."""
        pair = _witness_for(["R(x,y), R(y,z)"], "R(x,y)")
        matrix_left, matrix_right = pair.basis_counts()
        for i, w in enumerate(pair.basis.components):
            assert count_homs(w, pair.left) == matrix_left[i]
            assert count_homs(w, pair.right) == matrix_right[i]

    def test_explain_mentions_parameters(self):
        pair = _witness_for(["R(x,y), R(y,z)"], "R(x,y)")
        text = pair.explain()
        assert "direction z" in text
        assert "parameter t" in text

    def test_witness_cached_on_result(self):
        views = [parse_boolean_cq("R(x,y), R(y,z)")]
        query = parse_boolean_cq("R(x,y)")
        result = decide_bag_determinacy(views, query)
        assert result.witness() is result.witness()

    def test_construct_on_determined_raises(self):
        from repro.core.witness import construct_counterexample

        query = parse_boolean_cq("R(x,y)")
        result = decide_bag_determinacy([query], query)
        with pytest.raises(DecisionError):
            construct_counterexample(result)


class TestLemma57LargeGoodBasis:
    def test_walk_reaches_parameters_past_2_to_the_minus_40(self):
        """Task cq-00088 of ``batch gen --kind cq-witness --count 400
        --seed 9``: its good-basis matrix has entries of up to 67 bits,
        and the Lemma 57 parameter lies 2^-50 from 1.  A walk capped at
        denominator 2^40 answered it with "no perturbation parameter
        found"."""
        import json
        from fractions import Fraction

        from repro.batch.runner import evaluate_line
        from repro.batch.scenarios import generate_scenario
        from repro.session import SolverSession

        task = generate_scenario("cq-witness", 89, seed=9)[88]
        assert task["id"] == "cq-00088"
        with SolverSession() as session:
            record = json.loads(evaluate_line(json.dumps(task), session))
        assert record["ok"] is True, record.get("error")
        witness = record["witness"]
        assert witness["verified"] is True
        assert Fraction(witness["parameter"]) == 1 + Fraction(1, 2 ** 50)
