"""Unit + property tests for span membership, orthogonal witnesses and
Vandermonde matrices (Facts 5/7, Lemmas 46/55 plumbing)."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import repro.core.decision
import repro.ucq.analysis
from repro.batch.runner import evaluate_envelope
from repro.batch.scenarios import generate_scenario
from repro.batch.tasks import canonical_json
from repro.faults.budget import Budget, BudgetExceeded, use_budget
from repro.linalg.matrix import QMatrix, dot, gaussian_solve, vector
from repro.linalg.orthogonal import integer_orthogonal_witness, orthogonal_witness
from repro.linalg.span import (
    in_span,
    integerize,
    span_basis,
    span_coefficients,
    span_dimension,
    verify_combination,
)
from repro.linalg.vandermonde import (
    is_vandermonde_nonsingular,
    vandermonde_determinant,
    vandermonde_matrix,
)
from repro.session import SolverSession


class TestSpan:
    def test_membership_with_certificate(self):
        coefficients = span_coefficients([[1, 0], [1, 1]], [3, 2])
        assert coefficients == vector([1, 2])
        assert verify_combination([[1, 0], [1, 1]], coefficients, [3, 2])

    def test_non_membership(self):
        assert span_coefficients([[1, 1]], [1, 2]) is None
        assert not in_span([[1, 1]], [1, 2])

    def test_empty_generators_span_zero(self):
        assert span_coefficients([], [0, 0]) == ()
        assert span_coefficients([], [1, 0]) is None

    def test_zero_length_vectors_get_one_coefficient_each(self):
        coefficients = span_coefficients([[], []], [])
        assert coefficients == (0, 0)
        assert verify_combination([[], []], coefficients, [])

    def test_rational_coefficients(self):
        coefficients = span_coefficients([[2, 0]], [1, 0])
        assert coefficients == (Fraction(1, 2),)

    def test_span_basis_prunes_dependents(self):
        basis = span_basis([[1, 0], [2, 0], [0, 1]])
        assert len(basis) == 2

    def test_span_dimension(self):
        assert span_dimension([[1, 1], [2, 2], [1, 0]]) == 2

    def test_verify_combination_rejects_wrong(self):
        assert not verify_combination([[1, 0]], [2], [1, 0])

    def test_integerize(self):
        scale, scaled = integerize([Fraction(1, 2), Fraction(1, 3)])
        assert scale == 6
        assert scaled == [3, 2]


class TestOrthogonalWitness:
    def test_fact5_basic(self):
        z = orthogonal_witness([[1, 0, 0]], [0, 0, 1])
        assert z is not None
        assert dot(z, [1, 0, 0]) == 0
        assert dot(z, [0, 0, 1]) != 0

    def test_none_when_target_in_span(self):
        assert orthogonal_witness([[1, 0], [0, 1]], [1, 1]) is None

    def test_empty_generators(self):
        z = orthogonal_witness([], [2, 5])
        assert z is not None
        assert dot(z, [2, 5]) != 0

    def test_integer_scaling(self):
        z = integer_orthogonal_witness([[2, 1, 0]], [0, 0, 3])
        assert z is not None
        assert all(isinstance(value, int) for value in z)
        assert dot(vector(z), [2, 1, 0]) == 0


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 100_000), dim=st.integers(1, 4), count=st.integers(0, 3))
def test_witness_exists_iff_outside_span(seed, dim, count):
    """Fact 5 as a biconditional, on random rational data."""
    rng = random.Random(seed)
    generators = [[rng.randint(-3, 3) for _ in range(dim)] for _ in range(count)]
    target = [rng.randint(-3, 3) for _ in range(dim)]
    witness = orthogonal_witness(generators, target)
    member = in_span(generators, target)
    assert (witness is None) == member
    if witness is not None:
        for generator in generators:
            assert dot(witness, generator) == 0
        assert dot(witness, target) != 0


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 100_000), dim=st.integers(1, 4), count=st.integers(1, 4))
def test_span_certificate_always_verifies(seed, dim, count):
    rng = random.Random(seed)
    generators = [[rng.randint(-3, 3) for _ in range(dim)] for _ in range(count)]
    weights = [rng.randint(-3, 3) for _ in range(count)]
    target = [
        sum(w * g[i] for w, g in zip(weights, generators)) for i in range(dim)
    ]
    coefficients = span_coefficients(generators, target)
    assert coefficients is not None
    assert verify_combination(generators, coefficients, target)


class TestVandermonde:
    def test_lemma46_distinct_values(self):
        matrix = vandermonde_matrix([3, 5, 7])
        assert matrix.is_nonsingular()
        assert is_vandermonde_nonsingular([3, 5, 7])

    def test_repeated_values_singular(self):
        matrix = vandermonde_matrix([2, 2, 5])
        assert not matrix.is_nonsingular()
        assert not is_vandermonde_nonsingular([2, 2, 5])

    def test_closed_form_determinant(self):
        values = [1, 3, 4, 9]
        assert vandermonde_matrix(values).det() == vandermonde_determinant(values)

    def test_zero_value_uses_00_equals_1(self):
        # First column is all ones even when a value is 0 (0^0 = 1).
        matrix = vandermonde_matrix([0, 2])
        assert matrix.entry(0, 0) == 1
        assert matrix.is_nonsingular()


@settings(max_examples=40, deadline=None)
@given(values=st.lists(st.integers(-20, 20), min_size=1, max_size=5))
def test_vandermonde_det_closed_form(values):
    assert vandermonde_matrix(values).det() == vandermonde_determinant(values)


# ----------------------------------------------------------------------
# The integer solve against the Fraction reference on real systems
# ----------------------------------------------------------------------
def _reference_span(generators, target):
    if not generators:
        return () if all(v == 0 for v in target) else None
    return gaussian_solve(QMatrix.from_columns(generators), target)


@pytest.mark.parametrize("kind", ["mixed", "ucq"])
def test_corpus_span_systems_match_the_reference(kind, monkeypatch):
    """Every span system a seeded corpus poses (Lemma 31 and the UCQ
    certificate) is solved exactly as the Fraction reference solves it."""
    systems = []

    def recording(generators, target):
        answer = span_coefficients(generators, target)
        systems.append((generators, target, answer))
        return answer

    monkeypatch.setattr(repro.core.decision, "span_coefficients", recording)
    monkeypatch.setattr(repro.ucq.analysis, "span_coefficients", recording)
    with SolverSession() as session:
        for record in generate_scenario(kind, 150, seed=17):
            assert evaluate_envelope(canonical_json(record), session)["ok"]
    assert len(systems) >= 30
    assert any(answer is None for _, _, answer in systems)
    assert any(answer for _, _, answer in systems)
    for generators, target, answer in systems:
        assert answer == _reference_span(generators, target), (generators, target)


def _nonsingular_system(size: int):
    rng = random.Random(size)
    generators = [[rng.randint(-9, 9) for _ in range(size)] for _ in range(size)]
    for index, generator in enumerate(generators):
        generator[index] = 100  # diagonally dominant: nonsingular
    target = [rng.randint(-9, 9) for _ in range(size)]
    return generators, target


def test_span_elimination_charges_the_active_budget():
    generators, target = _nonsingular_system(12)
    with use_budget(Budget(max_steps=4)), \
            pytest.raises(BudgetExceeded) as tripped:
        span_coefficients(generators, target)
    assert tripped.value.reason == "steps"


def test_span_without_a_budget_returns_the_reference_answer():
    generators, target = _nonsingular_system(12)
    answer = span_coefficients(generators, target)
    assert answer is not None
    assert answer == _reference_span(generators, target)
    assert verify_combination(generators, answer, target)
