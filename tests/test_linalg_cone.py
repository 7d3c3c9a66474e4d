"""Unit tests for the simplicial cone (Definitions 51/52, Corollary 8,
Lemmas 55/57)."""

import random
from fractions import Fraction

import pytest

from repro.batch.runner import evaluate_envelope
from repro.batch.scenarios import generate_scenario
from repro.batch.tasks import canonical_json
from repro.errors import LinalgError
from repro.linalg.cone import SimplicialCone, perturb
from repro.linalg.matrix import QMatrix, gauss_jordan
from repro.session import SolverSession


EXAMPLE_54 = QMatrix([[1, 4], [1, 2]])  # the paper's Figure 2 matrix


class TestConstruction:
    def test_singular_matrix_rejected(self):
        with pytest.raises(LinalgError):
            SimplicialCone(QMatrix([[2, 4], [1, 2]]))  # Figure 1 matrix

    def test_non_square_rejected(self):
        with pytest.raises(LinalgError):
            SimplicialCone(QMatrix([[1, 2, 3], [4, 5, 6]]))


class TestMembership:
    def test_columns_are_in_cone(self):
        cone = SimplicialCone(EXAMPLE_54)
        for j in range(2):
            assert cone.contains(EXAMPLE_54.column(j))

    def test_negative_combination_outside(self):
        cone = SimplicialCone(EXAMPLE_54)
        outside = [-1, -1]
        assert not cone.contains(outside)

    def test_boundary_not_strict(self):
        cone = SimplicialCone(EXAMPLE_54)
        ray = EXAMPLE_54.column(0)
        assert cone.contains(ray)
        assert not cone.strictly_contains(ray)

    def test_coefficients_recover(self):
        cone = SimplicialCone(EXAMPLE_54)
        point = EXAMPLE_54.matvec([2, 3])
        assert cone.coefficients(point) == (Fraction(2), Fraction(3))


class TestCorollary8:
    def test_interior_point_is_interior_and_rational(self):
        cone = SimplicialCone(EXAMPLE_54)
        p = cone.interior_point()
        assert cone.strictly_contains(p)
        assert all(isinstance(v, Fraction) for v in p)


class TestLemma55:
    def test_lattice_scaling(self):
        cone = SimplicialCone(EXAMPLE_54)
        point = EXAMPLE_54.matvec([Fraction(1, 2), Fraction(1, 3)])
        scale, scaled_alpha = cone.lattice_scaling(point)
        assert scale == 6
        assert all(v.denominator == 1 for v in scaled_alpha)
        # c·u = M(c·α) stays exact
        assert cone.matrix.matvec(scaled_alpha) == tuple(scale * v for v in point)

    def test_scaling_outside_cone_rejected(self):
        cone = SimplicialCone(EXAMPLE_54)
        with pytest.raises(LinalgError):
            cone.lattice_scaling([-1, -1])


class TestLemma57:
    def test_perturbation_stays_in_cone(self):
        cone = SimplicialCone(EXAMPLE_54)
        center = cone.interior_point()
        direction = (1, -2)
        t = cone.perturbation_parameter(direction, center)
        assert t != 1
        moved = perturb(t, direction, center)
        assert cone.contains(moved)
        assert moved != tuple(center)

    def test_perturbation_requires_interior_center(self):
        cone = SimplicialCone(EXAMPLE_54)
        boundary = EXAMPLE_54.column(0)
        with pytest.raises(LinalgError):
            cone.perturbation_parameter((1, 0), boundary)

    def test_perturb_with_negative_exponents_is_rational(self):
        moved = perturb(Fraction(3, 2), (-1, 2), [2, 3])
        assert moved == (Fraction(4, 3), Fraction(27, 4))

    def test_perturb_nonpositive_t(self):
        assert perturb(Fraction(0), (1,), [1]) is None
        assert perturb(Fraction(-1), (1,), [1]) is None

    def test_perturb_non_integer_direction_rejected(self):
        with pytest.raises(LinalgError):
            perturb(Fraction(3, 2), (Fraction(1, 2),), [1])

    def test_zero_direction_moves_nothing(self):
        # ⟨z,q⟩ ≠ 0 guarantees z ≠ 0 in real runs, but the primitive
        # should still behave: t^0 ∘ p = p.
        assert perturb(Fraction(3, 2), (0, 0), [2, 3]) == (Fraction(2), Fraction(3))


class TestLemma57Budget:
    def test_walk_charges_the_active_budget(self):
        from repro.faults.budget import Budget, use_budget

        cone = SimplicialCone(EXAMPLE_54)
        center = cone.interior_point()
        budget = Budget(max_steps=10 ** 6)
        with use_budget(budget):
            cone.perturbation_parameter((1, -2), center)
        assert budget.steps >= 1

    def test_exhausted_budget_stops_the_walk(self):
        from repro.faults.budget import Budget, BudgetExceeded, use_budget

        cone = SimplicialCone(EXAMPLE_54)
        center = cone.interior_point()
        budget = Budget(max_steps=1)
        budget.steps = 1
        with use_budget(budget), pytest.raises(BudgetExceeded):
            cone.perturbation_parameter((1, -2), center)


# ----------------------------------------------------------------------
# The integer inverse N/d against the Fraction reference
# ----------------------------------------------------------------------
def _cones():
    yield EXAMPLE_54
    rng = random.Random(54)
    while True:
        size = rng.randint(2, 5)
        matrix = QMatrix([[rng.randint(0, 40) for _ in range(size)]
                          for _ in range(size)])
        if matrix.is_nonsingular():
            yield matrix


def _reference_coefficients(matrix, point):
    _, _, inverse = gauss_jordan(matrix)
    return QMatrix(inverse).matvec(point)


class TestIntegerInverse:
    def test_inverse_is_integer_over_a_positive_denominator(self):
        for matrix, _ in zip(_cones(), range(20)):
            cone = SimplicialCone(matrix)
            assert cone.inverse_denominator > 0
            assert all(isinstance(v, int)
                       for row in cone.inverse_numerators for v in row)

    def test_coefficients_equal_the_reference(self):
        rng = random.Random(55)
        for matrix, _ in zip(_cones(), range(20)):
            cone = SimplicialCone(matrix)
            for _ in range(5):
                point = [Fraction(rng.randint(-50, 50), rng.randint(1, 9))
                         for _ in range(matrix.nrows)]
                coefficients = cone.coefficients(point)
                assert all(isinstance(v, Fraction) for v in coefficients)
                assert coefficients == _reference_coefficients(matrix, point)

    def test_membership_on_a_facet_and_just_outside(self):
        rng = random.Random(56)
        for matrix, _ in zip(_cones(), range(20)):
            cone = SimplicialCone(matrix)
            size = matrix.nrows
            alpha = [Fraction(rng.randint(1, 9), rng.randint(1, 5))
                     for _ in range(size)]
            face = rng.randrange(size)
            for value in (Fraction(0), Fraction(-1, 10 ** 30),
                          Fraction(1, 10 ** 30)):
                alpha[face] = value
                point = matrix.matvec(alpha)
                reference = _reference_coefficients(matrix, point)
                assert list(reference) == alpha
                assert cone.contains(point) == all(a >= 0 for a in reference)
                assert cone.strictly_contains(point) == \
                    all(a > 0 for a in reference)
                assert cone.contains(point) == (value >= 0)
                assert cone.strictly_contains(point) == (value > 0)


class TestLemma57Parameters:
    """The walk answers the same ``t`` it answered with the Fraction
    inverse: on the paper's Figure 2 matrix, and on every seeded
    ``cq-witness`` task whose walk goes past ``t = 1 ± 2^-40`` (these
    answered an error while the walk was capped there)."""

    def test_example_54(self):
        cone = SimplicialCone(EXAMPLE_54)
        center = cone.interior_point()
        expected = {(1, -2): "7/8", (1, 0): "3/4", (0, 1): "3/2",
                    (-3, 5): "17/16", (7, -7): "31/32"}
        for direction, parameter in expected.items():
            assert cone.perturbation_parameter(direction, center) == \
                Fraction(parameter)

    LONG_WALKS = {
        9: {"cq-00088": "1125899906842625/1125899906842624",
            "cq-00132": "9444732965739290427393/9444732965739290427392",
            "cq-00239": "9007199254740991/9007199254740992",
            "cq-00299": "4611686018427387903/4611686018427387904",
            "cq-00344": "38685626227668133590597633/"
                        "38685626227668133590597632",
            "cq-00347": "140737488355329/140737488355328"},
        23: {"cq-00010": "4398046511103/4398046511104",
             "cq-00079": "35184372088831/35184372088832",
             "cq-00285": "18446744073709551615/18446744073709551616",
             "cq-00361": "4722366482869645213697/4722366482869645213696"},
    }

    @pytest.mark.parametrize("seed", sorted(LONG_WALKS))
    def test_long_walks_of_the_witness_corpus(self, seed):
        expected = self.LONG_WALKS[seed]
        records = [record for record in generate_scenario("cq-witness", 400,
                                                          seed=seed)
                   if record["id"] in expected]
        assert len(records) == len(expected)
        with SolverSession() as session:
            for record in records:
                answer = evaluate_envelope(canonical_json(record), session)
                witness = answer["witness"]
                assert witness["verified"] is True
                assert witness["parameter"] == expected[record["id"]]
