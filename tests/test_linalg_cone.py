"""Unit tests for the simplicial cone (Definitions 51/52, Corollary 8,
Lemmas 55/57)."""

from fractions import Fraction

import pytest

from repro.errors import LinalgError
from repro.linalg.cone import SimplicialCone, perturb
from repro.linalg.matrix import QMatrix


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
