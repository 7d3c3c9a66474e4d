"""Explicit counterexample pairs — Lemmas 41, 55, 56, 57.

When the span test of Lemma 31 fails, the paper does not merely assert
non-determinacy: Sections 5–7 *construct* two structures ``D, D'``
with

* (A)  ``q(D) ≠ q(D')``,
* (B)  ``v(D) = v(D')``  for every relevant view ``v ∈ V``,
* (B0) ``v(D) = v(D') = 0``  for every irrelevant view ``v ∈ V0 \\ V``.

This module executes that construction:

1. a *good* basis ``S`` (Lemma 40, :mod:`repro.core.goodbasis`);
2. an integer direction ``z`` orthogonal to every ``v⃗`` but not to
   ``q⃗`` (Fact 5);
3. the rational interior point ``p = M·1`` of the cone ``C``
   (Corollary 8) and the perturbation ``p' = t^z ∘ p`` for a rational
   ``t ≠ 1`` keeping ``p'`` inside ``C`` (Lemma 57);
4. the Lemma 55 scaling ``N`` making both coefficient vectors integral,
   giving ``D = Σ (Nα)_i s_i`` and ``D' = Σ (Nα')_i s_i``.

``D`` and ``D'`` are returned as lazy structure expressions (their
materialized sizes are usually astronomical); every claimed property is
*verified symbolically* — exact integer hom counts through Lemma 4 —
by :meth:`CounterexamplePair.verify`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple

from repro.errors import DecisionError
from repro.hom.count import Cache, count_homs
from repro.linalg.cone import SimplicialCone, perturb
from repro.session import SolverSession, resolve_session
from repro.linalg.orthogonal import integer_orthogonal_witness
from repro.linalg.span import integerize
from repro.queries.cq import ConjunctiveQuery
from repro.core.basis import ComponentBasis
from repro.core.goodbasis import GoodBasis, construct_good_basis
from repro.structures.expression import StructureExpression, SumExpression


@dataclass
class VerificationReport:
    """Outcome of exact re-verification of a counterexample pair."""

    query_answers: Tuple[int, int]
    view_answers: Tuple[Tuple[int, int], ...]
    irrelevant_answers: Tuple[Tuple[int, int], ...]
    basis_counts_match: bool

    @property
    def ok(self) -> bool:
        condition_a = self.query_answers[0] != self.query_answers[1]
        condition_b = all(left == right for left, right in self.view_answers)
        condition_b0 = all(left == 0 and right == 0
                           for left, right in self.irrelevant_answers)
        return (condition_a and condition_b and condition_b0
                and self.basis_counts_match)


@dataclass
class CounterexamplePair:
    """The pair ``(D, D')`` refuting ``V0 →bag q``, with provenance."""

    query: ConjunctiveQuery
    relevant_views: Tuple[ConjunctiveQuery, ...]
    irrelevant_views: Tuple[ConjunctiveQuery, ...]
    basis: ComponentBasis
    good_basis: GoodBasis
    direction: Tuple[int, ...]
    parameter: Fraction
    left_multiplicities: Tuple[int, ...]
    right_multiplicities: Tuple[int, ...]
    left: StructureExpression
    right: StructureExpression

    # ------------------------------------------------------------------
    # Answers (via Observation 30 over the evaluation matrix)
    # ------------------------------------------------------------------
    def basis_counts(self) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        """``(w_i(D))_i`` and ``(w_i(D'))_i`` from the matrix —
        ``w_i(Σ a_j s_j) = Σ a_j M(i,j)`` by Lemma 4(1)/(2)."""
        matrix = self.good_basis.matrix
        left = matrix.matvec([Fraction(a) for a in self.left_multiplicities])
        right = matrix.matvec([Fraction(a) for a in self.right_multiplicities])
        return (tuple(int(v) for v in left), tuple(int(v) for v in right))

    def answers(self, query_vector: Sequence[int]) -> Tuple[int, int]:
        left_counts, right_counts = self.basis_counts()
        return (
            ComponentBasis.evaluate_from_counts(left_counts, query_vector),
            ComponentBasis.evaluate_from_counts(right_counts, query_vector),
        )

    # ------------------------------------------------------------------
    # Verification
    # ------------------------------------------------------------------
    def verify(self, cache: Cache = None) -> VerificationReport:
        """Re-check (A), (B), (B0) by *symbolic hom counting* on the
        actual structure expressions — independent of the linear
        algebra that produced the pair.  The default dict cache routes
        leaf counts through the *naive* recursive backtracker, keeping
        the audit independent of the compiled engine that produced the
        decision; pass a :class:`~repro.hom.engine.HomEngine` to trade
        that independence for speed."""
        if cache is None:
            cache = {}
        query_answers = (
            count_homs(self.query.frozen_body(), self.left, cache),
            count_homs(self.query.frozen_body(), self.right, cache),
        )
        view_answers = tuple(
            (count_homs(v.frozen_body(), self.left, cache),
             count_homs(v.frozen_body(), self.right, cache))
            for v in self.relevant_views
        )
        irrelevant_answers = tuple(
            (count_homs(v.frozen_body(), self.left, cache),
             count_homs(v.frozen_body(), self.right, cache))
            for v in self.irrelevant_views
        )
        counted_left = tuple(
            count_homs(w, self.left, cache) for w in self.basis.components
        )
        counted_right = tuple(
            count_homs(w, self.right, cache) for w in self.basis.components
        )
        matrix_left, matrix_right = self.basis_counts()
        basis_counts_match = (
            counted_left == matrix_left and counted_right == matrix_right
        )
        return VerificationReport(
            query_answers=query_answers,
            view_answers=view_answers,
            irrelevant_answers=irrelevant_answers,
            basis_counts_match=basis_counts_match,
        )

    def to_record(self, report: Optional[VerificationReport] = None):
        """A JSON-safe summary of the pair (batch wire format).

        Query answers are decimal strings — the materialized counts are
        routinely too large to be comfortable as JSON numbers for other
        consumers, even though Python itself would take them.
        """
        record = {
            "direction": list(self.direction),
            "parameter": str(self.parameter),
            "left_multiplicities": list(self.left_multiplicities),
            "right_multiplicities": list(self.right_multiplicities),
        }
        if report is not None:
            record["verified"] = report.ok
            record["query_answers"] = [str(a) for a in report.query_answers]
        return record

    def explain(self) -> str:
        left_counts, right_counts = self.basis_counts()
        return "\n".join([
            f"direction z = {list(self.direction)}, parameter t = {self.parameter}",
            f"D  = Σ a_i·s_i with a  = {list(self.left_multiplicities)}",
            f"D' = Σ a'_i·s_i with a' = {list(self.right_multiplicities)}",
            f"(w_i(D))  = {list(left_counts)}",
            f"(w_i(D')) = {list(right_counts)}",
        ])


def construct_counterexample(
    result,
    rng: Optional[random.Random] = None,
    distinguisher_budget: int = 5000,
    session: Optional[SolverSession] = None,
) -> CounterexamplePair:
    """Build the counterexample pair for a failed span test.

    ``result`` is a :class:`repro.core.decision.BooleanDeterminacyResult`
    with ``determined == False``; ``session`` is the solver context the
    construction counts under — defaulting to the result's own
    ``session`` field (so the good-basis search verifiably reuses the
    deciding engine's memo), then the process-wide session.
    """
    if result.coefficients is not None:
        raise DecisionError("the views determine the query; no counterexample exists")
    if session is None:
        session = result.session
    session = resolve_session(session)
    irrelevant = tuple(
        v for v in result.views if v not in set(result.relevant_views)
    )
    good = construct_good_basis(
        result.basis.components,
        result.query,
        irrelevant_views=irrelevant,
        rng=rng,
        distinguisher_budget=distinguisher_budget,
        session=session,
    )

    direction = integer_orthogonal_witness(result.view_vectors, result.query_vector)
    if direction is None:
        raise DecisionError(
            "span test failed but no orthogonal witness exists — "
            "inconsistent linear algebra"
        )

    cone = SimplicialCone(good.matrix)
    center = cone.interior_point()
    parameter = cone.perturbation_parameter(direction, center)
    perturbed = perturb(parameter, direction, center)
    if perturbed is None:
        raise DecisionError("perturbation produced no point")

    alpha = cone.coefficients(center)       # = all ones by construction
    alpha_prime = cone.coefficients(perturbed)
    if any(a < 0 for a in alpha_prime):
        raise DecisionError("perturbed point escaped the cone")

    scale_left, _ = integerize(alpha)
    scale_right, _ = integerize(alpha_prime)
    common = _lcm(scale_left, scale_right)
    left_multiplicities = tuple(int(a * common) for a in alpha)
    right_multiplicities = tuple(int(a * common) for a in alpha_prime)

    left = SumExpression(list(zip(left_multiplicities, good.structures)))
    right = SumExpression(list(zip(right_multiplicities, good.structures)))

    return CounterexamplePair(
        query=result.query,
        relevant_views=result.relevant_views,
        irrelevant_views=irrelevant,
        basis=result.basis,
        good_basis=good,
        direction=tuple(direction),
        parameter=parameter,
        left_multiplicities=left_multiplicities,
        right_multiplicities=right_multiplicities,
        left=left,
        right=right,
    )


def _lcm(a: int, b: int) -> int:
    from math import gcd
    return a // gcd(a, b) * b
