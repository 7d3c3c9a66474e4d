"""The simplicial cone ``C = M(R^k_{≥0})`` of Definition 52.

For a nonsingular evaluation matrix ``M``, the cone generated by its
columns contains the answer-vector set ``P = {M s⃗ | s ∈ S}``
(Definition 51) and has non-empty interior (Corollary 8).  The witness
construction of Section 7 needs:

* membership tests (``u ∈ C`` iff ``M^{-1} u ≥ 0``),
* a *rational interior point* ``p`` (Corollary 8) — we take
  ``p = M·1``, the image of the strictly positive all-ones vector,
* the Lemma 55 scaling ``c ∈ N+`` with ``c·u ∈ P`` for
  ``u ∈ C ∩ Q^k``,
* the Lemma 57 perturbation search: a rational ``t ≠ 1`` with
  ``t^z ∘ p ∈ C`` (coordinatewise ``p_i ↦ t^{z_i} p_i``).
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import List, Optional, Sequence, Tuple

from repro.errors import LinalgError
from repro.faults.budget import active_budget
from repro.linalg.matrix import QMatrix, QVector, integerize, vector


class SimplicialCone:
    """The cone spanned (with non-negative coefficients) by the columns
    of a nonsingular square matrix.

    ``M⁻¹`` is kept as integer rows ``inverse_numerators`` over one
    positive ``inverse_denominator`` (``N / d``), so membership is a
    sign test on an integer matrix–vector product."""

    __slots__ = ("matrix", "inverse_numerators", "inverse_denominator")

    def __init__(self, matrix: QMatrix):
        if not matrix.is_square():
            raise LinalgError("a simplicial cone needs a square matrix")
        if not matrix.is_nonsingular():
            raise LinalgError(
                "evaluation matrix is singular; the set of basis structures "
                "is not good (Definition 38)"
            )
        self.matrix = matrix
        self.inverse_numerators, self.inverse_denominator = \
            matrix.integer_inverse()

    @property
    def dimension(self) -> int:
        return self.matrix.nrows

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def _scaled_image(self, point: Sequence) -> Tuple[List[int], int]:
        """``(N·(c·p), c)`` for the positive ``c`` that makes ``p``
        integral: ``M⁻¹ p = N·(c·p) / (c·d)``."""
        scale, scaled = integerize(point)
        return self._image(scaled), scale

    def _image(self, scaled: Sequence[int]) -> List[int]:
        """``N·x`` for an integer point ``x``."""
        if len(scaled) != self.dimension:
            raise LinalgError(
                f"point of length {len(scaled)} in a cone of dimension "
                f"{self.dimension}")
        return [sum(map(mul, row, scaled))
                for row in self.inverse_numerators]

    def coefficients(self, point: Sequence) -> QVector:
        """The unique ``α`` with ``M α = point``."""
        image, scale = self._scaled_image(point)
        denominator = scale * self.inverse_denominator
        return tuple(Fraction(value, denominator) for value in image)

    def contains(self, point: Sequence) -> bool:
        """``point ∈ C`` (closed cone)."""
        return all(value >= 0 for value in self._scaled_image(point)[0])

    def strictly_contains(self, point: Sequence) -> bool:
        """``point`` in the interior of ``C``."""
        return all(value > 0 for value in self._scaled_image(point)[0])

    # ------------------------------------------------------------------
    # Corollary 8 / Lemma 55 / Lemma 57
    # ------------------------------------------------------------------
    def interior_point(self) -> QVector:
        """A rational interior point: ``M · 1`` (image of the strictly
        positive all-ones vector under the homeomorphism of Fact 6)."""
        ones = [Fraction(1)] * self.dimension
        return self.matrix.matvec(ones)

    def lattice_scaling(self, point: Sequence) -> Tuple[int, QVector]:
        """Lemma 55: for ``u ∈ C ∩ Q^k`` return ``c ∈ N+`` and ``c·α``
        (integral, ≥ 0) such that ``c·u = M (c·α) ∈ P``."""
        alpha = self.coefficients(point)
        if any(a < 0 for a in alpha):
            raise LinalgError(f"point {point!r} is outside the cone")
        scale, scaled = integerize(alpha)
        return scale, tuple(Fraction(v) for v in scaled)

    def perturbation_parameter(
        self,
        direction: Sequence[int],
        center: Sequence,
    ) -> Fraction:
        """Lemma 57: a rational ``t ≠ 1`` with ``t^z ∘ p ∈ C``.

        ``t ↦ t^z ∘ p`` is continuous and maps 1 to the interior point
        ``p``, so parameters close enough to 1 stay inside; we walk
        ``t = 1 ± 1/2^j`` until membership holds.  The walk has no
        fixed length: how close ``t`` must come to 1 grows with the
        bit size of the evaluation matrix (seeded ``cq-witness`` tasks
        need up to 2^-85), and the interior check guarantees a hit.
        Each step is charged to the active budget, so a deadline
        bounds it.

        The walk builds no ``Fraction`` candidate (:func:`perturb`).
        For ``t = a/b`` and ``c·p`` integral, the integer point with
        coordinates ``(c·p)_i · a^{z_i + m} · b^{M − z_i}``, where
        ``m = max(0, −min z)`` and ``M = max(0, max z)``, is
        ``c·a^m·b^M`` times ``t^z ∘ p``: a positive multiple, so ``N``
        maps it to the same signs.
        """
        if not self.strictly_contains(center):
            raise LinalgError("perturbation center must be interior")
        exponents = _integral(direction)
        _, scaled = integerize(center)
        low = max(0, -min(exponents, default=0))
        high = max(0, max(exponents, default=0))
        budget = active_budget()
        denominator = 2
        while True:
            if budget is not None:
                budget.charge(1)
            for numerator in (denominator + 1, denominator - 1):
                candidate = [value * numerator ** (exponent + low)
                             * denominator ** (high - exponent)
                             for exponent, value in zip(exponents, scaled)]
                if all(value >= 0 for value in self._image(candidate)):
                    return Fraction(numerator, denominator)
            denominator *= 2


def _integral(direction: Sequence[int]) -> Tuple[int, ...]:
    """``direction`` as a tuple, once each entry is checked to be an
    ``int``."""
    exponents = tuple(direction)
    for exponent in exponents:
        if not isinstance(exponent, int):
            raise LinalgError(f"direction entries must be ints, got {exponent!r}")
    return exponents


def perturb(t: Fraction, direction: Sequence[int], center: Sequence) -> Optional[QVector]:
    """``t^z ∘ p``: coordinatewise ``p_i · t^{z_i}`` (Definition 48(3)
    composed with 48(1)).  ``z`` must be integral so the result stays
    rational; ``t`` must be positive.  Returns ``None`` for t <= 0."""
    if t <= 0:
        return None
    return tuple(value * t ** exponent
                 for exponent, value in zip(_integral(direction),
                                            vector(center)))
