"""Span membership with certificates.

The Main Lemma (31) reduces bag-determinacy of boolean CQs to the
question ``q⃗ ∈ span{v⃗ | v ∈ V}`` in ``Q^k``.  We need more than a
yes/no: the *coefficients* are the exponents of the monomial rewriting
``q(D) = Π_j v_j(D)^{α_j}`` (Appendix D), so membership is returned
with a witness.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Sequence

from repro.linalg.matrix import QVector, integerize, solve_augmented, vector


def span_coefficients(
    generators: Sequence[Sequence],
    target: Sequence,
) -> Optional[QVector]:
    """Coefficients ``α`` with ``Σ α_i · generators[i] = target``,
    or ``None`` when the target is outside the span.

    The empty generator list spans only the zero vector.  The system
    ``Gᵀ α = target`` is eliminated on integers straight from the
    vectors (:func:`~repro.linalg.matrix.solve_augmented`); free
    coefficients are 0.

    >>> span_coefficients([[1, 0], [0, 1]], [3, 4])
    (Fraction(3, 1), Fraction(4, 1))
    >>> span_coefficients([[1, 1]], [1, 2]) is None
    True
    """
    if not generators:
        return () if all(v == 0 for v in vector(target)) else None
    width = len(target)
    if any(len(g) != width for g in generators):
        raise ValueError("generator/target dimension mismatch")
    # Row i of the augmented system [Gᵀ | target] is coordinate i of
    # every generator, then of the target.
    rows = [integerize(entries)[1] for entries in zip(*generators, target)]
    return solve_augmented(rows, len(generators))


def in_span(generators: Sequence[Sequence], target: Sequence) -> bool:
    """Membership without the certificate."""
    return span_coefficients(generators, target) is not None


def span_basis(generators: Sequence[Sequence]) -> List[QVector]:
    """An independent subset of the generators with the same span
    (greedy, keeps earlier generators)."""
    basis: List[QVector] = []
    for generator in generators:
        candidate = vector(generator)
        if span_coefficients(basis, candidate) is None:
            basis.append(candidate)
    return basis


def span_dimension(generators: Sequence[Sequence]) -> int:
    return len(span_basis(generators))


def verify_combination(
    generators: Sequence[Sequence],
    coefficients: Sequence,
    target: Sequence,
) -> bool:
    """Exact check that ``Σ α_i g_i = target`` (certificate validation)."""
    target_vec = vector(target)
    coeffs = vector(coefficients)
    if len(coeffs) != len(generators):
        return False
    width = len(target_vec)
    acc = [Fraction(0)] * width
    for alpha, generator in zip(coeffs, generators):
        g = vector(generator)
        if len(g) != width:
            return False
        acc = [a + alpha * b for a, b in zip(acc, g)]
    return tuple(acc) == target_vec
