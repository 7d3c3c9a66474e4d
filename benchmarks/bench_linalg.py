"""E10: exact linear-algebra kernels vs dimension.

The determinacy pipeline's hot spots: RREF/span membership (Lemma 31),
inversion (Lemma 55), and the Vandermonde determinants that certify
Step 3 of Lemma 40.  Every answer is exact: elimination runs on
integers (fraction-free Bareiss) and Fractions appear only in the
returned values — these benches document the price (DESIGN.md §6.6).
"""

import random
from fractions import Fraction

import pytest

from repro.linalg.matrix import QMatrix
from repro.linalg.span import span_coefficients
from repro.linalg.vandermonde import vandermonde_matrix


def _random_matrix(size: int, seed: int = 0, magnitude: int = 9) -> QMatrix:
    rng = random.Random(seed)
    return QMatrix([
        [rng.randint(-magnitude, magnitude) for _ in range(size)]
        for _ in range(size)
    ])


@pytest.mark.parametrize("size", [4, 8, 16])
def test_rref(benchmark, size):
    matrix = _random_matrix(size, seed=size)
    reduced, pivots = benchmark(matrix.rref)
    assert reduced.nrows == size


@pytest.mark.parametrize("size", [4, 8, 16])
def test_inverse(benchmark, size):
    matrix = _random_matrix(size, seed=size + 100)
    if matrix.det() == 0:  # pragma: no cover - seeds chosen nonsingular
        pytest.skip("singular draw")
    inverse = benchmark(matrix.inverse)
    assert inverse.matmul(matrix) == QMatrix.identity(size)


@pytest.mark.parametrize("size", [4, 8, 16])
def test_span_membership(benchmark, size):
    rng = random.Random(size)
    generators = [
        [rng.randint(-5, 5) for _ in range(size)] for _ in range(size // 2)
    ]
    weights = [rng.randint(-3, 3) for _ in generators]
    target = [
        sum(w * g[i] for w, g in zip(weights, generators)) for i in range(size)
    ]
    coefficients = benchmark(span_coefficients, generators, target)
    assert coefficients is not None


@pytest.mark.parametrize("size", [4, 8])
def test_radix_vandermonde_determinant(benchmark, size):
    """The ill-conditioned case that motivates exact arithmetic: a
    Vandermonde matrix of radix-T counts (T = 10^3)."""
    values = [Fraction(1000 ** i + i) for i in range(size)]
    matrix = vandermonde_matrix(values)
    det = benchmark(matrix.det)
    assert det != 0
