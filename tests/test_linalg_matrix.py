"""Unit + property tests for exact rational matrices."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import LinalgError
from repro.linalg.matrix import (
    QMatrix,
    dot,
    echelon,
    gauss_jordan,
    gaussian_det,
    gaussian_solve,
    vector,
)


class TestConstruction:
    def test_entries_become_fractions(self):
        m = QMatrix([[1, 2], [3, 4]])
        assert m.entry(0, 1) == Fraction(2)
        assert isinstance(m.entry(0, 0), Fraction)

    def test_ragged_rejected(self):
        with pytest.raises(LinalgError):
            QMatrix([[1, 2], [3]])

    def test_float_rejected(self):
        with pytest.raises(LinalgError):
            QMatrix([[0.5]])

    def test_identity(self):
        eye = QMatrix.identity(3)
        assert eye.matvec([1, 2, 3]) == vector([1, 2, 3])

    def test_from_columns(self):
        m = QMatrix.from_columns([[1, 2], [3, 4]])
        assert m.column(0) == vector([1, 2])
        assert m.row(0) == vector([1, 3])


class TestArithmetic:
    def test_matvec(self):
        m = QMatrix([[1, 2], [3, 4]])
        assert m.matvec([1, 1]) == vector([3, 7])

    def test_matmul(self):
        a = QMatrix([[1, 2], [3, 4]])
        b = QMatrix([[0, 1], [1, 0]])
        assert a.matmul(b) == QMatrix([[2, 1], [4, 3]])

    def test_matmul_shape_mismatch(self):
        with pytest.raises(LinalgError):
            QMatrix([[1, 2]]).matmul(QMatrix([[1, 2]]))

    def test_dot(self):
        assert dot([1, 2], [3, 4]) == Fraction(11)
        with pytest.raises(LinalgError):
            dot([1], [1, 2])

    def test_transpose(self):
        m = QMatrix([[1, 2, 3]])
        assert m.transpose() == QMatrix([[1], [2], [3]])

    def test_scale_and_add(self):
        m = QMatrix([[1, 2]])
        assert m.scale(Fraction(1, 2)) == QMatrix([[Fraction(1, 2), 1]])
        assert m.add(m) == QMatrix([[2, 4]])


class TestElimination:
    def test_rref_pivots(self):
        m = QMatrix([[2, 4], [1, 2]])  # Figure 1 matrix: singular
        reduced, pivots = m.rref()
        assert pivots == (0,)
        assert m.rank() == 1

    def test_det_singular(self):
        assert QMatrix([[2, 4], [1, 2]]).det() == 0
        assert not QMatrix([[2, 4], [1, 2]]).is_nonsingular()

    def test_det_2x2(self):
        assert QMatrix([[1, 4], [1, 2]]).det() == Fraction(-2)

    def test_det_non_square_rejected(self):
        with pytest.raises(LinalgError):
            QMatrix([[1, 2]]).det()

    def test_inverse_roundtrip(self):
        m = QMatrix([[1, 4], [1, 2]])
        assert m.matmul(m.inverse()) == QMatrix.identity(2)

    def test_inverse_singular_rejected(self):
        with pytest.raises(LinalgError):
            QMatrix([[2, 4], [1, 2]]).inverse()

    def test_solve_consistent(self):
        m = QMatrix([[1, 1], [0, 1]])
        solution = m.solve([3, 1])
        assert m.matvec(solution) == vector([3, 1])

    def test_solve_inconsistent(self):
        m = QMatrix([[1, 1], [1, 1]])
        assert m.solve([0, 1]) is None

    def test_solve_underdetermined_picks_particular(self):
        m = QMatrix([[1, 1]])
        solution = m.solve([5])
        assert m.matvec(solution) == vector([5])

    def test_nullspace(self):
        m = QMatrix([[1, 1]])
        basis = m.nullspace()
        assert len(basis) == 1
        assert dot(m.row(0), basis[0]) == 0

    def test_nullspace_of_nonsingular_is_empty(self):
        assert QMatrix([[1, 0], [0, 1]]).nullspace() == []

    def test_to_int_rows(self):
        assert QMatrix([[1, 2]]).to_int_rows() == [[1, 2]]
        with pytest.raises(LinalgError):
            QMatrix([[Fraction(1, 2)]]).to_int_rows()


def _random_matrix(seed: int, size: int) -> QMatrix:
    rng = random.Random(seed)
    return QMatrix([
        [rng.randint(-5, 5) for _ in range(size)] for _ in range(size)
    ])


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 100_000), size=st.integers(1, 4))
def test_det_zero_iff_rank_deficient(seed, size):
    m = _random_matrix(seed, size)
    assert (m.det() == 0) == (m.rank() < size)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 100_000), size=st.integers(1, 4))
def test_inverse_property(seed, size):
    m = _random_matrix(seed, size)
    if m.det() == 0:
        return
    assert m.matmul(m.inverse()) == QMatrix.identity(size)
    assert m.inverse().matmul(m) == QMatrix.identity(size)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 100_000), size=st.integers(1, 4))
def test_nullspace_vectors_annihilate(seed, size):
    m = _random_matrix(seed, size)
    for candidate in m.nullspace():
        assert all(value == 0 for value in m.matvec(candidate))


# ----------------------------------------------------------------------
# The integer core against the Fraction references
# ----------------------------------------------------------------------
def _entry(rng: random.Random):
    draw = rng.random()
    if draw < 0.3:
        return 0
    if draw < 0.6:
        return rng.randint(-9, 9)
    if draw < 0.85:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 7))
    return rng.choice((-1, 1)) * (2 ** rng.randint(64, 72) + rng.randint(0, 99))


def _random_system(seed: int) -> QMatrix:
    """Wide, tall or square; about a third rank-deficient (a row
    replaced by a rational combination of two others); zero rows and
    columns; negative, rational and beyond-2^64 entries."""
    rng = random.Random(seed)
    nrows = rng.randint(1, 7)
    ncols = nrows if rng.random() < 0.35 else rng.randint(1, 7)
    rows = [[_entry(rng) for _ in range(ncols)] for _ in range(nrows)]
    if nrows >= 3 and rng.random() < 0.35:
        a, b, target = rng.sample(range(nrows), 3)
        s, t = Fraction(rng.randint(-5, 5), rng.randint(1, 3)), rng.randint(-3, 3)
        rows[target] = [s * x + t * y for x, y in zip(rows[a], rows[b])]
    if rng.random() < 0.2:
        rows[rng.randrange(nrows)] = [0] * ncols
    if rng.random() < 0.2:
        column = rng.randrange(ncols)
        for row in rows:
            row[column] = 0
    return QMatrix(rows)


def _reference_nullspace(matrix: QMatrix):
    reduced, pivots, _ = gauss_jordan(matrix)
    basis = []
    for free in range(matrix.ncols):
        if free in pivots:
            continue
        candidate = [Fraction(0)] * matrix.ncols
        candidate[free] = Fraction(1)
        for row_index, pivot_col in enumerate(pivots):
            candidate[pivot_col] = -reduced[row_index][free]
        basis.append(tuple(candidate))
    return basis


SEEDS = range(400)


@pytest.mark.parametrize("chunk", range(4))
def test_elimination_matches_the_reference(chunk):
    for seed in SEEDS[chunk::4]:
        matrix = _random_system(seed)
        reduced, pivots, transform = gauss_jordan(matrix)
        assert matrix.rank() == len(pivots), seed
        assert matrix.rref() == (QMatrix(reduced), pivots), seed
        assert matrix.nullspace() == _reference_nullspace(matrix), seed
        if matrix.is_square():
            assert matrix.det() == gaussian_det(matrix), seed
            if len(pivots) == matrix.nrows:
                assert matrix.inverse() == QMatrix(transform), seed
            else:
                with pytest.raises(LinalgError):
                    matrix.inverse()


@pytest.mark.parametrize("chunk", range(4))
def test_solve_matches_the_reference(chunk):
    consistent = inconsistent = 0
    for seed in SEEDS[chunk::4]:
        matrix = _random_system(seed)
        rng = random.Random(-seed)
        weights = [_entry(rng) for _ in range(matrix.ncols)]
        for rhs in (matrix.matvec(weights),
                    [_entry(rng) for _ in range(matrix.nrows)]):
            expected = gaussian_solve(matrix, rhs)
            assert matrix.solve(rhs) == expected, seed
            if expected is None:
                inconsistent += 1
            else:
                consistent += 1
                assert all(isinstance(v, Fraction) for v in expected)
    assert consistent and inconsistent


def test_degenerate_shapes_match_the_reference():
    for matrix in (QMatrix([]), QMatrix([[], []]), QMatrix([[0, 0, 0]]),
                   QMatrix([[0], [0]]), QMatrix([[2 ** 80, 0], [0, 0]])):
        reduced, pivots, _ = gauss_jordan(matrix)
        assert matrix.rref() == (QMatrix(reduced), pivots)
        assert matrix.nullspace() == _reference_nullspace(matrix)
        for rhs in ([0] * matrix.nrows, [1] * matrix.nrows):
            assert matrix.solve(rhs) == gaussian_solve(matrix, rhs)
    assert QMatrix([]).det() == 1 and QMatrix([]).inverse() == QMatrix([])


class _ExactInt(int):
    """An int whose arithmetic stays an ``_ExactInt`` and whose floor
    division asserts a zero remainder (and counts itself)."""

    divisions = 0

    def __add__(self, other):
        return _ExactInt(int(self) + int(other))

    __radd__ = __add__

    def __sub__(self, other):
        return _ExactInt(int(self) - int(other))

    def __rsub__(self, other):
        return _ExactInt(int(other) - int(self))

    def __mul__(self, other):
        return _ExactInt(int(self) * int(other))

    __rmul__ = __mul__

    def __neg__(self):
        return _ExactInt(-int(self))

    def __floordiv__(self, other):
        quotient, remainder = divmod(int(self), int(other))
        assert remainder == 0, (int(self), int(other))
        _ExactInt.divisions += 1
        return _ExactInt(quotient)

    def __rfloordiv__(self, other):
        return _ExactInt(other).__floordiv__(self)


def test_every_bareiss_division_is_exact():
    _ExactInt.divisions = 0
    for seed in range(200):
        matrix = _random_system(seed)
        rows = []
        for row in matrix.rows:
            common = 1
            for value in row:
                common *= value.denominator
            rows.append([_ExactInt(int(value * common)) for value in row])
        echelon(rows, matrix.ncols)
    assert _ExactInt.divisions > 1000
