"""Exact rational matrices.

Everything proof-carrying in this library (span membership for Lemma
31, nonsingularity for Lemma 40, cone membership for Lemma 55/56) is
exact — the matrices involved (radix-``T`` Vandermonde matrices) are
catastrophically ill-conditioned for floating point.

:class:`QMatrix` is a small, immutable, dependency-free implementation
of the handful of operations we need: RREF with pivot tracking, rank,
determinant, inverse, linear solve, matrix/vector products, and
nullspace bases.  It is not a general numerics library and does not try
to be one.

Elimination (DESIGN.md §6.6) runs on integers.  :func:`echelon` is
Bareiss' fraction-free elimination over rows scaled to integers by
their denominator LCM (:func:`integerize`): every intermediate value
is an integer and every division is exact, so no Fraction is built or
normalized inside the loop.  A matrix's echelon form and pivot columns
are computed once and cached; ``rank``, ``det``, ``rref`` and
``nullspace`` read them.  ``solve`` eliminates the augmented system
``[A | b]`` (:func:`solve_augmented`, which span membership calls
straight from integer vectors) and ``inverse`` the system
``[A | S]`` (``S`` the row scales), and :func:`back_substitute` turns
an echelon column into integer numerators over the last pivot.
Fractions appear only in returned values.

The textbook Fraction algorithms stay as references:
:func:`gaussian_det` and the Gauss–Jordan pass :func:`gauss_jordan`
with its :func:`gaussian_solve`.  Tests and the differential lane
compare the integer core against them; no production code calls them.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import List, Optional, Sequence, Tuple

from repro.errors import LinalgError
from repro.faults.budget import active_budget

Scalar = Fraction | int
QVector = Tuple[Fraction, ...]


def _to_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise LinalgError(
        f"exact matrices accept int/Fraction entries only, got {type(value).__name__}"
    )


_ZERO = Fraction(0)
_ONE = Fraction(1)


def vector(values: Sequence[Scalar]) -> QVector:
    """Normalize a sequence into a tuple of Fractions."""
    return tuple(_to_fraction(v) for v in values)


def dot(left: Sequence[Scalar], right: Sequence[Scalar]) -> Fraction:
    """Exact dot product ``⟨u, v⟩``."""
    if len(left) != len(right):
        raise LinalgError(f"dot of lengths {len(left)} and {len(right)}")
    return sum((_to_fraction(a) * _to_fraction(b) for a, b in zip(left, right)),
               Fraction(0))


def integerize(values: Sequence[Scalar]) -> Tuple[int, List[int]]:
    """Smallest positive ``c`` with ``c·values`` integral, plus the
    scaled integers (Lemma 55's "common multiple of denominators")."""
    scale = 1
    for value in values:
        if type(value) is not int:
            denominator = _to_fraction(value).denominator
            if denominator != 1:
                scale = scale // gcd(scale, denominator) * denominator
    if scale == 1:
        return 1, [int(value) for value in values]
    return scale, [value.numerator * (scale // value.denominator)
                   for value in values]


def echelon(rows: List[List[int]], ncols: int) -> Tuple[Tuple[int, ...], int]:
    """Bareiss fraction-free row echelon form of an integer matrix, in
    place; returns ``(pivots, sign)``.

    Each column takes as pivot the first row, from the current pivot
    row down, with a non-zero entry; a column without one is skipped.
    ``pivots`` are the pivot columns and ``sign`` the parity of the row
    swaps.  Row ``k`` ends as the echelon row whose entries are minors
    of the row-swapped input, so the last pivot is the minor on the
    pivot rows and columns (the determinant, for a nonsingular square
    input), and by Sylvester's identity every division by the
    previous pivot is exact.  Rows below the last pivot end as zeros.
    One step of the active budget is charged per pivot row.
    """
    budget = active_budget()
    height = len(rows)
    pivots: List[int] = []
    sign = 1
    previous = 1
    for col in range(ncols):
        top = len(pivots)
        if top == height:
            break
        chosen = top
        while chosen < height and rows[chosen][col] == 0:
            chosen += 1
        if chosen == height:
            continue
        if budget is not None:
            budget.charge(1)
        if chosen != top:
            rows[top], rows[chosen] = rows[chosen], rows[top]
            sign = -sign
        pivot_row = rows[top]
        pivot = pivot_row[col]
        tail = pivot_row[col + 1:]
        for i in range(top + 1, height):
            row = rows[i]
            lead = row[col]
            if lead:
                row[col + 1:] = [(a * pivot - lead * b) // previous
                                 for a, b in zip(row[col + 1:], tail)]
                row[col] = 0
            elif pivot != previous:
                row[col + 1:] = [a * pivot // previous for a in row[col + 1:]]
        pivots.append(col)
        previous = pivot
    return tuple(pivots), sign


def back_substitute(rows: Sequence[Sequence[int]], pivots: Sequence[int],
                    column: Sequence[int]) -> List[int]:
    """Solve the echelon system for one right-hand side ``column``
    (read on the pivot rows), as integers over the last pivot ``d``:
    ``y`` with ``x[pivots[k]] = y[k] / d``, free variables 0.

    ``d`` is the minor on the pivot rows and columns, so Cramer's rule
    makes every ``y[k]`` an integer and each division below exact.
    """
    rank = len(pivots)
    last = rows[rank - 1][pivots[-1]]
    numerators = [0] * rank
    for k in range(rank - 1, -1, -1):
        row = rows[k]
        acc = last * column[k]
        for later in range(k + 1, rank):
            acc -= row[pivots[later]] * numerators[later]
        numerators[k] = acc // row[pivots[k]]
    return numerators


def solve_augmented(rows: List[List[int]], width: int) -> Optional[QVector]:
    """A particular solution of the integer system whose augmented rows
    are ``rows`` (``width`` unknowns, then the right-hand side), or
    ``None`` when it is inconsistent.  Free variables are set to 0.
    ``rows`` is eliminated in place."""
    pivots, _ = echelon(rows, width + 1)
    if pivots and pivots[-1] == width:
        return None  # a zero row of A against a non-zero right-hand side
    solution = [_ZERO] * width
    if pivots:
        last = rows[len(pivots) - 1][pivots[-1]]
        numerators = back_substitute(rows, pivots, [row[width] for row in rows])
        for col, numerator in zip(pivots, numerators):
            if numerator:
                solution[col] = Fraction(numerator, last)
    return tuple(solution)


class QMatrix:
    """An immutable matrix over the rationals.

    >>> m = QMatrix([[1, 2], [3, 4]])
    >>> m.det()
    Fraction(-2, 1)
    >>> m.inverse().matvec([1, 0])
    (Fraction(-2, 1), Fraction(3, 2))
    """

    __slots__ = ("rows", "nrows", "ncols", "_echelon")

    def __init__(self, rows: Sequence[Sequence[Scalar]]):
        normalized: List[QVector] = [vector(row) for row in rows]
        widths = {len(row) for row in normalized}
        if len(widths) > 1:
            raise LinalgError(f"ragged rows with widths {sorted(widths)}")
        self.rows = tuple(normalized)
        self.nrows = len(self.rows)
        self.ncols = next(iter(widths)) if widths else 0
        self._echelon = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @staticmethod
    def identity(size: int) -> "QMatrix":
        return QMatrix([
            [Fraction(1) if i == j else Fraction(0) for j in range(size)]
            for i in range(size)
        ])

    @staticmethod
    def zeros(nrows: int, ncols: int) -> "QMatrix":
        return QMatrix([[Fraction(0)] * ncols for _ in range(nrows)])

    @staticmethod
    def from_columns(columns: Sequence[Sequence[Scalar]]) -> "QMatrix":
        if not columns:
            return QMatrix([])
        height = len(columns[0])
        if any(len(c) != height for c in columns):
            raise LinalgError("columns of unequal height")
        return QMatrix([[columns[j][i] for j in range(len(columns))]
                        for i in range(height)])

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def entry(self, i: int, j: int) -> Fraction:
        return self.rows[i][j]

    def row(self, i: int) -> QVector:
        return self.rows[i]

    def column(self, j: int) -> QVector:
        return tuple(row[j] for row in self.rows)

    def columns(self) -> List[QVector]:
        return [self.column(j) for j in range(self.ncols)]

    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def transpose(self) -> "QMatrix":
        return QMatrix([[self.rows[i][j] for i in range(self.nrows)]
                        for j in range(self.ncols)])

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def matvec(self, x: Sequence[Scalar]) -> QVector:
        if len(x) != self.ncols:
            raise LinalgError(f"matvec: {self.ncols} columns vs vector of {len(x)}")
        xs = vector(x)
        return tuple(dot(row, xs) for row in self.rows)

    def matmul(self, other: "QMatrix") -> "QMatrix":
        if self.ncols != other.nrows:
            raise LinalgError(
                f"matmul: {self.nrows}x{self.ncols} times {other.nrows}x{other.ncols}"
            )
        other_cols = other.columns()
        return QMatrix([
            [dot(row, col) for col in other_cols]
            for row in self.rows
        ])

    def __mul__(self, other):
        if isinstance(other, QMatrix):
            return self.matmul(other)
        return NotImplemented

    def scale(self, factor: Scalar) -> "QMatrix":
        f = _to_fraction(factor)
        return QMatrix([[f * v for v in row] for row in self.rows])

    def add(self, other: "QMatrix") -> "QMatrix":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise LinalgError("matrix addition shape mismatch")
        return QMatrix([
            [a + b for a, b in zip(r1, r2)]
            for r1, r2 in zip(self.rows, other.rows)
        ])

    # ------------------------------------------------------------------
    # Elimination
    # ------------------------------------------------------------------
    def _eliminated(self):
        """The cached integer elimination of ``A``: ``(rows, pivots,
        sign, scale)`` — the echelon rows and pivot columns of
        :func:`echelon`, the parity of its row swaps, and the product
        of the row scales (``det A = sign · last pivot / scale``)."""
        if self._echelon is None:
            rows: List[List[int]] = []
            scale = 1
            for row in self.rows:
                row_scale, ints = integerize(row)
                rows.append(ints)
                scale *= row_scale
            pivots, sign = echelon(rows, self.ncols)
            self._echelon = (rows, pivots, sign, scale)
        return self._echelon

    def _reduced_rows(self) -> List[List[Fraction]]:
        """The RREF rows: pivot columns are unit columns, and each other
        column is read off the echelon form by back substitution."""
        rows, pivots, _, _ = self._eliminated()
        reduced = [[_ZERO] * self.ncols for _ in range(self.nrows)]
        if not pivots:
            return reduced
        last = rows[len(pivots) - 1][pivots[-1]]
        pivot_set = set(pivots)
        for k, col in enumerate(pivots):
            reduced[k][col] = _ONE
        for col in range(pivots[0] + 1, self.ncols):
            if col in pivot_set:
                continue
            numerators = back_substitute(rows, pivots, [row[col] for row in rows])
            for k, numerator in enumerate(numerators):
                if numerator:
                    reduced[k][col] = Fraction(numerator, last)
        return reduced

    def rref(self) -> Tuple["QMatrix", Tuple[int, ...]]:
        """Reduced row echelon form and the pivot column indices."""
        return QMatrix(self._reduced_rows()), self._eliminated()[1]

    def rank(self) -> int:
        return len(self._eliminated()[1])

    def det(self) -> Fraction:
        """Determinant from the cached fraction-free elimination."""
        if not self.is_square():
            raise LinalgError("determinant of a non-square matrix")
        rows, pivots, sign, scale = self._eliminated()
        if len(pivots) < self.nrows:
            return Fraction(0)
        if not rows:
            return Fraction(1)
        return Fraction(sign * rows[-1][-1], scale)

    def is_nonsingular(self) -> bool:
        return self.is_square() and self.det() != 0

    def integer_inverse(self) -> Tuple[Tuple[Tuple[int, ...], ...], int]:
        """``(N, d)`` with integer rows ``N``, ``d > 0`` and
        ``A⁻¹ = N / d``: the system ``[A | S]`` (``A`` with its rows
        scaled to integers, ``S`` the diagonal of the scales) is
        eliminated once and each of its last ``n`` columns
        back-substituted."""
        if not self.is_square():
            raise LinalgError("inverse of a non-square matrix")
        size = self.nrows
        rows: List[List[int]] = []
        for i, row in enumerate(self.rows):
            scale, ints = integerize(row)
            unit = [0] * size
            unit[i] = scale
            rows.append(ints + unit)
        pivots, _ = echelon(rows, 2 * size)
        if pivots != tuple(range(size)):
            raise LinalgError("matrix is singular")
        if size == 0:
            return (), 1
        denominator = rows[-1][size - 1]
        columns = [back_substitute(rows, pivots, [row[size + j] for row in rows])
                   for j in range(size)]
        common = gcd(denominator, *(v for column in columns for v in column))
        if denominator < 0:
            common = -common
        numerators = tuple(tuple(column[i] // common for column in columns)
                           for i in range(size))
        return numerators, denominator // common

    def inverse(self) -> "QMatrix":
        numerators, denominator = self.integer_inverse()
        return QMatrix([[Fraction(v, denominator) for v in row]
                        for row in numerators])

    def solve(self, b: Sequence[Scalar]) -> Optional[QVector]:
        """A particular solution of ``A x = b``, or ``None`` when
        inconsistent.  Free variables are set to zero."""
        if len(b) != self.nrows:
            raise LinalgError(f"solve: {self.nrows} rows vs rhs of {len(b)}")
        rows = [integerize(row + (value,))[1]
                for row, value in zip(self.rows, b)]
        return solve_augmented(rows, self.ncols)

    def nullspace(self) -> List[QVector]:
        """A basis of ``{x : A x = 0}``."""
        reduced = self._reduced_rows()
        pivots = self._eliminated()[1]
        pivot_set = set(pivots)
        basis: List[QVector] = []
        for free in range(self.ncols):
            if free in pivot_set:
                continue
            candidate = [_ZERO] * self.ncols
            candidate[free] = _ONE
            for row_index, pivot_col in enumerate(pivots):
                candidate[pivot_col] = -reduced[row_index][free]
            basis.append(tuple(candidate))
        return basis

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QMatrix):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        body = "; ".join(
            "[" + ", ".join(str(v) for v in row) + "]" for row in self.rows
        )
        return f"QMatrix({self.nrows}x{self.ncols}: {body})"

    def to_int_rows(self) -> List[List[int]]:
        """Rows as ints; raises when any entry is non-integral."""
        result = []
        for row in self.rows:
            ints = []
            for value in row:
                if value.denominator != 1:
                    raise LinalgError(f"entry {value} is not an integer")
                ints.append(value.numerator)
            result.append(ints)
        return result


def gaussian_det(matrix: QMatrix) -> Fraction:
    """Textbook Fraction-arithmetic Gaussian determinant.

    This is the pre-Bareiss reference implementation, kept as the
    ground truth the fraction-free path is property-tested against
    (and as the ablation baseline for ``bench_engine.py``); no
    production code calls it.
    """
    if not matrix.is_square():
        raise LinalgError("determinant of a non-square matrix")
    rows = [list(row) for row in matrix.rows]
    size = matrix.nrows
    determinant = Fraction(1)
    for col in range(size):
        chosen = None
        for r in range(col, size):
            if rows[r][col] != 0:
                chosen = r
                break
        if chosen is None:
            return Fraction(0)
        if chosen != col:
            rows[col], rows[chosen] = rows[chosen], rows[col]
            determinant = -determinant
        determinant *= rows[col][col]
        inv = Fraction(1) / rows[col][col]
        for r in range(col + 1, size):
            if rows[r][col] != 0:
                factor = rows[r][col] * inv
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    return determinant


def gauss_jordan(matrix: QMatrix) -> Tuple[Tuple[QVector, ...], Tuple[int, ...],
                                           Tuple[QVector, ...]]:
    """Textbook Fraction Gauss–Jordan over ``[A | I]``.

    Returns ``(R, pivots, T)`` with ``T·A = R`` the RREF of ``A``.
    This is the pre-Bareiss elimination, kept with
    :func:`gaussian_solve` as the reference the integer core is tested
    against; no production code calls it.
    """
    width = matrix.ncols
    height = matrix.nrows
    rows: List[List[Fraction]] = [
        list(row) + [_ONE if i == j else _ZERO for j in range(height)]
        for i, row in enumerate(matrix.rows)
    ]
    pivots: List[int] = []
    pivot_row = 0
    for col in range(width):
        chosen = None
        for r in range(pivot_row, height):
            if rows[r][col] != 0:
                chosen = r
                break
        if chosen is None:
            continue
        rows[pivot_row], rows[chosen] = rows[chosen], rows[pivot_row]
        pivot_value = rows[pivot_row][col]
        if pivot_value != 1:
            rows[pivot_row] = [v / pivot_value for v in rows[pivot_row]]
        for r in range(height):
            if r != pivot_row and rows[r][col] != 0:
                factor = rows[r][col]
                pivot = rows[pivot_row]
                rows[r] = [a - factor * b
                           for a, b in zip(rows[r], pivot)]
        pivots.append(col)
        pivot_row += 1
        if pivot_row == height:
            break
    reduced = tuple(tuple(row[:width]) for row in rows)
    transform = tuple(tuple(row[width:]) for row in rows)
    return reduced, tuple(pivots), transform


def gaussian_solve(matrix: QMatrix, b: Sequence[Scalar]) -> Optional[QVector]:
    """Reference solve on :func:`gauss_jordan`: with ``T·A = R`` the
    system is consistent iff ``(T·b)_i = 0`` on every zero row of
    ``R``; free variables are set to zero."""
    if len(b) != matrix.nrows:
        raise LinalgError(f"solve: {matrix.nrows} rows vs rhs of {len(b)}")
    bs = vector(b)
    _, pivots, transform = gauss_jordan(matrix)
    transformed = [dot(row, bs) for row in transform]
    for r in range(len(pivots), matrix.nrows):
        if transformed[r] != 0:
            return None  # zero row of R with non-zero rhs: inconsistent
    solution = [Fraction(0)] * matrix.ncols
    for row_index, col in enumerate(pivots):
        solution[col] = transformed[row_index]
    return tuple(solution)
