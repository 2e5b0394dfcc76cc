"""The exact solve and rank sweep behind the empirical projection."""

from fractions import Fraction as F

import pytest

from pastedlogic import SingularKKTError
from pastedlogic._linalg import independent_rows, solve_exact


def residual(matrix, x, rhs):
    return [sum(a * v for a, v in zip(row, x)) - b for row, b in zip(matrix, rhs)]


class TestSolveExact:
    def test_non_integer_rational_system(self):
        matrix = [
            [F(1, 2), F(1, 3), F(-2, 7)],
            [F(1, 4), F(2, 5), F(1, 9)],
            [F(5, 6), 0, F(3, 11)],
        ]
        rhs = [F(1, 6), F(5, 7), F(-3, 13)]
        x = solve_exact(matrix, rhs)
        assert all(isinstance(v, F) for v in x)
        assert residual(matrix, x, rhs) == [0, 0, 0]

    def test_zero_leading_entry_takes_a_later_pivot(self):
        matrix = [[0, F(2, 3)], [F(3, 4), F(1, 5)]]
        assert solve_exact(matrix, [F(1), F(1, 2)]) == [F(4, 15), F(3, 2)]

    def test_empty_system(self):
        assert solve_exact([], []) == []

    @pytest.mark.parametrize(
        "matrix",
        [
            [[F(1, 2), F(1, 3)], [F(3, 2), 1]],
            [[1, 2, 3], [2, 4, 7], [3, 6, 10]],  # zero column after one step
        ],
    )
    def test_singular_matrix_raises(self, matrix):
        with pytest.raises(SingularKKTError, match="singular"):
            solve_exact(matrix, [F(1)] * len(matrix))

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError, match="not square"):
            solve_exact([[1, 2]], [F(1)])


class TestIndependentRows:
    def test_keeps_first_maximal_independent_subset(self):
        rows = [[F(1, 2), F(1, 3), 0], [1, F(2, 3), 0], [0, 0, F(1, 7)], [F(1, 2), F(1, 3), F(1, 7)]]
        # row 1 = 2 * row 0 and row 3 = row 0 + row 2, with matching sums
        assert independent_rows(rows, [F(1, 5), F(2, 5), F(1), F(6, 5)]) == [0, 2]

    def test_inconsistent_dependent_row_raises(self):
        rows = [[1, 1, 0], [0, 0, 1], [1, 1, 1]]
        with pytest.raises(SingularKKTError, match="inconsistent"):
            independent_rows(rows, [1, 1, 1])
