"""The exact solve and rank sweep behind the empirical projection."""

import math
from fractions import Fraction as F
from random import Random

import numpy as np
import pytest

import pastedlogic as pl
from helpers import grid_logic, random_structure, reference_independent_rows, reference_solve_exact
from pastedlogic import SingularSystemError
from pastedlogic._linalg import Factor, independent_rows, solve_exact


def residual(matrix, x, rhs):
    return [sum(a * x[c] for c, a in row.items()) - b for row, b in zip(matrix, rhs)]


class TestSolveExact:
    def test_non_integer_rational_system(self):
        matrix = [
            {0: F(1, 2), 1: F(1, 3), 2: F(-2, 7)},
            {0: F(1, 4), 1: F(2, 5), 2: F(1, 9)},
            {0: F(5, 6), 2: F(3, 11)},
        ]
        rhs = [F(1, 6), F(5, 7), F(-3, 13)]
        x = solve_exact(matrix, rhs)
        assert all(isinstance(v, F) for v in x)
        assert residual(matrix, x, rhs) == [0, 0, 0]

    def test_zero_leading_entry_takes_a_later_pivot(self):
        matrix = [{1: F(2, 3)}, {0: F(3, 4), 1: F(1, 5)}]
        assert solve_exact(matrix, [F(1), F(1, 2)]) == [F(4, 15), F(3, 2)]

    def test_empty_system(self):
        assert solve_exact([], []) == []

    @pytest.mark.parametrize(
        "matrix",
        [
            [{0: F(1, 2), 1: F(1, 3)}, {0: F(3, 2), 1: 1}],
            [{0: 1, 1: 2, 2: 3}, {0: 2, 1: 4, 2: 7}, {0: 3, 1: 6, 2: 10}],  # zero column after one step
        ],
    )
    def test_singular_matrix_raises(self, matrix):
        with pytest.raises(SingularSystemError, match="singular"):
            solve_exact(matrix, [F(1)] * len(matrix))

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError, match="not square"):
            solve_exact([{0: 1, 1: 2}], [F(1)])


class TestFactor:
    def test_one_factor_serves_many_right_hand_sides(self):
        rng = Random(7)
        for n in (1, 2, 4, 7, 10):
            while True:  # a random sparse nonsingular matrix, Fractions in some rows
                matrix = [{c: F(rng.randint(-9, 9) or 1, rng.choice((1, 1, 2, 3, 7))) for c in range(n)
                           if rng.random() < 0.4 or c == i} for i in range(n)]
                if not isinstance(_outcome(reference_solve_exact, _dense(matrix, n), [0] * n), str):
                    break
            factor = Factor(matrix)
            for _ in range(15):
                rhs = [rng.randint(-10**40, 10**40) for _ in range(n)]
                den, nums = factor.solve(rhs)
                assert den > 0 and math.gcd(den, *nums) == 1
                assert [F(v, den) for v in nums] == reference_solve_exact(_dense(matrix, n), rhs)

    @pytest.mark.parametrize("n", [41, 101, 201])
    def test_a_cycles_factor_is_linear_in_its_size(self, n):
        # The reduced rows and their steps, with no dense inverse or L:
        # about 5n integers, where G⁻¹ would hold n²/2.
        _, _, factor = pl.cycle_logic(n).projection_plan
        held = sum(1 + len(others) + 3 * len(steps) for _, steps, _, _, _, others in factor.rows)
        assert len(factor.rows) == n and held <= 10 * n


class TestIndependentRows:
    def test_keeps_first_maximal_independent_subset(self):
        rows = [{0: F(1, 2), 1: F(1, 3)}, {0: 1, 1: F(2, 3)}, {2: F(1, 7)},
                {0: F(1, 2), 1: F(1, 3), 2: F(1, 7)}]
        # row 1 = 2 * row 0 and row 3 = row 0 + row 2, with matching sums
        assert independent_rows(rows, [F(1, 5), F(2, 5), F(1), F(6, 5)]) == [0, 2]

    def test_inconsistent_dependent_row_raises(self):
        rows = [{0: 1, 1: 1}, {2: 1}, {0: 1, 1: 1, 2: 1}]
        with pytest.raises(SingularSystemError, match="inconsistent"):
            independent_rows(rows, [1, 1, 1])


def _outcome(solver, *args):
    try:
        return solver(*args)
    except SingularSystemError as exc:
        return str(exc)


def _dense(rows, width):
    return [[row.get(c, 0) for c in range(width)] for row in rows]


def _agree_with_reference(structure, rng):
    """Kept rows, the error on an inconsistent structure, and the
    multipliers of two Gram systems agree with the dense reference:
    the kept contexts' Gram matrix (positive definite) and all the
    contexts' (singular when a context row is dependent).  Returns
    whether the context rows raised."""
    index = structure.atom_index
    rows = [{index[a]: 1 for a in ctx} for ctx in structure.contexts]
    ones = [1] * len(rows)
    kept = _outcome(independent_rows, rows, ones)
    assert kept == _outcome(reference_independent_rows, _dense(rows, len(index)), ones)
    sets = structure.context_sets
    for chosen in ([] if isinstance(kept, str) else kept, range(len(sets))):
        gram = [[len(sets[i] & sets[j]) for j in chosen] for i in chosen]
        rhs = [F(rng.randint(-60, 60), rng.randint(1, 40)) for _ in chosen]
        sparse = [{c: v for c, v in enumerate(row) if v} for row in gram]
        assert _outcome(solve_exact, sparse, rhs) == _outcome(reference_solve_exact, gram, rhs)
    return isinstance(kept, str)


class TestAgainstDenseReference:
    @pytest.mark.parametrize("n", range(3, 42))
    def test_cycles(self, n):
        assert not _agree_with_reference(pl.cycle_logic(n), Random(n))

    @pytest.mark.parametrize("k", [3, 8])
    def test_grids(self, k):
        assert not _agree_with_reference(grid_logic(k), Random(k))

    def test_random_structures(self):
        rng = np.random.default_rng(2024)
        raised = sum(_agree_with_reference(random_structure(rng), Random(seed)) for seed in range(400))
        # Both sides raise on the inconsistent ones, about three in eight.
        assert 100 <= raised <= 200
