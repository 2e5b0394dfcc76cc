"""Exact phase-one simplex over the rationals, in integer arithmetic.

Decides feasibility of  A x = b, x >= 0, which is all that convex-hull
membership needs: the columns of A are candidate vertices (plus a
normalisation row) and x is the mixture.  The method is the integer
revised simplex of Edmonds and Bareiss (*Math. Comp.* 22, 1968): D =
det B, the adjugate D·B⁻¹, D·B⁻¹ b and the dual D·y stay integers,
updated by exact division by the previous D.  Bland's rule, unchanged
(lowest entering index; ties in the ratio test to the lower basic
index), makes termination unconditional and the pivots those of the
Fraction tableau.  Infeasibility comes with a Farkas certificate read
off the optimal dual: a vector y with  y . A_j <= 0  for every column j
and  y . b > 0.  Both outcomes are checked against the input.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress
from operator import mul
from typing import Sequence

from .numeric import clear_denominators

__all__ = ["feasible_nonnegative"]

Rational = int | Fraction


def feasible_nonnegative(
    columns: Sequence[Sequence[Rational]], rhs: Sequence[Rational]
) -> tuple[dict[int, Fraction] | None, list[Fraction] | None]:
    """Solve ``sum_j x_j * columns[j] = rhs`` with ``x >= 0`` exactly.

    Entries are ints or Fractions.  Returns ``(x, None)`` on success,
    with ``x`` a sparse dict of the nonzero coordinates, or ``(None, y)``
    with a Farkas certificate of infeasibility.  Both outcomes are
    verified internally before being returned.
    """
    m = len(rhs)
    n = len(columns)
    for col in columns:
        if len(col) != m:
            raise ValueError("column length does not match rhs")

    sign = [1 if v >= 0 else -1 for v in rhs]  # flipped rows start feasible
    flipped = -1 in sign
    rhs_scale, beta = clear_denominators(list(map(abs, rhs)))  # D·B⁻¹ b
    sparse = []  # (scale, values, rows); a positive scale moves no pivot
    for col in columns:
        rows = list(compress(range(m), col))
        values = list(filter(None, col))
        if flipped:
            values = list(map(mul, map(sign.__getitem__, rows), values))
        sparse.append((*clear_denominators(values), rows))
    det = 1
    inverse = [[int(i == k) for k in range(m)] for i in range(m)]  # D·B⁻¹
    dual = [1] * m  # D·y
    basis = list(range(n, n + m))

    while True:
        # D times the reduced cost: -dual·a_j on a column, D - dual_k on
        # artificial k, which come after all columns.
        for entering, (_, values, rows) in enumerate(sparse):
            reduced = -sum(map(mul, map(dual.__getitem__, rows), values))
            if reduced < 0:
                alpha = [sum(map(mul, map(r.__getitem__, rows), values)) for r in inverse]
                break
        else:
            k = next((k for k in range(m) if dual[k] > det), None)
            if k is None:
                break
            entering, reduced, alpha = n + k, det - dual[k], [r[k] for r in inverse]

        leaving = None
        for i in range(m):
            if alpha[i] > 0:
                if leaving is not None:
                    left, right = beta[i] * alpha[leaving], beta[leaving] * alpha[i]
                    if left > right or (left == right and basis[i] > basis[leaving]):
                        continue
                leaving = i
        if leaving is None:
            raise RuntimeError("phase-one objective unbounded; invalid input")

        pivot, pivot_row, pivot_beta = alpha[leaving], inverse[leaving], beta[leaving]
        for i in range(m):
            if i != leaving:
                a = alpha[i]
                inverse[i] = [(pivot * x - a * p) // det for x, p in zip(inverse[i], pivot_row)]
                beta[i] = (pivot * beta[i] - a * pivot_beta) // det
        dual = [(pivot * y + reduced * p) // det for y, p in zip(dual, pivot_row)]
        det = pivot
        basis[leaving] = entering

    if all(beta[i] == 0 for i in range(m) if basis[i] >= n):
        solution = {
            basis[i]: Fraction(sparse[basis[i]][0] * beta[i], det * rhs_scale)
            for i in range(m)
            if basis[i] < n and beta[i] != 0
        }
        _verify_solution(columns, rhs, solution)
        return solution, None

    # y = D·y / D through the row flips; D·y has the same signs to check.
    scaled = list(map(mul, sign, dual))
    _verify_certificate(columns, rhs, scaled)
    return None, [Fraction(v, det) for v in scaled]


def _verify_solution(
    columns: Sequence[Sequence[Rational]],
    rhs: Sequence[Rational],
    solution: dict[int, Fraction],
) -> None:
    m = len(rhs)
    total = [Fraction(0)] * m
    for j, coeff in solution.items():
        if coeff < 0:
            raise RuntimeError("simplex returned a negative coefficient")
        for i, c in enumerate(columns[j]):
            if c:
                total[i] += coeff * c
    if any(total[i] != rhs[i] for i in range(m)):
        raise RuntimeError("simplex solution does not reproduce the target")


def _verify_certificate(
    columns: Sequence[Sequence[Rational]],
    rhs: Sequence[Rational],
    y: Sequence[Rational],
) -> None:
    if sum(map(mul, y, rhs)) <= 0:
        raise RuntimeError("Farkas certificate does not separate the target")
    for col in columns:
        if sum(map(mul, y, col)) > 0:
            raise RuntimeError("Farkas certificate fails on a column")
