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

The columns are given as a ``VertexFamily`` of 0/1 vertices, too many to
list.  Bland's entering column is the family's first vertex whose dual
sum exceeds a threshold, and the certificate is checked against the
family's maximum; the pivots are those of a scan over the full list.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import Protocol, Sequence

from .numeric import clear_denominators

__all__ = ["feasible_nonnegative"]

Rational = int | Fraction


class VertexFamily(Protocol):
    """0/1 columns given implicitly, each with a 1 in the last
    (normalisation) row: the vertices of a polytope, too many to list.

    Column j holds a 1 in the rows ``positions(j)`` and in the last row.
    ``first_above(w, t)`` is the lowest j whose sum of ``w`` over
    ``positions(j)`` exceeds ``t``, or None; ``max_value(w)`` is the
    largest such sum.  ``StateSpace`` is one.
    """

    count: int

    def positions(self, j: int) -> Sequence[int]: ...

    def first_above(self, w: Sequence[Rational], t: Rational) -> int | None: ...

    def max_value(self, w: Sequence[Rational]) -> Rational: ...


def feasible_nonnegative(
    family: VertexFamily, rhs: Sequence[Rational]
) -> tuple[dict[int, Fraction] | None, list[Fraction] | None]:
    """Solve ``sum_j x_j * column_j = rhs`` with ``x >= 0`` exactly, over
    the columns of ``family``, priced without listing them.

    Entries of ``rhs`` are ints or Fractions; its last entry is the
    normalisation row.  Returns ``(x, None)`` on success, with ``x`` a
    sparse dict of the nonzero coordinates, or ``(None, y)`` with a
    Farkas certificate of infeasibility.  Both outcomes are verified
    internally before being returned.
    """
    m, n = len(rhs), family.count
    sign = [1 if v >= 0 else -1 for v in rhs]  # flipped rows start feasible
    rhs_scale, beta = clear_denominators(list(map(abs, rhs)))  # D·B⁻¹ b
    det = 1
    inverse = [[int(i == k) for k in range(m)] for i in range(m)]  # D·B⁻¹
    dual = [1] * m  # D·y
    basis = list(range(n, n + m))

    while True:
        # D times the reduced cost: -dual·a_j on a column, D - dual_k on
        # artificial k, which come after all columns.  The row flips fold
        # into w, and the normalisation row into the threshold.
        w = list(map(mul, dual, sign))
        entering = family.first_above(w, -w.pop())
        if entering is not None:
            rows = [*family.positions(entering), m - 1]
            values = list(map(sign.__getitem__, rows))
            reduced = -sum(map(mul, map(dual.__getitem__, rows), values))
            alpha = [sum(map(mul, map(r.__getitem__, rows), values)) for r in inverse]
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
            basis[i]: Fraction(beta[i], det * rhs_scale)
            for i in range(m)
            if basis[i] < n and beta[i] != 0
        }
        _verify_solution(family, rhs, solution)
        return solution, None

    # y = D·y / D through the row flips; D·y has the same signs to check.
    scaled = list(map(mul, sign, dual))
    _verify_certificate(family, rhs, scaled)
    return None, [Fraction(v, det) for v in scaled]


def _verify_solution(
    family: VertexFamily, rhs: Sequence[Rational], solution: dict[int, Fraction]
) -> None:
    m = len(rhs)
    total = [Fraction(0)] * m
    for j, coeff in solution.items():
        if coeff < 0:
            raise RuntimeError("simplex returned a negative coefficient")
        for i in [*family.positions(j), m - 1]:
            total[i] += coeff
    if any(total[i] != rhs[i] for i in range(m)):
        raise RuntimeError("simplex solution does not reproduce the target")


def _verify_certificate(
    family: VertexFamily, rhs: Sequence[Rational], y: Sequence[Rational]
) -> None:
    if sum(map(mul, y, rhs)) <= 0:
        raise RuntimeError("Farkas certificate does not separate the target")
    if family.max_value(y[:-1]) + y[-1] > 0:
        raise RuntimeError("Farkas certificate fails on a column")
