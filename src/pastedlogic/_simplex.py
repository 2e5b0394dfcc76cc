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

The adjugate is mostly zeros and small integers, so it is held by
columns, each a dict of its nonzeros: the entering column's image
D·B⁻¹ a_j is the sum of the columns at the rows where a_j is 1, and a
pivot is a rank-one update that touches only nonzeros.  Each division
is exact entry by entry, because every entry it yields is an entry of
the new D·B⁻¹ (or of D·B⁻¹ b, or of D·y), an integer by Cramer's rule.

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
    scaled_rhs = list(map(mul, sign, beta))  # rhs_scale·rhs
    det = 1
    # D·B⁻¹ by columns, nonzeros only, and D·y.  Column k and dual[k]
    # carry the flip of row k, so a vertex column enters as plain 0/1.
    adjugate = [{k: s} for k, s in enumerate(sign)]
    dual = sign[:]
    basis = list(range(n, n + m))

    while True:
        # D times the reduced cost: -dual·a_j on a column, D - dual_k on
        # artificial k, which come after all columns.  The normalisation
        # row folds into the threshold.
        entering = family.first_above(dual[:-1], -dual[-1])
        alpha = [0] * m  # D·B⁻¹ times the entering column
        if entering is not None:
            rows = [*family.positions(entering), m - 1]
            reduced = -sum(map(dual.__getitem__, rows))
            for k in rows:
                for i, x in adjugate[k].items():
                    alpha[i] += x
        else:
            k = next((k for k in range(m) if dual[k] * sign[k] > det), None)
            if k is None:
                break
            entering, reduced = n + k, det - dual[k] * sign[k]
            for i, x in adjugate[k].items():
                alpha[i] = x * sign[k]

        leaving = None
        for i, a in enumerate(alpha):
            if a > 0:
                if leaving is not None:
                    left, right = beta[i] * alpha[leaving], beta[leaving] * a
                    if left > right or (left == right and basis[i] > basis[leaving]):
                        continue
                leaving = i
        if leaving is None:
            raise RuntimeError("phase-one objective unbounded; invalid input")

        # Bareiss: an entry x in row i of a column whose leaving-row entry
        # is p becomes (pivot·x - alpha_i·p) / det, an entry of the new
        # D·B⁻¹ and so an integer: each division is exact on its own.
        # With alpha_leaving lowered by det, the same formula keeps the
        # leaving row as it is.  When pivot == det only the columns with
        # a nonzero p change, and only in the rows where alpha is nonzero.
        pivot, pivot_beta = alpha[leaving], beta[leaving]
        alpha[leaving] -= det
        changed = [(i, a) for i, a in enumerate(alpha) if a]
        pivot_row = {}
        for k, column in enumerate(adjugate):
            p = column.get(leaving)
            if p is None:
                if pivot != det:
                    adjugate[k] = {i: pivot * x // det for i, x in column.items()}
                continue
            pivot_row[k] = p
            if pivot == det:
                for i, a in changed:
                    x = column.get(i, 0) - a * p // det
                    if x:
                        column[i] = x
                    else:
                        del column[i]
            else:
                combined = {i: pivot * x for i, x in column.items()}
                for i, a in changed:
                    combined[i] = combined.get(i, 0) - a * p
                adjugate[k] = {i: x // det for i, x in combined.items() if x}
        beta = [(pivot * b - a * pivot_beta) // det for b, a in zip(beta, alpha)]
        if pivot == det:
            for k, p in pivot_row.items():
                dual[k] += reduced * p // det
        else:
            dual = [(pivot * y + reduced * pivot_row.get(k, 0)) // det for k, y in enumerate(dual)]
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

    # y = D·y / D, the row flips already folded in; D·y has its signs.
    # D > 0, so D·y and rhs_scale·rhs certify what y and rhs do.
    _verify_certificate(family, scaled_rhs, dual)
    return None, [Fraction(v, det) for v in dual]


def _verify_solution(
    family: VertexFamily, rhs: Sequence[Rational], solution: dict[int, Rational]
) -> None:
    """Check that ``solution`` is a nonnegative mixture of its columns
    giving ``rhs``, in integers: over one common denominator the
    coefficients and ``rhs`` are integers, and the coefficients' sums
    per row must be the scaled ``rhs``."""
    m = len(rhs)
    _, scaled = clear_denominators([*rhs, *solution.values()])
    total = [0] * m
    for j, x in zip(solution, scaled[m:]):
        if x < 0:
            raise RuntimeError("simplex returned a negative coefficient")
        for i in [*family.positions(j), m - 1]:
            total[i] += x
    if total != scaled[:m]:
        raise RuntimeError("simplex solution does not reproduce the target")


def _verify_certificate(
    family: VertexFamily, rhs: Sequence[Rational], y: Sequence[Rational]
) -> None:
    """Check a Farkas certificate: y . rhs > 0 and y . a_j <= 0 for every
    column.  Both are signs, so positive multiples of ``rhs`` and ``y``,
    such as the integer ones the simplex holds, check the same."""
    if sum(map(mul, y, rhs)) <= 0:
        raise RuntimeError("Farkas certificate does not separate the target")
    if family.max_value(y[:-1]) + y[-1] > 0:
        raise RuntimeError("Farkas certificate fails on a column")
