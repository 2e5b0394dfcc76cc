"""Exact phase-one simplex over the rationals, in integer arithmetic.

Decides feasibility of  A x = b, x >= 0, which is all that convex-hull
membership needs: the columns of A are candidate vertices (plus a
normalisation row), b is integer and x is the mixture.  The method is
the integer revised simplex of Edmonds and Bareiss (*Math. Comp.* 22,
1968): D = det B, the adjugate D·B⁻¹, D·B⁻¹ b and the dual D·y stay
integers, updated by exact division by the previous D.  Bland's rule,
unchanged (lowest entering index; ties in the ratio test to the lower
basic index), makes termination unconditional and the pivots those of
the Fraction tableau.  Infeasibility comes with a Farkas certificate
read off the optimal dual: a vector y with  y . A_j <= 0  for every
column j and  y . b > 0.  The solver only solves: the caller checks the
answer, in the form it reports it.

The adjugate is mostly zeros and small integers, so it is held by
columns, each a dict of its nonzeros: the entering column's image
D·B⁻¹ a_j is the sum of the columns at the rows where a_j is 1, and a
pivot is a rank-one update that touches only nonzeros; one whose pivot
equals D, as most do, changes D·B⁻¹ b only where that image is nonzero.
Each division is exact entry by entry, because every entry it yields is
an entry of the new D·B⁻¹ (or of D·B⁻¹ b, or of D·y), an integer by
Cramer's rule.

The columns are given as a ``VertexFamily`` of 0/1 vertices, too many to
list.  Bland's entering column is the family's first vertex whose dual
sum exceeds a threshold, returned with its rows by the search that
found it; the pivots are those of a scan over the full list.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Protocol, Sequence


class VertexFamily(Protocol):
    """0/1 columns given implicitly, each with a 1 in the last
    (normalisation) row: the vertices of a polytope, too many to list.

    Column j holds a 1 in the rows ``positions(j)`` and in the last row.
    ``first_above(w, t)`` is ``(j, positions(j))`` for the lowest j whose
    sum of ``w`` over ``positions(j)`` exceeds ``t``, the positions in
    any order, or None.  ``StateSpace`` is one.
    """

    count: int

    def positions(self, j: int) -> Sequence[int]: ...

    def first_above(self, w: Sequence[int], t: int) -> tuple[int, Sequence[int]] | None: ...


def feasible_nonnegative(
    family: VertexFamily, rhs: Sequence[int]
) -> tuple[dict[int, Fraction] | None, list[Fraction] | None]:
    """Solve ``sum_j x_j * column_j = rhs`` with ``x >= 0`` exactly, over
    the columns of ``family``, priced without listing them.

    ``rhs`` is integer (a rational target over a common denominator, which
    scales ``x`` and nothing else); its last entry is the normalisation
    row.  Returns ``(x, None)`` on success, with ``x`` a sparse dict of the
    nonzero coordinates, or ``(None, y)`` with a Farkas certificate of
    infeasibility.  Neither is checked here.
    """
    m, n = len(rhs), family.count
    sign = [1 if v >= 0 else -1 for v in rhs]  # flipped rows start feasible
    beta = list(map(abs, rhs))  # D·B⁻¹ b
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
        found = family.first_above(dual[:-1], -dual[-1])
        alpha = [0] * m  # D·B⁻¹ times the entering column
        if found is not None:
            entering, rows = found[0], [*found[1], m - 1]
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
        # leaving row as it is.  When pivot == det only the rows where
        # alpha is nonzero change, in D·B⁻¹ b and in the columns with a nonzero p.
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
        if pivot == det:
            for i, a in changed:
                beta[i] -= a * pivot_beta // det
            for k, p in pivot_row.items():
                dual[k] += reduced * p // det
        else:
            beta = [(pivot * b - a * pivot_beta) // det for b, a in zip(beta, alpha)]
            dual = [(pivot * y + reduced * pivot_row.get(k, 0)) // det for k, y in enumerate(dual)]
        det = pivot
        basis[leaving] = entering

    if all(beta[i] == 0 for i in range(m) if basis[i] >= n):
        return {
            basis[i]: Fraction(beta[i], det)
            for i in range(m)
            if basis[i] < n and beta[i] != 0
        }, None

    # y = D·y / D, the row flips already folded in.
    return None, [Fraction(v, det) for v in dual]
