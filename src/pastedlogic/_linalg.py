"""Dense exact linear algebra over the rationals, eliminated in integers.

Two routines back the projection onto the context-sum-one subspace: a
square solve (for the normal equations ``A Aᵀ μ = A p̂ − 1``) and a
rank-revealing sweep that keeps a maximal independent subset of rows
while checking that the discarded rows are consistent.  Rows are scaled
to integers and eliminated fraction-free (Bareiss, *Math. Comp.* 22,
1968): after k steps every entry is a (k+1)-minor, so dividing by the
previous pivot is exact.  Exact arithmetic needs only a nonzero pivot,
so the first one in the column is taken.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import SingularKKTError
from .numeric import clear_denominators

__all__ = ["solve_exact", "independent_rows"]


def _integer_rows(
    rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]
) -> list[list[int]]:
    """Each row with its right-hand side appended, scaled to integers.
    Entries are ints or Fractions (anything with ``numerator`` and
    ``denominator``)."""
    return [clear_denominators([*row, b])[1] for row, b in zip(rows, rhs)]


def solve_exact(matrix: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]) -> list[Fraction]:
    """Solve a square rational system by Bareiss elimination; raises
    ``SingularKKTError`` on a singular matrix.  Entries are ints or
    Fractions."""
    n = len(rhs)
    if len(matrix) != n or any(len(row) != n for row in matrix):
        raise ValueError("matrix is not square or rhs length mismatches")
    # One common denominator for the right-hand side keeps its large
    # denominators in one column instead of scaling every row.
    d, scaled_rhs = clear_denominators(list(rhs))
    a = _integer_rows(matrix, scaled_rhs)
    prev = 1
    for k in range(n):
        pivot = next((r for r in range(k, n) if a[r][k]), None)
        if pivot is None:
            raise SingularKKTError("singular system in exact solve")
        a[k], a[pivot] = a[pivot], a[k]
        top = a[k][k + 1:]
        p = a[k][k]
        for row in a[k + 1:]:
            f = row[k]
            row[k + 1:] = [(p * v - f * t) // prev for v, t in zip(row[k + 1:], top)]
        prev = p
    # The last pivot is ±det; det · x is an integer vector, so
    # back-substitution for it divides exactly.
    y = [0] * n
    for i in reversed(range(n)):
        row = a[i]
        y[i] = (prev * row[n] - sum(row[j] * y[j] for j in range(i + 1, n))) // row[i]
    return [Fraction(v, prev * d) for v in y]


def independent_rows(
    rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]
) -> list[int]:
    """Indices of a maximal linearly independent subset of rows.

    A row that eliminates to zero must take its right-hand side to zero
    with it; otherwise the constraint set is inconsistent and
    ``SingularKKTError`` is raised.
    """
    kept: list[int] = []
    pivots: list[tuple[int, list[int]]] = []  # (lead column, reduced row)
    for i, row in enumerate(_integer_rows(rows, rhs)):
        prev = 1
        for col, top in pivots:
            p, f = top[col], row[col]
            if f or p != prev:
                row = [(p * v - f * t) // prev for v, t in zip(row, top)]
            prev = p
        lead = next((c for c, v in enumerate(row[:-1]) if v), None)
        if lead is None:
            if row[-1]:
                raise SingularKKTError(
                    "inconsistent constraints: a dependent context sum "
                    "disagrees with the others"
                )
            continue
        pivots.append((lead, row))
        kept.append(i)
    return kept
