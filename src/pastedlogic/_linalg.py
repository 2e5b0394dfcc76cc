"""Sparse exact linear algebra over the rationals, eliminated in integers.

Two routines back the projection onto the context-sum-one subspace: a
square solve (for the normal equations ``A Aᵀ μ = A p̂ − 1``) and a
rank-revealing sweep that keeps a maximal independent subset of rows
while checking that the discarded rows are consistent.  A row maps its
columns to its entries (ints or Fractions); it is scaled to integers,
with its right-hand side under the key ``RHS``, and reduced by the rows
kept before it: a kept row's lead column is cleared only where the row
has an entry, by ``p·row − f·top``, which is then divided by its content
gcd.  Any column left can lead; the last one is taken.  For context
rows it is often an atom of no earlier row, and on a cycle's Gram matrix
(tridiagonal, one entry in each corner) the fill stays in two columns.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator, Mapping, Sequence

from .errors import SingularKKTError
from .numeric import clear_denominators

RHS = -1  # below every column


def _sweep(
    rows: Sequence[Mapping[int, Fraction]], rhs: Sequence[Fraction]
) -> Iterator[tuple[int, dict[int, int]]]:
    """Each row in integers, reduced by the rows kept before it, with its
    lead column: ``RHS`` for a row that vanished, which is not kept."""
    kept: list[tuple[int, dict[int, int]]] = []
    for row, b in zip(rows, rhs):
        _, ints = clear_denominators([*row.values(), b])
        row = {c: v for c, v in zip([*row, RHS], ints) if v}
        for col, top in kept:
            if col in row:
                g = math.gcd(top[col], row[col])
                p, f = top[col] // g, row[col] // g
                row = {c: p * v for c, v in row.items()}
                for c, t in top.items():
                    row[c] = row.get(c, 0) - f * t
                g = math.gcd(*row.values()) or 1
                row = {c: v // g for c, v in row.items() if v}
        lead = max(row, default=RHS)
        if lead != RHS:
            kept.append((lead, row))
        yield lead, row


def solve_exact(matrix: Sequence[Mapping[int, Fraction]], rhs: Sequence[Fraction]) -> list[Fraction]:
    """Solve a square rational system given by the nonzeros of its rows;
    raises ``SingularKKTError`` on a singular matrix."""
    n = len(rhs)
    if len(matrix) != n or any(not 0 <= c < n for row in matrix for c in row):
        raise ValueError("matrix is not square or rhs length mismatches")
    pivots = list(_sweep(matrix, rhs))
    if any(lead == RHS for lead, _ in pivots):
        raise SingularKKTError("singular system in exact solve")
    # Back-substitution over one common denominator den, held negated in
    # y[RHS] so that each row's sum takes its right-hand side too.
    y = [0] * n + [-1]
    for lead, row in reversed(pivots):
        t = -sum(v * y[c] for c, v in row.items())
        g = math.gcd(t, row[lead]) * (1 if row[lead] > 0 else -1)
        if row[lead] != g:
            y = [v * (row[lead] // g) for v in y]
        y[lead] = t // g
    den = -y.pop()
    return [Fraction(v, den) for v in y]


def independent_rows(rows: Sequence[Mapping[int, Fraction]], rhs: Sequence[Fraction]) -> list[int]:
    """Indices of the first maximal linearly independent subset of rows,
    given by their nonzeros.  A row that eliminates to zero must take its
    right-hand side to zero with it; otherwise the constraint set is
    inconsistent and ``SingularKKTError`` is raised."""
    kept = []
    for i, (lead, row) in enumerate(_sweep(rows, rhs)):
        if lead != RHS:
            kept.append(i)
        elif row:
            raise SingularKKTError(
                "inconsistent constraints: a dependent context sum disagrees with the others")
    return kept
