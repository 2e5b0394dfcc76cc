"""Sparse exact linear algebra over the rationals, eliminated in integers.

Two routines back the projection onto the context-sum-one subspace: a
rank-revealing sweep that keeps a maximal independent subset of rows
while checking that the discarded rows are consistent, and a square
factor (``Factor``) for the normal equations ``A Aᵀ μ = A p̂ − 1``.  A
row maps its columns to its entries (ints or Fractions); it is scaled to
integers, with any right-hand side under the key ``RHS``, and reduced
by the rows kept before it: a kept row's lead column is cleared only
where the row has an entry, by ``p·row − f·top``, which is then divided
by its content gcd.  Any column left can lead; the last one is taken.
For context rows it is often an atom of no earlier row, and on a cycle's
Gram matrix (tridiagonal, one entry in each corner) the fill stays in
two columns.

The Gram matrix depends only on the structure, so ``Factor`` sweeps it
once and records the steps, which replay on each integer right-hand side
as ``n ← a·n − b·n_k`` (``n / E`` is the reduced row's right-hand side).
Back-substitution runs on ``K·x``, K a multiple of every E and of the
determinant, so each division is exact.  The factor holds about 5m
integers on a cycle of m contexts, where a dense inverse holds m²/2.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator, Mapping, Sequence

from .errors import SingularSystemError
from .numeric import clear_denominators

RHS = -1  # below every column


def _sweep(rows: Sequence[Mapping[int, Fraction]]) -> Iterator[tuple]:
    """Each row in integers, reduced by the rows kept before it, with its
    lead column (``RHS`` for a row that vanished, which is not kept), its
    integer scale and its steps ``(k, p, f, g)``: ``(p·row − f·kept[k]) / g``."""
    kept: list[tuple[int, dict[int, int]]] = []
    for row in rows:
        scale, ints = clear_denominators([*row.values()])
        row = {c: v for c, v in zip(row, ints) if v}
        steps = []
        for k, (col, top) in enumerate(kept):
            if col in row:
                g = math.gcd(top[col], row[col])
                p, f = top[col] // g, row[col] // g
                row = {c: p * v for c, v in row.items()}
                for c, t in top.items():
                    row[c] = row.get(c, 0) - f * t
                g = math.gcd(*row.values()) or 1
                row = {c: v // g for c, v in row.items() if v}
                steps.append((k, p, f, g))
        lead = max(row, default=RHS)
        if lead != RHS:
            kept.append((lead, row))
        yield lead, row, scale, steps


class Factor:
    """A square rational matrix, given by the nonzeros of its rows, swept
    once; raises ``SingularSystemError`` if it is singular."""

    def __init__(self, matrix: Sequence[Mapping[int, Fraction]]):
        dens, reduced, det, undo = [], [], 1, 1
        for lead, row, scale, steps in _sweep(matrix):
            if lead == RHS:
                raise SingularSystemError("singular system in exact solve")
            den, replay = 1, []
            for k, p, f, g in steps:  # n/den ← (p·n/den − f·n_k/dens[k]) / g
                common = math.lcm(den, dens[k])
                a, b, den = p * (common // den), f * (common // dens[k]), g * common
                h = math.gcd(a, b, den)
                replay.append((k, a // h, b // h))
                den, det, undo = den // h, det * g, undo * p
            # The reduced rows are triangular in their leads and each step
            # scaled its row by p/g: det / undo is ± the integer rows' det.
            det *= row[lead]
            dens.append(den)
            reduced.append((scale, replay, lead, row))
        self.den = math.lcm(abs(det // undo), *dens)
        self.rows = [(scale, replay, lead, self.den // den, row.pop(lead), [*row.items()])
                     for (scale, replay, lead, row), den in zip(reduced, dens)]

    def solve(self, rhs: Sequence[int]) -> tuple[int, list[int]]:
        """The solution for an integer right-hand side, as its least common
        denominator and numerators."""
        nums = []
        for (scale, replay, *_), b in zip(self.rows, rhs):
            n = scale * b
            for k, a, c in replay:
                n = a * n - c * nums[k]
            nums.append(n)
        x = [0] * len(nums)
        for (_, _, lead, up, pivot, others), n in zip(reversed(self.rows), reversed(nums)):
            x[lead] = (up * n - sum(v * x[c] for c, v in others)) // pivot
        g = math.gcd(self.den, *x)
        return self.den // g, [v // g for v in x]


def solve_exact(matrix: Sequence[Mapping[int, Fraction]], rhs: Sequence[Fraction]) -> list[Fraction]:
    """Solve a square rational system given by the nonzeros of its rows;
    raises ``SingularSystemError`` on a singular matrix."""
    if len(matrix) != len(rhs) or any(not 0 <= c < len(rhs) for row in matrix for c in row):
        raise ValueError("matrix is not square or rhs length mismatches")
    scale, ints = clear_denominators(list(rhs))
    den, nums = Factor(matrix).solve(ints)
    return [Fraction(v, den * scale) for v in nums]


def independent_rows(rows: Sequence[Mapping[int, Fraction]], rhs: Sequence[Fraction]) -> list[int]:
    """Indices of the first maximal linearly independent subset of rows,
    given by their nonzeros.  A row that eliminates to zero must take its
    right-hand side to zero with it; otherwise the constraint set is
    inconsistent and ``SingularSystemError`` is raised."""
    kept = []
    for i, (lead, row, _, _) in enumerate(_sweep([{**row, RHS: b} for row, b in zip(rows, rhs)])):
        if lead != RHS:
            kept.append(i)
        elif row:
            raise SingularSystemError(
                "inconsistent constraints: a dependent context sum disagrees with the others")
    return kept
