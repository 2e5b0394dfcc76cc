"""Two-valued states and exact classical-polytope membership.

A two-valued state is a 0/1 weight: exactly one atom of every context
gets the value 1.  On intertwined structures the shared atoms make these
assignments globally rigid, so enumeration is a backtracking search over
contexts.  The convex hull of the two-valued states is the classical
polytope; membership of a weight is decided exactly over the rationals,
and both answers carry certificates -- an explicit convex decomposition,
or a separating functional c with  c . p > beta = max over states of
c . v.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from typing import Iterator, Mapping, Sequence

from ._simplex import feasible_nonnegative
from .errors import (
    EnumerationLimitError,
    NoTwoValuedStatesError,
    NotAdmissibleError,
    UnknownAtomError,
)
from .numeric import DEFAULT_TOL, as_fraction, clear_denominators, numeric_to_json, render
from .structures import EventStructure, cycle_form
from .weights import Weight, check_admissible, check_same_structure, make_weight

__all__ = [
    "TwoValuedState",
    "MembershipResult",
    "enumerate_two_valued_states",
    "classical_membership",
    "max_cyclic_value",
]

DEFAULT_ENUMERATION_LIMIT = 10**6


@dataclass(frozen=True)
class TwoValuedState:
    """A dispersion-free weight, stored by its set of 1-atoms."""

    structure: EventStructure
    ones: frozenset[str]

    def __getitem__(self, atom: str) -> int:
        if atom not in self.structure.atom_index:
            raise UnknownAtomError(f"unknown atom {atom!r}")
        return 1 if atom in self.ones else 0

    def as_weight(self) -> Weight:
        return make_weight(
            self.structure, {a: Fraction(self[a]) for a in self.structure.atoms}
        )

    def to_json_dict(self) -> dict:
        return {a: self[a] for a in self.structure.atoms}


def enumerate_two_valued_states(
    structure: EventStructure, limit: int | None = DEFAULT_ENUMERATION_LIMIT
) -> tuple[TwoValuedState, ...]:
    """All two-valued states, by backtracking over contexts.

    Contexts are processed in index order and candidate 1-atoms tried in
    atom order, so the output order is deterministic.  One generator per
    context on the current path sits on an explicit stack, so depth is
    not bounded by the recursion limit.  If more than ``limit`` states
    exist an ``EnumerationLimitError`` is raised rather than returning a
    truncated list.
    """
    contexts = structure.contexts
    value: dict[str, int] = {}
    found: list[TwoValuedState] = []

    def choices(ctx: tuple[str, ...]) -> Iterator[None]:
        """Fix each consistent 1-atom of ``ctx`` in turn, yielding while
        it is fixed and undoing it before the next."""
        fixed_ones = [a for a in ctx if value.get(a) == 1]
        if len(fixed_ones) > 1:
            return
        candidates = fixed_ones if fixed_ones else [a for a in ctx if value.get(a) != 0]
        for chosen in candidates:  # never 0, by the filter above
            trail = [] if chosen in value else [chosen]
            value[chosen] = 1
            for other in ctx:
                if other != chosen:
                    cur = value.get(other)
                    if cur is None:
                        value[other] = 0
                        trail.append(other)
                    elif cur:
                        break
            else:
                yield
            for atom in trail:
                del value[atom]

    stack: list[Iterator[None]] = []  # resumed from here, never nested
    while True:
        if len(stack) == len(contexts):
            if limit is not None and len(found) >= limit:
                raise EnumerationLimitError(f"more than {limit} two-valued states")
            ones = frozenset(compress(value, value.values()))
            found.append(TwoValuedState(structure, ones))
        else:
            stack.append(choices(contexts[len(stack)]))
        while stack and next(stack[-1], True):  # True: that context is done
            stack.pop()
        if not stack:
            return tuple(found)


@dataclass(frozen=True)
class MembershipResult:
    """Verdict plus certificate for one membership query.

    Classical: ``coefficients`` maps state indices (into ``states``) to
    rational mixture weights, nonzero entries only.  Not classical:
    ``witness`` is an integer-scaled functional with
    ``witness_value = c . p`` strictly above
    ``witness_bound = max over states of c . v``.
    """

    classical: bool
    states: tuple[TwoValuedState, ...]
    coefficients: Mapping[int, Fraction] | None
    witness: Mapping[str, Fraction] | None
    witness_bound: Fraction | None
    witness_value: Fraction | None

    def to_json_dict(self) -> dict:
        doc: dict = {"classical": self.classical}
        if self.classical:
            doc["coefficients"] = {
                str(i): numeric_to_json(c) for i, c in sorted(self.coefficients.items())
            }
            doc["states"] = [
                sorted(self.states[i].ones) for i in sorted(self.coefficients)
            ]
        else:
            doc["witness"] = render(self.witness)
            doc["witness_bound"] = numeric_to_json(self.witness_bound)
            doc["witness_value"] = numeric_to_json(self.witness_value)
        return doc


def classical_membership(
    structure: EventStructure,
    weight: Weight,
    states: Sequence[TwoValuedState] | None = None,
    tol: float = DEFAULT_TOL,
) -> MembershipResult:
    """Decide whether a weight is a convex mixture of two-valued states.

    The weight must be admissible (checked first, at ``tol`` in float
    mode).  Float weights are converted to exact rationals by binary
    decomposition and the decision is made for that exact point, so the
    caller always knows which point was tested.  The answer is exact and
    self-certifying either way.
    """
    check_same_structure(structure, weight)
    report = check_admissible(weight, tol)
    if not report.admissible:
        raise NotAdmissibleError(report)
    if states is None:
        states = enumerate_two_valued_states(structure)
    states = tuple(states)
    if not states:
        raise NoTwoValuedStatesError(
            "no two-valued states: the classical polytope is empty"
        )

    atoms = structure.atoms
    target = [as_fraction(weight[a]) for a in atoms] + [Fraction(1)]
    columns = [[0] * len(atoms) + [1] for _ in states]
    for column, state in zip(columns, states):
        for a in state.ones:
            column[structure.atom_index[a]] = 1
    solution, farkas = feasible_nonnegative(columns, target)
    if solution is not None:
        return MembershipResult(True, states, dict(solution), None, None, None)

    # Separating functional: drop the normalisation row into the bound.
    c = dict(zip(atoms, clear_denominators(farkas[:-1])[1]))
    bound = max(sum(c[a] for a in state.ones) for state in states)
    value = sum(c[a] * target[i] for i, a in enumerate(atoms))
    if value <= bound:
        raise RuntimeError("separating witness failed verification")
    witness = {a: Fraction(v) for a, v in c.items()}
    return MembershipResult(False, states, None, witness, Fraction(bound), value)


def max_cyclic_value(structure: EventStructure) -> Fraction:
    """Largest cyclic sum any two-valued state attains: n // 2, the
    independence number of the n-cycle.  A state's cyclic 1-atoms are
    pairwise non-adjacent, and some state has 1 on every other one."""
    return Fraction(cycle_form(structure).n // 2)
