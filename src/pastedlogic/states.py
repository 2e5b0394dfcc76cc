"""Two-valued states and exact classical-polytope membership.

A two-valued state is a 0/1 weight: exactly one atom of every context
gets the value 1.  On intertwined structures the shared atoms make these
assignments globally rigid.  The states are held as a frontier table,
not listed by a search: contexts are taken in index order, and after
each one only the values of the *frontier* -- the atoms already
assigned that a later context still contains -- decide which choices
remain (the transfer-matrix, or path-decomposition, dynamic program of
Arnborg and Proskurowski, *Discrete Appl. Math.* 23, 1989).  The table
counts, ranks and unranks the states and maximises a linear function
over all of them without visiting them one by one; for that max-plus
pass each level is compiled once into one Python expression.

The convex hull of the two-valued states is the classical polytope;
membership of a weight is decided exactly over the rationals by a
simplex that prices against the table, and both answers carry
certificates -- an explicit convex decomposition, or a separating
functional c with  c . p > beta = max over states of c . v -- checked
once here, in that form, before they are returned.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from operator import mul
from typing import Iterator, Mapping, Sequence

from ._simplex import feasible_nonnegative
from .errors import (
    EnumerationLimitError,
    NoTwoValuedStatesError,
    NotAdmissibleError,
    UnknownAtomError,
    ValidationError,
)
from .numeric import DEFAULT_TOL, clear_denominators, is_integer, render
from .structures import EventStructure, cycle_form
from .weights import Weight, check_admissible, check_same_structure, make_weight

DEFAULT_ENUMERATION_LIMIT = 10**6

Rational = int | Fraction


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


# One table level: per node, its transitions (gain, child, completions).
# ``gain`` is the position of the atom the transition newly sets to 1, or
# -1 when the context's 1-atom was fixed by an earlier context;
# ``completions`` is the number of states below ``child``.
Level = list[tuple[tuple[int, int, int], ...]]


def _frontier_table(structure: EventStructure) -> tuple[list[Level], int]:
    """The pruned frontier table and its number of states.

    The forward pass follows the rules of a backtracking search: at
    context i, a frontier with two 1-atoms in the context is dead, one
    1-atom is the only candidate, and otherwise every unassigned atom of
    the context is a candidate, in context order.  The backward pass
    counts completions, drops every transition that has none and stores
    each kept transition's count.
    """
    index = structure.atom_index
    contexts = [tuple(index[a] for a in ctx) for ctx in structure.contexts]
    last_use = {p: i for i, ctx in enumerate(contexts) for p in ctx}
    frontier: tuple[int, ...] = ()
    keys: dict[tuple[int, ...], int] = {(): 0}  # frontier values -> node
    levels: list[list[tuple[tuple[int, int], ...]]] = []
    for i, ctx in enumerate(contexts):
        following = tuple(p for p in frontier if last_use[p] > i) + tuple(
            p for p in ctx if p not in frontier and last_use[p] > i
        )
        next_keys: dict[tuple[int, ...], int] = {}
        level = []
        for key in keys:
            value = dict(zip(frontier, key))
            fixed = [p for p in ctx if value.get(p) == 1]
            fresh = {p: 0 for p in ctx if p not in value}
            candidates = fixed if fixed else fresh
            transitions = []
            for chosen in candidates if len(fixed) <= 1 else ():
                assigned = value | fresh | {chosen: 1}
                child = tuple(assigned[p] for p in following)
                node = next_keys.setdefault(child, len(next_keys))
                transitions.append((-1 if fixed else chosen, node))
            level.append(tuple(transitions))
        levels.append(level)
        frontier, keys = following, next_keys

    live = {node: node for node in keys.values()}  # old node -> kept node
    counts = [1] * len(live)  # the last frontier is empty: one node or none
    for i in reversed(range(len(levels))):
        kept_level: Level = []
        renumber = {}
        for node, transitions in enumerate(levels[i]):
            kept = tuple((g, live[c], counts[live[c]]) for g, c in transitions if c in live)
            if kept:
                renumber[node] = len(kept_level)
                kept_level.append(kept)
        levels[i], live = kept_level, renumber
        counts = [sum(count for *_, count in node) for node in kept_level]
    return levels, counts[0] if counts else 0


def _kernel(level: Level):
    """``lambda g, a: [...]``: per node of ``level``, the largest
    ``g[gain] + a[child]`` (``a[child]`` where nothing is gained), one
    expression for the level built from the table's indices alone.  Terms
    fold as ``x if x >= y else y``, which keeps the first largest as
    ``max`` does, at a third to a half of its cost; past 32 terms, which
    would nest past the parser's 200 parentheses, it is ``max``."""

    def best(node):
        terms = [f"g[{g}] + a[{c}]" if g >= 0 else f"a[{c}]" for g, c, _ in node]
        if len(terms) > 32:
            return f"max({', '.join(terms)})"
        return reduce(lambda e, t: f"(x if (x := {e}) >= (y := {t}) else y)", terms)

    return eval(f"lambda g, a: [{', '.join(map(best, level))}]")


class StateSpace:
    """All two-valued states of a structure, without listing them.

    A sequence of ``TwoValuedState`` in ``enumerate_two_valued_states``
    order: contexts in index order, candidate 1-atoms in context order.
    ``count`` is a plain int.  It can pass the machine word (the
    101-cycle has about 1.3e21 states), where ``len()`` raises
    ``OverflowError``; the library reads ``count``.

    The weights ``w`` taken by ``max_value`` and ``first_above`` are
    indexed by atom position, and a state's sum is  sum of w_a over its
    1-atoms a.  Every query walks the table once: O(number of
    transitions), whatever the number of states.  For the max-plus pass
    each level is compiled, on the first pricing call, into one function
    (``_kernel``), so a level is priced by one call.  A space pickles as
    its structure's ``state_space``, which a copy shares with the live
    structure or builds again.
    """

    def __init__(self, structure: EventStructure):
        self.structure = structure
        self._levels, self.count = _frontier_table(structure)

    def __reduce__(self):
        return getattr, (self.structure, "state_space")

    @cached_property
    def _kernels(self) -> list:
        """The compiled levels, from the last context back."""
        return [_kernel(level) for level in reversed(self._levels)]

    def __len__(self) -> int:
        return self.count

    def __bool__(self) -> bool:
        return self.count > 0

    def __getitem__(self, i: int) -> TwoValuedState:
        atoms = self.structure.atoms
        return TwoValuedState(self.structure, frozenset(atoms[p] for p in self.positions(i)))

    def __iter__(self) -> Iterator[TwoValuedState]:
        """Depth-first over the table, one frame per context on an
        explicit stack, so depth is not bounded by the recursion limit."""
        if not self.count:
            return
        atoms, levels, depth = self.structure.atoms, self._levels, len(self._levels)
        ones: list[int] = []
        stack = [iter(levels[0][0])]
        marks = [0]  # len(ones) when each frame was entered
        while stack:
            del ones[marks[-1]:]
            step = next(stack[-1], None)
            if step is None:
                stack.pop()
                marks.pop()
                continue
            gain, child, _ = step
            if gain >= 0:
                ones.append(gain)
            if len(stack) == depth:
                yield TwoValuedState(self.structure, frozenset(atoms[p] for p in ones))
            else:
                stack.append(iter(levels[len(stack)][child]))
                marks.append(len(ones))

    def positions(self, i: int) -> list[int]:
        """Atom positions of the 1-atoms of state ``i``, ascending."""
        i = operator.index(i)
        if i < 0:
            i += self.count
        if not 0 <= i < self.count:
            raise IndexError("state index out of range")
        ones, node = [], 0
        for level in self._levels:
            for gain, child, count in level[node]:
                if i < count:
                    break
                i -= count
            if gain >= 0:
                ones.append(gain)
            node = child
        return sorted(ones)

    def index(self, state: TwoValuedState) -> int:
        """The rank of ``state``; ValueError if it is not in the space."""
        ones = {self.structure.atom_index.get(a) for a in state.ones}
        rank, node = 0, 0
        for level in self._levels if self.count else ():
            for gain, child, count in level[node]:
                if gain < 0 or gain in ones:
                    break
                rank += count
            node = child
        if rank < self.count and self[rank] == state:
            return rank
        raise ValueError("not a two-valued state of this structure")

    def _best_completions(self, w: Sequence[Rational]) -> tuple[list[list[Rational]], list]:
        """Per level and node, the largest sum any completion adds
        (max-plus, from the last context back), and ``w`` with a 0 at
        position -1 for the transitions that gain nothing."""
        if not self.count:
            raise NoTwoValuedStatesError("no two-valued states")
        gains = [*w, 0]
        table: list[list[Rational]] = [[0]]
        for kernel in self._kernels:
            table.append(kernel(gains, table[-1]))
        table.reverse()
        return table, gains

    def max_value(self, w: Sequence[Rational]) -> Rational:
        """The largest sum of ``w`` over the 1-atoms of any state."""
        return self._best_completions(w)[0][0][0]

    def first_above(self, w: Sequence[Rational], t: Rational) -> tuple[int, list[int]] | None:
        """The lowest index of a state whose sum of ``w`` exceeds ``t``,
        with the positions of its 1-atoms (in context order), or None.
        The descent takes, at each context, the first transition some
        completion of which clears ``t``; every state in the subtrees it
        skips sums to at most ``t``."""
        best, gains = self._best_completions(w)
        if best[0][0] <= t:
            return None
        rank, node, total, ones = 0, 0, 0, []
        for level, after in zip(self._levels, best[1:]):
            for gain, child, count in level[node]:
                if total + gains[gain] + after[child] > t:
                    break
                rank += count
            total += gains[gain]
            ones.append(gain)
            node = child
        return rank, [p for p in ones if p >= 0]


def enumerate_two_valued_states(
    structure: EventStructure, limit: int | None = DEFAULT_ENUMERATION_LIMIT
) -> tuple[TwoValuedState, ...]:
    """All two-valued states, listed from the structure's state space.

    The order is deterministic: contexts in index order, candidate
    1-atoms in atom order.  If more than ``limit`` states exist an
    ``EnumerationLimitError`` is raised, from the count and before any
    state is built, rather than returning a truncated list.  ``limit``
    is an int >= 0, or None for no limit.
    """
    if not (limit is None or (is_integer(limit) and limit >= 0)):
        raise ValidationError(f"limit must be an integer >= 0 or None, got {limit!r}")
    space = structure.state_space
    if limit is not None and space.count > limit:
        raise EnumerationLimitError(f"more than {limit} two-valued states")
    return tuple(space)


@dataclass(frozen=True)
class MembershipResult:
    """Verdict plus certificate for one membership query.

    ``states`` is the structure's ``StateSpace``; p is the weight's
    ``point``.  Classical: ``coefficients`` maps state indices (into
    ``states``) to p's mixture weights, nonzero only.  Not classical:
    ``witness`` is an integer functional with ``witness_value = c . p``
    strictly above ``witness_bound = max over states of c . v``.  With
    no two-valued states the witness is 0 on every atom with bound -1:
    every bound holds over the empty family, so c . p = 0 lies above it
    vacuously.
    """

    classical: bool
    states: StateSpace
    coefficients: Mapping[int, Fraction] | None
    witness: Mapping[str, Fraction] | None
    witness_bound: Fraction | None
    witness_value: Fraction | None

    def to_json_dict(self) -> dict:
        if self.classical:
            used = sorted(self.coefficients)
            doc = {"coefficients": {i: self.coefficients[i] for i in used},
                   "states": [self.states[i].ones for i in used]}
        else:
            doc = {k: getattr(self, k) for k in ("witness", "witness_bound", "witness_value")}
        return render({"classical": self.classical, **doc})


def classical_membership(
    structure: EventStructure, weight: Weight, *, tol: float = DEFAULT_TOL
) -> MembershipResult:
    """Decide whether a weight is a convex mixture of two-valued states.

    The weight must be admissible (checked first, at ``tol`` in float
    mode).  Float weights are converted to exact rationals by binary
    decomposition and the decision is made for that exact point, so the
    caller always knows which point was tested.  The simplex prices
    against the structure's state space, and the answer is exact and
    self-certifying either way.
    """
    check_same_structure(structure, weight)
    report = check_admissible(weight, tol)
    if not report.admissible:
        raise NotAdmissibleError(report)
    return _decide_membership(structure, weight)


def _decide_membership(structure: EventStructure, weight: Weight) -> MembershipResult:
    """``classical_membership`` for a weight already checked admissible
    on ``structure``.  The LP solves for the weight's integer ``point``
    and its scale: the point times the scale, so the same pivots."""
    scale, nums = weight.point
    target = [*nums, scale]
    space = structure.state_space
    if space.count:
        answer = feasible_nonnegative(space, target)
    else:  # the classical polytope is empty: y = (0, ..., 0, 1) separates
        answer = None, [0] * (len(target) - 1) + [1]
    return _certify(space, target, *answer)


def _certify(
    space: StateSpace,
    target: Sequence[Rational],
    solution: Mapping[int, Fraction] | None,
    farkas: Sequence[Rational] | None,
) -> MembershipResult:
    """The solver's answer for ``target`` (the point times its last
    entry, then that entry), checked in the form the result reports it.

    A mixture: over one common denominator every coefficient is >= 0,
    and the states it names, plus the normalisation row, give ``target``;
    it is divided by the last entry once.  A Farkas dual: cleared to the
    integer witness c, which must exceed its bound, max over states of
    c . v, priced once (-1 over no states); c . p is one quotient by the
    last entry.  A failed check is a RuntimeError.
    """
    m, scale = len(target), target[-1]
    if solution is not None:
        _, scaled = clear_denominators([*target, *solution.values()])
        total = [0] * m
        for j, x in zip(solution, scaled[m:]):
            if x < 0:
                raise RuntimeError("mixture has a negative coefficient")
            for i in [*space.positions(j), m - 1]:
                total[i] += x
        if total != scaled[:m]:
            raise RuntimeError("mixture does not give the point")
        mixture = {j: x / scale for j, x in solution.items()}
        return MembershipResult(True, space, mixture, None, None, None)

    # Separating functional: drop the normalisation row into the bound.
    c = clear_denominators(farkas[:-1])[1]
    bound = space.max_value(c) if space.count else -1
    value = Fraction(sum(map(mul, c, target)), scale)
    if value <= bound:
        raise RuntimeError("witness does not exceed its bound")
    witness = {a: Fraction(v) for a, v in zip(space.structure.atoms, c)}
    return MembershipResult(False, space, None, witness, Fraction(bound), value)


def max_cyclic_value(structure: EventStructure) -> Fraction:
    """Largest cyclic sum any two-valued state attains: n // 2, the
    independence number of the n-cycle.  A state's cyclic 1-atoms are
    pairwise non-adjacent, and some state has 1 on every other one."""
    return Fraction(cycle_form(structure).n // 2)
