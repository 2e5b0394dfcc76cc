"""Finite pasted event structures.

An event structure is a finite, ordered set of atoms together with a
family of contexts.  Each context is a set of mutually exclusive and
jointly exhaustive outcomes; an atom may belong to several contexts, and
those shared (intertwining) atoms are what couples the contexts to each
other.  Everything downstream -- admissible weights, two-valued states,
softmax gluing -- is defined relative to one of these structures.

The canonical worked family is the n-cycle logic: atoms
``a1..an, x1..xn`` with contexts ``Ci = {ai, a(i+1 mod n), xi}``.  The
pentagon (n = 5) is the smallest odd cycle whose admissible region
strictly exceeds the classical polytope at an interesting weight.
"""

from __future__ import annotations

import weakref
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import TYPE_CHECKING, Collection, Iterable, Sequence

from ._linalg import Factor, independent_rows
from .errors import (
    DuplicateAtomError,
    DuplicateContextError,
    EmptyContextError,
    InvalidCycleLengthError,
    MissingAtomValueError,
    NotACycleStructureError,
    SchemaError,
    UnknownAtomError,
    ValidationError,
)
from .numeric import _require_keys, is_integer, load_json

if TYPE_CHECKING:
    from .states import StateSpace


@dataclass(frozen=True)
class EventStructure:
    """Atoms plus named contexts, with a fixed deterministic atom order.

    Contexts are conceptually sets; they are stored as tuples sorted by
    atom position so that every iteration in the package is reproducible.
    """

    atoms: tuple[str, ...]
    contexts: tuple[tuple[str, ...], ...]
    context_names: tuple[str, ...]

    @cached_property
    def atom_index(self) -> Mapping[str, int]:
        return {a: i for i, a in enumerate(self.atoms)}

    @cached_property
    def context_sets(self) -> tuple[frozenset[str], ...]:
        return tuple(frozenset(c) for c in self.contexts)

    @cached_property
    def incidence_index(self) -> IncidenceIndex:
        holders: dict[str, list[int]] = {a: [] for a in self.atoms}
        for i, ctx in enumerate(self.contexts):
            for a in ctx:
                holders[a].append(i)
        # Each atom joins the overlap of every pair of its holders; atoms
        # come in atom order, and the pairs are sorted into context order.
        shared: dict[tuple[int, int], list[str]] = {}
        for a, hs in holders.items():
            for pair in combinations(hs, 2):
                shared.setdefault(pair, []).append(a)
        names = self.context_names
        return IncidenceIndex(
            self,
            {a: tuple(names[i] for i in hs) for a, hs in holders.items()},
            {(names[i], names[j]): tuple(common) for (i, j), common in sorted(shared.items())},
        )

    @cached_property
    def _forest(self) -> tuple[Mapping[str, str | None], Mapping[str, str]]:
        """A breadth-first spanning forest of the context-overlap graph
        (contexts joined when they share an atom), grown from each
        unvisited context in context order: each context's parent (None
        at a root) and the root of its tree."""
        neighbours: dict[str, list[str]] = {name: [] for name in self.context_names}
        # The keys are pairs in context order, sorted, so each list comes
        # out in context order: lower neighbours first, then higher ones.
        for u, v in self.incidence_index.shared_atoms:
            neighbours[u].append(v)
            neighbours[v].append(u)
        parent: dict[str, str | None] = {}
        root: dict[str, str] = {}
        for r in self.context_names:
            if r in parent:
                continue
            parent[r], root[r] = None, r
            queue = [r]
            for u in queue:  # breadth first: the queue grows as it is read
                for v in neighbours[u]:
                    if v not in parent:
                        parent[v], root[v] = u, r
                        queue.append(v)
        return parent, root

    @cached_property
    def fundamental_cycles(self) -> tuple[tuple[str, ...], ...]:
        """A cycle basis of the context-overlap graph, as closed chains of
        context names (first name repeated last).

        Each edge (u, v) outside the spanning ``_forest``, u before v,
        closes one cycle: u up to the lowest common ancestor, then down
        to v, then back to u.  The cycles follow the edges' order in
        ``shared_atoms``; there are edges - contexts + components of them.
        """
        parent = self._forest[0]
        cycles: list[tuple[str, ...]] = []
        for u, v in self.incidence_index.shared_atoms:
            if parent[v] == u or parent[u] == v:
                continue  # a tree edge
            up_u = [u]
            while parent[up_u[-1]] is not None:
                up_u.append(parent[up_u[-1]])
            on_u = {node: i for i, node in enumerate(up_u)}
            down_v = [v]
            while down_v[-1] not in on_u:  # climb from v to the lca
                down_v.append(parent[down_v[-1]])
            lca = down_v.pop()
            # u ... lca followed by the reversed v-side, then close at u.
            cycles.append(tuple(up_u[: on_u[lca] + 1] + down_v[::-1] + [u]))
        return tuple(cycles)

    @cached_property
    def cycle_edges(self) -> tuple[tuple[tuple[str, str, str], ...], ...]:
        """Each of ``fundamental_cycles`` as its edges (u, v, a): two
        consecutive contexts and the first atom they share."""
        inc = self.incidence_index
        return tuple(
            tuple((u, v, inc.shared(u, v)[0]) for u, v in zip(cycle, cycle[1:]))
            for cycle in self.fundamental_cycles
        )

    @cached_property
    def _cycle_form(self) -> CycleForm | None:
        n = len(self.contexts)
        if n >= 3:
            reference = cycle_logic(n)
            if set(self.atoms) == set(reference.atoms) and set(
                self.context_sets
            ) == set(reference.context_sets):
                return CycleForm(n, reference.atoms[:n], reference.atoms[n:])
        return None

    @cached_property
    def state_space(self) -> StateSpace:
        """The two-valued states as a frontier table, built once."""
        from .states import StateSpace  # states imports this module

        return StateSpace(self)

    @cached_property
    def projection_plan(self) -> tuple[list[str], list[list[int]], Factor]:
        """The structure's half of ``empirical.project_affine``, built once:
        the first maximal independent set of contexts, their atom positions,
        and the factor of their Gram matrix A Aᵀ (the atoms two of them share)."""
        index, names = self.atom_index, self.context_names
        holders = self.incidence_index.contexts_of
        rows = [[index[a] for a in ctx] for ctx in self.contexts]
        kept = independent_rows([dict.fromkeys(row, 1) for row in rows], [1] * len(rows))
        position = {names[i]: k for k, i in enumerate(kept)}
        return [names[i] for i in kept], [rows[i] for i in kept], Factor([
            Counter(position[h] for a in self.contexts[i] for h in holders[a] if h in position)
            for i in kept])

    @cached_property
    def _context_by_name(self) -> Mapping[str, int]:
        return {name: i for i, name in enumerate(self.context_names)}

    def context_position(self, name: str) -> int:
        try:
            return self._context_by_name[name]
        except KeyError:
            raise UnknownAtomError(f"no context named {name!r}") from None

    def context_atoms(self, name: str) -> tuple[str, ...]:
        return self.contexts[self.context_position(name)]

    def __reduce__(self):
        # a copy, pickled or deep, is the live equal structure
        return build_event_structure, (self.atoms, self.contexts, self.context_names)

    def to_json_dict(self) -> dict:
        return {
            "atoms": list(self.atoms),
            "contexts": [
                {"name": name, "atoms": list(ctx)}
                for name, ctx in zip(self.context_names, self.contexts)
            ],
        }


def build_event_structure(
    atoms: Sequence[str],
    contexts: Sequence[Iterable[str]],
    context_names: Sequence[str] | None = None,
) -> EventStructure:
    """Validate raw atom and context listings into an EventStructure.

    Checks, in order: atoms are non-empty unique strings; every context
    is non-empty, mentions only declared atoms, and repeats none of them;
    no two contexts have the same atom set or the same name; every atom
    occurs in at least one context.  Equal structures, pickled and deep
    copies included, are one object while any of them is alive, so what
    one has cached is built once.
    """
    atom_list: list[str] = []
    seen: set[str] = set()
    for a in atoms:
        if not isinstance(a, str) or not a:
            raise ValidationError(f"atom names must be non-empty strings, got {a!r}")
        if a in seen:
            raise DuplicateAtomError(f"atom {a!r} declared twice")
        seen.add(a)
        atom_list.append(a)
    if not atom_list:
        raise ValidationError("an event structure needs at least one atom")

    index = {a: i for i, a in enumerate(atom_list)}
    if context_names is None:
        names = [f"C{i + 1}" for i in range(len(contexts))]
    else:
        names = [str(n) for n in context_names]
        if len(names) != len(contexts):
            raise ValidationError("one name per context is required")

    canon: list[tuple[str, ...]] = []
    for name, raw in zip(names, contexts):
        members = list(raw)
        if not members:
            raise EmptyContextError(f"context {name!r} is empty")
        ctx_seen: set[str] = set()
        for a in members:
            if not isinstance(a, str) or a not in index:
                raise UnknownAtomError(f"context {name!r} uses undeclared atom {a!r}")
            if a in ctx_seen:
                raise DuplicateAtomError(f"context {name!r} repeats atom {a!r}")
            ctx_seen.add(a)
        canon.append(tuple(sorted(members, key=index.__getitem__)))

    if len(set(names)) != len(names):
        raise DuplicateContextError("context names must be unique")
    sets = [frozenset(c) for c in canon]
    if len(set(sets)) != len(sets):
        raise DuplicateContextError("two contexts have the same atom set")

    covered = set().union(*sets) if sets else set()
    missing = [a for a in atom_list if a not in covered]
    if missing:
        raise ValidationError(
            "every atom must occur in some context; missing: " + ", ".join(missing)
        )

    key = (tuple(atom_list), tuple(canon), tuple(names))
    return _interned.setdefault(key, EventStructure(*key))


# Live structures by their fields; an entry goes when its structure does.
_interned: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def check_names(
    given: Collection[str], names: Collection[str], what: str, complete: bool = True
) -> None:
    """Raise UnknownAtomError, listing them sorted, if ``given`` holds names
    outside ``names``; then, if ``complete``, MissingAtomValueError listing
    the absent ones in ``names`` order.  ``what`` reads "atoms in the weight"."""
    unknown = set(given).difference(names)
    if unknown:
        raise UnknownAtomError(f"unknown {what}: " + ", ".join(sorted(map(str, unknown))))
    if complete and len(given) < len(names):  # the keys of given are distinct and all known
        missing = [n for n in names if n not in given]
        raise MissingAtomValueError(f"missing {what}: " + ", ".join(missing))


def _check_cycle_length(n: int) -> None:
    if not (is_integer(n) and n >= 3):
        raise InvalidCycleLengthError(f"cycle length must be an integer >= 3, got {n!r}")


def cycle_logic(n: int) -> EventStructure:
    """The n-cycle logic: contexts ``Ci = {ai, a(i+1 mod n), xi}``.

    Adjacent contexts share one cyclic atom, so the contexts themselves
    form a single closed ring.
    """
    _check_cycle_length(n)
    atoms = [f"a{i}" for i in range(1, n + 1)] + [f"x{i}" for i in range(1, n + 1)]
    contexts = [
        (f"a{i}", f"a{i % n + 1}", f"x{i}") for i in range(1, n + 1)
    ]
    names = [f"C{i}" for i in range(1, n + 1)]
    return build_event_structure(atoms, contexts, names)


@dataclass(frozen=True)
class CycleForm:
    """Recognised cycle shape: length plus the two atom families."""

    n: int
    cyclic_atoms: tuple[str, ...]
    extra_atoms: tuple[str, ...]


def cycle_form(structure: EventStructure) -> CycleForm:
    """Match a structure against the n-cycle logic, or raise.

    Recognition is structural on atom names and context sets, so a
    JSON round trip or a reordered construction still counts.  The
    match, or its failure, is worked out once per structure.
    """
    if structure._cycle_form is None:
        raise NotACycleStructureError("structure is not an n-cycle of three-atom contexts")
    return structure._cycle_form


@dataclass(frozen=True)
class IncidenceIndex:
    """Which contexts contain each atom, and what context pairs share.

    ``shared_atoms`` holds one entry per unordered context pair with a
    non-empty overlap, keyed by names in context order.
    """

    structure: EventStructure
    contexts_of: Mapping[str, tuple[str, ...]]
    shared_atoms: Mapping[tuple[str, str], tuple[str, ...]]

    def contexts_containing(self, atom: str) -> tuple[str, ...]:
        try:
            return self.contexts_of[atom]
        except KeyError:
            raise UnknownAtomError(f"unknown atom {atom!r}") from None

    def shared(self, name_a: str, name_b: str) -> tuple[str, ...]:
        i = self.structure.context_position(name_a)
        j = self.structure.context_position(name_b)
        if i == j:
            raise ValidationError("a context does not overlap itself here")
        if i > j:
            name_a, name_b = name_b, name_a
        return self.shared_atoms.get((name_a, name_b), ())


def incidence(structure: EventStructure) -> IncidenceIndex:
    """The structure's incidence index, built once per structure."""
    return structure.incidence_index


def connected_components(structure: EventStructure) -> tuple[frozenset[str], ...]:
    """Partition atoms by context-sharing connectivity.

    Two atoms are connected when some chain of contexts links them, so
    each atom goes with the tree of the spanning forest that holds its
    first context.  The components come back ordered by their earliest
    atom, the order in which atom order meets them.
    """
    root, holders = structure._forest[1], structure.incidence_index.contexts_of
    groups: dict[str, list[str]] = {}
    for a in structure.atoms:
        groups.setdefault(root[holders[a][0]], []).append(a)
    return tuple(frozenset(g) for g in groups.values())


def structure_from_json_dict(doc: Mapping) -> EventStructure:
    """Parse ``{"atoms": [...], "contexts": [{"name":..., "atoms": [...]}]}``.

    Field order is irrelevant; unknown fields are rejected.
    """
    _require_keys(doc, {"atoms", "contexts"}, {"atoms", "contexts"}, "structure")
    atoms = doc["atoms"]
    if not isinstance(atoms, list):
        raise SchemaError("'atoms' must be a list of names")
    raw = doc["contexts"]
    if not isinstance(raw, list):
        raise SchemaError("'contexts' must be a list of objects")
    contexts = []
    names = []
    for k, entry in enumerate(raw):
        _require_keys(entry, {"name", "atoms"}, {"atoms"}, f"context #{k + 1}")
        if not isinstance(entry["atoms"], list):
            raise SchemaError(f"context #{k + 1}: 'atoms' must be a list")
        contexts.append(entry["atoms"])
        names.append(entry.get("name", f"C{k + 1}"))
    return build_event_structure(atoms, contexts, names)


def structure_from_json(text: str) -> EventStructure:
    return structure_from_json_dict(load_json(None, text))
