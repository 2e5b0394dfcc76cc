import copy
import gc
import itertools
import json
import pickle
import random
import time
import weakref

import numpy as np
import pytest

import pastedlogic as pl
from helpers import grid_logic, pentagon_pair, random_structure, reference_connected_components
from pastedlogic import structures
from pastedlogic import (
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


class TestCycleLogic:
    def test_pentagon_shape(self, pentagon):
        assert pentagon.atoms == (
            "a1", "a2", "a3", "a4", "a5", "x1", "x2", "x3", "x4", "x5",
        )
        assert pentagon.context_names == ("C1", "C2", "C3", "C4", "C5")
        assert pentagon.context_atoms("C1") == ("a1", "a2", "x1")
        assert pentagon.context_atoms("C5") == ("a1", "a5", "x5")

    @pytest.mark.parametrize("n", [3, 4, 5, 7, 12])
    def test_every_context_has_three_atoms(self, n):
        structure = pl.cycle_logic(n)
        assert len(structure.atoms) == 2 * n
        assert all(len(ctx) == 3 for ctx in structure.contexts)
        inc = pl.incidence(structure)
        for i in range(1, n + 1):
            assert len(inc.contexts_of[f"a{i}"]) == 2
            assert inc.contexts_of[f"x{i}"] == (f"C{i}",)

    @pytest.mark.parametrize("n", [1, 2, 0, -3, 2.5, True])
    def test_bad_lengths_rejected(self, n):
        with pytest.raises(InvalidCycleLengthError):
            pl.cycle_logic(n)

    def test_adjacent_contexts_share_one_atom(self, pentagon):
        inc = pl.incidence(pentagon)
        assert inc.shared("C1", "C2") == ("a2",)
        assert inc.shared("C2", "C1") == ("a2",)
        assert inc.shared("C5", "C1") == ("a1",)
        assert inc.shared("C1", "C3") == ()


class TestBuildValidation:
    def test_duplicate_atom(self):
        with pytest.raises(DuplicateAtomError):
            pl.build_event_structure(["a", "a"], [["a"]])

    def test_empty_context(self):
        with pytest.raises(EmptyContextError):
            pl.build_event_structure(["a"], [["a"], []])

    def test_undeclared_atom(self):
        with pytest.raises(UnknownAtomError):
            pl.build_event_structure(["a"], [["a", "b"]])

    def test_atom_repeated_inside_context(self):
        with pytest.raises(DuplicateAtomError):
            pl.build_event_structure(["a", "b"], [["a", "b", "a"]])

    def test_duplicate_context_set(self):
        with pytest.raises(DuplicateContextError):
            pl.build_event_structure(["a", "b"], [["a", "b"], ["b", "a"]])

    def test_duplicate_context_name(self):
        with pytest.raises(DuplicateContextError):
            pl.build_event_structure(
                ["a", "b", "c"], [["a", "b"], ["b", "c"]], ["C", "C"]
            )

    def test_uncovered_atom(self):
        with pytest.raises(ValidationError, match="every atom must occur"):
            pl.build_event_structure(["a", "b", "c"], [["a", "b"]])

    @pytest.mark.parametrize("call, error, message", [
        (lambda: pl.build_event_structure([], []), ValidationError,
         "an event structure needs at least one atom"),
        (lambda: pl.build_event_structure(["a"], [["a"]], ["C1", "C2"]), ValidationError,
         "one name per context is required"),
        (lambda: pl.incidence(pl.cycle_logic(5)).shared("C1", "C1"), ValidationError,
         "a context does not overlap itself here"),
        (lambda: pl.structure_from_json_dict({"atoms": "a", "contexts": []}), SchemaError,
         "'atoms' must be a list of names"),
        (lambda: pl.cycle_logic(5).context_atoms("C9"), UnknownAtomError,
         "no context named 'C9'"),
    ], ids=["no-atoms", "name-count", "self-overlap", "atoms-not-a-list", "unknown-context"])
    def test_refusals(self, call, error, message):
        with pytest.raises(error) as caught:
            call()
        assert str(caught.value) == message

    def test_contexts_sorted_by_atom_order(self):
        structure = pl.build_event_structure(
            ["p", "q", "r"], [["r", "p"], ["q", "r"]]
        )
        assert structure.contexts == (("p", "r"), ("q", "r"))
        assert structure.context_names == ("C1", "C2")


class TestCycleForm:
    def test_recognizes_generated_cycles(self):
        for n in (3, 5, 8):
            form = pl.cycle_form(pl.cycle_logic(n))
            assert form.n == n
            assert form.cyclic_atoms == tuple(f"a{i}" for i in range(1, n + 1))
            assert form.extra_atoms == tuple(f"x{i}" for i in range(1, n + 1))

    def test_recognizes_reordered_construction(self):
        ref = pl.cycle_logic(4)
        shuffled = pl.build_event_structure(
            list(reversed(ref.atoms)),
            [list(reversed(ctx)) for ctx in reversed(ref.contexts)],
        )
        assert pl.cycle_form(shuffled).n == 4

    def test_rejects_non_cycles(self, pentagon):
        chain = pl.build_event_structure(
            ["a", "b", "c"], [["a", "b"], ["b", "c"]]
        )
        with pytest.raises(NotACycleStructureError):
            pl.cycle_form(chain)
        rename = lambda a: "y1" if a == "a1" else a
        renamed = pl.build_event_structure(
            [rename(a) for a in pentagon.atoms],
            [[rename(a) for a in c] for c in pentagon.contexts],
        )
        with pytest.raises(NotACycleStructureError):
            pl.cycle_form(renamed)

    def test_match_and_failure_are_worked_out_once(self, monkeypatch):
        # Context names no other live structure has, so that neither is an
        # interned structure whose form some other test has worked out.
        five = pl.cycle_logic(5)
        pentagon = pl.build_event_structure(
            five.atoms, five.contexts, [f"once-{i}" for i in range(1, 6)]
        )
        tight = pl.build_event_structure(
            ["a", "b", "c"], [["a", "b"], ["b", "c"], ["a", "c"]], ["once-1", "once-2", "once-3"]
        )
        built = []
        cycle_logic = structures.cycle_logic
        monkeypatch.setattr(structures, "cycle_logic", lambda n: built.append(n) or cycle_logic(n))
        assert pl.cycle_form(pentagon) is pl.cycle_form(pentagon)
        for _ in range(2):
            with pytest.raises(NotACycleStructureError):
                pl.cycle_form(tight)
        assert built == [5, 3]


def _named_pentagon(prefix):
    """The pentagon with context names no other test uses, so that no live
    structure is equal to it and nothing about it has been cached yet."""
    five = pl.cycle_logic(5)
    names = [f"{prefix}{i}" for i in range(1, 6)]
    return pl.build_event_structure(five.atoms, five.contexts, names)


class TestInterning:
    def test_a_json_round_trip_returns_the_live_structure_with_its_caches(self):
        pentagon = _named_pentagon("round-trip-")
        pentagon.state_space, pentagon.incidence_index, pentagon.projection_plan
        again = pl.structure_from_json(json.dumps(pentagon.to_json_dict()))
        assert again is pentagon
        assert {"state_space", "incidence_index", "projection_plan"} <= vars(again).keys()

    def test_a_structure_no_one_holds_leaves_the_table(self):
        pentagon = _named_pentagon("dropped-")
        pentagon.state_space
        key = (pentagon.atoms, pentagon.contexts, pentagon.context_names)
        assert structures._interned[key] is pentagon
        gone = weakref.ref(pentagon)
        del pentagon
        gc.collect()
        assert gone() is None and key not in structures._interned
        rebuilt = _named_pentagon("dropped-")
        assert "state_space" not in vars(rebuilt)
        assert structures._interned[key] is rebuilt

    @pytest.mark.parametrize("clone", [lambda s: pickle.loads(pickle.dumps(s)), copy.deepcopy],
                             ids=["pickle", "deepcopy"])
    def test_a_copy_is_the_live_structure_with_its_caches(self, clone):
        assert clone(pl.cycle_logic(5)) is pl.cycle_logic(5)
        pentagon = _named_pentagon("copied-")
        pentagon.state_space
        again = clone(pentagon)
        assert again is pentagon and "state_space" in vars(again)

    def test_a_copy_whose_original_is_gone_is_the_structure_built_next(self):
        data = pickle.dumps(_named_pentagon("unpickled-"))
        gc.collect()
        again = pickle.loads(data)
        assert _named_pentagon("unpickled-") is again

    @pytest.mark.parametrize("atoms,contexts,error", [
        (["p", "p"], [["p"]], DuplicateAtomError),
        (["p", "q"], [["p"]], ValidationError),
        (["p", "q"], [["p", "q"], ["q", "p"]], DuplicateContextError),
        (["p", "q"], [["p", "z"]], UnknownAtomError),
    ])
    def test_invalid_input_is_refused_and_never_interned(self, atoms, contexts, error):
        before = set(structures._interned)
        with pytest.raises(error):
            pl.build_event_structure(atoms, contexts)
        assert set(structures._interned) <= before

    def test_other_names_or_another_atom_order_is_another_structure(self):
        contexts = [["p", "q"], ["q", "r"], ["p", "r"]]
        base = pl.build_event_structure(["p", "q", "r"], contexts)
        renamed = pl.build_event_structure(["p", "q", "r"], contexts, ["K1", "K2", "K3"])
        reordered = pl.build_event_structure(["r", "q", "p"], contexts)
        assert renamed != base and renamed is not base
        assert reordered != base and reordered is not base
        assert pl.build_event_structure(["p", "q", "r"], contexts) is base

    def test_reloaded_counts_share_one_projection_plan_and_state_space(self, monkeypatch):
        from pastedlogic import states

        rows, factors, tables = [], [], []
        independent_rows, frontier_table = structures.independent_rows, states._frontier_table
        factor = structures.Factor
        monkeypatch.setattr(structures, "independent_rows",
                            lambda *a: rows.append(1) or independent_rows(*a))
        monkeypatch.setattr(structures, "Factor", lambda gram: factors.append(1) or factor(gram))
        monkeypatch.setattr(states, "_frontier_table",
                            lambda s: tables.append(1) or frontier_table(s))
        pentagon = _named_pentagon("reloaded-")
        half = pl.half_weight(pentagon)
        doc = json.dumps({
            "structure": pentagon.to_json_dict(),
            "counts": {name: {a: int(2 * half[a]) for a in ctx}
                       for name, ctx in zip(pentagon.context_names, pentagon.contexts)},
        })
        del pentagon, half
        first = pl.ingest_counts(json.loads(doc))
        second = pl.ingest_counts(json.loads(doc))
        assert second.structure is first.structure
        assert pl.reconstruct_weight(first) == pl.reconstruct_weight(second)
        assert rows == [1] and factors == [1]
        labels = {pl.analyze(data).classification.label for data in (first, second)}
        assert labels == {"beyond-theta"}  # 5/2 on the cyclic atoms
        assert rows == [1] and factors == [1] and tables == [1]


class TestConnectivity:
    def test_single_cycle_is_one_component(self, pentagon):
        components = pl.connected_components(pentagon)
        assert components == (frozenset(pentagon.atoms),)

    def test_disjoint_union_splits(self):
        a = pl.cycle_logic(3)
        atoms = list(a.atoms) + [f"{name}b" for name in a.atoms]
        contexts = [list(c) for c in a.contexts] + [
            [f"{name}b" for name in c] for c in a.contexts
        ]
        both = pl.build_event_structure(atoms, contexts)
        components = pl.connected_components(both)
        assert len(components) == 2
        assert components[0] == frozenset(a.atoms)

    def test_components_match_the_union_find(self):
        structures = [random_structure(np.random.default_rng(seed)) for seed in range(200)]
        rng = random.Random(0)
        for _ in range(40):
            # Disjoint unions with the atom order shuffled across the parts,
            # so components interleave and their order is not the parts'.
            parts = rng.sample(structures, rng.randint(2, 3))
            atoms = [f"{a}_{k}" for k, s in enumerate(parts) for a in s.atoms]
            rng.shuffle(atoms)
            contexts = [[f"{a}_{k}" for a in c] for k, s in enumerate(parts) for c in s.contexts]
            structures.append(pl.build_event_structure(atoms, contexts))
        for structure in [*structures, pentagon_pair(), grid_logic(4)]:
            components = pl.connected_components(structure)
            assert components == reference_connected_components(structure)
            # The cycle basis has edges - contexts + components cycles, each
            # closed and each step between contexts that share an atom.
            inc = structure.incidence_index
            cycles = structure.fundamental_cycles
            assert len(cycles) == len(inc.shared_atoms) - len(structure.contexts) + len(components)
            for cycle in cycles:
                assert cycle[0] == cycle[-1] and len(set(cycle)) == len(cycle) - 1 >= 3
                assert all(inc.shared(u, v) for u, v in zip(cycle, cycle[1:]))

    def test_a_long_chain_is_one_tree(self):
        # C_i = {s_i, s_i+1, p_i}: a path of 20 000 contexts, one tree of
        # depth 20 000, walked without recursion or root paths per context.
        n = 20_000
        atoms = [f"s{i}" for i in range(n + 1)] + [f"p{i}" for i in range(n)]
        chain = pl.build_event_structure(atoms, [(f"s{i}", f"s{i + 1}", f"p{i}") for i in range(n)])
        start = time.perf_counter()
        assert chain.fundamental_cycles == ()
        assert pl.connected_components(chain) == (frozenset(atoms),)
        assert time.perf_counter() - start < 5

    def test_a_long_cycle_is_one_fundamental_cycle(self):
        ring = pl.cycle_logic(2001)
        (cycle,) = ring.fundamental_cycles
        assert len(cycle) == 2002 and cycle[0] == cycle[-1]
        assert set(cycle) == set(ring.context_names)

    def test_incidence_is_built_once(self):
        structure = pl.cycle_logic(7)
        assert pl.incidence(structure) is pl.incidence(structure)
        assert pl.incidence(structure) is structure.incidence_index

    @pytest.mark.parametrize("seed", range(40))
    def test_shared_atoms_match_the_pairwise_intersections(self, seed):
        # Reference: intersect every context pair, in context order, with
        # atoms in atom order.  Atom names are shuffled so that neither
        # order is alphabetical.
        rng = random.Random(seed)
        atoms = [f"t{i}" for i in range(rng.randint(4, 12))]
        rng.shuffle(atoms)
        draws = (sorted(rng.sample(atoms, rng.randint(1, 4))) for _ in range(rng.randint(1, 10)))
        contexts = list(dict.fromkeys(map(tuple, draws)))
        rng.shuffle(contexts)
        used = [a for a in atoms if any(a in c for c in contexts)]
        names = [f"K{rng.randint(0, 999)}_{i}" for i in range(len(contexts))]
        structure = pl.build_event_structure(used, contexts, names)
        sets = structure.context_sets
        expected = {}
        for i, j in itertools.combinations(range(len(names)), 2):
            common = [a for a in structure.atoms if a in sets[i] & sets[j]]
            if common:
                expected[(names[i], names[j])] = tuple(common)
        inc = pl.incidence(structure)
        assert list(inc.shared_atoms.items()) == list(expected.items())
        assert inc.contexts_of == {
            a: tuple(n for n, s in zip(names, sets) if a in s) for a in structure.atoms
        }

    def test_incidence_unknown_atom(self, pentagon):
        inc = pl.incidence(pentagon)
        with pytest.raises(UnknownAtomError):
            inc.contexts_containing("z9")


class TestJsonRoundTrip:
    def test_round_trip(self, pentagon):
        doc = pentagon.to_json_dict()
        again = pl.structure_from_json_dict(json.loads(json.dumps(doc)))
        assert again == pentagon

    def test_unknown_field_rejected(self, pentagon):
        doc = pentagon.to_json_dict()
        doc["extra"] = 1
        with pytest.raises(SchemaError, match="unknown fields"):
            pl.structure_from_json_dict(doc)

    def test_missing_field_rejected(self):
        with pytest.raises(SchemaError, match="missing fields"):
            pl.structure_from_json_dict({"atoms": ["a"]})

    def test_non_string_context_member(self):
        doc = {"atoms": ["a"], "contexts": [{"atoms": [["a"]]}]}
        with pytest.raises(UnknownAtomError, match="undeclared atom"):
            pl.structure_from_json_dict(doc)

    def test_invalid_json_text(self):
        with pytest.raises(SchemaError, match="invalid JSON"):
            pl.structure_from_json("{not json")

    def test_names_optional_in_context_entries(self):
        structure = pl.structure_from_json_dict(
            {"atoms": ["a", "b"], "contexts": [{"atoms": ["a", "b"]}]}
        )
        assert structure.context_names == ("C1",)


class TestCheckNames:
    """``check_names`` is the one comparison of a table's keys with the
    structure's names: unknown names first, sorted, then missing ones in
    the structure's order."""

    def test_unknown_names_are_listed_sorted(self):
        with pytest.raises(UnknownAtomError, match="^unknown atoms in the table: y, z$"):
            structures.check_names({"z": 1, "a": 1, "y": 1}, ("a", "b"), "atoms in the table")

    def test_unknown_comes_before_missing(self):
        with pytest.raises(UnknownAtomError, match="^unknown atoms in the table: z$"):
            structures.check_names({"z": 1}, ("a", "b"), "atoms in the table")

    def test_missing_names_follow_the_given_order(self):
        with pytest.raises(MissingAtomValueError, match="^missing contexts in the table: C3, C1$"):
            structures.check_names({"C2": 1}, {"C3": 0, "C1": 1, "C2": 2}, "contexts in the table")

    def test_an_incomplete_table_may_pass(self):
        structures.check_names({"a": 1}, ("a", "b"), "atoms", complete=False)
        structures.check_names({"b": 1, "a": 2}, ("a", "b"), "atoms")
        with pytest.raises(UnknownAtomError):
            structures.check_names({"c": 1}, ("a", "b"), "atoms", complete=False)
