import gc
import pickle
import weakref
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

import pastedlogic as pl
from helpers import (
    first_found, grid_logic, pentagon_pair, random_structure, reference_two_valued_states,
)
from pastedlogic import (
    EnumerationLimitError,
    NoTwoValuedStatesError,
    NotAdmissibleError,
    UnknownAtomError,
    ValidationError,
)
from pastedlogic.numeric import dumps


def lucas(n):
    a, b = 2, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def exhaustive_states(structure):
    """All 0/1 atom maps with exactly one 1 per context, by brute force."""
    atoms = structure.atoms
    found = []
    for bits in product((0, 1), repeat=len(atoms)):
        ones = frozenset(a for a, b in zip(atoms, bits) if b)
        if all(len(ones & cs) == 1 for cs in structure.context_sets):
            found.append(ones)
    return found


# The pasting's 43 states in enumeration order, three to a line.
PASTING_STATES = """
a1 a3 b3 x4 y4 | a1 a3 b4 x4 y2 | a1 a3 x4 y2 y3 y4
a1 a4 b3 x2 y4 | a1 a4 b4 x2 y2 | a1 a4 x2 y2 y3 y4
a1 b3 x2 x3 x4 y4 | a1 b4 x2 x3 x4 y2 | a1 x2 x3 x4 y2 y3 y4
a2 a4 b4 x5 y5 | a2 a4 b5 x5 y3 | a2 a4 x5 y3 y4 y5
a2 a5 b4 x3 y5 | a2 a5 b5 x3 y3 | a2 a5 x3 y3 y4 y5
a2 b4 x3 x4 x5 y5 | a2 b5 x3 x4 x5 y3 | a2 x3 x4 x5 y3 y4 y5
a3 a5 b3 b5 x1 | a3 a5 b3 x1 y4 y5 | a3 a5 b4 x1 y2 y5
a3 a5 b5 x1 y2 y3 | a3 a5 x1 y2 y3 y4 y5 | a3 b3 b5 x1 x4 x5
a3 b3 x1 x4 x5 y4 y5 | a3 b4 x1 x4 x5 y2 y5 | a3 b5 x1 x4 x5 y2 y3
a3 x1 x4 x5 y2 y3 y4 y5 | a4 b3 b5 x1 x2 x5 | a4 b3 x1 x2 x5 y4 y5
a4 b4 x1 x2 x5 y2 y5 | a4 b5 x1 x2 x5 y2 y3 | a4 x1 x2 x5 y2 y3 y4 y5
a5 b3 b5 x1 x2 x3 | a5 b3 x1 x2 x3 y4 y5 | a5 b4 x1 x2 x3 y2 y5
a5 b5 x1 x2 x3 y2 y3 | a5 x1 x2 x3 y2 y3 y4 y5 | b3 b5 x1 x2 x3 x4 x5
b3 x1 x2 x3 x4 x5 y4 y5 | b4 x1 x2 x3 x4 x5 y2 y5 | b5 x1 x2 x3 x4 x5 y2 y3
x1 x2 x3 x4 x5 y2 y3 y4 y5
"""


class TestEnumeration:
    @pytest.mark.parametrize(
        "n,count", [(3, 4), (4, 7), (5, 11), (6, 18)]
    )
    def test_counts_match_exhaustive_oracle(self, n, count):
        structure = pl.cycle_logic(n)
        states = pl.enumerate_two_valued_states(structure)
        assert len(states) == count
        assert sorted((s.ones for s in states), key=sorted) == sorted(
            exhaustive_states(structure), key=sorted
        )

    def test_each_state_is_admissible_and_classical(self, pentagon, pentagon_states):
        for state in pentagon_states:
            w = state.as_weight()
            assert pl.check_admissible(w).admissible
            assert all(state[a] in (0, 1) for a in pentagon.atoms)
            result = pl.classical_membership(pentagon, w)
            assert result.classical

    def test_deterministic_order(self, pentagon):
        first = pl.enumerate_two_valued_states(pentagon)
        second = pl.enumerate_two_valued_states(pentagon)
        assert [s.ones for s in first] == [s.ones for s in second]

    def test_limit(self, pentagon):
        with pytest.raises(EnumerationLimitError):
            pl.enumerate_two_valued_states(pentagon, limit=5)

    @pytest.mark.parametrize("limit", [-1, 2.5, True, "11"])
    def test_a_limit_is_an_int_at_or_above_zero(self, pentagon, limit):
        with pytest.raises(ValidationError, match="^limit must be an integer >= 0 or None, got "):
            pl.enumerate_two_valued_states(pentagon, limit=limit)

    def test_no_limit_and_a_limit_at_the_count_list_every_state(self, pentagon):
        assert len(pl.enumerate_two_valued_states(pentagon, limit=None)) == 11
        assert len(pl.enumerate_two_valued_states(pentagon, limit=11)) == 11
        with pytest.raises(EnumerationLimitError, match="^more than 0 two-valued states$"):
            pl.enumerate_two_valued_states(pentagon, limit=0)

    def test_state_order_is_pinned(self, pentagon):
        states = pl.enumerate_two_valued_states(pentagon)
        assert [sorted(s.ones) for s in states] == [
            ["a1", "a3", "x4"], ["a1", "a4", "x2"], ["a1", "x2", "x3", "x4"],
            ["a2", "a4", "x5"], ["a2", "a5", "x3"], ["a2", "x3", "x4", "x5"],
            ["a3", "a5", "x1"], ["a3", "x1", "x4", "x5"], ["a4", "x1", "x2", "x5"],
            ["a5", "x1", "x2", "x3"], ["x1", "x2", "x3", "x4", "x5"],
        ]
        states = pl.enumerate_two_valued_states(pentagon_pair())
        expected = [s.strip() for line in PASTING_STATES.strip().splitlines()
                    for s in line.split("|")]
        assert [" ".join(sorted(s.ones)) for s in states] == expected

    def test_deep_structures_do_not_hit_the_recursion_limit(self):
        with pytest.raises(EnumerationLimitError):
            pl.enumerate_two_valued_states(pl.cycle_logic(1500), limit=1)
        n = 1200
        chain = pl.build_event_structure(
            [f"a{i}" for i in range(n + 1)], [[f"a{i}", f"a{i + 1}"] for i in range(n)]
        )
        states = pl.enumerate_two_valued_states(chain)
        assert [len(s.ones) for s in states] == [n // 2 + 1, n // 2]
        assert "a0" in states[0].ones and "a1" in states[1].ones

    def test_unknown_atom_lookup(self, pentagon):
        state = pl.enumerate_two_valued_states(pentagon)[0]
        with pytest.raises(UnknownAtomError, match="^unknown atom 'z9'$"):
            state["z9"]

    def test_structure_without_states(self):
        tight = pl.build_event_structure(
            ["a", "b", "c"], [["a", "b"], ["b", "c"], ["a", "c"]]
        )
        assert pl.enumerate_two_valued_states(tight) == ()

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8, 9])
    def test_max_cyclic_value_is_floor_half(self, n):
        structure = pl.cycle_logic(n)
        cyclic = set(pl.cycle_form(structure).cyclic_atoms)
        states = pl.enumerate_two_valued_states(structure)
        enumerated = max(len(s.ones & cyclic) for s in states)
        assert pl.max_cyclic_value(structure) == enumerated == n // 2

    @pytest.mark.parametrize("n", [29, 41, 101])
    def test_max_cyclic_value_does_not_enumerate(self, n, monkeypatch):
        # L_29 > 10**6, so enumerating would raise EnumerationLimitError.
        structure = pl.cycle_logic(n)

        def refuse(*args, **kwargs):
            raise AssertionError("max_cyclic_value enumerated the states")

        monkeypatch.setattr(pl.states, "enumerate_two_valued_states", refuse)
        value = pl.max_cyclic_value(structure)
        assert value == n // 2 and isinstance(value, Fraction)

    @pytest.mark.parametrize("n", range(3, 22))
    def test_state_count_is_lucas_number(self, n):
        assert len(pl.enumerate_two_valued_states(pl.cycle_logic(n))) == lucas(n)


NAMED_STRUCTURES = {
    **{f"C{n}": (lambda n=n: pl.cycle_logic(n)) for n in range(3, 22)},
    "pasting": pentagon_pair,
    "grid2": lambda: grid_logic(2),
    "grid3": lambda: grid_logic(3),
}


# Beyond the named ones: levels of up to 20 nodes, and a context of
# 1 000 atoms, priced by a max of 1 000 terms.
PRICING_STRUCTURES = {
    **NAMED_STRUCTURES,
    "grid4": lambda: grid_logic(4),
    "wide": lambda: pl.build_event_structure(
        [f"w{i}" for i in range(1000)] + ["u", "v", "x"],
        [[f"w{i}" for i in range(1000)], ["w0", "u", "v"], ["v", "w1", "x"]],
    ),
}


def state_sums(states, structure, w):
    index = structure.atom_index
    return [sum(w[index[a]] for a in state.ones) for state in states]


def scanned(states, structure, sums, t):
    """``first_found``'s answer by a scan of the listed states: the lowest
    index whose sum exceeds ``t``, with its 1-atom positions, or None."""
    i = next((i for i, v in enumerate(sums) if v > t), None)
    return None if i is None else (i, sorted(structure.atom_index[a] for a in states[i].ones))


class TestStateSpace:
    """The frontier table against the backtracking reference."""

    @pytest.mark.parametrize("name", NAMED_STRUCTURES)
    def test_order_matches_the_reference(self, name):
        structure = NAMED_STRUCTURES[name]()
        space = structure.state_space
        reference = reference_two_valued_states(structure)
        assert space.count == len(reference)
        assert [s.ones for s in space] == [s.ones for s in reference]
        assert pl.enumerate_two_valued_states(structure) == reference

    def test_order_matches_the_reference_on_random_structures(self):
        rng = np.random.default_rng(8)
        empty = 0
        for _ in range(300):
            structure = random_structure(rng)
            space = structure.state_space
            reference = reference_two_valued_states(structure)
            assert space.count == len(reference)
            assert [s.ones for s in space] == [s.ones for s in reference]
            empty += not reference
            if reference:
                w = [int(v) for v in rng.integers(-3, 4, size=len(structure.atoms))]
                sums = state_sums(reference, structure, w)
                t = sums[int(rng.integers(len(sums)))]
                assert space.max_value(w) == max(sums)
                assert first_found(space, w, t) == scanned(reference, structure, sums, t)
        assert 0 < empty < 200

    def test_pricing_matches_a_scan_on_irregular_tables(self):
        # Random structures give nodes with three or more transitions and
        # transitions whose 1-atom an earlier context fixed (gain -1).
        rng = np.random.default_rng(11)
        wide = fixed = empty = 0
        for _ in range(100):
            structure = random_structure(rng)
            space = structure.state_space
            reference = reference_two_valued_states(structure)
            nodes = [node for level in space._levels for node in level]
            wide += any(len(node) >= 3 for node in nodes)
            fixed += any(gain < 0 for node in nodes for gain, *_ in node)
            ints = [int(v) for v in rng.integers(-5, 6, size=len(structure.atoms))]
            fractions = [Fraction(int(v), int(d)) for v, d in zip(
                rng.integers(-9, 10, size=len(ints)), rng.integers(1, 7, size=len(ints)))]
            for w in (ints, fractions):
                if not reference:
                    with pytest.raises(NoTwoValuedStatesError):
                        space.max_value(w)
                    with pytest.raises(NoTwoValuedStatesError):
                        space.first_above(w, 0)
                    continue
                sums = state_sums(reference, structure, w)
                assert space.max_value(w) == max(sums)
                for t in (-1, 0, max(sums) - 1, max(sums)):
                    assert first_found(space, w, t) == scanned(reference, structure, sums, t)
            empty += not reference
        assert wide and fixed and empty

    @pytest.mark.parametrize("name", ["C9", "pasting", "grid3"])
    def test_rank_unrank_round_trip(self, name):
        structure = NAMED_STRUCTURES[name]()
        space = structure.state_space
        for i, state in enumerate(space):
            assert space[i] == state
            assert space.index(state) == i
            assert space.positions(i) == sorted(structure.atom_index[a] for a in state.ones)
        assert space[-1] == space[space.count - 1]
        with pytest.raises(IndexError):
            space[space.count]
        not_a_state = pl.TwoValuedState(structure, space[0].ones | space[1].ones)
        with pytest.raises(ValueError):
            space.index(not_a_state)
        with pytest.raises(ValueError):
            space.index(pl.TwoValuedState(pl.cycle_logic(4), frozenset({"a1", "a3"})))

    def test_structure_without_states(self):
        tight = pl.build_event_structure(
            ["a", "b", "c"], [["a", "b"], ["b", "c"], ["a", "c"]]
        )
        space = tight.state_space
        assert space.count == 0 and not space and list(space) == []
        with pytest.raises(IndexError):
            space[0]
        with pytest.raises(ValueError):
            space.index(pl.TwoValuedState(tight, frozenset({"a"})))
        with pytest.raises(NoTwoValuedStatesError):
            space.max_value([1, 1, 1])

    def test_a_space_pickles_as_its_structures_space(self):
        # A copy is the live structure's space, compiled levels and all.
        # Once the structure is gone, a copy builds its space again and
        # compiles it on its first pricing call.
        nine = pl.cycle_logic(9)
        # the 9-cycle with its contexts listed backwards: no other test holds it
        structure = pl.build_event_structure(
            nine.atoms, nine.contexts[::-1], nine.context_names[::-1])
        w = [i % 5 - 2 for i in range(len(structure.atoms))]
        best = structure.state_space.max_value(w)
        for r in (Fraction(1, 10), 1):
            report = pl.classify_weight(structure, pl.path_weight(structure, r))
            assert "_kernels" in vars(structure.state_space)
            copy, copied = pickle.loads(pickle.dumps((report, structure)))
            assert dumps(copy.to_json_dict()) == dumps(report.to_json_dict())
            assert copied is structure and copy.membership.states is structure.state_space
        assert {report.label, copy.label} == {"classical"}
        data, alive = pickle.dumps(report), weakref.ref(structure)
        del report, copy, copied, structure
        gc.collect()
        assert alive() is None
        space = pickle.loads(data).membership.states
        assert "_kernels" not in vars(space)
        assert space.max_value(w) == best
        assert "_kernels" in vars(space)

    def test_counting_listing_and_ranking_compile_nothing(self):
        space = pl.StateSpace(pl.cycle_logic(7))
        states = list(space)
        assert space.count == len(states) == lucas(7)
        assert [space.index(s) for s in states] == list(range(space.count))
        assert space[5] == states[5] and len(space.positions(5)) == len(states[5].ones)
        assert "_kernels" not in vars(space)

    @pytest.mark.parametrize("name", ["C7", "C8", "pasting", "grid3", "grid4", "wide"])
    def test_max_value_and_first_above_match_brute_force(self, name):
        structure = PRICING_STRUCTURES[name]()
        space = structure.state_space
        states = list(space)
        rng = np.random.default_rng(len(name))
        for _ in range(25):
            w = [int(v) for v in rng.integers(-4, 5, size=len(structure.atoms))]
            sums = state_sums(states, structure, w)
            assert space.max_value(w) == max(sums)
            # Thresholds at a state's own sum test the strict inequality.
            for t in {*rng.choice(sums, size=4).tolist(), min(sums) - 1, max(sums)}:
                assert first_found(space, w, t) == scanned(states, structure, sums, t)
        w = [Fraction(1, 3)] * len(structure.atoms)
        assert space.max_value(w) == max(state_sums(states, structure, w))

    @pytest.mark.parametrize("n", [41, 101, 1500])
    def test_count_is_lucas_without_listing(self, n, monkeypatch):
        def refuse(self):
            raise AssertionError("the space was listed")

        monkeypatch.setattr(pl.StateSpace, "__iter__", refuse)
        space = pl.cycle_logic(n).state_space
        assert space.count == lucas(n)
        with pytest.raises(EnumerationLimitError):
            pl.enumerate_two_valued_states(pl.cycle_logic(n))
        assert space
        if n == 101:
            with pytest.raises(OverflowError):
                len(space)


class TestMembership:
    def test_half_weight_not_classical_with_verified_witness(
        self, pentagon, pentagon_states
    ):
        result = pl.classical_membership(pentagon, pl.half_weight(pentagon))
        assert not result.classical
        assert result.coefficients is None
        c = result.witness
        assert all(isinstance(v, Fraction) and v.denominator == 1 for v in c.values())
        bound = max(
            sum((c[a] for a in s.ones), Fraction(0)) for s in pentagon_states
        )
        assert bound == result.witness_bound
        value = sum(
            (c[a] * v for a, v in pl.half_weight(pentagon).values.items()),
            Fraction(0),
        )
        assert value == result.witness_value
        assert value > bound

    def test_uniform_is_classical_with_exact_decomposition(
        self, pentagon, pentagon_states
    ):
        uniform = pl.path_weight(pentagon, 1)
        result = pl.classical_membership(pentagon, uniform)
        assert result.classical
        lam = result.coefficients
        assert sum(lam.values()) == 1
        assert all(v >= 0 for v in lam.values())
        recombined = {a: Fraction(0) for a in pentagon.atoms}
        for i, state in enumerate(result.states):
            if i in lam:
                for a in state.ones:
                    recombined[a] += lam[i]
        assert recombined == dict(uniform.values)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_mixtures_are_classical(self, pentagon, pentagon_states, seed):
        rng = np.random.default_rng(seed)
        picks = rng.choice(len(pentagon_states), size=rng.integers(2, 5), replace=False)
        raw = [Fraction(int(rng.integers(1, 20)), 1) for _ in picks]
        total = sum(raw)
        lam = [w / total for w in raw]
        values = {a: Fraction(0) for a in pentagon.atoms}
        for lam_i, idx in zip(lam, picks):
            for a in pentagon_states[idx].ones:
                values[a] += lam_i
        mix = pl.make_weight(pentagon, values)
        result = pl.classical_membership(pentagon, mix)
        assert result.classical

    def test_beyond_polytope_witness_separates_every_state(
        self, pentagon, pentagon_states
    ):
        w = pl.path_weight(pentagon, Fraction(1, 5))
        result = pl.classical_membership(pentagon, w)
        assert not result.classical
        c = result.witness
        for state in pentagon_states:
            assert sum(c[a] for a in state.ones) <= result.witness_bound
        assert result.witness_value > result.witness_bound

    def test_tol_is_keyword_only(self, pentagon, pentagon_states):
        half = pl.half_weight(pentagon)
        with pytest.raises(TypeError):
            pl.classical_membership(pentagon, half, pentagon_states)
        with pytest.raises(TypeError):
            pl.classical_membership(pentagon, half, 1e-9)
        assert not pl.classical_membership(pentagon, half, tol=1e-9).classical

    def test_not_admissible_rejected(self, pentagon):
        bad = pl.make_weight(pentagon, {a: Fraction(1, 2) for a in pentagon.atoms})
        with pytest.raises(NotAdmissibleError):
            pl.classical_membership(pentagon, bad)

    def test_no_states_gives_the_vacuous_witness(self):
        tight = pl.build_event_structure(
            ["a", "b", "c"], [["a", "b"], ["b", "c"], ["a", "c"]]
        )
        w = pl.make_weight(tight, {a: Fraction(1, 2) for a in tight.atoms})
        result = pl.classical_membership(tight, w)
        assert not result.classical and result.coefficients is None
        assert result.states.count == 0
        assert result.witness == {"a": 0, "b": 0, "c": 0}
        assert (result.witness_bound, result.witness_value) == (-1, 0)
        with pytest.raises(NoTwoValuedStatesError):
            result.states.max_value(list(result.witness.values()))

    def test_float_mode_tests_the_rationalized_point(self, pentagon):
        half = pl.to_float(pl.half_weight(pentagon))
        result = pl.classical_membership(pentagon, half)
        assert not result.classical
        uniform_dyadic = {a: 0.25 for a in pentagon.atoms}
        for i in range(1, 6):
            uniform_dyadic[f"x{i}"] = 0.5
        w = pl.make_weight(pentagon, uniform_dyadic, mode="float")
        assert pl.classical_membership(pentagon, w).classical

    def test_json_round_trip(self, pentagon, pentagon_states):
        result = pl.classical_membership(pentagon, pl.half_weight(pentagon))
        doc = result.to_json_dict()
        assert doc["classical"] is False
        assert doc["witness"]["x1"] is not None

    def test_square_half_weight_alternating_states(self, square):
        result = pl.classical_membership(square, pl.half_weight(square))
        assert result.classical
        used = {
            frozenset(result.states[i].ones): lam
            for i, lam in result.coefficients.items()
            if lam > 0
        }
        assert used == {
            frozenset({"a1", "a3"}): Fraction(1, 2),
            frozenset({"a2", "a4"}): Fraction(1, 2),
        }


def half_blend_weight(structure, states, rng):
    """A seeded admissible rational weight: the half weight blended with a
    random mixture of up to three states.  Blends near the half weight
    leave the classical polytope of an odd cycle."""
    half = pl.half_weight(structure)
    picks = rng.choice(len(states), size=int(rng.integers(1, 4)), replace=False)
    raw = [Fraction(int(rng.integers(1, 30))) for _ in picks]
    mix = {a: Fraction(0) for a in structure.atoms}
    for coeff, idx in zip(raw, picks):
        for a in states[idx].ones:
            mix[a] += coeff / sum(raw)
    t = Fraction(int(rng.integers(0, 101)), 100)
    return pl.make_weight(
        structure, {a: t * half[a] + (1 - t) * mix[a] for a in structure.atoms}
    )


class TestCycleClosedForms:
    """Odd cycles are t-perfect (Chvatal 1975): an admissible weight is
    classical exactly when its cyclic sum is at most (n-1)/2, and even
    cycles, being bipartite, admit no nonclassical weight."""

    @pytest.mark.parametrize("n", range(4, 12))
    def test_lp_label_and_witness_match_the_closed_form(self, n):
        structure = pl.cycle_logic(n)
        states = pl.enumerate_two_valued_states(structure)
        rng = np.random.default_rng(n)
        labels = []
        for _ in range(30):
            w = half_blend_weight(structure, states, rng)
            result = pl.classical_membership(structure, w)
            expected = n % 2 == 0 or pl.cyclic_sum(structure, w) <= Fraction(n - 1, 2)
            assert result.classical == expected
            labels.append(result.classical)
            if result.classical:
                continue
            # The odd-cycle facet sum a_i <= (n-1)/2, rewritten through
            # x_i = 1 - a_i - a_(i+1), up to a positive scale.
            scale = result.witness["a1"]
            assert scale > 0
            assert result.witness == {
                a: scale if a.startswith("a") else -scale * Fraction(n + 1, 2)
                for a in structure.atoms
            }
            assert result.witness_bound == -scale
        if n % 2:
            assert not all(labels), "the sample should reach the nonclassical region"
