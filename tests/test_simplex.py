"""The integer revised simplex against a dense Fraction tableau.

``reference_feasible_nonnegative`` is the textbook phase-one tableau the
library used to run: Bland's rule, rows with a negative right-hand side
flipped, the Farkas certificate read off the reduced costs of the
artificials.  It is kept here as the reference only.  The library's
solver must take the same pivots, so it must return the same ``x`` and
the same ``y``, value for value and in the same order.
"""

import math
from fractions import Fraction
from pathlib import Path
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pastedlogic as pl
from helpers import (
    ListFamily, grid_logic, pentagon_pair, random_structure, reference_two_valued_states,
)
from pastedlogic._simplex import feasible_nonnegative
from pastedlogic.numeric import as_fraction

DATA = Path(__file__).parent / "data"


def reference_feasible_nonnegative(columns, rhs):
    m, n = len(rhs), len(columns)
    sign = [1 if v >= 0 else -1 for v in rhs]
    tableau = []
    for i in range(m):
        row = [sign[i] * Fraction(columns[j][i]) for j in range(n)]
        row.extend(Fraction(int(k == i)) for k in range(m))
        row.append(sign[i] * Fraction(rhs[i]))
        tableau.append(row)
    basis = [n + i for i in range(m)]
    obj = [int(j >= n) - sum(tableau[i][j] for i in range(m)) for j in range(n + m)]
    obj.append(-sum(tableau[i][-1] for i in range(m)))

    while True:
        entering = next((j for j in range(n + m) if obj[j] < 0), None)
        if entering is None:
            break
        leaving, best = None, None
        for i in range(m):
            coeff = tableau[i][entering]
            if coeff > 0:
                ratio = tableau[i][-1] / coeff
                if best is None or ratio < best or (
                    ratio == best and basis[i] < basis[leaving]
                ):
                    best, leaving = ratio, i
        pivot_row = [v / tableau[leaving][entering] for v in tableau[leaving]]
        tableau[leaving] = pivot_row
        for i in range(m):
            if i != leaving and tableau[i][entering] != 0:
                f = tableau[i][entering]
                tableau[i] = [v - f * p for v, p in zip(tableau[i], pivot_row)]
        f = obj[entering]
        obj = [v - f * p for v, p in zip(obj, pivot_row)]
        basis[leaving] = entering

    if obj[-1] == 0:
        return {
            basis[i]: tableau[i][-1]
            for i in range(m)
            if basis[i] < n and tableau[i][-1] != 0
        }, None
    return None, [sign[i] * (1 - obj[n + i]) for i in range(m)]


def assert_same(got, want):
    (x, y), (x_ref, y_ref) = got, want
    if x_ref is None:
        assert x is None
        assert y == y_ref
        assert all(type(v) is Fraction for v in y)
    else:
        assert y is None
        assert list(x.items()) == list(x_ref.items())
        assert all(type(v) is Fraction for v in x.values())


RHS_ENTRIES = [0, 0, 0, 1, 1, 2, -1, -2, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 7)]


def random_lp(rng):
    """Small families of 0/1 vertices with repeats, and signed rational
    right-hand sides, so that ratio ties, degenerate pivots and flipped
    rows are common."""
    m, n = rng.randint(2, 6), rng.randint(0, 9)
    vertices = [{i for i in range(m - 1) if rng.random() < 0.4} for _ in range(n)]
    if n > 1 and rng.random() < 0.3:
        vertices[rng.randrange(n)] = set(vertices[rng.randrange(n)])
    family = ListFamily(vertices)
    if rng.random() < 0.5:  # feasible by construction
        columns = family.columns(m)
        x = [rng.choice([0, 0, 1, Fraction(1, 3), 2]) for _ in range(n)]
        rhs = [sum(x[j] * columns[j][i] for j in range(n)) for i in range(m)]
    else:
        rhs = [rng.choice(RHS_ENTRIES + [Fraction(-7, 4), 3]) for _ in range(m)]
    return family, rhs


def test_random_lps_match_the_fraction_tableau():
    rng = Random(20261018)
    outcomes = {"feasible": 0, "infeasible": 0, "negative": 0}
    for _ in range(600):
        family, rhs = random_lp(rng)
        want = reference_feasible_nonnegative(family.columns(len(rhs)), rhs)
        assert_same(feasible_nonnegative(family, rhs), want)
        outcomes["feasible" if want[0] is not None else "infeasible"] += 1
        outcomes["negative"] += min(rhs) < 0
    assert min(outcomes.values()) > 100


def test_random_lps_with_integer_targets_rescale_exactly():
    # Integer right-hand sides leave rhs_scale at 1, so a coefficient
    # that is not an integer means the final det exceeded 1: some pivot
    # had pivot != det and rescaled the adjugate, on top of the
    # in-place pivot == det updates.
    rng = Random(20261019)
    fractional = feasible = 0
    for _ in range(400):
        m, n = rng.randint(2, 10), rng.randint(1, 14)
        family = ListFamily([{i for i in range(m - 1) if rng.random() < 0.5} for _ in range(n)])
        if rng.random() < 0.5:  # feasible by construction
            columns = family.columns(m)
            x = [rng.choice([0, 1, 1, 2, 3]) for _ in range(n)]
            rhs = [sum(x[j] * columns[j][i] for j in range(n)) for i in range(m)]
        else:
            rhs = [rng.randint(-2, 3) for _ in range(m)]
        want = reference_feasible_nonnegative(family.columns(m), rhs)
        assert_same(feasible_nonnegative(family, rhs), want)
        if want[0] is not None:
            feasible += 1
            fractional += any(v.denominator > 1 for v in want[0].values())
    assert feasible > 150 and fractional > 0


def test_degenerate_tie_is_broken_by_the_lower_basic_index():
    # The vertex {0} enters with rows 0 and 2 tied at ratio 0: the
    # artificial of row 0 (basic index 1) leaves, not that of row 2
    # (index 3), and the certificate depends on it.
    family, rhs = ListFamily([{0}]), [0, 1, 0]
    want = reference_feasible_nonnegative(family.columns(3), rhs)
    assert want == (None, [-1, 1, 1])
    assert_same(feasible_nonnegative(family, rhs), want)


def test_empty_family():
    empty = ListFamily([])
    assert feasible_nonnegative(empty, [0]) == ({}, None)
    assert feasible_nonnegative(empty, [1]) == (None, [Fraction(1)])
    assert reference_feasible_nonnegative([], [1]) == (None, [1])


def point_target(structure, weight):
    """A weight as a membership target: its exact values by atom
    position, then the normalisation 1."""
    return [as_fraction(weight[a]) for a in structure.atoms] + [Fraction(1)]


def test_tampered_answers_are_rejected():
    # Rows: the pentagon's ten atoms by position (a1 first), then
    # normalisation.  State 0 has a1, a3 and x4 at 1.
    pentagon = pl.cycle_logic(5)
    space = pentagon.state_space
    vertex = point_target(pentagon, space[0].as_weight())
    half = point_target(pentagon, pl.half_weight(pentagon))
    assert pl.states._certify(space, vertex, {0: Fraction(1)}, None).classical
    assert not pl.states._certify(space, half, *feasible_nonnegative(space, half)).classical
    with pytest.raises(RuntimeError, match="negative"):
        pl.states._certify(space, vertex, {0: Fraction(-1), 1: Fraction(2)}, None)
    with pytest.raises(RuntimeError, match="does not give the point"):
        pl.states._certify(space, vertex, {1: Fraction(1)}, None)
    # A dual that does not separate: y . b = 1 - 1 = 0 at state 0.
    with pytest.raises(RuntimeError, match="witness does not exceed its bound"):
        pl.states._certify(space, vertex, None, [1] + [0] * 9 + [-1])
    # A dual that some state beats: y . b = 1/2 + 1 > 0 at the half
    # weight, but the states with a1 = 1 give y . v = 2 > 0.
    with pytest.raises(RuntimeError, match="witness does not exceed its bound"):
        pl.states._certify(space, half, None, [1] + [0] * 9 + [1])


def membership_cases():
    """Path weights on both sides of the classical threshold 2/(n-1),
    the half weight, float copies, and path-like weights on a pasting."""
    for n in range(5, 12):
        structure = pl.cycle_logic(n)
        rc = Fraction(2, n - 1)
        for r in [0, Fraction(1, 4), rc * Fraction(9, 10), rc, rc * Fraction(6, 5), 1, 0.7, 1.0]:
            yield structure, pl.path_weight(structure, r)
    pasting = pentagon_pair()
    for r in [0, Fraction(1, 3), 1]:
        values = {a: (r if a[0] in "xy" else 1) / Fraction(2 + r) for a in pasting.atoms}
        yield pasting, pl.make_weight(pasting, values)


def grid_mixture_cases():
    """Seeded rational mixtures of three states on the 2x2 and 3x3 grids,
    blended with the point that gives every atom of a context the same
    value where the grid allows it."""
    rng = Random(8)
    for k in (2, 3):
        structure = grid_logic(k)
        states = reference_two_valued_states(structure)
        for _ in range(6):
            picks = rng.sample(range(len(states)), 3)
            raw = [rng.randint(1, 9) for _ in picks]
            values = {a: Fraction(0) for a in structure.atoms}
            for coeff, i in zip(raw, picks):
                for a in states[i].ones:
                    values[a] += Fraction(coeff, sum(raw))
            yield structure, pl.make_weight(structure, values)


def negative_rhs_case():
    """A float weight admissible at the default tol whose exact point has
    x1 < 0: the half weight on C5 with a1 raised by 1e-12."""
    pentagon = pl.cycle_logic(5)
    values = dict(pl.to_float(pl.half_weight(pentagon)).values)
    values["a1"] += 1e-12
    values["x1"] = -1e-12
    return pentagon, pl.make_weight(pentagon, values, mode="float")


def test_membership_matches_the_fraction_tableau():
    verdicts = set()
    cases = [*membership_cases(), *grid_mixture_cases(), negative_rhs_case()]
    for structure, weight in cases:
        got = pl.classical_membership(structure, weight)
        assert got.states is structure.state_space
        atoms = structure.atoms
        states = reference_two_valued_states(structure)
        columns = [[int(a in s.ones) for a in atoms] + [1] for s in states]
        target = [as_fraction(weight[a]) for a in atoms] + [1]
        x, y = reference_feasible_nonnegative(columns, target)
        assert got.classical == (x is not None)
        if got.classical:
            assert list(got.coefficients.items()) == list(x.items())
            assert [got.states[i] for i in got.coefficients] == [states[i] for i in x]
        else:
            scale = math.lcm(*(v.denominator for v in y[:-1]))
            c = dict(zip(atoms, (v * scale for v in y[:-1])))
            assert got.witness == c
            assert got.witness_bound == max(sum(c[a] for a in s.ones) for s in states)
            assert got.witness_value == sum(c[a] * v for a, v in zip(atoms, target))
        verdicts.add(got.classical)
    assert verdicts == {True, False}
    assert min(as_fraction(v) for v in cases[-1][1].values.values()) < 0


def test_the_state_space_prices_like_the_explicit_list():
    # The simplex sees the states only through their pricing queries:
    # the frontier table must answer each one as a scan over the listed
    # states does, so the whole run takes the same pivots.
    verdicts = set()
    for structure, weight in [*membership_cases(), *grid_mixture_cases()]:
        atoms, space = structure.atoms, structure.state_space
        position = structure.atom_index
        states = reference_two_valued_states(structure)
        listed = ListFamily([{position[a] for a in s.ones} for s in states])
        assert space.count == listed.count
        assert [space.positions(j) for j in range(space.count)] == listed.vertices
        target = [as_fraction(weight[a]) for a in atoms] + [Fraction(1)]
        got = feasible_nonnegative(space, target)
        assert_same(got, feasible_nonnegative(listed, target))
        for w in (target[:-1], [-v for v in target[:-1]], [i % 3 - 1 for i in range(len(atoms))]):
            assert space.max_value(w) == listed.max_value(w)
            for t in (-1, 0, Fraction(1, 2), 1, space.max_value(w)):
                assert space.first_above(w, t) == listed.first_above(w, t)
        verdicts.add(got[0] is not None)
    assert verdicts == {True, False}


def test_tampered_answers_are_rejected_on_the_state_space():
    # The solver's own answers pass the check; each tampered copy fails.
    pentagon = pl.cycle_logic(5)
    space = pentagon.state_space
    mixture = point_target(pentagon, pl.path_weight(pentagon, 1))
    solution, _ = feasible_nonnegative(space, mixture)
    assert pl.states._certify(space, mixture, solution, None).coefficients == solution
    first, *rest = solution
    with pytest.raises(RuntimeError, match="negative"):
        pl.states._certify(space, mixture, {**solution, first: -solution[first]}, None)
    with pytest.raises(RuntimeError, match="does not give the point"):
        pl.states._certify(space, mixture, {j: solution[j] for j in rest}, None)

    half = point_target(pentagon, pl.half_weight(pentagon))
    _, farkas = feasible_nonnegative(space, half)
    assert not pl.states._certify(space, half, None, farkas).classical
    # x1 is 0 at the half weight, so raising its entry leaves c . p as it
    # is, while the states with x1 = 1 now beat it.
    x1 = pentagon.atom_index["x1"]
    raised = [*farkas[:x1], farkas[x1] + 10, *farkas[x1 + 1:]]
    with pytest.raises(RuntimeError, match="witness does not exceed its bound"):
        pl.states._certify(space, half, None, raised)


def test_an_infeasible_answer_prices_the_state_space_once(monkeypatch):
    calls = []
    original = pl.StateSpace.max_value

    def counted(self, w):
        calls.append(w)
        return original(self, w)

    monkeypatch.setattr(pl.StateSpace, "max_value", counted)
    pentagon = pl.cycle_logic(5)
    result = pl.classical_membership(pentagon, pl.half_weight(pentagon))
    assert not result.classical
    assert calls == [list(map(int, result.witness.values()))]


def test_every_answer_goes_through_the_one_check(monkeypatch):
    checked = []
    original = pl.states._certify

    def recorded(space, target, solution, farkas):
        result = original(space, target, solution, farkas)
        checked.append((solution, farkas, result))
        return result

    monkeypatch.setattr(pl.states, "_certify", recorded)
    ceg18 = pl.structure_from_json((DATA / "ceg18.json").read_text(encoding="utf-8"))
    uniform = pl.make_weight(ceg18, dict.fromkeys(ceg18.atoms, Fraction(1, 4)))
    result = pl.classical_membership(ceg18, uniform)
    assert ceg18.state_space.count == 0
    ((solution, farkas, seen),) = checked
    assert seen is result and solution is None
    assert farkas == [0] * len(ceg18.atoms) + [1]
    assert (result.witness_bound, result.witness_value) == (-1, 0)
    pentagon = pl.cycle_logic(5)
    for r in (Fraction(1, 10), 1):
        assert pl.classical_membership(pentagon, pl.path_weight(pentagon, r)) is checked[-1][2]
    assert [seen.classical for *_, seen in checked] == [False, False, True]


@st.composite
def exact_weights(draw):
    """A structure with two-valued states and an exact weight on it: a
    rational mixture of up to four states (classical), or that mixture
    with one atom moved (usually outside the classical polytope, and
    often outside the admissible one), or on a cycle a path weight on
    either side of the classical threshold."""
    structure = draw(st.one_of(
        st.integers(0, 2**32 - 1).map(np.random.default_rng).map(random_structure),
        st.builds(pl.cycle_logic, st.integers(3, 7)),
    ).filter(lambda s: s.state_space.count))
    space = structure.state_space
    if structure.atoms[0] == "a1" and draw(st.booleans()):
        return structure, pl.path_weight(structure, Fraction(draw(st.integers(0, 40)), 20))
    picks = draw(st.lists(st.integers(0, space.count - 1), min_size=1, max_size=4))
    coeffs = [draw(st.integers(1, 9)) for _ in picks]
    values = dict.fromkeys(structure.atoms, Fraction(0))
    for i, c in zip(picks, coeffs):
        for a in space[i].ones:
            values[a] += Fraction(c, sum(coeffs))
    if draw(st.booleans()):
        values[draw(st.sampled_from(structure.atoms))] = Fraction(draw(st.integers(0, 9)), 7)
    return structure, pl.make_weight(structure, values)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(exact_weights())
def test_the_integer_point_decides_like_the_fraction_point(case):
    # The point times its scale, with the scale in the normalisation row,
    # takes the Fraction point's pivots: the same basis, the mixture
    # times the scale, and the same Farkas vector.
    structure, weight = case
    atoms, space = structure.atoms, structure.state_space
    scale, nums = weight.point
    x, y = feasible_nonnegative(space, [*nums, scale])
    columns = [[int(a in s.ones) for a in atoms] + [1] for s in space]
    x_ref, y_ref = reference_feasible_nonnegative(columns, point_target(structure, weight))
    assert (x is None, y) == (x_ref is None, y_ref)
    if x is not None:
        assert list(x) == list(x_ref)
        assert [v / scale for v in x.values()] == list(x_ref.values())


def test_classify_passes_the_integer_point(monkeypatch, pentagon):
    seen = []
    original = pl.states.feasible_nonnegative

    def recorded(family, rhs):
        seen.append(rhs)
        return original(family, rhs)

    monkeypatch.setattr(pl.states, "feasible_nonnegative", recorded)
    weights = [pl.path_weight(pentagon, Fraction(1, 3)), pl.half_weight(pentagon),
               pl.path_weight(pentagon, 0.7)]
    for weight in weights:
        pl.classify_weight(pentagon, weight)
        assert all(type(v) is int for v in seen[-1])
        assert seen[-1] == [*weight.point[1], weight.point[0]]
    assert len(seen) == 3 and [rhs[-1] for rhs in seen[:2]] == [7, 2]
