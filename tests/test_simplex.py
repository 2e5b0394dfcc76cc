"""The integer revised simplex against a dense Fraction tableau.

``reference_feasible_nonnegative`` is the textbook phase-one tableau the
library used to run: Bland's rule, rows with a negative right-hand side
flipped, the Farkas certificate read off the reduced costs of the
artificials.  It is kept here as the reference only.  The library's
solver must take the same pivots, so it must return the same ``x`` and
the same ``y``, value for value and in the same order.
"""

from fractions import Fraction
from random import Random

import pytest

import pastedlogic as pl
from helpers import grid_logic, pentagon_pair
from pastedlogic import _simplex, states as states_module
from pastedlogic._simplex import feasible_nonnegative
from pastedlogic.numeric import dumps


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


ENTRIES = [0, 0, 0, 1, 1, 2, -1, -2, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 7)]


def random_lp(rng):
    """Small LPs with repeated columns and zero right-hand sides, so that
    ratio ties and degenerate pivots are common."""
    m, n = rng.randint(1, 5), rng.randint(1, 9)
    columns = [[rng.choice(ENTRIES) for _ in range(m)] for _ in range(n)]
    if n > 1 and rng.random() < 0.3:
        columns[rng.randrange(n)] = list(columns[rng.randrange(n)])
    if rng.random() < 0.5:  # feasible by construction
        x = [rng.choice([0, 0, 1, Fraction(1, 3), 2]) for _ in range(n)]
        rhs = [sum(x[j] * columns[j][i] for j in range(n)) for i in range(m)]
    else:
        rhs = [rng.choice(ENTRIES + [Fraction(-7, 4), 3]) for _ in range(m)]
    return columns, rhs


def test_random_lps_match_the_fraction_tableau():
    rng = Random(20261018)
    outcomes = {"feasible": 0, "infeasible": 0}
    for _ in range(600):
        columns, rhs = random_lp(rng)
        want = reference_feasible_nonnegative(columns, rhs)
        assert_same(feasible_nonnegative(columns, rhs), want)
        outcomes["feasible" if want[0] is not None else "infeasible"] += 1
    assert min(outcomes.values()) > 100


def test_degenerate_tie_is_broken_by_the_lower_basic_index():
    # Column 0 enters with rows 0 and 2 tied at ratio 0: the artificial
    # of row 0 (basic index 1) leaves, not that of row 2 (index 3), and
    # the certificate depends on it.
    columns, rhs = [[1, 0, 1]], [0, 1, 0]
    want = reference_feasible_nonnegative(columns, rhs)
    assert want == (None, [-1, 1, 1])
    assert_same(feasible_nonnegative(columns, rhs), want)


def test_empty_system_is_feasible():
    assert feasible_nonnegative([], []) == ({}, None)
    assert feasible_nonnegative([[], []], []) == ({}, None)


def test_shape_mismatch_raises():
    with pytest.raises(ValueError):
        feasible_nonnegative([[1, 2], [1]], [1, 1])


def test_tampered_answers_are_rejected():
    with pytest.raises(RuntimeError):
        _simplex._verify_certificate([[1, 0], [0, 1]], [1, 1], [1, -1])
    with pytest.raises(RuntimeError):
        _simplex._verify_certificate([[-1, 0]], [1, -1], [0, 1])
    with pytest.raises(RuntimeError):
        _simplex._verify_solution([[1, 0], [0, 1]], [1, 1], {0: Fraction(1)})


def membership_cases():
    """Path weights on both sides of the classical threshold 2/(n-1),
    the half weight, float copies, and path-like weights on a pasting."""
    for n in range(5, 12):
        structure = pl.cycle_logic(n)
        states = pl.enumerate_two_valued_states(structure)
        rc = Fraction(2, n - 1)
        for r in [0, Fraction(1, 4), rc * Fraction(9, 10), rc, rc * Fraction(6, 5), 1, 0.7, 1.0]:
            yield structure, states, pl.path_weight(structure, r)
    pasting = pentagon_pair()
    states = pl.enumerate_two_valued_states(pasting)
    for r in [0, Fraction(1, 3), 1]:
        values = {a: (r if a[0] in "xy" else 1) / Fraction(2 + r) for a in pasting.atoms}
        yield pasting, states, pl.make_weight(pasting, values)


def test_membership_matches_the_fraction_tableau(monkeypatch):
    verdicts = set()
    for structure, states, weight in membership_cases():
        got = pl.classical_membership(structure, weight, states)
        with monkeypatch.context() as patch:
            patch.setattr(states_module, "feasible_nonnegative", reference_feasible_nonnegative)
            want = pl.classical_membership(structure, weight, states)
        assert got == want
        if got.classical:
            assert list(got.coefficients.items()) == list(want.coefficients.items())
        verdicts.add(got.classical)
    assert verdicts == {True, False}


def grid_mixture_cases():
    """Seeded rational mixtures of three states on the 2x2 and 3x3 grids,
    blended with the point that gives every atom of a context the same
    value where the grid allows it."""
    rng = Random(8)
    for k in (2, 3):
        structure = grid_logic(k)
        states = pl.enumerate_two_valued_states(structure)
        for _ in range(6):
            picks = rng.sample(range(len(states)), 3)
            raw = [rng.randint(1, 9) for _ in picks]
            values = {a: Fraction(0) for a in structure.atoms}
            for coeff, i in zip(raw, picks):
                for a in states[i].ones:
                    values[a] += Fraction(coeff, sum(raw))
            yield structure, states, pl.make_weight(structure, values)


def test_the_state_space_prices_like_the_explicit_list():
    verdicts = set()
    cases = [*membership_cases(), *grid_mixture_cases()]
    for structure, states, weight in cases:
        listed = pl.classical_membership(structure, weight, states)
        priced = pl.classical_membership(structure, weight)
        assert priced.states is structure.state_space
        assert dumps(priced.to_json_dict()) == dumps(listed.to_json_dict())
        if listed.classical:
            assert list(priced.coefficients.items()) == list(listed.coefficients.items())
        else:
            assert (priced.witness, priced.witness_bound, priced.witness_value) == (
                listed.witness, listed.witness_bound, listed.witness_value
            )
        verdicts.add(listed.classical)
    assert verdicts == {True, False}


def test_tampered_answers_are_rejected_on_the_state_space():
    space = pl.cycle_logic(5).state_space
    # Rows: the ten atoms by position (a1 first), then normalisation.
    a1, normalisation = [1] + [0] * 10, [0] * 10 + [1]
    _simplex._verify_certificate(space, a1, [1] + [0] * 9 + [-1])
    with pytest.raises(RuntimeError):  # states with a1 = 1 get y . v = 2
        _simplex._verify_certificate(space, normalisation, [1] + [0] * 9 + [1])
    with pytest.raises(RuntimeError):  # state 0 has a1 = 1 as well
        _simplex._verify_solution(space, normalisation, {0: Fraction(1)})
