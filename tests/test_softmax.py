import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import pastedlogic as pl
from helpers import (
    grid_logic, pentagon_pair, random_positive_weight, random_structure,
    reference_context_softmax, reference_gluing_check, reference_represent_weight,
    seeded_positive_weight,
)
from pastedlogic import (
    AlphaOutOfRangeError,
    DegenerateScoresError,
    ExponentialLink,
    GlobalScores,
    IdentityLink,
    MissingAtomValueError,
    NotAComponentError,
    NotGluedError,
    NotStrictlyPositiveError,
    PerContextScores,
    PowerLink,
    ScoreOutOfDomainError,
    SchemaError,
    TargetOutOfRangeError,
    UnknownAtomError,
    ValidationError,
)
from pastedlogic.numeric import FLOAT, RATIONAL, dumps

PROPERTY = settings(derandomize=True, database=None, max_examples=300, deadline=None)

# Largest probability gap of the patterned non-glued pentagon family:
# one context scores its shared atom 1 while its neighbour scores
# everything 0, so that atom gets e/(e+2) against 1/3.
NONGLUED_GAP = math.e / (math.e + 2.0) - 1.0 / 3.0


def patterned_family(pentagon):
    values = {
        "C1": {"a1": 0.0, "a2": 0.0, "x1": 0.0},
        "C2": {"a2": 1.0, "a3": 0.0, "x2": 0.0},
        "C3": {"a3": 0.0, "a4": 0.0, "x3": 1.0},
        "C4": {"a4": 0.0, "a5": 0.0, "x4": 1.0},
        "C5": {"a1": 0.0, "a5": 0.0, "x5": 1.0},
    }
    return pl.context_softmax(
        pentagon, PerContextScores(values), ExponentialLink(1.0)
    )


def rejected(call, *args, **kwargs):
    with pytest.raises(ValidationError):
        call(*args, **kwargs)
    return True


def round_trips(link):
    return pl.link_from_json_dict(json.loads(json.dumps(link.to_json_dict()))) == link


# A bool is not a number, and a Fraction is one: each check holds of a
# pentagon.
NUMBER_CHECKS = [
    pytest.param(lambda s: rejected(ExponentialLink, True), id="exponential-beta-bool"),
    pytest.param(lambda s: rejected(PowerLink, True), id="power-k-bool"),
    pytest.param(
        lambda s: rejected(pl.represent_weight, s, pl.path_weight(s, 1), IdentityLink(),
                           alpha=True),
        id="alpha-bool",
    ),
    *(
        pytest.param(lambda s, link=link: not (link.in_domain(True) or link.in_range(True)),
                     id=f"{link.kind}-domain-bool")
        for link in (ExponentialLink(), IdentityLink(), PowerLink())
    ),
    pytest.param(lambda s: round_trips(ExponentialLink(Fraction(1, 2))),
                 id="exponential-beta-fraction"),
    pytest.param(lambda s: round_trips(PowerLink(Fraction(3, 2))), id="power-k-fraction"),
]


class TestLinks:
    @pytest.mark.parametrize("check", NUMBER_CHECKS)
    def test_a_bool_is_not_a_number_and_a_fraction_is(self, pentagon, check):
        assert check(pentagon)

    def test_exponential(self):
        link = ExponentialLink(2.0)
        assert link.evaluate(0.5) == pytest.approx(math.e)
        assert link.inverse(math.e) == pytest.approx(0.5)
        assert link.in_domain(-3.0)
        assert not link.in_range(-1.0)
        with pytest.raises(ValidationError):
            ExponentialLink(0.0)

    def test_identity_keeps_fractions(self):
        link = IdentityLink()
        assert link.evaluate(Fraction(2, 7)) == Fraction(2, 7)
        assert link.inverse(Fraction(2, 7)) == Fraction(2, 7)
        assert not link.in_domain(0)
        with pytest.raises(ScoreOutOfDomainError):
            link.inverse(-1)

    @pytest.mark.parametrize("y", [-1, 0, 0.0, Fraction(-1, 3)], ids=repr)
    @pytest.mark.parametrize("link", [ExponentialLink(), IdentityLink(), PowerLink()],
                             ids=lambda link: link.kind)
    def test_inverse_refuses_a_point_outside_the_range(self, link, y):
        with pytest.raises(ScoreOutOfDomainError, match=r"is not in the range \(0, inf\)$"):
            link.inverse(y)

    def test_power(self):
        link = PowerLink(3.0)
        assert link.evaluate(2.0) == pytest.approx(8.0)
        assert link.inverse(8.0) == pytest.approx(2.0)
        assert not link.in_domain(-2.0)
        with pytest.raises(ValidationError):
            PowerLink(-1.0)

    @pytest.mark.parametrize("value", [math.inf, math.nan, Fraction(1, 10**400), 0.0],
                             ids=["inf", "nan", "fraction-1e-400", "0.0"])
    @pytest.mark.parametrize("link", [ExponentialLink, PowerLink], ids=lambda link: link.kind)
    def test_a_parameter_whose_float_is_not_positive_and_finite(self, link, value):
        with pytest.raises(ValidationError, match="> 0 as a finite float$"):
            link(value)

    def test_parameters_are_held_at_twelve_digits(self):
        link = ExponentialLink(0.1 + 0.2)
        assert link == ExponentialLink(0.3) and link.beta == 0.3
        assert pl.link_from_json_dict(json.loads(json.dumps(link.to_json_dict()))) == link
        assert PowerLink(2 / 3).k == 0.666666666667

    @pytest.mark.parametrize("value", [10**400, Fraction(10**400), Fraction(1, 10**400), 1e-320],
                             ids=["int-1e400", "fraction-1e400", "fraction-1e-400", "1e-320"])
    @pytest.mark.parametrize("link", [ExponentialLink(), IdentityLink(), PowerLink()],
                             ids=lambda link: link.kind)
    def test_past_the_float_range_only_the_domain_error(self, link, value):
        """Either direction returns a number whose float is finite, or
        raises ScoreOutOfDomainError, and nothing else."""
        for direction in (link.evaluate, link.inverse):
            try:
                result = direction(value)
            except ScoreOutOfDomainError:
                continue
            assert math.isfinite(float(result))

    @pytest.mark.parametrize("link", [ExponentialLink, PowerLink], ids=lambda link: link.kind)
    def test_every_inverse_evaluates(self, link):
        """A score ``inverse`` returns is one ``evaluate`` takes, right up
        to both ends of the float range, for parameters from 1e-321 to
        7.5e306: among them ExponentialLink(3.76214425152e-303), which
        would otherwise turn the largest double into a score whose value
        overflows."""
        ends = [5e-324, 1e-320, 2.2250738585072014e-308, 1e-300, 0.5, 1.0, 3.0, 1e300,
                1e308, 1.7976931348623157e308]
        for e in range(-321, 308, 3):
            for scale in (1.0, 3.76214425152, 7.5):
                g = link(scale * 10.0**e)
                for y in ends:
                    try:
                        x = g.inverse(y)
                    except ScoreOutOfDomainError:
                        continue
                    assert 0 < g.evaluate(x) < math.inf, (g, y)

    def test_json_round_trip(self):
        for link in (ExponentialLink(0.7), IdentityLink(), PowerLink(2.5)):
            again = pl.link_from_json_dict(link.to_json_dict())
            assert again == link
        with pytest.raises(SchemaError):
            pl.link_from_json_dict({"kind": "logistic"})
        with pytest.raises(SchemaError):
            pl.link_from_json_dict({"kind": "identity", "beta": 1.0})

    def test_catalogue_rejects_parameters_of_other_kinds(self):
        with pytest.raises(SchemaError, match="power link does not take: beta"):
            pl.link_from_json_dict({"kind": "power", "beta": 2.0})
        with pytest.raises(SchemaError, match="exponential link does not take: k"):
            pl.link_from_json_dict({"kind": "exponential", "k": 2.0})

    def test_parameters_are_literals_with_dataclass_defaults(self):
        assert pl.link_from_json_dict({"kind": "power", "k": "3/2"}) == PowerLink(1.5)
        assert pl.link_from_json_dict({"kind": "power", "k": 3}) == PowerLink(3.0)
        assert pl.link_from_json_dict({"kind": "exponential"}) == ExponentialLink()
        with pytest.raises(ValidationError, match="not a rational literal"):
            pl.link_from_json_dict({"kind": "exponential", "beta": "x"})
        with pytest.raises(ValidationError, match="too large for a float"):
            pl.link_from_json_dict({"kind": "exponential", "beta": 10**400})


class TestContextSoftmax:
    def test_probabilities_normalized(self, pentagon):
        rng = np.random.default_rng(5)
        scores = GlobalScores(
            {a: float(v) for a, v in zip(pentagon.atoms, rng.normal(size=10))}
        )
        family = pl.context_softmax(pentagon, scores, ExponentialLink(1.3))
        for name in pentagon.context_names:
            assert_allclose(sum(family.probabilities[name].values()), 1.0, rtol=1e-14)
            assert all(q > 0 for q in family.coordinates[name].values())

    def test_link_overflow_is_out_of_domain(self, pentagon):
        scores = GlobalScores({a: Fraction(1000) for a in pentagon.atoms})
        with pytest.raises(ScoreOutOfDomainError, match="positive finite"):
            pl.context_softmax(pentagon, scores, ExponentialLink())
        with pytest.raises(ScoreOutOfDomainError, match="positive finite"):
            pl.context_softmax(pentagon, GlobalScores({a: 1e200 for a in pentagon.atoms}),
                               PowerLink(2.0))

    def test_scores_must_be_objects(self):
        with pytest.raises(SchemaError, match="score 'values' must be a JSON object"):
            pl.scores_from_json_dict({"scope": "global", "values": [1]})
        with pytest.raises(SchemaError, match="score 'values' must be a JSON object"):
            pl.scores_from_json_dict({"scope": "per-context", "values": [1]})
        with pytest.raises(SchemaError, match="scores for context 'C1' must be"):
            pl.scores_from_json_dict({"scope": "per-context", "values": {"C1": [1]}})

    def test_unknown_scope(self):
        with pytest.raises(SchemaError, match="^unknown score scope 'local'$"):
            pl.scores_from_json_dict({"scope": "local", "values": {}})

    def test_exact_with_identity_and_fractions(self, triangle):
        scores = GlobalScores({a: Fraction(1, i + 2) for i, a in enumerate(triangle.atoms)})
        family = pl.context_softmax(triangle, scores, IdentityLink())
        assert family.is_exact()
        for name in triangle.context_names:
            assert sum(family.probabilities[name].values()) == 1

    @pytest.mark.parametrize("score", [lambda i: 1, lambda i: i + 1], ids=["equal", "distinct"])
    def test_int_scores_are_exact(self, pentagon, score):
        ints = {a: score(i) for i, a in enumerate(pentagon.atoms)}
        family = pl.context_softmax(pentagon, GlobalScores(ints), IdentityLink())
        reference = pl.context_softmax(
            pentagon, GlobalScores({a: Fraction(v) for a, v in ints.items()}), IdentityLink())
        assert family.is_exact()
        assert dumps(family) == dumps(reference)
        assert dumps(pl.gluing_check(family)) == dumps(pl.gluing_check(reference))

    @pytest.mark.parametrize("value", [Fraction(1, 10**400), Fraction(10**400), 10**400],
                             ids=["fraction-1e-400", "fraction-1e400", "int-1e400"])
    def test_identity_past_the_float_range_whatever_the_neighbours(self, pentagon, value):
        """An exact identity score is taken only where its float is
        positive and finite, as it is beside a float neighbour."""
        exact = dict.fromkeys(pentagon.atoms, Fraction(1, 3))
        message = f"the identity value of score {value!r} is not a positive finite float at atom 'a1'"
        for values in (exact, {**exact, "x1": 1 / 3}):
            with pytest.raises(ScoreOutOfDomainError) as err:
                pl.context_softmax(pentagon, GlobalScores({**values, "a1": value}), IdentityLink())
            assert str(err.value) == message

    def test_identity_names_the_first_atom_outside_the_contract(self, pentagon):
        """In context order, whatever the reason: C1 = (a1, a2, x1), and
        a2's float overflows before x1 is found outside the domain."""
        values = {**dict.fromkeys(pentagon.atoms, Fraction(1, 3)), "a2": Fraction(10**400),
                  "x1": Fraction(-1)}
        with pytest.raises(ScoreOutOfDomainError, match="not a positive finite float at atom 'a2'$"):
            pl.context_softmax(pentagon, GlobalScores(values), IdentityLink())
        values["a2"] = Fraction(1, 3)
        with pytest.raises(ScoreOutOfDomainError, match="outside the identity domain at atom 'x1'$"):
            pl.context_softmax(pentagon, GlobalScores(values), IdentityLink())

    def test_domain_violation(self, triangle):
        scores = GlobalScores({a: -1.0 for a in triangle.atoms})
        with pytest.raises(ScoreOutOfDomainError):
            pl.context_softmax(triangle, scores, PowerLink(2.0))

    def test_missing_and_foreign_scores(self, triangle):
        with pytest.raises(pl.MissingAtomValueError):
            pl.context_softmax(triangle, GlobalScores({"a1": 0.0}), ExponentialLink())
        per = PerContextScores({n: dict.fromkeys(triangle.context_atoms(n), 0.0)
                                for n in triangle.context_names})
        per.values["C1"]["zz"] = 1.0
        with pytest.raises(pl.UnknownAtomError):
            pl.context_softmax(triangle, per, ExponentialLink())

    def test_scores_json_round_trip(self, triangle):
        per = PerContextScores(
            {n: {a: 0.25 for a in triangle.context_atoms(n)} for n in triangle.context_names}
        )
        again = pl.scores_from_json_dict(per.to_json_dict())
        assert isinstance(again, PerContextScores)
        glob = pl.scores_from_json_dict(GlobalScores({"a1": Fraction(1, 2)}).to_json_dict())
        assert glob.values["a1"] == Fraction(1, 2)


class TestGluing:
    def test_represented_families_glue(self, pentagon, pentagon_states):
        rng = np.random.default_rng(12)
        for link in (ExponentialLink(1.0), PowerLink(2.0), IdentityLink()):
            w = pl.to_float(
                random_positive_weight(pentagon, pentagon_states, rng)
            )
            scores = pl.represent_weight(pentagon, w, link)
            family = pl.context_softmax(pentagon, scores, link)
            report = pl.gluing_check(family)
            assert report.glued
            assert report.max_discrepancy() <= 1e-12
            for _, dev in report.cycle_deviations:
                assert dev <= 1e-12

    def test_uniform_per_context_family_glues(self, pentagon):
        values = {
            "C1": {a: 0.0 for a in pentagon.context_atoms("C1")},
            "C2": {a: 1.0 for a in pentagon.context_atoms("C2")},
        }
        for name in ("C3", "C4", "C5"):
            values[name] = {a: 0.5 for a in pentagon.context_atoms(name)}
        family = pl.context_softmax(pentagon, PerContextScores(values), ExponentialLink(1.0))
        report = pl.gluing_check(family)
        assert report.glued
        assert report.max_discrepancy() <= 1e-15

    def test_patterned_family_fails_at_known_gap(self, pentagon):
        report = pl.gluing_check(patterned_family(pentagon))
        assert not report.glued
        assert_allclose(float(report.max_discrepancy()), NONGLUED_GAP, rtol=1e-13)
        assert_allclose(float(report.max_discrepancy()), 0.2427835514324958, atol=1e-12)
        assert max(report.atom_discrepancies, key=report.atom_discrepancies.get) == "a2"

    def test_exact_gluing_is_exact(self, pentagon):
        w = pl.path_weight(pentagon, Fraction(1, 3))
        scores = pl.represent_weight(pentagon, w, IdentityLink())
        family = pl.context_softmax(pentagon, scores, IdentityLink())
        report = pl.gluing_check(family)
        assert report.exact
        assert report.glued
        assert report.tolerance == 0
        assert all(v == 0 for v in report.atom_discrepancies.values())

    def test_pentagon_has_one_fundamental_cycle(self, pentagon):
        family = patterned_family(pentagon)
        report = pl.gluing_check(family)
        assert len(report.cycle_deviations) == 1
        cycle = report.cycle_deviations[0][0]
        assert cycle[0] == cycle[-1]
        assert set(cycle) == set(pentagon.context_names)

    def test_glue_to_weight_round_trip(self, pentagon):
        w = pl.path_weight(pentagon, Fraction(2, 5))
        scores = pl.represent_weight(pentagon, w, IdentityLink())
        family = pl.context_softmax(pentagon, scores, IdentityLink())
        glued = pl.glue_to_weight(family)
        assert glued.mode == "rational"
        assert glued.values == w.values

    def test_glue_to_weight_rejects_non_glued(self, pentagon):
        with pytest.raises(NotGluedError) as err:
            pl.glue_to_weight(patterned_family(pentagon))
        assert not err.value.report.glued

    def test_single_context_family(self):
        single = pl.build_event_structure(["a", "b", "c"], [["a", "b", "c"]])
        family = pl.context_softmax(
            single, GlobalScores({"a": 0.0, "b": 1.0, "c": -1.0}), ExponentialLink(1.0)
        )
        report = pl.gluing_check(family)
        assert report.glued
        assert report.atom_discrepancies == {}
        assert pl.glue_to_weight(family).mode == "float"


def cycle_basis(structure):
    """The fundamental cycles ``gluing_check`` reports for a structure."""
    family = pl.context_softmax(
        structure, GlobalScores({a: 0.0 for a in structure.atoms}), ExponentialLink(1.0)
    )
    return [cycle for cycle, _ in pl.gluing_check(family).cycle_deviations]


class TestCycleBasis:
    def test_grid_cycles_are_pinned(self):
        assert cycle_basis(grid_logic(3)) == [
            ("G1_0", "G0_0", "G0_1", "G1_1", "G1_0"),
            ("G1_1", "G0_1", "G0_2", "G1_2", "G1_1"),
            ("G2_0", "G1_0", "G0_0", "G0_1", "G1_1", "G2_1", "G2_0"),
            ("G2_1", "G1_1", "G0_1", "G0_2", "G1_2", "G2_2", "G2_1"),
        ]

    def test_pasting_cycles_are_pinned(self):
        assert cycle_basis(pentagon_pair()) == [
            ("C2", "C1", "D2", "C2"),
            ("C3", "C2", "C1", "C5", "C4", "C3"),
            ("C5", "C1", "D5", "C5"),
            ("D3", "D2", "C1", "D5", "D4", "D3"),
        ]

    def test_random_structures_get_a_cycle_basis(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            structure = random_structure(rng)
            sets = dict(zip(structure.context_names, structure.context_sets))
            edges = [
                (u, v) for i, u in enumerate(sets) for v in list(sets)[i + 1:]
                if sets[u] & sets[v]
            ]
            root = {name: name for name in sets}

            def find(name):
                while root[name] != name:
                    name = root[name]
                return name

            for u, v in edges:
                root[find(u)] = find(v)
            components = len({find(name) for name in sets})
            cycles = cycle_basis(structure)
            assert len(cycles) == len(edges) - len(sets) + components
            for cycle in cycles:
                assert cycle[0] == cycle[-1]
                assert len(set(cycle)) == len(cycle) - 1 >= 3
                assert all(sets[u] & sets[v] for u, v in zip(cycle, cycle[1:]))


class TestAtomDiscrepancies:
    @pytest.mark.parametrize("exact", [False, True])
    def test_matches_the_pairwise_maximum(self, exact):
        # The hub atom s sits in four contexts, the spokes in two each.
        star = pl.build_event_structure(
            ["s", "b1", "b2", "b3", "b4", "c"],
            [["s", "b1"], ["s", "b2", "c"], ["s", "b3"], ["s", "b4"], ["b1", "b2", "b3", "b4"]],
        )
        rng = np.random.default_rng(23)
        for _ in range(50):
            values = {
                name: {
                    a: Fraction(int(rng.integers(1, 50)), 7) if exact else float(rng.normal())
                    for a in ctx
                }
                for name, ctx in zip(star.context_names, star.contexts)
            }
            link = IdentityLink() if exact else ExponentialLink(1.0)
            family = pl.context_softmax(star, PerContextScores(values), link)
            expected = {}
            for atom, holders in pl.incidence(star).contexts_of.items():
                probs = [family.probabilities[name][atom] for name in holders]
                if len(probs) > 1:
                    expected[atom] = max(abs(u - v) for u in probs for v in probs)
            discrepancies = pl.gluing_check(family).atom_discrepancies
            assert discrepancies == expected
            assert all(type(d) is type(expected[a]) for a, d in discrepancies.items())


class TestIntegerGluing:
    """The integer softmax and the exact gluing branches give what the
    ``Fraction`` references give on per-context identity tables over
    seeded random structures: tables that glue (a positive weight times
    one random factor per context), the same with one coordinate
    bumped, and random tables."""

    def test_matches_the_fraction_reference(self):
        rng = np.random.default_rng(37)
        verdicts = []
        for _ in range(200):
            structure = random_structure(rng)
            contexts = list(zip(structure.context_names, structure.contexts))
            tables = [({
                name: {a: Fraction(int(rng.integers(1, 20)), int(rng.integers(1, 9))) for a in ctx}
                for name, ctx in contexts
            }, False)]
            space = structure.state_space
            if 0 < space.count <= 64:
                weight = {a: 0 for a in structure.atoms}
                for i in range(space.count):
                    for a in space[i].ones:
                        weight[a] += 1
                if all(weight.values()):
                    factor = {name: Fraction(int(rng.integers(1, 9)), 7) for name, _ in contexts}
                    glued = {name: {a: factor[name] * weight[a] for a in ctx} for name, ctx in contexts}
                    name, ctx = contexts[int(rng.integers(len(contexts)))]
                    bumped = {**glued, name: {**glued[name], ctx[0]: glued[name][ctx[0]] * 2}}
                    tables += [(glued, True), (bumped, False)]
            for table, glues in tables:
                family = pl.context_softmax(structure, PerContextScores(table), IdentityLink())
                for name, q in family.coordinates.items():  # the Fraction quotients
                    z = sum(q.values())
                    assert family.normalizers[name] == z
                    assert family.probabilities[name] == {a: v / z for a, v in q.items()}
                report = pl.gluing_check(family)
                assert dumps(report.to_json_dict()) == dumps(
                    reference_gluing_check(family).to_json_dict())
                assert report.glued or not glues
                verdicts.append((glues, report.glued))
        assert verdicts.count((True, True)) > 20
        assert verdicts.count((False, False)) > 150

    def test_the_report_is_computed_once_per_tol(self, pentagon):
        family = patterned_family(pentagon)
        report = pl.gluing_check(family)
        assert pl.gluing_check(family) is report
        with pytest.raises(NotGluedError) as err:
            pl.glue_to_weight(family)
        assert err.value.report is report
        loose = pl.gluing_check(family, tol=2.0)
        assert loose is not report and loose.glued
        assert pl.gluing_check(family, tol=2.0) is loose


def pair_logic():
    """Contexts C1 = {a, b, c} and C2 = {a, b, d}, sharing a and b."""
    return pl.build_event_structure(
        ["a", "b", "c", "d"], [["a", "b", "c"], ["a", "b", "d"]], ["C1", "C2"]
    )


def glued_scores():
    """(structure, link, global scores whose softmax glues) on three
    structures, under the exponential link at three betas."""
    for beta in (0.5, 1.0, 2.0):
        link = ExponentialLink(beta)
        yield pair_logic(), link, {"a": 0.3, "b": -1.1, "c": 0.7, "d": 0.7}
        for structure in (pentagon_pair(), grid_logic(3)):
            weight = pl.to_float(seeded_positive_weight(structure, 3))
            yield structure, link, pl.represent_weight(structure, weight, link).values


def per_context_family(structure, link, tables):
    return pl.context_softmax(structure, PerContextScores(tables), link)


class TestOneVerdict:
    """A family glues when its shared atoms agree; the two ratio views,
    whose size follows each context's normaliser, do not decide."""

    @pytest.mark.parametrize("bump", [0.0, 0.5], ids=["glued", "not-glued"])
    def test_a_context_shift_keeps_the_verdict(self, bump):
        # Adding s to one context's scores multiplies its coordinates and
        # its normaliser by exp(beta * s): no probability moves.
        for structure, link, scores in glued_scores():
            inc = pl.incidence(structure)
            atom, holders = next((a, h) for a, h in inc.contexts_of.items() if len(h) > 1)
            tables = {name: {a: scores[a] for a in ctx}
                      for name, ctx in zip(structure.context_names, structure.contexts)}
            tables[holders[0]][atom] += bump
            base = pl.gluing_check(per_context_family(structure, link, tables))
            assert base.glued == (bump == 0)
            for name in structure.context_names:
                for s in (5, -5, 30, -30, 60, -60, 300, -300):
                    shifted = {**tables, name: {a: u + s for a, u in tables[name].items()}}
                    report = pl.gluing_check(per_context_family(structure, link, shifted))
                    assert report.glued == base.glued, (structure.context_names, name, s)
                    assert list(report.atom_discrepancies) == list(base.atom_discrepancies)
                    assert_allclose(list(report.atom_discrepancies.values()),
                                    list(base.atom_discrepancies.values()), rtol=0, atol=1e-12)

    def test_a_ratio_past_the_float_range_does_not_decide(self):
        fork = pl.build_event_structure(["a", "b", "c"], [["a", "b"], ["a", "c"]], ["C1", "C2"])
        tables = {"C1": {"a": 400, "b": 400}, "C2": {"a": -400, "c": -400}}
        family = per_context_family(fork, ExponentialLink(1.0), tables)
        report = pl.gluing_check(family)
        assert report.glued and report.atom_discrepancies == {"a": 0.0}
        assert report.pair_ratio_spreads == {("C1", "C2"): 0.0}  # one ratio cannot spread
        assert pl.glue_to_weight(family).values == dict.fromkeys("abc", 0.5)

    def test_a_cycle_product_past_the_float_range_does_not_decide(self, triangle):
        # Every context is uniform, but the cycle's ratio product leaves
        # the float range (it underflows to 0, so its deviation reads 1).
        tables = {name: dict.fromkeys(ctx, u) for (name, ctx), u
                  in zip(zip(triangle.context_names, triangle.contexts), (700, -700, 0))}
        report = pl.gluing_check(per_context_family(triangle, ExponentialLink(1.0), tables))
        assert report.glued and report.max_discrepancy() <= 1e-15
        assert [v for _, v in report.cycle_deviations] == [1.0]

    @PROPERTY
    @given(st.integers(0, 2**32 - 1), st.booleans(), st.booleans())
    def test_an_exact_family_glues_when_every_view_is_zero(self, seed, states, bump):
        # Coordinates factor[C] * v[a]: the ratio views are 0 unless a
        # coordinate is bumped, and the atoms agree only where the context
        # sums of v do, as they all do when v[a] counts the two-valued
        # states holding a and no count is 0.
        rng = np.random.default_rng(seed)
        structure = random_structure(rng)
        contexts = list(zip(structure.context_names, structure.contexts))
        v = {a: int(rng.integers(1, 4)) for a in structure.atoms}
        space = structure.state_space
        if states and len(space) <= 64:
            v = {a: sum(a in state.ones for state in space) or 1 for a in structure.atoms}
        factor = {name: Fraction(int(rng.integers(1, 4)), int(rng.integers(1, 4)))
                  for name, _ in contexts}
        tables = {name: {a: factor[name] * v[a] for a in ctx} for name, ctx in contexts}
        if bump:
            name, ctx = contexts[int(rng.integers(len(contexts)))]
            tables[name][ctx[0]] *= 2
        family = per_context_family(structure, IdentityLink(), tables)
        probs, coords, inc = family.probabilities, family.coordinates, pl.incidence(structure)
        atoms_agree = all(len({probs[name][a] for name in holders}) == 1
                          for a, holders in inc.contexts_of.items())
        pairs_agree = all(len({coords[c][a] / coords[d][a] for a in shared}) == 1
                          for (c, d), shared in inc.shared_atoms.items())
        cycles_close = all(
            math.prod(coords[c][inc.shared(c, d)[0]] / coords[d][inc.shared(c, d)[0]]
                      for c, d in zip(cycle, cycle[1:])) == 1
            for cycle in structure.fundamental_cycles
        )
        assert pl.gluing_check(family).glued == (atoms_agree and pairs_agree and cycles_close)
        assert pairs_agree and cycles_close or not atoms_agree

    def test_pair_keys_escape_the_separator(self):
        # Unescaped, the pairs (a|b, c) and (a, b|c) would share the key a|b|c.
        names = ["a|b", "c", "a", "b|c", "d\\", "|e"]
        structure = pl.build_event_structure(
            [f"t{i}" for i in range(9)],
            [["t0", "t1"], ["t1", "t2"], ["t3", "t4"], ["t4", "t5"], ["t6", "t7"], ["t7", "t8"]],
            names,
        )
        family = pl.context_softmax(structure, GlobalScores(dict.fromkeys(structure.atoms, 1)),
                                    IdentityLink())
        report = pl.gluing_check(family)
        assert len(report.pair_ratio_spreads) == 3
        assert report.to_json_dict()["pair_ratio_spreads"] == {
            r"a\|b|c": "0", r"a|b\|c": "0", "d\\\\|\\|e": "0",
        }


class TestRepresentation:
    def test_identity_rational_exact_round_trip(self, pentagon):
        w = pl.path_weight(pentagon, Fraction(1, 3))
        scores = pl.represent_weight(pentagon, w, IdentityLink())
        assert scores.values["a1"] == Fraction(3, 14)
        assert scores.values["x1"] == Fraction(1, 14)
        family = pl.context_softmax(pentagon, scores, IdentityLink())
        assert pl.glue_to_weight(family).values == w.values
        assert all(z == Fraction(1, 2) for z in family.normalizers.values())

    def test_float_round_trip_all_links(self, pentagon):
        w = pl.to_float(pl.path_weight(pentagon, Fraction(3, 10)))
        for link in (ExponentialLink(0.8), IdentityLink(), PowerLink(2.0)):
            scores = pl.represent_weight(pentagon, w, link)
            family = pl.context_softmax(pentagon, scores, link)
            for name in pentagon.context_names:
                for a in pentagon.context_atoms(name):
                    assert_allclose(
                        float(family.probabilities[name][a]), float(w[a]), atol=1e-12
                    )

    def test_zero_atoms_rejected_with_pointer(self, pentagon):
        with pytest.raises(NotStrictlyPositiveError) as err:
            pl.represent_weight(pentagon, pl.half_weight(pentagon), IdentityLink())
        assert set(err.value.zero_atoms) == {f"x{i}" for i in range(1, 6)}
        assert "boundary_path" in str(err.value)

    def test_alpha_validation(self, pentagon):
        w = pl.path_weight(pentagon, Fraction(1))
        for alpha in (Fraction(-1), Fraction(0), "big"):
            with pytest.raises(AlphaOutOfRangeError):
                pl.represent_weight(pentagon, w, IdentityLink(), alpha=alpha)
        big = pl.represent_weight(pentagon, w, IdentityLink(), alpha=Fraction(4))
        assert big.values["a1"] == Fraction(4, 3)

    def test_explicit_alpha(self, pentagon):
        w = pl.path_weight(pentagon, Fraction(1))
        scores = pl.represent_weight(pentagon, w, IdentityLink(), alpha=Fraction(3, 4))
        assert scores.values["a1"] == Fraction(1, 4)

    @pytest.mark.parametrize("r,link,alpha,reason", [
        *(pytest.param(1.0, link, Fraction(1, 10**400), "falls outside the link range",
                       id=link.kind)
          for link in (ExponentialLink(), IdentityLink(), PowerLink(3))),
        pytest.param(1, PowerLink(3), Fraction(1, 10**1000), "has no power score",
                     id="power-cube-root-below-the-smallest-double"),
        pytest.param(1, PowerLink(0.5), Fraction(1, 10**200), "has no power score",
                     id="power-square-underflows"),
        pytest.param(1, IdentityLink(), math.inf, "falls outside the link range",
                     id="identity-infinite-alpha"),
        pytest.param(1, IdentityLink(), Fraction(1, 10**400), "has no identity score",
                     id="identity-exact-below-the-smallest-double"),
    ])
    def test_alpha_p_outside_the_range_lists_every_atom(self, pentagon, r, link, alpha, reason):
        """alpha * p of a float weight underflows to 0.0 on every atom,
        and an infinite alpha makes it inf; on the exact weight every
        alpha * p is in the range, but its inverse under the power link
        has no float above 0, and under the identity it is its own float,
        0."""
        weight = pl.path_weight(pentagon, r)
        with pytest.raises(AlphaOutOfRangeError) as err:
            pl.represent_weight(pentagon, weight, link, alpha=alpha)
        assert str(err.value) == f"alpha * p {reason} for: " + ", ".join(pentagon.atoms)

    def test_not_admissible_rejected(self, pentagon):
        bad = pl.make_weight(pentagon, {a: Fraction(1, 2) for a in pentagon.atoms})
        with pytest.raises(pl.NotAdmissibleError):
            pl.represent_weight(pentagon, bad, IdentityLink())


LINKS = (IdentityLink(), ExponentialLink(0.5), PowerLink(3))

POSITIVE = {
    "int": st.integers(1, 40),
    "fraction": st.builds(Fraction, st.integers(1, 60), st.integers(1, 50)),
    "float": st.floats(1e-3, 3.0),
}
POSITIVE["mixed"] = st.one_of(*POSITIVE.values())
NOT_POSITIVE = st.sampled_from([0, Fraction(0), -1, Fraction(-1, 3), 0.0, -0.5])
PAST_THE_FLOATS = st.sampled_from([Fraction(1, 10**400), Fraction(10**400)])

ALPHAS = st.sampled_from([
    None, 1, Fraction(3, 4), Fraction(1, 7), Fraction(5), 0.25,
    Fraction(1, 10**400), Fraction(10**400), 0, Fraction(-1, 2),
])


def outcome(call, *args, **kwargs):
    """What a call gives: its bytes and its exact values (the repr of
    every Fraction and float), or the type and message of its error."""
    try:
        result = call(*args, **kwargs)
    except Exception as exc:
        return type(exc), str(exc)
    if isinstance(result, GlobalScores):
        exact = repr(result.values)
    else:
        exact = repr((result.probabilities, result.coordinates, result.normalizers))
    return dumps(result.to_json_dict()), exact


@st.composite
def score_assignments(draw):
    """A seeded random structure and scores of one kind on it, global or
    per context, sometimes with one or two scores 0 or negative, or exact
    with a float of 0 or past the float range."""
    structure = random_structure(np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    numbers = POSITIVE[draw(st.sampled_from(sorted(POSITIVE)))]
    if draw(st.booleans()):
        scores = GlobalScores({a: draw(numbers) for a in structure.atoms})
        cells = [(None, a) for a in structure.atoms]
    else:
        scores = PerContextScores({
            name: {a: draw(numbers) for a in ctx}
            for name, ctx in zip(structure.context_names, structure.contexts)
        })
        cells = [(name, a) for name, table in scores.values.items() for a in table]
    for name, a in draw(st.lists(st.sampled_from(cells), max_size=2)):
        table = scores.values if name is None else scores.values[name]
        table[a] = draw(st.one_of(NOT_POSITIVE, PAST_THE_FLOATS))
    return structure, scores


@st.composite
def weights(draw):
    """A structure and an admissible weight on it, rational or rounded to
    floats: a random positive mix of its first 64 two-valued states, or
    one time in four of a few of them, so that atoms in none of them are
    0.  A structure with no states gets 1/2 everywhere, which no context
    of two or more atoms admits.  Cycles, small grids and the pentagon
    pair come up as often as seeded random structures, whose atoms are
    often in no state."""
    structure = draw(st.one_of(
        st.builds(random_structure, st.integers(0, 2**32 - 1).map(np.random.default_rng)),
        st.builds(pl.cycle_logic, st.integers(3, 12)),
        st.builds(grid_logic, st.integers(2, 3)),
        st.just(pentagon_pair()),
    ))
    space = structure.state_space
    if space.count:
        picks = list(range(min(space.count, 64))) if draw(st.integers(0, 3)) else draw(
            st.lists(st.integers(0, space.count - 1), min_size=1, max_size=6))
        coeffs = [draw(st.integers(1, 9)) for _ in picks]
        values = dict.fromkeys(structure.atoms, Fraction(0))
        for i, c in zip(picks, coeffs):
            for a in space[i].ones:
                values[a] += Fraction(c, sum(coeffs))
    else:
        values = dict.fromkeys(structure.atoms, Fraction(1, 2))
    weight = pl.make_weight(structure, values)
    return structure, pl.to_float(weight) if draw(st.booleans()) else weight


class TestPerAtomReference:
    """The softmax round trip read off cleared numerators gives what the
    per-atom references give: the same bytes and the same exact values,
    or the same error and message."""

    @PROPERTY
    @given(score_assignments())
    def test_context_softmax(self, case):
        structure, scores = case
        for link in LINKS:
            assert outcome(pl.context_softmax, structure, scores, link) == outcome(
                reference_context_softmax, structure, scores, link)

    @PROPERTY
    @given(weights(), ALPHAS)
    def test_represent_weight(self, case, alpha):
        structure, weight = case
        for link in LINKS:
            assert outcome(pl.represent_weight, structure, weight, link, alpha) == outcome(
                reference_represent_weight, structure, weight, link, alpha)

    @pytest.mark.parametrize("structure", [pl.cycle_logic(41), grid_logic(8)], ids=["C41", "G8"])
    @pytest.mark.parametrize("float_weight", [False, True], ids=["rational", "float"])
    def test_round_trip_on_the_pinned_structures(self, structure, float_weight):
        """The ``scores_*`` pins render 12 digits; here every score,
        probability and normaliser of the round trip on those weights is
        compared by its exact repr."""
        weight = seeded_positive_weight(structure, 15)
        if float_weight:
            weight = pl.to_float(weight)
        for link in LINKS:
            got = outcome(pl.represent_weight, structure, weight, link)
            assert got == outcome(reference_represent_weight, structure, weight, link)
            scores = pl.represent_weight(structure, weight, link)
            assert outcome(pl.context_softmax, structure, scores, link) == outcome(
                reference_context_softmax, structure, scores, link)

    def test_exponential_scores_below_the_smallest_double(self, pentagon):
        """alpha * p = 1/(3 * 10**400) is in the range, but its float is
        0: it has no score, since g of any score near its log (about
        -922) underflows to 0 and ``context_softmax`` would refuse it."""
        weight = pl.path_weight(pentagon, 1)
        alpha = Fraction(1, 10**400)
        with pytest.raises(AlphaOutOfRangeError) as err:
            pl.represent_weight(pentagon, weight, ExponentialLink(), alpha=alpha)
        assert str(err.value) == "alpha * p has no exponential score for: " + ", ".join(
            pentagon.atoms)
        with pytest.raises(ScoreOutOfDomainError, match="has no score in the exponential domain"):
            ExponentialLink(2.0).inverse(alpha)

    def test_power_scores_below_the_smallest_double(self, pentagon):
        """Under the cube root the same alpha * p would score about
        3.2e-134, whose cube underflows to 0: refused on every atom."""
        weight = pl.path_weight(pentagon, 1)
        with pytest.raises(AlphaOutOfRangeError) as err:
            pl.represent_weight(pentagon, weight, PowerLink(3), alpha=Fraction(1, 10**400))
        assert str(err.value) == "alpha * p has no power score for: " + ", ".join(pentagon.atoms)

    def test_round_trip_over_the_float_range(self):
        """On C5 at alpha = 10**e, e = -420, -413, ..., 413, under five
        links and on an exact and a float weight, a representation either
        glues back to the weight or is an AlphaOutOfRangeError: no score
        it returns is one ``context_softmax`` refuses.  Each link glues
        the same alphas back on both weights."""
        structure = pl.cycle_logic(5)
        exact = pl.path_weight(structure, Fraction(1, 3))
        links = (ExponentialLink(), ExponentialLink(0.01), PowerLink(3), PowerLink(0.5),
                 IdentityLink())
        glued = {}
        for weight in (exact, pl.to_float(exact)):
            for link in links:
                for e in range(-420, 420, 7):
                    try:
                        scores = pl.represent_weight(structure, weight, link, Fraction(10) ** e)
                    except AlphaOutOfRangeError:
                        continue
                    back = pl.glue_to_weight(pl.context_softmax(structure, scores, link))
                    assert all(abs(back[a] - exact[a]) <= 1e-8 for a in structure.atoms)
                    glued.setdefault((weight.mode, link), []).append(e)
        assert sum(map(len, glued.values())) == 818
        assert all(glued[RATIONAL, link] == glued[FLOAT, link] for link in links)

    def test_an_alpha_past_the_float_range_on_a_float_weight(self, pentagon):
        weight = pl.to_float(pl.path_weight(pentagon, 1))
        with pytest.raises(AlphaOutOfRangeError, match="overflows the float range"):
            pl.represent_weight(pentagon, weight, IdentityLink(), alpha=Fraction(10**400))

    def test_an_alpha_past_the_float_range_on_an_exact_weight(self, pentagon):
        """The identity keeps alpha * p exact only where its float is finite."""
        weight = pl.path_weight(pentagon, 1)
        with pytest.raises(AlphaOutOfRangeError, match="overflows the float range"):
            pl.represent_weight(pentagon, weight, IdentityLink(), alpha=Fraction(10**400))


class TestGauge:
    def test_probabilities_invariant(self, pentagon):
        rng = np.random.default_rng(7)
        link = ExponentialLink(1.3)
        component = frozenset(pentagon.atoms)
        scores = GlobalScores(
            {a: float(v) for a, v in zip(pentagon.atoms, rng.normal(size=10))}
        )
        before = pl.context_softmax(pentagon, scores, link)
        shifted = pl.gauge_shift(pentagon, scores, 0.7, component, link)
        after = pl.context_softmax(pentagon, shifted, link)
        for name in pentagon.context_names:
            for a in pentagon.context_atoms(name):
                assert_allclose(
                    after.probabilities[name][a],
                    before.probabilities[name][a],
                    atol=1e-15,
                )
                assert_allclose(
                    after.coordinates[name][a] / before.coordinates[name][a],
                    math.exp(1.3 * 0.7),
                    rtol=1e-14,
                )

    def test_only_exponential(self, pentagon):
        scores = GlobalScores({a: 0.5 for a in pentagon.atoms})
        with pytest.raises(ValidationError, match="exponential"):
            pl.gauge_shift(pentagon, scores, 1.0, frozenset(pentagon.atoms), IdentityLink())

    def test_component_checked(self, pentagon):
        scores = GlobalScores({a: 0.5 for a in pentagon.atoms})
        with pytest.raises(NotAComponentError):
            pl.gauge_shift(
                pentagon, scores, 1.0, frozenset({"a1", "a2"}), ExponentialLink(1.0)
            )

    def test_only_global_scores(self, pentagon):
        scores = PerContextScores({n: dict.fromkeys(pentagon.context_atoms(n), 0.5)
                                   for n in pentagon.context_names})
        with pytest.raises(ValidationError, match="^gauge shifts apply to global scores only$"):
            pl.gauge_shift(pentagon, scores, 1.0, frozenset(pentagon.atoms), ExponentialLink(1.0))

    def test_scores_name_exactly_the_atoms(self, pentagon):
        scores = GlobalScores({**dict.fromkeys(pentagon.atoms, 0.5), "zz": 0.5})
        with pytest.raises(UnknownAtomError, match="^unknown atoms in the global scores: zz$"):
            pl.gauge_shift(pentagon, scores, 1.0, frozenset(pentagon.atoms), ExponentialLink(1.0))
        scores = GlobalScores(dict.fromkeys(pentagon.atoms[1:], 0.5))
        with pytest.raises(MissingAtomValueError, match="^missing atoms in the global scores: a1$"):
            pl.gauge_shift(pentagon, scores, 1.0, frozenset(pentagon.atoms), ExponentialLink(1.0))

    @pytest.mark.parametrize("shift", [math.nan, math.inf, -math.inf, "1", None, True])
    def test_the_shift_is_a_finite_number(self, pentagon, shift):
        scores = GlobalScores(dict.fromkeys(pentagon.atoms, 0.5))
        with pytest.raises(ValidationError, match="^the shift must be a finite number, got "):
            pl.gauge_shift(pentagon, scores, shift, frozenset(pentagon.atoms), ExponentialLink(1.0))

    def test_shifts_one_component_of_a_disjoint_union(self, triangle):
        atoms = list(triangle.atoms) + [f"{a}b" for a in triangle.atoms]
        contexts = [list(c) for c in triangle.contexts] + [
            [f"{a}b" for a in c] for c in triangle.contexts
        ]
        double = pl.build_event_structure(atoms, contexts)
        scores = GlobalScores({a: 0.1 for a in double.atoms})
        first = pl.connected_components(double)[0]
        shifted = pl.gauge_shift(double, scores, 2.0, first, ExponentialLink(1.0))
        assert shifted.values["a1"] == pytest.approx(2.1)
        assert shifted.values["a1b"] == pytest.approx(0.1)


class TestBoundaryPath:
    def test_gaps_follow_closed_form(self, pentagon):
        rs = [Fraction(1), Fraction(1, 10), Fraction(1, 100)]
        out = pl.boundary_path(pentagon, ExponentialLink(1.0), rs)
        gaps = [gap for _, gap in out]
        assert_allclose(gaps, [1 / 6, 1 / 42, 1 / 402], rtol=1e-14)
        assert gaps == sorted(gaps, reverse=True)
        for (w, _), r in zip(out, rs):
            assert w.values == pl.path_weight(pentagon, r).values

    def test_custom_target(self, pentagon):
        uniform = pl.path_weight(pentagon, Fraction(1))
        out = pl.boundary_path(
            pentagon, IdentityLink(), [Fraction(2), Fraction(1)], target=uniform
        )
        assert out[1][1] == 0.0
        assert_allclose(out[0][1], 1 / 3 - 1 / 4, rtol=1e-14)

    def test_validation(self, pentagon):
        link = ExponentialLink(1.0)
        with pytest.raises(ValidationError, match="at least one"):
            pl.boundary_path(pentagon, link, [])
        with pytest.raises(pl.NegativePathParameterError):
            pl.boundary_path(pentagon, link, [Fraction(1), Fraction(0)])
        with pytest.raises(ValidationError, match="decreasing"):
            pl.boundary_path(pentagon, link, [Fraction(1), Fraction(1)])


class TestMaxent:
    def test_binary_ln2(self):
        beta, dist = pl.maxent_softmax({"lose": 0.0, "win": 1.0}, 2.0 / 3.0)
        assert abs(beta - math.log(2.0)) < 1e-9
        assert_allclose([dist["lose"], dist["win"]], [1 / 3, 2 / 3], atol=1e-9)

    def test_mean_matches_target(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            u = {f"o{i}": float(v) for i, v in enumerate(rng.normal(size=5))}
            lo, hi = min(u.values()), max(u.values())
            target = lo + (hi - lo) * float(rng.uniform(0.1, 0.9))
            beta, dist = pl.maxent_softmax(u, target)
            mean = sum(u[n] * p for n, p in dist.items())
            assert abs(mean - target) <= 1e-9
            assert_allclose(sum(dist.values()), 1.0, rtol=1e-12)

    def test_entropy_maximality(self):
        scores = {"w": 0.0, "x": 0.3, "y": 1.2, "z": 2.0}
        target = 1.0
        beta, dist = pl.maxent_softmax(scores, target)
        names = list(scores)
        p = np.array([dist[n] for n in names])
        u = np.array([scores[n] for n in names])
        base = np.vstack([np.ones(4), u])
        null = np.linalg.svd(base)[2][2:]
        entropy = lambda q: -np.sum(q * np.log(q))
        rng = np.random.default_rng(9)
        for _ in range(100):
            d = null.T @ rng.normal(size=2)
            step = 0.9 * float(rng.uniform(0, 1)) * np.min(p) / (np.max(np.abs(d)) + 1e-300)
            q = p + step * d
            assert np.all(q > 0)
            assert abs(q @ u - target) < 1e-9
            assert entropy(q) <= entropy(p) + 1e-12

    def test_degenerate_scores(self):
        with pytest.raises(DegenerateScoresError):
            pl.maxent_softmax({"a": 1.0, "b": 1.0}, 1.0)

    def test_target_out_of_range(self):
        with pytest.raises(TargetOutOfRangeError):
            pl.maxent_softmax({"a": 0.0, "b": 1.0}, 1.0)
        with pytest.raises(TargetOutOfRangeError):
            pl.maxent_softmax({"a": 0.0, "b": 1.0}, -0.2)
        # In range, but the bisection ends at the mean 0.0.
        with pytest.raises(TargetOutOfRangeError, match="mean 0.0, more than 1e-09 off target"):
            pl.maxent_softmax({"a": 1e200, "b": 0.0}, 1.0)


    @pytest.mark.parametrize("score,reason", [
        ("x", "is not numeric"), (True, "is not numeric"), (math.nan, "is not finite"),
        (math.inf, "is not finite"), (-math.inf, "is not finite"),
    ])
    def test_a_score_is_a_finite_number(self, score, reason):
        with pytest.raises(ValidationError, match=f"^value for 'b' {reason}: "):
            pl.maxent_softmax({"a": 0.0, "b": score, "c": 1.0}, 0.5)

    @pytest.mark.parametrize("target", ["x", None, True, math.nan, math.inf, -math.inf])
    def test_the_target_is_a_finite_number(self, target):
        with pytest.raises(ValidationError, match="^target mean must be a finite number, got "):
            pl.maxent_softmax({"a": 0.0, "b": 1.0}, target)

    @pytest.mark.parametrize("scores", [[0.0, 1.0], "ab", None, 5], ids=repr)
    def test_the_scores_are_a_mapping(self, scores):
        with pytest.raises(ValidationError, match="^scores must be a mapping, got "):
            pl.maxent_softmax(scores, 0.5)


    @pytest.mark.parametrize("target", [1e-301, 9e-301], ids=["below", "above"])
    def test_no_bracket(self, target):
        # The mean at beta = 0 is 5e-301; a bracket on either side needs |beta| > 2**40.
        with pytest.raises(TargetOutOfRangeError, match="^no bracket below 2\\*\\*40"):
            pl.maxent_softmax({"a": 0.0, "b": 1e-300}, target)


class TestMultiplicativeLink:
    def test_exponential_passes(self):
        rng = np.random.default_rng(3)
        pairs = [tuple(p) for p in rng.uniform(-3, 3, size=(100, 2))]
        report = pl.check_multiplicative_link(ExponentialLink(0.7), pairs)
        assert report.multiplicative
        assert report.max_residual() <= 1e-12

    def test_identity_counterexample(self):
        report = pl.check_multiplicative_link(IdentityLink(), [(1.0, 1.0)])
        assert not report.multiplicative
        assert_allclose(report.max_residual(), 1.0, rtol=1e-15)

    def test_power_counterexample(self):
        report = pl.check_multiplicative_link(PowerLink(2.0), [(1.0, 2.0)])
        assert not report.multiplicative
        assert_allclose(report.max_residual(), 1.25, rtol=1e-15)

    def test_domain_enforced(self):
        with pytest.raises(ScoreOutOfDomainError):
            pl.check_multiplicative_link(PowerLink(2.0), [(-1.0, 2.0)])

    @pytest.mark.parametrize("link, pair", [
        (ExponentialLink(), (400.0, 400.0)),  # g(u) overflows
        (PowerLink(2.0), (1e200, 1.0)),  # g(u) overflows
        (ExponentialLink(), (-400.0, -400.0)),  # g(u)*g(v) underflows to 0
        (PowerLink(2.0), (1e100, 1e100)),  # g(u)*g(v) is inf, the residual would be nan
    ])
    def test_float_range_refused(self, link, pair):
        message = f"is not a positive finite float at the pair {pair!r}"
        with pytest.raises(ScoreOutOfDomainError, match=f"{re.escape(message)}$"):
            pl.check_multiplicative_link(link, [(1.0, 1.0), pair])

    def test_report_json(self):
        report = pl.check_multiplicative_link(PowerLink(2.0), [(1.0, 2.0)], tol=1e-9)
        assert report.to_json_dict() == {
            "link": {"kind": "power", "k": 2.0},
            "tolerance": 1e-09,
            "residuals": [{"u": 1.0, "v": 2.0, "residual": 1.25}],
            "multiplicative": False,
        }
