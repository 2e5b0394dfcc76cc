"""Report bytes and the rendering policy in ``numeric``.

Each file under ``tests/data/reports`` holds ``dumps(report.to_json_dict())``
as the hand-written renderers produced it before reports rendered from
their fields; regenerate one only on purpose.  Swapping two fields of a
report class changes its key order, so it fails here.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from random import Random

import numpy as np
import pytest

import pastedlogic as pl
from helpers import (
    grid_logic, pentagon_pair, random_positive_weight, random_structure, seeded_positive_weight,
)
from pastedlogic.numeric import dumps, fields_to_json, render

DATA = Path(__file__).parent / "data"
PINS = DATA / "reports"


def _family_exact():
    pentagon = pl.cycle_logic(5)
    scores = {
        name: {a: Fraction(k + 1, 3 + i) for k, a in enumerate(ctx)}
        for i, (name, ctx) in enumerate(zip(pentagon.context_names, pentagon.contexts))
    }
    return pl.context_softmax(pentagon, pl.PerContextScores(scores), pl.IdentityLink())


def _family_float():
    pentagon = pl.cycle_logic(5)
    scores = {a: 0.1 * (i + 1) for i, a in enumerate(pentagon.atoms)}
    return pl.context_softmax(pentagon, pl.GlobalScores(scores), pl.ExponentialLink(0.7))


def _uniform(structure, value):
    return pl.make_weight(structure, {a: value for a in structure.atoms})


def _ceg18():
    """The Cabello-Estebaranz-Garcia-Alcaine set: 18 vectors of R^4 in 9
    bases, each vector in two of them, so no two-valued state exists."""
    return pl.structure_from_json((DATA / "ceg18.json").read_text(encoding="utf-8"))


def _grid_mixture(k):
    """The uniform mix of six states drawn by ``Random(1)`` from the k x k
    grid's state space: thousands of degenerate Bland pivots."""
    structure = grid_logic(k)
    space = structure.state_space
    values = {a: Fraction(0) for a in structure.atoms}
    for i in Random(1).sample(range(space.count), 6):
        for a in space[i].ones:
            values[a] += Fraction(1, 6)
    return structure, pl.make_weight(structure, values)


def _glued_c11():
    """The identity representation of a seeded positive weight on C11."""
    structure = pl.cycle_logic(11)
    weight = random_positive_weight(structure, structure.state_space, np.random.default_rng(11))
    link = pl.IdentityLink()
    return pl.gluing_check(
        pl.context_softmax(structure, pl.represent_weight(structure, weight, link), link))


def _grid_table(exact):
    """Per-context scores on the 3 x 3 grid that would glue (1/5 on every
    edge atom, the rest of a context on its private atom), with one
    score bumped in the middle context."""
    structure = grid_logic(3)
    values = {}
    for ctx in structure.contexts:
        values.update({a: Fraction(1, 5) for a in ctx[:-1]})
        values[ctx[-1]] = 1 - Fraction(len(ctx) - 1, 5)
    table = {
        name: {a: values[a] if exact else math.log(values[a]) for a in ctx}
        for name, ctx in zip(structure.context_names, structure.contexts)
    }
    atom = structure.context_atoms("G1_1")[0]
    table["G1_1"][atom] = values[atom] * Fraction(3, 2) if exact else table["G1_1"][atom] + 0.1
    link = pl.IdentityLink() if exact else pl.ExponentialLink(1.0)
    return pl.gluing_check(pl.context_softmax(structure, pl.PerContextScores(table), link))


def _random_overlap():
    """Seeded exact scores on a random structure in which two context
    pairs share two atoms each, so their ratio spreads are nonzero."""
    rng = np.random.default_rng(12)
    structure = random_structure(rng)
    table = {
        name: {a: Fraction(int(rng.integers(1, 20)), int(rng.integers(1, 9))) for a in ctx}
        for name, ctx in zip(structure.context_names, structure.contexts)
    }
    return pl.gluing_check(
        pl.context_softmax(structure, pl.PerContextScores(table), pl.IdentityLink()))


def _counts():
    return pl.ingest_counts(DATA / "counts_beyond.json")


def _scattered_c41():
    """Seeded counts on C41 in which each context favours its first atom,
    so a shared atom is frequent in one context and rare in the next;
    the corner entries of the cycle's Gram matrix make its solve fill."""
    structure = pl.cycle_logic(41)
    rng = Random(41)
    counts = {
        name: dict(zip(ctx, (rng.randint(1000, 1500), rng.randint(20, 200), rng.randint(300, 700))))
        for name, ctx in zip(structure.context_names, structure.contexts)
    }
    return pl.ingest_counts({"counts": counts}, structure)


def _proportional_pair():
    """Counts on the pentagon pair exactly proportional to a seeded
    mixture of four two-valued states, with a different total in each
    context."""
    structure = pentagon_pair()
    space = structure.state_space
    rng = Random(2)
    values = {a: Fraction(0) for a in structure.atoms}
    for k, i in enumerate(rng.sample(range(space.count), 4), start=1):
        for a in space[i].ones:
            values[a] += Fraction(k, 10)
    counts = {}
    for name, ctx in zip(structure.context_names, structure.contexts):
        total = 10 * rng.randint(1, 3)
        counts[name] = {a: int(values[a] * total) for a in ctx}
    return pl.ingest_counts({"counts": counts}, structure)


def _square():
    """Four two-atom contexts around a square: the fourth context row is
    the sum of the first two minus the third, so only rows 0-2 are kept."""
    structure = pl.build_event_structure(
        ["a", "b", "c", "d"], [["a", "b"], ["c", "d"], ["a", "c"], ["b", "d"]])
    counts = {"C1": {"a": 30, "b": 70}, "C2": {"c": 45, "d": 55},
              "C3": {"a": 40, "c": 80}, "C4": {"b": 65, "d": 35}}
    return pl.ingest_counts({"counts": counts}, structure)


def _scores(structure, link, mode="rational"):
    """``represent_weight`` of a seeded positive weight, with the default
    scale; float mode rounds the same weight to doubles."""
    weight = seeded_positive_weight(structure, 15)
    if mode == "float":
        weight = pl.to_float(weight)
    return pl.represent_weight(structure, weight, link)


CASES = {
    "family_exact": _family_exact,
    "family_float": _family_float,
    "region_not_admissible": lambda: pl.classify_weight(
        pl.cycle_logic(5), _uniform(pl.cycle_logic(5), Fraction(1, 2))),
    "region_triangle": lambda: pl.classify_weight(
        pl.cycle_logic(3), pl.path_weight(pl.cycle_logic(3), Fraction(1))),
    "region_ceg18_uniform": lambda: pl.classify_weight(
        _ceg18(), _uniform(_ceg18(), Fraction(1, 4))),
    "region_pasting": lambda: pl.classify_weight(
        pentagon_pair(), _uniform(pentagon_pair(), Fraction(1, 3))),
    "region_beyond_theta": lambda: pl.classify_weight(
        pl.cycle_logic(5), pl.half_weight(pl.cycle_logic(5))),
    "region_c41_path": lambda: pl.classify_weight(
        pl.cycle_logic(41), pl.path_weight(pl.cycle_logic(41), Fraction(1, 10))),
    "region_grid4_mixture": lambda: pl.classify_weight(*_grid_mixture(4)),
    "gluing_exact_glued": _glued_c11,
    "gluing_exact_unglued": lambda: _grid_table(exact=True),
    "gluing_float_unglued": lambda: _grid_table(exact=False),
    "gluing_exact_random_overlap": _random_overlap,
    "scores_c41_identity": lambda: _scores(pl.cycle_logic(41), pl.IdentityLink()),
    "scores_c41_exponential": lambda: _scores(pl.cycle_logic(41), pl.ExponentialLink(0.5)),
    "scores_c41_power": lambda: _scores(pl.cycle_logic(41), pl.PowerLink(3)),
    "scores_c41_float_exponential": lambda: _scores(
        pl.cycle_logic(41), pl.ExponentialLink(0.5), "float"),
    "scores_g8_identity": lambda: _scores(grid_logic(8), pl.IdentityLink()),
    "scores_g8_exponential": lambda: _scores(grid_logic(8), pl.ExponentialLink(0.5)),
    "scores_g8_power": lambda: _scores(grid_logic(8), pl.PowerLink(3)),
    "admissibility_rational": lambda: pl.check_admissible(
        pl.path_weight(pl.cycle_logic(5), Fraction(1, 3))),
    "admissibility_float": lambda: pl.check_admissible(
        pl.path_weight(pl.cycle_logic(5), 0.3)),
    "frequencies": lambda: pl.estimate_frequencies(_counts()),
    "single_valuedness": lambda: pl.single_valuedness_test(_counts()),
    "reconstruction": lambda: pl.reconstruct_weight(_counts()),
    "reconstruction_c41_scattered": lambda: pl.reconstruct_weight(_scattered_c41()),
    "reconstruction_pentagon_pair": lambda: pl.reconstruct_weight(_proportional_pair()),
    "reconstruction_square": lambda: pl.reconstruct_weight(_square()),
    "analysis_withheld": lambda: pl.analyze(
        pl.ingest_counts(DATA / "counts_gate_fail.json")),
}


@pytest.mark.parametrize("name", CASES)
def test_report_bytes_are_pinned(name):
    expected = (PINS / f"{name}.json").read_text(encoding="utf-8")
    assert dumps(CASES[name]().to_json_dict()) == expected


# Report classes the pins above do not hold at the top level.
MORE = {
    "weight_rational": lambda: pl.path_weight(pl.cycle_logic(5), Fraction(2, 7)),
    "weight_float": lambda: pl.path_weight(pl.cycle_logic(5), 0.1 + 0.2),
    "membership_classical": lambda: pl.classical_membership(
        pl.cycle_logic(5), pl.path_weight(pl.cycle_logic(5), Fraction(5))),
    "membership_witness": lambda: pl.classical_membership(
        pl.cycle_logic(5), pl.half_weight(pl.cycle_logic(5))),
    "two_valued_state": lambda: pl.enumerate_two_valued_states(pl.cycle_logic(5))[3],
    "structure": pentagon_pair,
    "counts": _counts,
    "cycle_bounds": lambda: pl.cycle_bounds(7),
    "multiplicative_exponential": lambda: pl.check_multiplicative_link(
        pl.ExponentialLink(1.3), [(0.1, 0.2), (1.5, -2.25)]),
    "multiplicative_power": lambda: pl.check_multiplicative_link(
        pl.PowerLink(2.5), [(0.1, 0.2), (1.5, 2.25)]),
    "link": lambda: pl.PowerLink(0.5),
    "family_link_past_twelve_digits": lambda: pl.context_softmax(
        pl.cycle_logic(5), pl.GlobalScores(dict.fromkeys(pl.cycle_logic(5).atoms, 0.5)),
        pl.ExponentialLink(0.1 + 0.2)),
    "scores_per_context": lambda: pl.PerContextScores(
        {"C1": {"a": Fraction(1, 3), "b": 0.1 + 0.2}}),
}


@pytest.mark.parametrize("make", [*CASES.values(), *MORE.values()], ids=[*CASES, *MORE])
def test_report_json_is_already_rendered(make):
    """``render`` leaves a report's JSON as it is, so ``dumps`` of it
    renders nothing twice."""
    doc = make().to_json_dict()
    assert render(doc) == doc


def test_every_pin_has_a_case():
    assert sorted(p.stem for p in PINS.glob("*.json")) == sorted(CASES)


def test_region_report_leaves_out_what_it_lacks():
    doc = CASES["region_pasting"]().to_json_dict()
    assert list(doc) == ["label", "admissibility", "membership"]
    square = pl.cycle_logic(4)
    doc = pl.classify_weight(square, pl.half_weight(square)).to_json_dict()
    assert "cyclic_sum" in doc and "beyond_theta" not in doc


@dataclass(frozen=True)
class _Report:
    structure: object
    ratio: Fraction
    nested: pl.CycleBounds
    table: dict
    missing: None = None


class TestFieldsToJson:
    def test_fields_in_order_without_the_structure(self):
        report = _Report(pl.cycle_logic(3), Fraction(2, 3), pl.cycle_bounds(3),
                         {"b": 0.1 + 0.2, "a": (Fraction(1, 2),)})
        assert fields_to_json(report) == {
            "ratio": "2/3",
            "nested": pl.cycle_bounds(3).to_json_dict(),
            "table": {"b": 0.3, "a": ["1/2"]},
            "missing": None,
        }

    def test_render_uses_to_json_dict_below_the_containers(self):
        weight = pl.half_weight(pl.cycle_logic(3))
        assert render({"w": [weight]}) == {"w": [weight.to_json_dict()]}
        assert render(weight) == weight.to_json_dict()
