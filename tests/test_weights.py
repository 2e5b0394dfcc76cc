import copy
import json
import math
import pickle
from fractions import Fraction

import numpy as np
import pytest

import pastedlogic as pl
from helpers import random_structure, reference_check_admissible
from pastedlogic.numeric import dumps, fields_to_json
from pastedlogic import (
    MissingAtomValueError,
    NegativePathParameterError,
    SchemaError,
    UnknownAtomError,
    ValidationError,
)


class TestMakeWeight:
    def test_mode_inference(self, triangle):
        exact = pl.make_weight(triangle, {a: Fraction(1, 3) for a in triangle.atoms})
        assert exact.mode == "rational"
        inexact = pl.make_weight(triangle, {a: 1 / 3 for a in triangle.atoms})
        assert inexact.mode == "float"

    def test_missing_atom(self, triangle):
        values = {a: Fraction(1, 3) for a in triangle.atoms[:-1]}
        with pytest.raises(MissingAtomValueError, match="x3"):
            pl.make_weight(triangle, values)

    def test_unknown_atom(self, triangle):
        values = {a: Fraction(1, 3) for a in triangle.atoms}
        values["z"] = Fraction(0)
        with pytest.raises(UnknownAtomError, match="z"):
            pl.make_weight(triangle, values)

    def test_mixed_modes_need_explicit_mode(self, triangle):
        values = {a: Fraction(1, 3) for a in triangle.atoms}
        values["x1"] = 0.25
        with pytest.raises(ValidationError):
            pl.make_weight(triangle, values)
        forced = pl.make_weight(triangle, values, mode="float")
        assert forced.mode == "float"
        assert forced["a1"] == pytest.approx(1 / 3)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_floats_are_rejected(self, triangle, bad):
        values = {a: 1 / 3 for a in triangle.atoms}
        values["a1"] = bad
        with pytest.raises(ValidationError, match="not finite"):
            pl.make_weight(triangle, values)
        with pytest.raises(ValidationError, match="not finite"):
            pl.make_weight(triangle, values, mode="float")

    def test_int_values_give_rational_mode(self, triangle):
        w = pl.make_weight(triangle, dict.fromkeys(triangle.atoms, 1))
        assert w.mode == "rational"
        assert all(type(v) is Fraction and v == 1 for v in w.values.values())

    def test_unknown_atom_lookup(self, triangle):
        with pytest.raises(UnknownAtomError, match="^unknown atom 'z9'$"):
            pl.half_weight(triangle)["z9"]

    def test_items_follow_atom_order(self, triangle):
        w = pl.half_weight(triangle)
        assert [a for a, _ in w.items()] == list(triangle.atoms)

    @pytest.mark.parametrize(
        "changes, mode, message",
        [
            ({"x1": "0.5"}, None, "value for 'x1' is not numeric: '0.5'"),
            ({"x1": None}, "float", "value for 'x1' is not numeric: None"),
            ({"x1": True}, None, "value for 'x1' is not numeric: True"),
            ({"x1": False}, "rational", "value for 'x1' is not numeric: False"),
            ({"x1": None, "a1": "y"}, None, "value for 'a1' is not numeric: 'y'"),
            ({"x1": 0.25, "a2": None}, None, "value for 'a2' is not numeric: None"),
            ({"x2": 0.25, "a2": 0.5}, "rational",
             "rational mode requires exact values; got floats for a2, x2"),
            ({"x1": 0.25}, None, "mixed exact and float values; pass an explicit mode"),
            ({}, "decimal", "unknown mode 'decimal'"),
        ],
    )
    def test_rejection_messages(self, triangle, changes, mode, message):
        values = {a: Fraction(1, 3) for a in triangle.atoms}
        values.update(changes)
        with pytest.raises(ValidationError) as caught:
            pl.make_weight(triangle, values, mode)
        assert str(caught.value) == message

    def test_keeps_the_fractions_it_is_given(self, pentagon):
        values = {a: Fraction(1, 3) for a in pentagon.atoms}
        w = pl.make_weight(pentagon, values)
        assert all(w.values[a] is values[a] for a in pentagon.atoms)


class TestAdmissibility:
    def test_half_weight_exact(self, pentagon):
        report = pl.check_admissible(pl.half_weight(pentagon))
        assert report.admissible
        assert report.mode == "rational"
        assert report.tolerance == 0
        assert report.max_deviation == 0
        assert all(s == 1 for s in report.context_sums.values())

    def test_exact_mode_rejects_any_deviation(self, pentagon):
        values = dict(pl.half_weight(pentagon).values)
        values["x1"] = Fraction(1, 10**12)
        report = pl.check_admissible(pl.make_weight(pentagon, values))
        assert not report.admissible
        assert report.max_deviation == Fraction(1, 10**12)

    def test_float_mode_tolerance(self, pentagon):
        values = {a: float(v) for a, v in pl.half_weight(pentagon).values.items()}
        values["x1"] = 5e-10
        w = pl.make_weight(pentagon, values, mode="float")
        assert pl.check_admissible(w, tol=1e-9).admissible
        assert not pl.check_admissible(w, tol=1e-12).admissible

    def test_negative_value_breaks_box(self, triangle):
        values = {a: Fraction(1, 2) for a in ("a1", "a2", "a3")}
        values.update({"x1": Fraction(0), "x2": Fraction(0), "x3": Fraction(0)})
        values["a1"] = Fraction(-1, 2)
        values["x1"] = Fraction(1)
        report = pl.check_admissible(pl.make_weight(triangle, values))
        assert not report.values_in_box
        assert not report.admissible

    def test_all_half_not_admissible(self, pentagon):
        w = pl.make_weight(pentagon, {a: Fraction(1, 2) for a in pentagon.atoms})
        report = pl.check_admissible(w)
        assert not report.admissible
        assert report.max_deviation == Fraction(1, 2)


def state_mixture(structure, rng):
    """A random rational mixture of up to four two-valued states, or
    None when the structure has none."""
    space = structure.state_space
    if not space.count:
        return None
    picks = rng.choice(space.count, size=min(4, space.count), replace=False)
    raw = [int(rng.integers(1, 30)) for _ in picks]
    values = {a: Fraction(0) for a in structure.atoms}
    for coeff, i in zip(raw, picks):
        for a in space[int(i)].ones:
            values[a] += Fraction(coeff, sum(raw))
    return values


class TestIntegerAdmissibility:
    """The common-denominator check gives the bytes of the ``Fraction``
    reference, admissible or not, on seeded random structures."""

    def test_matches_the_fraction_reference(self):
        rng = np.random.default_rng(31)
        verdicts = []
        for _ in range(200):
            structure = random_structure(rng)
            base = state_mixture(structure, rng) or {
                a: Fraction(int(rng.integers(0, 8)), 7) for a in structure.atoms
            }
            atom = structure.atoms[int(rng.integers(len(structure.atoms)))]
            for bump in (None, base[atom] + Fraction(1, 10**12), Fraction(-1, 7), Fraction(8, 7)):
                values = dict(base) if bump is None else {**base, atom: bump}
                weight = pl.make_weight(structure, values)
                for w in (weight, pl.to_float(weight)):
                    assert dumps(pl.check_admissible(w).to_json_dict()) == dumps(
                        reference_check_admissible(w).to_json_dict())
                verdicts.append((bump is None, pl.check_admissible(weight).admissible))
        assert verdicts.count((True, True)) > 50
        assert (False, True) not in verdicts


class TestPoint:
    """``Weight.point``: the values over their least common denominator,
    read once and never printed."""

    def test_a_float_decomposes_exactly(self, triangle):
        values = dict.fromkeys(triangle.atoms, 0.5)
        values["a1"] = 0.1
        w = pl.make_weight(triangle, values)
        assert Fraction(0.1) == Fraction(3602879701896397, 2**55)
        scale, nums = w.point
        assert scale == 2**55
        assert nums[triangle.atom_index["a1"]] == 3602879701896397
        assert nums[triangle.atom_index["x1"]] == 2**54

    def test_int_and_fraction_values(self, triangle):
        ones = pl.make_weight(triangle, dict.fromkeys(triangle.atoms, 1))
        assert ones.point == (1, (1,) * len(triangle.atoms))
        thirds = {a: Fraction(1, 3) if a[0] == "a" else Fraction(1, 2) for a in triangle.atoms}
        assert pl.make_weight(triangle, thirds).point[0] == 6

    @pytest.mark.parametrize("r", [0, Fraction(3, 7), 0.1, 1e-300])
    def test_each_value_is_its_numerator_over_the_scale(self, pentagon, r):
        w = pl.path_weight(pentagon, r)
        scale, nums = w.point
        assert all(type(n) is int for n in (scale, *nums))
        assert [Fraction(n, scale) for n in nums] == [Fraction(w[a]) for a in pentagon.atoms]
        assert math.gcd(scale, *nums) == 1

    def test_read_once_and_not_printed(self, pentagon):
        w = pl.path_weight(pentagon, Fraction(1, 3))
        before = fields_to_json(w)
        assert w.point is w.point
        assert fields_to_json(w) == before
        assert list(before) == ["mode", "values"]


class TestReadOnly:
    def test_values_cannot_be_assigned(self, pentagon):
        w = pl.path_weight(pentagon, 1)
        assert pl.check_admissible(w).admissible
        with pytest.raises(TypeError):
            w.values["a1"] = Fraction(9)
        assert w["a1"] == Fraction(1, 3) and pl.check_admissible(w).admissible

    @pytest.mark.parametrize("clone", [lambda w: pickle.loads(pickle.dumps(w)), copy.deepcopy],
                             ids=["pickle", "deepcopy"])
    @pytest.mark.parametrize("r", [Fraction(3, 7), 0.1])
    def test_a_copy_is_equal_and_prints_the_same(self, pentagon, clone, r):
        w = pl.path_weight(pentagon, r)
        w.point
        again = clone(w)
        assert again == w and dumps(again) == dumps(w)
        assert again.structure is pentagon and again.point == w.point
        with pytest.raises(TypeError):
            again.values["a1"] = 0


class TestPathFamily:
    def test_endpoints(self, pentagon):
        assert pl.path_weight(pentagon, 0).values == pl.half_weight(pentagon).values
        uniform = pl.path_weight(pentagon, 1)
        assert all(v == Fraction(1, 3) for v in uniform.values.values())

    @pytest.mark.parametrize("r", [Fraction(1, 10), Fraction(3, 7), 2])
    def test_exact_values_and_sum(self, pentagon, r):
        w = pl.path_weight(pentagon, r)
        assert w.mode == "rational"
        assert w["a1"] == Fraction(1, 2 + Fraction(r))
        assert w["x1"] == Fraction(r) / (2 + Fraction(r))
        assert pl.check_admissible(w).admissible
        assert pl.cyclic_sum(pentagon, w) == Fraction(5, 2 + Fraction(r))

    def test_float_parameter_gives_float_mode(self, pentagon):
        w = pl.path_weight(pentagon, 0.1)
        assert w.mode == "float"
        assert w["a1"] == pytest.approx(1 / 2.1)

    @pytest.mark.parametrize("r", [0.0, 0.1, 1 / 3, 1.0, 2.5, 1e-9, 7e15, 1e300])
    def test_float_values_are_bitwise_the_closed_form(self, pentagon, r):
        w = pl.path_weight(pentagon, r)
        assert w["a1"].hex() == (1.0 / (2.0 + r)).hex()
        assert w["x1"].hex() == (r / (2.0 + r)).hex()

    def test_negative_parameter(self, pentagon):
        with pytest.raises(NegativePathParameterError):
            pl.path_weight(pentagon, -1)
        with pytest.raises(ValidationError):
            pl.path_weight(pentagon, "0.5")

    def test_ordering_along_path(self, pentagon):
        sums = [
            pl.cyclic_sum(pentagon, pl.path_weight(pentagon, r))
            for r in (Fraction(0), Fraction(1, 4), Fraction(1), Fraction(5))
        ]
        assert sums == sorted(sums, reverse=True)

    def test_support(self, pentagon):
        assert pl.support(pl.half_weight(pentagon)) == frozenset(
            f"a{i}" for i in range(1, 6)
        )
        assert pl.support(pl.path_weight(pentagon, 1)) == frozenset(pentagon.atoms)


class TestModeConversion:
    def test_round_trip_exact_on_dyadics(self, pentagon):
        w = pl.half_weight(pentagon)
        again = pl.to_rational(pl.to_float(w))
        assert again.values == w.values

    def test_to_float_keeps_a_float_weight(self, triangle):
        w = pl.make_weight(triangle, {a: 0.1 for a in triangle.atoms})
        assert pl.to_float(w) is w

    def test_to_rational_is_bit_exact(self, triangle):
        w = pl.make_weight(triangle, {a: 0.1 for a in triangle.atoms}, mode="float")
        q = pl.to_rational(w)
        assert q.mode == "rational"
        assert q["a1"] == Fraction(0.1)
        assert q["a1"] != Fraction(1, 10)


class TestWeightJson:
    def test_round_trip_rational(self, pentagon):
        w = pl.path_weight(pentagon, Fraction(1, 3))
        doc = w.to_json_dict()
        assert doc["values"]["a1"] == "3/7"
        again = pl.weight_from_json_dict(doc, pentagon)
        assert again.values == w.values
        assert again.mode == "rational"

    def test_round_trip_float(self, pentagon):
        w = pl.path_weight(pentagon, 0.1)
        again = pl.weight_from_json_dict(w.to_json_dict(), pentagon)
        assert again.mode == "float"
        assert again["x2"] == pytest.approx(w["x2"], abs=1e-12)

    def test_unknown_field(self, pentagon):
        doc = pl.half_weight(pentagon).to_json_dict()
        doc["comment"] = "?"
        with pytest.raises(SchemaError, match="unknown fields"):
            pl.weight_from_json_dict(doc, pentagon)

    def test_values_must_be_an_object(self, pentagon):
        with pytest.raises(SchemaError, match="weight 'values' must be a JSON object"):
            pl.weight_from_json_dict({"mode": "rational", "values": [1, 2]}, pentagon)

    def test_float_overflow_is_a_validation_error(self, pentagon):
        doc = pl.half_weight(pentagon).to_json_dict()
        doc["mode"] = "float"
        doc["values"]["x1"] = 10**400
        with pytest.raises(ValidationError, match="too large for a float"):
            pl.weight_from_json_dict(doc, pentagon)

    def test_bad_json_text(self, pentagon):
        with pytest.raises(SchemaError, match="invalid JSON"):
            pl.weight_from_json("{not json", pentagon)

    def test_bad_mode(self, pentagon):
        doc = pl.half_weight(pentagon).to_json_dict()
        doc["mode"] = "decimal"
        with pytest.raises(SchemaError, match="mode"):
            pl.weight_from_json_dict(doc, pentagon)


class TestForeignStructure:
    """A weight is decided only on the structure it was built over; an
    equal structure, such as one read back from JSON, counts as that."""

    CALLS = {
        "classify_weight": lambda s, w: pl.classify_weight(s, w),
        "cyclic_sum": lambda s, w: pl.cyclic_sum(s, w),
        "classical_membership": lambda s, w: pl.classical_membership(s, w),
        "represent_weight": lambda s, w: pl.represent_weight(s, w, pl.ExponentialLink()),
        "boundary_path": lambda s, w: pl.boundary_path(
            s, pl.ExponentialLink(), [1, Fraction(1, 2)], target=w),
    }

    @pytest.mark.parametrize("name", CALLS)
    def test_a_weight_over_another_structure_is_rejected(self, name):
        weight = pl.path_weight(pl.cycle_logic(7), 1)
        with pytest.raises(ValidationError, match="different structure"):
            self.CALLS[name](pl.cycle_logic(5), weight)

    @pytest.mark.parametrize("name", CALLS)
    def test_an_equal_structure_from_json_is_accepted(self, name):
        pentagon = pl.cycle_logic(5)
        # A JSON round trip returns the live pentagon itself; an equal but
        # distinct object, built around the loaders, takes the == branch.
        loaded = pl.structure_from_json(json.dumps(pentagon.to_json_dict()))
        copy = pl.EventStructure(loaded.atoms, loaded.contexts, loaded.context_names)
        assert copy == pentagon and copy is not pentagon
        weight = pl.path_weight(copy, 1)
        same = self.CALLS[name](pentagon, pl.path_weight(pentagon, 1))
        assert repr(self.CALLS[name](pentagon, weight)) == repr(same)

    def test_classify_checks_the_structure_before_admissibility(self):
        triangle = pl.cycle_logic(3)
        foreign = pl.make_weight(triangle, {a: Fraction(1) for a in triangle.atoms})
        with pytest.raises(ValidationError, match="different structure"):
            pl.classify_weight(pl.cycle_logic(5), foreign)
