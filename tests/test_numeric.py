"""The one input loader: every unreadable or undecodable input is a
SchemaError, and literals parse through numeric_from_json."""

import json
import math
from fractions import Fraction
from pathlib import Path

import pytest

import pastedlogic as pl
from pastedlogic import SchemaError, ValidationError
from pastedlogic.numeric import (as_float, check_tolerance, dumps, load_json, read_text,
                                 values_from_json)

DATA = Path(__file__).parent / "data"


class TestLoadJson:
    def test_reads_and_decodes_a_file(self, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text('{"a": [1, "1/2"]}')
        assert load_json(path) == {"a": [1, "1/2"]}
        assert load_json(str(path)) == {"a": [1, "1/2"]}

    def test_decodes_text_without_touching_the_path(self):
        assert load_json(None, "[true]") == [True]

    def test_missing_file(self, tmp_path):
        path = tmp_path / "absent.json"
        with pytest.raises(SchemaError, match=f"^no such file: {path}$"):
            load_json(path)

    def test_directory(self, tmp_path):
        with pytest.raises(SchemaError, match=f"^cannot read {tmp_path}: "):
            load_json(tmp_path)

    def test_undecodable_bytes(self, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"\xe9": 1}')
        with pytest.raises(SchemaError, match="is not UTF-8 text"):
            load_json(path)

    def test_bad_json_names_the_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(SchemaError, match=f"^invalid JSON in {path}: Expecting"):
            load_json(path)

    def test_bad_json_text(self):
        with pytest.raises(SchemaError, match="^invalid JSON: "):
            load_json(None, "[1,")

    def test_integer_past_the_conversion_limit(self):
        with pytest.raises(SchemaError, match="invalid JSON"):
            load_json(None, "1" * 5000)

    def test_nesting_past_the_recursion_limit(self):
        with pytest.raises(SchemaError, match="invalid JSON"):
            load_json(None, "[" * 100_000 + "]" * 100_000)

    def test_schema_errors_are_validation_errors(self, tmp_path):
        with pytest.raises(ValidationError):
            load_json(tmp_path / "absent.json")


class TestNumericFromJson:
    @pytest.mark.parametrize("text", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_numbers_are_rejected(self, text):
        doc = load_json(None, f'{{"a1": {text}}}')
        with pytest.raises(ValidationError, match="finite"):
            values_from_json(doc, "weight 'values'")


class TestReadText:
    def test_csv_through_ingest_counts(self, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_bytes(b"L,a,\xff\n")
        with pytest.raises(SchemaError, match="is not UTF-8 text"):
            read_text(path)
        with pytest.raises(SchemaError, match="is not UTF-8 text"):
            pl.ingest_counts(path, structure=pl.cycle_logic(3))

    def test_structure_reference_is_loaded_the_same_way(self, tmp_path):
        (tmp_path / "notes.txt").write_text("hello")
        doc = tmp_path / "counts.json"
        doc.write_text('{"structure": "notes.txt", "counts": {}}')
        with pytest.raises(SchemaError, match="invalid JSON in .*notes.txt"):
            pl.ingest_counts(doc)
        doc.write_text('{"structure": "absent.json", "counts": {}}')
        with pytest.raises(SchemaError, match="no such file: .*absent.json"):
            pl.ingest_counts(doc)


class TestLiterals:
    def test_values_from_json(self):
        assert values_from_json({"a": "1/3", "b": 2, "c": 0.5}, "t") == {
            "a": Fraction(1, 3), "b": Fraction(2), "c": 0.5,
        }
        with pytest.raises(SchemaError, match="^t must be a JSON object$"):
            values_from_json([1, 2], "t")
        with pytest.raises(ValidationError, match="not a rational literal"):
            values_from_json({"a": "x"}, "t")

    def test_dumps_lists_a_frozenset_sorted(self):
        text = dumps(pl.connected_components(pl.cycle_logic(3)))
        assert json.loads(text) == [["a1", "a2", "a3", "x1", "x2", "x3"]]

    def test_as_float_overflow(self):
        assert as_float(Fraction(1, 4)) == 0.25
        with pytest.raises(ValidationError, match="too large for a float"):
            as_float(10**400)


class TestTolerances:
    @pytest.mark.parametrize("value", [0, 0.0, 1e-9, Fraction(1, 3), 5])
    def test_a_number_at_or_above_zero_is_a_tolerance(self, value):
        check_tolerance(value)

    @pytest.mark.parametrize(
        "value", [-1, -1e-300, float("nan"), Fraction(-1, 3), "0.1", None, True, float("inf")])
    def test_anything_else_is_refused(self, value):
        with pytest.raises(ValidationError, match="^tol must be a finite number >= 0, got "):
            check_tolerance(value)

    @staticmethod
    def _pentagon_counts():
        return pl.ingest_counts(DATA / "counts_beyond.json")

    @staticmethod
    def _family():
        pentagon = pl.cycle_logic(5)
        weight = pl.path_weight(pentagon, Fraction(1, 2))
        link = pl.ExponentialLink()
        return pl.context_softmax(pentagon, pl.represent_weight(pentagon, weight, link), link)

    # Each entry point that takes a tolerance or a threshold, called with ``t``.
    ENTRY_POINTS = {
        "check_admissible": lambda t: pl.check_admissible(
            pl.path_weight(pl.cycle_logic(5), 1.0), tol=t),
        "support": lambda t: pl.support(pl.path_weight(pl.cycle_logic(5), 1.0), tol=t),
        "classify_weight": lambda t: pl.classify_weight(
            pl.cycle_logic(5), pl.path_weight(pl.cycle_logic(5), Fraction(1, 2)), tol=t),
        "classical_membership": lambda t: pl.classical_membership(
            pl.cycle_logic(5), pl.path_weight(pl.cycle_logic(5), Fraction(1, 2)), tol=t),
        "gluing_check": lambda t: pl.gluing_check(TestTolerances._family(), tol=t),
        "glue_to_weight": lambda t: pl.glue_to_weight(TestTolerances._family(), tol=t),
        "maxent_softmax": lambda t: pl.maxent_softmax({"a": 0.0, "b": 1.0}, 0.5, tol=t),
        "check_multiplicative_link": lambda t: pl.check_multiplicative_link(
            pl.ExponentialLink(), [(0.5, 1.0)], tol=t),
        "single_valuedness_test": lambda t: pl.single_valuedness_test(
            TestTolerances._pentagon_counts(), t),
        "analyze z_threshold": lambda t: pl.analyze(TestTolerances._pentagon_counts(), t),
    }

    REFUSAL = r"^(tol|z_threshold) must be a finite number >= 0, got "

    @pytest.mark.parametrize("call", ENTRY_POINTS.values(), ids=ENTRY_POINTS)
    def test_a_negative_tolerance_is_refused(self, call):
        with pytest.raises(ValidationError, match=self.REFUSAL + "-1$"):
            call(-1)

    @pytest.mark.parametrize("call", ENTRY_POINTS.values(), ids=ENTRY_POINTS)
    def test_an_infinite_tolerance_is_refused(self, call):
        with pytest.raises(ValidationError, match=self.REFUSAL + "inf$"):
            call(math.inf)
