"""The one input loader: every unreadable or undecodable input is a
SchemaError, and literals parse through numeric_from_json."""

import json
from fractions import Fraction

import pytest

import pastedlogic as pl
from pastedlogic import SchemaError, ValidationError
from pastedlogic.numeric import as_float, dumps, load_json, read_text, values_from_json


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
