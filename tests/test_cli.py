"""Every subcommand end to end, including exit codes and frozen outputs."""

import argparse
import importlib.metadata
import json
import math
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import pastedlogic as pl
from pastedlogic import cli

DATA = Path(__file__).parent / "data"
PYPROJECT = Path(__file__).parent.parent / "pyproject.toml"


def _is_installed(dist):
    try:
        importlib.metadata.distribution(dist)
    except importlib.metadata.PackageNotFoundError:
        return False
    return True


def pentagon_values(a, x):
    vals = {f"a{i}": a for i in range(1, 6)}
    vals.update({f"x{i}": x for i in range(1, 6)})
    return vals


@pytest.fixture()
def pent_file(tmp_path):
    path = tmp_path / "pentagon.json"
    assert cli.main(["gen-cycle", "--n", "5", "--out", str(path)]) == 0
    return str(path)


def write_json(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def weight_file(tmp_path, name, values):
    return write_json(tmp_path, name, {"mode": "rational", "values": values})


class TestGenCycle:
    def test_emits_parseable_structure(self, capsys):
        assert cli.main(["gen-cycle", "--n", "4"]) == 0
        doc = json.loads(capsys.readouterr().out)
        S = pl.structure_from_json_dict(doc)
        assert len(S.atoms) == 8 and len(S.contexts) == 4

    def test_rejects_short_cycles(self, capsys):
        assert cli.main(["gen-cycle", "--n", "1"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_out_files_are_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        cli.main(["gen-cycle", "--n", "5", "--out", str(a)])
        cli.main(["gen-cycle", "--n", "5", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestTable1:
    def test_thirty_frozen_entries(self, capsys):
        assert cli.main(["table1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["columns"]) == 10
        assert len(doc["rows"]) == 3
        assert sum(len(r["values"]) for r in doc["rows"]) == 30
        by_regime = {r["regime"]: r for r in doc["rows"]}
        assert set(by_regime) == {"midpoint", "uniform", "half-weight"}
        for i in range(1, 6):
            assert by_regime["midpoint"]["values"][f"a{i}"] == "0"
            assert by_regime["midpoint"]["values"][f"x{i}"] == "1"
            assert by_regime["uniform"]["values"][f"a{i}"] == "1/3"
            assert by_regime["uniform"]["values"][f"x{i}"] == "1/3"
            assert by_regime["half-weight"]["values"][f"a{i}"] == "1/2"
            assert by_regime["half-weight"]["values"][f"x{i}"] == "0"

    def test_midpoint_row_is_an_explicit_limit(self, capsys):
        cli.main(["table1"])
        row = json.loads(capsys.readouterr().out)["rows"][0]
        assert row["r"] == "limit"
        assert "not attained" in row["annotation"]
        # the x atoms sit 2/(2 + 10^12) from their limit, the a atoms half that
        assert float(row["proxy_max_gap"]) <= 2e-12


class TestCheck:
    def test_admissible_weight(self, pent_file, tmp_path, capsys):
        w = weight_file(tmp_path, "w.json", pentagon_values("1/2", "0"))
        assert cli.main(["check", "--structure", pent_file, "--weight", w]) == 0
        assert json.loads(capsys.readouterr().out)["admissible"] is True

    def test_inadmissible_weight_exits_5(self, pent_file, tmp_path, capsys):
        w = weight_file(tmp_path, "w.json", pentagon_values("1/2", "1/2"))
        assert cli.main(["check", "--structure", pent_file, "--weight", w]) == 5
        assert json.loads(capsys.readouterr().out)["admissible"] is False

    def test_missing_file_exits_2(self, pent_file, capsys):
        assert cli.main(["check", "--structure", pent_file, "--weight", "nope.json"]) == 2
        assert "no such file" in capsys.readouterr().err


class TestEnumerate:
    def test_pentagon_eleven_states(self, pent_file, capsys):
        assert cli.main(["enumerate", "--structure", pent_file]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["count"] == 11
        assert len(doc["states"]) == 11

    def test_limit_exceeded_exits_2(self, pent_file, capsys):
        assert cli.main(["enumerate", "--structure", pent_file, "--limit", "5"]) == 2

    def test_a_negative_limit_exits_2(self, pent_file, capsys):
        assert cli.main(["enumerate", "--structure", pent_file, "--limit", "-1"]) == 2
        assert capsys.readouterr().err == (
            "error: limit must be an integer >= 0 or None, got -1\n")

    @pytest.mark.parametrize("n", [29, 1500])
    def test_too_many_states_are_refused_from_the_count(self, n, tmp_path, capsys, monkeypatch):
        path = tmp_path / "cycle.json"
        assert cli.main(["gen-cycle", "--n", str(n), "--out", str(path)]) == 0

        def refuse(self):
            raise AssertionError("states were listed before the refusal")

        monkeypatch.setattr(pl.StateSpace, "__iter__", refuse)
        assert cli.main(["enumerate", "--structure", str(path)]) == 2
        assert capsys.readouterr().err == "error: more than 1000000 two-valued states\n"


class TestClassify:
    @pytest.mark.parametrize(
        "a,x,code,label",
        [
            ("1/2", "0", 4, "beyond-theta"),
            ("10/23", "3/23", 3, "admissible-nonclassical"),
            ("0", "1", 0, "classical"),
            ("1/2", "1/2", 5, "not-admissible"),
        ],
    )
    def test_exit_code_tracks_region(self, pent_file, tmp_path, capsys, a, x, code, label):
        w = weight_file(tmp_path, "w.json", pentagon_values(a, x))
        assert cli.main(["classify", "--structure", pent_file, "--weight", w]) == code
        assert json.loads(capsys.readouterr().out)["label"] == label

    def test_a_structure_without_states_is_nonclassical(self, tmp_path, capsys):
        # Kochen-Specker: the uniform weight is admissible, and no
        # two-valued state exists to mix it from.
        ceg = str(DATA / "ceg18.json")
        atoms = pl.structure_from_json((DATA / "ceg18.json").read_text()).atoms
        w = weight_file(tmp_path, "w.json", dict.fromkeys(atoms, "1/4"))
        assert cli.main(["check", "--structure", ceg, "--weight", w]) == 0
        assert json.loads(capsys.readouterr().out)["admissible"] is True
        assert cli.main(["classify", "--structure", ceg, "--weight", w]) == 3
        doc = json.loads(capsys.readouterr().out)
        assert doc["label"] == "admissible-nonclassical"
        assert (doc["membership"]["witness_bound"], doc["membership"]["witness_value"]) == ("-1", "0")

    def test_numeric_modes_agree_on_dyadic_weights(self, pent_file, tmp_path):
        w = weight_file(tmp_path, "w.json", pentagon_values("1/4", "1/2"))
        out_r = tmp_path / "r.json"
        out_f = tmp_path / "f.json"
        code_r = cli.main(["classify", "--structure", pent_file, "--weight", w,
                           "--mode", "rational", "--out", str(out_r)])
        code_f = cli.main(["classify", "--structure", pent_file, "--weight", w,
                           "--mode", "float", "--out", str(out_f)])
        assert code_r == code_f == 0
        assert (json.loads(out_r.read_text())["label"]
                == json.loads(out_f.read_text())["label"] == "classical")


ASYMMETRIC = {
    "a1": "2/5", "a2": "1/5", "a3": "3/10", "a4": "1/4", "a5": "1/4",
    "x1": "2/5", "x2": "1/2", "x3": "9/20", "x4": "1/2", "x5": "7/20",
}


class TestRepresentAndGlue:
    def test_identity_link_scores_are_exact(self, pent_file, tmp_path, capsys):
        w = weight_file(tmp_path, "w.json", pentagon_values("3/7", "1/7"))
        assert cli.main(["represent", "--structure", pent_file, "--weight", w,
                         "--link", "identity"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["scope"] == "global"
        assert doc["link"] == {"kind": "identity"}
        assert all(doc["values"][f"a{i}"] == "3/14" for i in range(1, 6))
        assert all(doc["values"][f"x{i}"] == "1/14" for i in range(1, 6))

    def test_scores_file_chains_into_glue_check(self, pent_file, tmp_path):
        w = weight_file(tmp_path, "w.json", ASYMMETRIC)
        scores = tmp_path / "scores.json"
        assert cli.main(["represent", "--structure", pent_file, "--weight", w,
                         "--link", "power", "--k", "3", "--out", str(scores)]) == 0
        out = tmp_path / "glue.json"
        # no --link: the link embedded by represent is picked up
        assert cli.main(["glue-check", "--structure", pent_file,
                         "--scores", str(scores), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["glued"] is True
        # forcing a different link breaks the gluing for this weight
        assert cli.main(["glue-check", "--structure", pent_file, "--scores", str(scores),
                         "--link", "identity", "--out", str(out)]) == 3
        assert json.loads(out.read_text())["glued"] is False

    def test_bad_alpha_exits_2(self, pent_file, tmp_path, capsys):
        w = weight_file(tmp_path, "w.json", pentagon_values("3/7", "1/7"))
        assert cli.main(["represent", "--structure", pent_file, "--weight", w,
                         "--alpha", "-1"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_patterned_family_fails_glue_check(self, pent_file, tmp_path, capsys):
        values = {
            "C1": {"a1": 0, "a2": 0, "x1": 0},
            "C2": {"a2": 1, "a3": 0, "x2": 0},
            "C3": {"a3": 0, "a4": 0, "x3": 1},
            "C4": {"a4": 0, "a5": 0, "x4": 1},
            "C5": {"a5": 0, "a1": 0, "x5": 1},
        }
        scores = write_json(tmp_path, "scores.json",
                            {"scope": "per-context", "values": values})
        assert cli.main(["glue-check", "--structure", pent_file,
                         "--scores", scores, "--link", "exponential"]) == 3
        doc = json.loads(capsys.readouterr().out)
        assert doc["glued"] is False
        gap = max(float(v) for v in doc["atom_discrepancies"].values())
        assert abs(gap - (math.e / (math.e + 2) - 1 / 3)) <= 1e-12

    def test_a_shifted_context_still_glues(self, tmp_path, capsys):
        # C1's scores are C2's plus 30: the probabilities agree to 4e-16,
        # and only the normaliser ratio (a diagnostic) sees the shift.
        pair = pl.build_event_structure(
            ["a", "b", "c", "d"], [["a", "b", "c"], ["a", "b", "d"]], ["C1", "C2"]
        )
        scores = [0.3, -1.1, 0.7]
        values = {"C1": {k: u + 30 for k, u in zip("abc", scores)}, "C2": dict(zip("abd", scores))}
        structure = write_json(tmp_path, "pair.json", pair.to_json_dict())
        scores_file = write_json(tmp_path, "scores.json", {"scope": "per-context", "values": values})
        assert cli.main(["glue-check", "--structure", structure, "--scores", scores_file,
                         "--link", "exponential", "--beta", "1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["glued"] is True
        assert float(doc["pair_ratio_spreads"]["C1|C2"]) > doc["tolerance"]


class TestSweep:
    def run_sweep(self, tmp_path, *argv):
        out = tmp_path / "sweep.csv"
        assert cli.main(["sweep", *argv, "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "r,cyclic_sum,exceeds_classical,exceeds_theta"
        return lines

    def test_pentagon_flags_flip_at_both_thresholds(self, tmp_path):
        lines = self.run_sweep(tmp_path, "--n", "5")
        assert len(lines) == 1001
        # row i holds r = i/1001
        assert lines[500].split(",")[0] == "500/1001"
        assert [lines[i].split(",")[2] for i in (500, 501)] == ["1", "0"]
        assert [lines[i].split(",")[3] for i in (236, 237)] == ["1", "0"]
        flags_c = [line.split(",")[2] for line in lines[1:]]
        flags_t = [line.split(",")[3] for line in lines[1:]]
        assert flags_c == ["1"] * 500 + ["0"] * 500
        assert flags_t == ["1"] * 236 + ["0"] * 764

    def test_even_cycle_never_flags(self, tmp_path):
        lines = self.run_sweep(tmp_path, "--n", "4")
        for line in lines[1:]:
            r, s, above_c, above_t = line.split(",")
            assert above_c == "0"
            assert above_t == ""

    def test_triangle_theta_flags_with_the_classical_bound(self, tmp_path):
        lines = self.run_sweep(tmp_path, "--n", "3", "--r-max", "2")
        flags = [tuple(line.split(",")[2:]) for line in lines[1:]]
        assert {above_c for above_c, _ in flags} == {"0", "1"}
        assert all(above_c == above_t for above_c, above_t in flags)

    def test_heptagon_flip_matches_thresholds(self, tmp_path):
        lines = self.run_sweep(tmp_path, "--n", "7")
        r_classical, r_theta = pl.path_thresholds(7)
        i_c = math.floor(r_classical * 1001)
        i_t = math.floor(r_theta * 1001)
        assert [lines[i].split(",")[2] for i in (i_c, i_c + 1)] == ["1", "0"]
        assert [lines[i].split(",")[3] for i in (i_t, i_t + 1)] == ["1", "0"]

    def test_pentagon_flags_within_1e_100_of_the_theta_threshold(self, tmp_path):
        # r0 is sqrt(5) - 2 rounded down at 600 digits, so the middle row's
        # sum is past sqrt(5) by under 10**-600; s > sqrt(5) iff s**2 > 5.
        r0 = Fraction(math.isqrt(5 * 10**1200), 10**600) - 2
        eps = Fraction(1, 10**100)
        lines = self.run_sweep(tmp_path, "--n", "5", "--r-min", str(r0 - eps),
                               "--r-max", str(r0 + eps), "--points", "9")
        assert len(lines) == 10
        flags = []
        for line in lines[1:]:
            _, s, _, above_t = line.split(",")
            assert above_t == str(int(Fraction(s) ** 2 > 5))
            flags.append(above_t)
        assert flags == ["1"] * 5 + ["0"] * 4

    @pytest.mark.parametrize("n", [10**6, 10**6 + 1])
    def test_a_long_cycle_takes_the_closed_form(self, tmp_path, monkeypatch, n):
        # No structure is built: each cyclic sum is n/(2+r), and the
        # theta flag, on the odd cycle, is exceeds_theta's verdict on it.
        monkeypatch.setattr(cli, "cycle_logic", None)
        bounds = pl.cycle_bounds(n)
        lines = self.run_sweep(tmp_path, "--n", str(n), "--points", "5")
        assert len(lines) == 6
        for line in lines[1:]:
            r, s, above_c, above_t = line.split(",")
            assert Fraction(s) == n / (2 + Fraction(r))
            assert above_c == str(int(Fraction(s) > n // 2))
            assert above_t == (str(int(bounds.exceeds_theta(Fraction(s)))) if n % 2 else "")

    def test_bad_range_exits_2(self, tmp_path, capsys):
        assert cli.main(["sweep", "--n", "5", "--r-min", "2", "--r-max", "1"]) == 2
        assert "r-min" in capsys.readouterr().err


class TestMaxent:
    def test_two_point_scores_give_log_two(self, tmp_path, capsys):
        scores = write_json(tmp_path, "scores.json", {"w": 0, "l": 1})
        assert cli.main(["maxent", "--scores", scores, "--target", str(2 / 3)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert abs(float(doc["beta"]) - math.log(2.0)) <= 1e-9
        assert abs(sum(float(v) for v in doc["distribution"].values()) - 1) <= 1e-12

    def test_unreachable_target_exits_2(self, tmp_path, capsys):
        scores = write_json(tmp_path, "scores.json", {"w": 0, "l": 1})
        assert cli.main(["maxent", "--scores", scores, "--target", "1.5"]) == 2


class TestAnalyze:
    def test_bundled_dataset_matches_expected_report(self, tmp_path):
        out = tmp_path / "report.json"
        code = cli.main(["analyze", "--data", str(DATA / "counts_beyond.json"),
                         "--out", str(out)])
        assert code == 4
        assert out.read_bytes() == (DATA / "expected_beyond_report.json").read_bytes()

    def test_csv_ingestion_gives_identical_report(self, tmp_path):
        out = tmp_path / "report.json"
        code = cli.main(["analyze", "--data", str(DATA / "counts_beyond.csv"),
                         "--structure", str(DATA / "pentagon.json"),
                         "--out", str(out)])
        assert code == 4
        assert out.read_bytes() == (DATA / "expected_beyond_report.json").read_bytes()

    def test_runs_are_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        cli.main(["analyze", "--data", str(DATA / "counts_beyond.json"), "--out", str(a)])
        cli.main(["analyze", "--data", str(DATA / "counts_beyond.json"), "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("contexts", [["C1"], ["C1", "C5"]])
    def test_huge_counts_fail_the_gate_without_a_traceback(self, tmp_path, capsys, contexts):
        # One total past the float range, then two sharing an atom: the
        # second makes the pooled variance underflow to 0.0.
        doc = json.loads((DATA / "counts_beyond.json").read_text())
        doc["structure"] = json.loads((DATA / "pentagon.json").read_text())
        for name in contexts:
            doc["counts"][name]["a1"] = 10**400
        data = tmp_path / "huge.json"
        data.write_text(json.dumps(doc))
        assert cli.main(["analyze", "--data", str(data)]) == 6
        captured = capsys.readouterr()
        assert captured.err == ""
        assert json.loads(captured.out)["withheld_reason"] == (
            "single-valuedness gate failed: max |z| = inf exceeds 1.96"
        )

    def test_gate_failure_withholds_with_exit_6(self, capsys):
        code = cli.main(["analyze", "--data", str(DATA / "counts_gate_fail.json")])
        assert code == 6
        doc = json.loads(capsys.readouterr().out)
        assert doc["classification"] is None
        assert doc["withheld_reason"] == (
            "single-valuedness gate failed: max |z| = 2.82843 exceeds 1.96"
        )

    def test_loosened_gate_lets_classification_through(self, capsys):
        code = cli.main(["analyze", "--data", str(DATA / "counts_gate_fail.json"),
                         "--z-threshold", "5.0"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["classification"]["label"] == "classical"
        assert doc["withheld_reason"] is None

    def test_missing_data_file_exits_2(self, capsys):
        assert cli.main(["analyze", "--data", "absent.json"]) == 2

    def test_a_structure_other_than_the_documents_exits_2_with_one_line(self, tmp_path, capsys):
        heptagon = write_json(tmp_path, "c7.json", pl.cycle_logic(7).to_json_dict())
        code = cli.main(["analyze", "--data", str(DATA / "counts_beyond.json"),
                         "--structure", heptagon])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: the count document names a structure other than the one passed\n")

    def test_the_documents_own_structure_may_be_passed_too(self, tmp_path):
        out = tmp_path / "report.json"
        code = cli.main(["analyze", "--data", str(DATA / "counts_beyond.json"),
                         "--structure", str(DATA / "pentagon.json"), "--out", str(out)])
        assert code == 4
        assert out.read_bytes() == (DATA / "expected_beyond_report.json").read_bytes()

    def test_inconsistent_context_sums_exit_2_with_one_line(self, tmp_path, capsys):
        # {a,b} + {c} = {a,b,c}: no weight can give all three sums 1
        structure = pl.build_event_structure(
            list("abc"), [["a", "b"], ["c"], ["a", "b", "c"]]
        )
        data = write_json(tmp_path, "counts.json", {
            "structure": structure.to_json_dict(),
            "counts": {"C1": {"a": 1, "b": 1}, "C2": {"c": 3},
                       "C3": {"a": 1, "b": 1, "c": 1}},
        })
        assert cli.main(["analyze", "--data", data]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: inconsistent constraints")
        assert captured.err.count("\n") == 1


PENTAGON_ATOMS = list(pentagon_values(0, 0))
WEIGHT = {"mode": "rational", "values": pentagon_values("1/3", "1/3")}
HALF = {"mode": "rational", "values": pentagon_values("1/2", "0")}
NOT_ADMISSIBLE = {"mode": "rational", "values": pentagon_values("1/2", "1/2")}
GATE_FAIL = str(DATA / "counts_gate_fail.json")


def write_files(tmp_path, files):
    """``files`` written to tmp_path: a dict as JSON, bytes as they are,
    None as a directory; returns each name's path, and "pent"."""
    paths = {"pent": str(DATA / "pentagon.json")}
    for name, content in files.items():
        path = tmp_path / name
        paths[name] = str(path)
        if content is None:
            path.mkdir()
        elif isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(json.dumps(content))
    return paths


# One run of each subcommand, its files (as in MALFORMED below) and its
# exit code; the codes cover every label.
REPORTS = {
    "gen-cycle": (["gen-cycle", "--n", "5"], {}, 0),
    "table1": (["table1"], {}, 0),
    "check": (["check", "--structure", "{pent}", "--weight", "{w}"], {"w": NOT_ADMISSIBLE}, 5),
    "enumerate": (["enumerate", "--structure", "{pent}"], {}, 0),
    "classify": (["classify", "--structure", "{pent}", "--weight", "{w}"], {"w": HALF}, 4),
    "represent": (["represent", "--structure", "{pent}", "--weight", "{w}"], {"w": WEIGHT}, 0),
    "glue-check": (  # a2 reads 1/2 in C2 and 1/3 in C1: no weight glues them
        ["glue-check", "--structure", "{pent}", "--scores", "{s}", "--link", "identity"],
        {"s": {"scope": "per-context", "values": {
            f"C{i}": {a: 2 if (i, a) == (2, "a2") else 1 for a in ctx}
            for i, ctx in enumerate(pl.cycle_logic(5).contexts, 1)}}}, 3),
    "sweep": (["sweep", "--n", "5", "--points", "9"], {}, 0),
    "maxent": (["maxent", "--scores", "{s}", "--target", "0.5"], {"s": {"w": 0, "l": 1}}, 0),
    "analyze": (["analyze", "--data", GATE_FAIL], {}, 6),
}


@pytest.mark.parametrize("argv,files,code", REPORTS.values(), ids=REPORTS)
def test_out_gets_the_bytes_stdout_would_and_the_same_code(tmp_path, capsys, argv, files, code):
    argv = [a.format(**write_files(tmp_path, files)) for a in argv]
    assert cli.main(argv) == code
    printed = capsys.readouterr()
    assert printed.out and printed.err == ""
    out = tmp_path / "report.out"
    assert cli.main([*argv, "--out", str(out)]) == code
    assert capsys.readouterr() == ("", "")
    assert out.read_bytes() == printed.out.encode()


# argv ("{name}" stands for a file of tmp_path), and the files to write
# there, as write_files takes them.  Each input once ended in a
# traceback, a silently ignored flag or an answer that is not one.  An
# --out that cannot be written exits 2 whatever the report's own code.
MALFORMED = {
    "represent-alpha-not-a-literal": (
        ["represent", "--structure", "{pent}", "--weight", "{w}", "--alpha", "abc"],
        {"w": WEIGHT}),
    "sweep-r-min-not-a-literal": (["sweep", "--n", "5", "--r-min", "x"], {}),
    "sweep-points-not-positive": (["sweep", "--n", "5", "--points", "-3"], {}),
    "structure-is-a-directory": (
        ["check", "--structure", "{dir}", "--weight", "{w}"], {"dir": None, "w": WEIGHT}),
    "structure-not-utf8": (
        ["check", "--structure", "{s}", "--weight", "{w}"], {"s": b"\xff\xfe{", "w": WEIGHT}),
    "counts-not-utf8": (["analyze", "--data", "{c}"], {"c": b"{\"\xe9\": 1}"}),
    "weight-values-a-list": (
        ["check", "--structure", "{pent}", "--weight", "{w}"],
        {"w": {"mode": "rational", "values": [1, 2]}}),
    "global-scores-a-list": (
        ["glue-check", "--structure", "{pent}", "--scores", "{s}"],
        {"s": {"scope": "global", "values": [1]}}),
    "context-scores-a-list": (
        ["glue-check", "--structure", "{pent}", "--scores", "{s}"],
        {"s": {"scope": "per-context", "values": {"C1": [1]}}}),
    "embedded-link-parameter-not-a-literal": (
        ["glue-check", "--structure", "{pent}", "--scores", "{s}"],
        {"s": {"scope": "global", "link": {"kind": "exponential", "beta": "x"},
               "values": {a: 0 for a in PENTAGON_ATOMS}}}),
    "maxent-score-not-a-literal": (
        ["maxent", "--scores", "{s}", "--target", "0.5"], {"s": {"w": "x", "l": 1}}),
    "maxent-target-missed-by-the-bisection": (
        ["maxent", "--scores", "{s}", "--target", "0"], {"s": {"w": 1e308, "l": -1e308}}),
    "structure-reference-not-json": (
        ["analyze", "--data", "{c}"],
        {"c": {"structure": "notes", "counts": {}}, "notes": b"hello"}),
    "exponential-link-overflow": (
        ["glue-check", "--structure", "{pent}", "--scores", "{s}", "--link", "exponential"],
        {"s": {"scope": "global", "values": {a: 1000 for a in PENTAGON_ATOMS}}}),
    "float-weight-overflow": (
        ["check", "--structure", "{pent}", "--weight", "{w}"],
        {"w": {"mode": "float", "values": {**WEIGHT["values"], "a1": 10**400}}}),
    "float-weight-nan": (
        ["check", "--structure", "{pent}", "--weight", "{w}"],
        {"w": {"mode": "float", "values": {**pentagon_values(0.25, 0.5), "a1": math.nan}}}),
    "classify-float-weight-nan": (
        ["classify", "--structure", "{pent}", "--weight", "{w}"],
        {"w": {"mode": "float", "values": {**pentagon_values(0.25, 0.5), "a1": math.nan}}}),
    "power-link-given-beta": (
        ["represent", "--structure", "{pent}", "--weight", "{w}", "--link", "power",
         "--beta", "2"], {"w": WEIGHT}),
    "out-is-a-directory": (["gen-cycle", "--n", "5", "--out", "{dir}"], {"dir": None}),
    "out-is-a-directory-where-check-exits-5": (
        ["check", "--structure", "{pent}", "--weight", "{w}", "--out", "{dir}"],
        {"w": NOT_ADMISSIBLE, "dir": None}),
    "out-is-a-directory-where-classify-exits-4": (
        ["classify", "--structure", "{pent}", "--weight", "{w}", "--out", "{dir}"],
        {"w": HALF, "dir": None}),
    "out-is-a-directory-where-analyze-exits-6": (
        ["analyze", "--data", GATE_FAIL, "--out", "{dir}"], {"dir": None}),
    "out-in-a-missing-directory": (
        ["gen-cycle", "--n", "5", "--out", "{dir}/missing/cycle.json"], {"dir": None}),
    "represent-power-k-without-a-float-score": (
        ["represent", "--structure", "{pent}", "--weight", "{w}", "--link", "power",
         "--k", "1e-300"], {"w": WEIGHT}),
    "represent-exponential-beta-without-a-finite-score": (
        ["represent", "--structure", "{pent}", "--weight", "{w}", "--link", "exponential",
         "--beta", "1e-320"], {"w": WEIGHT}),
    "represent-exponential-beta-whose-float-is-0": (
        ["represent", "--structure", "{pent}", "--weight", "{w}", "--beta", "1e-400"],
        {"w": WEIGHT}),
    "glue-check-power-k-whose-float-is-0": (
        ["glue-check", "--structure", "{pent}", "--scores", "{s}", "--link", "power",
         "--k", "1e-400"],
        {"s": {"scope": "global", "values": {a: "1/3" for a in PENTAGON_ATOMS}}}),
    "glue-check-normaliser-overflow": (
        ["glue-check", "--structure", "{pent}", "--scores", "{s}", "--link", "exponential"],
        {"s": {"scope": "global", "values": {a: 709.5 for a in PENTAGON_ATOMS}}}),
    "exponential-link-given-k": (
        ["represent", "--structure", "{pent}", "--weight", "{w}", "--k", "2"],
        {"w": WEIGHT}),
}


@pytest.mark.parametrize("argv,files", MALFORMED.values(), ids=MALFORMED)
def test_malformed_input_exits_2_with_one_line(tmp_path, capsys, argv, files):
    paths = write_files(tmp_path, files)
    assert cli.main([a.format(**paths) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert captured.err.count("\n") == 1


# Every settable option per subcommand.  A new flag, or one that comes
# back, has to be added here on purpose.
OPTIONS = {
    "gen-cycle": {"--n", "--out"},
    "table1": {"--out"},
    "check": {"--structure", "--weight", "--mode", "--tol", "--out"},
    "enumerate": {"--structure", "--limit", "--out"},
    "classify": {"--structure", "--weight", "--mode", "--tol", "--out"},
    "represent": {"--structure", "--weight", "--alpha", "--link", "--beta", "--k",
                  "--mode", "--out"},
    "glue-check": {"--structure", "--scores", "--link", "--beta", "--k", "--tol", "--out"},
    "sweep": {"--n", "--r-min", "--r-max", "--points", "--out"},
    "maxent": {"--scores", "--target", "--tol", "--out"},
    "analyze": {"--data", "--structure", "--z-threshold", "--out"},
}


class TestOptions:
    def subcommand_options(self):
        parser = cli.build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        return {
            name: [opt for action in p._actions if not isinstance(action, argparse._HelpAction)
                   for opt in action.option_strings]
            for name, p in sub.choices.items()
        }

    def test_option_sets_are_pinned(self):
        options = self.subcommand_options()
        assert {name: set(opts) for name, opts in options.items()} == OPTIONS
        assert sum(len(opts) for opts in options.values()) == 44

    @pytest.mark.parametrize("argv", [
        ["sweep", "--n", "5", "--tol", "1e-3"],
        ["analyze", "--data", str(DATA / "counts_beyond.json"), "--mode", "float"],
        ["analyze", "--data", str(DATA / "counts_beyond.json"), "--tol", "1e-3"],
    ])
    def test_dropped_flags_are_usage_errors(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments" in err
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [["gen-cycle", "--n", "abc"], ["gen-cycle"], []])
    def test_subcommand_usage_errors_are_one_line(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1

    FLOAT_FLAG_ARGV = {
        "tol": ["check", "--structure", "s.json", "--weight", "w.json", "--tol"],
        "target": ["maxent", "--scores", "s.json", "--target"],
        "z-threshold": ["analyze", "--data", str(DATA / "counts_gate_fail.json"), "--z-threshold"],
    }

    @pytest.mark.parametrize("name, value", [
        *((name, value) for name in FLOAT_FLAG_ARGV for value in ("nan", "inf", "-inf", "1e999")),
        # a tolerance and a z threshold are >= 0; a target mean may be negative
        ("tol", "-1"), ("tol", "-1e-300"), ("z-threshold", "-1"), ("z-threshold", "-0.5"),
    ])
    def test_float_flags_refuse_nan_and_infinities(self, capsys, name, value):
        *argv, flag = self.FLOAT_FLAG_ARGV[name]
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv, f"{flag}={value}"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: argument {flag}: ")
        assert captured.err.count("\n") == 1

    def test_a_target_may_be_negative_and_a_tolerance_zero(self):
        maxent = ["maxent", "--scores", "s.json", "--target"]
        parser = cli.build_parser()
        assert parser.parse_args([*maxent, "-1"]).target == -1.0
        assert parser.parse_args([*maxent, "1", "--tol", "0"]).tol == 0.0

    def test_defaults_come_from_the_library(self):
        parser = cli.build_parser()
        enum = parser.parse_args(["enumerate", "--structure", "s.json"])
        analyze = parser.parse_args(["analyze", "--data", "d.json"])
        assert enum.limit == pl.states.DEFAULT_ENUMERATION_LIMIT
        assert analyze.z_threshold == pl.empirical.DEFAULT_Z_THRESHOLD


class TestEntryPoints:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "pastedlogic.cli", "--version"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == pl.__version__

    def test_console_script(self, tmp_path):
        # Checks the declaration in this checkout's pyproject.toml, so it
        # needs no installed package: resolve the entry point and run it in a
        # fresh interpreter the way an installer's generated wrapper does.
        tomllib = pytest.importorskip("tomllib")
        with PYPROJECT.open("rb") as fh:
            value = tomllib.load(fh)["project"]["scripts"]["pastedlogic"]
        ep = importlib.metadata.EntryPoint(
            name="pastedlogic", value=value, group="console_scripts",
        )
        wrapper = (
            "import sys\n"
            f"from {ep.module} import {ep.attr.split('.')[0]}\n"
            f"sys.exit({ep.attr}())\n"
        )
        out = tmp_path / "t.json"
        proc = subprocess.run(
            [sys.executable, "-c", wrapper, "table1", "--out", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert len(json.loads(out.read_text())["rows"]) == 3

    @pytest.mark.skipif(
        not _is_installed("pastedlogic"),
        reason="the pastedlogic distribution is not installed",
    )
    def test_console_script_installed(self, tmp_path):
        exe = shutil.which("pastedlogic")
        assert exe, "console script should be installed with the package"
        out = tmp_path / "t.json"
        proc = subprocess.run([exe, "table1", "--out", str(out)], capture_output=True)
        assert proc.returncode == 0
        assert len(json.loads(out.read_text())["rows"]) == 3
