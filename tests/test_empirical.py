"""Count ingestion, the single-valuedness gate, exact reconstruction,
and the assembled analyze pipeline."""

import json
import math
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import pastedlogic as pl
from helpers import grid_logic, pentagon_pair, random_structure, reference_projection
from pastedlogic import (
    EmptyContextSampleError,
    MissingAtomValueError,
    NegativeCountError,
    NotAdmissibleError,
    SchemaError,
    SingularSystemError,
    UnknownAtomError,
    ValidationError,
)
from pastedlogic.empirical import BETWEEN_SAMPLES_NOTE
from pastedlogic.numeric import clear_denominators

DATA = Path(__file__).parent / "data"

# Two contexts sharing a single atom: the smallest shape on which the
# cross-context gate does anything.
def fork():
    return pl.build_event_structure(
        ["a", "b", "c"], [["a", "b"], ["a", "c"]], context_names=["L", "R"]
    )


def ingest(structure, raw):
    return pl.ingest_counts({"structure": structure.to_json_dict(), "counts": raw})


def kkt_oracle(structure, p_hat):
    """Projection onto {p : every context sums to 1} from the (n+m)
    system [[I, A^T], [A, 0]] [p; mu] = [p_hat; 1], by Fraction
    Gauss-Jordan.  Needs independent context rows."""
    atoms, sets = structure.atoms, structure.context_sets
    n, m = len(atoms), len(sets)
    rows = [[Fraction(int(i == j)) for j in range(n)]
            + [Fraction(int(atoms[i] in s)) for s in sets] + [p_hat[atoms[i]]]
            for i in range(n)]
    rows += [[Fraction(int(a in s)) for a in atoms] + [Fraction(0)] * m + [Fraction(1)]
             for s in sets]
    for col in range(n + m):
        pivot = next(r for r in range(col, n + m) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows[col] = [v / rows[col][col] for v in rows[col]]
        for r in range(n + m):
            if r != col and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [v - f * w for v, w in zip(rows[r], rows[col])]
    solution = [row[-1] for row in rows]
    return (
        dict(zip(atoms, solution[:n])),
        dict(zip(structure.context_names, solution[n:])),
    )


# Counts whose exact projection leaves [0, 1] on a3 while the z gate
# still passes at the default threshold.
BOX_VIOLATION_COUNTS = {
    "C1": {"a1": 1, "a2": 2, "x1": 0},
    "C2": {"a2": 0, "a3": 0, "x2": 1},
    "C3": {"a3": 0, "a4": 1, "x3": 2},
    "C4": {"a4": 0, "a5": 1, "x4": 0},
    "C5": {"a1": 1, "a5": 2, "x5": 7},
}


class TestCountValidation:
    def test_counts_must_be_an_object(self, pentagon):
        with pytest.raises(SchemaError, match="'counts' must be a JSON object"):
            ingest(pentagon, ["C1"])

    def test_unknown_context(self, pentagon):
        with pytest.raises(UnknownAtomError, match="^unknown contexts in the count document: C9$"):
            ingest(pentagon, {"C9": {"a1": 1}})

    def test_missing_context(self, fork_counts=None):
        S = fork()
        with pytest.raises(pl.MissingAtomValueError,
                           match="^missing contexts in the count document: R$"):
            ingest(S, {"L": {"a": 1, "b": 1}})

    def test_foreign_atom(self):
        S = fork()
        with pytest.raises(UnknownAtomError,
                           match="^unknown atoms in the counts for context 'L': c$"):
            ingest(S, {"L": {"a": 1, "c": 1}, "R": {"a": 1}})

    def test_negative_count(self):
        S = fork()
        with pytest.raises(NegativeCountError, match="'b' in 'L'"):
            ingest(S, {"L": {"a": 1, "b": -2}, "R": {"a": 1}})

    @pytest.mark.parametrize("bad", [1.5, "3", True])
    def test_non_integer_count(self, bad):
        S = fork()
        with pytest.raises(SchemaError, match="must be an integer"):
            ingest(S, {"L": {"a": bad, "b": 1}, "R": {"a": 1}})

    def test_empty_context_sample(self):
        S = fork()
        with pytest.raises(EmptyContextSampleError, match="'R' has no observations"):
            ingest(S, {"L": {"a": 1, "b": 1}, "R": {"a": 0, "c": 0}})

    def test_count_table_must_be_object(self):
        S = fork()
        with pytest.raises(SchemaError, match="must be an object"):
            ingest(S, {"L": [1, 2], "R": {"a": 1}})

    def test_omitted_atoms_count_zero(self):
        S = fork()
        data = ingest(S, {"L": {"a": 3}, "R": {"a": 2, "c": 2}})
        assert data.counts["L"]["b"] == 0
        assert data.totals == {"L": 3, "R": 4}


class TestIngest:
    def test_document_with_embedded_structure(self, pentagon):
        data = ingest(pentagon, {n: {a: 1 for a in c} for n, c in
                                 zip(pentagon.context_names, pentagon.contexts)})
        assert data.structure.atoms == pentagon.atoms
        assert all(t == 3 for t in data.totals.values())

    def test_json_file(self, tmp_path):
        S = fork()
        doc = {"structure": S.to_json_dict(),
               "counts": {"L": {"a": 5, "b": 5}, "R": {"a": 4, "c": 6}}}
        path = tmp_path / "counts.json"
        path.write_text(json.dumps(doc))
        data = pl.ingest_counts(path)
        assert data.counts["R"]["c"] == 6
        assert pl.ingest_counts(str(path)).totals == data.totals

    def test_structure_file_reference_resolves_relative_to_document(self, tmp_path):
        S = fork()
        sub = tmp_path / "sub"
        sub.mkdir()
        (sub / "shape.json").write_text(json.dumps(S.to_json_dict()))
        doc = {"structure": "shape.json",
               "counts": {"L": {"a": 1, "b": 1}, "R": {"a": 1, "c": 1}}}
        path = sub / "counts.json"
        path.write_text(json.dumps(doc))
        # cwd is elsewhere, so only document-relative resolution can work
        data = pl.ingest_counts(path)
        assert data.structure.atoms == S.atoms

    def test_unknown_document_field(self):
        S = fork()
        with pytest.raises(SchemaError, match="unknown fields: notes"):
            pl.ingest_counts({"structure": S.to_json_dict(), "counts": {}, "notes": 1})

    def test_missing_counts_field(self):
        S = fork()
        with pytest.raises(SchemaError, match="^count document is missing fields: counts$"):
            pl.ingest_counts({"structure": S.to_json_dict()})

    def test_no_structure_anywhere(self):
        with pytest.raises(SchemaError, match="no structure"):
            pl.ingest_counts({"counts": {"L": {"a": 1}}})

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(SchemaError, match="invalid JSON"):
            pl.ingest_counts(path)

    def test_source_must_be_mapping_or_path(self):
        with pytest.raises(SchemaError, match="mapping or a path"):
            pl.ingest_counts(42)

    @pytest.mark.parametrize("header", [True, False])
    def test_csv(self, tmp_path, header):
        S = fork()
        rows = ["L,a,7", "L,b,3", "R,a,6", "R,c,4"]
        if header:
            rows.insert(0, "context,atom,count")
        path = tmp_path / "counts.csv"
        path.write_text("\n".join(rows) + "\n")
        data = pl.ingest_counts(path, structure=S)
        assert data.counts == {"L": {"a": 7, "b": 3}, "R": {"a": 6, "c": 4}}

    def test_csv_requires_structure(self, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text("L,a,7\n")
        with pytest.raises(SchemaError, match="structure passed separately"):
            pl.ingest_counts(path)

    def test_csv_duplicate_cell(self, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text("L,a,7\nL,a,2\n")
        with pytest.raises(SchemaError, match="duplicate cell L/a"):
            pl.ingest_counts(path, structure=fork())

    def test_csv_row_shape(self, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text("L,a\n")
        with pytest.raises(SchemaError, match="row 1 must be context,atom,count"):
            pl.ingest_counts(path, structure=fork())

    def test_csv_non_integer_count(self, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text("L,a,many\n")
        with pytest.raises(SchemaError, match="'many' is not an integer"):
            pl.ingest_counts(path, structure=fork())

    def test_a_structure_other_than_the_documents_is_refused(self):
        with pytest.raises(ValidationError, match="structure other than the one passed"):
            pl.ingest_counts(DATA / "counts_beyond.json", pl.cycle_logic(7))

    def test_the_documents_own_structure_may_be_passed_too(self, pentagon):
        alone = pl.ingest_counts(DATA / "counts_beyond.json")
        assert alone.structure is pentagon  # the document's pentagon is the live one
        assert pl.ingest_counts(DATA / "counts_beyond.json", pentagon) == alone
        copy = pl.EventStructure(pentagon.atoms, pentagon.contexts, pentagon.context_names)
        assert copy is not pentagon
        assert pl.ingest_counts(DATA / "counts_beyond.json", copy) == alone

    def test_count_data_json_round_trip(self, pentagon):
        data = pl.sample_counts(pentagon, pl.path_weight(pentagon, Fraction(1, 4)), 50, 9)
        again = pl.ingest_counts(data.to_json_dict())
        assert again.counts == data.counts
        assert again.totals == data.totals


class TestEstimate:
    def test_exact_fractions(self):
        S = fork()
        data = ingest(S, {"L": {"a": 60, "b": 40}, "R": {"a": 41, "c": 59}})
        est = pl.estimate_frequencies(data)
        assert est.frequencies["L"]["a"] == Fraction(3, 5)
        assert est.frequencies["R"]["a"] == Fraction(41, 100)
        for name, ctx in zip(S.context_names, S.contexts):
            assert sum(est.frequencies[name][a] for a in ctx) == 1
            assert all(isinstance(est.frequencies[name][a], Fraction) for a in ctx)
        assert est.totals == {"L": 100, "R": 100}

    def test_sampled_counts_estimate_consistently(self, pentagon):
        data = pl.sample_counts(pentagon, pl.path_weight(pentagon, Fraction(1, 3)), 200, 4)
        est = pl.estimate_frequencies(data)
        for name, ctx in zip(pentagon.context_names, pentagon.contexts):
            for a in ctx:
                assert est.frequencies[name][a] == Fraction(data.counts[name][a], 200)


class TestSingleValuedness:
    def test_two_proportion_oracle(self):
        # 60/100 vs 40/100 on the shared atom: pooled 1/2, z = 2 sqrt(2)
        data = ingest(fork(), {"L": {"a": 60, "b": 40}, "R": {"a": 40, "c": 60}})
        sv = pl.single_valuedness_test(data)
        assert len(sv.entries) == 1
        e = sv.entries[0]
        assert (e.atom, e.contexts) == ("a", ("L", "R"))
        assert (e.freq_a, e.freq_b, e.gap) == (Fraction(3, 5), Fraction(2, 5), Fraction(1, 5))
        assert not e.degenerate
        assert_allclose(e.z, 2.0 * math.sqrt(2.0), atol=1e-12)
        assert_allclose(sv.max_abs_z, 2.8284271247461903, rtol=0, atol=0)
        assert sv.threshold == 1.96
        assert not sv.passed

    def test_threshold_flips_outcome(self):
        data = ingest(fork(), {"L": {"a": 60, "b": 40}, "R": {"a": 40, "c": 60}})
        assert pl.single_valuedness_test(data, z_threshold=3.0).passed
        assert not pl.single_valuedness_test(data, z_threshold=2.0).passed

    def test_one_entry_per_shared_pair(self, pentagon):
        data = pl.sample_counts(pentagon, pl.path_weight(pentagon, Fraction(1, 3)), 100, 2)
        sv = pl.single_valuedness_test(data)
        # each cyclic atom lies in exactly two contexts, each x_i in one
        assert len(sv.entries) == 5
        seen = {e.atom for e in sv.entries}
        assert seen == {f"a{i}" for i in range(1, 6)}
        inc = pl.incidence(pentagon)
        for e in sv.entries:
            assert tuple(inc.contexts_of[e.atom]) == e.contexts

    @pytest.mark.parametrize(
        "left,right",
        [({"a": 100, "b": 0}, {"a": 50, "c": 0}), ({"a": 0, "b": 100}, {"a": 0, "c": 50})],
    )
    def test_pooled_extremes_with_zero_gap_pass(self, left, right):
        data = ingest(fork(), {"L": left, "R": right})
        sv = pl.single_valuedness_test(data)
        e = sv.entries[0]
        assert e.z == 0.0 and not e.degenerate
        assert sv.passed and sv.max_abs_z == 0.0

    @pytest.mark.parametrize("z_threshold", [1.96, 1e300])
    def test_a_degenerate_pair_fails_at_any_threshold(self, z_threshold):
        # Totals past 10**308 make 1/N underflow, so the pooled variance is
        # 0.0 while the gap (1/4 against 1/2 on a) is not.
        big = 10**400
        data = ingest(fork(), {"L": {"a": big, "b": 3 * big}, "R": {"a": big, "c": big}})
        sv = pl.single_valuedness_test(data, z_threshold)
        assert [(e.z, e.degenerate) for e in sv.entries] == [(None, True)]
        assert sv.max_abs_z == math.inf and not sv.passed
        assert pl.analyze(data, z_threshold).withheld_reason == (
            f"single-valuedness gate failed: max |z| = inf exceeds {z_threshold:g}"
        )

    def test_statistics_match_direct_recomputation(self, pentagon):
        rng = np.random.default_rng(31)
        for trial in range(10):
            sizes = {n: int(rng.integers(20, 300)) for n in pentagon.context_names}
            data = pl.sample_counts(
                pentagon, pl.path_weight(pentagon, Fraction(2, 7)), sizes,
                int(rng.integers(1 << 30)),
            )
            sv = pl.single_valuedness_test(data)
            for e in sv.entries:
                ca, cb = e.contexts
                na, nb = data.totals[ca], data.totals[cb]
                ka, kb = data.counts[ca][e.atom], data.counts[cb][e.atom]
                pooled = (ka + kb) / (na + nb)
                if pooled in (0.0, 1.0):
                    continue
                want = (ka / na - kb / nb) / math.sqrt(
                    pooled * (1 - pooled) * (1 / na + 1 / nb)
                )
                assert_allclose(e.z, want, atol=1e-12)

    def test_report_json_shape(self):
        data = ingest(fork(), {"L": {"a": 6, "b": 4}, "R": {"a": 5, "c": 5}})
        doc = pl.single_valuedness_test(data).to_json_dict()
        assert set(doc) == {"threshold", "entries", "max_abs_z", "passed"}
        assert doc["entries"][0]["contexts"] == ["L", "R"]


class TestReconstruct:
    def test_exactly_consistent_counts_are_fixed_points(self, pentagon):
        # path weight at r = 1/3 gives p(a) = 3/7, p(x) = 1/7; with 700
        # observations per context every frequency is exact
        w = pl.path_weight(pentagon, Fraction(1, 3))
        counts = {}
        for name, ctx in zip(pentagon.context_names, pentagon.contexts):
            counts[name] = {a: int(700 * w[a]) for a in ctx}
        rec = pl.reconstruct_weight(ingest(pentagon, counts))
        for a in pentagon.atoms:
            assert rec.p_hat[a] == w[a]
            assert rec.p_star[a] == w[a]
        assert all(r == 0 for r in rec.residuals.values())
        assert all(m == 0 for m in rec.multipliers.values())
        assert rec.box_violations == ()

    def test_projection_satisfies_constraints_exactly(self, pentagon):
        data = pl.sample_counts(pentagon, pl.path_weight(pentagon, Fraction(1, 4)), 37, 8)
        rec = pl.reconstruct_weight(data)
        inc = pl.incidence(pentagon)
        for name, ctx in zip(pentagon.context_names, pentagon.contexts):
            assert sum(rec.p_star[a] for a in ctx) == 1
            assert rec.residuals[name] == 1 - sum(rec.p_hat[a] for a in ctx)
        # stationarity: p_star + A^T multipliers == p_hat, exactly
        for a in pentagon.atoms:
            correction = sum(rec.multipliers[c] for c in inc.contexts_of[a])
            assert rec.p_star[a] + correction == rec.p_hat[a]

    def test_projection_matches_normal_equations(self, pentagon):
        A = np.array(
            [[1.0 if a in ctx else 0.0 for a in pentagon.atoms]
             for ctx in pentagon.contexts]
        )
        rng = np.random.default_rng(11)
        for trial in range(5):
            sizes = {n: int(rng.integers(50, 400)) for n in pentagon.context_names}
            data = pl.sample_counts(
                pentagon, pl.path_weight(pentagon, Fraction(3, 10)), sizes,
                int(rng.integers(1 << 30)),
            )
            rec = pl.reconstruct_weight(data)
            p_hat = np.array([float(rec.p_hat[a]) for a in pentagon.atoms])
            lam = np.linalg.solve(A @ A.T, np.ones(5) - A @ p_hat)
            want = p_hat + A.T @ lam
            got = np.array([float(rec.p_star[a]) for a in pentagon.atoms])
            assert_allclose(got, want, atol=1e-10)

    def test_projection_is_closest_feasible_point(self, pentagon):
        data = pl.sample_counts(pentagon, pl.path_weight(pentagon, Fraction(1, 4)), 60, 5)
        rec = pl.reconstruct_weight(data)
        A = np.array(
            [[1.0 if a in ctx else 0.0 for a in pentagon.atoms]
             for ctx in pentagon.contexts]
        )
        _, s, vt = np.linalg.svd(A)
        null = vt[np.count_nonzero(s > 1e-9):]
        p_hat = np.array([float(rec.p_hat[a]) for a in pentagon.atoms])
        p_star = np.array([float(rec.p_star[a]) for a in pentagon.atoms])
        shift = p_star - p_hat
        rng = np.random.default_rng(3)
        for trial in range(50):
            z = rng.normal(size=null.shape[0]) @ null
            # orthogonality of the correction to every feasible direction
            assert abs(shift @ z) <= 1e-9 * np.linalg.norm(z)
            for t in (1e-3, 0.1, 1.0):
                q = p_star + t * z
                assert np.linalg.norm(q - p_hat) >= np.linalg.norm(shift) - 1e-12

    def test_box_violation_detected(self, pentagon):
        rec = pl.reconstruct_weight(ingest(pentagon, BOX_VIOLATION_COUNTS))
        assert rec.box_violations == ("a3",)
        assert rec.p_star["a3"] == Fraction(-12098, 53625)

    def test_rank_deficient_structure_drops_a_dependent_context(self):
        # 2x2 grid: C1 + C2 = C3 + C4 as atom sets, so C4 is dropped
        grid = pl.build_event_structure(
            list("abcd"), [["a", "b"], ["c", "d"], ["a", "c"], ["b", "d"]]
        )
        data = ingest(grid, {
            "C1": {"a": 3, "b": 1}, "C2": {"c": 4, "d": 2},
            "C3": {"a": 1, "c": 2}, "C4": {"b": 2, "d": 5},
        })
        rec = pl.reconstruct_weight(data)
        assert rec.multipliers == {
            "C1": Fraction(-1109, 6006),
            "C2": Fraction(-25, 6006),
            "C3": Fraction(641, 3003),
        }
        assert list(rec.multipliers) == ["C1", "C2", "C3"]
        for ctx in grid.contexts:
            assert sum(rec.p_star[a] for a in ctx) == 1
        assert rec.box_violations == ()

    def test_inconsistent_context_sums_raise(self):
        # {a,b} + {c} = {a,b,c} as atom sets, but the sums are 1 + 1 != 1
        S = pl.build_event_structure(list("abc"), [["a", "b"], ["c"], ["a", "b", "c"]])
        data = ingest(S, {
            "C1": {"a": 1, "b": 1}, "C2": {"c": 3}, "C3": {"a": 1, "b": 1, "c": 1},
        })
        with pytest.raises(SingularSystemError, match="inconsistent constraints"):
            pl.reconstruct_weight(data)

    @pytest.mark.parametrize(
        "structure",
        [pl.cycle_logic(5), pentagon_pair(), pl.cycle_logic(21)],
        ids=["C5", "pentagon-pair", "C21"],
    )
    def test_projection_matches_kkt_oracle(self, structure):
        rng = random.Random(len(structure.atoms))
        counts = {
            name: {a: rng.randint(1, 2000) for a in ctx}
            for name, ctx in zip(structure.context_names, structure.contexts)
        }
        rec = pl.reconstruct_weight(ingest(structure, counts))
        assert any(r != 0 for r in rec.residuals.values())
        p_star, multipliers = kkt_oracle(structure, rec.p_hat)
        assert {a: rec.p_star[a] for a in structure.atoms} == p_star
        assert list(rec.multipliers.items()) == list(multipliers.items())

    def test_scattered_c201_satisfies_kkt_exactly(self):
        # Counts shaped like the pipeline's large cycles: each context
        # favours its first atom, so every residual and multiplier is
        # nonzero and the Gram solve runs through all 201 rows.
        structure = pl.cycle_logic(201)
        rng = random.Random(201)
        counts = {
            name: dict(zip(ctx, (rng.randint(1000, 1500), rng.randint(20, 200), rng.randint(300, 700))))
            for name, ctx in zip(structure.context_names, structure.contexts)
        }
        rec = pl.reconstruct_weight(ingest(structure, counts))
        assert list(rec.multipliers) == list(structure.context_names)
        assert all(rec.multipliers.values())
        for ctx in structure.contexts:
            assert sum(rec.p_star[a] for a in ctx) == 1
        contexts_of = pl.incidence(structure).contexts_of
        for a in structure.atoms:
            assert rec.p_hat[a] - rec.p_star[a] == sum(rec.multipliers[c] for c in contexts_of[a])

    def test_project_affine_is_the_reconstruction_projection(self, pentagon):
        data = pl.sample_counts(pentagon, pl.path_weight(pentagon, Fraction(1, 4)), 37, 8)
        rec = pl.reconstruct_weight(data)
        multipliers, point = pl.project_affine(pentagon, rec.p_hat.values)
        assert multipliers == rec.multipliers
        assert point == rec.p_star.values
        # an admissible point is its own projection
        w = pl.path_weight(pentagon, Fraction(2, 7))
        multipliers, point = pl.project_affine(pentagon, w.values)
        assert point == w.values and set(multipliers.values()) == {0}

    def test_report_json_shape(self, pentagon):
        data = pl.sample_counts(pentagon, pl.path_weight(pentagon, Fraction(1, 3)), 40, 1)
        doc = pl.reconstruct_weight(data).to_json_dict()
        assert set(doc) == {"p_hat", "p_star", "residuals", "multipliers", "box_violations"}


def _projection_outcome(projection, structure, values):
    try:
        multipliers, point = projection(structure, values)
    except SingularSystemError as exc:
        return str(exc)
    return list(multipliers.items()), point


def _random_values(structure, rng, top):
    return {a: Fraction(rng.randint(0, top), rng.randint(1, top)) for a in structure.atoms}


def _array_grid(k):
    """A k x k array of atoms whose rows and columns are the contexts: the
    rows sum to the columns, so the last column is a dependent context."""
    atoms = [f"e{i}_{j}" for i in range(k) for j in range(k)]
    return pl.build_event_structure(
        atoms, [atoms[i * k:(i + 1) * k] for i in range(k)] + [atoms[j::k] for j in range(k)])


class TestProjectAffine:
    """``project_affine`` pushes its right-hand side through the Gram
    factor that ``projection_plan`` holds; it must give the dense
    reference's kept contexts, multipliers, point and errors."""

    @pytest.mark.parametrize("structure", [
        *(pl.cycle_logic(n) for n in (3, 4, 5, 6, 7, 8, 9, 11, 21, 31, 41, 64, 101)),
        *(grid_logic(k) for k in range(2, 9)),
        *(_array_grid(k) for k in (2, 3, 5)),
        pentagon_pair(),
    ], ids=lambda s: f"{len(s.contexts)}-contexts-{len(s.atoms)}-atoms")
    def test_equals_the_dense_reference(self, structure):
        rng = random.Random(len(structure.atoms))
        for top in (1, 40, 5000):
            values = _random_values(structure, rng, top)
            got = _projection_outcome(pl.project_affine, structure, values)
            assert got == _projection_outcome(reference_projection, structure, values)

    def test_the_last_column_of_an_atom_array_is_dropped(self):
        for k in (2, 3, 5):
            kept, _, _ = _array_grid(k).projection_plan
            assert kept == [f"C{i}" for i in range(1, 2 * k)]

    def test_a_common_denominator_past_500_bits(self):
        # Pooled frequencies like the pipeline's scattered C41 counts: one
        # denominator per atom, between 1 500 and 5 000.
        structure, rng = pl.cycle_logic(41), random.Random(41)
        values = {a: Fraction(rng.randint(1, 1500), rng.randint(1500, 5000)) for a in structure.atoms}
        assert clear_denominators(list(values.values()))[0].bit_length() > 500
        got = _projection_outcome(pl.project_affine, structure, values)
        assert got == _projection_outcome(reference_projection, structure, values)

    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([1, 7, 300]))
    def test_random_structures(self, seed, top):
        # About two in five have a dependent context whose sum is not 1,
        # so both sides raise "inconsistent constraints".
        structure = random_structure(np.random.default_rng(seed))
        values = _random_values(structure, random.Random(seed), top)
        got = _projection_outcome(pl.project_affine, structure, values)
        assert got == _projection_outcome(reference_projection, structure, values)

    def test_a_missing_atom_is_named(self, pentagon):
        values = dict.fromkeys(pentagon.atoms, Fraction(1, 3))
        del values["x5"]
        with pytest.raises(MissingAtomValueError, match="missing atoms in the point: x5"):
            pl.project_affine(pentagon, values)

    def test_an_extra_atom_is_named(self, pentagon):
        values = {**dict.fromkeys(pentagon.atoms, Fraction(1, 3)), "z": Fraction(0)}
        with pytest.raises(UnknownAtomError, match="unknown atoms in the point: z"):
            pl.project_affine(pentagon, values)

    @pytest.mark.parametrize("value", [0.5, "1/2"])
    def test_a_value_that_is_not_exact_is_refused(self, pentagon, value):
        values = {**dict.fromkeys(pentagon.atoms, Fraction(1, 3)), "a1": value}
        with pytest.raises(ValidationError, match="exact values"):
            pl.project_affine(pentagon, values)


class TestAnalyze:
    def test_consistent_counts_classify(self, pentagon):
        w = pl.path_weight(pentagon, Fraction(1, 3))
        counts = {
            name: {a: int(700 * w[a]) for a in ctx}
            for name, ctx in zip(pentagon.context_names, pentagon.contexts)
        }
        report = pl.analyze(ingest(pentagon, counts))
        assert report.withheld_reason is None
        assert report.classification is not None
        assert report.classification.label == "admissible-nonclassical"
        assert report.single_valuedness.passed
        assert report.note == BETWEEN_SAMPLES_NOTE

    def test_gate_failure_withholds(self):
        data = ingest(fork(), {"L": {"a": 60, "b": 40}, "R": {"a": 40, "c": 60}})
        report = pl.analyze(data)
        assert report.classification is None
        assert report.withheld_reason == (
            "single-valuedness gate failed: max |z| = 2.82843 exceeds 1.96"
        )

    def test_an_exact_threshold_is_reported_as_its_float(self):
        report = pl.analyze(pl.ingest_counts(DATA / "counts_gate_fail.json"), Fraction(3, 2))
        assert report.withheld_reason.endswith("exceeds 1.5")

    def test_box_violation_withholds(self, pentagon):
        report = pl.analyze(ingest(pentagon, BOX_VIOLATION_COUNTS))
        assert report.single_valuedness.passed  # the gate alone is quiet here
        assert report.classification is None
        assert report.withheld_reason == "projected weight leaves [0, 1] on: a3"

    def test_report_json_shape(self, pentagon):
        data = pl.sample_counts(pentagon, pl.path_weight(pentagon, Fraction(1, 3)), 500, 6)
        doc = pl.analyze(data).to_json_dict()
        assert set(doc) == {
            "frequencies", "single_valuedness", "reconstruction",
            "classification", "withheld_reason", "note",
        }
        assert doc["note"] == BETWEEN_SAMPLES_NOTE

    def test_estimates_once(self, pentagon, monkeypatch):
        calls = []
        real = pl.empirical.estimate_frequencies
        monkeypatch.setattr(pl.empirical, "estimate_frequencies",
                            lambda data: calls.append(1) or real(data))
        data = pl.sample_counts(pentagon, pl.path_weight(pentagon, Fraction(1, 3)), 500, 6)
        pl.analyze(data)
        assert len(calls) == 1


class TestSampleCounts:
    def test_deterministic_in_seed(self, pentagon):
        w = pl.path_weight(pentagon, Fraction(1, 5))
        a = pl.sample_counts(pentagon, w, 1000, 42)
        b = pl.sample_counts(pentagon, w, 1000, 42)
        c = pl.sample_counts(pentagon, w, 1000, 43)
        assert a.counts == b.counts
        assert a.counts != c.counts

    def test_totals_match_requested_sizes(self, pentagon):
        w = pl.path_weight(pentagon, Fraction(1, 5))
        assert all(t == 250 for t in pl.sample_counts(pentagon, w, 250, 0).totals.values())
        sizes = {"C1": 10, "C2": 20, "C3": 30, "C4": 40, "C5": 50}
        assert pl.sample_counts(pentagon, w, sizes, 0).totals == sizes

    def test_a_weight_on_another_structure_is_refused(self, pentagon):
        with pytest.raises(ValidationError, match="over a different structure"):
            pl.sample_counts(pentagon, pl.path_weight(pl.cycle_logic(7), 1), 10, 0)

    def test_a_sizes_mapping_names_exactly_the_contexts(self, pentagon):
        w = pl.path_weight(pentagon, Fraction(1, 5))
        sizes = dict.fromkeys(pentagon.context_names, 10)
        with pytest.raises(MissingAtomValueError, match="^missing contexts in the sample sizes: C5$"):
            pl.sample_counts(pentagon, w, {n: 10 for n in pentagon.context_names[:4]}, 0)
        with pytest.raises(UnknownAtomError, match="^unknown contexts in the sample sizes: C9$"):
            pl.sample_counts(pentagon, w, {**sizes, "C9": 10}, 0)

    @pytest.mark.parametrize("size", [2.5, True, -1, "10", None])
    def test_a_size_is_an_int_at_or_above_zero(self, pentagon, size):
        w = pl.path_weight(pentagon, Fraction(1, 5))
        refusal = r"^sample sizes must be integers >= 0, got "
        with pytest.raises(ValidationError, match=refusal):
            pl.sample_counts(pentagon, w, size, 0)
        with pytest.raises(ValidationError, match=refusal):
            pl.sample_counts(pentagon, w, {**dict.fromkeys(pentagon.context_names, 10), "C3": size}, 0)

    def test_an_inadmissible_weight_is_refused(self, pentagon):
        # 1/2 on every atom sums to 3/2 per context; the half weight with
        # x1 = -1/2, or with C1 = (a1, a2, x1) all zero, is refused too.
        half = pl.half_weight(pentagon).values
        halves = dict.fromkeys(pentagon.atoms, Fraction(1, 2))
        negative = {**half, "x1": Fraction(-1, 2)}
        zeros = {**half, "a1": Fraction(0), "a2": Fraction(0)}
        for values in (halves, negative, zeros):
            weight = pl.make_weight(pentagon, values)
            with pytest.raises(NotAdmissibleError) as err:
                pl.sample_counts(pentagon, weight, 10, 0)
            assert err.value.report == pl.check_admissible(weight)

    def test_a_value_just_below_zero_is_drawn_as_zero(self, pentagon):
        values = dict(pl.to_float(pl.half_weight(pentagon)).values)
        values["a1"] += 1e-12
        values["x1"] = -1e-12
        weight = pl.make_weight(pentagon, values, mode="float")
        assert pl.check_admissible(weight).admissible
        assert pl.sample_counts(pentagon, weight, 100, 3).counts["C1"]["x1"] == 0

    def test_numpy_is_imported_only_for_sampling(self):
        """Not by any layer: the probe loads the CLI, which imports every
        one, and touches every exported name."""
        probe = (
            "import sys, pastedlogic, pastedlogic.cli\n"
            "for name in pastedlogic.__all__:\n"
            "    getattr(pastedlogic, name)\n"
            "print('pastedlogic.softmax' in sys.modules, 'numpy' in sys.modules)"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "True False"

    def test_missing_numpy_is_a_one_line_error_naming_the_extra(self):
        probe = (
            "import sys\n"
            "sys.modules['numpy'] = None\n"
            "import pastedlogic as pl\n"
            "s = pl.cycle_logic(5)\n"
            "try:\n"
            "    pl.sample_counts(s, pl.half_weight(s), 10, 0)\n"
            "except pl.PastedLogicError as exc:\n"
            "    print(exc)\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, check=True
        )
        assert out.stdout.count("\n") == 1
        assert "pastedlogic[sample]" in out.stdout
        assert out.stderr == ""

    def test_admissibility_is_checked_before_numpy_is_imported(self):
        probe = (
            "import sys\n"
            "sys.modules['numpy'] = None\n"
            "import pastedlogic as pl\n"
            "s = pl.cycle_logic(5)\n"
            "w = pl.make_weight(s, dict.fromkeys(s.atoms, 1))\n"
            "try:\n"
            "    pl.sample_counts(s, w, 10, 0)\n"
            "except pl.NotAdmissibleError as exc:\n"
            "    print(exc)\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, check=True
        )
        assert out.stdout == "weight is not admissible\n"

    def test_zero_probability_atoms_never_drawn(self, pentagon):
        data = pl.sample_counts(pentagon, pl.half_weight(pentagon), 100, 7)
        for name, ctx in zip(pentagon.context_names, pentagon.contexts):
            assert data.counts[name][f"x{name[1:]}"] == 0
