"""From per-context counts to a certified classification.

The pipeline has three stages, each with its own report:

1. estimate: per-context relative frequencies, exact rationals since
   counts are integers;
2. test single-valuedness: every shared atom should show compatible
   frequencies across the contexts containing it, measured by pooled
   two-proportion z-statistics -- if this gate fails, the data do not
   support any single weight and classification is withheld;
3. reconstruct and classify: pool shared-atom frequencies by counts,
   project onto the context-sum-one affine subspace by exact constrained
   least squares, and classify the projected weight (again withheld if
   the projection leaves the [0, 1] box).

Counts from different contexts are typically different samples, so
cross-context disagreement can have many sources; the analysis report
carries that caveat as text rather than pretending to adjudicate it.
"""

from __future__ import annotations

import csv
import io
import math
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from typing import Any

from .bounds import RegionReport, classify_weight
from .errors import (
    EmptyContextSampleError,
    NegativeCountError,
    NotAdmissibleError,
    PastedLogicError,
    SchemaError,
    ValidationError,
)
from .numeric import (_require_keys, check_tolerance, clear_denominators,
                      fields_to_json, is_exact, is_integer, load_json, read_text, render)
from .structures import EventStructure, check_names, incidence, structure_from_json_dict
from .weights import Weight, check_admissible, check_same_structure, make_weight

DEFAULT_Z_THRESHOLD = 1.96

BETWEEN_SAMPLES_NOTE = (
    "Counts for different contexts come from separate samples; agreement "
    "on shared atoms is a statistical check, not a within-trial identity."
)


# ------------------------------------------------------------------ ingest


@dataclass(frozen=True)
class CountData:
    """Validated per-context outcome counts over one structure, built by
    ``_validate_counts`` with every cell filled in structure order."""

    structure: EventStructure
    counts: Mapping[str, Mapping[str, int]]
    totals: Mapping[str, int]

    def to_json_dict(self) -> dict:
        return render({"structure": self.structure, "counts": self.counts})


def _validate_counts(
    structure: EventStructure, raw: Mapping[str, Mapping[str, Any]]
) -> CountData:
    if not isinstance(raw, Mapping):
        raise SchemaError("'counts' must be a JSON object")
    check_names(raw, structure.context_names, "contexts in the count document")
    counts: dict[str, dict[str, int]] = {}
    totals: dict[str, int] = {}
    for name, ctx in zip(structure.context_names, structure.contexts):
        table = raw[name]
        if not isinstance(table, Mapping):
            raise SchemaError(f"counts for context {name!r} must be an object")
        check_names(table, ctx, f"atoms in the counts for context {name!r}", complete=False)
        clean: dict[str, int] = {}
        for a in ctx:
            v = table.get(a, 0)
            if not is_integer(v):
                raise SchemaError(f"count for {a!r} in {name!r} must be an integer")
            if v < 0:
                raise NegativeCountError(f"negative count for {a!r} in {name!r}")
            clean[a] = v
        total = sum(clean.values())
        if total < 1:
            raise EmptyContextSampleError(f"context {name!r} has no observations")
        counts[name] = clean
        totals[name] = total
    return CountData(structure, counts, totals)


def ingest_counts(
    source: Mapping | str | Path,
    structure: EventStructure | None = None,
) -> CountData:
    """Load counts from a JSON document/file or a CSV file.

    JSON: ``{"structure": {...} | "path.json", "counts": {ctx: {atom:
    n}}}``; a string structure field is a file reference resolved
    relative to the document's own location; a structure passed as well
    must equal it, or ValidationError is raised.  CSV:
    ``context,atom,count`` rows (optional header), with the structure
    passed separately.
    """
    base = Path(".")
    doc: Mapping | None = None
    if isinstance(source, (str, Path)):
        path = Path(source)
        base = path.parent
        text = read_text(path)
        if path.suffix.lower() == ".csv":
            return _ingest_csv(text, structure)
        doc = load_json(path, text)
    elif isinstance(source, Mapping):
        doc = source
    else:
        raise SchemaError("counts source must be a mapping or a path")

    _require_keys(doc, {"structure", "counts"}, {"counts"}, "count document")
    if "structure" in doc:
        ref = doc["structure"]
        named = structure_from_json_dict(load_json(base / ref) if isinstance(ref, str) else ref)
        if structure is None:
            structure = named
        elif not (structure is named or structure == named):
            raise ValidationError("the count document names a structure other than the one passed")
    if structure is None:
        raise SchemaError("no structure: embed one or pass it explicitly")
    return _validate_counts(structure, doc["counts"])


def _ingest_csv(text: str, structure: EventStructure | None) -> CountData:
    if structure is None:
        raise SchemaError("CSV counts need the structure passed separately")
    raw: dict[str, dict[str, int]] = {}
    reader = csv.reader(io.StringIO(text))
    for k, row in enumerate(reader):
        if not row or (k == 0 and [c.strip().lower() for c in row] == ["context", "atom", "count"]):
            continue
        if len(row) != 3:
            raise SchemaError(f"CSV row {k + 1} must be context,atom,count")
        name, atom, count = (c.strip() for c in row)
        try:
            n = int(count)
        except ValueError as exc:
            raise SchemaError(f"CSV row {k + 1}: count {count!r} is not an integer") from exc
        table = raw.setdefault(name, {})
        if atom in table:
            raise SchemaError(f"CSV row {k + 1}: duplicate cell {name}/{atom}")
        table[atom] = n
    return _validate_counts(structure, raw)


# ---------------------------------------------------------------- estimate


@dataclass(frozen=True)
class FrequencyEstimates:
    """Exact per-context relative frequencies; shaped like a context
    distribution family but allowing zero cells."""

    structure: EventStructure
    frequencies: Mapping[str, Mapping[str, Fraction]]
    totals: Mapping[str, int]

    to_json_dict = fields_to_json


def estimate_frequencies(data: CountData) -> FrequencyEstimates:
    freqs = {
        name: {
            a: Fraction(data.counts[name][a], data.totals[name]) for a in ctx
        }
        for name, ctx in zip(data.structure.context_names, data.structure.contexts)
    }
    return FrequencyEstimates(data.structure, freqs, dict(data.totals))


# ------------------------------------------------------- single-valuedness


@dataclass(frozen=True)
class PairStatistic:
    """One shared atom compared across one pair of contexts."""

    atom: str
    contexts: tuple[str, str]
    freq_a: Fraction
    freq_b: Fraction
    gap: Fraction
    z: float | None
    degenerate: bool  # pooled frequency 0 or 1 with a nonzero gap

    to_json_dict = fields_to_json


@dataclass(frozen=True)
class SingleValuednessReport:
    """Pooled two-proportion z statistics for every shared atom and
    every pair of contexts containing it."""

    threshold: float
    entries: tuple[PairStatistic, ...]
    max_abs_z: float
    passed: bool

    to_json_dict = fields_to_json


def single_valuedness_test(
    data: CountData, z_threshold: float = DEFAULT_Z_THRESHOLD
) -> SingleValuednessReport:
    """Compare each shared atom's frequency across context pairs.

    For contexts C and C' with totals N and N' and successes k and k',
    the statistic is (f - f') / sqrt(pbar (1 - pbar) (1/N + 1/N')) with
    pbar = (k + k')/(N + N').  A pooled frequency of exactly 0 or 1, or
    a variance that underflows to 0.0 (counts beyond about 10**160),
    makes the denominator vanish: a zero gap then counts as agreement,
    a nonzero gap is flagged degenerate and makes max |z| infinite.  The
    gate passes when max |z| <= z_threshold, which is always finite.
    """
    check_tolerance(z_threshold, "z_threshold")
    entries: list[PairStatistic] = []
    max_abs = 0.0
    for atom, holders in incidence(data.structure).contexts_of.items():
        for ca, cb in combinations(holders, 2):
            na, nb = data.totals[ca], data.totals[cb]
            ka, kb = data.counts[ca][atom], data.counts[cb][atom]
            diff = ka * nb - kb * na  # (fa - fb) · na · nb
            # Int true divisions round correctly, as float() of a Fraction does.
            pooled = (ka + kb) / (na + nb)
            variance = pooled * (1.0 - pooled) * (1 / na + 1 / nb)
            if variance:
                z, degenerate = diff / (na * nb) / math.sqrt(variance), False
            else:
                z, degenerate = (None, True) if diff else (0.0, False)
            entries.append(PairStatistic(atom, (ca, cb), Fraction(ka, na), Fraction(kb, nb),
                                         Fraction(abs(diff), na * nb), z, degenerate))
            max_abs = math.inf if degenerate else max(max_abs, abs(z))
    return SingleValuednessReport(float(z_threshold), tuple(entries), max_abs,
                                  max_abs <= z_threshold)


# ------------------------------------------------------------- reconstruct


@dataclass(frozen=True)
class ReconstructedWeight:
    """Count-pooled estimate and its projection onto the context-sum-one
    subspace, all exact.

    ``p_hat`` pools each atom's counts over the contexts containing it;
    its context sums generally miss 1, recorded in ``residuals``.
    ``p_star`` is the Euclidean projection by ``project_affine``, and
    ``multipliers`` is keyed by the contexts that projection keeps.
    ``box_violations`` lists atoms where the projection leaves [0, 1],
    in which case classification downstream is withheld.
    """

    p_hat: Weight
    p_star: Weight
    residuals: Mapping[str, Fraction]
    multipliers: Mapping[str, Fraction]
    box_violations: tuple[str, ...]

    to_json_dict = fields_to_json


def project_affine(
    structure: EventStructure, values: Mapping[str, Fraction]
) -> tuple[dict[str, Fraction], dict[str, Fraction]]:
    """The Euclidean projection of a rational point onto the subspace
    where every context sums to 1: the kept contexts' multipliers and
    the projected point.

    ``values`` maps every atom, and nothing else, to an int or a Fraction,
    or ``ValidationError`` is raised.  Redundant context rows are dropped
    and the Gram matrix ``A Aᵀ`` (the atoms two contexts share) factored,
    once per structure (``EventStructure.projection_plan``); a call only
    substitutes ``A p̂ − 1`` to get the multipliers μ, and ``p* = p̂ − Aᵀ μ``,
    in integers over one common denominator D of p̂ and one of D·μ.
    """
    check_names(values, structure.atom_index, "atoms in the point")
    if not all(map(is_exact, values.values())):
        raise ValidationError("project_affine takes exact values: ints or Fractions")
    scale, nums = clear_denominators([values[a] for a in structure.atoms])
    kept, rows, factor = structure.projection_plan
    den, shift = factor.solve([sum(nums[p] for p in row) - scale for row in rows])
    star = [n * den for n in nums]  # μ = shift / den_star and p* = p̂ − Aᵀμ
    for row, s in zip(rows, shift):
        for p in row:
            star[p] -= s
    den_star = den * scale
    return ({name: Fraction(s, den_star) for name, s in zip(kept, shift)},
            {a: Fraction(n, den_star) for a, n in zip(structure.atoms, star)})


def reconstruct_weight(data: CountData) -> ReconstructedWeight:
    structure = data.structure
    pooled = {
        a: Fraction(sum(data.counts[n][a] for n in holders),
                    sum(data.totals[n] for n in holders))
        for a, holders in incidence(structure).contexts_of.items()
    }
    residuals = {}
    for name, ctx in zip(structure.context_names, structure.contexts):
        scale, nums = clear_denominators([pooled[a] for a in ctx])
        residuals[name] = Fraction(scale - sum(nums), scale)
    multipliers, star = project_affine(structure, pooled)
    violations = tuple(a for a, v in star.items() if not 0 <= v.numerator <= v.denominator)
    return ReconstructedWeight(make_weight(structure, pooled), make_weight(structure, star),
                               residuals, multipliers, violations)


# ----------------------------------------------------------------- analyze


@dataclass(frozen=True)
class AnalysisReport:
    """The full pipeline output: estimates, gate, reconstruction, and
    (when the gates pass) the classification with its certificates."""

    frequencies: FrequencyEstimates
    single_valuedness: SingleValuednessReport
    reconstruction: ReconstructedWeight
    classification: RegionReport | None
    withheld_reason: str | None
    note: str = BETWEEN_SAMPLES_NOTE

    to_json_dict = fields_to_json


def analyze(data: CountData, z_threshold: float = DEFAULT_Z_THRESHOLD) -> AnalysisReport:
    """Run estimate -> single-valuedness gate -> reconstruct -> classify.

    Classification is withheld (with the reason recorded) when the
    single-valuedness gate fails or when the projected weight leaves the
    [0, 1] box; both conditions mean the counts do not determine an
    admissible weight to classify.  The projected weight is exact, so
    its classification takes no tolerance.
    """
    freqs = estimate_frequencies(data)
    sv = single_valuedness_test(data, z_threshold)
    recon = reconstruct_weight(data)

    classification: RegionReport | None = None
    reason: str | None = None
    if not sv.passed:
        reason = (
            f"single-valuedness gate failed: max |z| = {sv.max_abs_z:.6g}"
            f" exceeds {z_threshold:g}"
        )
    elif recon.box_violations:
        reason = "projected weight leaves [0, 1] on: " + ", ".join(
            recon.box_violations
        )
    else:
        classification = classify_weight(data.structure, recon.p_star)
    return AnalysisReport(freqs, sv, recon, classification, reason)


# ---------------------------------------------------------------- sampling


def sample_counts(
    structure: EventStructure,
    weight: Weight,
    n_per_context: int | Mapping[str, int],
    seed: int,
) -> CountData:
    """Draw multinomial counts per context from a weight, seeded.

    A convenience for demos and tests; contexts are sampled in structure
    order from one seeded generator, so the result is a pure function of
    (structure, weight, sizes, seed).  The weight must live on
    ``structure`` and be admissible at the default tolerance, and the
    sizes are one int >= 0 for every context or a mapping naming exactly
    the structure's contexts.  A float value within the tolerance below
    0 is drawn as 0.
    """
    check_same_structure(structure, weight)
    report = check_admissible(weight)
    if not report.admissible:
        raise NotAdmissibleError(report)
    if not isinstance(n_per_context, Mapping):
        n_per_context = dict.fromkeys(structure.context_names, n_per_context)
    check_names(n_per_context, structure.context_names, "contexts in the sample sizes")
    for n in n_per_context.values():
        if not (is_integer(n) and n >= 0):
            raise ValidationError(f"sample sizes must be integers >= 0, got {n!r}")
    try:
        import numpy as np  # only sampling needs numpy; keep it off import time
    except ImportError:
        raise PastedLogicError(
            "sample_counts needs numpy: pip install 'pastedlogic[sample]'"
        ) from None

    rng = np.random.default_rng(seed)
    raw: dict[str, dict[str, int]] = {}
    for name, ctx in zip(structure.context_names, structure.contexts):
        probs = np.maximum([float(weight[a]) for a in ctx], 0.0)
        probs = probs / probs.sum()
        draw = rng.multinomial(n_per_context[name], probs)
        raw[name] = {a: int(k) for a, k in zip(ctx, draw)}
    return _validate_counts(structure, raw)
