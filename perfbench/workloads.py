"""The four workloads: how each builds its inputs from the seed, which
library calls it times, and how each output is checked.

A workload is a sequence of rounds.  Every round holds the same kinds of
operation in the same order (``Op.kind``); only the seeded values
differ from round to round.  Inputs are generated outside the timed
region and handed to the library in its own JSON formats.
"""

from __future__ import annotations

import contextlib
import copy
import csv
import io
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from random import Random
from typing import Any, Callable

import pastedlogic as pl
from pastedlogic import cli as pl_cli

from checker import (
    Spec,
    check_analysis,
    check_gluing_report,
    check_region,
    check_round_trip,
    check_structure_doc,
    context_probabilities,
    cycle_spec,
    exceeds_theta,
    expected_path_label,
    grid_spec,
    pentagon_pair_spec,
    q,
    require,
    theta_threshold,
    two_valued_states,
    FLOAT_TOL,
)

REGIONS = ("beyond", "between", "classical")
LABEL_EXIT = {"classical": 0, "admissible-nonclassical": 3, "beyond-theta": 4, "withheld": 6}


@dataclass
class Op:
    """One closed-loop operation: ``call`` is the timed library call,
    ``render`` turns its result into the JSON form the checks read, and
    ``tamper`` makes a copy of that form which ``check`` must reject."""

    kind: str
    call: Callable[[], Any]
    render: Callable[[Any], Any]
    check: Callable[[Any], None]
    tamper: Callable[[Any], Any]


# ---------------------------------------------------------------- inputs


def sample_rational(rng: Random, lo: Fraction, hi: Fraction) -> Fraction:
    """A rational strictly inside (lo, hi) with a denominator in [8, 256]."""
    for _ in range(1000):
        den = rng.randint(8, 256)
        first = math.floor(lo * den) + 1
        last = math.ceil(hi * den) - 1
        if first <= last:
            return Fraction(rng.randint(first, last), den)
    raise ValueError(f"no rational with a small denominator in ({lo}, {hi})")


def path_regions(rng: Random, n: int) -> dict[str, Fraction]:
    """One seeded r per region of the odd n-cycle's path family.  The
    classical band stays within 30% of its threshold: the exact LP's
    cost grows with the distance from it, and a narrow band keeps the
    cost of one round steady from seed to seed."""
    rc = Fraction(2, n - 1)
    rt = theta_threshold(n)
    return {
        "beyond": sample_rational(rng, rt / 10, rt * 9 / 10),
        "between": sample_rational(rng, rt * 11 / 10, rc * 9 / 10),
        "classical": sample_rational(rng, rc * 21 / 20, rc * 13 / 10),
    }


def path_values(spec: Spec, r) -> dict[str, Any]:
    """The path family p(a) = 1/(2+r), p(x) = r/(2+r); float r gives the
    float values a float user would pass."""
    if isinstance(r, float):
        a, x = 1.0 / (2.0 + r), r / (2.0 + r)
    else:
        a, x = 1 / (2 + r), r / (2 + r)
    return {atom: (a if atom in spec.cyclic_atoms else x) for atom in spec.atoms}


def mixture_values(spec: Spec, rng: Random) -> dict[str, Fraction]:
    """lambda * v + (1 - lambda) * half for a seeded two-valued state v."""
    ones = rng.choice(two_valued_states(spec))
    lam = Fraction(rng.randint(1, 7), 8)
    half = spec.half()
    return {a: lam * (1 if a in ones else 0) + (1 - lam) * half[a] for a in spec.atoms}


def weight_doc(values: dict[str, Any]) -> dict:
    if all(isinstance(v, float) for v in values.values()):
        return {"mode": "float", "values": dict(values)}
    return {"mode": "rational", "values": {a: str(v) for a, v in values.items()}}


def exact(values: dict[str, Any]) -> dict[str, Fraction]:
    return {a: Fraction(v) for a, v in values.items()}


# --------------------------------------------------------------- tampering


def tamper_region(out: dict) -> dict:
    bad = copy.deepcopy(out)
    membership = bad["membership"] if "membership" in bad else bad["classification"]["membership"]
    if membership["classical"]:
        key = next(iter(membership["coefficients"]))
        membership["coefficients"][key] = str(q(membership["coefficients"][key]) + Fraction(1, 7))
    else:
        membership["witness_value"] = membership["witness_bound"]
    return bad


def tamper_projection(out: dict) -> dict:
    bad = copy.deepcopy(out)
    mu = bad["reconstruction"]["multipliers"]
    key = next(iter(mu))
    mu[key] = str(q(mu[key]) + 1)
    return bad


def tamper_glued(out: dict) -> dict:
    bad = copy.deepcopy(out)
    values = bad["weight"]["values"]
    key = next(iter(values))
    v = values[key]
    values[key] = v + 1e-3 if isinstance(v, float) else str(q(v) + Fraction(1, 1000))
    return bad


def tamper_verdict(out: dict) -> dict:
    bad = copy.deepcopy(out)
    bad["glued"] = not bad["glued"]
    return bad


def tamper_exit(out: dict) -> dict:
    return {"exit": out["exit"] + 1, "stdout": out["stdout"]}


# --------------------------------------------------------------- workloads


class Workload:
    """Base: structures written as JSON at set-up, loaded through the
    library's loader, then rounds of operations."""

    name: str
    tail_percentile: float

    def __init__(self, seed: int, work: Path, root: Path, tiny: bool = False):
        self.seed = seed
        self.work = work
        self.root = root
        self.tiny = tiny
        self.specs: dict[str, Spec] = {}
        self.structures: dict[str, Any] = {}

    def rng(self, k: int) -> Random:
        return Random(f"{self.name}/{self.seed}/{k}")

    def add_specs(self, specs) -> None:
        for spec in specs:
            self.specs[spec.name] = spec

    def structure_files(self) -> list[Path]:
        """Write every structure as JSON; these are the files set-up loads."""
        files = []
        for spec in self.specs.values():
            path = self.work / f"{spec.name}.json"
            path.write_text(json.dumps(spec.to_json_dict()))
            files.append(path)
        return files

    def load(self, files: list[Path]) -> None:
        for path in files:
            self.structures[path.stem] = pl.structure_from_json(path.read_text())

    def round(self, k: int) -> list[Op]:
        raise NotImplementedError


class Classify(Workload):
    """classify_weight with no precomputed states, as the CLI calls it."""

    name = "classify"
    tail_percentile = 75.0

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.cycles = (5, 7) if self.tiny else (5, 7, 9, 11, 13)
        self.add_specs([cycle_spec(n) for n in self.cycles] + [pentagon_pair_spec()])

    def op(self, kind: str, spec: Spec, values: dict, expected: str | None) -> Op:
        structure = self.structures[spec.name]
        weight = pl.weight_from_json_dict(weight_doc(values), structure)
        point = exact(values)
        return Op(
            kind,
            lambda: pl.classify_weight(structure, weight),
            lambda report: report.to_json_dict(),
            lambda out: check_region(spec, out, point, expected),
            tamper_region,
        )

    def round(self, k: int) -> list[Op]:
        rng = self.rng(k)
        ops = []
        for idx, n in enumerate(self.cycles):
            spec = self.specs[f"C{n}"]
            rs = path_regions(rng, n)
            for region in REGIONS:
                r = rs[region]
                ops.append(self.op(f"{spec.name}/{region}", spec, path_values(spec, r), expected_path_label(n, r)))
            r = float(rs[REGIONS[(k + idx) % 3]])
            ops.append(self.op(f"{spec.name}/float", spec, path_values(spec, r), expected_path_label(n, Fraction(r))))
            if n == 9:
                # At n >= 11 a mixture's LP cost swings with the drawn state
                # and would set the round time's spread across seeds; with
                # mixtures on n = 9 and the pasting only, the median of the
                # 23 kinds falls inside the n = 9 cluster, not at its edge.
                ops.append(self.op(f"{spec.name}/mixture", spec, mixture_values(spec, rng), None))
        pair = self.specs["P2"]
        for j in range(2):
            ops.append(self.op(f"P2/mixture{j}", pair, mixture_values(pair, rng), None))
        return ops


class Pipeline(Workload):
    """ingest_counts -> analyze on count files, half JSON and half CSV."""

    name = "pipeline"
    # The three large cycles are the top third of a round's kinds; p82
    # falls two fifths of the way into the n = 31 kind's samples.  p80,
    # at that kind's lower edge, reads its fastest sample or two, which
    # spread 0.13 over ten seeds.
    tail_percentile = 82.0
    # One region of the path family per cycle, so that no kind's cost
    # changes from round to round (the median falls on the n = 9 kind).
    REGION = {5: "classical", 7: "between", 9: "beyond", 11: "classical"}

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        small = (5, 7) if self.tiny else (5, 7, 9, 11)
        big = (21,) if self.tiny else (21, 31, 41)
        # The pasting appears twice per round so that the mix has an odd
        # number of kinds: with equal weights the median then falls inside
        # one kind's samples, not on the edge between two kinds.
        pair = pentagon_pair_spec()
        self.proportional = [cycle_spec(n) for n in small] + [pair, pair]
        self.scattered = [cycle_spec(n) for n in big]
        self.add_specs(self.proportional + self.scattered)

    @staticmethod
    def proportional_counts(spec: Spec, values: dict[str, Fraction], rng: Random) -> dict:
        """Counts exactly proportional to an admissible weight: every
        shared atom has the same frequency in each of its contexts."""
        scale = math.lcm(*(v.denominator for v in values.values()))
        counts = {}
        for name, ctx in spec.contexts:
            total = scale * rng.randint(1, 3)
            counts[name] = {a: int(values[a] * total) for a in ctx}
        return counts

    @staticmethod
    def scattered_counts(spec: Spec, rng: Random) -> dict:
        """Counts from per-context softmax scores that favour each
        context's first atom, so a shared atom is frequent in one context
        and rare in the next: |z| runs to dozens, past any threshold."""
        counts = {}
        for name, ctx in spec.contexts:
            scores = [2.0 + rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3), 1.0 + rng.uniform(-0.3, 0.3)]
            weights = [math.exp(s) for s in scores]
            total = rng.randint(1500, 2500)
            cells = [int(total * w / sum(weights)) for w in weights]
            cells[0] += total - sum(cells)
            counts[name] = dict(zip(ctx, cells))
        return counts

    def op(self, kind: str, spec: Spec, counts: dict, expected: str, path: Path, csv_input: bool) -> Op:
        structure = self.structures[spec.name] if csv_input else None
        return Op(
            kind,
            lambda: pl.analyze(pl.ingest_counts(path, structure)),
            lambda report: report.to_json_dict(),
            lambda out: check_analysis(spec, counts, out, expected),
            tamper_projection,
        )

    def round(self, k: int) -> list[Op]:
        rng = self.rng(k)
        ops = []
        for idx, spec in enumerate(self.proportional + self.scattered):
            if spec in self.scattered:
                counts, expected = self.scattered_counts(spec, rng), "withheld"
            elif spec.cycle_n is not None:
                r = path_regions(rng, spec.cycle_n)[self.REGION[spec.cycle_n]]
                values = path_values(spec, r)
                counts, expected = self.proportional_counts(spec, values, rng), expected_path_label(spec.cycle_n, r)
            else:
                counts, expected = self.proportional_counts(spec, mixture_values(spec, rng), rng), None
            csv_input = (k + idx) % 2 == 1
            stem = self.work / f"counts-{k}-{idx}"
            if csv_input:
                path = stem.with_suffix(".csv")
                lines = ["context,atom,count"] + [
                    f"{name},{a},{n}" for name, table in counts.items() for a, n in table.items()
                ]
                path.write_text("\n".join(lines) + "\n")
            else:
                path = stem.with_suffix(".json")
                path.write_text(json.dumps({"structure": f"{spec.name}.json", "counts": counts}))
            ops.append(self.op(f"{spec.name}/{idx}", spec, counts, expected, path, csv_input))
        return ops


class Gluing(Workload):
    """represent_weight -> context_softmax -> gluing_check -> glue_to_weight,
    plus per-context score families that do not glue."""

    name = "gluing"
    tail_percentile = 97.5

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        cycles = (11,) if self.tiny else (41, 101, 201)
        self.add_specs([cycle_spec(n) for n in cycles] + [grid_spec(3 if self.tiny else 8)])

    @staticmethod
    def positive_weight(spec: Spec, rng: Random) -> dict[str, Fraction]:
        """A strictly positive admissible weight: seeded values on the
        shared atoms, the remainder of each context on its last atom."""
        values: dict[str, Fraction] = {}
        if spec.cycle_n is not None:
            for a in spec.cyclic_atoms:
                values[a] = Fraction(rng.randint(2, 6), 16)
        else:
            for a in spec.atoms:
                if len(spec.holders[a]) > 1:
                    values[a] = Fraction(rng.randint(1, 4), 20)
        for _, ctx in spec.contexts:
            last = ctx[-1]
            values[last] = 1 - sum(values[a] for a in ctx[:-1])
        return values

    def glued_op(self, kind: str, spec: Spec, values: dict, link_doc: dict) -> Op:
        structure = self.structures[spec.name]
        weight = pl.weight_from_json_dict(weight_doc(values), structure)

        def call():
            link = pl.link_from_json_dict(link_doc)
            scores = pl.represent_weight(structure, weight, link)
            family = pl.context_softmax(structure, scores, link)
            return scores, pl.gluing_check(family), pl.glue_to_weight(family)

        def render(result):
            scores, report, back = result
            return {
                "scores": dict(scores.to_json_dict(), link=link_doc),
                "report": report.to_json_dict(),
                "weight": back.to_json_dict(),
            }

        return Op(kind, call, render, lambda out: check_round_trip(spec, values, out), tamper_glued)

    def unglued_op(self, kind: str, spec: Spec, table: dict, link_doc: dict) -> Op:
        structure = self.structures[spec.name]
        scores = pl.scores_from_json_dict({"scope": "per-context", "values": table})

        def call():
            link = pl.link_from_json_dict(link_doc)
            return pl.gluing_check(pl.context_softmax(structure, scores, link))

        def check(out):
            probs = context_probabilities(spec, lambda c, a: table[c][a], link_doc)
            require(not check_gluing_report(spec, out, probs, link_doc), "perturbed family glued")

        return Op(kind, call, lambda report: report.to_json_dict(), check, tamper_verdict)

    def round(self, k: int) -> list[Op]:
        rng = self.rng(k)
        ops = []
        for spec in self.specs.values():
            values = self.positive_weight(spec, rng)
            beta = rng.choice((0.5, 1.0, 2.0))
            exp_link = {"kind": "exponential", "beta": beta}
            ops.append(self.glued_op(f"{spec.name}/identity", spec, values, {"kind": "identity"}))
            ops.append(self.glued_op(f"{spec.name}/exponential", spec, values, exp_link))
            shared = [a for a in spec.atoms if len(spec.holders[a]) > 1]
            bumps = {}
            for _ in range(rng.randint(1, 3)):
                a = rng.choice(shared)
                bumps[(rng.choice(spec.holders[a]), a)] = rng.randint(1, 4)
            exact_table = {
                name: {a: str(values[a] * (1 + Fraction(bumps.get((name, a), 0), 8))) for a in ctx}
                for name, ctx in spec.contexts
            }
            float_table = {
                name: {a: math.log(values[a]) / beta + bumps.get((name, a), 0) / 10 for a in ctx}
                for name, ctx in spec.contexts
            }
            ops.append(self.unglued_op(f"{spec.name}/identity-unglued", spec, exact_table, {"kind": "identity"}))
            ops.append(self.unglued_op(f"{spec.name}/exponential-unglued", spec, float_table, exp_link))
        return ops


class Cli(Workload):
    """Sequential ``python -m pastedlogic.cli`` runs over every subcommand
    but ``enumerate``, on the pentagon files of tests/data."""

    name = "cli"
    tail_percentile = 75.0

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.spec = cycle_spec(5)
        self.data = self.root / "tests" / "data"
        self.pentagon = self.data / "pentagon.json"
        self.runner: Callable[[list[str]], dict] = self.run_in_process
        self._counts = {"json": self.own_counts_json(), "csv": self.own_counts_csv()}

    def structure_files(self) -> list[Path]:
        return [self.pentagon]

    # The count files are read here with json and csv, not the library.
    def own_counts_json(self) -> dict:
        doc = json.loads((self.data / "counts_beyond.json").read_text())
        structure = json.loads((self.data / doc["structure"]).read_text())
        check_structure_doc(self.spec, structure)
        return doc["counts"]

    def own_counts_csv(self) -> dict:
        counts: dict = {}
        rows = csv.reader(io.StringIO((self.data / "counts_beyond.csv").read_text()))
        for row in list(rows)[1:]:
            counts.setdefault(row[0], {})[row[1]] = int(row[2])
        return counts

    def run_in_process(self, argv: list[str]) -> dict:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = pl_cli.main(argv)
        return {"exit": code, "stdout": out.getvalue()}

    def op(self, kind: str, argv: list[str], check: Callable[[int, str], None]) -> Op:
        def checked(out):
            check(out["exit"], out["stdout"])

        return Op(kind, lambda: self.runner(argv), lambda out: out, checked, tamper_exit)

    def write(self, k: int, stem: str, doc) -> str:
        path = self.work / f"{stem}-{k}.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def round(self, k: int) -> list[Op]:
        rng = self.rng(k)
        spec = self.spec
        structure = str(self.pentagon)
        rs = path_regions(rng, 5)
        ops = []

        def gen_cycle(code, text):
            require(code == 0, f"exit {code}")
            check_structure_doc(spec, json.loads(text))

        ops.append(self.op("gen-cycle", ["gen-cycle", "--n", "5"], gen_cycle))

        check_values = path_values(spec, rs[REGIONS[k % 3]])

        def check_cmd(code, text):
            doc = json.loads(text)
            require(code == 0 and doc["admissible"] is True, f"exit {code}")
            require(all(q(s) == 1 for s in doc["context_sums"].values()), "context sums")
            require(q(doc["max_deviation"]) == 0, "max deviation")

        ops.append(self.op("check", ["check", "--structure", structure, "--weight",
                                     self.write(k, "check", weight_doc(check_values))], check_cmd))

        r = rs[REGIONS[(k + 1) % 3]]
        expected = expected_path_label(5, r)
        point = exact(path_values(spec, r))

        def classify(code, text):
            check_region(spec, json.loads(text), point, expected)
            require(code == LABEL_EXIT[expected], f"exit {code} for {expected}")

        ops.append(self.op("classify", ["classify", "--structure", structure, "--weight",
                                        self.write(k, "classify", weight_doc(path_values(spec, r)))], classify))

        rep_values = path_values(spec, rs["classical"])

        def represent(code, text):
            require(code == 0, f"exit {code}")
            doc = json.loads(text)
            probs = context_probabilities(spec, lambda c, a: doc["values"][a], doc["link"])
            for a in spec.atoms:
                for c in spec.holders[a]:
                    require(abs(probs[c][a] - rep_values[a]) <= FLOAT_TOL, f"scores miss {a}")

        ops.append(self.op("represent", ["represent", "--structure", structure, "--weight",
                                         self.write(k, "represent", weight_doc(rep_values))], represent))

        glued = k % 2 == 0
        table = {name: {a: rep_values[a] for a in ctx} for name, ctx in spec.contexts}
        if not glued:
            table["C2"]["a3"] *= Fraction(3, 2)
        link = {"kind": "identity"}
        scores_doc = {"scope": "per-context", "link": link,
                      "values": {c: {a: str(v) for a, v in t.items()} for c, t in table.items()}}

        def glue_check(code, text):
            probs = context_probabilities(spec, lambda c, a: table[c][a], link)
            require(check_gluing_report(spec, json.loads(text), probs, link) is glued, "verdict")
            require(code == (0 if glued else 3), f"exit {code}")

        ops.append(self.op("glue-check", ["glue-check", "--structure", structure, "--scores",
                                          self.write(k, "scores", scores_doc)], glue_check))

        lo = Fraction(rng.randint(0, 4), 8)
        hi = lo + Fraction(rng.randint(2, 8), 8)
        points = 40

        def sweep(code, text):
            require(code == 0, f"exit {code}")
            lines = text.strip().split("\n")
            require(lines[0] == "r,cyclic_sum,exceeds_classical,exceeds_theta", "header")
            require(len(lines) == points + 1, "line count")
            for i, line in enumerate(lines[1:], start=1):
                r_i = lo + (hi - lo) * Fraction(i, points + 1)
                s = Fraction(5) / (2 + r_i)
                fields = line.split(",")
                require(Fraction(fields[0]) == r_i and Fraction(fields[1]) == s, f"line {i}")
                require(fields[2] == str(int(s > 2)) and fields[3] == str(int(exceeds_theta(5, s))), f"flags {i}")

        ops.append(self.op("sweep", ["sweep", "--n", "5", "--r-min", str(lo), "--r-max", str(hi),
                                     "--points", str(points)], sweep))

        scores = {f"o{i}": round(rng.uniform(-2.0, 2.0), 3) for i in range(4)}
        low, high = min(scores.values()), max(scores.values())
        target = round(low + (high - low) * rng.uniform(0.2, 0.8), 3)

        def maxent(code, text):
            require(code == 0, f"exit {code}")
            doc = json.loads(text)
            beta, dist = doc["beta"], doc["distribution"]
            z = sum(math.exp(beta * u) for u in scores.values())
            require(abs(sum(dist.values()) - 1) <= FLOAT_TOL, "distribution sums")
            require(abs(sum(dist[o] * u for o, u in scores.items()) - target) <= 1e-8, "mean")
            require(all(abs(dist[o] - math.exp(beta * u) / z) <= FLOAT_TOL for o, u in scores.items()), "not a softmax")

        ops.append(self.op("maxent", ["maxent", "--scores", self.write(k, "maxent", scores),
                                      "--target", repr(target)], maxent))

        fmt = "json" if k % 2 == 0 else "csv"
        counts = self._counts[fmt]
        argv = ["analyze", "--data", str(self.data / f"counts_beyond.{fmt}")]
        if fmt == "csv":
            argv += ["--structure", structure]

        def analyze(code, text):
            outcome = check_analysis(spec, counts, json.loads(text))
            require(code == LABEL_EXIT[outcome], f"exit {code} for {outcome}")

        ops.append(self.op("analyze", argv, analyze))

        def table1(code, text):
            require(code == 0, f"exit {code}")
            rows = {row["regime"]: row for row in json.loads(text)["rows"]}
            expect = {
                "midpoint": lambda a: Fraction(0 if a.startswith("a") else 1),
                "uniform": lambda a: Fraction(1, 3),
                "half-weight": lambda a: Fraction(1, 2) if a.startswith("a") else Fraction(0),
            }
            for regime, value in expect.items():
                require(all(q(v) == value(a) for a, v in rows[regime]["values"].items()), regime)
                require(len(rows[regime]["values"]) == 10, regime)
            gap = 2 / (2 + 10**12)
            require(abs(rows["midpoint"]["proxy_max_gap"] - gap) <= 1e-9 * gap, "proxy gap")

        ops.append(self.op("table1", ["table1"], table1))
        return ops


WORKLOADS = {w.name: w for w in (Classify, Pipeline, Gluing, Cli)}
