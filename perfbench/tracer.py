"""Spans around the library's public functions, recorded from outside.

``Tracer.install`` replaces each listed function with a timing wrapper
in every ``pastedlogic`` module that holds it, which covers names bound
by ``from x import y`` (``states.feasible_nonnegative``,
``empirical.solve_exact``, ``bounds.cycle_form``, ...).  A span is
recorded only while an operation is open: (name, start, end, parent
span, operation).  ``uninstall`` restores the originals.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

# Public functions per layer; ``errors`` holds no work.
LAYER_FUNCTIONS = {
    "structures": ["build_event_structure", "cycle_logic", "cycle_form", "incidence",
                   "connected_components", "structure_from_json_dict", "structure_from_json"],
    "weights": ["make_weight", "weight_from_json_dict", "weight_from_json", "to_rational", "to_float",
                "check_admissible", "half_weight", "path_weight", "cyclic_sum", "support"],
    "numeric": ["dumps"],
    "states": ["enumerate_two_valued_states", "classical_membership", "max_cyclic_value"],
    "_simplex": ["feasible_nonnegative"],
    "bounds": ["cycle_bounds", "path_thresholds", "classify_weight"],
    "softmax": ["context_softmax", "gluing_check", "glue_to_weight", "represent_weight", "gauge_shift",
                "boundary_path", "maxent_softmax", "check_multiplicative_link", "scores_from_json_dict",
                "link_from_json_dict"],
    "empirical": ["ingest_counts", "estimate_frequencies", "single_valuedness_test",
                  "reconstruct_weight", "analyze", "sample_counts"],
    "_linalg": ["solve_exact", "independent_rows"],
    "cli": ["main"],
}


def _bits(values) -> int:
    return max((max(v.numerator.bit_length(), v.denominator.bit_length()) for v in values), default=0)


def _observe_simplex(c: Counter, args, result) -> None:
    columns, rhs = args[0], args[1]
    solution, farkas = result
    c["simplex.columns"] += len(columns)
    c["simplex.rows"] += len(rhs)
    if solution is not None:
        c["simplex.feasible"] += 1
        c["simplex.nonzero"] += len(solution)
        c["simplex.columns_feasible"] += len(columns)
        c["simplex.max_bits"] = max(c["simplex.max_bits"], _bits(solution.values()))
    else:
        c["simplex.infeasible"] += 1
        c["simplex.max_bits"] = max(c["simplex.max_bits"], _bits(farkas))


def _observe_solve(c: Counter, args, result) -> None:
    c["linalg.system_size_max"] = max(c["linalg.system_size_max"], len(args[1]))


def _observe_gate(c: Counter, args, result) -> None:
    c["empirical.gate_pairs"] += len(result.entries)


def _observe_analyze(c: Counter, args, result) -> None:
    c["empirical.withheld"] += result.classification is None
    c["empirical.classified"] += result.classification is not None


def _observe_gluing(c: Counter, args, result) -> None:
    c["softmax.cycles"] += len(result.cycle_deviations)
    c["softmax.glued"] += bool(result.glued)


def _observe_classify(c: Counter, args, result) -> None:
    c["bounds.beyond_theta"] += result.beyond_theta is True


def _observe_enumerate(c: Counter, args, result) -> None:
    c["states.enumerated"] += len(result)


OBSERVERS = {
    "_simplex.feasible_nonnegative": _observe_simplex,
    "_linalg.solve_exact": _observe_solve,
    "empirical.single_valuedness_test": _observe_gate,
    "empirical.analyze": _observe_analyze,
    "softmax.gluing_check": _observe_gluing,
    "bounds.classify_weight": _observe_classify,
    "states.enumerate_two_valued_states": _observe_enumerate,
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.op: int | None = None
        self.counters: dict[int, Counter] = defaultdict(Counter)
        self._patches: list = []

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "pastedlogic" or name.startswith("pastedlogic."))]
        for layer, names in LAYER_FUNCTIONS.items():
            module = sys.modules[f"pastedlogic.{layer}"]
            for fname in names:
                original = getattr(module, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            self._patches.append((m, attr, original))
                            setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _wrap(self, name: str, fn):
        observe = OBSERVERS.get(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            op = self.op
            if op is None:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, op)
            if observe is not None:
                observe(self.counters[op], args, result)
            return result

        return wrapper

    def per_op(self) -> dict[int, dict]:
        """Per operation: calls, inclusive ms and self ms for each name,
        plus the observers' counters."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        table: dict[int, dict] = defaultdict(lambda: defaultdict(lambda: [0, 0.0, 0.0]))
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            row = table[op][name]
            row[0] += 1
            row[1] += (end - start) * 1e3
            row[2] += (end - start - child[i]) * 1e3
            if name in ("structures.structure_from_json", "structures.structure_from_json_dict") and (
                parent < 0 or not self.spans[parent][0].startswith("structures.structure_from_json")
            ):
                table[op]["structures.parse"][1] += (end - start) * 1e3
        return table

    def write(self, path: Path) -> None:
        with path.open("w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# name -> unit.  Names are the benchmark's per-layer metrics; ``_simplex``
# and ``_linalg`` appear as ``simplex`` and ``linalg`` because metric names
# start with a letter.
LAYER_METRICS = {
    "simplex.calls": "count/op",
    "simplex.ms": "ms/op",
    "simplex.columns": "count/call",
    "simplex.rows": "count/call",
    "simplex.feasible": "count/op",
    "simplex.infeasible": "count/op",
    "simplex.support_ratio": "ratio",
    "simplex.max_bits": "bits",
    "states.enumerate.calls": "count/op",
    "states.enumerate.ms": "ms/op",
    "states.enumerated": "count/op",
    "states.membership.ms": "ms/op",
    "linalg.solve_exact.calls": "count/op",
    "linalg.solve_exact.ms": "ms/op",
    "linalg.system_size_max": "count",
    "linalg.independent_rows.ms": "ms/op",
    "empirical.ingest.ms": "ms/op",
    "empirical.estimate.ms": "ms/op",
    "empirical.gate.ms": "ms/op",
    "empirical.gate_pairs": "count/call",
    "empirical.reconstruct.ms": "ms/op",
    "empirical.withheld": "ratio",
    "empirical.classified": "ratio",
    "softmax.represent.ms": "ms/op",
    "softmax.context_softmax.ms": "ms/op",
    "softmax.gluing_check.ms": "ms/op",
    "softmax.glue_to_weight.ms": "ms/op",
    "softmax.cycles": "count/call",
    "softmax.glued_ratio": "ratio",
    "structures.incidence.calls": "count/op",
    "structures.incidence.ms": "ms/op",
    "structures.cycle_form.calls": "count/op",
    "structures.cycle_form.ms": "ms/op",
    "structures.parse.ms": "ms/op",
    "weights.check_admissible.calls": "count/op",
    "weights.check_admissible.ms": "ms/op",
    "bounds.classify.ms": "ms/op",
    "bounds.self_ms": "ms/op",
    "bounds.beyond_theta": "ratio",
    "numeric.dumps.ms": "ms/op",
    "cli.import_numpy_ms": "ms",
    "cli.import_pastedlogic_ms": "ms",
    "cli.main.ms": "ms/op",
    "trace.overhead_ratio": "ratio",
}


def layer_metrics(tracer: Tracer, op_kinds: dict[int, str]) -> dict[str, float]:
    """Per-layer figures from one traced phase.

    Every per-operation figure is a mean over kinds of the per-kind mean,
    so a partial last round does not shift the mix; a ratio divides two
    such means.  ``cli.import_*`` and ``trace.overhead_ratio`` are added
    by the runner.
    """
    table = tracer.per_op()
    by_kind: dict[str, list[int]] = defaultdict(list)
    for op, kind in op_kinds.items():
        by_kind[kind].append(op)

    def mean(value) -> float:
        return sum(sum(value(op) for op in ops) / len(ops) for ops in by_kind.values()) / len(by_kind)

    def calls(name):
        return mean(lambda op: table[op][name][0] if name in table[op] else 0)

    def ms(name, column=1):
        return mean(lambda op: table[op][name][column] if name in table[op] else 0.0)

    def count(key):
        return mean(lambda op: tracer.counters[op][key] if op in tracer.counters else 0)

    def ratio(top, bottom) -> float:
        return top / bottom if bottom else 0.0

    def peak(key):
        return max((c[key] for c in tracer.counters.values()), default=0)

    simplex = "_simplex.feasible_nonnegative"
    return {
        "simplex.calls": calls(simplex),
        "simplex.ms": ms(simplex),
        "simplex.columns": ratio(count("simplex.columns"), calls(simplex)),
        "simplex.rows": ratio(count("simplex.rows"), calls(simplex)),
        "simplex.feasible": count("simplex.feasible"),
        "simplex.infeasible": count("simplex.infeasible"),
        "simplex.support_ratio": ratio(count("simplex.nonzero"), count("simplex.columns_feasible")),
        "simplex.max_bits": peak("simplex.max_bits"),
        "states.enumerate.calls": calls("states.enumerate_two_valued_states"),
        "states.enumerate.ms": ms("states.enumerate_two_valued_states"),
        "states.enumerated": count("states.enumerated"),
        "states.membership.ms": ms("states.classical_membership"),
        "linalg.solve_exact.calls": calls("_linalg.solve_exact"),
        "linalg.solve_exact.ms": ms("_linalg.solve_exact"),
        "linalg.system_size_max": peak("linalg.system_size_max"),
        "linalg.independent_rows.ms": ms("_linalg.independent_rows"),
        "empirical.ingest.ms": ms("empirical.ingest_counts"),
        "empirical.estimate.ms": ms("empirical.estimate_frequencies"),
        "empirical.gate.ms": ms("empirical.single_valuedness_test"),
        "empirical.gate_pairs": ratio(count("empirical.gate_pairs"), calls("empirical.single_valuedness_test")),
        "empirical.reconstruct.ms": ms("empirical.reconstruct_weight"),
        "empirical.withheld": ratio(count("empirical.withheld"), calls("empirical.analyze")),
        "empirical.classified": ratio(count("empirical.classified"), calls("empirical.analyze")),
        "softmax.represent.ms": ms("softmax.represent_weight"),
        "softmax.context_softmax.ms": ms("softmax.context_softmax"),
        "softmax.gluing_check.ms": ms("softmax.gluing_check"),
        "softmax.glue_to_weight.ms": ms("softmax.glue_to_weight"),
        "softmax.cycles": ratio(count("softmax.cycles"), calls("softmax.gluing_check")),
        "softmax.glued_ratio": ratio(count("softmax.glued"), calls("softmax.gluing_check")),
        "structures.incidence.calls": calls("structures.incidence"),
        "structures.incidence.ms": ms("structures.incidence"),
        "structures.cycle_form.calls": calls("structures.cycle_form"),
        "structures.cycle_form.ms": ms("structures.cycle_form"),
        "structures.parse.ms": ms("structures.parse"),
        "weights.check_admissible.calls": calls("weights.check_admissible"),
        "weights.check_admissible.ms": ms("weights.check_admissible"),
        "bounds.classify.ms": ms("bounds.classify_weight"),
        "bounds.self_ms": ms("bounds.classify_weight", column=2),
        "bounds.beyond_theta": ratio(count("bounds.beyond_theta"), calls("bounds.classify_weight")),
        "numeric.dumps.ms": ms("numeric.dumps"),
        "cli.main.ms": ms("cli.main"),
    }
