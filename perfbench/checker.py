"""Output checks in the benchmark's own exact arithmetic.

Nothing here imports the library.  Structures are modelled by ``Spec``,
two-valued states are enumerated by this module's own search, theta is
evaluated in ``decimal`` at 50 digits, and every report is read in its
JSON form -- the same form a user of the command line sees.  A failed
check raises ``CheckFailed``; the runner counts it against the
operation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import lru_cache

Z_THRESHOLD = 1.96  # the library's default gate threshold, used by every workload
FLOAT_TOL = 1e-9


class CheckFailed(Exception):
    """An output that the independent checks reject."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def q(value) -> Fraction:
    """Read an exact JSON number: ``"num/den"`` strings and integers."""
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise CheckFailed(f"expected an exact rational, got {value!r}")
    return Fraction(value)


def num(value) -> Fraction:
    """Read any number exactly (floats by their binary value)."""
    if isinstance(value, (float, Fraction)):
        return Fraction(value)
    return q(value)


# ------------------------------------------------------------------ model


@dataclass(frozen=True)
class Spec:
    """A structure as the benchmark builds it: atoms and named contexts.

    ``cycle_n`` is set for the n-cycle logic, whose cyclic atoms are
    ``a1..an``.  ``half`` is the half weight (1/2 on cyclic atoms, 0
    elsewhere) where the structure has one.
    """

    name: str
    atoms: tuple[str, ...]
    contexts: tuple[tuple[str, tuple[str, ...]], ...]
    cycle_n: int | None = None
    cyclic_atoms: tuple[str, ...] = ()
    holders: dict = field(default=None, compare=False, hash=False, repr=False)

    def __post_init__(self):
        holders: dict[str, list[str]] = {a: [] for a in self.atoms}
        for name, ctx in self.contexts:
            for a in ctx:
                holders[a].append(name)
        object.__setattr__(self, "holders", {a: tuple(h) for a, h in holders.items()})

    def to_json_dict(self) -> dict:
        return {
            "atoms": list(self.atoms),
            "contexts": [{"name": n, "atoms": list(c)} for n, c in self.contexts],
        }

    def half(self) -> dict[str, Fraction]:
        return {a: Fraction(1, 2) if a in self.cyclic_atoms else Fraction(0) for a in self.atoms}


def cycle_spec(n: int) -> Spec:
    atoms = tuple(f"a{i}" for i in range(1, n + 1)) + tuple(f"x{i}" for i in range(1, n + 1))
    contexts = tuple((f"C{i}", (f"a{i}", f"a{i % n + 1}", f"x{i}")) for i in range(1, n + 1))
    return Spec(f"C{n}", atoms, contexts, n, atoms[:n])


def pentagon_pair_spec() -> Spec:
    """Two pentagons pasted along the shared context C1 = {a1, a2, x1}:
    9 contexts, 17 atoms, 43 two-valued states."""
    first = cycle_spec(5)
    second = [
        ("D2", ("a2", "b3", "y2")),
        ("D3", ("b3", "b4", "y3")),
        ("D4", ("b4", "b5", "y4")),
        ("D5", ("b5", "a1", "y5")),
    ]
    atoms = first.atoms + ("b3", "b4", "b5", "y2", "y3", "y4", "y5")
    cyclic = first.cyclic_atoms + ("b3", "b4", "b5")
    return Spec("P2", atoms, first.contexts + tuple(second), None, cyclic)


def grid_spec(k: int) -> Spec:
    """A k x k grid of contexts: one atom per grid edge, shared by the two
    contexts it joins, plus a private atom per context.  The overlap
    graph is the grid itself, with (k-1)^2 independent cycles."""
    edge_atoms: dict[tuple[int, int], list[str]] = {(i, j): [] for i in range(k) for j in range(k)}
    atoms: list[str] = []
    for i in range(k):
        for j in range(k):
            for di, dj, tag in ((0, 1, "h"), (1, 0, "v")):
                if i + di < k and j + dj < k:
                    a = f"{tag}{i}_{j}"
                    atoms.append(a)
                    edge_atoms[(i, j)].append(a)
                    edge_atoms[(i + di, j + dj)].append(a)
    contexts = []
    for i in range(k):
        for j in range(k):
            private = f"p{i}_{j}"
            atoms.append(private)
            contexts.append((f"G{i}_{j}", tuple(edge_atoms[(i, j)]) + (private,)))
    return Spec(f"G{k}", tuple(atoms), tuple(contexts))


def check_structure_doc(spec: Spec, doc: dict) -> None:
    """A structure document names the same atoms and contexts as ``spec``
    (context atom order is free)."""
    require(sorted(doc["atoms"]) == sorted(spec.atoms), "atoms differ")
    named = {c["name"]: frozenset(c["atoms"]) for c in doc["contexts"]}
    require(named == {n: frozenset(c) for n, c in spec.contexts}, "contexts differ")


def is_two_valued(spec: Spec, ones) -> bool:
    ones = frozenset(ones)
    if not ones <= set(spec.atoms):
        return False
    return all(len(ones.intersection(ctx)) == 1 for _, ctx in spec.contexts)


@lru_cache(maxsize=None)
def two_valued_states(spec: Spec) -> tuple[frozenset, ...]:
    """Every 0/1 assignment with exactly one 1 per context, by a
    backtracking search of this module's own."""
    contexts = [frozenset(c) for _, c in spec.contexts]
    found: list[frozenset] = []

    def descend(i: int, ones: frozenset, zeros: frozenset) -> None:
        if i == len(contexts):
            found.append(ones)
            return
        ctx = contexts[i]
        fixed = ctx & ones
        if len(fixed) > 1:
            return
        for a in sorted(fixed or ctx - zeros):
            rest = ctx - {a}
            if not rest & ones:
                descend(i + 1, ones | {a}, zeros | rest)

    descend(0, frozenset(), frozenset())
    return tuple(found)


@lru_cache(maxsize=None)
def cycle_rank(spec: Spec) -> int:
    """Independent cycles of the context-overlap graph: E - V + components."""
    names = [n for n, _ in spec.contexts]
    parent = {n: n for n in names}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    edges = 0
    sets = [(n, set(c)) for n, c in spec.contexts]
    for i in range(len(sets)):
        for j in range(i + 1, len(sets)):
            if sets[i][1] & sets[j][1]:
                edges += 1
                parent[find(sets[i][0])] = find(sets[j][0])
    components = len({find(n) for n in names})
    return edges - len(names) + components


# ------------------------------------------------------------------ theta


@lru_cache(maxsize=None)
def theta(n: int) -> Decimal:
    """Lovasz theta of the odd n-cycle, n cos(pi/n) / (1 + cos(pi/n)), to
    50 significant digits."""
    with localcontext() as ctx:
        ctx.prec = 60
        pi = _pi()
        x = pi / n
        term, total, k = Decimal(1), Decimal(1), 0
        while True:  # cos by its Taylor series
            k += 2
            term = -term * x * x / (k * (k - 1))
            if abs(term) < Decimal(10) ** -58:
                break
            total += term
        result = n * total / (1 + total)
    return +result


def _pi() -> Decimal:
    """pi at the current decimal precision (the series from the decimal
    module's documentation)."""
    lasts, t, s, n, na, d, da = 0, Decimal(3), Decimal(3), 1, 0, 0, 24
    while s != lasts:
        lasts = s
        n, na = n + na, na + 8
        d, da = d + da, da + 32
        t = (t * n) / d
        s += t
    return s


def exceeds_theta(n: int, s: Fraction) -> bool:
    with localcontext() as ctx:
        ctx.prec = 60
        gap = Decimal(s.numerator) / Decimal(s.denominator) - theta(n)
    require(abs(gap) > Decimal(10) ** -40, f"cyclic sum {s} is too close to theta({n}) to decide")
    return gap > 0


def theta_threshold(n: int) -> Fraction:
    """r where the path family crosses theta: n/theta - 2 (as a fraction
    of the 50-digit decimal)."""
    with localcontext() as ctx:
        ctx.prec = 60
        return Fraction(n / theta(n) - 2)


def expected_path_label(n: int, r: Fraction) -> str:
    """The region of the path weight p(a) = 1/(2+r), p(x) = r/(2+r) on the
    odd n-cycle, from its exact cyclic sum n/(2+r)."""
    s = Fraction(n) / (2 + r)
    if s <= Fraction(n - 1, 2):
        return "classical"
    return "beyond-theta" if exceeds_theta(n, s) else "admissible-nonclassical"


# ---------------------------------------------------------- certificates


def check_decomposition(spec: Spec, membership: dict, point: dict[str, Fraction]) -> None:
    coefficients = membership["coefficients"]
    states = membership["states"]
    require(len(coefficients) == len(states), "one state per coefficient")
    keys = sorted(coefficients, key=int)
    total = Fraction(0)
    mass = {a: Fraction(0) for a in spec.atoms}
    for key, ones in zip(keys, states):
        lam = q(coefficients[key])
        require(lam >= 0, f"negative coefficient {lam}")
        require(is_two_valued(spec, ones), f"state {key} is not two-valued")
        total += lam
        for a in ones:
            mass[a] += lam
    require(total == 1, f"coefficients sum to {total}, not 1")
    bad = [a for a in spec.atoms if mass[a] != point[a]]
    require(not bad, "decomposition misses the weight on " + ", ".join(bad[:5]))


def check_witness(spec: Spec, membership: dict, point: dict[str, Fraction]) -> None:
    c = {a: q(v) for a, v in membership["witness"].items()}
    require(set(c) == set(spec.atoms), "witness does not cover the atoms")
    value = sum(c[a] * point[a] for a in spec.atoms)
    require(q(membership["witness_value"]) == value, "witness_value is not c . p")
    best = max(sum((c[a] for a in ones), Fraction(0)) for ones in two_valued_states(spec))
    require(q(membership["witness_bound"]) == best, "witness_bound is not the max of c . v over all states")
    require(value > best, f"witness does not separate: c.p = {value} <= {best}")


def check_region(
    spec: Spec, report: dict, point: dict[str, Fraction], expected_label: str | None = None
) -> str:
    """Verify a RegionReport for the exact ``point`` the library was given.

    The label must follow from the certificates and, on odd cycles, from
    the exact cyclic sum against theta; when the input's true region is
    known (path weights), it must also equal ``expected_label``.
    """
    require(report["admissibility"]["admissible"] is True, f"admissible input labelled {report['label']}")
    membership = report["membership"]
    if membership["classical"]:
        check_decomposition(spec, membership, point)
        certified = "classical"
    else:
        check_witness(spec, membership, point)
        certified = "admissible-nonclassical"
    if spec.cycle_n is not None and spec.cycle_n % 2 == 1 and spec.cycle_n >= 5:
        s = sum(point[a] for a in spec.cyclic_atoms)
        require(abs(num(report["cyclic_sum"]) - s) <= FLOAT_TOL, "cyclic_sum is wrong")
        beyond = exceeds_theta(spec.cycle_n, s)
        if certified != "classical" and beyond:
            certified = "beyond-theta"
        require(report.get("beyond_theta") == (beyond and certified != "classical"), "beyond_theta flag is wrong")
    require(report["label"] == certified, f"label {report['label']} but certificates give {certified}")
    if expected_label is not None:
        require(report["label"] == expected_label, f"label {report['label']}, expected {expected_label}")
    return certified


# ------------------------------------------------------------- pipeline


def gate_statistics(spec: Spec, counts: dict) -> list[tuple[str, str, str, float | None]]:
    """(atom, context, context, z) for every shared atom and context pair;
    z is None where the pooled frequency is 0 or 1 with a nonzero gap."""
    totals = {name: sum(counts[name].values()) for name, _ in spec.contexts}
    out = []
    for a in spec.atoms:
        holders = spec.holders[a]
        for i in range(len(holders)):
            for j in range(i + 1, len(holders)):
                ca, cb = holders[i], holders[j]
                na, nb = totals[ca], totals[cb]
                ka, kb = counts[ca][a], counts[cb][a]
                gap = Fraction(ka, na) - Fraction(kb, nb)
                pooled = Fraction(ka + kb, na + nb)
                if pooled in (0, 1):
                    z = None if gap else 0.0
                else:
                    p = float(pooled)
                    z = float(gap) / math.sqrt(p * (1 - p) * (1 / na + 1 / nb))
                out.append((a, ca, cb, z))
    return out


def check_projection(spec: Spec, counts: dict, recon: dict) -> dict[str, Fraction]:
    """p_hat must pool the counts; p_star must satisfy the optimality
    conditions of the projection exactly, with the report's own
    multipliers: every context sums to 1, and p_hat - p_star is the
    multiplier combination of the context rows."""
    totals = {name: sum(counts[name].values()) for name, _ in spec.contexts}
    p_hat = recon["p_hat"]["values"]
    p_star = {a: q(v) for a, v in recon["p_star"]["values"].items()}
    mu = {name: q(v) for name, v in recon["multipliers"].items()}
    require(set(mu) <= {n for n, _ in spec.contexts}, "multiplier for an unknown context")
    for a in spec.atoms:
        pooled = Fraction(
            sum(counts[c][a] for c in spec.holders[a]), sum(totals[c] for c in spec.holders[a])
        )
        require(q(p_hat[a]) == pooled, f"p_hat({a}) is not the pooled frequency")
        row_sum = sum((mu.get(c, Fraction(0)) for c in spec.holders[a]), Fraction(0))
        require(pooled - p_star[a] == row_sum, f"stationarity fails at {a}")
    for name, ctx in spec.contexts:
        require(sum(p_star[a] for a in ctx) == 1, f"p_star does not sum to 1 on {name}")
    outside = [a for a in spec.atoms if not 0 <= p_star[a] <= 1]
    require(recon["box_violations"] == outside, "box_violations are wrong")
    return p_star


def check_analysis(
    spec: Spec,
    counts: dict,
    report: dict,
    expected_label: str | None = None,
) -> str:
    """Verify an AnalysisReport against the raw counts; returns the
    outcome: the label, or "withheld"."""
    totals = {name: sum(counts[name].values()) for name, _ in spec.contexts}
    freqs = report["frequencies"]["frequencies"]
    for name, ctx in spec.contexts:
        for a in ctx:
            require(q(freqs[name][a]) == Fraction(counts[name][a], totals[name]), f"frequency {name}/{a}")
    gate = report["single_valuedness"]
    own = gate_statistics(spec, counts)
    require(len(gate["entries"]) == len(own), "gate does not compare every shared-atom pair")
    for entry, (a, ca, cb, z) in zip(gate["entries"], own):
        require(entry["atom"] == a and entry["contexts"] == [ca, cb], "gate pair order")
        if z is None:
            require(entry["z"] is None and entry["degenerate"], f"degenerate pair {a}")
        else:
            require(abs(entry["z"] - z) <= 1e-9 * max(1.0, abs(z)), f"z for {a} in {ca}/{cb}")
    passed = all(z is not None and abs(z) <= Z_THRESHOLD for _, _, _, z in own)
    require(gate["passed"] is passed, "gate verdict disagrees with the statistics")
    p_star = check_projection(spec, counts, report["reconstruction"])
    if not passed:
        require(report["classification"] is None, "classified although the gate failed")
        require(report["withheld_reason"].startswith("single-valuedness gate failed"), "withheld reason")
        outcome = "withheld"
    elif report["reconstruction"]["box_violations"]:
        require(report["classification"] is None, "classified outside the box")
        outcome = "withheld"
    else:
        require(report["classification"] is not None, "withheld although both gates pass")
        outcome = check_region(spec, report["classification"], p_star, expected_label)
    if expected_label is not None:
        require(outcome == expected_label, f"outcome {outcome}, expected {expected_label}")
    return outcome


# ---------------------------------------------------------------- gluing


def context_probabilities(spec: Spec, scores, link: dict) -> dict[str, dict[str, Fraction | float]]:
    """Per-context softmax of ``scores(context, atom)`` under an identity
    (exact) or exponential (float) link."""
    out = {}
    for name, ctx in spec.contexts:
        if link["kind"] == "identity":
            coords = {a: num(scores(name, a)) for a in ctx}
        else:
            beta = float(link.get("beta", 1.0))
            coords = {a: math.exp(beta * float(scores(name, a))) for a in ctx}
        z = sum(coords.values())
        out[name] = {a: coords[a] / z for a in ctx}
    return out


def max_discrepancy(spec: Spec, probs: dict) -> Fraction | float:
    worst = 0
    for a in spec.atoms:
        values = [probs[c][a] for c in spec.holders[a]]
        if len(values) > 1:
            worst = max(worst, max(values) - min(values))
    return worst


def check_gluing_report(spec: Spec, report: dict, probs: dict, link: dict) -> bool:
    """The report's verdict and its largest discrepancy must match the
    probabilities computed here; returns whether the family glues."""
    exact = link["kind"] == "identity"
    worst = max_discrepancy(spec, probs)
    reported = max((num(v) for v in report["atom_discrepancies"].values()), default=Fraction(0))
    require(report["exact"] is exact, "exactness flag")
    require(len(report["cycle_deviations"]) == cycle_rank(spec), "not one deviation per independent cycle")
    if exact:
        require(reported == worst, f"max discrepancy {reported}, computed {worst}")
        glued = worst == 0
        if glued:
            require(all(q(d["deviation"]) == 0 for d in report["cycle_deviations"]), "cycle deviation")
    else:
        # Scores read back from JSON carry 12 significant digits, so a glued
        # family recomputed here shows discrepancies near 1e-11.
        require(abs(float(reported) - worst) <= FLOAT_TOL, "max discrepancy")
        require(worst <= FLOAT_TOL or worst > 1e-6, "discrepancy too close to the tolerance to judge")
        glued = worst <= FLOAT_TOL
    require(report["glued"] is glued, f"glued = {report['glued']}, computed {glued}")
    return glued


def check_round_trip(spec: Spec, weight: dict[str, Fraction], out: dict) -> None:
    """represent -> softmax -> glue must give the input weight back:
    exactly under the identity link, within 1e-9 under the exponential."""
    link = out["scores"]["link"]
    values = out["scores"]["values"]
    probs = context_probabilities(spec, lambda c, a: values[a], link)
    require(check_gluing_report(spec, out["report"], probs, link), "representation did not glue")
    back = out["weight"]["values"]
    for a in spec.atoms:
        if link["kind"] == "identity":
            require(all(probs[c][a] == weight[a] for c in spec.holders[a]), f"softmax misses {a}")
            require(q(back[a]) == weight[a], f"glued weight differs at {a}")
        else:
            require(all(abs(probs[c][a] - weight[a]) <= FLOAT_TOL for c in spec.holders[a]), f"softmax misses {a}")
            require(abs(num(back[a]) - weight[a]) <= FLOAT_TOL, f"glued weight differs at {a}")
