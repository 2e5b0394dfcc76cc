"""Small construction helpers shared by the test modules."""

import math
from fractions import Fraction
from itertools import compress
from random import Random

import pastedlogic as pl
from pastedlogic.numeric import RATIONAL, clear_denominators, coerce_values, is_exact, is_number
from pastedlogic.weights import check_same_structure


def random_positive_weight(structure, states, rng, blend=Fraction(1, 2)):
    """A random strictly positive admissible rational weight.

    Blends the uniform weight with a random rational mixture of
    two-valued states; the uniform part keeps every atom strictly
    positive, the state part moves the weight around the polytope.
    """
    uniform = pl.path_weight(structure, 1)
    k = int(rng.integers(1, min(4, len(states)) + 1))
    picks = rng.choice(len(states), size=k, replace=False)
    raw = [Fraction(int(rng.integers(1, 30)), 1) for _ in picks]
    total = sum(raw)
    mix = {a: Fraction(0) for a in structure.atoms}
    for coeff, idx in zip(raw, picks):
        for a in states[idx].ones:
            mix[a] += coeff / total
    t = Fraction(int(rng.integers(1, 100)), 100) * blend
    values = {a: (1 - t) * uniform[a] + t * mix[a] for a in structure.atoms}
    return pl.make_weight(structure, values)


def seeded_positive_weight(structure, seed):
    """A seeded strictly positive admissible rational weight: a value in
    [1/40, 5/24] on every atom two contexts share, and the rest of each
    context on its last atom, which no other context holds."""
    rng = Random(seed)
    values = {}
    for ctx in structure.contexts:
        for a in ctx[:-1]:
            values.setdefault(a, Fraction(rng.randint(1, 5), rng.randint(24, 40)))
        values[ctx[-1]] = 1 - sum(values[a] for a in ctx[:-1])
    return pl.make_weight(structure, values)


def pentagon_pair():
    """Two pentagons pasted along the shared context C1 = {a1, a2, x1}."""
    first = pl.cycle_logic(5)
    second = [
        ("a2", "b3", "y2"), ("b3", "b4", "y3"), ("b4", "b5", "y4"), ("b5", "a1", "y5"),
    ]
    atoms = list(first.atoms) + ["b3", "b4", "b5", "y2", "y3", "y4", "y5"]
    return pl.build_event_structure(
        atoms,
        list(first.contexts) + second,
        list(first.context_names) + ["D2", "D3", "D4", "D5"],
    )


def grid_logic(k):
    """A k x k grid of contexts G{i}_{j}: one atom per grid edge, shared by
    the two contexts it joins, plus a private atom p{i}_{j} per context.
    The context-overlap graph is the grid itself, with (k-1)^2
    independent cycles."""
    edge_atoms = {(i, j): [] for i in range(k) for j in range(k)}
    atoms = []
    for i in range(k):
        for j in range(k):
            for di, dj, tag in ((0, 1, "h"), (1, 0, "v")):
                if i + di < k and j + dj < k:
                    atom = f"{tag}{i}_{j}"
                    atoms.append(atom)
                    edge_atoms[(i, j)].append(atom)
                    edge_atoms[(i + di, j + dj)].append(atom)
    contexts, names = [], []
    for i in range(k):
        for j in range(k):
            atoms.append(f"p{i}_{j}")
            contexts.append(edge_atoms[(i, j)] + [f"p{i}_{j}"])
            names.append(f"G{i}_{j}")
    return pl.build_event_structure(atoms, contexts, names)


def random_structure(rng):
    """A seeded random structure: up to 20 distinct contexts of 1-4 atoms."""
    atoms = [f"t{i}" for i in range(int(rng.integers(3, 26)))]
    contexts = set()
    for _ in range(int(rng.integers(1, 21))):
        size = int(rng.integers(1, min(4, len(atoms)) + 1))
        contexts.add(frozenset(rng.choice(atoms, size=size, replace=False).tolist()))
    used = set().union(*contexts)
    return pl.build_event_structure(
        [a for a in atoms if a in used], sorted(sorted(c) for c in contexts)
    )


class ListFamily:
    """A ``VertexFamily`` over an explicit list of 0/1 vertices, each given
    by the rows it holds a 1 in besides the normalisation row; the
    simplex's queries scan the list.  Vertices may repeat.

    The simplex prices once per pivot.  ``first_above`` counts its calls
    and fails past ``max_calls``, a generous 50 per vertex plus 50, so a
    solver that cycles fails its test instead of hanging it."""

    def __init__(self, vertices):
        self.vertices = [sorted(set(v)) for v in vertices]
        self.count = len(self.vertices)
        self.calls = 0
        self.max_calls = 50 * (self.count + 1)

    def positions(self, j):
        return self.vertices[j]

    def sums(self, w):
        return [sum(w[i] for i in v) for v in self.vertices]

    def first_above(self, w, t):
        self.calls += 1
        if self.calls > self.max_calls:
            raise AssertionError(f"more than {self.max_calls} pricing calls: the simplex cycles")
        return next(((j, self.vertices[j]) for j, s in enumerate(self.sums(w)) if s > t), None)

    def max_value(self, w):
        return max(self.sums(w), default=float("-inf"))

    def columns(self, m):
        """The vertices as explicit columns of ``m`` rows, the last one
        the normalisation row."""
        return [[int(i in v or i == m - 1) for i in range(m)] for v in self.vertices]


def first_found(family, w, t):
    """``family.first_above(w, t)`` with its positions sorted, or None."""
    found = family.first_above(w, t)
    return found and (found[0], sorted(found[1]))


def reference_two_valued_states(structure):
    """All two-valued states by backtracking over contexts: the search
    the library ran before its frontier table, kept as the reference for
    the table's order.

    Contexts are processed in index order and candidate 1-atoms tried in
    atom order.  One generator per context on the current path sits on
    an explicit stack, so depth is not bounded by the recursion limit.
    """
    contexts = structure.contexts
    value = {}
    found = []

    def choices(ctx):
        """Fix each consistent 1-atom of ``ctx`` in turn, yielding while
        it is fixed and undoing it before the next."""
        fixed_ones = [a for a in ctx if value.get(a) == 1]
        if len(fixed_ones) > 1:
            return
        candidates = fixed_ones if fixed_ones else [a for a in ctx if value.get(a) != 0]
        for chosen in candidates:  # never 0, by the filter above
            trail = [] if chosen in value else [chosen]
            value[chosen] = 1
            for other in ctx:
                if other != chosen:
                    cur = value.get(other)
                    if cur is None:
                        value[other] = 0
                        trail.append(other)
                    elif cur:
                        break
            else:
                yield
            for atom in trail:
                del value[atom]

    stack = []  # resumed from here, never nested
    while True:
        if len(stack) == len(contexts):
            ones = frozenset(compress(value, value.values()))
            found.append(pl.TwoValuedState(structure, ones))
        else:
            stack.append(choices(contexts[len(stack)]))
        while stack and next(stack[-1], True):  # True: that context is done
            stack.pop()
        if not stack:
            return tuple(found)


def reference_connected_components(structure):
    """``connected_components`` as the library ran it before it read the
    context graph's spanning forest: a union-find over atoms, each context
    uniting its atoms, then the groups sorted by their earliest atom."""
    parent = {a: a for a in structure.atoms}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for ctx in structure.contexts:
        root = find(ctx[0])
        for a in ctx[1:]:
            parent[find(a)] = root

    groups = {}
    for a in structure.atoms:
        groups.setdefault(find(a), []).append(a)
    ordered = sorted(groups.values(), key=lambda g: structure.atom_index[g[0]])
    return tuple(frozenset(g) for g in ordered)


def reference_check_admissible(weight, tol=1e-9):
    """``check_admissible`` as the library ran it before it worked over
    one common denominator: context sums and the box test in the
    weight's own numbers, ``Fraction``s in rational mode."""
    structure = weight.structure
    exact = weight.mode == "rational"
    tolerance = Fraction(0) if exact else float(tol)
    zero = Fraction(0) if exact else 0.0
    sums, max_dev = {}, zero
    for name, ctx in zip(structure.context_names, structure.contexts):
        s = sum((weight[a] for a in ctx), zero)
        sums[name] = s
        max_dev = max(max_dev, abs(s - 1))
    in_box = all(-tolerance <= v <= 1 + tolerance for v in weight.values.values())
    verdict = bool(in_box and max_dev <= tolerance)
    return pl.AdmissibilityReport(weight.mode, tolerance, sums, max_dev, in_box, verdict)


def reference_gluing_check(family, tol=1e-9):
    """``gluing_check`` as the library ran it before its exact branches:
    every discrepancy a difference of extremes, every pair spread and
    cycle product made of ``Fraction`` ratios in exact mode, and the
    verdict a comparison with the tolerance."""
    structure = family.structure
    inc = pl.incidence(structure)
    exact = family.is_exact()
    zero = Fraction(0) if exact else 0.0
    tolerance = Fraction(0) if exact else float(tol)
    atom_disc = {}
    for atom, holders in inc.contexts_of.items():
        if len(holders) > 1:
            values = [family.probabilities[name][atom] for name in holders]
            atom_disc[atom] = max(values) - min(values)
    pair_spread = {}
    for (ca, cb), shared in inc.shared_atoms.items():
        ratios = [family.coordinates[ca][a] / family.coordinates[cb][a] for a in shared]
        pair_spread[(ca, cb)] = max((abs(r - ratios[0]) for r in ratios), default=zero)
    cycle_dev = []
    for cycle in structure.fundamental_cycles:
        product = Fraction(1) if exact else 1.0
        for u, v in zip(cycle, cycle[1:]):
            a = inc.shared(u, v)[0]
            product = product * (family.coordinates[u][a] / family.coordinates[v][a])
        cycle_dev.append((cycle, abs(product - 1)))
    ok = all(v <= tolerance for v in [*atom_disc.values(), *pair_spread.values()]
             + [v for _, v in cycle_dev])
    return pl.GluingReport(bool(ok), exact, tolerance, atom_disc, pair_spread, tuple(cycle_dev))


def reference_context_softmax(structure, scores, link):
    """``context_softmax`` as the library ran it before it read an exact
    identity table off its cleared numerators: every score checked and
    evaluated one at a time through the link, and an all-exact context
    normalised over its common denominator."""
    probabilities, coordinates, normalizers = {}, {}, {}
    for name, ctx in zip(structure.context_names, structure.contexts):
        table = scores.context_scores(ctx, name)
        q = {}
        for a, u in table.items():
            try:
                q[a] = link.evaluate(u)
            except pl.ScoreOutOfDomainError as exc:
                raise pl.ScoreOutOfDomainError(f"{exc} at atom {a!r}") from None
        if all(map(is_exact, q.values())):
            q, _ = coerce_values(q, RATIONAL)
            scale, nums = clear_denominators([q[a] for a in ctx])
            t = sum(nums)
            z = Fraction(t, scale)
            probabilities[name] = {a: Fraction(n, t) for a, n in zip(ctx, nums)}
        else:
            z = sum(q.values())
            probabilities[name] = {a: q[a] / z for a in ctx}
        coordinates[name] = q
        normalizers[name] = z
    return pl.ContextDistributionFamily(structure, link, probabilities, coordinates, normalizers)


def reference_represent_weight(structure, weight, link, alpha=None):
    """``represent_weight`` as the library ran it before it cleared the
    weight's denominators: positivity, the peak and every alpha * p(a)
    in the weight's own numbers, each checked against the link's range.
    Every link but the identity on exact values reads alpha * p as the
    float it rounds to, or as itself where that float is 0, and the
    atoms whose alpha * p is outside the range, or else has no score,
    are named.  Two changes: alpha * p is formed inside the overflow
    guard, so an exact alpha too large for a float times a float weight
    is an ``AlphaOutOfRangeError`` here too, where it used to escape as
    an ``OverflowError``; and the identity link keeps the exact alpha * p
    only where every float of it is > 0 and finite, as ``context_softmax``
    takes it."""
    check_same_structure(structure, weight)
    report = pl.check_admissible(weight)
    if not report.admissible:
        raise pl.NotAdmissibleError(report)
    zeros = [a for a, v in weight.items() if not v > 0]
    if zeros:
        raise pl.NotStrictlyPositiveError(zeros)
    values = dict(weight.items())
    peak = max(values.values())
    if alpha is None:
        if weight.mode == RATIONAL:
            alpha = Fraction(1, 2) * min(Fraction(1), Fraction(1) / peak)
        else:
            alpha = 0.5 * min(1.0, 1.0 / peak)
    if not (is_number(alpha) and alpha > 0):
        raise pl.AlphaOutOfRangeError(f"alpha must be positive, got {alpha!r}")
    try:
        scaled = {a: alpha * v for a, v in values.items()}
        rounded = {a: float(s) or s for a, s in scaled.items()}
    except OverflowError:
        raise pl.AlphaOutOfRangeError("alpha * p overflows the float range") from None
    if isinstance(link, pl.IdentityLink) and all(map(is_exact, scaled.values())) and all(
            map(float, scaled.values())):
        return pl.GlobalScores(scaled)
    scaled = rounded
    bad = [a for a, s in scaled.items() if not link.in_range(s)]
    if bad:
        raise pl.AlphaOutOfRangeError(
            "alpha * p falls outside the link range for: " + ", ".join(bad))
    scores = {}
    for a, s in scaled.items():
        try:
            scores[a] = link.inverse(s)
        except pl.ScoreOutOfDomainError:
            bad.append(a)
    if bad:
        raise pl.AlphaOutOfRangeError(f"alpha * p has no {link.kind} score for: " + ", ".join(bad))
    return pl.GlobalScores(scores)


def _integer_rows(rows, rhs):
    """Each dense row with its right-hand side appended, scaled to integers."""
    return [clear_denominators([*row, b])[1] for row, b in zip(rows, rhs)]


def reference_solve_exact(matrix, rhs):
    """The dense Bareiss solve the library ran before it eliminated over
    nonzeros, kept as the reference for the sparse ``solve_exact``: rows
    are dense lists, every row below the pivot is rescaled at every step,
    and after k steps every entry is a (k+1)-minor, so dividing by the
    previous pivot is exact."""
    n = len(rhs)
    if len(matrix) != n or any(len(row) != n for row in matrix):
        raise ValueError("matrix is not square or rhs length mismatches")
    d, scaled_rhs = clear_denominators(list(rhs))
    a = _integer_rows(matrix, scaled_rhs)
    prev = 1
    for k in range(n):
        pivot = next((r for r in range(k, n) if a[r][k]), None)
        if pivot is None:
            raise pl.SingularSystemError("singular system in exact solve")
        a[k], a[pivot] = a[pivot], a[k]
        top = a[k][k + 1:]
        p = a[k][k]
        for row in a[k + 1:]:
            f = row[k]
            row[k + 1:] = [(p * v - f * t) // prev for v, t in zip(row[k + 1:], top)]
        prev = p
    # The last pivot is ±det; det · x is an integer vector, so
    # back-substitution for it divides exactly.
    y = [0] * n
    for i in reversed(range(n)):
        row = a[i]
        y[i] = (prev * row[n] - sum(row[j] * y[j] for j in range(i + 1, n))) // row[i]
    return [Fraction(v, prev * d) for v in y]


def reference_independent_rows(rows, rhs):
    """The dense rank sweep the library ran before it eliminated over
    nonzeros: the first maximal independent subset of dense rows, each
    row reduced against every earlier pivot by Bareiss steps."""
    kept = []
    pivots = []  # (lead column, reduced row)
    for i, row in enumerate(_integer_rows(rows, rhs)):
        prev = 1
        for col, top in pivots:
            p, f = top[col], row[col]
            if f or p != prev:
                row = [(p * v - f * t) // prev for v, t in zip(row, top)]
            prev = p
        lead = next((c for c, v in enumerate(row[:-1]) if v), None)
        if lead is None:
            if row[-1]:
                raise pl.SingularSystemError(
                    "inconsistent constraints: a dependent context sum "
                    "disagrees with the others"
                )
            continue
        pivots.append((lead, row))
        kept.append(i)
    return kept


def reference_projection(structure, values):
    """``project_affine`` from the dense references: the contexts kept by
    ``reference_independent_rows``, their multipliers μ by
    ``reference_solve_exact`` on their Gram matrix A Aᵀ, and
    p* = p̂ − Aᵀ μ."""
    sets, names = structure.context_sets, structure.context_names
    dense = [[int(a in s) for a in structure.atoms] for s in sets]
    kept = reference_independent_rows(dense, [1] * len(sets))
    gram = [[len(sets[i] & sets[j]) for j in kept] for i in kept]
    mu = reference_solve_exact(gram, [sum(values[a] for a in sets[i]) - 1 for i in kept])
    point = {a: values[a] - sum(m for i, m in zip(kept, mu) if a in sets[i]) for a in structure.atoms}
    return {names[i]: m for i, m in zip(kept, mu)}, point


def reference_cos_pi_over(n, terms):
    """Rationals lo < cos(pi/n) < hi from exact Fraction series: pi from
    Machin's formula 16 atan(1/5) - 4 atan(1/239), then the Taylor series
    of cos at each end of the bracket of pi/n, where cos is decreasing.
    Each alternating series of shrinking terms, cut after term ``terms``,
    lies strictly between its last two partial sums."""
    def between(series):
        before = sum(series[:-1])
        return tuple(sorted((before, before + series[-1])))

    k = range(terms + 1)
    a5, a239 = (between([Fraction((-1) ** i, (2 * i + 1) * b ** (2 * i + 1)) for i in k])
                for b in (5, 239))
    pi_lo, pi_hi = 16 * a5[0] - 4 * a239[1], 16 * a5[1] - 4 * a239[0]

    def cos(x):
        return between([(-1) ** i * x ** (2 * i) / math.factorial(2 * i) for i in k])

    return cos(pi_hi / n)[0], cos(pi_lo / n)[1]
