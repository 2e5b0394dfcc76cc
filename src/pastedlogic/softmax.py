"""Generalized softmax distributions over contexts and their gluing.

A link function g is continuous and strictly increasing with range
containing an interval (0, r).  Scores u on the atoms of a context C
induce the distribution

    P(a) = g(u(a)) / Z_C,   Z_C = sum over b in C of g(u(b)),

ordinary softmax being the exponential link g(u) = exp(beta * u).  The
central question is when per-context distributions agree on shared
atoms, i.e. glue into one admissible weight.  Writing q = g(u) for the
positive coordinates, agreement on a shared atom a of contexts C and C'
pins the normaliser ratio:  P_C(a) = P_C'(a)  iff  Z_C / Z_C' =
q_C(a) / q_C'(a).  Consequently all shared atoms of a pair must give the
same q-ratio, and around any closed chain of overlapping contexts the
ratios must telescope to 1.  Conversely every strictly positive
admissible weight is a global-score softmax: u(a) = g^{-1}(alpha * p(a))
for small alpha > 0 makes every normaliser equal alpha.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cached_property
from typing import Any, Iterable, Sequence

from .errors import (
    AlphaOutOfRangeError,
    DegenerateScoresError,
    NegativePathParameterError,
    NotAComponentError,
    NotAdmissibleError,
    NotGluedError,
    NotStrictlyPositiveError,
    ScoreOutOfDomainError,
    SchemaError,
    TargetOutOfRangeError,
    ValidationError,
)
from .numeric import (
    DEFAULT_TOL,
    FLOAT,
    RATIONAL,
    _require_keys,
    as_float,
    check_tolerance,
    clear_denominators,
    coerce_values,
    fields_to_json,
    is_exact,
    is_number,
    numeric_from_json,
    render,
    values_from_json,
)
from .structures import EventStructure, check_names, connected_components, cycle_form, incidence
from .weights import (
    Numeric, Weight, check_admissible, check_same_structure, half_weight, make_weight, path_weight,
)


# ------------------------------------------------------------------ links


@dataclass(frozen=True)
class LinkFunction:
    """Base for the link catalogue, and the one statement of its contract.

    A link g maps its domain onto the range (0, inf), and the domain is
    (0, inf) too unless the link says otherwise (only the exponential
    does).  In floats both directions end where the float range ends:
    ``evaluate`` takes a score in the domain to a coordinate whose float
    is positive and finite, ``inverse`` takes a coordinate in the range
    whose float is positive and finite to a score that ``evaluate``
    takes, and anything else raises ScoreOutOfDomainError.  That bound
    holds for exact values too: an identity value is kept as a Fraction
    only where ``representable`` finds its float positive and finite.
    Each link writes only its formulas, ``_evaluate`` and ``_inverse``.
    A link's parameters (its dataclass fields) are numbers whose float
    is > 0 and finite, held at the 12 significant digits ``render``
    prints, so a link renders from its fields and reads back equal to
    itself.
    """

    kind = "abstract"

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            held = as_float(value) if is_number(value) else math.nan
            if not 0 < held < math.inf:
                raise ValidationError(f"{self.kind} link needs {f.name} > 0 as a finite float")
            object.__setattr__(self, f.name, render(held))

    def _evaluate(self, x: Numeric) -> Numeric:
        raise NotImplementedError

    def _inverse(self, y: Numeric) -> Numeric:
        raise NotImplementedError

    def in_range(self, y: Any) -> bool:
        return is_number(y) and 0 < y < math.inf

    in_domain = in_range

    @staticmethod
    def representable(nums: list[int], scale: int) -> bool:
        """Whether every exact value n / scale (ints, scale > 0) has a float
        > 0 and finite, the test ``evaluate`` and ``inverse`` put to a
        float.  Int division rounds as ``float`` of a Fraction does, and
        rounding is monotone, so the least and the largest n decide."""
        try:
            return 0 < min(nums) / scale and max(nums) / scale < math.inf
        except OverflowError:
            return False

    def evaluate(self, x: Numeric) -> Numeric:
        if not self.in_domain(x):
            raise ScoreOutOfDomainError(f"score {x!r} is outside the {self.kind} domain")
        try:
            y = self._evaluate(x)
            if 0 < float(y) < math.inf:
                return y
        except OverflowError:
            pass
        raise ScoreOutOfDomainError(
            f"the {self.kind} value of score {x!r} is not a positive finite float")

    def inverse(self, y: Numeric) -> Numeric:
        if not self.in_range(y):
            raise ScoreOutOfDomainError(f"{y!r} is not in the range (0, inf)")
        try:
            if float(y) > 0:
                x = self._inverse(y)
                self.evaluate(x)
                return x
        except (OverflowError, ScoreOutOfDomainError):
            pass
        raise ScoreOutOfDomainError(f"{y!r} has no score in the {self.kind} domain")

    def to_json_dict(self) -> dict:
        return {"kind": self.kind, **fields_to_json(self)}


@dataclass(frozen=True)
class ExponentialLink(LinkFunction):
    """g(u) = exp(beta * u) on all of R; the ordinary softmax link."""

    beta: float = 1.0
    kind = "exponential"

    def _evaluate(self, x: Numeric) -> float:
        return math.exp(self.beta * float(x))

    def _inverse(self, y: Numeric) -> float:
        return math.log(float(y)) / self.beta

    def in_domain(self, x: Any) -> bool:
        return is_number(x) and -math.inf < x < math.inf


@dataclass(frozen=True)
class IdentityLink(LinkFunction):
    """g(u) = u on (0, inf); scores are the positive coordinates
    themselves, so rational scores stay rational all the way through."""

    kind = "identity"

    def _evaluate(self, x: Numeric) -> Numeric:
        return x

    def _inverse(self, y: Numeric) -> Numeric:
        return y


@dataclass(frozen=True)
class PowerLink(LinkFunction):
    """g(u) = u**k on (0, inf), k > 0."""

    k: float = 2.0
    kind = "power"

    def _evaluate(self, x: Numeric) -> float:
        return float(x) ** self.k

    def _inverse(self, y: Numeric) -> float:
        return float(y) ** (1.0 / self.k)


LINK_KINDS = {link.kind: link for link in (ExponentialLink, IdentityLink, PowerLink)}


def link_from_json_dict(doc: Mapping) -> LinkFunction:
    """Parse ``{"kind": ..., <parameters>}``: a kind takes only the fields of
    its dataclass (exponential ``beta``, identity none, power ``k``)."""
    _require_keys(doc, None, {"kind"}, "link")
    kind = doc["kind"]
    if not isinstance(kind, str) or kind not in LINK_KINDS:
        raise SchemaError(f"unknown link kind {kind!r}")
    link = LINK_KINDS[kind]
    params = {f.name for f in fields(link)}
    extra = set(doc) - params - {"kind"}
    if extra:
        raise SchemaError(f"{kind} link does not take: " + ", ".join(sorted(extra)))
    return link(**{p: numeric_from_json(doc[p]) for p in params if p in doc})


# ------------------------------------------------------------------ scores


@dataclass(frozen=True)
class GlobalScores:
    """One score per atom, shared by every context containing it."""

    values: Mapping[str, Numeric]

    def check(self, structure: EventStructure) -> None:
        check_names(self.values, structure.atom_index, "atoms in the global scores")

    def context_scores(self, ctx: Sequence[str], name: str) -> dict[str, Numeric]:
        return {a: self.values[a] for a in ctx}

    def to_json_dict(self) -> dict:
        return {"scope": "global", **fields_to_json(self)}


@dataclass(frozen=True)
class PerContextScores:
    """Independent scores for the atoms of each context; a shared atom
    may receive different scores in different contexts."""

    values: Mapping[str, Mapping[str, Numeric]]

    def check(self, structure: EventStructure) -> None:
        check_names(self.values, structure.context_names, "contexts in the per-context scores")
        for name, ctx in zip(structure.context_names, structure.contexts):
            check_names(self.values[name], ctx, f"atoms in the scores for context {name!r}")

    def context_scores(self, ctx: Sequence[str], name: str) -> dict[str, Numeric]:
        table = self.values[name]
        return {a: table[a] for a in ctx}

    def to_json_dict(self) -> dict:
        return {"scope": "per-context", **fields_to_json(self)}


ScoreAssignment = GlobalScores | PerContextScores


def scores_from_json_dict(doc: Mapping) -> ScoreAssignment:
    _require_keys(doc, {"scope", "values"}, {"scope", "values"}, "score document")
    scope, values = doc["scope"], doc["values"]
    if scope == "global":
        return GlobalScores(values_from_json(values, "score 'values'"))
    if scope == "per-context":
        if not isinstance(values, Mapping):
            raise SchemaError("score 'values' must be a JSON object")
        return PerContextScores(
            {
                str(name): values_from_json(table, f"scores for context {name!r}")
                for name, table in values.items()
            }
        )
    raise SchemaError(f"unknown score scope {scope!r}")


# ------------------------------------------------------ context softmax


@dataclass(frozen=True)
class ContextDistributionFamily:
    """Per-context distributions with their positive coordinates.

    ``coordinates[C][a] = g(u_C(a)) > 0`` and ``normalizers[C]`` is their
    sum; ``probabilities[C][a]`` is the quotient, summing to 1 per
    context.
    """

    structure: EventStructure
    link: LinkFunction
    probabilities: Mapping[str, Mapping[str, Numeric]]
    coordinates: Mapping[str, Mapping[str, Numeric]]
    normalizers: Mapping[str, Numeric]

    def is_exact(self) -> bool:
        return all(is_exact(p) for table in self.probabilities.values() for p in table.values())

    @cached_property
    def _gluing_reports(self) -> dict[Any, GluingReport]:
        """``gluing_check``'s reports on this family, by ``tol``."""
        return {}

    to_json_dict = fields_to_json


def context_softmax(
    structure: EventStructure,
    scores: ScoreAssignment,
    link: LinkFunction,
) -> ContextDistributionFamily:
    """Evaluate the generalized softmax in every context.

    Global scores give one score per atom everywhere; per-context scores
    may disagree on shared atoms (``gluing_check`` measures that); both
    name exactly the structure's atoms and contexts.  Under the identity
    link a context whose scores are all exact (ints and Fractions) is its
    own coordinates, held as Fractions: they are cleared to integers n_a
    over one scale once, and with t their sum Z = t / scale and
    P(a) = n_a / t, where the link's ``representable`` takes every score;
    a context outside that goes through ``evaluate`` like any other, which
    names its first atom outside the link's contract.
    """
    probabilities: dict[str, dict[str, Numeric]] = {}
    coordinates: dict[str, dict[str, Numeric]] = {}
    normalizers: dict[str, Numeric] = {}
    scores.check(structure)
    identity, representable = isinstance(link, IdentityLink), link.representable
    for name, ctx in zip(structure.context_names, structure.contexts):
        table = scores.context_scores(ctx, name)
        if identity and all(map(is_exact, table.values())):
            scale, nums = clear_denominators(list(table.values()))
            if representable(nums, scale):
                t = sum(nums)
                coordinates[name], _ = coerce_values(table, RATIONAL)
                normalizers[name] = Fraction(t, scale)
                probabilities[name] = {a: Fraction(n, t) for a, n in zip(ctx, nums)}
                continue
        q = {}
        for a, u in table.items():
            try:
                q[a] = link.evaluate(u)
            except ScoreOutOfDomainError as exc:
                raise ScoreOutOfDomainError(f"{exc} at atom {a!r}") from None
        z = normalizers[name] = sum(q.values())
        probabilities[name] = {a: q[a] / z for a in ctx}
        coordinates[name] = q
    return ContextDistributionFamily(
        structure, link, probabilities, coordinates, normalizers
    )


# ------------------------------------------------------------------ gluing


@dataclass(frozen=True)
class GluingReport:
    """The verdict, its one deciding view, and two diagnostic views.

    ``atom_discrepancies``: per shared atom, the largest probability gap
    across containing contexts; ``glued`` reads this view alone.
    ``pair_ratio_spreads``: per overlapping context pair, how far the
    q-ratios of its shared atoms are from the first (0 when it shares
    one atom); in JSON the two names, with ``\\`` and ``|`` escaped by
    a backslash, are joined by ``|``.
    ``cycle_deviations``: per fundamental cycle of the context-overlap
    graph, |product of edge ratios - 1|.  Both ratio views scale with
    the normalisers, so they only show where a failed family's
    normalisers do not line up.  In exact mode every entry is exact.
    """

    glued: bool
    exact: bool
    tolerance: Numeric
    atom_discrepancies: Mapping[str, Numeric]
    pair_ratio_spreads: Mapping[tuple[str, str], Numeric]
    cycle_deviations: tuple[tuple[tuple[str, ...], Numeric], ...]
    _ESCAPES = str.maketrans({"\\": r"\\", "|": r"\|"})  # a class constant, not a field

    def max_discrepancy(self) -> Numeric:
        return max(self.atom_discrepancies.values(), default=0)

    def to_json_dict(self) -> dict:
        return {**fields_to_json(self), **render({
            "pair_ratio_spreads": {"|".join(n.translate(self._ESCAPES) for n in pair): v
                                   for pair, v in self.pair_ratio_spreads.items()},
            "cycle_deviations": [{"cycle": c, "deviation": v} for c, v in self.cycle_deviations],
        })}


def gluing_check(
    family: ContextDistributionFamily, tol: float = DEFAULT_TOL
) -> GluingReport:
    """Do the context distributions agree wherever they overlap?

    It glues when every shared atom has one probability: exactly for an
    exact family (every probability a Fraction; ``tol`` is ignored),
    within ``tol`` otherwise.  No normaliser enters, so a score shift
    that leaves the probabilities alone leaves the verdict alone.  For
    an exact family this is the rule that every view be 0: with one
    probability per shared atom, q_C(a) = P(a) Z_C, so a pair's q-ratios
    all equal Z_C / Z_C' and a cycle's product telescopes to 1.  The
    converse fails: contexts {a, b} and {a, c, d} with every coordinate
    1 give both ratio views 0, yet P(a) is 1/2 against 1/3.  The cycles
    are the structure's ``fundamental_cycles``, each edge taking the
    ratio of the first atom its two contexts share.  The report is
    computed once per family and ``tol`` and then returned as it is, so
    a family must not be changed after it is built.  A negative ``tol``
    is refused.
    """
    check_tolerance(tol)
    memo = family._gluing_reports
    if tol in memo:
        return memo[tol]
    structure = family.structure
    inc = incidence(structure)
    probs, coords = family.probabilities, family.coordinates
    exact = family.is_exact()
    zero: Numeric = Fraction(0) if exact else 0.0
    tolerance: Numeric = Fraction(0) if exact else float(tol)

    atom_disc: dict[str, Numeric] = {}
    for atom, holders in inc.contexts_of.items():
        if len(holders) < 2:
            continue
        values = [probs[name][atom] for name in holders]
        if exact and values.count(values[0]) == len(values):
            atom_disc[atom] = zero
        else:
            atom_disc[atom] = max(values) - min(values)

    pair_spread: dict[tuple[str, str], Numeric] = {}
    for pair, shared in inc.shared_atoms.items():
        if len(shared) == 1:
            pair_spread[pair] = zero  # one ratio cannot spread
            continue
        ca, cb = pair
        ratios = [coords[ca][a] / coords[cb][a] for a in shared]
        pair_spread[pair] = max((abs(r - ratios[0]) for r in ratios), default=zero)

    cycle_dev: list[tuple[tuple[str, ...], Numeric]] = []
    for cycle, links in zip(structure.fundamental_cycles, structure.cycle_edges):
        edges = [(coords[u][a], coords[v][a]) for u, v, a in links]
        if exact:
            # The product of the ratios q_u/q_v, as one numerator and one
            # denominator over the integers.
            num = math.prod(p.numerator * q.denominator for p, q in edges)
            den = math.prod(p.denominator * q.numerator for p, q in edges)
            cycle_dev.append((cycle, Fraction(abs(num - den), den)))
        else:
            cycle_dev.append((cycle, abs(math.prod(p / q for p, q in edges) - 1)))

    gaps = atom_disc.values()  # every gap is >= 0, so none nonzero means all 0
    ok = not any(gaps) if exact else all(v <= tolerance for v in gaps)
    report = memo[tol] = GluingReport(ok, exact, tolerance, atom_disc, pair_spread, tuple(cycle_dev))
    return report


def glue_to_weight(
    family: ContextDistributionFamily, tol: float = DEFAULT_TOL
) -> Weight:
    """Collapse a glued family into the single weight it defines.

    Raises ``NotGluedError`` (with the report attached) when the family
    does not glue at the given tolerance; the report is the one
    ``gluing_check`` gives for this family and ``tol``, computed once.
    Each atom takes its value from the earliest context containing it.
    """
    report = gluing_check(family, tol)
    if not report.glued:
        raise NotGluedError(report)
    structure = family.structure
    values: dict[str, Numeric] = {}
    for name, ctx in zip(structure.context_names, structure.contexts):
        for a in ctx:
            values.setdefault(a, family.probabilities[name][a])
    mode = RATIONAL if report.exact else FLOAT
    return make_weight(structure, values, mode)


# ---------------------------------------------------------- representation


def represent_weight(
    structure: EventStructure,
    weight: Weight,
    link: LinkFunction,
    alpha: Numeric | None = None,
) -> GlobalScores:
    """Global scores whose softmax reproduces a strictly positive weight.

    With u(a) = g^{-1}(alpha * p(a)) every context normaliser equals
    alpha, so P_C(a) = alpha * p(a) / alpha = p(a) in every context.  The
    default scale alpha = 1/2 * min(1, 1/max p) keeps alpha * p in (0, 1/2].
    A rational weight is read as its ``point``, integers n_a over one
    scale, so with an exact alpha each alpha * p(a) is one integer over
    another: the identity link gets that Fraction where its float is > 0
    and finite on every atom, and otherwise, like every other link, the
    same correctly rounded float from integer division, or the Fraction
    where that float underflows to 0, which has no score.  Each score is the
    link's ``inverse``, and the atoms it refuses are named in one
    AlphaOutOfRangeError.
    """
    check_same_structure(structure, weight)
    report = check_admissible(weight)
    if not report.admissible:
        raise NotAdmissibleError(report)
    atoms = structure.atoms
    values = [weight.values[a] for a in atoms]
    exact = weight.mode == RATIONAL
    scale, nums = weight.point if exact else (1, values)
    zeros = [a for a, n in zip(atoms, nums) if not n > 0]
    if zeros:
        raise NotStrictlyPositiveError(zeros)

    if alpha is None:
        if exact:  # admissible, so max p <= 1
            alpha = Fraction(1, 2)
        else:
            alpha = 0.5 * min(1.0, 1.0 / max(values))
    if not (is_number(alpha) and alpha > 0):
        raise AlphaOutOfRangeError(f"alpha must be positive, got {alpha!r}")
    scores, outside, unscored = {}, [], []
    try:
        if exact and is_exact(alpha):
            num, den = alpha.numerator, alpha.denominator * scale
            if isinstance(link, IdentityLink):  # g^{-1}(y) = y
                products = [num * n for n in nums]
                if link.representable(products, den):
                    return GlobalScores({a: Fraction(p, den) for a, p in zip(atoms, products)})
            scaled = [num * n / den or Fraction(num * n, den) for n in nums]
        else:
            scaled = [alpha * v for v in values]
        for a, y in zip(atoms, scaled):
            try:
                scores[a] = link.inverse(y)
            except ScoreOutOfDomainError:
                (unscored if link.in_range(y) else outside).append(a)
    except OverflowError:
        raise AlphaOutOfRangeError("alpha * p overflows the float range") from None
    if outside or unscored:
        why = "falls outside the link range" if outside else f"has no {link.kind} score"
        raise AlphaOutOfRangeError(f"alpha * p {why} for: " + ", ".join(outside or unscored))
    return GlobalScores(scores)


def gauge_shift(
    structure: EventStructure,
    scores: GlobalScores,
    shift: float,
    component: Iterable[str],
    link: LinkFunction,
) -> GlobalScores:
    """Shift all scores of one connected component by a constant.

    For the exponential link this multiplies the positive coordinates of
    the component by exp(beta * shift) uniformly, which cancels in every
    quotient: the softmax probabilities are unchanged.  Other links have
    no additive gauge (their multiplicative freedom lives in q-space, not
    score space), so they are rejected.  The scores must be global scores
    naming exactly the structure's atoms, and the shift a finite number.
    """
    if not isinstance(link, ExponentialLink):
        raise ValidationError(
            "additive gauge shifts exist only for the exponential link; "
            "for other links rescale the positive coordinates instead"
        )
    if not isinstance(scores, GlobalScores):
        raise ValidationError("gauge shifts apply to global scores only")
    scores.check(structure)
    if not (is_number(shift) and -math.inf < shift < math.inf):
        raise ValidationError(f"the shift must be a finite number, got {shift!r}")
    target = frozenset(component)
    if target not in set(connected_components(structure)):
        raise NotAComponentError(
            "the given atom set is not a connected component of the structure"
        )
    shifted = {
        a: (v + shift if a in target else v) for a, v in scores.values.items()
    }
    return GlobalScores(shifted)


def boundary_path(
    structure: EventStructure,
    link: LinkFunction,
    r_values: Sequence[Any],
    target: Weight | None = None,
) -> list[tuple[Weight, float]]:
    """Strictly positive representable weights approaching a boundary
    weight along the path family.

    ``r_values`` must be positive and strictly decreasing; the default
    target is the half weight, which the family reaches as r -> 0.  Each
    returned pair is (path weight at r, largest cyclic-atom gap
    |1/(2+r) - target(a)|); each weight is passed through
    ``represent_weight`` to certify that it really is representable.
    """
    form = cycle_form(structure)
    if target is None:
        target = half_weight(structure)
    check_same_structure(structure, target)
    rs = list(r_values)
    if not rs:
        raise ValidationError("need at least one r value")
    if any(not (is_number(r) and r > 0) for r in rs):
        raise NegativePathParameterError(f"r values must all be positive, got {rs!r}")
    for earlier, later in zip(rs, rs[1:]):
        if not later < earlier:
            raise ValidationError("r values must be strictly decreasing")

    out: list[tuple[Weight, float]] = []
    for r in rs:
        w = path_weight(structure, r)
        represent_weight(structure, w, link)
        gap = max(abs(float(w[a]) - float(target[a])) for a in form.cyclic_atoms)
        out.append((w, gap))
    return out


# ------------------------------------------------------------------ maxent


def maxent_softmax(
    scores: Mapping[str, float],
    target_mean: float,
    tol: float = DEFAULT_TOL,
) -> tuple[float, dict[str, float]]:
    """Exponential softmax matching a mean score constraint.

    Among distributions over the given outcomes with expected score
    equal to ``target_mean``, entropy is maximised by a softmax
    exp(beta * u) / Z; the mean is strictly increasing in beta, so beta
    is found by bracketing (doubling from [-1, 1], up to 2**40) and
    bisection until the mean is within ``tol``; a bisection that ends
    farther away, as it can on scores of very different sizes, raises.
    ``scores`` maps each outcome to a finite number, and the target is a
    finite number; both are read as floats.
    """
    check_tolerance(tol)
    if not isinstance(scores, Mapping):
        raise ValidationError(f"scores must be a mapping, got {type(scores).__name__}")
    names = list(scores)
    u = list(coerce_values(scores, FLOAT)[0].values())
    if not (is_number(target_mean) and -math.inf < target_mean < math.inf):
        raise ValidationError(f"target mean must be a finite number, got {target_mean!r}")
    if len(u) < 2 or max(u) == min(u):
        raise DegenerateScoresError("scores must not all be equal")
    if not (min(u) < target_mean < max(u)):
        raise TargetOutOfRangeError(
            f"target mean {target_mean!r} is not strictly between "
            f"{min(u)} and {max(u)}"
        )

    def unnormalised(beta: float) -> list[float]:
        shift = max(beta * v for v in u)
        return [math.exp(beta * v - shift) for v in u]

    def mean(beta: float) -> float:
        w = unnormalised(beta)
        return sum(v * wi for v, wi in zip(u, w)) / sum(w)

    lo, hi = -1.0, 1.0
    while mean(lo) > target_mean:
        lo *= 2.0
        if lo < -(2.0**40):
            raise TargetOutOfRangeError("no bracket below 2**40 for the target mean")
    while mean(hi) < target_mean:
        hi *= 2.0
        if hi > 2.0**40:
            raise TargetOutOfRangeError("no bracket below 2**40 for the target mean")

    for _ in range(400):
        beta = 0.5 * (lo + hi)
        m = mean(beta)
        if abs(m - target_mean) <= tol and hi - lo <= 1e-12 * max(1.0, abs(beta)):
            break
        if m < target_mean:
            lo = beta
        else:
            hi = beta
    if not abs(m - target_mean) <= tol:
        raise TargetOutOfRangeError(f"bisection ended at mean {m!r}, more than {tol} off target")

    w = unnormalised(beta)
    z = sum(w)
    distribution = {n: wi / z for n, wi in zip(names, w)}
    return beta, distribution


# ------------------------------------------------- multiplicative property


@dataclass(frozen=True)
class MultiplicativeLinkReport:
    """Residuals of g(u+v) = g(u) * g(v) over sample pairs."""

    link: LinkFunction
    tolerance: float
    residuals: tuple[tuple[float, float, float], ...]
    multiplicative: bool

    def max_residual(self) -> float:
        return max((r for _, _, r in self.residuals), default=0.0)

    def to_json_dict(self) -> dict:
        return {
            **fields_to_json(self),
            "residuals": render([{"u": u, "v": v, "residual": r} for u, v, r in self.residuals]),
        }


def check_multiplicative_link(
    link: LinkFunction,
    pairs: Sequence[tuple[float, float]],
    tol: float = 1e-12,
) -> MultiplicativeLinkReport:
    """Test whether the link turns score addition into coordinate
    multiplication.

    The relative residual |g(u+v) - g(u)g(v)| / g(u)g(v) vanishes for
    the exponential link and for no other strictly increasing link; this
    is what singles out ordinary softmax among the generalized ones.  A
    pair with a point the link does not ``evaluate``, or where g(u)g(v)
    is not a positive finite float, has no residual and is refused.
    """
    check_tolerance(tol)
    residuals: list[tuple[float, float, float]] = []
    for u, v in pairs:
        try:
            gu, gv, lhs = (float(link.evaluate(x)) for x in (u, v, u + v))
        except ScoreOutOfDomainError as exc:
            raise ScoreOutOfDomainError(f"{exc} at the pair ({u!r}, {v!r})") from None
        rhs = gu * gv
        if not link.in_range(rhs):
            raise ScoreOutOfDomainError(
                f"g(u)*g(v) is not a positive finite float at the pair ({u!r}, {v!r})"
            )
        residuals.append((float(u), float(v), abs(lhs - rhs) / rhs))
    verdict = all(r <= tol for _, _, r in residuals)
    return MultiplicativeLinkReport(link, float(tol), tuple(residuals), verdict)
