"""Odd-cycle bounds and the three-region classification of weights.

On the n-cycle logic the cyclic sum  S(p) = p(a1) + ... + p(an)  obeys
a classical ceiling of (n-1)/2 for odd n (the independence number of the
cycle graph; n/2 for even n), while every admissible weight can reach
n/2.  In between sits the Lovasz theta value of the cycle graph,

    theta(n) = n cos(pi/n) / (1 + cos(pi/n)),

which is sqrt(5) for the pentagon and strictly between the classical
bound and n/2 for every odd n >= 5 (1 + cos(pi/n) > 2 cos(pi/n)).  Along
the path family  S(p_r) = n/(2+r), so each bound converts to an r
threshold: the path leaves the classical region at r = n/bound - 2 and
the theta region at r = n/theta - 2.

On the triangle (Specker's scenario) the exclusivity graph is complete
and the closed form gives theta = 1, the classical bound: pairwise
exclusive outcomes of a quantum model sum to at most 1, so every
nonclassical admissible weight there is beyond theta.  Other odd cycles
compare exactly, on integer brackets of cos(pi/n) at doubling precision;
even cycles, where the closed form is not the relevant value, do not.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import NotACycleStructureError
from .numeric import DEFAULT_TOL, RATIONAL, as_fraction, fields_to_json
from .states import MembershipResult, _decide_membership
from .structures import EventStructure, _check_cycle_length, cycle_form
from .weights import (
    AdmissibilityReport,
    Numeric,
    Weight,
    check_admissible,
    check_same_structure,
    cyclic_sum,
)

LABEL_NOT_ADMISSIBLE = "not-admissible"
LABEL_CLASSICAL = "classical"
LABEL_NONCLASSICAL = "admissible-nonclassical"
LABEL_BEYOND_THETA = "beyond-theta"


@dataclass(frozen=True)
class CycleBounds:
    """The three landmark values of the cyclic sum on an n-cycle."""

    n: int
    classical_bound: Fraction
    theta: float
    half_weight_value: Fraction
    odd: bool
    theta_applicable: bool

    to_json_dict = fields_to_json

    def exceeds_theta(self, cyclic_sum: Numeric) -> bool:
        """Whether a cyclic sum lies past theta, decided exactly.

        For 0 < s < n,  s > n c/(1+c)  holds exactly when  c < q = s/(n-s),
        with c = cos(pi/n).  That is decided on integers lo < 2**bits c < hi,
        bits doubling from 64 until 2**bits q falls outside them, as it does
        since c is irrational for n >= 4; at n = 3, c is 1/2 and compared so.
        """
        s = as_fraction(cyclic_sum)
        if not 0 < s < self.n:
            return s > 0
        q = s / (self.n - s)
        if self.n == 3:
            return q > Fraction(1, 2)
        bits = 64
        while True:
            lo, hi = (c * q.denominator for c in _cos_pi_over(self.n, bits))
            if not lo < q.numerator << bits < hi:
                return hi <= q.numerator << bits
            bits *= 2


@functools.cache
def _cos_pi_over(n: int, bits: int) -> tuple[int, int]:
    """Integers lo < 2**bits cos(pi/n) < hi for n >= 4, in fixed point of unit 2**-w:
    pi from Machin's 16 atan(1/5) - 4 atan(1/239), then cos's Taylor series at each
    end of pi/n's bracket (below 1, where cos decreases).  A series term is floor(t r),
    t the floored term before it and r < 1/2 exact, so errs by under 1 + 2/2 units if
    t erred by under 2; the first errs by under 1.  Cut at its first zero term t_k (so
    under 2), an alternating sum of shrinking terms errs by under 2k (floors) + 2 (tail):
    it is widened by that, and the w - bits guard bits keep hi - lo to a few units."""
    w = bits + bits.bit_length() + 4
    def alternating(t: int, step) -> tuple[int, int]:
        total = k = 0
        while t:
            total, k, t = total + (-1) ** k * t, k + 1, step(t, k + 1)
        return total - 2 * k - 2, total + 2 * k + 2
    a5, a239 = (alternating((1 << w) // b, lambda t, i: t * (2 * i - 1) // ((2 * i + 1) * b * b))
                for b in (5, 239))
    pi_lo, pi_hi = 16 * a5[0] - 4 * a239[1], 16 * a5[1] - 4 * a239[0]
    lo, hi = (alternating(1 << w, lambda t, i: t * x * x // ((2 * i - 1) * 2 * i << 2 * w))
              for x in (-(-pi_hi // n), pi_lo // n))
    return lo[0] >> w - bits, -(-hi[1] >> w - bits)


def cycle_bounds(n: int) -> CycleBounds:
    """Classical bound, theta, and the admissible maximum n/2.

    ``theta_applicable`` holds for every odd n.  At n = 3 theta equals
    the classical bound, 1: the exclusivity graph is complete.  It is
    False for even n (no gap: the classical bound already equals n/2).
    """
    _check_cycle_length(n)
    odd = n % 2 == 1
    theta = n * math.cos(math.pi / n) / (1.0 + math.cos(math.pi / n))
    return CycleBounds(
        n=n,
        classical_bound=Fraction(n // 2),  # the independence number of the cycle
        theta=theta,
        half_weight_value=Fraction(n, 2),
        odd=odd,
        theta_applicable=odd,
    )


def path_thresholds(n: int) -> tuple[Fraction, float | None]:
    """r values where the path family crosses each bound.

    Solving n/(2+r) = bound gives r = n/bound - 2.  The classical
    threshold is exact; the theta threshold exists for odd n only
    (pentagon: sqrt(5) - 2; triangle: 1, the classical threshold).
    """
    b = cycle_bounds(n)
    r_classical = Fraction(n) / b.classical_bound - 2
    r_theta = n / b.theta - 2.0 if b.theta_applicable else None
    return r_classical, r_theta


@dataclass(frozen=True)
class RegionReport:
    """Where one weight sits: outside, classical, in between, or past
    theta.  Certificates from the underlying checks ride along."""

    label: str
    admissibility: AdmissibilityReport
    membership: MembershipResult | None
    cyclic_sum: Numeric | None
    bounds: CycleBounds | None
    beyond_theta: bool | None

    def to_json_dict(self) -> dict:
        return {k: v for k, v in fields_to_json(self).items() if v is not None}


def classify_weight(
    structure: EventStructure,
    weight: Weight,
    tol: float = DEFAULT_TOL,
) -> RegionReport:
    """Admissibility, then exact membership, then the theta comparison.

    The theta comparison runs only on odd cycles, the triangle included,
    where theta is the classical bound 1; on even cycles ``beyond_theta``
    stays None.  On a cycle an exact weight's membership verdict is
    checked against the closed form: classical exactly when the cyclic
    sum is at most the classical bound, which on even cycles every
    admissible weight meets.
    """
    check_same_structure(structure, weight)
    adm = check_admissible(weight, tol)
    if not adm.admissible:
        return RegionReport(LABEL_NOT_ADMISSIBLE, adm, None, None, None, None)

    membership = _decide_membership(structure, weight)

    s: Numeric | None = None
    b: CycleBounds | None = None
    beyond: bool | None = None
    try:
        form = cycle_form(structure)
    except NotACycleStructureError:
        form = None
    if form is not None:
        s = cyclic_sum(structure, weight)
        b = cycle_bounds(form.n)
        if b.theta_applicable:
            beyond = b.exceeds_theta(s)
        # Float points are rationalized before the LP and may sit just
        # outside the admissible polytope, so only exact weights are held
        # to the closed form.
        if weight.mode == RATIONAL and membership.classical != (s <= b.classical_bound):
            raise RuntimeError("membership LP disagrees with the cycle closed form")

    if membership.classical:
        label = LABEL_CLASSICAL
        beyond = False if beyond is not None else beyond
    elif beyond:
        label = LABEL_BEYOND_THETA
    else:
        label = LABEL_NONCLASSICAL
    return RegionReport(label, adm, membership, s, b, beyond)
