import dataclasses
import math
from fractions import Fraction

import pytest
from numpy.testing import assert_allclose

import pastedlogic as pl
from helpers import pentagon_pair, reference_cos_pi_over
from pastedlogic import InvalidCycleLengthError
from pastedlogic.bounds import _cos_pi_over


class TestCycleBounds:
    @pytest.mark.parametrize("n", [5, 7, 9, 11, 13, 15])
    def test_odd_cycle_values(self, n):
        b = pl.cycle_bounds(n)
        assert b.classical_bound == Fraction(n - 1, 2)
        closed_form = n * math.cos(math.pi / n) / (1 + math.cos(math.pi / n))
        assert abs(b.theta - closed_form) <= 1e-12
        assert float(b.classical_bound) < b.theta - 1e-9
        assert b.theta < n / 2 - 1e-9
        assert b.half_weight_value == Fraction(n, 2)
        assert b.odd

    def test_pentagon_theta_is_sqrt5(self):
        assert abs(pl.cycle_bounds(5).theta - math.sqrt(5.0)) <= 1e-12

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_even_cycles_have_no_gap(self, n):
        b = pl.cycle_bounds(n)
        assert b.classical_bound == Fraction(n, 2)
        assert not b.odd
        assert not b.theta_applicable

    def test_triangle_theta_is_the_classical_bound(self):
        # The exclusivity graph of C3 is complete: theta(K3) = 1.
        b = pl.cycle_bounds(3)
        assert b.classical_bound == 1
        assert b.theta_applicable
        assert abs(b.theta - 1) <= 1e-12

    def test_bad_length(self):
        with pytest.raises(InvalidCycleLengthError):
            pl.cycle_bounds(2)


class TestExactTheta:
    """``exceeds_theta`` decides  s > n cos(pi/n)/(1 + cos(pi/n))  without
    floats."""

    # isqrt(5 * 10**80) / 10**40 is sqrt(5) rounded down at 40 digits.
    BELOW_SQRT5 = Fraction(math.isqrt(5 * 10**80), 10**40)
    ABOVE_SQRT5 = BELOW_SQRT5 + Fraction(1, 10**40)

    def test_both_sides_of_sqrt5(self, pentagon):
        b = pl.cycle_bounds(5)
        assert float(self.BELOW_SQRT5) == float(self.ABOVE_SQRT5)
        assert b.exceeds_theta(self.ABOVE_SQRT5)
        assert not b.exceeds_theta(self.BELOW_SQRT5)
        for s, label in [(self.ABOVE_SQRT5, "beyond-theta"), (self.BELOW_SQRT5, "admissible-nonclassical")]:
            report = pl.classify_weight(pentagon, pl.path_weight(pentagon, 5 / s - 2))
            assert report.cyclic_sum == s
            assert report.label == label
            assert report.beyond_theta is (label == "beyond-theta")

    @pytest.mark.parametrize("n", [*range(3, 42, 2), 101])
    def test_agrees_with_the_float_comparison_away_from_theta(self, n):
        b = pl.cycle_bounds(n)
        for factor in (1 - 1e-6, 1 + 1e-6, 1 - 1e-9, 1 + 1e-9, 1 - 1e-12, 1 + 1e-12):
            s = b.theta * factor
            assert b.exceeds_theta(s) == (s > b.theta)
            assert b.exceeds_theta(Fraction(s)) == (s > b.theta)

    @pytest.mark.parametrize("k", [40, 60, 100, 200, 500])
    def test_the_pentagon_within_ten_to_the_minus_k_of_sqrt5(self, pentagon, k):
        """s = sqrt(5) +- 10**-k is past theta exactly when s**2 > 5."""
        near = Fraction(math.isqrt(5 * 10 ** (2 * k + 20)), 10 ** (k + 10))
        for s in (near + Fraction(1, 10**k), near - Fraction(1, 10**k)):
            beyond = s * s > 5
            assert pl.cycle_bounds(5).exceeds_theta(s) is beyond
            report = pl.classify_weight(pentagon, pl.path_weight(pentagon, 5 / s - 2))
            assert report.cyclic_sum == s
            assert report.label == ("beyond-theta" if beyond else "admissible-nonclassical")

    @pytest.mark.parametrize("n", [*range(4, 42), 101, 10_001, 10**6])
    def test_the_bracket_is_a_few_units_around_the_reference(self, n):
        ref_lo, ref_hi = reference_cos_pi_over(n, 16)
        for bits in (64, 128, 1024):
            lo, hi = _cos_pi_over(n, bits)
            assert lo < hi <= lo + 4
            assert Fraction(lo, 2**bits) < ref_hi and ref_lo < Fraction(hi, 2**bits)

    def test_outside_zero_to_n(self):
        b = pl.cycle_bounds(7)
        assert b.exceeds_theta(7) and b.exceeds_theta(Fraction(15, 2))
        assert not b.exceeds_theta(0) and not b.exceeds_theta(-1.5)

    @pytest.mark.parametrize("bad", ["x", math.nan])
    def test_a_cyclic_sum_must_be_a_finite_number(self, bad):
        with pytest.raises(pl.ValidationError, match="cannot convert"):
            pl.cycle_bounds(5).exceeds_theta(bad)

    def test_triangle_theta_is_one(self):
        b = pl.cycle_bounds(3)
        assert not b.exceeds_theta(1)
        assert b.exceeds_theta(Fraction(1001, 1000))


class TestPathThresholds:
    def test_pentagon(self):
        r_classical, r_theta = pl.path_thresholds(5)
        assert r_classical == Fraction(1, 2)
        assert_allclose(r_theta, math.sqrt(5.0) - 2.0, atol=1e-12)

    def test_heptagon(self):
        r_classical, r_theta = pl.path_thresholds(7)
        assert r_classical == Fraction(1, 3)
        theta7 = 7 * math.cos(math.pi / 7) / (1 + math.cos(math.pi / 7))
        assert_allclose(r_theta, 7 / theta7 - 2, atol=1e-12)

    def test_triangle_crosses_theta_where_it_leaves_the_classical_region(self):
        r_classical, r_theta = pl.path_thresholds(3)
        assert r_classical == 1
        assert_allclose(r_theta, 1.0, atol=1e-12)

    def test_even_cycle_never_crosses(self):
        r_classical, r_theta = pl.path_thresholds(4)
        assert r_classical == 0
        assert r_theta is None


class TestClassify:
    @pytest.mark.parametrize("n", [5, 7, 9])
    def test_half_weight_beyond_theta_on_odd_cycles(self, n):
        structure = pl.cycle_logic(n)
        report = pl.classify_weight(structure, pl.half_weight(structure))
        assert report.label == "beyond-theta"
        assert report.beyond_theta
        assert not report.membership.classical
        assert report.cyclic_sum == Fraction(n, 2)

    def test_triangle_half_weight_beyond_theta(self, triangle):
        # Specker's triangle: a1, a2, a3 are pairwise exclusive and sum to
        # 3/2, past the 1 that pairwise-orthogonal projectors allow.
        report = pl.classify_weight(triangle, pl.half_weight(triangle))
        assert report.label == "beyond-theta"
        assert report.beyond_theta is True
        assert report.cyclic_sum == Fraction(3, 2)

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_half_weight_classical_on_even_cycles(self, n):
        structure = pl.cycle_logic(n)
        report = pl.classify_weight(structure, pl.half_weight(structure))
        assert report.label == "classical"
        assert report.beyond_theta is None

    def test_between_the_bounds(self, pentagon):
        report = pl.classify_weight(pentagon, pl.path_weight(pentagon, Fraction(3, 10)))
        assert report.label == "admissible-nonclassical"
        assert report.beyond_theta is False
        assert report.cyclic_sum == Fraction(50, 23)

    def test_just_past_theta(self, pentagon):
        report = pl.classify_weight(pentagon, pl.path_weight(pentagon, Fraction(1, 5)))
        assert report.label == "beyond-theta"
        assert report.cyclic_sum == Fraction(25, 11)

    def test_classical_uniform(self, pentagon):
        report = pl.classify_weight(pentagon, pl.path_weight(pentagon, 1))
        assert report.label == "classical"
        assert report.beyond_theta is False
        assert report.membership.coefficients is not None

    def test_not_admissible(self, pentagon):
        bad = pl.make_weight(pentagon, {a: Fraction(1, 2) for a in pentagon.atoms})
        report = pl.classify_weight(pentagon, bad)
        assert report.label == "not-admissible"
        assert report.membership is None
        assert report.cyclic_sum is None

    def test_non_cycle_structure_skips_bounds(self):
        chain = pl.build_event_structure(["a", "b", "c"], [["a", "b"], ["b", "c"]])
        w = pl.make_weight(
            chain, {"a": Fraction(1, 2), "b": Fraction(1, 2), "c": Fraction(1, 2)}
        )
        report = pl.classify_weight(chain, w)
        assert report.label == "classical"
        assert report.bounds is None
        assert report.cyclic_sum is None

    def test_json_round_trip_fields(self, pentagon):
        doc = pl.classify_weight(pentagon, pl.half_weight(pentagon)).to_json_dict()
        assert doc["label"] == "beyond-theta"
        assert doc["cyclic_sum"] == "5/2"
        assert doc["bounds"]["n"] == 5
        assert doc["membership"]["classical"] is False


def pasting_weight(r):
    pasting = pentagon_pair()
    values = {a: (r if a[0] in "xy" else 1) / Fraction(2 + r) for a in pasting.atoms}
    return pasting, pl.make_weight(pasting, values)


class TestMembershipPath:
    """What ``classify_weight`` runs on the way to a label."""

    def test_no_state_is_listed(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("classify_weight listed the two-valued states")

        monkeypatch.setattr(pl.states, "enumerate_two_valued_states", refuse)
        monkeypatch.setattr(pl.StateSpace, "__iter__", refuse)
        labels = set()
        for n in range(5, 14):
            structure = pl.cycle_logic(n)
            for r in [0, Fraction(1, 10), Fraction(3, 10), 1]:
                labels.add(pl.classify_weight(structure, pl.path_weight(structure, r)).label)
        for r in [0, Fraction(1, 3), 1]:
            labels.add(pl.classify_weight(*pasting_weight(r)).label)
        assert labels == {"classical", "admissible-nonclassical", "beyond-theta"}

    def test_admissibility_is_checked_once(self, pentagon, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return pl.check_admissible(*args, **kwargs)

        monkeypatch.setattr(pl.bounds, "check_admissible", counted)
        monkeypatch.setattr(pl.states, "check_admissible", counted)
        pl.classify_weight(pentagon, pl.half_weight(pentagon))
        assert len(calls) == 1
        pl.classical_membership(pentagon, pl.half_weight(pentagon))
        assert len(calls) == 2

    def test_a_flipped_verdict_is_caught_on_exact_cycle_weights(self, monkeypatch):
        decide = pl.bounds._decide_membership

        def flipped(*args, **kwargs):
            result = decide(*args, **kwargs)
            return dataclasses.replace(result, classical=not result.classical)

        monkeypatch.setattr(pl.bounds, "_decide_membership", flipped)
        for n, r in [(5, 0), (5, 1), (6, 0), (3, 1)]:
            structure = pl.cycle_logic(n)
            with pytest.raises(RuntimeError, match="closed form"):
                pl.classify_weight(structure, pl.path_weight(structure, r))
        # Float copies and structures that are not cycles are not checked:
        # the flipped verdict goes through.
        pentagon = pl.cycle_logic(5)
        for structure, weight in [(pentagon, pl.path_weight(pentagon, 0.5)), pasting_weight(1)]:
            report = pl.classify_weight(structure, weight)
            assert report.membership.classical != decide(structure, weight).classical


def lucas(n):
    a, b = 2, 1
    for _ in range(n):
        a, b = b, a + b
    return a


class TestLargeCycles:
    """Cycles far past what listing the states could reach: L_41 is about
    3.7e8 and L_101 about 1.3e21."""

    @pytest.mark.parametrize("n", [41, 101])
    def test_paths_past_the_classical_bound(self, n):
        structure = pl.cycle_logic(n)
        assert structure.state_space.count == lucas(n)
        r_classical, r_theta = pl.path_thresholds(n)
        theta = Fraction(r_theta).limit_denominator(10**6)
        regions = {
            "beyond-theta": [Fraction(0), theta / 2],
            "admissible-nonclassical": [(theta + r_classical) / 2],
        }
        facet = {a: 1 if a.startswith("a") else -Fraction(n + 1, 2) for a in structure.atoms}
        for label, rs in regions.items():
            for r in rs:
                report = pl.classify_weight(structure, pl.path_weight(structure, r))
                assert report.label == label
                assert report.cyclic_sum > report.bounds.classical_bound
                membership = report.membership
                assert membership.states is structure.state_space
                assert membership.witness == facet
                assert membership.witness_bound == -1
                assert membership.witness_value > -1
