"""Shared fixtures plus a terminal summary line per acceptance check."""

import tempfile
from pathlib import Path

import pytest
from hypothesis.configuration import set_hypothesis_home_dir

import pastedlogic as pl

# Property tests pass database=None; this keeps out of the checkout the
# caches hypothesis writes while collecting.
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "pastedlogic-hypothesis")


# The membership LP has no pivot bound, so a pricing fault would make it
# cycle for ever.  Tier-1's largest LP, C41 at r = 1/10, prices 8 908
# times (8 907 pivots and the last, empty, pricing call).
PRICING_BUDGET = 50_000


@pytest.fixture(autouse=True)
def pricing_budget(monkeypatch):
    """Fail, rather than hang, an LP on the real ``StateSpace`` that
    prices more than ``PRICING_BUDGET`` times, as ``ListFamily`` does for
    the fake.  The count restarts at each ``states.feasible_nonnegative``
    call; LPs a test runs through ``_simplex`` directly share one count.
    Subprocesses (CLI, demos, the benchmark selftest) are not covered."""
    from pastedlogic import states

    first_above, solve, calls = states.StateSpace.first_above, states.feasible_nonnegative, [0]

    def counted(space, w, t):
        calls[0] += 1
        if calls[0] > PRICING_BUDGET:
            raise AssertionError(f"more than {PRICING_BUDGET} pricing calls: the simplex cycles")
        return first_above(space, w, t)

    def budgeted(family, rhs):
        calls[0] = 0
        return solve(family, rhs)

    monkeypatch.setattr(states.StateSpace, "first_above", counted)
    monkeypatch.setattr(states, "feasible_nonnegative", budgeted)


@pytest.fixture(scope="session")
def triangle():
    return pl.cycle_logic(3)


@pytest.fixture(scope="session")
def square():
    return pl.cycle_logic(4)


@pytest.fixture(scope="session")
def pentagon():
    return pl.cycle_logic(5)


@pytest.fixture(scope="session")
def pentagon_states(pentagon):
    return pl.enumerate_two_valued_states(pentagon)


# Order and wording of the acceptance report, keyed by test name in
# tests/test_acceptance.py.  One line is printed per criterion at the end
# of the run.
ACCEPTANCE_LINES = {
    "test_c01_pentagon_half_weight": "01 pentagon half-weight: admissible, cyclic sum 5/2, nonclassical with verified witness",
    "test_c02_state_counts": "02 two-valued state counts: triangle 4, pentagon 11, vs exhaustive filter",
    "test_c03_bounds_table": "03 bounds for n in {5,7,9}: (n-1)/2, closed-form theta, strict ordering",
    "test_c04_threshold_sweep": "04 1000-point sweep: flags flip exactly at r=1/2 and r=sqrt(5)-2",
    "test_c05_representation_round_trip": "05 representation round trip: 100 weights x 3 links within 1e-10, identity exact",
    "test_c06_gluing": "06 gluing: global families glue at 1e-12; patterned family fails at |1/3 - e/(e+2)|",
    "test_c07_gauge_invariance": "07 gauge invariance: 50 score vectors x shifts {-3, 0.7, 5} within 1e-12",
    "test_c08_multiplicative_link": "08 multiplicative link: exponential passes, identity and power counterexamples fail",
    "test_c09_maxent": "09 maxent: scores (0,1) target 2/3 gives beta=ln 2; entropy maximal vs perturbations",
    "test_c10_table_reproduction": "10 table1: all 30 entries of the three-regime pentagon table",
    "test_c11_empirical_pipeline": "11 empirical pipeline: beyond-theta and classical branches, seeded, < 5 s",
    "test_c12_even_cycle_control": "12 even-cycle control: square half-weight classical at lambda = (1/2, 1/2)",
}

_acceptance_outcomes = {}


def pytest_runtest_logreport(report):
    if report.when != "call" or "test_acceptance.py" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    if name in ACCEPTANCE_LINES:
        _acceptance_outcomes[name] = report.outcome


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _acceptance_outcomes:
        return
    terminalreporter.section("acceptance criteria")
    for name, line in ACCEPTANCE_LINES.items():
        outcome = _acceptance_outcomes.get(name)
        if outcome is None:
            continue
        tag = "PASS" if outcome == "passed" else "FAIL"
        terminalreporter.write_line(f"[{tag}] {line}")
