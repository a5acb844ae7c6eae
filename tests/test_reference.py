"""Every root that _root returns lies within ROOT_TOL_FACTOR*N of the
decimal reference of reference.py, on the documented domain, far outside
it, and on steep links; and metrics' conventional_so flag agrees with
the reference system optimum's TTT."""

import decimal
from decimal import Decimal

import pytest
from conftest import recorded_roots, scenarios, steep_scenario, wide_scenarios
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from reference import CONTEXT, reference_root, rounding_reach, stage_map, total_travel_time

from erstoll.analysis import SO_REL_TOL, metrics, min_total_travel_time
from erstoll.equilibrium import ROOT_TOL_FACTOR, solve, verify_equilibrium

# the steep repros: N 355 with powers (10, 100), (4, 50) and (60, 2), and
# the bundled scenario with link 2 at power 50 (free-flow time 1,
# capacity 1 and alpha 1 on both links)
STEEP_CASES = [(355.0, 10.0, 100.0), (355.0, 4.0, 50.0), (355.0, 60.0, 2.0), (1000.0, 4.0, 50.0)]

# A draw whose equilibrium TTT lies within this fraction of the optimum
# of the SO_REL_TOL boundary is skipped: there the float optimum's own
# roundings, and the root's tolerance, may decide the flag.
SO_MARGIN = Decimal("1e-9")


def roots_of(scenario):
    """(what, lo, hi, n_total, root) of each _root call that returns in
    solve(scenario) and in min_total_travel_time on its network and N; a
    named overflow (an ArithmeticError) ends a call, and the roots before
    it are kept."""
    with recorded_roots() as calls:
        for call in (
            lambda: solve(scenario),
            lambda: min_total_travel_time(scenario.network, scenario.total_vehicles),
        ):
            try:
                call()
            except ArithmeticError:
                pass
    return [call[:5] for call in calls]


def misses(scenario, calls):
    """The calls whose root is further from the reference than
    ROOT_TOL_FACTOR*N plus the rounding reach of the float map there
    (reference.rounding_reach, far below ROOT_TOL_FACTOR*N but where
    both links run near free flow), each with its error and that
    allowance as fractions of N."""
    out = []
    for what, lo, hi, n_total, root in calls:
        g, n = stage_map(scenario, what, hi), Decimal(n_total)
        reference = reference_root(g, lo, hi, n_total)
        allowed = Decimal(ROOT_TOL_FACTOR) + rounding_reach(g, reference, lo, hi, n_total) / n
        error = abs(Decimal(root) - reference) / n
        if error > allowed:
            out.append((what, lo, hi, root, float(error), float(allowed)))
    return out


@settings(max_examples=200, derandomize=True, deadline=None)
@given(scn=st.one_of(scenarios(), wide_scenarios()))
def test_roots_match_the_decimal_reference(scn):
    assert misses(scn, roots_of(scn)) == []


@settings(max_examples=150, derandomize=True, deadline=None)
@given(scn=scenarios())
def test_conventional_so_matches_the_decimal_optimum(scn):
    """conventional_so is ttt <= least*(1 + SO_REL_TOL), with least the
    TTT at the reference root of the marginal-cost gap on [0, N]."""
    link1, link2, n_total = scn.network.link1, scn.network.link2, scn.total_vehicles
    found = metrics(scn, solve(scn)[0])
    x = reference_root(stage_map(scn, "system optimum", n_total), 0.0, n_total, n_total)
    least = total_travel_time(link1, link2, n_total, x)
    with decimal.localcontext(CONTEXT):
        boundary = least * (1 + Decimal(SO_REL_TOL))
        assume(abs(Decimal(found.ttt) - boundary) > SO_MARGIN * least)
        assert found.conventional_so == (Decimal(found.ttt) <= boundary)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(
    scn=st.builds(
        steep_scenario,
        st.floats(2.0, 1000.0),
        st.floats(1.0, 60.0),
        st.floats(1.0, 60.0),
    )
)
@example(scn=steep_scenario(*STEEP_CASES[0]))
@example(scn=steep_scenario(*STEEP_CASES[1]))
@example(scn=steep_scenario(*STEEP_CASES[2]))
@example(scn=steep_scenario(*STEEP_CASES[3]))
def test_steep_roots_match_the_decimal_reference(scn):
    assert misses(scn, roots_of(scn)) == []


@pytest.mark.parametrize("case", STEEP_CASES[:3], ids=["10-100", "4-50", "60-2"])
def test_steep_repros_verify(case):
    """The N 355 repros (steep.cfg: test_equilibrium)."""
    scn = steep_scenario(*case)
    result, _ = solve(scn)
    assert verify_equilibrium(scn, result) == []


def test_a_root_moved_ten_steps_misses_the_reference():
    """The check is fine enough to see a root moved by 10 root steps,
    10*ROOT_TOL_FACTOR*N, either way."""
    scn = steep_scenario(*STEEP_CASES[3])
    calls = roots_of(scn)
    assert {what for what, *_ in calls} == {
        "balanced flow", "fixed point (corner_other_on_1)", "system optimum"
    }
    assert misses(scn, calls) == []
    for sign in (1.0, -1.0):
        moved = [
            (what, lo, hi, n, root + sign * 10.0 * ROOT_TOL_FACTOR * n)
            for what, lo, hi, n, root in calls
        ]
        assert len(misses(scn, moved)) == len(calls)
