import math
import pickle
import re

import numpy as np
import pytest
from conftest import (
    base_scenario,
    bpr_links,
    discrete_scenario,
    evenly_spaced_socs,
    random_discrete_scenario,
    random_link,
    scenarios,
    steep_scenario,
    wide_scenarios,
    write_scenario,
)
from dataclasses import replace
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_kernel import assert_oracle_is_the_enumerated_minimum

from erstoll import equilibrium
from erstoll.analysis import (
    PatternLabel, TollBand, _marginal, metrics, min_total_travel_time, toll_bands,
)
from erstoll.cli import main
from erstoll.dynamics import (
    Population,
    _SweepKernel,
    agents_from_scenario,
    rosenthal_potential,
    run,
)
from erstoll.equilibrium import (
    ROOT_TOL_FACTOR,
    VERIFY_MASS_TOL_FACTOR,
    ConvergenceError,
    EquilibriumResult,
    RegimeTag,
    _bpr_slope,
    _balanced,
    _time_gap,
    brute_force_equilibrium,
    _root,
    _wardrop_response,
    solve,
    verify_equilibrium,
)
from erstoll.harness import run_sweep, solve_row, table1_scenario
from erstoll.model import (
    DiscreteAgents,
    FixedToll,
    FreeToll,
    LinkParams,
    Network,
    Preferences,
    Scenario,
    UniformContinuum,
    bpr_time,
    charging_value,
    threshold_soc,
)

PREFS = Preferences(vot=50.0, voe=100.0)


def cube(x):
    return x**3 - 0.3, 3.0 * x * x


def test_root_evaluates_each_point_once():
    for slope_factor in (1.0, 1e-3, 0.0):  # Newton, overshooting, no slope
        args = []

        def g(x):
            args.append(x)
            value, slope = cube(x)
            return value, slope_factor * slope

        root = _root(g, 0.0, 1.0, 1.0, "test")
        assert root == pytest.approx(0.3 ** (1 / 3), abs=1e-12)
        assert len(args) == len(set(args))


def test_root_rejects_a_non_monotone_map():
    # the secant point of the ends is 0.5, where the map leaves their range
    values = {0.0: -1.0, 1.0: 1.0, 0.5: 5.0}
    with pytest.raises(ConvergenceError, match=r"test, N 1.0: map is not monotone .*\[0.0, 1.0\]"):
        _root(lambda x: (values[x], 1.0), 0.0, 1.0, 1.0, "test")


def test_root_iteration_cap(monkeypatch):
    monkeypatch.setattr(equilibrium, "MAX_ITER", 3)
    with pytest.raises(
        ConvergenceError,
        match=r"test, N 0.0: no convergence to xtol=0.0 after 3 iterations \(bracket \[.*\], residual ",
    ):
        _root(cube, 0.0, 1.0, 0.0, "test")


def test_root_bisects_where_newton_steps_crawl():
    """Left of the root of 1e-150 - (1 - x)**50 each Newton step closes
    about a fiftieth of the distance, so it fails to halve the step before
    last and the bracket is bisected instead: a few dozen evaluations
    (over 200 Newton steps crawled before), and the root is the double
    where the map is nearest zero."""
    args = []

    def steep(x):
        args.append(x)
        u = 1.0 - x
        return 1e-150 - u**50, 50.0 * u**49

    root = _root(steep, 0.0, 1.0, 1.0, "test")
    assert len(args) <= 40
    value = abs(steep(root)[0])
    for neighbour in (math.nextafter(root, 0.0), math.nextafter(root, 1.0)):
        assert value <= abs(steep(neighbour)[0])
    assert root == pytest.approx(1.0 - 1e-3, abs=1e-15)


@pytest.mark.parametrize(
    ("value", "error", "message"),
    [(math.nan, OverflowError, "the map is nan at"), (-2.0, ConvergenceError, "not monotone")],
    ids=["nan", "below-the-ends"],
)
def test_root_checks_the_bisections_values(value, error, message):
    """The crawling map of the test above, which returns value at the
    first bisection: after the ends, the midpoint (the secant point of the
    ends rounds onto 1) and two Newton steps of about 0.01, the third
    step does not halve the first, so the sixth point is the midpoint of
    the bracket.  Its value raises, as a Newton step's would, naming the
    map and N."""
    args = []

    def steep(x):
        args.append(x)
        if len(args) == 6:
            return value, 0.0
        u = 1.0 - x
        return 1e-150 - u**50, 50.0 * u**49

    with pytest.raises(error, match=f"^test, N 1.0: .*{message}"):
        _root(steep, 0.0, 1.0, 1.0, "test")
    assert len(args) == 6
    assert args[5] == 0.5 * (args[4] + 1.0)


def test_steep_links_solve_past_the_newton_iterations():
    """The bundled scenario with link 2 at power 50 (free-flow time 1,
    capacity 1, alpha 1 on both links): the balanced flow's Newton steps
    crawl, so solve once raised `no convergence ... after 200 iterations`;
    bisecting where they crawl gives a verified equilibrium."""
    scn = steep_scenario(1000.0, 4.0, 50.0)
    result, _ = solve(scn)
    assert verify_equilibrium(scn, result) == []
    assert result.x1 == pytest.approx(998.2624, abs=1e-4)


def test_steep_link_grid_solves_or_names_an_overflow():
    """Over a grid of N 2-1 000 and each link's power 1-1 000 (free-flow
    time 1, capacity 1, alpha 1), solve returns a verified equilibrium or
    raises a named overflow, and the system optimum is found: no
    ConvergenceError (35 cells of solve and 130 of the optimum raised one
    before the bisections)."""
    overflows = 0
    for total in np.geomspace(2.0, 1000.0, 7):
        for beta1 in np.geomspace(1.0, 1000.0, 7):
            for beta2 in np.geomspace(1.0, 1000.0, 7):
                scn = steep_scenario(total, beta1, beta2)
                try:
                    result, _ = solve(scn)
                except ArithmeticError as exc:
                    assert f", N {scn.total_vehicles}: " in str(exc), exc
                    overflows += 1
                else:
                    assert verify_equilibrium(scn, result) == [], (total, beta1, beta2)
                min_total_travel_time(scn.network, scn.total_vehicles)
    assert overflows < 7**3 / 2


def _moved_half_a_root_step(scn, result, cell, sign):
    """result with x1_d or x1_o (cell) moved by sign times half the root's
    step, ROOT_TOL_FACTOR*N, within its class total, and t1, t2 and
    s_thres recomputed at the moved flows."""
    total = scn.n_dwpt if cell == "x1_d" else scn.n_other
    half_step = 0.5 * ROOT_TOL_FACTOR * scn.total_vehicles
    x1 = min(max(getattr(result, cell) + sign * half_step, 0.0), total)
    moved = result._replace(**{cell: x1, f"x2_{cell[-1]}": total - x1})
    t1 = bpr_time(scn.network.link1, moved.x1)
    t2 = bpr_time(scn.network.link2, moved.x2)
    s_thres = threshold_soc(scn.prefs, scn.toll.dwpt_link1_charge, t1, t2)
    return moved._replace(t1=t1, t2=t2, s_thres=s_thres)


# a Network of its own, which no other test solves on, so _balanced builds it
NAMED_FAILURE_NETWORK = Network(
    LinkParams(12.0, 400.0, bpr_alpha=0.3, bpr_beta=2.0, has_ers=True, ers_power_kw=30.0),
    LinkParams(10.0, 500.0),
)


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: solve(base_scenario(network=NAMED_FAILURE_NETWORK)), "balanced flow, N 1000.0"),
        (
            lambda: solve(base_scenario(ratio=0.6, toll=FixedToll(0.0))),
            "fixed point (corner_other_on_2), N 1000.0",
        ),
        (
            lambda: solve(base_scenario(ratio=0.6, toll=FixedToll(1000.0))),
            "fixed point (corner_other_on_1), N 1000.0",
        ),
        (  # through _group_root, which splits the 0.5 group
            lambda: solve(discrete_scenario([0.2] * 300 + [0.5] * 300, 400, toll=FixedToll(0.0))),
            "fixed point (corner_other_on_2), N 1000.0",
        ),
        (lambda: min_total_travel_time(NAMED_FAILURE_NETWORK, 1000.0), "system optimum, N 1000.0"),
    ],
    ids=["balanced", "corner-on-2", "corner-on-1", "discrete-corner", "optimum"],
)
def test_a_convergence_error_names_its_map_and_n(call, name, monkeypatch):
    monkeypatch.setattr(equilibrium, "MAX_ITER", 1)
    with pytest.raises(ConvergenceError, match="^" + re.escape(name) + ": no convergence "):
        call()


def test_an_error_row_names_the_map_and_n(monkeypatch):
    monkeypatch.setattr(equilibrium, "MAX_ITER", 1)
    row = solve_row(base_scenario(network=NAMED_FAILURE_NETWORK))
    assert row.error.startswith("balanced flow, N 1000.0: no convergence "), row.error


@pytest.mark.parametrize("beta", [1.0, 1.5, 2.0, 4.0, 6.3, 8.0])
@pytest.mark.parametrize("alpha", [0.0, 0.15, 1.0])
def test_bpr_and_marginal_slopes_match_finite_differences(alpha, beta):
    link = LinkParams(7.0, 250.0, alpha, beta)
    # link 2 has a constant time, so the time-gap map's slope is link 1's
    time_gap = _time_gap(link, LinkParams(10.0, 250.0, bpr_alpha=0.0), 800.0)

    def marginal(x):
        return _marginal(link, x, bpr_time(link, x))

    # central differences inside, to their rounding of about ulp(t0)/h; a
    # forward one at x = 0, where the slope for beta > 1 is 0 and the
    # quotient is O(h**(beta - 1))
    for x, h, abs_tol in ((0.0, 1e-8, 1e-6), (1.0, 1e-4, 1e-10), (60.0, 1e-4, 1e-10),
                          (250.0, 1e-4, 1e-10), (700.0, 1e-4, 1e-10)):
        lo = max(x - h, 0.0)
        for cost in (time_gap, marginal):
            quotient = (cost(x + h)[0] - cost(lo)[0]) / (x + h - lo)
            assert cost(x)[1] == pytest.approx(quotient, rel=1e-6, abs=abs_tol)
    assert time_gap(60.0)[0] == bpr_time(link, 60.0) - 10.0
    assert marginal(60.0)[0] == pytest.approx(
        7.0 * (1.0 + alpha * (beta + 1.0) * (60.0 / 250.0) ** beta), rel=1e-12
    )
    if beta == 1.0:
        assert time_gap(0.0)[1] == 7.0 * alpha / 250.0


@settings(max_examples=300, deadline=None)
@given(
    scn=wide_scenarios(),
    inside=st.lists(st.floats(0.0, 1.0), max_size=6),
    outside=st.lists(
        st.floats(-1e300, 0.0, exclude_max=True) | st.floats(1.0, 1e300, exclude_min=True),
        max_size=4,
    ),
)
def test_time_gap_is_bpr_time_bit_for_bit(scn, inside, outside):
    # at link-1 flows N*f: f in [0, 1] prices both links; a negative f
    # fails link 1's flow check, and f > 1 link 2's, unless link 1's
    # power overflows first (bpr_time's order, link 1 then link 2)
    link1, link2, n_total = scn.network.link1, scn.network.link2, scn.total_vehicles
    time_gap = _time_gap(link1, link2, n_total)
    for x in [0.0, n_total] + [n_total * f for f in inside + outside]:
        try:
            t1 = bpr_time(link1, x)
            t2 = bpr_time(link2, n_total - x)
        except (ValueError, OverflowError) as exc:
            with pytest.raises(type(exc)) as raised:
                time_gap(x)
            assert str(raised.value) == str(exc)
            continue
        expected = t1 - t2, _bpr_slope(link1, x, t1) + _bpr_slope(link2, n_total - x, t2)
        assert repr(time_gap(x)) == repr(expected)  # bit for bit, nan and -0.0 too


class TestThresholdSoc:
    def test_equal_times_base_case(self):
        assert threshold_soc(PREFS, 100.0, 11.5, 11.5) == pytest.approx(0.5)

    def test_low_charging_value(self):
        prefs = Preferences(vot=50.0, voe=50.0)
        assert threshold_soc(prefs, 100.0, 11.5, 11.5) == pytest.approx(1 / 3)

    def test_zero_toll_equal_times_means_all_charge(self):
        assert threshold_soc(PREFS, 0.0, 11.5, 11.5) == 1.0

    def test_time_advantage_can_absorb_the_whole_toll(self):
        # toll 100 exactly offset by a 2-minute advantage at vot 50
        assert threshold_soc(PREFS, 100.0, 9.5, 11.5) == 1.0
        assert threshold_soc(PREFS, 100.0, 9.0, 11.5) == 1.0

    def test_time_penalty_tightens_the_threshold(self):
        slower = threshold_soc(PREFS, 100.0, 12.0, 11.5)
        assert slower < threshold_soc(PREFS, 100.0, 11.5, 11.5)
        assert slower == pytest.approx(100.0 / (100.0 + 100.0 + 25.0))

    def test_never_nonpositive(self):
        assert threshold_soc(PREFS, 1e9, 20.0, 10.0) > 0.0


class TestSolveInterior:
    def test_base_scenario_splits_both_classes(self):
        scn = base_scenario()
        result, regime = solve(scn)
        assert regime is RegimeTag.INTERIOR
        assert result.s_thres == pytest.approx(0.5)
        assert result.x1_d == pytest.approx(100.0)
        assert result.x2_d == pytest.approx(100.0)
        assert result.x1_o == pytest.approx(400.0)
        assert result.x2_o == pytest.approx(400.0)
        assert result.x1 == pytest.approx(500.0, abs=1e-9)
        assert result.t1 == pytest.approx(11.5, abs=1e-9)
        assert result.t2 == pytest.approx(11.5, abs=1e-9)
        assert verify_equilibrium(scn, result) == []

    def test_prohibitive_toll_clears_the_ers_link_of_dwpt(self):
        scn = base_scenario(toll=FixedToll(1000.0))
        result, regime = solve(scn)
        assert regime is RegimeTag.INTERIOR
        assert result.x1_d == pytest.approx(0.0)
        assert result.x1_o == pytest.approx(500.0)
        assert verify_equilibrium(scn, result) == []

    def test_free_ers_draws_every_dwpt_at_low_share(self):
        scn = base_scenario(toll=FreeToll())
        result, regime = solve(scn)
        assert regime is RegimeTag.INTERIOR
        assert result.s_thres == 1.0
        assert result.x1_d == pytest.approx(200.0)
        assert result.x1_o == pytest.approx(300.0)
        assert verify_equilibrium(scn, result) == []

    def test_low_share_always_balances_flows(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            scn = base_scenario(
                ratio=float(rng.uniform(0.05, 0.45)),
                vot=float(rng.uniform(10, 100)),
                voe=float(rng.uniform(10, 300)),
                toll=FixedToll(float(rng.uniform(0, 1000))),
            )
            result, regime = solve(scn)
            assert regime is RegimeTag.INTERIOR
            assert result.x1 == pytest.approx(result.x2, abs=1e-6)
            assert verify_equilibrium(scn, result) == []


class TestSolveCorners:
    def test_high_share_toll_free_pushes_other_off_ers_link(self):
        scn = base_scenario(ratio=0.8, toll=FreeToll())
        result, regime = solve(scn)
        assert regime is RegimeTag.CORNER_OTHER_ON_2
        assert result.x1_o == 0.0
        # fixed point solved independently from the threshold identity
        assert result.x1_d == pytest.approx(545.409187, abs=1e-3)
        assert result.t1 == pytest.approx(12.123738, abs=1e-4)
        assert result.t2 == pytest.approx(11.024929, abs=1e-4)
        assert result.s_thres == pytest.approx(0.645409, abs=1e-5)
        assert result.t1 > result.t2
        assert verify_equilibrium(scn, result) == []

    def test_corner_fixed_point_is_self_consistent(self):
        for price, expected in ((0.0, 521.419391), (15.0, 510.845062), (30.0, 500.304742)):
            scn = base_scenario(ratio=0.6, toll=FixedToll(price))
            result, regime = solve(scn)
            assert regime is RegimeTag.CORNER_OTHER_ON_2
            assert result.x1_d == pytest.approx(expected, abs=1e-3)
            # the mass on link 1 reproduces its own threshold count
            count = scn.soc.count_below(
                threshold_soc(scn.prefs, price, result.t1, result.t2)
            )
            assert result.x1_d == pytest.approx(count, abs=1e-5)
            assert verify_equilibrium(scn, result) == []

    def test_heavy_toll_with_high_share_fills_ers_link_with_other(self):
        scn = base_scenario(ratio=0.6, toll=FixedToll(400.0))
        result, regime = solve(scn)
        assert regime is RegimeTag.CORNER_OTHER_ON_1
        assert result.x2_o == 0.0
        assert result.t1 < result.t2
        count = scn.soc.count_below(
            threshold_soc(scn.prefs, 400.0, result.t1, result.t2)
        )
        assert result.x1_d == pytest.approx(count, abs=1e-5)
        assert verify_equilibrium(scn, result) == []

    def test_extreme_toll_with_high_share_empties_dwpt_from_ers(self):
        scn = base_scenario(ratio=0.6, toll=FixedToll(1100.0))
        result, regime = solve(scn)
        assert regime is RegimeTag.CORNER_OTHER_ON_1
        assert result.x1_d == 0.0
        assert result.x1_o == pytest.approx(400.0)
        assert verify_equilibrium(scn, result) == []

    def test_all_dwpt_charge_at_boundary(self):
        # eager pool (low SoC) and tiny toll: the whole DWPT fleet charges
        scn = base_scenario(ratio=0.6, s_lo=0.05, s_hi=0.3, toll=FixedToll(1.0))
        result, regime = solve(scn)
        assert regime is RegimeTag.CORNER_OTHER_ON_2
        assert result.x1_d == pytest.approx(600.0)
        assert result.x2_d == pytest.approx(0.0)
        assert verify_equilibrium(scn, result) == []

    def test_conservation_across_regimes(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            scn = base_scenario(
                ratio=float(rng.uniform(0.5, 0.95)),
                vot=float(rng.uniform(10, 100)),
                voe=float(rng.uniform(10, 300)),
                toll=FixedToll(float(rng.uniform(0, 1200))),
            )
            result, _ = solve(scn)
            assert result.x1_d + result.x2_d == pytest.approx(
                scn.n_dwpt, rel=1e-6
            )
            assert result.x1_o + result.x2_o == pytest.approx(
                scn.n_other, rel=1e-6
            )
            assert min(result.x1_d, result.x2_d, result.x1_o, result.x2_o) >= 0
            assert verify_equilibrium(scn, result) == []


    def test_other_on_1_bracket_stays_inside_dwpt_mass(self):
        # x_eq is clamped to N, so the bracket end x_eq - n_other exceeded
        # n_dwpt by a rounding error and link 2 was handed a flow of
        # -5.3e-15.  The bracket end is now at most n_dwpt.
        link1 = LinkParams(
            free_flow_time=3.6507237412766913,
            capacity=39.90029716030172,
            bpr_alpha=0.17287321091775001,
            bpr_beta=2.7333038358784,
            has_ers=True,
            ers_power_kw=45.18547328199044,
        )
        link2 = LinkParams(
            free_flow_time=26.399815275536383,
            capacity=8.698055992205484,
            bpr_alpha=0.4767280309018644,
            bpr_beta=4.846079364008261,
        )
        n_total, ratio = 50.416740764438266, 0.2012435410158901
        scn = Scenario(
            total_vehicles=n_total,
            dwpt_ratio=ratio,
            soc=UniformContinuum(0.4475227218986806, 0.8682282329258871, ratio * n_total),
            prefs=Preferences(vot=87.75860227286637, voe=97.95789806389121),
            toll=FixedToll(124.58895516350957),
            network=Network(link1, link2),
        )
        result, regime = solve(scn)
        assert regime is RegimeTag.CORNER_OTHER_ON_1
        assert 0.0 <= result.x1_d <= scn.n_dwpt
        assert verify_equilibrium(scn, result) == []

    def test_other_on_1_tied_pool_at_the_interior_boundary(self):
        # 17 DWPT-EVs tied at SoC 0.5 are indifferent at t1 = t2 for this
        # toll.  n_other rounds to 11.000000000000002, so at the bracket
        # end x_eq - n_other the link-1 flow fell an ulp short of x_eq,
        # t1 < t2, and the whole tied group counted as charging: excess
        # was negative at both ends and solve raised ConvergenceError.
        link1 = LinkParams(2.0, 7.0, 1.0, 1.0, has_ers=True, ers_power_kw=30.0)
        link2 = LinkParams(2.0, 7.0, 1.0, 1.0)
        scn = discrete_scenario(
            [0.5] * 17,
            n_other=11,
            vot=10.0,
            voe=20.0,
            toll=FixedToll(20.0),
            network=Network(link1, link2),
        )
        result, regime = solve(scn)
        assert regime is RegimeTag.CORNER_OTHER_ON_1
        assert result.x1_d == pytest.approx(3.0)
        assert verify_equilibrium(scn, result) == []

    def test_other_on_1_root_at_the_interior_boundary_is_the_bracket_end(self):
        # Link 1 is faster even with all N on it, so x_eq = N, and
        # N - rN exceeds (1 - r)N by one ulp: solve takes the OTHER-on-
        # link-1 corner, whose bracket [0, x_eq - n_other] ends at rN.
        # Every DWPT-EV charges there, so the root is that end itself,
        # not an iterate 3e-8 short of it.
        network = Network(
            LinkParams(5.0, 500.0, has_ers=True, ers_power_kw=30.0),
            LinkParams(20.0, 500.0),
        )
        scn = base_scenario(
            total=100.0, ratio=0.34, toll=FixedToll(0.0), network=network
        )
        result, regime = solve(scn)
        assert regime is RegimeTag.CORNER_OTHER_ON_1
        assert result.x1_d == 34.0
        assert result.x2_d == 0.0
        assert verify_equilibrium(scn, result) == []


def random_pool(rng):
    """A continuum on N in [10, 1e7] or a pool of 3-200 agents with most
    SoCs tied at three levels; twin or differing links, r in (0.05, 0.95).
    Seeded numpy, not conftest.scenarios, as the 3 000-draw test pins it."""
    if rng.random() < 0.5:
        n_total = 10.0 ** rng.uniform(1.0, 7.0)
        ratio = rng.uniform(0.05, 0.95)
        s_lo = rng.uniform(0.05, 0.5)
        soc = UniformContinuum(s_lo, rng.uniform(s_lo + 0.05, 0.95), ratio * n_total)
    else:
        n = int(rng.integers(3, 201))
        n_dwpt = int(rng.integers(1, n))
        tied = rng.choice((0.2, 0.5, 0.8), n_dwpt)
        socs = np.where(rng.random(n_dwpt) < 0.6, tied, rng.uniform(0.02, 0.98, n_dwpt))
        n_total, ratio, soc = float(n), n_dwpt / n, DiscreteAgents(tuple(socs.tolist()))
    link1 = random_link(rng, n_total, ers=True)
    if rng.random() < 0.5:
        link2 = replace(link1, has_ers=False, ers_power_kw=None)
    else:
        link2 = random_link(rng, n_total)
    return Scenario(
        total_vehicles=n_total,
        dwpt_ratio=ratio,
        soc=soc,
        prefs=Preferences(vot=rng.uniform(10.0, 100.0), voe=rng.uniform(20.0, 300.0)),
        toll=FixedToll(rng.uniform(0.0, 300.0)),
        network=Network(link1, link2),
    )


def test_random_pools_solve_and_verify():
    # The documented domain: continuum and tied discrete pools, twin and
    # differing links, every regime.  A discrete pool's price steps at
    # each SoC group, so inside its corner bracket the crossing is a
    # whole number of DWPT-EVs or splits one group at that group's SoC.
    rng = np.random.default_rng(2)
    seen = set()
    for _ in range(3000):
        scn = random_pool(rng)
        result, regime = solve(scn)
        assert verify_equilibrium(scn, result) == [], scn
        discrete = isinstance(scn.soc, DiscreteAgents)
        twin = scn.network.link1.same_bpr(scn.network.link2)
        seen.add((discrete, twin, regime))
        x_eq = _balanced(scn.network, scn.total_vehicles)[1]
        ends = (x_eq, x_eq - scn.n_other, scn.n_dwpt)
        if discrete and regime is not RegimeTag.INTERIOR and result.x1_d not in ends:
            split = not result.x1_d.is_integer()
            if split:
                marginal_soc = scn.soc.quantile(result.x1_d)
                assert result.s_thres == pytest.approx(marginal_soc, abs=1e-9)
            seen.add(("discrete corner", split))
    assert len(seen) == 2 * 2 * len(RegimeTag) + 2


class TestSolveInvertsThePriceMap:
    def test_corner_toll_lies_between_prices_one_xtol_either_side(self):
        # the response's gap, toll - price, is non-decreasing in n and
        # solve roots it to xtol, so a corner root inside its bracket has
        # the gap's two signs one xtol either side of it
        rng = np.random.default_rng(8)
        inside = 0
        while inside < 200:
            scn = random_pool(rng)
            result, regime = solve(scn)
            if regime is RegimeTag.INTERIOR:
                continue
            x_eq, _, gap = _wardrop_response(scn, scn.toll.dwpt_link1_charge)
            if result.x1_d in (0.0, x_eq, x_eq - scn.n_other, scn.n_dwpt):
                continue  # a bracket end
            inside += 1
            xtol = ROOT_TOL_FACTOR * scn.total_vehicles
            below, above = result.x1_d - xtol, result.x1_d + xtol
            assert gap(scn.soc.quantile(below), below)[0] <= 0.0
            assert gap(scn.soc.quantile(above), above)[0] >= 0.0

    def test_interior_toll_is_the_price_at_the_closed_form_count(self):
        scn = table1_scenario()  # 100 of 200 DWPT-EVs charge at equal times
        result, regime = solve(scn)
        assert regime is RegimeTag.INTERIOR
        _, at_eq, gap = _wardrop_response(scn, scn.toll.dwpt_link1_charge)
        assert gap(scn.soc.quantile(result.x1_d), result.x1_d)[0] == pytest.approx(
            0.0, abs=1e-12 * scn.toll.dwpt_link1_charge
        )
        # toll_bands evaluates the same map: its a|c edge is the price at
        # n = rN, where the response keeps x_eq on link 1
        edge = toll_bands(scn)[0].c_high
        rn_price = charging_value(scn.prefs, scn.soc.quantile(scn.n_dwpt))
        assert edge == rn_price - scn.prefs.vot * at_eq[0]


def outcomes(scn):
    """repr of what solve, metrics and toll_bands give the scenario, or of
    the error each raises: equal reprs are equal bits, nan and -0.0 too."""
    def attempt(run, *args):
        try:
            return run(*args)
        except (ArithmeticError, ValueError, ConvergenceError) as exc:
            return type(exc), str(exc)

    solved = attempt(solve, scn)
    got = [solved, attempt(toll_bands, scn)]
    if isinstance(solved[0], EquilibriumResult):
        got.append(attempt(metrics, scn, solved[0]))
    return repr(got)


@st.composite
def memo_sequences(draw):
    """Scenarios on a twin and a differing network of one ERS link, at two
    values of N (a uniform or a discrete pool), each on the shared Network
    object or on an equal fresh copy of it."""
    link1 = draw(bpr_links(50.0, ers=True))
    shared = (
        Network(link1, replace(link1, has_ers=False, ers_power_kw=None)),
        Network(link1, draw(bpr_links(50.0))),
    )
    sequence = []
    for _ in range(draw(st.integers(2, 8))):
        network = draw(st.sampled_from(shared))
        if draw(st.booleans()):
            network = replace(network)
        n_total = draw(st.sampled_from((40, 60)))
        common = dict(
            voe=draw(st.floats(20.0, 300.0)),
            toll=FixedToll(draw(st.floats(0.0, 500.0))),
            network=network,
        )
        n_dwpt = draw(st.integers(1, n_total - 1))
        if draw(st.booleans()):
            scn = base_scenario(total=float(n_total), ratio=n_dwpt / n_total, **common)
        else:
            socs = draw(st.lists(st.floats(0.02, 0.98), min_size=n_dwpt, max_size=n_dwpt))
            scn = discrete_scenario(socs, n_total - n_dwpt, **common)
        sequence.append(scn)
    return sequence


class TestBalanceMemo:
    """_balanced keeps what it built for the last network and N
    (_balance): a scenario on the same Network object and N shares it."""

    @settings(max_examples=200, deadline=None)
    @given(sequence=memo_sequences())
    def test_a_shared_network_gives_what_a_cold_build_gives(self, sequence):
        # every scenario in turn, sharing what the memo holds, then each
        # rebuilt on a fresh copy of its network, which no entry can name
        shared = [outcomes(scn) for scn in sequence]
        cold = [outcomes(replace(scn, network=replace(scn.network))) for scn in sequence]
        assert shared == cold

    @staticmethod
    def balanced_flows(monkeypatch) -> list:
        """The bracket ends of every balanced-flow root from now on."""
        calls, root = [], equilibrium._root

        def counting(g, lo, hi, n_total, what):
            if what == "balanced flow":
                calls.append((lo, hi))
            return root(g, lo, hi, n_total, what)

        monkeypatch.setattr(equilibrium, "_root", counting)
        return calls

    @staticmethod
    def differing(capacity1=400.0) -> Network:
        # a fresh object, so no earlier test's entry names it
        return Network(
            LinkParams(12.0, capacity1, bpr_alpha=0.3, bpr_beta=2.0, has_ers=True, ers_power_kw=30.0),
            LinkParams(10.0, 500.0),
        )

    def test_a_sweep_roots_its_balanced_flow_once(self, monkeypatch):
        calls = self.balanced_flows(monkeypatch)
        rows = run_sweep(base_scenario(network=self.differing()), [
            ("toll.price", [0.0, 100.0, 400.0]),
            ("prefs.voe", [50.0, 300.0]),
            ("dwpt_ratio", [0.2, 0.6, 0.95]),
        ])
        assert len(rows) == 18 and not any(row.error for row in rows)
        assert calls == [(0.0, 1000.0)]

    @pytest.mark.parametrize("ratio", [0.2, 0.6, 0.9])
    def test_repeated_toll_bands_root_the_balanced_flow_once(self, monkeypatch, ratio):
        # at r = 0.9 no band break prices x1 = x_eq, so an entry stored
        # only once x_eq is priced was never stored
        calls = self.balanced_flows(monkeypatch)
        scn = base_scenario(ratio=ratio, network=self.differing())
        for price in range(10):
            toll_bands(replace(scn, toll=FixedToll(10.0 * price)))
        assert len(calls) == 1
        solve(scn)
        assert len(calls) == 1

    def test_an_entry_is_read_once(self, monkeypatch):
        # another thread, or an N whose __eq__ runs Python, may rebind the
        # memo between its key check and its return; the call must still
        # return what the entry it checked holds
        scn = table1_scenario()
        network, n_total = scn.network, scn.total_vehicles
        built = _balanced(network, n_total)
        other = self.differing(capacity1=625.0)
        other_entry = (other, n_total, _balanced(other, n_total))
        assert other_entry[2][1] != built[1]

        class Rebinding(tuple):
            def __getitem__(self, index):
                if index == 1:
                    equilibrium._balance = other_entry
                return super().__getitem__(index)

        monkeypatch.setattr(equilibrium, "_balance", Rebinding((network, n_total, built)))
        assert _balanced(network, n_total)[1] == built[1] == 0.5 * n_total

    def test_each_distinct_network_roots_its_own(self, monkeypatch):
        calls = self.balanced_flows(monkeypatch)
        for _ in range(4):
            assert not solve_row(base_scenario(network=self.differing())).error
        assert len(calls) == 4

    def test_a_balanced_flow_that_raises_fails_every_cell_and_keeps_no_entry(self, monkeypatch):
        # link 1's time overflows at flow N, an end of the balanced-flow root
        network = self.differing(capacity1=1e-300)
        expected = solve_row(base_scenario(network=replace(network))).error
        assert expected.startswith("balanced flow, N 1000.0: a link travel time overflows")
        calls = self.balanced_flows(monkeypatch)
        rows = run_sweep(base_scenario(network=network), [
            ("toll.price", [0.0, 100.0]),
            ("prefs.voe", [50.0, 100.0, 300.0]),
        ])
        assert [row.error for row in rows] == [expected] * 6
        assert len(calls) == 6
        assert equilibrium._balance[0] is not network

    @pytest.mark.parametrize("capacity2", [500.0, 1e-300], ids=["differing", "twin"])
    def test_a_balanced_flow_that_overflows_names_its_stage(self, capacity2, tmp_path, capsys):
        # differing links: link 1's time overflows at the root's end x = N;
        # twin links: at x_eq = N/2, where the map is priced
        network = Network(
            LinkParams(10.0, 1e-300, has_ers=True, ers_power_kw=30.0), LinkParams(10.0, capacity2)
        )
        scn = base_scenario(network=network)
        message = (
            "balanced flow, N 1000.0: a link travel time overflows (link 1: capacity 1e-300, "
            f"alpha 0.15, beta 4.0; link 2: capacity {capacity2}, alpha 0.15, beta 4.0)"
        )
        for call in (solve, toll_bands):
            with pytest.raises(OverflowError) as failure:
                call(scn)
            assert str(failure.value) == message
            assert isinstance(failure.value.__cause__, OverflowError)
        assert solve_row(scn).error == message
        path = tmp_path / "overflow.cfg"
        write_scenario(scn, path)
        for command in ("solve", "bands"):
            assert main([command, "--scenario", str(path)]) == 2
            assert capsys.readouterr().err == f"numerical failure: {message}\n"


class TestSolveDiscrete:
    def test_discrete_pool_matches_continuum_structure(self):
        scn = discrete_scenario(evenly_spaced_socs(6), n_other=14)
        result, regime = solve(scn)
        assert regime is RegimeTag.INTERIOR
        assert result.x1_d == pytest.approx(3.0)  # SoCs 0.1, 0.26, 0.42 < 0.5
        assert result.x1_o == pytest.approx(7.0)

    def test_dwpt_count_comes_from_the_pool(self):
        # dwpt_ratio * total_vehicles = (1/49)*49 rounds an ulp below the
        # one vehicle in the pool; x2_d used to come out as -1.1e-16.
        scn = discrete_scenario((0.5,), n_other=48, toll=FixedToll(0.0))
        result, _ = solve(scn)
        assert scn.n_dwpt == 1.0
        assert result.x1_d == 1.0
        assert result.x2_d == 0.0


def test_result_records_are_frozen_values():
    """EquilibriumResult, Metrics, RoundSnapshot, Trajectory, each
    AgentState view of a population and TollBand are named tuples: they
    print, compare and hash by their fields, survive a pickle round trip,
    and setting a field raises AttributeError.  A TollBand prints as the
    dataclass it was."""
    scn = discrete_scenario(evenly_spaced_socs(4), n_other=6)
    result, _ = solve(scn)
    population = agents_from_scenario(scn)
    traj = run(population, scn.network, scn.prefs, scn.toll)
    band = TollBand(PatternLabel.B_i_c, 10.0, 20.0)
    assert repr(band) == "TollBand(pattern=<PatternLabel.B_i_c: 'B_i_c'>, c_low=10.0, c_high=20.0)"
    assert (result.x1, result.x2) == (result.x1_d + result.x1_o, result.x2_d + result.x2_o)
    for record in (result, metrics(scn, result), traj.snapshots[-1], traj, *population, band):
        assert isinstance(record, tuple)
        assert pickle.loads(pickle.dumps(record)) == record
        values = [getattr(record, name) for name in record._fields]
        shown = ", ".join(f"{name}={value!r}" for name, value in zip(record._fields, values))
        assert repr(record) == f"{type(record).__name__}({shown})"
        copy = type(record)(*values)
        assert copy == record and hash(copy) == hash(record)
        assert record._replace(**{record._fields[0]: -1}) != record
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], values[0])


class TestVerifyEquilibrium:
    def test_flags_corrupted_flows(self):
        scn = base_scenario()
        result, _ = solve(scn)
        broken = result._replace(x1_d=result.x2_d, x2_d=result.x1_d + 50.0)
        assert verify_equilibrium(scn, broken) != []

    def test_flags_wrong_times(self):
        scn = base_scenario()
        result, _ = solve(scn)
        assert verify_equilibrium(scn, result._replace(t1=99.0)) != []

    def test_flags_threshold_violation(self):
        scn = base_scenario()
        result, _ = solve(scn)
        swapped = result._replace(x1_d=0.0, x2_d=200.0)
        assert verify_equilibrium(scn, swapped) != []

    # Base equilibrium: x1_d = x2_d = 100, x1_o = x2_o = 400, t1 = t2 = 11.5.

    def test_flags_negative_flow(self):
        scn = base_scenario()
        result, _ = solve(scn)
        broken = result._replace(x1_o=-10.0, x2_o=810.0)
        assert "negative flow x1_o = -10.0" in verify_equilibrium(scn, broken)

    def test_flags_other_flows_off_the_class_total(self):
        scn = base_scenario()
        result, _ = solve(scn)
        broken = result._replace(x2_o=450.0)
        problems = verify_equilibrium(scn, broken)
        assert "OTHER flows do not sum to the class total" in problems

    def test_flags_other_missing_from_the_faster_link(self):
        scn = base_scenario()
        link1, link2 = scn.network.link1, scn.network.link2
        result, _ = solve(scn)
        t1, t2 = bpr_time(link1, 100.0), bpr_time(link2, 900.0)
        broken = result._replace(x1_o=0.0, x2_o=800.0, t1=t1, t2=t2)
        problems = verify_equilibrium(scn, broken)
        assert f"OTHER on link 2 would gain {50.0 * (t2 - t1)} JPY by leaving it" in problems

    def test_flags_other_on_the_slower_link(self):
        scn = base_scenario()
        link1, link2 = scn.network.link1, scn.network.link2
        result, _ = solve(scn)
        t1, t2 = bpr_time(link1, 900.0), bpr_time(link2, 100.0)
        broken = result._replace(x1_o=800.0, x2_o=0.0, t1=t1, t2=t2)
        problems = verify_equilibrium(scn, broken)
        assert f"OTHER on link 1 would gain {50.0 * (t1 - t2)} JPY by leaving it" in problems

    def test_flags_too_few_dwpt_on_link2(self):
        scn = base_scenario()
        result, _ = solve(scn)
        broken = result._replace(x1_d=200.0, x2_d=0.0, x1_o=300.0, x2_o=500.0)
        [problem] = verify_equilibrium(scn, broken)
        assert problem.startswith("only 0.0 DWPT on link 2 but 99.99")

    def test_a_steep_link_solve_verifies(self):
        """Link powers 10.6 and 53.9 at N 52: both times are about 5.75e26
        minutes, so one root step of 5.2e-11 vehicles can move the OTHER-Vs'
        gain by about 9e18 JPY, against a rounding allowance of 1.5e15.
        With that allowance alone the OTHER-V check read `OTHER on link 2
        would gain 1761129682016203.8 JPY by leaving it`."""
        link1 = LinkParams(
            0.927246673992291, 0.10572797741897479, bpr_alpha=0.02088436757860127,
            bpr_beta=10.585362958968092, has_ers=True, ers_power_kw=30.0,
        )
        link2 = LinkParams(
            72.19631696127122, 0.08339908935428815, bpr_alpha=3.308900309714921,
            bpr_beta=53.85806624789227,
        )
        scn = Scenario(
            total_vehicles=52.0,
            dwpt_ratio=0.369562830069256,
            soc=UniformContinuum(0.4471871591000138, 0.5905472255730635, 19.217267163601313),
            prefs=Preferences(vot=1.3448682744993947, voe=15.323686530717136),
            toll=FixedToll(239.2973343611371),
            network=Network(link1, link2),
        )
        result, _ = solve(scn)
        assert result.t1 == pytest.approx(5.75e26, rel=1e-3)
        assert verify_equilibrium(scn, result) == []

    @settings(max_examples=200, deadline=None)
    @given(
        scn=scenarios(),
        cell=st.sampled_from(("x1_d", "x1_o")),
        sign=st.sampled_from((-1.0, 1.0)),
    )
    @example(scn=steep_scenario(1000.0, 4.0, 4.0), cell="x1_o", sign=1.0)
    def test_flows_half_a_root_step_off_verify(self, scn, cell, sign):
        """A result is an equilibrium to the root's resolution, so solve's
        flows moved by half a step, with the times and threshold that
        follow, still verify.  With the rounding allowance alone, the
        example (the bundled scenario on links of free-flow time 1,
        capacity 1 and alpha 1) read `OTHER on link 1 would gain 25.0 JPY
        by leaving it`.  The domain's powers are at most 8: on steep links
        a corner root can already sit a whole step off."""
        result, _ = solve(scn)
        assert verify_equilibrium(scn, _moved_half_a_root_step(scn, result, cell, sign)) == []

    @settings(max_examples=200, deadline=None)
    @given(scn=scenarios(), factor=st.floats(1.01, 1e3))
    def test_flags_an_other_split_moved_past_the_mass_tolerance(self, scn, factor):
        """The flow resolution leaves the OTHER-V check strict: x1_o moved
        by more than the mass tolerance, from the larger side, with x2_o
        and both times following, is flagged.  The domain's links are
        neither flat nor overflowing there, so the move opens a real gap."""
        result, _ = solve(scn)
        n_other, link1, link2 = scn.n_other, scn.network.link1, scn.network.link2
        shift = min(factor * VERIFY_MASS_TOL_FACTOR * scn.total_vehicles, 0.5 * n_other)
        x1_o = result.x1_o + (shift if 2.0 * result.x1_o < n_other else -shift)
        x2_o = n_other - x1_o
        t1, t2 = bpr_time(link1, result.x1_d + x1_o), bpr_time(link2, result.x2_d + x2_o)
        moved = result._replace(x1_o=x1_o, x2_o=x2_o, t1=t1, t2=t2)
        assert any(p.startswith("OTHER on link") for p in verify_equilibrium(scn, moved))

    @settings(max_examples=200, deadline=None)
    @given(scn=scenarios(), factor=st.floats(1.01, 1e3))
    def test_flags_a_dwpt_split_moved_past_the_mass_tolerance(self, scn, factor):
        """The DWPT check's resolution term leaves it strict: x1_d moved by
        more than the mass tolerance, toward the larger side, with x2_d
        and both times following, is flagged."""
        result, _ = solve(scn)
        n_dwpt, link1, link2 = scn.n_dwpt, scn.network.link1, scn.network.link2
        shift = min(factor * VERIFY_MASS_TOL_FACTOR * scn.total_vehicles, 0.5 * n_dwpt)
        x1_d = result.x1_d + (shift if 2.0 * result.x1_d < n_dwpt else -shift)
        x2_d = n_dwpt - x1_d
        t1, t2 = bpr_time(link1, x1_d + result.x1_o), bpr_time(link2, x2_d + result.x2_o)
        moved = result._replace(x1_d=x1_d, x2_d=x2_d, t1=t1, t2=t2)
        assert verify_equilibrium(scn, moved) != []


class TestBruteForceOracle:
    def test_two_agents_sort_themselves(self):
        scn = discrete_scenario((0.5,), n_other=1, toll=FreeToll())
        result = brute_force_equilibrium(scn)
        assert_oracle_is_the_enumerated_minimum(scn)
        assert result.x1_d == 1.0
        assert result.x1_o == 0.0
        assert result.x2_o == 1.0

    def test_a_tie_puts_the_dwpt_ev_on_link_1(self):
        # its charge 100*(1/0.5 - 1) equals the toll: bonus 0, as an OTHER-V's
        scn = discrete_scenario((0.5,), n_other=1, toll=FixedToll(100.0))
        result = brute_force_equilibrium(scn)
        assert_oracle_is_the_enumerated_minimum(scn)
        assert (result.x1_d, result.x1_o) == (1.0, 0.0)

    def test_exhaustive_agrees_with_solver(self):
        scn = discrete_scenario(evenly_spaced_socs(6), n_other=14)
        oracle = brute_force_equilibrium(scn)
        assert_oracle_is_the_enumerated_minimum(scn)
        analytic, _ = solve(scn)
        for cell in ("x1_d", "x2_d", "x1_o", "x2_o"):
            assert abs(getattr(oracle, cell) - getattr(analytic, cell)) <= 1.0

    def test_large_discretization_matches_target_flows(self):
        scn = discrete_scenario(
            evenly_spaced_socs(200, 0.102, 0.898), n_other=800
        )
        oracle = brute_force_equilibrium(scn)
        assert oracle.x1_d == pytest.approx(100.0, abs=1.0)
        assert oracle.x1_o == pytest.approx(400.0, abs=1.0)

    def test_randomized_agreement_with_solver(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            scn = random_discrete_scenario(rng)
            oracle = brute_force_equilibrium(scn)
            analytic, _ = solve(scn)
            for cell in ("x1_d", "x2_d", "x1_o", "x2_o"):
                assert abs(getattr(oracle, cell) - getattr(analytic, cell)) <= 1.0
        self._link1_flow_agrees_on_tied_pools()

    @settings(max_examples=200, deadline=None)
    @given(scn=scenarios(max_agents=200))
    def _link1_flow_agrees_on_tied_pools(self, scn):
        # With tied SoCs a tied group can trade places with OTHER-Vs on
        # link 1, so only the total link-1 flow is held to one vehicle.
        analytic, _ = solve(scn)
        oracle = brute_force_equilibrium(scn)
        assert abs(oracle.x1 - analytic.x1) <= 1.0

    @settings(max_examples=40, deadline=None)
    @given(scn=scenarios(max_agents=20))
    def test_exhaustive_check_holds_on_the_domain(self, scn):
        assert_oracle_is_the_enumerated_minimum(scn)

    def test_requires_discrete_agents(self):
        with pytest.raises(ValueError):
            brute_force_equilibrium(base_scenario())

    def test_no_agent_count_cap(self):
        scn = discrete_scenario(
            tuple(np.linspace(0.1, 0.9, 6000)), n_other=6000
        )
        analytic, _ = solve(scn)
        assert abs(brute_force_equilibrium(scn).x1 - analytic.x1) <= 1.0

    def test_potential_of_a_hand_built_profile(self):
        # DWPT-EVs at SoC 0.3 (link 1) and 0.6 (link 2), an OTHER-V on link 1
        scn = discrete_scenario((0.3, 0.6), n_other=1)
        link1, link2 = scn.network.link1, scn.network.link2
        population = Population((0.3, 0.6), np.array([True, False, True]))
        bonus = population.bonus(scn.prefs, scn.toll)
        kernel = _SweepKernel(link1, link2, scn.prefs.vot, bonus)
        time_part = rosenthal_potential(kernel.times1, kernel.times2, scn.prefs.vot, 2, 1)
        phi = time_part - float(np.sum(bonus[population.on_link1]))
        times = bpr_time(link1, 1) + bpr_time(link1, 2) + bpr_time(link2, 1)
        charge = scn.prefs.voe * (1 / 0.3 - 1) - scn.toll.dwpt_link1_charge
        assert phi == pytest.approx(scn.prefs.vot * times - charge, rel=1e-12)
