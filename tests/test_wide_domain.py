"""Valid input far outside the documented domain fails only numerically.

Every scenario the model types accept, at any magnitude, either returns
or raises ArithmeticError or ConvergenceError (the CLI's exit 2) from
the solver, the analysis, the verifier, the oracle and the simulator.
"""

from dataclasses import replace

import pytest
from conftest import discrete_scenario, wide_scenarios
from hypothesis import example, given, settings

from erstoll import (
    ConvergenceError,
    DiscreteAgents,
    FixedToll,
    FreeToll,
    LinkParams,
    Network,
    Preferences,
    Scenario,
    UniformContinuum,
    apply_overrides,
    brute_force_equilibrium,
    classify,
    metrics,
    solve,
    table1_scenario,
    toll_bands,
    verify_equilibrium,
)
from erstoll.dynamics import agents_from_scenario, discretize_scenario, run
from erstoll.model import bpr_time, threshold_soc

BUNDLED = table1_scenario()
# `erstoll simulate --set prefs.voe=1e307`: finite bonuses whose sum overflows
OVERFLOWING_POTENTIAL = discretize_scenario(
    replace(BUNDLED, prefs=replace(BUNDLED.prefs, voe=1e307))
)
# SoCs whose square underflows to 0
TINY_SOCS = discrete_scenario([1e-200] * 8 + [0.5], n_other=1)
# every OTHER-V on the faster link 1, but only 0.001 of them
NEAR_ALL_DWPT = apply_overrides(BUNDLED, {"dwpt_ratio": 0.999999, "toll.price": 1e6})
# interior at travel times of 2e7 minutes, where t1 - t2 is a few ulps
HUGE_TIMES = Scenario(
    total_vehicles=122865.73690374628,
    dwpt_ratio=0.14329862875955482,
    soc=UniformContinuum(
        s_lo=0.3403675541206731, s_hi=0.7832885150340166, mass=17606.49161983907
    ),
    prefs=Preferences(vot=84993.47518700651, voe=0.02331296029977539),
    toll=FixedToll(price=0.023832124664898133),
    network=Network(
        LinkParams(
            free_flow_time=64.83978863717081,
            capacity=1620.0596651816438,
            bpr_alpha=0.001329074328992337,
            bpr_beta=5.464620725805312,
            has_ers=True,
            ers_power_kw=30.0,
        ),
        LinkParams(
            free_flow_time=0.1895199811407483,
            capacity=12285.317673641892,
            bpr_alpha=0.678471511738296,
            bpr_beta=11.08683080935534,
        ),
    ),
)
# a switch that gains 1e13 JPY where the potential was about 500 JPY
BIG_GAIN = discrete_scenario(
    (1e-12,),
    1,
    vot=10**1.5,
    voe=10.0,
    toll=FreeToll(),
    network=Network(
        LinkParams(1.0, 2.0, bpr_alpha=0.0, bpr_beta=1.0, has_ers=True, ers_power_kw=30.0),
        LinkParams(10.0, 2.0, bpr_alpha=0.0, bpr_beta=1.0),
    ),
)
# interior with 0.18 of 124 vehicles on a steep link 2 (beta 14.8), where
# n_total - x_eq and x2_d + x2_o round apart and link 2's times at the two
# differ by 1.1e-12 of themselves
SMALL_STEEP_SHARE = Scenario(
    total_vehicles=124.35151863768407,
    dwpt_ratio=0.3428217021738083,
    soc=UniformContinuum(
        s_lo=0.037995735267037686, s_hi=0.49848005836211146, mass=42.6303992872689
    ),
    prefs=Preferences(vot=422583.7652095798, voe=797706.2266019688),
    toll=FixedToll(price=0.02761948145831969),
    network=Network(
        LinkParams(
            free_flow_time=228.8933361454124,
            capacity=256.4153971773054,
            bpr_alpha=0.007471089563891319,
            bpr_beta=5.299882102932774,
            has_ers=True,
            ers_power_kw=30.0,
        ),
        LinkParams(
            free_flow_time=8.24476836013028,
            capacity=0.14371125877116014,
            bpr_alpha=1.1230994447373361,
            bpr_beta=14.828797972589447,
        ),
    ),
)
NUMERICAL = (ArithmeticError, ConvergenceError)


def _returns_or_fails_numerically(call, *args):
    try:
        return call(*args)
    except NUMERICAL:
        return None


@settings(max_examples=300, deadline=None)
@given(scn=wide_scenarios())
@example(scn=OVERFLOWING_POTENTIAL)
@example(scn=TINY_SOCS)
@example(scn=NEAR_ALL_DWPT)
@example(scn=HUGE_TIMES)
@example(scn=BIG_GAIN)
def test_valid_input_fails_only_numerically(scn):
    solved = _returns_or_fails_numerically(solve, scn)
    if solved is not None:
        for check in (classify, metrics, verify_equilibrium):
            _returns_or_fails_numerically(check, scn, solved[0])
    if isinstance(scn.toll, FixedToll):
        _returns_or_fails_numerically(toll_bands, scn)
    if isinstance(scn.soc, DiscreteAgents):
        _returns_or_fails_numerically(brute_force_equilibrium, scn)
        population = agents_from_scenario(scn, "random", 0)
        _returns_or_fails_numerically(run, population, scn.network, scn.prefs, scn.toll)


@pytest.mark.parametrize("scn", [NEAR_ALL_DWPT, HUGE_TIMES], ids=["near-all-dwpt", "huge-times"])
def test_wardrop_cases_verify_clean(scn):
    result, _ = solve(scn)
    assert verify_equilibrium(scn, result) == []


def test_tiny_socs_solve_in_the_corner():
    result, regime = solve(TINY_SOCS)
    assert regime.value == "corner_other_on_2"
    assert result.x1_d == 8.0
    assert verify_equilibrium(TINY_SOCS, result) == []


@settings(max_examples=200, deadline=None)
@given(scn=wide_scenarios())
@example(scn=SMALL_STEEP_SHARE)
def test_stored_times_are_bpr_at_the_stored_flows(scn):
    """The times and threshold a result stores are the ones the verifier
    recomputes from its class flows, to the bit."""
    solved = _returns_or_fails_numerically(solve, scn)
    if solved is None:
        return
    result = solved[0]
    t1 = bpr_time(scn.network.link1, result.x1_d + result.x1_o)
    t2 = bpr_time(scn.network.link2, result.x2_d + result.x2_o)
    assert (result.t1, result.t2) == (t1, t2)
    assert result.s_thres == threshold_soc(scn.prefs, scn.toll.dwpt_link1_charge, t1, t2)
