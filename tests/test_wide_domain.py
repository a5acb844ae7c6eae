"""Valid input far outside the documented domain fails only numerically.

Every scenario the model types accept, at any magnitude, either returns
or raises ArithmeticError or ConvergenceError (the CLI's exit 2) from
the solver, the analysis, the verifier, the oracle and the simulator;
every result the solver returns verifies clean.
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


def _twin(free_flow_time, capacity, bpr_alpha, bpr_beta):
    link1 = LinkParams(free_flow_time, capacity, bpr_alpha, bpr_beta, True, 30.0)
    return Network(link1, replace(link1, has_ers=False, ers_power_kw=None))


# Wide draws (Hypothesis seed 1) whose corner_other_on_2 root stops within
# its resolution of the DWPT split, such as 1.6e-11 of a vehicle short of
# 3, flagged ("only 2.999999999983899 DWPT on link 2 but 9.0 are above
# threshold") until the verifier allowed for the flow's resolution
RESOLUTION_STEP = (
    discrete_scenario(
        (2.2947543173920783e-308, 8.653116773511217e-208, 5.153405686866184e-144,
         3.4025768398663623e-125, 8.461568526648762e-124, 6.077617778547193e-89,
         9.950466946393688e-78, 1.5621176318691576e-72, 8.519265784059507e-15, 1e-09,
         1e-06, 0.10130364675213645, 0.15, 0.16215538858189493, 0.289605619589836,
         0.3390480290290112, 0.5, 0.8669743867868503),
        12,
        vot=0.0944548810995491,
        voe=0.001,
        toll=FixedToll(0.0),
        network=_twin(1.0, 0.23803688217895613, 1.0, 11.849798470437046),
    ),
    Scenario(
        14373.382984680176,
        0.7174895153855558,
        UniformContinuum(0.32957150446851846, 0.723310635330384, 10312.751592129174),
        Preferences(vot=0.0018028880741511875, voe=30.981381509079842),
        FixedToll(0.0),
        _twin(30.981381509079842, 131.2206537080602, 1.0, 11.302377241703326),
    ),
    discrete_scenario(
        (5e-324, 6.38017515267629e-209, 2.3058526691992065e-156, 3.1101326378493707e-127,
         2.736480937498691e-97, 1.116823334343189e-58, 2.220446049250313e-16,
         9.542491834369289e-14, 0.012589254117941675, 0.03162277660168379,
         0.16837809320541264, 0.5231306073063036, 0.7930279473584357, 0.7930279473584357,
         0.7930279473584357, 0.999),
        4,
        vot=2945.788964768518,
        voe=1.0,
        toll=FreeToll(),
        network=_twin(1.0, 0.08263950087503241, 1.0, 8.469684095888299),
    ),
    Scenario(
        150.72787598286868,
        0.8697334693169907,
        UniformContinuum(0.21727275438852797, 0.402058231393008, 131.0930785013615),
        Preferences(vot=1.0, voe=0.9999998627552429),
        FreeToll(),
        _twin(0.1, 0.33034787725327625, 0.004655906207492807, 9.298546275536966),
    ),
    discrete_scenario(
        (6.701201925340727e-261, 4.980300494470107e-150, 8.180602261369028e-115,
         7.772036408689671e-108, 6.53070199048183e-96, 0.12702041551208354,
         0.4941789570643725, 0.5587685257196466, 0.5587685257196466),
        7,
        vot=1.0,
        voe=12.589254117941675,
        toll=FreeToll(),
        network=_twin(1.0, 0.21426449924877783, 0.15505469063538668, 13.31297162571972),
    ),
    Scenario(
        40021.03948774344,
        0.6730416013369944,
        UniformContinuum(0.24334374169879264, 0.5, 26935.82450400193),
        Preferences(vot=0.9999769744141629, voe=40021.03948774344),
        FixedToll(1991.7621384699546),
        _twin(0.9999769744141629, 52.54624464476582, 2.4527585259527203, 9.122764390873535),
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
@example(scn=RESOLUTION_STEP[0])
@example(scn=RESOLUTION_STEP[1])
@example(scn=RESOLUTION_STEP[2])
@example(scn=RESOLUTION_STEP[3])
@example(scn=RESOLUTION_STEP[4])
@example(scn=RESOLUTION_STEP[5])
def test_valid_input_fails_only_numerically(scn):
    solved = _returns_or_fails_numerically(solve, scn)
    if solved is not None:
        for check in (classify, metrics):
            _returns_or_fails_numerically(check, scn, solved[0])
        problems = _returns_or_fails_numerically(verify_equilibrium, scn, solved[0])
        assert not problems, problems
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
