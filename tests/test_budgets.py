"""Work budgets: map evaluations per _root call, by stage, on seeded pools.

Counts are deterministic where timings on a shared host are not, so a
change to the root-finder cites them.  Each budget is the count measured
when it was set; a change that lowers a count lowers its budget, and one
that raises it records why.
"""

import random
from collections import defaultdict

import pytest
from conftest import recorded_roots, steep_scenario
from test_reference import STEEP_CASES

from erstoll.analysis import min_total_travel_time
from erstoll.equilibrium import solve
from erstoll.harness import solve_row
from erstoll.model import FixedToll, LinkParams, Network, Preferences, Scenario, UniformContinuum

# mean map evaluations per returned _root call by stage, over solve_row
# and min_total_travel_time on each scenario of pool(), rounded up to 0.01
ROOT_BUDGETS = {
    "balanced flow": 6.81,
    "fixed point (corner_other_on_1)": 5.58,
    "fixed point (corner_other_on_2)": 6.09,
    "system optimum": 7.63,
}
# map evaluations of solve on the steep repros (test_reference.STEEP_CASES)
STEEP_N355_BUDGET = 146
STEEP_CFG_BUDGET = 65


def pool(seed=1, size=2000):
    """Scenarios that share nothing: each its own pair of differing BPR
    links (free-flow time 2-30, capacity 0.1N-N, alpha 0.05-1, beta 1-8),
    N = 10**U[1, 7], r 0.05-0.95, a uniform SoC pool and a fixed toll."""
    rng = random.Random(seed)

    def link(n_total, ers):
        return LinkParams(
            free_flow_time=rng.uniform(2.0, 30.0),
            capacity=n_total * rng.uniform(0.1, 1.0),
            bpr_alpha=rng.uniform(0.05, 1.0),
            bpr_beta=rng.uniform(1.0, 8.0),
            has_ers=ers,
            ers_power_kw=30.0 if ers else None,
        )

    out = []
    for _ in range(size):
        n_total, ratio = 10.0 ** rng.uniform(1.0, 7.0), rng.uniform(0.05, 0.95)
        network = Network(link(n_total, True), link(n_total, False))
        s_lo = rng.uniform(0.05, 0.5)
        out.append(Scenario(
            total_vehicles=n_total,
            dwpt_ratio=ratio,
            soc=UniformContinuum(s_lo, rng.uniform(s_lo + 0.05, 0.95), ratio * n_total),
            prefs=Preferences(vot=rng.uniform(10.0, 100.0), voe=rng.uniform(20.0, 300.0)),
            toll=FixedToll(rng.uniform(0.0, 300.0)),
            network=network,
        ))
    return out


def count_evaluations(calls):
    """Run each call; returns {stage: [map evaluations, calls]} over the
    _root calls that returned."""
    counts = defaultdict(lambda: [0, 0])
    with recorded_roots() as roots:
        for call in calls:
            call()
    for what, *_, evaluations in roots:
        counts[what][0] += evaluations
        counts[what][1] += 1
    return dict(counts)


def test_root_evaluations_per_stage_stay_within_budget():
    calls = []
    for scn in pool():
        calls.append(lambda scn=scn: solve_row(scn))
        calls.append(lambda scn=scn: min_total_travel_time(scn.network, scn.total_vehicles))
    counts = count_evaluations(calls)
    assert set(counts) == set(ROOT_BUDGETS)
    for what, (evaluations, roots) in counts.items():
        assert evaluations / roots <= ROOT_BUDGETS[what], (what, evaluations, roots)


@pytest.mark.parametrize(
    "cases, budget",
    [(STEEP_CASES[:3], STEEP_N355_BUDGET), (STEEP_CASES[3:], STEEP_CFG_BUDGET)],
    ids=["N355", "steep.cfg"],
)
def test_steep_solves_stay_within_budget(cases, budget):
    counts = count_evaluations([lambda case=case: solve(steep_scenario(*case)) for case in cases])
    assert sum(evaluations for evaluations, _ in counts.values()) <= budget
