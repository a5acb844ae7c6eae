"""Shared scenario factories for the test suite."""

from dataclasses import replace

import numpy as np
from hypothesis import strategies as st

from erstoll.model import (
    DiscreteAgents,
    FixedToll,
    FreeToll,
    LinkParams,
    Network,
    Preferences,
    Scenario,
    UniformContinuum,
)

ERS_LINK = LinkParams(
    free_flow_time=10.0, capacity=500.0, has_ers=True, ers_power_kw=30.0
)
PLAIN_LINK = LinkParams(free_flow_time=10.0, capacity=500.0)
TWIN_NETWORK = Network(ERS_LINK, PLAIN_LINK)


def base_scenario(
    total=1000.0,
    ratio=0.2,
    s_lo=0.1,
    s_hi=0.9,
    vot=50.0,
    voe=100.0,
    toll=None,
    network=TWIN_NETWORK,
):
    """Uniform-SoC scenario on the twin 10-minute network."""
    if toll is None:
        toll = FixedToll(100.0)
    return Scenario(
        total_vehicles=total,
        dwpt_ratio=ratio,
        soc=UniformContinuum(s_lo=s_lo, s_hi=s_hi, mass=ratio * total),
        prefs=Preferences(vot=vot, voe=voe),
        toll=toll,
        network=network,
    )


def discrete_scenario(
    socs,
    n_other,
    vot=50.0,
    voe=100.0,
    toll=None,
    network=TWIN_NETWORK,
):
    """Agent-level scenario: one vehicle per SoC value plus n_other."""
    if toll is None:
        toll = FixedToll(100.0)
    socs = tuple(float(s) for s in socs)
    total = float(len(socs) + n_other)
    return Scenario(
        total_vehicles=total,
        dwpt_ratio=len(socs) / total,
        soc=DiscreteAgents(socs),
        prefs=Preferences(vot=vot, voe=voe),
        toll=toll,
        network=network,
    )


def random_discrete_scenario(rng, n_max=200):
    """Randomized agent-level instance on the twin network."""
    n = int(rng.integers(20, n_max + 1))
    n_d = int(rng.integers(1, n))
    return discrete_scenario(
        socs=rng.uniform(0.02, 0.98, size=n_d),
        n_other=n - n_d,
        vot=float(rng.uniform(10, 100)),
        voe=float(rng.uniform(10, 300)),
        toll=FixedToll(float(rng.uniform(0, 500))),
    )


def evenly_spaced_socs(n, lo=0.1, hi=0.9):
    return tuple(float(s) for s in np.linspace(lo, hi, n))


@st.composite
def networks(draw, n_total):
    """ERS link 1 and either its twin or an independently drawn link 2."""

    def link(ers):
        return LinkParams(
            free_flow_time=draw(st.floats(2.0, 30.0)),
            capacity=n_total * draw(st.floats(0.1, 1.0)),
            bpr_alpha=draw(st.floats(0.05, 1.0)),
            bpr_beta=draw(st.floats(1.0, 8.0)),
            has_ers=ers,
            ers_power_kw=30.0 if ers else None,
        )

    link1 = link(True)
    if draw(st.booleans()):
        return Network(link1, replace(link1, has_ers=False, ers_power_kw=None))
    return Network(link1, link(False))
