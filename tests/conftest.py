"""Shared scenario factories and helpers for the test suite.  Property
tests draw their scenarios from `scenarios`, the documented domain."""

import math
import os
import subprocess
import sys
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np
import yaml
from hypothesis import strategies as st

import erstoll
from erstoll import analysis, equilibrium
from erstoll.dynamics import agents_from_scenario
from erstoll.harness import table1_scenario
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


def steep_scenario(total, beta1, beta2):
    """The bundled scenario on links of free-flow time 1, capacity 1 and
    alpha 1, with the given BPR powers."""
    base = table1_scenario()
    steep = {"free_flow_time": 1.0, "capacity": 1.0, "bpr_alpha": 1.0}
    link1, link2 = base.network.link1, base.network.link2
    return replace(
        base,
        total_vehicles=float(total),
        soc=replace(base.soc, mass=base.dwpt_ratio * total),
        network=Network(
            replace(link1, bpr_beta=float(beta1), **steep),
            replace(link2, bpr_beta=float(beta2), **steep),
        ),
    )


@contextmanager
def recorded_roots():
    """Within the block, each equilibrium._root call that returns (in
    equilibrium or analysis) is recorded in the yielded list as (what,
    lo, hi, n_total, root, map evaluations).  The balanced-flow memo is
    cleared first, so each balanced flow is rooted."""
    calls, root = [], equilibrium._root

    def recording(g, lo, hi, n_total, what):
        evaluations = 0

        def counted(x):
            nonlocal evaluations
            evaluations += 1
            return g(x)

        x = root(counted, lo, hi, n_total, what)
        calls.append((what, lo, hi, n_total, x, evaluations))
        return x

    equilibrium._root = analysis._root = recording
    equilibrium._balance = (None, None, None)
    try:
        yield calls
    finally:
        equilibrium._root = analysis._root = root


def scenario_config(scenario):
    """The config mapping of a scenario file (the schema in
    erstoll.harness) for a uniform or discrete pool with a fixed or free
    toll."""
    if isinstance(scenario.soc, UniformContinuum):
        soc = {"kind": "uniform", "s_lo": scenario.soc.s_lo, "s_hi": scenario.soc.s_hi}
    else:
        soc = {"kind": "discrete", "values": list(scenario.soc.soc_values)}
    if isinstance(scenario.toll, FreeToll):
        toll = {"kind": "free"}
    else:
        toll = {"kind": "fixed", "price": scenario.toll.price}

    def link(params):
        cfg = {
            "free_flow_time": params.free_flow_time,
            "capacity": params.capacity,
            "bpr_alpha": params.bpr_alpha,
            "bpr_beta": params.bpr_beta,
        }
        if params.has_ers:
            cfg["ers_power_kw"] = params.ers_power_kw
        return cfg

    return {
        "total_vehicles": scenario.total_vehicles,
        "dwpt_ratio": scenario.dwpt_ratio,
        "soc": soc,
        "prefs": {"vot": scenario.prefs.vot, "voe": scenario.prefs.voe},
        "toll": toll,
        "network": {
            "link1": link(scenario.network.link1),
            "link2": link(scenario.network.link2),
        },
    }


def run_python(args, cwd, timeout=60, env=None):
    """Run sys.executable on args in cwd and return its stdout, asserting
    exit 0.  The child's environment is env (default this process's),
    and it imports the erstoll this process imported: the directory that
    holds it (src/ in a checkout, site-packages when installed) goes
    first on PYTHONPATH.  It runs with -W error, as the suite's
    filterwarnings does, so a warning fails it."""
    env = dict(os.environ if env is None else env)
    home = str(Path(erstoll.__file__).resolve().parents[1])
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = home + os.pathsep + path if path else home
    proc = subprocess.run(
        [sys.executable, "-W", "error", *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=timeout,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def write_scenario(scenario, path):
    """Write a scenario's file, as yaml.safe_dump writes its config."""
    Path(path).write_text(yaml.safe_dump(scenario_config(scenario), sort_keys=False))


def random_discrete_scenario(rng, n_max=200):
    """Randomized agent-level instance on the twin network; seeded numpy,
    not `scenarios`, as acceptance criteria 3 and 6 pin its draws."""
    n = int(rng.integers(20, n_max + 1))
    n_d = int(rng.integers(1, n))
    return discrete_scenario(
        socs=rng.uniform(0.02, 0.98, size=n_d),
        n_other=n - n_d,
        vot=float(rng.uniform(10, 100)),
        voe=float(rng.uniform(10, 300)),
        toll=FixedToll(float(rng.uniform(0, 500))),
    )


def random_link(rng, n_total, ers=False):
    """BPR link drawn as in the benchmark's random scenarios; seeded numpy,
    not `bpr_links`, as test_equilibrium.random_pool pins its draws."""
    return LinkParams(
        free_flow_time=rng.uniform(2.0, 30.0),
        capacity=n_total * rng.uniform(0.1, 1.0),
        bpr_alpha=rng.uniform(0.05, 1.0),
        bpr_beta=rng.uniform(1.0, 8.0),
        has_ers=ers,
        ers_power_kw=30.0 if ers else None,
    )


def evenly_spaced_socs(n, lo=0.1, hi=0.9):
    return tuple(float(s) for s in np.linspace(lo, hi, n))


@st.composite
def bpr_links(draw, n_total, ers=False):
    """A BPR link: free-flow time 2-30, capacity 0.05N-N, alpha 0.05-1,
    beta 1-8 whole or fractional."""
    return LinkParams(
        free_flow_time=draw(st.floats(2.0, 30.0)),
        capacity=n_total * draw(st.floats(0.05, 1.0)),
        bpr_alpha=draw(st.floats(0.05, 1.0)),
        bpr_beta=draw(st.one_of(st.integers(1, 8).map(float), st.floats(1.0, 8.0))),
        has_ers=ers,
        ers_power_kw=30.0 if ers else None,
    )


@st.composite
def networks(draw, n_total):
    """ERS link 1 and either its twin or an independently drawn link 2."""
    link1 = draw(bpr_links(n_total, ers=True))
    if draw(st.booleans()):
        return Network(link1, replace(link1, has_ers=False, ers_power_kw=None))
    return Network(link1, draw(bpr_links(n_total)))


@st.composite
def scenarios(draw, max_agents=None):
    """The documented domain: a continuum pool (N = 10**U[1, 7], r on
    either side of 0.5, SoCs on [s_lo, s_hi] in [0.02, 0.98]) or 2 to
    max_agents (default 200) agents whose SoCs are all tied at 1-4
    levels, all distinct in [0.02, 0.98], or a mix of the two, the shape
    drawn once per pool; twin or differing links; free or fixed toll.
    Given max_agents, only discrete pools, to keep N small."""
    common = dict(
        vot=draw(st.floats(10.0, 100.0)),
        voe=draw(st.floats(20.0, 300.0)),
        toll=draw(st.one_of(st.just(FreeToll()), st.floats(0.0, 500.0).map(FixedToll))),
    )
    if max_agents is None and draw(st.booleans()):
        total = 10.0 ** draw(st.floats(1.0, 7.0))
        s_lo = draw(st.floats(0.02, 0.5))
        return base_scenario(
            total=total,
            ratio=draw(st.one_of(st.floats(0.05, 0.4999), st.floats(0.5, 0.95))),
            s_lo=s_lo,
            s_hi=draw(st.floats(s_lo + 0.05, 0.98)),
            network=draw(networks(total)),
            **common,
        )
    n = draw(st.integers(2, max_agents or 200))
    n_dwpt = draw(st.integers(1, n - 1))
    free = st.floats(0.02, 0.98)
    tied = st.sampled_from(draw(st.lists(free, min_size=1, max_size=4)))
    size = dict(min_size=n_dwpt, max_size=n_dwpt)
    shapes = (
        st.lists(tied, **size),
        st.lists(free, unique=True, **size),
        st.lists(st.one_of(tied, free), **size),
    )
    socs = draw(draw(st.sampled_from(shapes)))
    return discrete_scenario(socs, n - n_dwpt, network=draw(networks(float(n))), **common)


def log_uniform(lo, hi):
    """Floats lo to hi, uniform in their logarithm."""
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0**e)


@st.composite
def wide_links(draw, n_total, ers=False):
    """A BPR link over wide magnitudes: free-flow time 0.1-1e3 minutes,
    capacity 1e-3N-10N, alpha 0 or 1e-3-10, beta 1-16."""
    return LinkParams(
        free_flow_time=draw(log_uniform(0.1, 1e3)),
        capacity=n_total * draw(log_uniform(1e-3, 10.0)),
        bpr_alpha=draw(st.one_of(st.just(0.0), log_uniform(1e-3, 10.0))),
        bpr_beta=draw(st.floats(1.0, 16.0)),
        has_ers=ers,
        ers_power_kw=30.0 if ers else None,
    )


@st.composite
def wide_scenarios(draw, max_agents=30):
    """Valid scenarios far outside the documented domain: vot and voe
    1e-3-1e6 JPY, a free toll or a fixed one of 0 or 1e-3-1e6 JPY, twin
    or differing wide_links, and either a continuum pool (N = 10**U[1, 7],
    r 1e-3-0.999999, SoCs as in `scenarios`) or 2 to max_agents agents
    whose SoCs, free or tied at 1-4 levels, reach down to 5e-324."""
    common = dict(
        vot=draw(log_uniform(1e-3, 1e6)),
        voe=draw(log_uniform(1e-3, 1e6)),
        toll=draw(st.one_of(
            st.just(FreeToll()), st.just(FixedToll(0.0)), log_uniform(1e-3, 1e6).map(FixedToll)
        )),
    )
    continuum = draw(st.booleans())
    if continuum:
        total = 10.0 ** draw(st.floats(1.0, 7.0))
    else:
        total = draw(st.integers(2, max_agents))
    link1 = draw(wide_links(float(total), ers=True))
    twin = replace(link1, has_ers=False, ers_power_kw=None)
    network = Network(link1, twin if draw(st.booleans()) else draw(wide_links(float(total))))
    if continuum:
        s_lo = draw(st.floats(0.02, 0.5))
        return base_scenario(
            total=total,
            ratio=draw(st.floats(1e-3, 0.999999)),
            s_lo=s_lo,
            s_hi=draw(st.floats(s_lo + 0.05, 0.98)),
            network=network,
            **common,
        )
    n_dwpt = draw(st.integers(1, total - 1))
    free = st.one_of(st.floats(5e-324, 1.0, exclude_max=True), log_uniform(5e-324, 0.999))
    tied = st.sampled_from(draw(st.lists(free, min_size=1, max_size=4)))
    socs = draw(st.lists(st.one_of(tied, free), min_size=n_dwpt, max_size=n_dwpt))
    return discrete_scenario(socs, total - n_dwpt, network=network, **common)


def band_containing(bands, price):
    """The toll band whose half-open interval holds the given price."""
    for band in bands:
        if band.c_low <= price < band.c_high:
            return band
    raise ValueError(f"no band contains price {price}")


def agents_at_result(scenario, result):
    """Population snapped to an analytic equilibrium, rounded to agents:
    the lowest-SoC DWPT-EVs take the ERS link, as the threshold
    structure of the equilibrium has it."""
    population = agents_from_scenario(scenario, initial="all_link2")
    n_dwpt = len(population.soc)
    population.on_link1[: round(result.x1_d)] = True  # DWPT-EVs are SoC-sorted
    population.on_link1[n_dwpt : n_dwpt + round(result.x1_o)] = True
    return population
