"""Differential tests: the array sweep kernel against a per-agent loop.

The reference below is the simulator's and the oracle's switch rule as
a plain loop over agents, one bpr_time call per visit.  The kernel must
reproduce it exactly (not approximately): same switchers, same flows,
same travel times and the same potential in every round.
"""

from contextlib import contextmanager

import numpy as np
from conftest import discrete_scenario, networks
from hypothesis import given, settings
from hypothesis import strategies as st

from erstoll.dynamics import (
    _SweepKernel,
    agents_from_scenario,
    brute_force_equilibrium,
    run,
    step,
)
from erstoll.model import (
    INDIFFERENCE_EPS,
    FixedToll,
    LinkParams,
    Network,
    VehicleClass,
    bpr_time,
    charging_utility,
)


def reference_sweep(links, socs, scn, order):
    """One asynchronous sweep, agent by agent; links is mutated."""
    net, prefs, price = scn.network, scn.prefs, scn.toll.dwpt_link1_charge
    x1 = links.count(1)
    x2 = len(links) - x1
    switches, gain_sum = 0, 0.0
    for idx in range(len(links)) if order is None else order:
        if links[idx] == 1:
            gain = prefs.vot * (bpr_time(net.link1, x1) - bpr_time(net.link2, x2 + 1))
        else:
            gain = prefs.vot * (bpr_time(net.link2, x2) - bpr_time(net.link1, x1 + 1))
        if socs[idx] is not None:
            bonus = prefs.voe * (1.0 / socs[idx] - 1.0) - price
            gain += -bonus if links[idx] == 1 else bonus
        if gain > INDIFFERENCE_EPS:
            move = -1 if links[idx] == 1 else 1
            links[idx] = 3 - links[idx]
            x1, x2 = x1 + move, x2 - move
            switches += 1
            gain_sum += gain
    return switches, gain_sum


def _bpr_sum(link, flow):
    ks = np.arange(1, flow + 1, dtype=float) / link.capacity
    return float(np.sum(link.free_flow_time * (1.0 + link.bpr_alpha * ks**link.bpr_beta)))


def reference_potential(links, socs, scn):
    x1 = links.count(1)
    net, prefs, price = scn.network, scn.prefs, scn.toll.dwpt_link1_charge
    time_part = prefs.vot * (_bpr_sum(net.link1, x1) + _bpr_sum(net.link2, len(links) - x1))
    return time_part + sum(
        price - prefs.voe * charging_utility(float(s))
        for s, link in zip(socs, links)
        if s is not None and link == 1
    )


def reference_run(links, socs, scn, order_policy, seed, max_rounds=500):
    """(round, x1_d, x1_o, t1, t2, switches, potential) per round."""
    rng = np.random.default_rng(seed) if order_policy == "random" else None
    n = len(links)

    def snap(round_index, switches):
        x1_d = sum(1 for s, link in zip(socs, links) if s is not None and link == 1)
        x1 = links.count(1)
        return (
            round_index, x1_d, x1 - x1_d,
            bpr_time(scn.network.link1, x1), bpr_time(scn.network.link2, n - x1),
            switches, reference_potential(links, socs, scn),
        )

    rows = [snap(0, 0)]
    for round_index in range(1, max_rounds + 1):
        order = rng.permutation(n) if rng is not None else None
        switches, _ = reference_sweep(links, socs, scn, order)
        rows.append(snap(round_index, switches))
        if switches == 0:
            break
    return rows


def reference_oracle(scn, seed):
    socs = list(scn.soc.soc_values) + [None] * round(scn.n_other)
    links = [2] * len(socs)
    order = None if seed is None else np.random.default_rng(seed).permutation(len(socs))
    while reference_sweep(links, socs, scn, order)[0]:
        pass
    n_dwpt = len(scn.soc.soc_values)
    return links[:n_dwpt].count(1), links[n_dwpt:].count(1)


@st.composite
def scenarios(draw):
    """Up to 60 agents on asymmetric links; SoC pools with ties."""
    socs = draw(
        st.lists(
            st.one_of(st.sampled_from((0.2, 0.5, 0.8)), st.floats(0.02, 0.98)),
            min_size=1,
            max_size=30,
        )
    )
    n_other = draw(st.integers(1, 30))
    n = len(socs) + n_other
    return discrete_scenario(
        socs,
        n_other,
        vot=draw(st.floats(10.0, 100.0)),
        voe=draw(st.floats(20.0, 300.0)),
        toll=FixedToll(draw(st.floats(0.0, 300.0))),
        network=draw(networks(n)),
    )


def _population(scn, initial, seed):
    agents = agents_from_scenario(scn, initial=initial, seed=seed)
    links = [a.current_link for a in agents]
    socs = [a.soc if a.vclass is VehicleClass.DWPT else None for a in agents]
    return agents, links, socs


INITIAL = st.sampled_from(("all_link2", "all_link1", "random", "balanced"))
# Small first chunks make N <= 60 cross chunk edges and widen scans and runs.
CHUNKS = st.sampled_from((1, 2, 3, _SweepKernel.CHUNK))


@contextmanager
def first_chunk(width):
    saved = _SweepKernel.CHUNK
    _SweepKernel.CHUNK = width
    try:
        yield
    finally:
        _SweepKernel.CHUNK = saved


@settings(max_examples=150, deadline=None)
@given(
    scn=scenarios(),
    initial=INITIAL,
    order_policy=st.sampled_from(("sequential", "random")),
    seed=st.integers(0, 2**16),
    chunk=CHUNKS,
)
def test_run_matches_per_agent_reference(scn, initial, order_policy, seed, chunk):
    agents, links, socs = _population(scn, initial, seed)
    with first_chunk(chunk):
        traj = run(agents, scn.network, scn.prefs, scn.toll, max_rounds=500,
                   order_policy=order_policy, seed=seed)
    expected = reference_run(links, socs, scn, order_policy, seed)
    got = [
        (s.round_index, s.x1_d, s.x1_o, s.t1, s.t2, s.switches, s.potential)
        for s in traj.snapshots
    ]
    assert got == expected
    assert [a.current_link for a in agents] == links


@settings(max_examples=100, deadline=None)
@given(
    scn=scenarios(),
    initial=INITIAL,
    seed=st.integers(0, 2**16),
    reverse=st.booleans(),
    chunk=CHUNKS,
)
def test_step_matches_per_agent_reference(scn, initial, seed, reverse, chunk):
    agents, links, socs = _population(scn, initial, seed)
    order = list(range(len(agents)))[::-1] if reverse else None
    with first_chunk(chunk):
        got = step(agents, scn.network, scn.prefs, scn.toll, order)
    assert got == reference_sweep(links, socs, scn, order)
    assert [a.current_link for a in agents] == links


@settings(max_examples=100, deadline=None)
@given(scn=scenarios(), seed=st.one_of(st.none(), st.integers(0, 2**16)), chunk=CHUNKS)
def test_oracle_matches_per_agent_reference(scn, seed, chunk):
    with first_chunk(chunk):
        oracle = brute_force_equilibrium(scn, seed=seed)
    assert (oracle.x1_d, oracle.x1_o) == reference_oracle(scn, seed)


def test_long_runs_and_sparse_switchers():
    """Sizes where runs span several doubling chunks and sparse switchers
    need a widening scan: every start and both orders, at N = 3000."""
    socs = np.linspace(0.05, 0.95, 600)
    base = LinkParams(10.0, 1000.0, has_ers=True, ers_power_kw=30.0)
    scn = discrete_scenario(
        socs, 2400, network=Network(base, LinkParams(12.0, 900.0, bpr_beta=3.0))
    )
    for initial in ("all_link2", "all_link1", "random", "balanced"):
        for policy in ("sequential", "random"):
            agents, links, socs_ = _population(scn, initial, 3)
            traj = run(agents, scn.network, scn.prefs, scn.toll, order_policy=policy, seed=3)
            got = [
                (s.round_index, s.x1_d, s.x1_o, s.t1, s.t2, s.switches, s.potential)
                for s in traj.snapshots
            ]
            assert got == reference_run(links, socs_, scn, policy, 3)
    for seed in (None, 3):
        oracle = brute_force_equilibrium(scn, seed=seed)
        assert (oracle.x1_d, oracle.x1_o) == reference_oracle(scn, seed)
