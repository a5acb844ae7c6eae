"""Differential tests: the array sweep kernel and the oracle against a
per-agent loop.

The reference below is the simulator's switch rule as a plain loop over
agents, one bpr_time call per visit.  The kernel must reproduce it
exactly (not approximately): same switchers, same flows, same travel
times and the same potential in every round.  The oracle reads the
potential's minimum instead of sweeping, so it may return another
equilibrium than the reference's sweeps reach where ties allow one: its
profile must be Nash under the reference rule, with a potential at most
the reference endpoint's, and its counts must be those of the rank rule
taken one vehicle at a time.  On at most 20 vehicles every profile is
enumerated to confirm that the oracle's potential is the least.
"""

import warnings
from contextlib import contextmanager
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from conftest import (
    ERS_LINK,
    PLAIN_LINK,
    TWIN_NETWORK,
    base_scenario,
    discrete_scenario,
    networks,
    scenarios,
    write_scenario,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from erstoll import dynamics
from erstoll.cli import main
from erstoll.dynamics import (
    Population,
    _SweepKernel,
    agents_from_scenario,
    class_flows,
    discretize_scenario,
    run,
    step,
)
from erstoll.equilibrium import brute_force_equilibrium, verify_equilibrium
from erstoll.harness import table1_scenario
from erstoll.model import (
    INDIFFERENCE_EPS,
    FixedToll,
    FreeToll,
    LinkParams,
    Network,
    bpr_time,
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
    return float(np.sum([bpr_time(link, k) for k in range(1, flow + 1)]))


def reference_potential(links, socs, scn):
    """The time part less the link-1 DWPT-EVs' bonuses, summed with
    np.sum in index order, as run sums them."""
    x1 = links.count(1)
    net, prefs, price = scn.network, scn.prefs, scn.toll.dwpt_link1_charge
    time_part = prefs.vot * (_bpr_sum(net.link1, x1) + _bpr_sum(net.link2, len(links) - x1))
    return time_part - float(np.sum(np.array([
        prefs.voe * (1.0 / float(s) - 1.0) - price
        for s, link in zip(socs, links)
        if s is not None and link == 1
    ], dtype=float)))


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


def reference_oracle(scn):
    """(links, socs) where per-agent sweeps from all on link 2 stop."""
    socs = list(scn.soc.soc_values) + [None] * round(scn.n_other)
    links = [2] * len(socs)
    while reference_sweep(links, socs, scn, None)[0]:
        pass
    return links, socs


def reference_rank_counts(socs, scn):
    """(x1_d, x1_o) of the rank rule, one vehicle at a time: a stable sort
    of the per-agent bonuses, largest first, so a DWPT-EV precedes an
    OTHER-V at a tie; each ranked vehicle joins link 1 while that gains
    it more than INDIFFERENCE_EPS at bpr_time's times."""
    net, prefs, price = scn.network, scn.prefs, scn.toll.dwpt_link1_charge
    n = len(socs)
    bonus = [0.0 if s is None else prefs.voe * (1.0 / s - 1.0) - price for s in socs]
    ranked = sorted(range(n), key=lambda i: -bonus[i])
    x1 = 0
    for i in ranked:
        gain = prefs.vot * (bpr_time(net.link2, n - x1) - bpr_time(net.link1, x1 + 1))
        if not gain + bonus[i] > INDIFFERENCE_EPS:
            break
        x1 += 1
    x1_d = sum(1 for i in ranked[:x1] if socs[i] is not None)
    return x1_d, x1 - x1_d


def oracle_profile(socs, x1_d, x1_o):
    """Links of the counts' profile: the x1_d lowest SoCs (the largest
    bonuses) and the first x1_o OTHER-Vs on link 1."""
    n_dwpt = sum(1 for s in socs if s is not None)
    by_soc = sorted(range(n_dwpt), key=socs.__getitem__)
    links = [2] * len(socs)
    for i in by_soc[:x1_d] + list(range(n_dwpt, n_dwpt + x1_o)):
        links[i] = 1
    return links


def assert_oracle_is_a_potential_minimum(scn):
    """The oracle's counts are the rank rule's, and their profile and the
    reference's endpoint are both Nash under the per-agent rule, and the
    oracle's potential is at most the reference's, up to the slack of the
    switch rule (INDIFFERENCE_EPS a vehicle) and the rounding of sums
    taken in another order.  Its times are bpr_time's at its flows."""
    oracle = brute_force_equilibrium(scn)
    ref_links, socs = reference_oracle(scn)
    x1_d, x1_o = round(oracle.x1_d), round(oracle.x1_o)
    assert (x1_d, x1_o) == reference_rank_counts(socs, scn)
    links = oracle_profile(socs, x1_d, x1_o)
    for profile in (links, ref_links):
        assert reference_sweep(list(profile), socs, scn, None)[0] == 0
    phi, ref_phi = (reference_potential(p, socs, scn) for p in (links, ref_links))
    assert phi <= ref_phi + len(socs) * INDIFFERENCE_EPS + 1e-12 * abs(ref_phi)
    x1, net = x1_d + x1_o, scn.network
    assert (oracle.t1, oracle.t2) == (bpr_time(net.link1, x1), bpr_time(net.link2, len(socs) - x1))


def assert_oracle_is_the_enumerated_minimum(scn, counts=None):
    """Enumerate all 2^n profiles of at most 20 vehicles (vectorized in
    chunks).  The profile of the oracle's counts, or of the given
    (x1_d, x1_o), must be Nash under the per-agent rule, and so must the
    potential minimizer, whose potential the oracle's must equal to run's
    tolerance; a mismatch would flag a utility/potential bug."""
    if counts is None:
        oracle = brute_force_equilibrium(scn)
        counts = round(oracle.x1_d), round(oracle.x1_o)
    socs = list(scn.soc.soc_values) + [None] * round(scn.n_other)
    n, n_dwpt, vot = len(socs), len(scn.soc.soc_values), scn.prefs.vot
    assert n <= 20, "enumerating more than 2^20 profiles"
    links = oracle_profile(socs, *counts)
    assert reference_sweep(list(links), socs, scn, None)[0] == 0, (
        "oracle endpoint is not a Nash profile"
    )

    # the potential of each link-1 flow with no bonus, less each profile's
    # bonuses of the DWPT-EVs it puts on link 1
    bonus = Population(scn.soc.soc_values, np.zeros(n, dtype=bool)).bonus(scn.prefs, scn.toll)
    kernel = _SweepKernel(scn.network.link1, scn.network.link2, vot, bonus)
    flow_phi = np.array([
        dynamics.rosenthal_potential(kernel.times1, kernel.times2, vot, x1, n - x1)
        for x1 in range(n + 1)
    ])
    best_phi, best_bits = np.inf, None
    chunk = 1 << 16
    for start in range(0, 1 << n, chunk):
        codes = np.arange(start, min(start + chunk, 1 << n))
        bits = (codes[:, None] >> np.arange(n)) & 1
        phi = flow_phi[bits.sum(axis=1)] - bits[:, :n_dwpt].astype(float) @ bonus[:n_dwpt]
        k = int(np.argmin(phi))
        if phi[k] < best_phi:
            best_phi, best_bits = float(phi[k]), bits[k]
    best = [1 if bit else 2 for bit in best_bits.tolist()]
    assert reference_sweep(best, socs, scn, None)[0] == 0, (
        "potential minimizer is not a Nash profile"
    )
    on1 = np.array(links) == 1
    oracle_phi = flow_phi[np.count_nonzero(on1)] - bonus[:n_dwpt] @ on1[:n_dwpt]
    assert oracle_phi - best_phi <= 1e-6 * (1.0 + abs(best_phi)), (
        f"oracle potential {oracle_phi} exceeds the minimum {best_phi}"
    )


def _population(scn, initial, seed):
    agents = agents_from_scenario(scn, initial=initial, seed=seed)
    links = [a.current_link for a in agents]
    socs = [a.soc for a in agents]
    return agents, links, socs


INITIAL_STATES = ("all_link2", "all_link1", "random", "balanced")
INITIAL = st.sampled_from(INITIAL_STATES)
# Small blocks make N <= 60 reach skipped blocks, streaks of switchers
# across blocks, join passes that span doubling windows, and a ragged
# last block.
BLOCKS = st.sampled_from((1, 2, 3, _SweepKernel.BLOCK))


@contextmanager
def block_size(size):
    saved = _SweepKernel.BLOCK
    _SweepKernel.BLOCK = size
    try:
        yield
    finally:
        _SweepKernel.BLOCK = saved


@settings(max_examples=150, deadline=None)
@given(
    scn=scenarios(max_agents=60),
    initial=INITIAL,
    order_policy=st.sampled_from(("sequential", "random")),
    seed=st.integers(0, 2**16),
    block=BLOCKS,
)
def test_run_matches_per_agent_reference(scn, initial, order_policy, seed, block):
    agents, links, socs = _population(scn, initial, seed)
    with block_size(block):
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
    scn=scenarios(max_agents=60),
    initial=INITIAL,
    seed=st.integers(0, 2**16),
    reverse=st.booleans(),
    block=BLOCKS,
)
def test_step_matches_per_agent_reference(scn, initial, seed, reverse, block):
    agents, links, socs = _population(scn, initial, seed)
    order = list(range(len(agents)))[::-1] if reverse else None
    with block_size(block):
        got = step(agents, scn.network, scn.prefs, scn.toll, order)
    assert got == reference_sweep(links, socs, scn, order)
    assert [a.current_link for a in agents] == links


@settings(max_examples=100, deadline=None)
@given(
    scn=scenarios(max_agents=60),
    initial=INITIAL,
    seed=st.integers(0, 2**16),
    block=BLOCKS,
)
def test_step_without_an_order_is_one_sequential_round(scn, initial, seed, block):
    """step with no order sweeps by the sorted passes, once, and leaves
    the mask and the switch count of run's first sequential round."""
    agents = agents_from_scenario(scn, initial=initial, seed=seed)
    copy = Population(agents.soc, agents.on_link1.copy())
    with block_size(block), mock.patch.object(
        _SweepKernel, "sweep_sorted", autospec=True, side_effect=_SweepKernel.sweep_sorted
    ) as sorted_sweep:
        switches, _ = step(agents, scn.network, scn.prefs, scn.toll)
        assert sorted_sweep.call_count == 1
        traj = run(copy, scn.network, scn.prefs, scn.toll, max_rounds=1)
    assert switches == traj.snapshots[1].switches
    assert (agents.on_link1 == copy.on_link1).all()


def _sorted_sweeps(scn, population):
    """Run a copy of the population in sequential order, checking each
    sweep_sorted against the block scan on a copy of the mask: the same
    switches, summed gains and mask.  Before each, the agents before the
    tail have bonuses that never rise with the index, the last of them
    non-zero, and those from the tail on have bonus 0.  Returns the
    (before, after) masks of the agents before the tail in each sweep."""
    sorted_sweep, moves = _SweepKernel.sweep_sorted, []

    def checked(kernel, on1, x1):
        bonus, tail = kernel.bonus, kernel.tail
        assert (np.diff(bonus[:tail]) <= 0.0).all() and bonus[:tail][-1:].all()
        assert not bonus[tail:].any() and x1 == np.count_nonzero(on1)
        before, scanned = on1.copy(), on1.copy()
        result = sorted_sweep(kernel, on1, x1)
        assert result == kernel.sweep(scanned, x1, np.arange(len(on1)))
        assert (on1 == scanned).all()
        moves.append((before[:tail], on1[:tail].copy()))
        return result

    agents = Population(population.soc, population.on_link1.copy())
    with mock.patch.object(_SweepKernel, "sweep_sorted", checked):
        traj = run(agents, scn.network, scn.prefs, scn.toll)
    assert len(moves) == traj.terminal_round
    return moves


@settings(max_examples=100, deadline=None)
@given(
    scn=scenarios(max_agents=60),
    initial=INITIAL,
    seed=st.integers(0, 2**16),
    block=BLOCKS,
)
def test_sorted_sweeps_split_at_the_zero_bonus_tail(scn, initial, seed, block):
    """Every sequential sweep splits the population after the last
    non-zero bonus, with bonuses that never rise before it and are 0
    from it on, and moves it as the block scan does."""
    with block_size(block):
        _sorted_sweeps(scn, agents_from_scenario(scn, initial=initial, seed=seed))


def tied_at_bonus_zero(scale, zero_soc=0.5):
    """2, 8 and 2 DWPT-EVs at SoC 0.2, 0.5 and 0.8, and 6 OTHER-Vs, each
    times scale, under a toll of voe*(1/zero_soc - 1): the group at
    zero_soc has bonus 0, as the OTHER-Vs have.  At SoC 0.5 the link-1
    boundary on twin links falls inside it; at 0.8 the last DWPT-EVs
    start the zero-bonus tail."""
    socs = [0.2] * 2 * scale + [0.5] * 8 * scale + [0.8] * 2 * scale
    toll = FixedToll(100.0 * (1.0 / zero_soc - 1.0))
    return discrete_scenario(socs, 6 * scale, voe=100.0, toll=toll)


@settings(max_examples=100, deadline=None)
@given(scn=scenarios(max_agents=60))
# pools of 1 000-20 000 vehicles, where the oracle's bisections go deep
@example(scn=discretize_scenario(base_scenario()))
@example(scn=tied_at_bonus_zero(100))
@example(scn=tied_at_bonus_zero(1000))
@example(scn=discrete_scenario(
    np.linspace(0.05, 0.95, 5000).tolist(), 15_000,
    network=Network(replace(ERS_LINK, capacity=8000.0), LinkParams(12.0, 6000.0, bpr_beta=3.0)),
))
def test_oracle_matches_per_agent_reference(scn):
    assert_oracle_is_a_potential_minimum(scn)


def test_oracle_splits_a_tied_group_at_bonus_zero():
    """The tied group's DWPT-EVs rank before the OTHER-Vs, so link 1
    takes the two at SoC 0.2 and seven of the eight at bonus 0, and no
    OTHER-V."""
    scn = tied_at_bonus_zero(1)
    oracle = brute_force_equilibrium(scn)
    assert (oracle.x1_d, oracle.x1_o) == (9.0, 0.0)
    assert_oracle_is_a_potential_minimum(scn)
    assert_oracle_is_the_enumerated_minimum(scn)


def _assert_runs_match_reference(scn, populations, seed=3):
    """run against reference_run on fresh copies of each population, in
    both orders."""
    for population in populations:
        for policy in ("sequential", "random"):
            agents = Population(population.soc, population.on_link1.copy())
            links = [1 if on else 2 for on in agents.on_link1.tolist()]
            socs = agents.soc.tolist() + [None] * (len(agents) - len(agents.soc))
            traj = run(agents, scn.network, scn.prefs, scn.toll, order_policy=policy, seed=seed)
            got = [
                (s.round_index, s.x1_d, s.x1_o, s.t1, s.t2, s.switches, s.potential)
                for s in traj.snapshots
            ]
            assert got == reference_run(links, socs, scn, policy, seed)
            assert [1 if on else 2 for on in agents.on_link1.tolist()] == links


def _stalled_leaves(before, after):
    """Whether a link-1 agent stayed between two that left."""
    left = np.flatnonzero(before & ~after)
    return len(left) > 1 and bool((before & after)[left[0] : left[-1]].any())


# Each case: a scenario, its starts (initial assignments or link-1 masks),
# and what one of its sweeps must show, from the (before, after) masks of
# the agents before the tail.
SORTED_CASES = {
    # groups of tied SoCs, so runs of equal bonuses
    "soc-ties": (
        discrete_scenario([0.2] * 40 + [0.5] * 80 + [0.8] * 40, 160),
        INITIAL_STATES,
        lambda before, after: (before != after).any(),
    ),
    # capacity far above N: every low-flow time is the free-flow time, so
    # the gap holds runs of equal values, and near-zero bonuses
    "equal-gap-runs": (
        discrete_scenario(
            np.linspace(0.3, 0.7, 100), 200, toll=FixedToll(100.0),
            network=Network(replace(ERS_LINK, capacity=1e5), replace(PLAIN_LINK, capacity=1e5)),
        ),
        INITIAL_STATES,
        lambda before, after: (before != after).any(),
    ),
    # from the alternating start the high bonuses join and the low leave
    "joins-and-leaves": (
        discrete_scenario(np.linspace(0.1, 0.9, 200), 100),
        ("balanced",),
        lambda before, after: (after & ~before).any() and (before & ~after).any(),
    ),
    # two tied groups on link 1, the OTHER-Vs on link 2: the first group
    # leaves until the gap, about 5 JPY a vehicle, falls to its bonus -75,
    # the rest of it stays, and the second leaves on to its bonus -88.9
    "stalled-leaves": (
        discrete_scenario(
            [0.8] * 50 + [0.9] * 50, 100,
            network=Network(replace(ERS_LINK, capacity=105.0), replace(PLAIN_LINK, capacity=105.0)),
        ),
        (np.arange(200) < 100,),
        _stalled_leaves,
    ),
    # hundreds of joiners from all on link 2, more than the first window
    "long-join-pass": (
        discrete_scenario(np.linspace(0.05, 0.95, 600), 100),
        ("all_link2",),
        lambda before, after: np.count_nonzero(after & ~before) > 2 * _SweepKernel.BLOCK,
    ),
}


@pytest.mark.parametrize("case", SORTED_CASES)
def test_sorted_sweep_cases(case):
    """The two passes match the block scan sweep by sweep and the
    per-agent reference round by round, on the case it is built for."""
    scn, initials, shows = SORTED_CASES[case]
    populations = [
        agents_from_scenario(scn, initial, 3) if isinstance(initial, str)
        else Population(scn.soc.soc_values, initial)
        for initial in initials
    ]
    _assert_runs_match_reference(scn, populations)
    sweeps = [sweep for population in populations for sweep in _sorted_sweeps(scn, population)]
    assert any(shows(before, after) for before, after in sweeps)


@pytest.mark.parametrize("capacity", [500.0, 1e5, 1e9])
def test_leave_flows_are_the_least_moving_flows(capacity):
    """_leave_flows against every flow: for bonuses at, and a few
    rounding steps around, each gap value less and plus the indifference
    margin, the least flow y with fl(gap[y] - b) > eps.  At large
    capacities the gap holds runs of equal values."""
    link = replace(PLAIN_LINK, capacity=capacity)
    kernel = _SweepKernel(link, link, 50.0, np.zeros(300))
    gap = kernel.gap
    inner = np.unique(gap[1:-1])
    edges = np.concatenate([inner, inner - INDIFFERENCE_EPS, inner + INDIFFERENCE_EPS])
    bonuses = np.concatenate([
        edges, np.nextafter(edges, np.inf), np.nextafter(edges, -np.inf),
        np.nextafter(np.nextafter(edges, np.inf), np.inf), [0.0, -1e300, 1e300],
    ])
    expected = (gap[None, :] - bonuses[:, None] > INDIFFERENCE_EPS).argmax(axis=1)
    assert kernel._leave_flows(bonuses).tolist() == expected.tolist()


@pytest.mark.parametrize("moving", ["join", "leave"])
def test_an_overflowing_gain_sum_is_a_named_potential_failure(moving):
    """20 DWPT-EVs at bonus 1e307 and 20 at -1e307: in the first sweep
    the first group joins from link 2, or the second leaves link 1, and
    the passes' summed gains overflow to inf, which run reports as a
    potential failure of round 1 that names N, with no warning."""
    scn = discrete_scenario([0.1] * 20 + [0.9] * 20, 10, voe=2.25e306, toll=FixedToll(1.025e307))
    on1 = np.full(50, moving == "leave")
    sorted_sweep, sums = _SweepKernel.sweep_sorted, []

    def recorded(kernel, *args):
        result = sorted_sweep(kernel, *args)
        sums.append(result[1])
        return result

    agents = Population(scn.soc.soc_values, on1)
    with warnings.catch_warnings(), mock.patch.object(_SweepKernel, "sweep_sorted", recorded):
        warnings.simplefilter("error")
        with pytest.raises(OverflowError, match=r"^potential at round 1, N 50: "):
            run(agents, scn.network, scn.prefs, scn.toll)
    assert sums == [np.inf]


def test_a_potential_drop_that_overflows_is_a_named_failure():
    """Finite snapshot parts whose difference overflows: everyone starts
    on link 1, the time part is 1e308 and the 10 DWPT-EVs' bonuses sum
    to -1e308, so the potential is inf.  They all leave in round 1, and
    run names the drop and the gains, with no warning."""
    scn = discrete_scenario([0.5] * 10, 10, vot=5e305, toll=FixedToll(1e307))
    agents = Population(scn.soc.soc_values, np.ones(20, bool))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError, match=r"^potential at round 1, N 20: fell by inf "):
            run(agents, scn.network, scn.prefs, scn.toll)


@pytest.mark.parametrize("moving", ["join", "leave"])
def test_step_sums_an_overflowing_gain_to_inf_with_no_warning(moving):
    """The populations of the test above: step, by index and in an
    order, moves the same 25 agents and returns the overflowed sum as
    inf, with no RuntimeWarning."""
    scn = discrete_scenario([0.1] * 20 + [0.9] * 20, 10, voe=2.25e306, toll=FixedToll(1.025e307))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for order in (None, np.arange(50)):
            agents = Population(scn.soc.soc_values, np.full(50, moving == "leave"))
            assert step(agents, scn.network, scn.prefs, scn.toll, order) == (25, np.inf)


def test_long_runs_and_sparse_switchers():
    """Sizes where switchers come in long runs across many blocks and
    where isolated switchers sit among blocks that the scan skips, at
    N = 3000 (not a multiple of BLOCK), in both orders: every start on
    differing links, and the benchmark's congested regime (capacity N/3
    on both links, a random start), where many rounds each move a few
    agents spread over the whole population."""
    socs = np.linspace(0.05, 0.95, 600)
    base = LinkParams(10.0, 1000.0, has_ers=True, ers_power_kw=30.0)
    differing = discrete_scenario(
        socs, 2400, network=Network(base, LinkParams(12.0, 900.0, bpr_beta=3.0))
    )
    net = Network(replace(ERS_LINK, capacity=1000.0), replace(PLAIN_LINK, capacity=1000.0))
    congested = discretize_scenario(base_scenario(total=3000.0, network=net))
    for scn, initials in ((differing, INITIAL_STATES), (congested, ("random",))):
        _assert_runs_match_reference(scn, [agents_from_scenario(scn, i, 3) for i in initials])
        assert_oracle_is_a_potential_minimum(scn)


def test_a_long_streak_at_scale_is_scanned_agent_by_agent():
    """Random order from all on link 2 at a free toll, N 1e5, capacity
    N/2: every bonus is >= 0, so the first round moves 57 349 agents in
    long streaks, each through the block scan's per-agent loop.  The run
    converges in 4 rounds to the oracle's class flows."""
    base = table1_scenario()
    net = Network(replace(base.network.link1, capacity=5e4),
                  replace(base.network.link2, capacity=5e4))
    scn = discretize_scenario(replace(
        base, total_vehicles=1e5, soc=replace(base.soc, mass=base.dwpt_ratio * 1e5),
        toll=FreeToll(), network=net,
    ))
    agents = agents_from_scenario(scn, "all_link2")
    traj = run(agents, scn.network, scn.prefs, scn.toll, order_policy="random", seed=3)
    assert traj.snapshots[1].switches == 57_349
    assert (traj.converged, traj.terminal_round) == (True, 4)
    oracle = brute_force_equilibrium(scn)
    assert class_flows(agents)[:2] == (oracle.x1_d, oracle.x1_o) == (20_000, 30_000)


@pytest.mark.parametrize(
    ("n_dwpt", "n_other"),
    [(0, 1), (1, 0), (0, 200), (150, 0), (70, 3 * _SweepKernel.BLOCK + 5)],
    ids=["one-other", "one-dwpt", "no-dwpt", "no-other", "ragged"],
)
def test_edge_populations(n_dwpt, n_other):
    """A single vehicle, one class only (no scenario holds these, so the
    arrays are built directly), and a population whose last block is
    ragged, from every kind of start."""
    scn = discrete_scenario((0.5,), 1)
    socs, n = np.linspace(0.1, 0.9, n_dwpt), n_dwpt + n_other
    starts = (np.zeros(n, bool), np.ones(n, bool), np.arange(n) % 2 == 0,
              np.random.default_rng(3).integers(0, 2, n) == 1)
    _assert_runs_match_reference(scn, [Population(socs, on1) for on1 in starts])


def _tail_switches(scn, population):
    """Switches of each closed-form tail sweep of a sequential run on a
    copy of the population, the tail's first index, and the run's
    Trajectory."""
    tail_sweep, taken = _SweepKernel._tail, []

    def counted(kernel, on1, x1):
        gains = tail_sweep(kernel, on1, x1)
        taken.append((kernel.tail, len(gains)))
        return gains

    agents = Population(population.soc, population.on_link1.copy())
    with mock.patch.object(_SweepKernel, "_tail", counted):
        traj = run(agents, scn.network, scn.prefs, scn.toll)
    return [moved for _, moved in taken], {start for start, _ in taken}, traj


@pytest.mark.parametrize("moving", ["leave", "join"])
def test_tail_with_nobody_on_the_moving_link(moving):
    """The gap says the tail's link-1 agents leave (or its link-2 agents
    join), but every tail agent is on the other link: the closed form
    moves nobody.  150 DWPT-EVs hold the link they start on by a bonus
    of +-hundreds, and 50 OTHER-Vs start all on the link that the gap
    says nobody should leave."""
    leave = moving == "leave"
    socs = np.linspace(0.05, 0.1, 150) if leave else np.linspace(0.85, 0.9, 150)
    scn = discrete_scenario(socs, 50, toll=FixedToll(100.0 if leave else 500.0))
    on1 = np.arange(200) < 150 if leave else np.arange(200) >= 150
    x1 = int(np.count_nonzero(on1))
    gap = _SweepKernel(scn.network.link1, scn.network.link2, scn.prefs.vot, np.zeros(200)).gap
    assert gap[x1] > INDIFFERENCE_EPS if leave else gap[x1 + 1] < -INDIFFERENCE_EPS
    population = Population(socs, on1)
    assert _tail_switches(scn, population)[:2] == ([0], {150})
    _assert_runs_match_reference(scn, [population])


@pytest.mark.parametrize("block", [3, _SweepKernel.BLOCK])
def test_tail_starting_inside_the_dwpt_evs(block):
    """The last DWPT-EVs sit at bonus exactly 0, so the zero-bonus tail
    starts among them and they move in closed form with the OTHER-Vs,
    from every start."""
    scn = tied_at_bonus_zero(10, zero_soc=0.8)
    populations = [agents_from_scenario(scn, initial, 3) for initial in INITIAL_STATES]
    with block_size(block):
        _assert_runs_match_reference(scn, populations)
        for population in populations:
            assert _tail_switches(scn, population)[1] == {100}  # 20 at bonus 0 follow
        assert _tail_switches(scn, populations[1])[0][0] > 0  # from all on link 1


@pytest.mark.parametrize(
    "network",
    [TWIN_NETWORK, Network(ERS_LINK, LinkParams(12.0, 100.0, bpr_beta=3.0))],
    ids=["twin", "differing"],
)
def test_other_v_only_populations(network):
    """A population of OTHER-Vs alone is one zero-bonus tail: every
    switch of a sequential run is made in closed form, from every start
    and on links where the equilibrium splits it evenly or not."""
    scn = discrete_scenario((0.5,), 1, network=network)
    n = 3 * _SweepKernel.BLOCK + 5
    starts = (np.zeros(n, bool), np.ones(n, bool), np.arange(n) % 2 == 0,
              np.random.default_rng(3).integers(0, 2, n) == 1)
    populations = [Population(np.empty(0), on1) for on1 in starts]
    _assert_runs_match_reference(scn, populations)
    for population in populations:
        moved, tails, traj = _tail_switches(scn, population)
        assert tails == {0} and sum(moved) == traj.total_switches and moved[-1] == 0
    assert _tail_switches(scn, populations[0])[0][0] > 0  # from all on link 2


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 20_000), data=st.data())
def test_travel_time_table_is_bpr_time_exactly(n, data):
    """Both travel-time tables at flows 0..n, on twin or differing links,
    and both switch gains at every link-1 flow a vehicle can leave or
    join from are the scalar rule's, built from bpr_time, to the bit.
    The gap's ends, read only where nobody can move, are -inf and +inf.
    This also guards against a numpy whose float_power stops calling the
    C pow."""
    net, vot = data.draw(networks(n)), data.draw(st.floats(10.0, 100.0))
    link1, link2 = net.link1, net.link2
    kernel = _SweepKernel(link1, link2, vot, np.zeros(n))
    assert kernel.times1.tolist() == [bpr_time(link1, x) for x in range(n + 1)]
    assert kernel.times2.tolist() == [bpr_time(link2, x) for x in range(n + 1)]
    leave_link1 = [
        vot * (bpr_time(link1, x) - bpr_time(link2, n - x + 1)) for x in range(1, n + 1)
    ]
    leave_link2 = [
        vot * (bpr_time(link2, n - x) - bpr_time(link1, x + 1)) for x in range(n)
    ]
    # leaving link 1 at flow x gains gap[x], leaving link 2 -gap[x + 1]
    assert kernel.gap[1 : n + 1].tolist() == leave_link1
    assert (-kernel.gap[1 : n + 1]).tolist() == leave_link2
    assert (kernel.gap[0], kernel.gap[n + 1]) == (-np.inf, np.inf)
    # the oracle's bisections rest on these never falling with the flow
    for table in (kernel.times1, kernel.times2, kernel.gap):
        assert (np.diff(table) >= 0.0).all()


def _six_vehicles(link, **changes):
    """Three DWPT-EVs and three OTHER-Vs, with the given link changed."""
    net = Network(LinkParams(10.0, 500.0, has_ers=True, ers_power_kw=30.0),
                  LinkParams(10.0, 500.0))
    net = replace(net, **{link: replace(getattr(net, link), **changes)})
    return discrete_scenario((0.2, 0.5, 0.8), 3, network=net)


# At this capacity and beta 8 the travel time overflows at flow 7 = N + 1,
# which no vehicle reaches, and not at flow 6 = N.  At vot 50 the gap
# vot*(t1 - t2) still overflows where the changed link carries all N
# vehicles, so the two last-flow cases below fail; at vot 1e-3 nothing a
# vehicle reaches overflows (test_overflow_past_every_reachable_flow_is_no_failure).
LAST_FLOW_ONLY = {"capacity": 6.5 / 1.7e308 ** (1 / 8), "bpr_beta": 8.0}
BUNDLED = table1_scenario()
OVERFLOWING = {
    "link1": _six_vehicles("link1", capacity=1e-40, bpr_beta=8.0),
    "link2": _six_vehicles("link2", capacity=1e-40, bpr_beta=8.0),
    "link1-last-flow": _six_vehicles("link1", **LAST_FLOW_ONLY),
    "link2-last-flow": _six_vehicles("link2", **LAST_FLOW_ONLY),
    # alpha * p overflows while the power p stays finite
    "alpha-times-power": _six_vehicles("link1", bpr_alpha=1e306, capacity=1.0),
    # finite travel times, but vot times their difference overflows
    "gap": discretize_scenario(replace(BUNDLED, prefs=replace(BUNDLED.prefs, vot=1e308))),
    # finite travel times, but the charging bonus at the lowest SoC overflows
    "bonus": discretize_scenario(replace(BUNDLED, prefs=replace(BUNDLED.prefs, voe=1e308))),
    # finite bonuses, gaps and times, but the potential's sum of the bonuses
    # on link 1 overflows, or its vot times the summed travel times does
    "bonus-sum": discretize_scenario(replace(BUNDLED, prefs=replace(BUNDLED.prefs, voe=1e307))),
    "time-sum": discretize_scenario(replace(BUNDLED, prefs=replace(BUNDLED.prefs, vot=3e304))),
}
# The oracle sums no potential, so it solves the last two cases.
POTENTIAL_ONLY = ("bonus-sum", "time-sum")
# The stage each case fails in, and its inputs, as the failure names them
STAGES = {
    "link1": "kernel tables, N 6: link-1 travel time overflows at a flow of at most N "
    "(capacity 1e-40, alpha 0.15, beta 8.0)",
    "link2": "kernel tables, N 6: link-2 travel time overflows at a flow of at most N "
    "(capacity 1e-40, alpha 0.15, beta 8.0)",
    "link1-last-flow": "kernel tables, N 6: vot 50.0 times a link time difference overflows",
    "link2-last-flow": "kernel tables, N 6: vot 50.0 times a link time difference overflows",
    "alpha-times-power": "kernel tables, N 6: link-1 travel time overflows at a flow of at "
    "most N (capacity 1.0, alpha 1e+306, beta 4.0)",
    "gap": "kernel tables, N 1000: vot 1e+308 times a link time difference overflows",
    "bonus": "charging bonus, N 1000: overflows at SoC 0.10200000000000001 "
    "(voe 1e+308, toll 100.0)",
    "bonus-sum": "potential at round 1, N 1000: a sum overflows at link-1 flow 500",
    "time-sum": "potential at round 0, N 1000: the time part overflows at link-1 flow 0 "
    "(vot 3e+304)",
}


@pytest.mark.parametrize("case", OVERFLOWING)
def test_overflowing_travel_time_is_an_arithmetic_failure(case, tmp_path, capsys):
    """A travel time or gap that overflows a double at some flow 0..N, a
    charging bonus that overflows, or a potential that overflows fails
    the simulator, the oracle (where it sums what overflows) and `erstoll
    simulate` as a numerical failure that names its stage and inputs,
    with no RuntimeWarning on the way."""
    scn = OVERFLOWING[case]
    path = tmp_path / "overflow.cfg"
    write_scenario(scn, path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ArithmeticError) as failure:
            run(agents_from_scenario(scn), scn.network, scn.prefs, scn.toll)
        assert str(failure.value).startswith(STAGES[case])
        if isinstance(failure.value, FloatingPointError):  # numpy's own error, chained
            assert isinstance(failure.value.__cause__, FloatingPointError)
        if case in POTENTIAL_ONLY:
            assert verify_equilibrium(scn, brute_force_equilibrium(scn)) == []
        else:
            with pytest.raises(ArithmeticError):
                brute_force_equilibrium(scn)
        assert main(["simulate", "--scenario", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"numerical failure: {STAGES[case]}")


@pytest.mark.parametrize("link", ["link1", "link2"])
def test_overflow_past_every_reachable_flow_is_no_failure(link, tmp_path, capsys):
    """Only the travel time at flow N + 1 overflows, which no vehicle
    reaches: run matches the per-agent reference from every start in
    both orders, the oracle is a potential minimum, and `erstoll
    simulate` converges, with no RuntimeWarning on the way."""
    scn = _six_vehicles(link, **LAST_FLOW_ONLY)
    scn = replace(scn, prefs=replace(scn.prefs, vot=1e-3))
    path = tmp_path / "last-flow.cfg"
    write_scenario(scn, path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        populations = [agents_from_scenario(scn, initial, 3) for initial in INITIAL_STATES]
        _assert_runs_match_reference(scn, populations)
        assert_oracle_is_a_potential_minimum(scn)
        assert main(["simulate", "--scenario", str(path)]) == 0
    assert "converged        true" in capsys.readouterr().err
