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

import numpy as np
import pytest
from conftest import (
    ERS_LINK,
    PLAIN_LINK,
    base_scenario,
    bpr_links,
    discrete_scenario,
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
    discretize_scenario,
    run,
    step,
)
from erstoll.equilibrium import brute_force_equilibrium
from erstoll.harness import table1_scenario
from erstoll.model import (
    INDIFFERENCE_EPS,
    FixedToll,
    LinkParams,
    Network,
    VehicleClass,
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
    x1 = links.count(1)
    net, prefs, price = scn.network, scn.prefs, scn.toll.dwpt_link1_charge
    time_part = prefs.vot * (_bpr_sum(net.link1, x1) + _bpr_sum(net.link2, len(links) - x1))
    return time_part + sum(
        price - prefs.voe * (1.0 / float(s) - 1.0)
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
    kernel = _SweepKernel(scn.network.link1, scn.network.link2, vot, n)
    flow_phi = np.array([
        dynamics.rosenthal_potential(kernel.times1, kernel.times2, vot, x1, n - x1, ())
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
    socs = [a.soc if a.vclass is VehicleClass.DWPT else None for a in agents]
    return agents, links, socs


INITIAL_STATES = ("all_link2", "all_link1", "random", "balanced")
INITIAL = st.sampled_from(INITIAL_STATES)
# Small blocks make N <= 60 reach skipped blocks, runs that end mid-block
# or span doubling windows, and a ragged last block.
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


def tied_at_bonus_zero(scale):
    """2, 8 and 2 DWPT-EVs at SoC 0.2, 0.5 and 0.8, and 6 OTHER-Vs, each
    times scale, under a toll of voe*(1/0.5 - 1): the group at SoC 0.5
    has bonus 0, as the OTHER-Vs have, and on twin links the link-1
    boundary falls inside it."""
    socs = [0.2] * 2 * scale + [0.5] * 8 * scale + [0.8] * 2 * scale
    return discrete_scenario(socs, 6 * scale, voe=100.0, toll=FixedToll(100.0))


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


def test_long_runs_and_sparse_switchers():
    """Sizes where runs span several doubling windows and isolated
    switchers sit in blocks scanned agent by agent, at N = 3000 (not a
    multiple of BLOCK), in both orders: every start on differing links,
    and the benchmark's congested regime (capacity N/3 on both links, a
    random start), where many rounds each move a few agents spread over
    the whole population."""
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


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 20_000), data=st.data())
def test_travel_time_table_is_bpr_time_exactly(n, data):
    """Both travel-time tables at flows 0..n+1 and both switch gains at
    every link-1 flow 0..n are the scalar rule's, built from bpr_time, to
    the bit.  This also guards against a numpy whose float_power stops
    calling the C pow."""
    link1, link2 = data.draw(bpr_links(n, ers=True)), data.draw(bpr_links(n))
    vot = data.draw(st.floats(10.0, 100.0))
    kernel = _SweepKernel(link1, link2, vot, n)
    assert kernel.times1.tolist() == [bpr_time(link1, x) for x in range(n + 2)]
    assert kernel.times2.tolist() == [bpr_time(link2, x) for x in range(n + 2)]
    flows = range(n + 1)
    leave_link1 = [
        vot * (bpr_time(link1, x) - bpr_time(link2, n - x + 1)) for x in flows
    ]
    leave_link2 = [
        vot * (bpr_time(link2, n - x) - bpr_time(link1, x + 1)) for x in flows
    ]
    # leaving link 1 at flow x gains gap[x], leaving link 2 -gap[x + 1]
    assert kernel.gap[: n + 1].tolist() == leave_link1
    assert (-kernel.gap[1 : n + 2]).tolist() == leave_link2
    # the oracle's bisections rest on these never falling with the flow
    for table in (kernel.times1, kernel.times2, kernel.gap):
        assert (np.diff(table) >= 0.0).all()


def _six_vehicles(link, **changes):
    """Three DWPT-EVs and three OTHER-Vs, with the given link changed."""
    net = Network(LinkParams(10.0, 500.0, has_ers=True, ers_power_kw=30.0),
                  LinkParams(10.0, 500.0))
    net = replace(net, **{link: replace(getattr(net, link), **changes)})
    return discrete_scenario((0.2, 0.5, 0.8), 3, network=net)


# At this capacity and beta 8 only the travel time at flow 7 = N + 1,
# the tables' last entry, overflows; the oracle's bisection never reads
# that flow, so only its end check raises.
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
}


@pytest.mark.parametrize("case", OVERFLOWING)
def test_overflowing_travel_time_is_an_arithmetic_failure(case, tmp_path, capsys):
    """A travel time or gap that overflows a double at some flow
    0..N+1 fails the simulator, the oracle and `erstoll simulate` as a
    numerical failure, with no RuntimeWarning on the way."""
    scn = OVERFLOWING[case]
    path = tmp_path / "overflow.cfg"
    write_scenario(scn, path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ArithmeticError):
            run(agents_from_scenario(scn), scn.network, scn.prefs, scn.toll)
        with pytest.raises(ArithmeticError):
            brute_force_equilibrium(scn)
        assert main(["simulate", "--scenario", str(path)]) == 2
    assert capsys.readouterr().err.startswith("numerical failure: ")
