import textwrap

import numpy as np
import pytest
from conftest import (
    TWIN_NETWORK,
    agents_at_result,
    base_scenario,
    discrete_scenario,
    evenly_spaced_socs,
    run_python,
)
from test_kernel import assert_oracle_is_the_enumerated_minimum

from erstoll import dynamics, equilibrium
from erstoll.dynamics import (
    Population,
    agents_from_scenario,
    class_flows,
    discretize_scenario,
    run,
    step,
)
from erstoll.equilibrium import brute_force_equilibrium, solve
from erstoll.harness import table1_scenario
from erstoll.model import (
    FixedToll,
    FreeToll,
    LinkParams,
    Network,
    Preferences,
    Scenario,
    UniformContinuum,
)

PREFS = Preferences(vot=50.0, voe=100.0)


class TestPopulation:
    def test_validation(self):
        Population(np.array([0.5]), np.array([True, False]))
        Population(np.array([]), np.array([False]))
        with pytest.raises(ValueError, match="fewer"):
            Population(np.array([0.2, 0.5]), np.array([True]))
        with pytest.raises(ValueError, match="bool"):
            Population(np.array([0.5]), np.array([1, 2]))
        Population(np.array([0.2, 0.2, 0.5]), np.zeros(3, dtype=bool))  # ties ascend
        with pytest.raises(ValueError, match=r"^SoCs must ascend: SoC 0.2 at 2 follows 0.5$"):
            Population(np.array([0.1, 0.5, 0.2]), np.zeros(4, dtype=bool))

    def test_views_follow_the_mask_after_run(self):
        scn = discrete_scenario(evenly_spaced_socs(4), n_other=6)
        population = agents_from_scenario(scn, "random", seed=3)
        run(population, scn.network, scn.prefs, scn.toll)
        views = list(population)
        assert len(views) == len(population) == 10
        assert [a.agent_id for a in views] == list(range(10))
        assert [a.current_link for a in views] == [
            1 if on else 2 for on in population.on_link1.tolist()
        ]
        assert [a.soc is None for a in views] == [False] * 4 + [True] * 6
        assert [a.soc for a in views[:4]] == sorted(scn.soc.soc_values)
        with pytest.raises(AttributeError):
            views[0].current_link = 2


class TestPopulationBuilders:
    def test_discretize_replaces_continuum_with_midpoints(self):
        scn = discretize_scenario(base_scenario())
        socs = sorted(scn.soc.soc_values)
        assert len(socs) == 200
        assert socs[0] == pytest.approx(0.1 + 0.5 * 0.8 / 200)
        assert socs[-1] == pytest.approx(0.9 - 0.5 * 0.8 / 200)
        assert scn.soc.count_below(0.5) == 100.0
        # the pool's own quantile at every midpoint, to the bit; at 0.55 *
        # 3000 the mass is 1650.0000000000002, so any other order of the
        # operations gives other floats
        for pool in (
            base_scenario(),
            base_scenario(total=9800.0),
            base_scenario(total=9800.0, ratio=0.5, s_lo=0.05, s_hi=0.95),
            base_scenario(total=3000.0, ratio=0.55, s_lo=0.3, s_hi=0.7),
        ):
            n, mass = round(pool.soc.mass), pool.soc.mass
            expected = tuple(pool.soc.quantile((i + 0.5) / n * mass) for i in range(n))
            assert discretize_scenario(pool).soc.soc_values == expected

    def test_discretize_passthrough_and_validation(self):
        scn = discrete_scenario(evenly_spaced_socs(5), n_other=5)
        assert discretize_scenario(scn) is scn
        with pytest.raises(ValueError):
            discretize_scenario(base_scenario(total=1001.5))

    def test_initial_assignments(self):
        scn = discrete_scenario(evenly_spaced_socs(4), n_other=6)
        assert class_flows(agents_from_scenario(scn, "all_link2")) == (0, 0, 4, 6)
        assert class_flows(agents_from_scenario(scn, "all_link1")) == (4, 6, 0, 0)
        x1_d, x1_o, x2_d, x2_o = class_flows(
            agents_from_scenario(scn, "balanced")
        )
        assert abs(x1_d - x2_d) <= 1 and abs(x1_o - x2_o) <= 1
        rand = agents_from_scenario(scn, "random", seed=1)
        again = agents_from_scenario(scn, "random", seed=1)
        assert [a.current_link for a in rand] == [a.current_link for a in again]
        with pytest.raises(ValueError):
            agents_from_scenario(scn, "everywhere")
        with pytest.raises(ValueError):
            agents_from_scenario(base_scenario())  # continuum pool

    def test_initial_links_are_pinned(self):
        # links as drawn before the population became arrays: a changed
        # RNG draw or a reordered class would move them
        scn = discrete_scenario(evenly_spaced_socs(4), n_other=6)
        expected = {
            "all_link2": [2] * 10,
            "all_link1": [1] * 10,
            "random": [1, 2, 2, 2, 1, 1, 2, 2, 1, 1],
            "balanced": [1, 2, 1, 2, 1, 2, 1, 2, 1, 2],
        }
        for initial, links in expected.items():
            population = agents_from_scenario(scn, initial, seed=1)
            assert [a.current_link for a in population] == links, initial

    def test_non_integral_totals_one_error_everywhere(self):
        # 3 DWPT-EVs in a fleet of 10.5 leave 7.5 OTHER-Vs
        discrete = discrete_scenario(evenly_spaced_socs(3), n_other=7.5)
        uniform = Scenario(
            total_vehicles=discrete.total_vehicles,
            dwpt_ratio=discrete.dwpt_ratio,
            soc=UniformContinuum(s_lo=0.1, s_hi=0.9, mass=3.0),
            prefs=discrete.prefs,
            toll=discrete.toll,
            network=discrete.network,
        )
        messages = set()
        for build, scn in (
            (discretize_scenario, uniform),
            (agents_from_scenario, discrete),
            (brute_force_equilibrium, discrete),
        ):
            with pytest.raises(ValueError, match="integral class totals") as info:
                build(scn)
            messages.add(str(info.value))
        assert len(messages) == 1

    def test_agents_at_result_match_solver_flows(self):
        scn = discretize_scenario(base_scenario())
        result, _ = solve(scn)
        agents = agents_at_result(scn, result)
        x1_d, x1_o, _, _ = class_flows(agents)
        assert x1_d == round(result.x1_d)
        assert x1_o == round(result.x1_o)


class TestStep:
    def test_crowded_link_sheds_exactly_one_agent(self):
        # two OTHER vehicles on link 1: the first to move sees t(2) vs
        # t(1) and leaves; the second then sees t(1) vs t(2) and stays.
        # A lone agent never switches between identical links: moving
        # would just carry its own congestion along (t(1) on both).
        agents = Population(np.array([]), np.array([True, True]))
        switches, gain = step(agents, TWIN_NETWORK, PREFS, FreeToll())
        assert switches == 1
        assert gain > 0
        assert [a.current_link for a in agents] == [2, 1]
        switches, _ = step(agents, TWIN_NETWORK, PREFS, FreeToll())
        assert switches == 0

    def test_equilibrium_population_is_a_fixed_point(self):
        scn = discretize_scenario(base_scenario())
        result, _ = solve(scn)
        agents = agents_at_result(scn, result)
        switches, _ = step(agents, scn.network, scn.prefs, scn.toll)
        assert switches == 0

    def test_respects_visit_order(self):
        scn = discrete_scenario(evenly_spaced_socs(4), n_other=6)
        forward = agents_from_scenario(scn, "all_link2")
        backward = agents_from_scenario(scn, "all_link2")
        step(forward, scn.network, scn.prefs, scn.toll)
        step(
            backward,
            scn.network,
            scn.prefs,
            scn.toll,
            order=list(range(len(backward)))[::-1],
        )
        assert class_flows(forward) != class_flows(backward)

    @pytest.mark.parametrize(
        "order",
        [[0, 0, 1], [0] * 1000, list(range(999)), list(range(1001))],
        ids=["repeat", "one-agent", "short", "long"],
    )
    def test_rejects_an_order_that_is_not_a_permutation(self, order):
        """A repeated agent, one agent a thousand times, an order that
        misses the last agent and one past the end: each raises before
        anybody moves, naming N."""
        scn = discretize_scenario(table1_scenario())
        agents = agents_from_scenario(scn, "all_link2")
        message = r"^order must be a permutation of range\(N\), N 1000$"
        with pytest.raises(ValueError, match=message):
            step(agents, scn.network, scn.prefs, scn.toll, order)
        assert not agents.on_link1.any()


class TestRun:
    def test_converges_to_solver_flows(self):
        scn = discretize_scenario(base_scenario())
        agents = agents_from_scenario(scn, "all_link2")
        traj = run(agents, scn.network, scn.prefs, scn.toll)
        result, _ = solve(scn)
        assert traj.converged
        last = traj.snapshots[-1]
        assert last.switches == 0
        assert abs(last.x1_d - result.x1_d) <= 1.0
        assert abs(last.x1_o - result.x1_o) <= 1.0

    def test_potential_never_increases(self):
        scn = discretize_scenario(base_scenario(ratio=0.6, toll=FixedToll(15.0)))
        agents = agents_from_scenario(scn, "random", seed=9)
        traj = run(agents, scn.network, scn.prefs, scn.toll, order_policy="random", seed=9)
        phis = [s.potential for s in traj.snapshots]
        assert all(b <= a + 1e-9 for a, b in zip(phis, phis[1:]))
        assert traj.converged

    def test_mixed_state_is_left_immediately(self):
        scn = discretize_scenario(base_scenario(ratio=0.8, toll=FreeToll()))
        agents = agents_from_scenario(scn, "balanced")
        start = class_flows(agents)
        traj = run(agents, scn.network, scn.prefs, scn.toll)
        assert traj.snapshots[1].switches > 0
        assert class_flows(agents) != start
        result, _ = solve(scn)
        last = traj.snapshots[-1]
        assert traj.converged
        assert abs(last.x1_d - result.x1_d) <= 1.0
        assert last.x1_o == 0

    def test_round_limit_reported_not_thrown(self):
        scn = discretize_scenario(base_scenario())
        agents = agents_from_scenario(scn, "all_link2")
        traj = run(agents, scn.network, scn.prefs, scn.toll, max_rounds=1)
        assert traj.converged is False
        assert traj.terminal_round == 1

    def test_same_seed_same_trajectory(self):
        scn = discretize_scenario(base_scenario(ratio=0.6))
        runs = []
        for _ in range(2):
            agents = agents_from_scenario(scn, "random", seed=21)
            traj = run(
                agents, scn.network, scn.prefs, scn.toll,
                order_policy="random", seed=21,
            )
            runs.append([(s.x1_d, s.x1_o, s.switches) for s in traj.snapshots])
        assert runs[0] == runs[1]

    def test_argument_validation(self):
        scn = discrete_scenario(evenly_spaced_socs(4), n_other=6)
        agents = agents_from_scenario(scn)
        with pytest.raises(ValueError):
            run(agents, scn.network, scn.prefs, scn.toll, max_rounds=0)
        with pytest.raises(ValueError):
            run(agents, scn.network, scn.prefs, scn.toll, order_policy="swirl")

    def test_potential_and_gains_must_agree(self, monkeypatch):
        scn = discrete_scenario(evenly_spaced_socs(10), n_other=20)
        agents = agents_from_scenario(scn)
        monkeypatch.setattr(dynamics, "rosenthal_potential", lambda *args: 0.0)
        with pytest.raises(AssertionError, match="utility and potential disagree"):
            run(agents, scn.network, scn.prefs, scn.toll)

    def test_trajectory_bookkeeping(self):
        scn = discrete_scenario(evenly_spaced_socs(6), n_other=14)
        agents = agents_from_scenario(scn, "all_link2")
        traj = run(agents, scn.network, scn.prefs, scn.toll)
        assert traj.snapshots[0].round_index == 0
        assert traj.snapshots[0].switches == 0
        assert traj.total_switches == sum(s.switches for s in traj.snapshots)
        assert traj.terminal_round == traj.snapshots[-1].round_index


class TestOracleSelfChecks:
    """The enumerated reference of test_kernel rejects each broken case."""

    def test_non_nash_endpoint_rejected(self):
        # both vehicles on link 2 while link 1 is free and empty
        scn = discrete_scenario((0.5,), n_other=1, toll=FreeToll())
        with pytest.raises(AssertionError, match="oracle endpoint is not a Nash"):
            assert_oracle_is_the_enumerated_minimum(scn, counts=(0, 0))

    def test_endpoint_above_the_potential_minimum_rejected(self):
        # on links of capacity 1 a DWPT-EV whose charge falls 1 JPY short
        # of the toll stays on link 1 (leaving costs it 22.5 minutes):
        # Nash, but an OTHER-V in its place lowers the potential by 1 JPY
        net = Network(LinkParams(10.0, 1.0, has_ers=True, ers_power_kw=30.0), LinkParams(10.0, 1.0))
        scn = discrete_scenario((0.5,), n_other=1, toll=FixedToll(101.0), network=net)
        with pytest.raises(AssertionError, match="oracle potential .* exceeds the minimum"):
            assert_oracle_is_the_enumerated_minimum(scn, counts=(1, 0))

    def test_non_nash_potential_minimizer_rejected(self, monkeypatch):
        # a flat time potential puts the minimum at every vehicle on link 2
        scn = discrete_scenario((0.9,), n_other=3, toll=FixedToll(500.0))
        monkeypatch.setattr(dynamics, "rosenthal_potential", lambda *args: 0.0)
        with pytest.raises(AssertionError, match="potential minimizer is not a Nash"):
            assert_oracle_is_the_enumerated_minimum(scn)


SPLIT_CHECK = """
    import sys

    import erstoll
    from erstoll import analysis, cli, equilibrium, harness, model

    assert "numpy" not in sys.modules, "the analytic path loaded numpy"
    from erstoll import *
    from erstoll import dynamics

    assert brute_force_equilibrium is equilibrium.brute_force_equilibrium
    assert erstoll.brute_force_equilibrium is equilibrium.brute_force_equilibrium
    assert equilibrium.rosenthal_potential is dynamics.rosenthal_potential
    for module, name in (
        (erstoll, "rosenthal_potential"),
        (erstoll, "no_such_name"),
        (equilibrium, "Population"),
        (equilibrium, "no_such_name"),
        (dynamics, "brute_force_equilibrium"),
    ):
        try:
            getattr(module, name)
        except AttributeError:
            continue
        raise AssertionError(f"{module.__name__}.{name} resolved")

    import contextlib
    import io
    from pathlib import Path

    harness.resolve_scenario("table1.cfg")
    csv_runs = (
        ["solve", "--output", "row.csv"],
        ["sweep", "--axis", "toll.price=0:400:5", "--output", "sweep.csv"],
        ["bands", "--output", "bands.csv"],
        ["simulate", "--rounds", "50", "--output", "simulate.csv"],
        ["table2", "--output", "table2.csv"],
        ["fig2", "--prices", "0:100:3", "--voes", "10,100", "--output", "fig2.csv"],
    )
    text_runs = [
        [*argv[:-1], argv[-1].replace(".csv", ".yaml"), "--format", "structured-text"]
        for argv in csv_runs[1:]
    ]
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in csv_runs + tuple(text_runs):
            assert cli.main(argv) == 0, argv
        assert "yaml" not in sys.modules, "the bundled preset or a plain table loaded yaml"
        assert Path("table2.yaml").read_text().startswith("- 'scenario': '1'")
        # an error row is not plain: it goes through yaml.dump
        sweep = ["sweep", "--axis", "toll.price=0,100", "--axis", "dwpt_ratio=0.2,1.5"]
        assert cli.main([*sweep, "--output", "errors.csv"]) == 0
        assert cli.main([*sweep, "--output", "errors.yaml", "--format", "structured-text"]) == 0
    assert "yaml" in sys.modules, "an error row did not load yaml"
    import csv

    import yaml

    docs = list(csv.DictReader(open("errors.csv", newline="")))
    assert len(docs) == 4 and sum(bool(doc["error"]) for doc in docs) == 2, docs
    text = yaml.safe_dump(docs, sort_keys=False, default_style="'")
    assert Path("errors.yaml").read_text() == text
"""

ORACLE_CHECK = """
    import sys

    from erstoll import brute_force_equilibrium
    from erstoll.model import (
        DiscreteAgents, FixedToll, LinkParams, Network, Preferences, Scenario,
    )

    network = Network(
        LinkParams(10.0, 500.0, has_ers=True, ers_power_kw=30.0), LinkParams(10.0, 500.0)
    )
    scenario = Scenario(
        total_vehicles=4.0, dwpt_ratio=0.5, soc=DiscreteAgents((0.8, 0.2)),
        prefs=Preferences(vot=50.0, voe=100.0), toll=FixedToll(100.0), network=network,
    )
    result = brute_force_equilibrium(scenario)
    assert (result.x1_d, result.x1_o) == (1.0, 1.0), result
    assert "numpy" not in sys.modules, "the oracle loaded numpy"
"""


# The bundled preset at N = 1e6, capacity N/2 on each link.  ru_maxrss is
# the whole process's peak, so this needs a process of its own.  The DWPT
# pool is built from the quantile midpoints in plain Python, so the oracle
# runs before anything has loaded numpy.
MILLION_CHECK = """
    import resource
    import sys
    from dataclasses import replace

    import erstoll
    from erstoll import harness
    from erstoll.model import DiscreteAgents

    text = harness.bundled_scenario_path().read_text()
    text = text.replace("total_vehicles: 1000.0", "total_vehicles: 1000000.0")
    text = text.replace("capacity: 500.0", "capacity: 500000.0")
    open("million.cfg", "w").write(text)
    loaded = erstoll.load_scenario("million.cfg")
    network = loaded.network
    assert loaded.total_vehicles == 2 * network.link1.capacity == 2 * network.link2.capacity == 1e6
    pool, (n_dwpt, _) = loaded.soc, loaded.agent_counts()
    socs = tuple(pool.quantile((i + 0.5) / n_dwpt * pool.mass) for i in range(n_dwpt))
    scenario = replace(loaded, soc=DiscreteAgents(socs))

    before_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    oracle = erstoll.brute_force_equilibrium(scenario)
    oracle_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    assert oracle_kib - before_kib <= 1024, "the oracle raised the peak RSS by more than 1 MiB"
    assert "numpy" not in sys.modules, "the oracle loaded numpy"
    result, _ = erstoll.solve(scenario)
    assert abs(oracle.x1 - result.x1) <= 1.0, (oracle, result)

    from erstoll import dynamics

    assert dynamics.discretize_scenario(loaded) == scenario
    agents = dynamics.agents_from_scenario(scenario, initial="random", seed=1)
    run = dynamics.run(agents, scenario.network, scenario.prefs, scenario.toll, max_rounds=50)
    assert run.converged, run.terminal_round
"""


def test_analytic_modules_load_without_numpy(tmp_path):
    run_python(["-c", textwrap.dedent(SPLIT_CHECK)], tmp_path)


def test_equilibrium_forwards_the_potential_to_dynamics():
    """The check above in this process, where a coverage run sees it:
    equilibrium's module __getattr__ forwards rosenthal_potential and
    nothing else."""
    assert equilibrium.rosenthal_potential is dynamics.rosenthal_potential
    with pytest.raises(AttributeError, match="has no attribute 'Population'"):
        equilibrium.Population


def test_oracle_runs_without_numpy(tmp_path):
    run_python(["-c", textwrap.dedent(ORACLE_CHECK)], tmp_path)


def test_million_vehicles_converge_and_the_oracle_agrees_in_flat_memory(tmp_path):
    run_python(["-c", textwrap.dedent(MILLION_CHECK)], tmp_path)
