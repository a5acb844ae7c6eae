"""Day-to-day route adjustment reaching the solved equilibrium.

The solver computes the equilibrium in one shot; here we check that a
population of individually selfish agents actually finds it. Each round
every agent looks at the two links (with its own contribution moved)
and switches when the gain clears a small indifference margin. Each
switch lowers a global potential, so the process cannot cycle.
"""

from dataclasses import replace

from erstoll.dynamics import (
    agents_from_scenario,
    class_flows,
    discretize_scenario,
    run,
)
from erstoll.equilibrium import solve
from erstoll.harness import apply_overrides, table1_scenario
from erstoll.model import FreeToll


def show(traj, agents, result):
    print(f"{'round':>6} {'x1_d':>7} {'x1_o':>7} {'t1':>8} {'t2':>8} {'switches':>9} {'potential':>13}")
    for snap in traj.snapshots:
        print(
            f"{snap.round_index:>6} {snap.x1_d:>7.0f} {snap.x1_o:>7.0f}"
            f" {snap.t1:>8.4f} {snap.t2:>8.4f} {snap.switches:>9} {snap.potential:>13.2f}"
        )
    x1_d, x1_o, _, _ = class_flows(agents)
    print(f"converged={traj.converged} after {traj.total_switches} switches; "
          f"endpoint ({x1_d}, {x1_o}) vs solver ({result.x1_d:.2f}, {result.x1_o:.2f})")
    print()


# the continuous base scenario becomes 1000 literal agents: 200 DWPT
# vehicles at evenly spread SoC values plus 800 without equipment
scenario = discretize_scenario(table1_scenario())
result, _ = solve(scenario)

print("cold start: everyone on the plain link")
agents = agents_from_scenario(scenario, initial="all_link2")
show(run(agents, scenario.network, scenario.prefs, scenario.toll), agents, result)

print("random start, random update order (seed 7)")
agents = agents_from_scenario(scenario, initial="random", seed=7)
traj = run(agents, scenario.network, scenario.prefs, scenario.toll,
           order_policy="random", seed=7)
show(traj, agents, result)

# with DWPT vehicles in the majority and no toll, the split state (all
# OTHER on the electrified link, all DWPT off it) collapses immediately:
# low-SoC vehicles cross over for the charge, pushing OTHER out
high = discretize_scenario(
    replace(apply_overrides(table1_scenario(), {"dwpt_ratio": 0.8}), toll=FreeToll())
)
result, _ = solve(high)

print("80% DWPT share, toll-free, started from the split state")
agents = agents_from_scenario(high, initial="all_link2")
agents.on_link1[len(agents.soc):] = True  # every OTHER-V on the ERS link
show(run(agents, high.network, high.prefs, high.toll), agents, result)
