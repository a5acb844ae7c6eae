"""Day-to-day best-response dynamics over discrete agents.

The population is arrays shared with the oracle (equilibrium.Population):
DWPT SoCs and a link-1 mask that sweeps update in place, with read-only
per-agent AgentState views.

Each round sweeps the population once in some order; an agent switches
links when doing so improves its utility by more than INDIFFERENCE_EPS,
with flows updated immediately (asynchronous updates).  Every switch
lowers an exact potential by the switcher's gain, so the process cannot
cycle; a full round with zero switches certifies an equilibrium.

The simulator exists to demonstrate two things: convergence to the flows
of the analytic solver, and the instability of mixed states (equal times
with a high DWPT share) that the static analysis rules out.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .equilibrium import (  # AgentState, Population, class_flows re-exported
    AgentState,
    EquilibriumResult,
    Population,
    _SweepKernel,
    class_flows,
    rosenthal_potential,
)
from .model import (
    DiscreteAgents,
    Network,
    Preferences,
    Scenario,
    TollSystem,
    bpr_time,
)

ORDER_POLICIES = ("sequential", "random")
INITIAL_ASSIGNMENTS = ("all_link2", "all_link1", "random", "balanced")


@dataclass(frozen=True)
class RoundSnapshot:
    round_index: int
    x1_d: int
    x1_o: int
    t1: float
    t2: float
    switches: int
    potential: float


@dataclass
class Trajectory:
    """Per-round history of one simulation run."""

    snapshots: list[RoundSnapshot] = field(default_factory=list)
    converged: bool = False
    total_switches: int = 0
    order_policy: str = "sequential"
    seed: int | None = None

    @property
    def terminal_round(self) -> int:
        return self.snapshots[-1].round_index if self.snapshots else 0


def discretize_scenario(scenario: Scenario) -> Scenario:
    """One agent of mass 1 per vehicle, SoC at uniform quantile midpoints.

    Requires integral class totals; a scenario that already carries
    DiscreteAgents is returned unchanged.
    """
    if isinstance(scenario.soc, DiscreteAgents):
        return scenario
    n_dwpt, _ = scenario.agent_counts()
    values = tuple(
        scenario.soc.quantile((i + 0.5) / n_dwpt * scenario.soc.total_mass)
        for i in range(n_dwpt)
    )
    return replace(scenario, soc=DiscreteAgents(soc_values=values))


def agents_from_scenario(
    scenario: Scenario,
    initial: str = "all_link2",
    seed: int | None = None,
) -> Population:
    """Materialize a DiscreteAgents scenario as a simulation population,
    DWPT-EVs sorted by SoC.

    initial: "all_link2", "all_link1", "random" (fair coin per agent,
    seeded), or "balanced" (split each class evenly; the mixed state
    whose instability the dynamics demonstrate).
    """
    if not isinstance(scenario.soc, DiscreteAgents):
        raise ValueError("dynamics needs a DiscreteAgents SoC pool")
    _, n_other = scenario.agent_counts()
    socs = np.sort(scenario.soc.soc_values)
    n = len(socs) + n_other

    if initial == "all_link2":
        on_link1 = np.zeros(n, dtype=bool)
    elif initial == "all_link1":
        on_link1 = np.ones(n, dtype=bool)
    elif initial == "random":
        on_link1 = np.random.default_rng(seed).integers(1, 3, size=n) == 1
    elif initial == "balanced":
        on_link1 = np.concatenate([np.arange(k) % 2 == 0 for k in (len(socs), n_other)])
    else:
        raise ValueError(f"unknown initial assignment {initial!r}")
    return Population(socs, on_link1)


def agents_at_result(scenario: Scenario, result: EquilibriumResult) -> Population:
    """Population snapped to an analytic equilibrium, rounded to agents.

    The lowest-SoC DWPT-EVs take the ERS link, matching the threshold
    structure of the equilibrium.
    """
    population = agents_from_scenario(scenario, initial="all_link2")
    n_dwpt = len(population.soc)
    population.on_link1[: round(result.x1_d)] = True  # DWPT-EVs are SoC-sorted
    population.on_link1[n_dwpt : n_dwpt + round(result.x1_o)] = True
    return population


def step(
    population: Population,
    network: Network,
    prefs: Preferences,
    toll: TollSystem,
    order: list[int] | np.ndarray | None = None,
) -> tuple[int, float]:
    """One asynchronous sweep; returns (switch count, summed gains).

    Agents are visited in the given order (default: by index); each
    improving agent moves immediately, so later agents see updated flows.
    population.on_link1 is updated in place.
    """
    kernel = _SweepKernel(network.link1, network.link2, prefs.vot, len(population))
    return kernel.sweep(population.on_link1, population.bonus(prefs, toll), order)


def run(
    population: Population,
    network: Network,
    prefs: Preferences,
    toll: TollSystem,
    max_rounds: int = 10_000,
    order_policy: str = "sequential",
    seed: int | None = None,
) -> Trajectory:
    """Iterate rounds until one passes with zero switches, or max_rounds.

    population.on_link1 is updated in place; the returned Trajectory holds
    per-round snapshots including the exact potential, which is verified
    to fall by precisely the switchers' summed gains each round.
    Non-convergence within max_rounds is reported via converged=False.
    """
    if max_rounds < 1:
        raise ValueError("max_rounds must be >= 1")
    if order_policy not in ORDER_POLICIES:
        raise ValueError(f"order_policy must be one of {ORDER_POLICIES}")
    rng = np.random.default_rng(seed) if order_policy == "random" else None

    n, n_dwpt = len(population), len(population.soc)
    on1, bonus = population.on_link1, population.bonus(prefs, toll)
    kernel = _SweepKernel(network.link1, network.link2, prefs.vot, n)
    traj = Trajectory(order_policy=order_policy, seed=seed)

    def snapshot(round_index: int, switches: int) -> float:
        x1_d, x1_o, _, _ = class_flows(population)
        x1 = x1_d + x1_o
        phi = rosenthal_potential(
            network.link1, network.link2, prefs.vot, x1, n - x1,
            bonus[:n_dwpt][on1[:n_dwpt]],
        )
        traj.snapshots.append(
            RoundSnapshot(
                round_index=round_index,
                x1_d=x1_d,
                x1_o=x1_o,
                t1=bpr_time(network.link1, x1),
                t2=bpr_time(network.link2, n - x1),
                switches=switches,
                potential=phi,
            )
        )
        return phi

    phi = snapshot(0, 0)
    for round_index in range(1, max_rounds + 1):
        order = rng.permutation(n) if rng is not None else None
        switches, gain_sum = kernel.sweep(on1, bonus, order)
        traj.total_switches += switches
        phi_next = snapshot(round_index, switches)
        drop = phi - phi_next
        if abs(drop - gain_sum) > 1e-6 * (1.0 + abs(phi)):
            raise AssertionError(
                f"potential fell by {drop}, switch gains were {gain_sum}; "
                "utility and potential disagree"
            )
        phi = phi_next
        if switches == 0:
            traj.converged = True
            break
    return traj
