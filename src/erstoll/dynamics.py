"""Day-to-day best-response dynamics over discrete agents.

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

from .equilibrium import EquilibriumResult, _SweepKernel, rosenthal_potential
from .model import (
    DiscreteAgents,
    Network,
    Preferences,
    Scenario,
    TollSystem,
    VehicleClass,
    bpr_time,
)

ORDER_POLICIES = ("sequential", "random")
INITIAL_ASSIGNMENTS = ("all_link2", "all_link1", "random", "balanced")


@dataclass
class AgentState:
    """One vehicle in the simulated population."""

    agent_id: int
    vclass: VehicleClass
    soc: float | None
    current_link: int

    def __post_init__(self):
        if self.vclass is VehicleClass.DWPT:
            if self.soc is None or not (0.0 < self.soc < 1.0):
                raise ValueError(f"DWPT agent needs SoC in (0,1), got {self.soc}")
        elif self.soc is not None:
            raise ValueError("OTHER agents carry no SoC")
        if self.current_link not in (1, 2):
            raise ValueError(f"current_link must be 1 or 2, got {self.current_link}")


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
) -> list[AgentState]:
    """Materialize a DiscreteAgents scenario as a simulation population.

    initial: "all_link2", "all_link1", "random" (fair coin per agent,
    seeded), or "balanced" (split each class evenly; the mixed state
    whose instability the dynamics demonstrate).
    """
    if not isinstance(scenario.soc, DiscreteAgents):
        raise ValueError("dynamics needs a DiscreteAgents SoC pool")
    _, n_other = scenario.agent_counts()
    socs = sorted(scenario.soc.soc_values)
    n = len(socs) + n_other

    if initial == "all_link2":
        links = [2] * n
    elif initial == "all_link1":
        links = [1] * n
    elif initial == "random":
        rng = np.random.default_rng(seed)
        links = [int(v) for v in rng.integers(1, 3, size=n)]
    elif initial == "balanced":
        links = [1 if i % 2 == 0 else 2 for i in range(len(socs))]
        links += [1 if i % 2 == 0 else 2 for i in range(n_other)]
    else:
        raise ValueError(f"unknown initial assignment {initial!r}")

    agents = [
        AgentState(i, VehicleClass.DWPT, s, links[i]) for i, s in enumerate(socs)
    ]
    agents += [
        AgentState(len(socs) + j, VehicleClass.OTHER, None, links[len(socs) + j])
        for j in range(n_other)
    ]
    return agents


def agents_at_result(
    scenario: Scenario, result: EquilibriumResult
) -> list[AgentState]:
    """Population snapped to an analytic equilibrium, rounded to agents.

    The lowest-SoC DWPT-EVs take the ERS link, matching the threshold
    structure of the equilibrium.
    """
    agents = agents_from_scenario(scenario, initial="all_link2")
    n_dwpt = sum(1 for a in agents if a.vclass is VehicleClass.DWPT)
    k_d = round(result.x1_d)
    k_o = round(result.x1_o)
    for a in agents[:k_d]:  # agents are SoC-sorted
        a.current_link = 1
    for a in agents[n_dwpt : n_dwpt + k_o]:
        a.current_link = 1
    return agents


def class_flows(agents: list[AgentState]) -> tuple[int, int, int, int]:
    """(x1_d, x1_o, x2_d, x2_o) of the population."""
    x1_d = x1_o = x2_d = x2_o = 0
    for a in agents:
        if a.vclass is VehicleClass.DWPT:
            if a.current_link == 1:
                x1_d += 1
            else:
                x2_d += 1
        elif a.current_link == 1:
            x1_o += 1
        else:
            x2_o += 1
    return x1_d, x1_o, x2_d, x2_o


def _arrays(agents: list[AgentState], prefs: Preferences, toll: TollSystem):
    """(on link 1, is DWPT, SoC or NaN, link-1 bonus) per agent."""
    on1 = np.array([a.current_link == 1 for a in agents], dtype=bool)
    dwpt = np.array([a.vclass is VehicleClass.DWPT for a in agents], dtype=bool)
    socs = np.array([np.nan if a.soc is None else a.soc for a in agents], dtype=float)
    bonus = np.where(dwpt, prefs.voe * (1.0 / socs - 1.0) - toll.dwpt_link1_charge, 0.0)
    return on1, dwpt, socs, bonus


def _write_back(agents: list[AgentState], on1: np.ndarray) -> None:
    for agent, on in zip(agents, on1.tolist()):
        agent.current_link = 1 if on else 2


def step(
    agents: list[AgentState],
    network: Network,
    prefs: Preferences,
    toll: TollSystem,
    order: list[int] | np.ndarray | None = None,
) -> tuple[int, float]:
    """One asynchronous sweep; returns (switch count, summed gains).

    Agents are visited in the given order (default: by index); each
    improving agent moves immediately, so later agents see updated flows.
    """
    on1, _, _, bonus = _arrays(agents, prefs, toll)
    kernel = _SweepKernel(network.link1, network.link2, prefs.vot, len(agents))
    result = kernel.sweep(on1, bonus, order)
    _write_back(agents, on1)
    return result


def run(
    agents: list[AgentState],
    network: Network,
    prefs: Preferences,
    toll: TollSystem,
    max_rounds: int = 10_000,
    order_policy: str = "sequential",
    seed: int | None = None,
) -> Trajectory:
    """Iterate rounds until one passes with zero switches, or max_rounds.

    The population is mutated in place; the returned Trajectory holds
    per-round snapshots including the exact potential, which is verified
    to fall by precisely the switchers' summed gains each round.
    Non-convergence within max_rounds is reported via converged=False.
    """
    if max_rounds < 1:
        raise ValueError("max_rounds must be >= 1")
    if order_policy not in ORDER_POLICIES:
        raise ValueError(f"order_policy must be one of {ORDER_POLICIES}")
    rng = np.random.default_rng(seed) if order_policy == "random" else None

    n = len(agents)
    on1, dwpt, socs, bonus = _arrays(agents, prefs, toll)
    kernel = _SweepKernel(network.link1, network.link2, prefs.vot, n)
    traj = Trajectory(order_policy=order_policy, seed=seed)

    def snapshot(round_index: int, switches: int) -> float:
        charging = on1 & dwpt
        x1, x1_d = int(np.count_nonzero(on1)), int(np.count_nonzero(charging))
        phi = rosenthal_potential(
            network.link1, network.link2, prefs, toll.dwpt_link1_charge,
            x1, n - x1, socs[charging],
        )
        traj.snapshots.append(
            RoundSnapshot(
                round_index=round_index,
                x1_d=x1_d,
                x1_o=x1 - x1_d,
                t1=bpr_time(network.link1, x1),
                t2=bpr_time(network.link2, n - x1),
                switches=switches,
                potential=phi,
            )
        )
        return phi

    try:
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
    finally:
        _write_back(agents, on1)
    return traj
