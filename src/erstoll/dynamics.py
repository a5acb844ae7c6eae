"""The atomic game: day-to-day best-response dynamics over discrete
agents, and the brute-force oracle that cross-checks the analytic solver.

The population is arrays shared by the simulator and the oracle
(Population): DWPT SoCs and a link-1 mask that sweeps update in place,
with read-only per-agent AgentState views.  Both move agents with one
better-response kernel (_SweepKernel) and measure progress with the
exact Rosenthal potential (rosenthal_potential).

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

from collections.abc import Iterator
from dataclasses import dataclass, field, replace

import numpy as np

from .equilibrium import ConvergenceError, EquilibriumResult
from .model import (
    INDIFFERENCE_EPS,
    ORDER_POLICIES,
    DiscreteAgents,
    LinkParams,
    Network,
    Preferences,
    Scenario,
    TollSystem,
    VehicleClass,
    bpr_time,
    charging_value,
    threshold_soc,
)


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

    @property
    def terminal_round(self) -> int:
        return self.snapshots[-1].round_index if self.snapshots else 0

    @property
    def total_switches(self) -> int:
        return sum(snap.switches for snap in self.snapshots)


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
    traj = Trajectory()

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


# ---------------------------------------------------------------------------
# The potential, sweep kernel and population arrays that the simulator
# shares with the brute-force oracle over discrete agents


def rosenthal_potential(
    link1: LinkParams,
    link2: LinkParams,
    vot: float,
    x1: int,
    x2: int,
    link1_bonus: np.ndarray,
) -> float:
    """Exact potential of the atomic game in money units: vot times the
    summed travel times of the first x1 and x2 vehicles on each link,
    less the link-1 bonuses (Population.bonus) of the vehicles on link 1.

    Unilateral deviations change this by exactly the deviator's utility
    loss, so better-response paths strictly decrease it.
    """
    ks1 = np.arange(1, x1 + 1, dtype=float)
    ks2 = np.arange(1, x2 + 1, dtype=float)
    time_part = vot * (
        float(np.sum(_bpr_vec(link1, ks1))) + float(np.sum(_bpr_vec(link2, ks2)))
    )
    return time_part - sum(np.asarray(link1_bonus).tolist())


def _bpr_vec(link: LinkParams, flows: np.ndarray) -> np.ndarray:
    return link.free_flow_time * (
        1.0 + link.bpr_alpha * (flows / link.capacity) ** link.bpr_beta
    )


class _SweepKernel:
    """Asynchronous better-response sweeps over a boolean link array.

    Agent i is on link 1 when on1[i]; bonus[i] is its link-1 bonus
    (Population.bonus).  Between switches every gain depends on (x1, x2)
    alone, so a sweep finds the next switcher with one vectorized test
    over a chunk, then takes the run of consecutive switchers that
    follows in one step: a cumsum of the +-1 moves gives the flows each
    agent would see.  Gains are written as the per-agent rule writes
    them, from bpr_time tabulated lazily over the link-1 flows visited,
    so every decision is the scalar one.
    """

    CHUNK = 64

    def __init__(self, link1: LinkParams, link2: LinkParams, vot: float, n: int):
        self.link1, self.link2, self.vot, self.n = link1, link2, vot, n
        # by link-1 flow x1: vot*(t1(x1) - t2(x2 + 1)) for leaving link 1,
        # vot*(t2(x2) - t1(x1 + 1)) for leaving link 2
        self.leave = (np.empty(n + 1), np.empty(n + 1))
        self.lo = self.hi = 0  # tabulated link-1 flows [lo, hi)

    def _tabulate(self, lo: int, hi: int) -> None:
        """Extend the tabulated link-1 flows to cover [lo, hi]."""
        if self.lo == self.hi:
            self.lo = self.hi = lo
        for a, b in ((lo, self.lo), (self.hi, hi + 1)):
            if a < b:
                t1 = np.array([bpr_time(self.link1, x) for x in range(a, b + 1)])
                t2 = np.array([bpr_time(self.link2, self.n - x) for x in range(a - 1, b)])
                self.leave[0][a:b] = self.vot * (t1[:-1] - t2[:-1])
                self.leave[1][a:b] = self.vot * (t2[1:] - t1[1:])
        self.lo, self.hi = min(lo, self.lo), max(hi + 1, self.hi)

    def _gain(self, on1, bonus, x1):
        """Switch gains at link-1 flow x1 (one int, or one per agent)."""
        lo, hi = (x1, x1) if isinstance(x1, int) else (int(x1.min()), int(x1.max()))
        if lo < self.lo or hi >= self.hi:
            self._tabulate(lo, hi)
        return np.where(on1, self.leave[0][x1] - bonus, self.leave[1][x1] + bonus)

    def sweep(self, on1: np.ndarray, bonus: np.ndarray, order=None) -> tuple[int, float]:
        """Visit every agent once in order (default: by index), moving
        each improving one at once; on1 is updated in place.  Returns
        (switch count, summed gains)."""
        link1_of, bonus_of = (on1, bonus) if order is None else (on1[order], bonus[order])
        n, x1 = self.n, int(np.count_nonzero(on1))
        pos, width, run, last, switches, gain_sum = 0, self.CHUNK, False, -1, 0, 0.0
        while pos < n:
            end = min(pos + width, n)
            on = link1_of[pos:end]
            flows = x1
            if run:  # each agent sees the flows left by all before it switching
                move = np.where(on, -1, 1)
                flows = x1 + np.cumsum(move) - move
            gain = self._gain(on, bonus_of[pos:end], flows)
            moved = gain > INDIFFERENCE_EPS
            if run:  # the leading switchers
                a, b = 0, int(moved.argmin()) if not moved.all() else end - pos
            else:  # the first switcher at fixed flows, alone
                a = b = int(moved.argmax())
                if not moved[a]:
                    pos, width = end, 2 * width
                    continue
                if pos + a == last:  # a second switcher in a row: take the run
                    pos, width, run = last, self.CHUNK, True
                    continue
                b += 1
            x1 += b - a - 2 * int(np.count_nonzero(on[a:b]))
            link1_of[pos + a : pos + b] = ~on[a:b]
            for g in gain[a:b].tolist():
                gain_sum += g
            switches += b - a
            last = pos = pos + b
            if run and pos == end:
                width *= 2
            else:
                run, width = False, max(self.CHUNK, 2 * a)
        if order is not None:
            on1[order] = link1_of
        return switches, gain_sum


@dataclass(frozen=True)
class AgentState:
    """Read-only view of one vehicle of a Population."""

    agent_id: int
    vclass: VehicleClass
    soc: float | None
    current_link: int


@dataclass(eq=False)
class Population:
    """Discrete vehicles as arrays, DWPT-EVs first, then OTHER-Vs.

    soc holds the DWPT-EVs' states of charge; on_link1 marks every vehicle
    on the ERS link, and sweeps update it in place.  Iterating yields one
    AgentState view per vehicle.
    """

    soc: np.ndarray
    on_link1: np.ndarray

    def __post_init__(self):
        self.soc = np.asarray(self.soc, dtype=float)
        self.on_link1 = np.asarray(self.on_link1)
        bad = self.soc[~((self.soc > 0.0) & (self.soc < 1.0))]  # NaN included
        if bad.size:
            raise ValueError(f"every DWPT SoC must be in (0,1), got {bad[0]}")
        if self.on_link1.dtype != bool:
            raise ValueError(f"on_link1 must be a bool mask, got {self.on_link1.dtype}")
        if len(self.on_link1) < len(self.soc):
            raise ValueError(f"{len(self.on_link1)} links are fewer than {len(self.soc)} SoCs")

    def __len__(self) -> int:
        return len(self.on_link1)

    def __iter__(self) -> Iterator[AgentState]:
        socs = self.soc.tolist() + [None] * (len(self) - len(self.soc))
        for i, (s, on) in enumerate(zip(socs, self.on_link1.tolist())):
            vclass = VehicleClass.OTHER if s is None else VehicleClass.DWPT
            yield AgentState(i, vclass, s, 1 if on else 2)

    def bonus(self, prefs: Preferences, toll: TollSystem) -> np.ndarray:
        """Link-1 bonus per vehicle: charging_value - price for a DWPT-EV,
        0 for an OTHER-V."""
        out = np.zeros(len(self))
        out[: len(self.soc)] = charging_value(prefs, self.soc) - toll.dwpt_link1_charge
        return out


def class_flows(population: Population) -> tuple[int, int, int, int]:
    """(x1_d, x1_o, x2_d, x2_o) of the population."""
    n_dwpt = len(population.soc)
    x1_d = int(np.count_nonzero(population.on_link1[:n_dwpt]))
    x1_o = int(np.count_nonzero(population.on_link1[n_dwpt:]))
    return x1_d, x1_o, n_dwpt - x1_d, len(population) - n_dwpt - x1_o


def _oracle_result(scenario: Scenario, population: Population) -> EquilibriumResult:
    x1_d, x1_o, x2_d, x2_o = class_flows(population)
    t1 = bpr_time(scenario.network.link1, x1_d + x1_o)
    t2 = bpr_time(scenario.network.link2, x2_d + x2_o)
    return EquilibriumResult(
        x1_d=float(x1_d),
        x2_d=float(x2_d),
        x1_o=float(x1_o),
        x2_o=float(x2_o),
        t1=t1,
        t2=t2,
        s_thres=threshold_soc(
            scenario.prefs, scenario.toll.dwpt_link1_charge, t1, t2
        ),
    )


def brute_force_equilibrium(
    scenario: Scenario,
    exhaustive: bool = False,
    max_switches: int = 10_000_000,
    seed: int | None = None,
) -> EquilibriumResult:
    """Atomic better-response oracle; requires a DiscreteAgents SoC pool.

    Agents start on link 2 and are scanned round-robin; any agent whose
    switch strictly improves its utility (by more than INDIFFERENCE_EPS)
    moves at once.  Termination is guaranteed by the exact potential.
    With exhaustive=True (at most 20 agents) every profile is enumerated
    to confirm the endpoint is a true equilibrium and that the potential
    minimum is one as well.
    """
    if not isinstance(scenario.soc, DiscreteAgents):
        raise ValueError("brute_force_equilibrium needs DiscreteAgents SoC")
    n_dwpt, n_other = scenario.agent_counts()
    n_agents = n_dwpt + n_other
    if exhaustive and n_agents > 20:
        raise ValueError("exhaustive mode supports at most 20 agents")

    # every vehicle starts on link 2, the pool in its own order
    population = Population(scenario.soc.soc_values, np.zeros(n_agents, dtype=bool))
    bonus = population.bonus(scenario.prefs, scenario.toll)
    order = None if seed is None else np.random.default_rng(seed).permutation(n_agents)

    kernel = _SweepKernel(
        scenario.network.link1, scenario.network.link2, scenario.prefs.vot, n_agents
    )
    switches, moved = 0, True
    while moved:
        moved = kernel.sweep(population.on_link1, bonus, order)[0]
        switches += moved
        if switches > max_switches:
            raise ConvergenceError(
                f"oracle exceeded {max_switches} switches; "
                "the finite-improvement property is violated"
            )

    if exhaustive:
        _exhaustive_check(scenario, kernel, population.on_link1, bonus, n_dwpt)
    return _oracle_result(scenario, population)


def _exhaustive_check(scenario, kernel, on_link1, bonus, n_dwpt):
    """Enumerate all 2^n profiles (vectorized in chunks): the endpoint
    must be Nash (a sweep from it moves nobody), and so must the potential
    minimizer; misalignment of the two would flag a utility/potential bug."""
    link1 = scenario.network.link1
    link2 = scenario.network.link2
    n_agents = len(bonus)

    def is_nash(profile) -> bool:
        return kernel.sweep(np.array(profile, dtype=bool), bonus)[0] == 0

    if not is_nash(on_link1):
        raise ConvergenceError("oracle endpoint is not a Nash profile")

    # the potential of each link-1 flow with no bonus, less each profile's
    # bonuses of the DWPT-EVs it puts on link 1
    flow_phi = np.array([
        rosenthal_potential(link1, link2, scenario.prefs.vot, x1, n_agents - x1, ())
        for x1 in range(n_agents + 1)
    ])

    best_phi = np.inf
    best_profile = None
    chunk = 1 << 16
    for start in range(0, 1 << n_agents, chunk):
        codes = np.arange(start, min(start + chunk, 1 << n_agents))
        bits = (codes[:, None] >> np.arange(n_agents)) & 1
        phi = flow_phi[bits.sum(axis=1)]
        if n_dwpt:
            phi = phi - bits[:, :n_dwpt].astype(float) @ bonus[:n_dwpt]
        k = int(np.argmin(phi))
        if phi[k] < best_phi:
            best_phi = float(phi[k])
            best_profile = bits[k]
    if not is_nash(best_profile):
        raise ConvergenceError("potential minimizer is not a Nash profile")
