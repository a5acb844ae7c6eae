"""The atomic game: day-to-day best-response dynamics over discrete
agents, and the brute-force oracle that cross-checks the analytic solver.

The population is arrays (Population): DWPT SoCs in the pool's
ascending order (DiscreteAgents) and a link-1 mask that sweeps update
in place, with read-only per-agent AgentState views.  The simulator
moves agents with one better-response kernel (_SweepKernel); the oracle
places them at the minimum of the exact Rosenthal potential
(rosenthal_potential), reading the pool's order as the order of the
DWPT-EVs' link-1 bonuses.  Both read the kernel's exact travel-time
tables.

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

from .equilibrium import EquilibriumResult
from .model import (
    INDIFFERENCE_EPS,
    ORDER_POLICIES,
    DiscreteAgents,
    FixedToll,
    FreeToll,
    LinkParams,
    Network,
    Preferences,
    Scenario,
    VehicleClass,
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
    pool = scenario.soc
    if isinstance(pool, DiscreteAgents):
        return scenario
    n_dwpt, _ = scenario.agent_counts()
    # pool.quantile((i + 0.5) / n_dwpt * pool.mass) for every i, in arrays
    # with the same operations in the same order, so the same floats
    mass = (np.arange(n_dwpt) + 0.5) / n_dwpt * pool.mass
    frac = np.minimum(np.maximum(mass / pool.mass, 0.0), 1.0)
    values = pool.s_lo + frac * (pool.s_hi - pool.s_lo)
    return replace(scenario, soc=DiscreteAgents(soc_values=tuple(values.tolist())))


def agents_from_scenario(
    scenario: Scenario,
    initial: str = "all_link2",
    seed: int | None = None,
) -> Population:
    """Materialize a DiscreteAgents scenario as a simulation population,
    DWPT-EVs in the pool's ascending SoC order.

    initial: "all_link2", "all_link1", "random" (fair coin per agent,
    seeded), or "balanced" (split each class evenly; the mixed state
    whose instability the dynamics demonstrate).
    """
    if not isinstance(scenario.soc, DiscreteAgents):
        raise ValueError("dynamics needs a DiscreteAgents SoC pool")
    _, n_other = scenario.agent_counts()
    socs = np.array(scenario.soc.soc_values)
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
    toll: FreeToll | FixedToll,
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
    toll: FreeToll | FixedToll,
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
    times1, times2 = kernel.times1, kernel.times2
    traj = Trajectory()

    def snapshot(round_index: int, switches: int) -> float:
        x1_d, x1_o, _, _ = class_flows(population)
        x1 = x1_d + x1_o
        phi = rosenthal_potential(
            times1, times2, prefs.vot, x1, n - x1, bonus[:n_dwpt][on1[:n_dwpt]]
        )
        traj.snapshots.append(
            RoundSnapshot(
                round_index=round_index,
                x1_d=x1_d,
                x1_o=x1_o,
                t1=times1.item(x1),
                t2=times2.item(n - x1),
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
    times1: np.ndarray,
    times2: np.ndarray,
    vot: float,
    x1: int,
    x2: int,
    link1_bonus: np.ndarray,
) -> float:
    """Exact potential of the atomic game in money units: vot times the
    summed travel times of the first x1 and x2 vehicles on each link,
    less the link-1 bonuses (Population.bonus) of the vehicles on link 1.

    times1 and times2 are each link's travel times at flows 0, 1, 2, ...
    (_SweepKernel.times1/times2), built once per run and shared by every
    call; each entry equals bpr_time bit for bit.  Unilateral deviations
    change this by exactly the deviator's utility loss, so
    better-response paths strictly decrease it; run checks that to a
    tolerance, since the sums round.
    """
    time_part = vot * (float(np.sum(times1[1 : x1 + 1])) + float(np.sum(times2[1 : x2 + 1])))
    return time_part - sum(np.asarray(link1_bonus).tolist())


def _bpr_over(link: LinkParams, flows: np.ndarray) -> np.ndarray:
    """The link's travel times at the float flows, written over them.
    np.float_power gives bpr_time bit for bit, because its float64 loop
    is the C pow that Python's `**` calls (numpy's `**`, np.power, is
    not)."""
    flows /= link.capacity
    np.float_power(flows, link.bpr_beta, out=flows)
    flows *= link.bpr_alpha
    flows += 1.0
    flows *= link.free_flow_time
    return flows


class _SweepKernel:
    """Asynchronous better-response sweeps over a boolean link array.

    Agent i is on link 1 when on1[i]; bonus[i] is its link-1 bonus
    (Population.bonus).  Between switches every gain depends on (x1, x2)
    alone, and fl(gap - b) falls and fl(b - gap) rises with the bonus b.
    So a sweep skips a block of BLOCK agents when neither its smallest
    link-1 bonus nor its largest link-2 bonus would move at the current
    flows.  A block whose first agent moves starts a run of consecutive
    switchers, taken in one vectorized step per doubling window: a
    cumsum of the +-1 moves gives the flows each agent would see.  Any
    other block is scanned agent by agent.  Gains are written as the
    per-agent rule writes them, from the travel-time differences gap
    over every link-1 flow, so every decision, the switch order and the
    summed gains are the scalar rule's.  The kernel builds each link's
    travel times at flows 0..n+1 once (times1, times2), and gap from
    them; their entries equal the scalar rule's bit for bit: numpy's
    `+ - * /` round as Python's do, and the power is np.float_power
    (_bpr_over).  A travel time that overflows a double raises
    FloatingPointError (an ArithmeticError, as bpr_time's OverflowError
    is) when the kernel is built.
    """

    BLOCK = 64

    def __init__(self, link1: LinkParams, link2: LinkParams, vot: float, n: int):
        self.n = n
        # gap[x1] = vot*(t1(x1) - t2(n + 1 - x1)) for x1 in 0..n+1: leaving
        # link 1 at link-1 flow x1 gains gap[x1] - bonus, leaving link 2
        # bonus - gap[x1 + 1], which is the scalar vot*(t2(x2) - t1(x1 + 1))
        # + bonus exactly (rounding is sign-symmetric)
        with np.errstate(over="raise"):
            self.times1 = _bpr_over(link1, np.arange(n + 2.0))
            self.times2 = _bpr_over(link2, np.arange(n + 2.0))
            self.gap = self.times1 - self.times2[::-1]
            self.gap *= vot

    def sweep(self, on1: np.ndarray, bonus: np.ndarray, order=None) -> tuple[int, float]:
        """Visit every agent once in order (default: by index), moving
        each improving one at once; on1 is updated in place.  Returns
        (switch count, summed gains)."""
        link1_of, bonus_of = (on1, bonus) if order is None else (on1[order], bonus[order])
        n, size, gap, eps = self.n, self.BLOCK, self.gap, INDIFFERENCE_EPS
        # a block moves nobody at the current flows unless its smallest
        # link-1 bonus or its largest link-2 bonus moves
        starts = np.arange(0, n, size)
        blocks = len(starts)
        low1 = np.minimum.reduceat(np.where(link1_of, bonus_of, np.inf), starts).tolist()
        high2 = np.maximum.reduceat(np.where(link1_of, -np.inf, bonus_of), starts).tolist()
        x1 = int(np.count_nonzero(on1))
        g1, g2 = gap.item(x1), gap.item(x1 + 1)
        pos, switches, gain_sum = 0, 0, 0.0
        while pos < n:
            block = pos // size
            if pos == block * size:
                while block < blocks and g1 - low1[block] <= eps and high2[block] - g2 <= eps:
                    block += 1
                pos = block * size
                if pos >= n:
                    break
            end = min(block * size + size, n)
            ons, bs = link1_of[pos:end].tolist(), bonus_of[pos:end].tolist()
            if (g1 - bs[0] if ons[0] else bs[0] - g2) > eps:
                taken, x1, gain_sum = self._run(link1_of, bonus_of, pos, x1, gain_sum)
                pos += taken
                switches += taken
                g1, g2 = gap.item(x1), gap.item(x1 + 1)
                continue
            for i, (on, b) in enumerate(zip(ons, bs), pos):
                gain = g1 - b if on else b - g2
                if gain > eps:
                    link1_of[i] = not on
                    x1 += -1 if on else 1
                    g1, g2 = gap.item(x1), gap.item(x1 + 1)
                    switches += 1
                    gain_sum += gain
            pos = end
        if order is not None:
            on1[order] = link1_of
        return switches, gain_sum

    def _run(self, link1_of, bonus_of, pos, x1, gain_sum):
        """Move the run of consecutive switchers that starts at pos, in
        windows that double from BLOCK; each agent sees the flows left by
        all before it switching.  Returns (run length, x1, gain_sum)."""
        start, width, gap = pos, self.BLOCK, self.gap
        while True:
            stop = min(pos + width, self.n)
            on, b = link1_of[pos:stop], bonus_of[pos:stop]
            move = np.where(on, -1, 1)
            flows = x1 + np.cumsum(move) - move
            gain = np.where(on, gap[flows] - b, b - gap[flows + 1])
            moved = gain > INDIFFERENCE_EPS
            taken = stop - pos if moved.all() else int(moved.argmin())
            x1 += taken - 2 * int(np.count_nonzero(on[:taken]))
            link1_of[pos : pos + taken] = ~on[:taken]
            if taken:  # cumsum adds the gains in order, as the scalar rule does
                gain[0] += gain_sum
                gain_sum = float(np.cumsum(gain[:taken])[-1])
            pos += taken
            if pos < stop or stop == self.n:
                return pos - start, x1, gain_sum
            width *= 2


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

    def bonus(self, prefs: Preferences, toll: FreeToll | FixedToll) -> np.ndarray:
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


def brute_force_equilibrium(scenario: Scenario) -> EquilibriumResult:
    """Atomic oracle: the Nash profile at the exact potential's minimum;
    requires a DiscreteAgents SoC pool.

    The atomic game is a potential game (Rosenthal 1973; Monderer and
    Shapley 1996).  With the link-1 bonuses ranked, largest first, the
    potential of the top x1 on link 1 is convex in x1.  The pool's SoCs
    ascend, so the DWPT-EVs' bonuses already fall; the OTHER-Vs' bonus 0
    ranks after every DWPT-EV at a bonus >= 0 and before the rest.  The
    first x1 ranks go on link 1, where x1 is the first rank whose vehicle
    would not gain more than INDIFFERENCE_EPS by joining them.  That is
    the scalar switch rule's own arithmetic, so the profile is Nash, and
    its flow is the smallest at which the potential is least.
    """
    if not isinstance(scenario.soc, DiscreteAgents):
        raise ValueError("brute_force_equilibrium needs DiscreteAgents SoC")
    n_dwpt, n_other = scenario.agent_counts()
    n_agents = n_dwpt + n_other

    bonus = Population(scenario.soc.soc_values, np.zeros(n_agents, dtype=bool)).bonus(
        scenario.prefs, scenario.toll
    )
    kernel = _SweepKernel(
        scenario.network.link1, scenario.network.link2, scenario.prefs.vot, n_agents
    )
    k = int(np.count_nonzero(bonus[:n_dwpt] >= 0.0))
    # rank j, on link 2 at link-1 flow j, gains bonus - gap[j + 1] by joining
    gains = np.concatenate([bonus[:k], bonus[n_dwpt:], bonus[k:n_dwpt]])
    gains -= kernel.gap[1 : n_agents + 1]
    joins = gains > INDIFFERENCE_EPS
    x1 = n_agents if joins.all() else int(joins.argmin())
    x1_o = min(max(x1 - k, 0), n_other)
    x1_d = x1 - x1_o

    t1, t2 = kernel.times1.item(x1), kernel.times2.item(n_agents - x1)
    return EquilibriumResult(
        x1_d=float(x1_d),
        x2_d=float(n_dwpt - x1_d),
        x1_o=float(x1_o),
        x2_o=float(n_other - x1_o),
        t1=t1,
        t2=t2,
        s_thres=threshold_soc(
            scenario.prefs, scenario.toll.dwpt_link1_charge, t1, t2
        ),
    )
