"""The atomic game: day-to-day best-response dynamics over discrete
agents.

The population is arrays in a plain class (Population): DWPT SoCs in
the pool's ascending order (DiscreteAgents) and a link-1 mask that
sweeps update in place, with read-only per-agent AgentState views; the
records (AgentState, RoundSnapshot, Trajectory) are named tuples.  The
simulator moves agents with one better-response kernel (_SweepKernel),
which holds the link-1 bonuses: a sweep by index is its sorted passes,
one in a given or random order its block scan.  It reports the exact
Rosenthal potential from the kernel's exact travel-time tables: its time
part is rosenthal_potential, and run subtracts the link-1 bonuses of the
vehicles on link 1.  The brute-force oracle at the potential's minimum
is equilibrium.brute_force_equilibrium, which needs no numpy.

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

import math
from collections import namedtuple

import numpy as np

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
    charging_value,
)


RoundSnapshot = namedtuple("RoundSnapshot", "round_index x1_d x1_o t1 t2 switches potential")


class Trajectory(namedtuple("Trajectory", "snapshots converged")):
    """Per-round history of one simulation run: a tuple of RoundSnapshots
    and whether the last round certified an equilibrium."""

    __slots__ = ()

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
    return Scenario(
        scenario.total_vehicles, scenario.dwpt_ratio, DiscreteAgents(tuple(values.tolist())),
        scenario.prefs, scenario.toll, scenario.network,
    )


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
    values = scenario.soc.soc_values
    socs = np.fromiter(values, float, len(values))
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

    Without an order this is one sequential round of run, by index; an
    order, a permutation of range(N) (else ValueError naming N), is swept
    as a random round is.  Each improving agent moves at once, so later
    agents see updated flows; population.on_link1 is updated in place.
    """
    n, on1 = len(population), population.on_link1
    if order is not None:
        order = np.asarray(order)
        if order.dtype.kind not in "iu" or not np.array_equal(np.sort(order), np.arange(n)):
            raise ValueError(f"order must be a permutation of range(N), N {n}")
    kernel = _SweepKernel(network.link1, network.link2, prefs.vot, population.bonus(prefs, toll))
    with np.errstate(over="ignore", invalid="ignore"):  # a sum that overflows is inf, as in run
        return kernel.sweep(on1, int(np.count_nonzero(on1)), order)


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
    to fall by precisely the switchers' summed gains each round; a
    potential or summed gains that overflows raises an ArithmeticError
    naming the round, N and the link-1 flow.
    Non-convergence within max_rounds is reported via converged=False.

    Every round is one _SweepKernel.sweep, built once with the run's
    bonuses: in sequential order the sorted passes, since the DWPT-EVs
    come in ascending SoC order (Population requires it), so their
    bonuses never rise with the index; in random order the block scan of
    a fresh permutation.  A snapshot recomputes the potential's time
    part only when x1 has changed.
    """
    if max_rounds < 1:
        raise ValueError("max_rounds must be >= 1")
    if order_policy not in ORDER_POLICIES:
        raise ValueError(f"order_policy must be one of {ORDER_POLICIES}")
    rng = np.random.default_rng(seed) if order_policy == "random" else None

    n, n_dwpt = len(population), len(population.soc)
    on1, bonus = population.on_link1, population.bonus(prefs, toll)
    kernel = _SweepKernel(network.link1, network.link2, prefs.vot, bonus)
    times1, times2 = kernel.times1, kernel.times2
    # views of on1, which the sweeps update in place
    on1_d, on1_o, bonus_d = on1[:n_dwpt], on1[n_dwpt:], bonus[:n_dwpt]
    snapshots: list[RoundSnapshot] = []
    x1_seen, time_part = -1, 0.0

    def snapshot(round_index: int, switches: int) -> tuple[float, float]:
        # the potential, and the size of its two terms, which its rounding follows
        nonlocal x1_seen, time_part
        x1_d, x1_o = int(np.count_nonzero(on1_d)), int(np.count_nonzero(on1_o))
        x1 = x1_d + x1_o
        if x1 != x1_seen:  # the time part depends on x1 alone
            x1_seen = x1
            time_part = rosenthal_potential(times1, times2, prefs.vot, x1, n - x1)
            if not math.isfinite(time_part):
                raise OverflowError(
                    f"potential at round {round_index}, N {n}: the time part overflows "
                    f"at link-1 flow {x1} (vot {prefs.vot})"
                )
        bonus_part = float(bonus_d[on1_d].sum())
        if not math.isfinite(bonus_part):
            raise OverflowError(
                f"potential at round {round_index}, N {n}: a sum overflows at link-1 flow {x1}"
            )
        phi = time_part - bonus_part
        snapshots.append(
            RoundSnapshot(
                round_index, x1_d, x1_o, times1.item(x1), times2.item(n - x1), switches, phi
            )
        )
        return phi, time_part + abs(bonus_part)

    # a sum that overflows is inf (or nan), as Python's float arithmetic
    # gives it, and fails the checks below by name
    with np.errstate(over="ignore", invalid="ignore"):
        phi, size = snapshot(0, 0)
        for round_index in range(1, max_rounds + 1):
            order = None if rng is None else rng.permutation(n)
            switches, gain_sum = kernel.sweep(on1, x1_seen, order)
            phi_next, size_next = snapshot(round_index, switches)
            drop = phi - phi_next
            if not (math.isfinite(drop) and math.isfinite(gain_sum)):
                raise OverflowError(
                    f"potential at round {round_index}, N {n}: fell by {drop} at link-1 "
                    f"flow {x1_seen}, switch gains were {gain_sum}; a sum overflows"
                )
            if not abs(drop - gain_sum) <= 1e-6 * (1.0 + size + size_next):
                raise AssertionError(
                    f"potential fell by {drop}, switch gains were {gain_sum}; "
                    "utility and potential disagree"
                )
            phi, size = phi_next, size_next
            if switches == 0:
                break
    # converged when the last round moved nobody (max_rounds >= 1, so one ran)
    return Trajectory(tuple(snapshots), switches == 0)


# ---------------------------------------------------------------------------
# The potential, sweep kernel and population arrays of the simulator


def rosenthal_potential(
    times1: np.ndarray, times2: np.ndarray, vot: float, x1: int, x2: int
) -> float:
    """The time part of the atomic game's exact potential, in money
    units: vot times the summed travel times of the first x1 and x2
    vehicles on each link.  The potential is this less the link-1
    bonuses (Population.bonus) of the vehicles on link 1; run subtracts
    them in its snapshot.

    times1 and times2 are each link's travel times at flows 0, 1, 2, ...
    (_SweepKernel.times1/times2), built once per run and shared by every
    call; each entry equals bpr_time bit for bit.  Times are summed by
    numpy's pairwise add, whose rounding, unlike sum's, is the same on
    every Python.  Unilateral deviations change the potential by exactly
    the deviator's utility loss, so better-response paths strictly
    decrease it; run checks that to a tolerance, since the sums round.
    """
    return vot * (float(times1[1 : x1 + 1].sum()) + float(times2[1 : x2 + 1].sum()))


def _bpr_table(link: LinkParams, name: str, n: int) -> np.ndarray:
    """The link's travel times at flows 0..n.  np.float_power gives
    bpr_time bit for bit, because its float64 loop is the C pow that
    Python's `**` calls (numpy's `**`, np.power, is not).  Under
    np.errstate(over="raise") a time that overflows raises
    FloatingPointError naming the link and its parameters."""
    flows = np.arange(n + 1.0)
    try:
        flows /= link.capacity
        np.float_power(flows, link.bpr_beta, out=flows)
        flows *= link.bpr_alpha
        flows += 1.0
        flows *= link.free_flow_time
    except FloatingPointError as exc:
        raise FloatingPointError(
            f"kernel tables, N {n}: {name} travel time overflows at a flow of at most N "
            f"(capacity {link.capacity}, alpha {link.bpr_alpha}, beta {link.bpr_beta})"
        ) from exc
    return flows


class _SweepKernel:
    """Asynchronous better-response sweeps over a boolean link array.

    Agent i is on link 1 when on1[i]; the kernel holds bonus[i], its
    link-1 bonus (Population.bonus).  Between switches every gain depends
    on (x1, x2) alone, and fl(gap - b) falls and fl(b - gap) rises with
    the bonus b.  Gains are written as the per-agent rule writes them,
    from the travel-time differences gap over every link-1 flow, and
    summed in visiting order, so every decision, the switch order and the
    summed gains are the scalar rule's, in either kind of sweep.

    A sweep in index order is closed form (sweep_sorted): the DWPT-EVs
    ascend in SoC (Population requires it), so their bonuses never rise
    with the index, and the agents from tail on have bonus 0 (_tail).  A
    sweep in a given order, step's or run's random one, is the block
    scan: a block of BLOCK agents is skipped when neither its smallest
    link-1 bonus nor its largest link-2 bonus would move at the current
    flows.  The other blocks are scanned agent by agent, and a switch
    reads only the new end of the gap.

    The kernel builds each link's travel times at flows 0..n once
    (times1, times2; one table serves both twin links), and gap from
    them; their entries equal the scalar rule's bit for bit: numpy's
    `+ - * /` round as Python's do, and the power is np.float_power
    (_bpr_table).  A travel time or gap that overflows a double raises
    FloatingPointError (an ArithmeticError, as bpr_time's OverflowError
    is), naming the table and its inputs, when the kernel is built.  So
    the oracle, which calls bpr_time, sees the same times and gains and
    fails on the same overflows.  Each gap is finite between the ends,
    and the gap never falls with the flow, which the closed forms and the
    oracle's bisections rest on.
    """

    BLOCK = 64

    def __init__(self, link1: LinkParams, link2: LinkParams, vot: float, bonus: np.ndarray):
        n = self.n = len(bonus)
        self.bonus = bonus
        nonzero = np.flatnonzero(bonus)
        self.tail = int(nonzero[-1]) + 1 if len(nonzero) else 0  # the zero-bonus tail's start
        # gap[x1] = vot*(t1(x1) - t2(n + 1 - x1)) for x1 in 1..n: leaving
        # link 1 at link-1 flow x1 gains gap[x1] - bonus, leaving link 2
        # bonus - gap[x1 + 1], which is the scalar vot*(t2(x2) - t1(x1 + 1))
        # + bonus exactly (rounding is sign-symmetric).  Nobody leaves an
        # empty link 1 or joins a full one, so the ends gap[0] = -inf and
        # gap[n + 1] = +inf move nobody and flow n + 1 is never built.
        self.gap = np.empty(n + 2)
        self.gap[0], self.gap[-1] = -np.inf, np.inf
        with np.errstate(over="raise"):
            self.times1 = _bpr_table(link1, "link-1", n)
            self.times2 = self.times1 if link2.same_bpr(link1) else _bpr_table(link2, "link-2", n)
            inner = np.subtract(self.times1[1:], self.times2[:0:-1], out=self.gap[1:-1])
            try:
                inner *= vot
            except FloatingPointError as exc:
                raise FloatingPointError(
                    f"kernel tables, N {n}: vot {vot} times a link time difference overflows"
                ) from exc

    def sweep(self, on1: np.ndarray, x1: int, order=None) -> tuple[int, float]:
        """Visit every agent once from link-1 flow x1, moving each
        improving one at once: by index through the sorted passes
        (sweep_sorted), or in the given order by the block scan.  on1 is
        updated in place.  Returns (switch count, summed gains)."""
        if order is None:
            return self.sweep_sorted(on1, x1)
        link1_of, bonus_of = on1[order], self.bonus[order]
        n, size, gap, eps = self.n, self.BLOCK, self.gap, INDIFFERENCE_EPS
        # a block moves nobody at the current flows unless its smallest link-1
        # bonus (inf if none) or its largest link-2 bonus (-inf if none) moves
        starts = np.arange(0, n, size)
        low1 = np.minimum.reduceat(np.where(link1_of, bonus_of, np.inf), starts).tolist()
        high2 = np.maximum.reduceat(np.where(link1_of, -np.inf, bonus_of), starts).tolist()
        g1, g2 = gap.item(x1), gap.item(x1 + 1)
        switches, gain_sum = 0, 0.0
        for pos, low, high in zip(starts.tolist(), low1, high2):
            if g1 - low <= eps and high - g2 <= eps:
                continue
            end = pos + size
            ons, bs = link1_of[pos:end].tolist(), bonus_of[pos:end].tolist()
            for i, on, b in zip(range(pos, end), ons, bs):
                gain = g1 - b if on else b - g2
                if gain > eps:
                    link1_of[i] = not on
                    # one end is new: leaving link 1 the old g1 is g2, joining the old g2 is g1
                    x1 += -1 if on else 1
                    g1, g2 = (gap.item(x1), g1) if on else (g2, gap.item(x1 + 1))
                    switches += 1
                    gain_sum += gain
        on1[order] = link1_of
        return switches, gain_sum

    def sweep_sorted(self, on1: np.ndarray, x1: int) -> tuple[int, float]:
        """sweep in index order, at link-1 flow x1, where the bonuses of
        the agents before tail never rise with the index and those from
        tail on are 0: a windowed join search and one vectorized leave
        pass over the agents before tail, then _tail.

        At fixed flows a link-2 agent of bonus b joins iff
        fl(b - gap[x1 + 1]) > eps and a link-1 agent leaves iff
        fl(gap[x1] - b) > eps; the gap never falls with the flow.  A leave
        at flow y means gap[y] > b, so no later agent, of a smaller bonus,
        joins at flow y - 1 or below: every join comes before every leave.
        The joiners are the first k link-2 agents, the j-th at flow
        x1 + j, while fl(b - gap[x1 + j + 1]) > eps (it falls with j), and
        nobody before the last of them leaves; they are found in windows
        that double from 2 * BLOCK agents.  After it, at flow x = x1 + k,
        the m-th link-1 agent leaves iff fewer than h(m) agents left
        before it, where h(m) = x + 1 - y*(m) and y*(m) is the least flow
        that it leaves at (_leave_flows).  h never falls, so the leaves
        among the first m candidates are
        min(m, min over j <= m of h(j) + m - j): one running minimum.
        Gains are summed in visiting order by a cumsum.  Returns
        (switch count, summed gains); on1 is updated in place."""
        gap, eps, tail = self.gap, INDIFFERENCE_EPS, self.tail
        head, b = on1[:tail], self.bonus[:tail]
        gains, x, start = [], x1, 0
        first = int(head.argmin()) if tail else 0  # the first link-2 agent
        if tail and not head[first] and b.item(first) - gap.item(x1 + 1) > eps:
            pos, width = first, 2 * self.BLOCK
            while True:
                ids = (~head[pos : pos + width]).nonzero()[0] + pos
                gain = b[ids] - gap[x + 1 : x + 1 + len(ids)]
                k = int(np.count_nonzero(gain > eps))  # a leading run, as the gain falls
                head[ids[:k]] = True
                gains.append(gain[:k])
                x += k
                if k:
                    start = int(ids[k - 1]) + 1
                if k < len(ids) or pos + width >= tail:
                    break
                pos, width = pos + width, 2 * width
        stay = head[start:].nonzero()[0]  # link-1 agents after the last joiner
        if len(stay) and gap.item(x) - b.item(start + stay[-1]) > eps:  # the smallest bonus leaves
            stay += start
            b_stay = b[stay]
            m0 = int((gap.item(x) - b_stay > eps).argmax())  # none before it leaves at any flow
            stay, b_stay = stay[m0:], b_stay[m0:]
            h = x + 1 - self._leave_flows(b_stay)
            m = np.arange(1, len(h) + 1)
            left = m + np.minimum(np.minimum.accumulate(h - m), 0)  # leaves among the first m
            leaving = np.diff(left, prepend=0) > 0
            head[stay[leaving]] = False
            gains.append(gap[x + 1 - left[leaving]] - b_stay[leaving])
            x -= int(left[-1])
        if tail < self.n:
            gains.append(self._tail(on1, x))
        switches = sum(map(len, gains))
        # a cumsum adds the gains in order, as the scalar rule does
        gain_sum = float(np.concatenate(gains).cumsum()[-1]) if switches else 0.0
        return switches, gain_sum

    def _leave_flows(self, b: np.ndarray) -> np.ndarray:
        """The least link-1 flow y at which a link-1 agent of each bonus
        in b leaves, fl(gap[y] - b) > eps, which holds for every flow
        from it on.  A searchsorted of b + eps on the gap, then corrected
        against that predicate across whole runs of equal gap values,
        which share it."""
        gap, eps = self.gap, INDIFFERENCE_EPS
        y = gap.searchsorted(b + eps, side="right")
        while True:
            down = gap[y - 1] - b > eps  # the flow below moves the agent too
            up = ~(gap[y] - b > eps)  # this flow does not
            if not (down.any() or up.any()):
                return y
            y = np.where(down, gap.searchsorted(gap[y - 1]), y)
            y = np.where(up, gap.searchsorted(gap[y], side="right"), y)

    def _tail(self, on1, x1):
        """Sweep the agents from tail on, whose bonuses are all 0, at
        link-1 flow x1.  Each gains exactly the gap (fl(g - 0) = g), and
        the gap never falls with the flow.  So while gap[x1] > eps the
        next link-1 agent leaves, at flows x1, x1 - 1, ..., and while
        gap[x1 + 1] < -eps the next link-2 agent joins, at flows x1 + 1,
        x1 + 2, ...; never both, since a leave at flow y means
        gap[y] > eps.  One searchsorted counts the flows that move
        somebody; the first that many agents of the moving link switch,
        found in windows that double from the first of them.  Returns the
        switchers' gains in visiting order."""
        gap, eps = self.gap, INDIFFERENCE_EPS
        leave = gap.item(x1) > eps
        if leave:
            k = x1 + 1 - int(gap.searchsorted(eps, side="right"))
        elif gap.item(x1 + 1) < -eps:
            k = int(gap.searchsorted(-eps)) - 1 - x1
        else:
            return gap[:0]
        on_tail = on1[self.tail :]
        pos = int(on_tail.argmax() if leave else on_tail.argmin())  # the first to move
        if on_tail.item(pos) != leave:  # nobody of the tail is on the moving link
            return gap[:0]
        taken, width = 0, 2 * k
        while taken < k and pos < len(on_tail):
            window = on_tail[pos : pos + width]
            movers = (window if leave else ~window).nonzero()[0][: k - taken]
            window[movers] = not leave
            taken += len(movers)
            pos, width = pos + width, 2 * width
        return gap[x1 : x1 - taken : -1] if leave else -gap[x1 + 1 : x1 + 1 + taken]


class AgentState(namedtuple("AgentState", "agent_id soc current_link")):
    """Read-only view of one vehicle of a Population; soc is None for an
    OTHER-V."""

    __slots__ = ()


class Population:
    """Discrete vehicles as arrays, DWPT-EVs first, then OTHER-Vs.

    soc holds the DWPT-EVs' states of charge in ascending order, as the
    DiscreteAgents pool they come from holds them, each in (0,1) as that
    pool checks; a SoC below the one before it raises ValueError, since
    run's sequential sweeps rest on the order.  on_link1 marks every
    vehicle on the ERS link, and sweeps update it in place.  Iterating
    yields one AgentState view per vehicle.
    """

    def __init__(self, soc, on_link1):
        self.soc = np.asarray(soc, dtype=float)
        self.on_link1 = np.asarray(on_link1)
        if self.on_link1.dtype != bool:
            raise ValueError(f"on_link1 must be a bool mask, got {self.on_link1.dtype}")
        if len(self.on_link1) < len(self.soc):
            raise ValueError(f"{len(self.on_link1)} links are fewer than {len(self.soc)} SoCs")
        ascending = self.soc[1:] >= self.soc[:-1]
        if not ascending.all():
            i = int(ascending.argmin())
            raise ValueError(
                f"SoCs must ascend: SoC {self.soc[i + 1]} at {i + 1} follows {self.soc[i]}"
            )

    def __repr__(self) -> str:
        return f"Population(soc={self.soc!r}, on_link1={self.on_link1!r})"

    def __len__(self) -> int:
        return len(self.on_link1)

    def __iter__(self):
        socs = self.soc.tolist() + [None] * (len(self) - len(self.soc))
        for i, (s, on) in enumerate(zip(socs, self.on_link1.tolist())):
            yield AgentState(i, s, 1 if on else 2)

    def bonus(self, prefs: Preferences, toll: FreeToll | FixedToll) -> np.ndarray:
        """Link-1 bonus per vehicle: charging_value - price for a DWPT-EV,
        0 for an OTHER-V.  A bonus that overflows raises FloatingPointError,
        as the kernel's tables do, naming N, the lowest SoC, voe and toll."""
        out = np.zeros(len(self))
        try:
            with np.errstate(over="raise"):
                out[: len(self.soc)] = charging_value(prefs, self.soc) - toll.dwpt_link1_charge
        except FloatingPointError as exc:
            raise FloatingPointError(
                f"charging bonus, N {len(self)}: overflows at SoC {self.soc.min()} "
                f"(voe {prefs.voe}, toll {toll.dwpt_link1_charge})"
            ) from exc
        return out


def class_flows(population: Population) -> tuple[int, int, int, int]:
    """(x1_d, x1_o, x2_d, x2_o) of the population."""
    n_dwpt = len(population.soc)
    x1_d = int(np.count_nonzero(population.on_link1[:n_dwpt]))
    x1_o = int(np.count_nonzero(population.on_link1[n_dwpt:]))
    return x1_d, x1_o, n_dwpt - x1_d, len(population) - n_dwpt - x1_o
