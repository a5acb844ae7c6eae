"""Deterministic user equilibrium for the two-link, two-class network.

OTHER-Vs care only about time, so they make a Wardrop best response to
the DWPT mass n on the ERS link: they fill link 1 up to the balanced
flow x_eq when they can, which puts

    x1(n) = min(max(x_eq, n), n + n_other)

on link 1 (_wardrop_response).  DWPT-EVs sort by state of charge around
a threshold: below it the charging gain outweighs the toll plus any time
penalty of the ERS link.  An equilibrium is a root of
excess(n) = n - count_below(threshold(n)), which is non-decreasing in n,
and the response map splits it into three regimes:

* Interior: OTHER-Vs on both links, link-1 flow x_eq, and the root is
  the closed-form count below the threshold at the times there.
* CornerOtherOn2: the ERS link is so attractive to DWPT-EVs that t1 > t2
  and every OTHER-V avoids it; the root lies in [x_eq, rN].
* CornerOtherOn1: mirror image (heavy tolls push DWPT-EVs off the ERS
  link and OTHER-Vs fill it); the root lies in [0, x_eq - n_other].

A brute-force better-response oracle over discrete agents provides an
independent check of the same equilibrium definition.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .model import (
    INDIFFERENCE_EPS,
    DiscreteAgents,
    LinkParams,
    Preferences,
    Scenario,
    bpr_time,
)

# Bisection controls (BPR is monotone, so every map bisected below is
# non-decreasing on its bracket).
MAX_BISECT_ITER = 200
FLOW_TOL_FACTOR = 1e-9  # corner fixed point, fraction of N
BALANCE_TOL_FACTOR = 1e-12  # balanced-flow root, fraction of N


class ConvergenceError(RuntimeError):
    """A numerical routine failed to meet its tolerance."""


class RegimeTag(Enum):
    INTERIOR = "interior"
    CORNER_OTHER_ON_2 = "corner_other_on_2"
    CORNER_OTHER_ON_1 = "corner_other_on_1"


@dataclass(frozen=True)
class EquilibriumResult:
    """Class-level link flows and times at a user equilibrium.

    s_thres is the threshold SoC at the equilibrium travel times; the
    value 1.0 is a sentinel meaning "every DWPT-EV prefers the ERS link".
    """

    x1_d: float
    x2_d: float
    x1_o: float
    x2_o: float
    t1: float
    t2: float
    s_thres: float

    @property
    def x1(self) -> float:
        return self.x1_d + self.x1_o

    @property
    def x2(self) -> float:
        return self.x2_d + self.x2_o

    @property
    def n_thres(self) -> float:
        """Mass of DWPT-EVs charging on the ERS link."""
        return self.x1_d


def threshold_soc(
    prefs: Preferences, toll_price: float, t1: float, t2: float
) -> float:
    """SoC below which a DWPT-EV prefers the ERS link at the given times.

    Solves voe*(1/s - 1) = toll_price + vot*(t1 - t2).  When the right
    side is <= 0 the ERS link dominates for every SoC in (0,1); the
    sentinel 1.0 is returned.
    """
    gap = toll_price + prefs.vot * (t1 - t2)
    if gap <= 0.0:
        return 1.0
    return prefs.voe / (prefs.voe + gap)


def _bisect_root(f, lo: float, hi: float, xtol: float, what: str) -> float:
    """Root of a non-decreasing f on [lo, hi], clamped to the bracket.

    Returns lo if f(lo) >= 0 and hi if f(hi) <= 0; otherwise bisects to
    xtol.  Also spot-checks monotonicity on the bracket, which guards
    against a mis-specified fixed-point map.
    """
    f_lo = f(lo)
    if f_lo >= 0.0:
        return lo
    f_hi = f(hi)
    if f_hi <= 0.0:
        return hi
    mid = 0.5 * (lo + hi)
    f_mid = f(mid)
    slack = 1e-9 * (1.0 + abs(f_lo) + abs(f_hi))
    if not (f_lo <= f_mid + slack and f_mid <= f_hi + slack):
        raise ConvergenceError(f"{what}: map is not monotone on the bracket")
    for _ in range(MAX_BISECT_ITER):
        if hi - lo <= xtol:
            return mid
        if f_mid <= 0.0:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
        if hi - lo > xtol:  # else the next pass returns mid unevaluated
            f_mid = f(mid)
    raise ConvergenceError(
        f"{what}: no convergence to xtol={xtol} after {MAX_BISECT_ITER} "
        f"iterations (bracket [{lo}, {hi}])"
    )


def _balanced_flow(link1: LinkParams, link2: LinkParams, total: float) -> float:
    """Link-1 flow equalizing travel times, clamped to [0, total]."""
    if link1.same_bpr(link2):
        return 0.5 * total
    return _bisect_root(
        lambda x: bpr_time(link1, x) - bpr_time(link2, total - x),
        0.0,
        total,
        BALANCE_TOL_FACTOR * total,
        "balanced flow",
    )


def _wardrop_response(scenario: Scenario):
    """OTHER-Vs' Wardrop best response to the DWPT mass n on the ERS link.

    Returns (x_eq, times, dwpt_mass_at): the balanced flow; times(n), the
    link times (t1, t2) at link-1 flow x1(n) = min(max(x_eq, n),
    n + n_other); and dwpt_mass_at(x1), its inverse, the DWPT mass in
    [0, rN] at which the response puts x1 on link 1.
    """
    link1, link2 = scenario.network.link1, scenario.network.link2
    n_total, n_dwpt, n_other = scenario.total_vehicles, scenario.n_dwpt, scenario.n_other
    x_eq = _balanced_flow(link1, link2, n_total)

    def times(n: float) -> tuple[float, float]:
        # min(max(x_eq, n), n + n_other) without the builtin calls, which
        # cost a tenth of a corner solve on this bisection hot path
        x1 = x_eq if x_eq >= n else n
        if x1 > n + n_other:
            x1 = n + n_other
        return bpr_time(link1, x1), bpr_time(link2, n_total - x1)

    def dwpt_mass_at(x1: float) -> float:
        n = x1 - n_other if x1 < x_eq else x1
        return min(max(n, 0.0), n_dwpt)

    return x_eq, times, dwpt_mass_at


def solve(scenario: Scenario) -> tuple[EquilibriumResult, RegimeTag]:
    """User equilibrium of the scenario: class flows, times, regime.

    The DWPT mass n on link 1 solves excess(n) = 0, with the times of
    OTHER's Wardrop response to n.  At equal times the count n_star below
    the threshold is that root in closed form if OTHER-Vs can fill the
    rest of x_eq (interior).  Otherwise the root lies in [x_eq, rN] when
    n_star > x_eq (every OTHER-V on link 2), else in
    [0, x_eq - n_other] (every OTHER-V on link 1), and is bisected to
    FLOW_TOL_FACTOR*N, or taken at the bracket end where excess already
    has its final sign.
    """
    prefs, soc, price = scenario.prefs, scenario.soc, scenario.toll.dwpt_link1_charge
    n_dwpt, n_other = scenario.n_dwpt, scenario.n_other
    x_eq, times, _ = _wardrop_response(scenario)

    def excess(n: float) -> float:
        t1, t2 = times(n)
        return n - soc.count_below(threshold_soc(prefs, price, t1, t2))

    t1, t2 = times(x_eq)
    n_star = soc.count_below(threshold_soc(prefs, price, t1, t2))
    if n_star <= x_eq and x_eq - n_star <= n_other:
        regime, x1_d = RegimeTag.INTERIOR, n_star  # the response to n_star is x_eq
    else:
        if n_star > x_eq:
            regime, lo, hi = RegimeTag.CORNER_OTHER_ON_2, x_eq, n_dwpt
        else:
            regime, lo, hi = RegimeTag.CORNER_OTHER_ON_1, 0.0, min(x_eq - n_other, n_dwpt)
        xtol = FLOW_TOL_FACTOR * scenario.total_vehicles
        x1_d = _bisect_root(excess, lo, hi, xtol, f"fixed point ({regime.value})")
        t1, t2 = times(x1_d)
    x1_o = min(max(x_eq - x1_d, 0.0), n_other)
    result = EquilibriumResult(
        x1_d=x1_d,
        x2_d=n_dwpt - x1_d,
        x1_o=x1_o,
        x2_o=n_other - x1_o,
        t1=t1,
        t2=t2,
        s_thres=threshold_soc(prefs, price, t1, t2),
    )
    return result, regime


def verify_equilibrium(
    scenario: Scenario,
    result: EquilibriumResult,
    mass_tol: float | None = None,
    time_tol: float = 1e-6,
) -> list[str]:
    """Check the no-improving-switch conditions; return violations.

    mass_tol defaults to 1e-5 * N, comfortably above the bisection
    residual but far below one vehicle at the scales of interest.
    """
    n_total = scenario.total_vehicles
    if mass_tol is None:
        mass_tol = 1e-5 * n_total
    problems: list[str] = []

    for name, value in (
        ("x1_d", result.x1_d),
        ("x2_d", result.x2_d),
        ("x1_o", result.x1_o),
        ("x2_o", result.x2_o),
    ):
        if value < -mass_tol:
            problems.append(f"negative flow {name} = {value}")
    if abs(result.x1_d + result.x2_d - scenario.n_dwpt) > mass_tol:
        problems.append("DWPT flows do not sum to the class total")
    if abs(result.x1_o + result.x2_o - scenario.n_other) > mass_tol:
        problems.append("OTHER flows do not sum to the class total")

    t1 = bpr_time(scenario.network.link1, result.x1)
    t2 = bpr_time(scenario.network.link2, result.x2)
    if abs(t1 - result.t1) > time_tol or abs(t2 - result.t2) > time_tol:
        problems.append("stored travel times do not match BPR at stored flows")

    # OTHER-Vs: Wardrop conditions.
    if result.x1_o > mass_tol and result.x2_o > mass_tol:
        if abs(t1 - t2) * scenario.prefs.vot > 1e-3:
            problems.append(f"OTHER on both links but t1 - t2 = {t1 - t2}")
    elif result.x1_o <= mass_tol:
        if t1 < t2 - time_tol:
            problems.append("no OTHER on link 1 although it is faster")
    elif t2 < t1 - time_tol:
        problems.append("no OTHER on link 2 although it is faster")

    # DWPT-EVs: threshold consistency.
    price = scenario.toll.dwpt_link1_charge
    s_star = threshold_soc(scenario.prefs, price, t1, t2)
    below = scenario.soc.count_below(s_star - 1e-9)
    at_or_above = scenario.soc.total_mass - scenario.soc.count_below(
        s_star + 1e-9
    )
    if result.x1_d < below - mass_tol:
        problems.append(
            f"only {result.x1_d} DWPT on link 1 but {below} are below threshold"
        )
    if result.x2_d < at_or_above - mass_tol:
        problems.append(
            f"only {result.x2_d} DWPT on link 2 but {at_or_above} are above threshold"
        )
    return problems


# ---------------------------------------------------------------------------
# Brute-force oracle over discrete agents


def rosenthal_potential(
    link1: LinkParams,
    link2: LinkParams,
    prefs: Preferences,
    toll_price: float,
    x1: int,
    x2: int,
    link1_dwpt_soc: np.ndarray,
) -> float:
    """Exact potential of the atomic game in money units.

    Unilateral deviations change this by exactly the deviator's utility
    loss, so better-response paths strictly decrease it.
    """
    ks1 = np.arange(1, x1 + 1, dtype=float)
    ks2 = np.arange(1, x2 + 1, dtype=float)
    time_part = prefs.vot * (
        float(np.sum(_bpr_vec(link1, ks1))) + float(np.sum(_bpr_vec(link2, ks2)))
    )
    socs = np.asarray(link1_dwpt_soc, dtype=float)
    offset_part = sum((toll_price - prefs.voe * (1.0 / socs - 1.0)).tolist())
    return time_part + offset_part


def _bpr_vec(link: LinkParams, flows: np.ndarray) -> np.ndarray:
    return link.free_flow_time * (
        1.0 + link.bpr_alpha * (flows / link.capacity) ** link.bpr_beta
    )


class _SweepKernel:
    """Asynchronous better-response sweeps over a boolean link array.

    Agent i is on link 1 when on1[i]; bonus[i] is its link-1 bonus,
    voe*(1/s - 1) - price for a DWPT-EV and 0 for an OTHER-V.  Between
    switches every gain depends on (x1, x2) alone, so a sweep finds the
    next switcher with one vectorized test over a chunk, then takes the
    run of consecutive switchers that follows in one step: a cumsum of
    the +-1 moves gives the flows each agent would see.  Gains are
    written as the per-agent rule writes them, from bpr_time tabulated
    lazily over the link-1 flows visited, so every decision is the
    scalar one.
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


def _oracle_result(
    scenario: Scenario, on_link1: np.ndarray, n_dwpt: int
) -> EquilibriumResult:
    x1_d = int(np.count_nonzero(on_link1[:n_dwpt]))
    x1_o = int(np.count_nonzero(on_link1[n_dwpt:]))
    x2_d = n_dwpt - x1_d
    x2_o = (len(on_link1) - n_dwpt) - x1_o
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
    if n_agents > 10_000:
        raise ValueError(f"{n_agents} agents exceed the oracle limit of 10000")
    if exhaustive and n_agents > 20:
        raise ValueError("exhaustive mode supports at most 20 agents")

    prefs = scenario.prefs
    socs = np.asarray(scenario.soc.soc_values, dtype=float)
    bonus = np.zeros(n_agents)  # link-1 bonus; 0 for OTHER
    bonus[:n_dwpt] = prefs.voe * (1.0 / socs - 1.0) - scenario.toll.dwpt_link1_charge
    order = None if seed is None else np.random.default_rng(seed).permutation(n_agents)

    kernel = _SweepKernel(
        scenario.network.link1, scenario.network.link2, prefs.vot, n_agents
    )
    on_link1 = np.zeros(n_agents, dtype=bool)
    switches, moved = 0, True
    while moved:
        moved = kernel.sweep(on_link1, bonus, order)[0]
        switches += moved
        if switches > max_switches:
            raise ConvergenceError(
                f"oracle exceeded {max_switches} switches; "
                "the finite-improvement property is violated"
            )

    if exhaustive:
        _exhaustive_check(scenario, kernel, on_link1, bonus, n_dwpt)
    return _oracle_result(scenario, on_link1, n_dwpt)


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

    # cumulative per-vehicle times for the potential, indexed by link flow
    counts = np.arange(0, n_agents + 1, dtype=float)
    cum1 = np.concatenate(([0.0], np.cumsum(_bpr_vec(link1, counts[1:]))))
    cum2 = np.concatenate(([0.0], np.cumsum(_bpr_vec(link2, counts[1:]))))
    offsets = -bonus[:n_dwpt]  # per DWPT on link 1

    best_phi = np.inf
    best_profile = None
    chunk = 1 << 16
    for start in range(0, 1 << n_agents, chunk):
        codes = np.arange(start, min(start + chunk, 1 << n_agents))
        bits = (codes[:, None] >> np.arange(n_agents)) & 1
        x1 = bits.sum(axis=1)
        phi = scenario.prefs.vot * (cum1[x1] + cum2[n_agents - x1])
        if n_dwpt:
            phi = phi + bits[:, :n_dwpt].astype(float) @ offsets
        k = int(np.argmin(phi))
        if phi[k] < best_phi:
            best_phi = float(phi[k])
            best_profile = bits[k]
    if not is_nash(best_profile):
        raise ConvergenceError("potential minimizer is not a Nash profile")
