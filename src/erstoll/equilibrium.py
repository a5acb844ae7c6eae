"""Deterministic user equilibrium for the two-link, two-class network.

OTHER-Vs care only about time, so they make a Wardrop best response to
the DWPT mass n on the ERS link: they fill link 1 up to the balanced
flow x_eq when they can, which puts

    x1(n) = min(max(x_eq, n), n + n_other)

on link 1 (_wardrop_response).  DWPT-EVs sort by state of charge around
a threshold: below it the charging gain outweighs the toll plus any time
penalty of the ERS link.  With n DWPT-EVs on link 1 the marginal one,
SoC quantile(n), is indifferent at the toll

    price(n) = charging_value(quantile(n)) - vot*(t1(n) - t2(n)),

with model.charging_value = voe*(1/s - 1).  It is non-increasing in n.
An equilibrium is where price crosses the toll; solve inverts this map
and analysis.toll_bands evaluates it.  The response map splits the
crossing into three regimes:

* Interior: OTHER-Vs on both links, link-1 flow x_eq, and the DWPT mass
  is the closed-form count below the threshold at the times there.
* CornerOtherOn2: the ERS link is so attractive to DWPT-EVs that t1 > t2
  and every OTHER-V avoids it; the crossing lies in [x_eq, rN].
* CornerOtherOn1: mirror image (heavy tolls push DWPT-EVs off the ERS
  link and OTHER-Vs fill it); the crossing lies in [0, x_eq - n_other].

Every root (a corner crossing, x_eq, the system optimum of analysis) is
one _root: Newton steps on the closed-form BPR slope
dt/dx = beta*(t - t0)/x that bisect where a step would leave the sign
bracket or not halve the one before last.  The time gap t1(x) - t2(N - x)
and that slope are one map, _time_gap: x_eq is its root, and the regime
test, the corners and the toll bands price it at x_eq.  _balanced builds
the map, x_eq and that price together and keeps them for every later
scenario on the same Network object and N, so each cell of a sweep
shares one of each.  A discrete pool's price steps at each SoC group, so
_group_root first binary-searches the groups for the marginal one and
then roots within it, splitting a tied group at its own SoC.

brute_force_equilibrium, an independent check of the same equilibrium
definition, bisects the ranked vehicles of the atomic game for the
minimum of its exact potential; dynamics simulates that game.
"""

from __future__ import annotations

import bisect
import math
from collections import namedtuple
from enum import Enum

from .model import (
    INDIFFERENCE_EPS, DiscreteAgents, LinkParams, Network, Scenario, bpr_time,
    charging_value, threshold_soc,
)

# Root-finder controls (BPR is monotone, so every map rooted below is
# non-decreasing on its bracket).
MAX_ITER = 200
ROOT_TOL_FACTOR = 1e-12  # every root, fraction of N

# verify_equilibrium tolerances (its docstring); masses above the root residual
VERIFY_MASS_TOL_FACTOR = 1e-5
VERIFY_TIME_TOL = 1e-6
VERIFY_REL_TOL = 1e-12


class ConvergenceError(RuntimeError):
    """A numerical routine failed to meet its tolerance."""


class RegimeTag(Enum):
    INTERIOR = "interior"
    CORNER_OTHER_ON_2 = "corner_other_on_2"
    CORNER_OTHER_ON_1 = "corner_other_on_1"


class EquilibriumResult(namedtuple("EquilibriumResult", "x1_d x2_d x1_o x2_o t1 t2 s_thres")):
    """Class-level link flows and times at a user equilibrium.

    solve stores t1 and t2 as bpr_time at x1 and x2, the sums of the
    stored class flows, and s_thres as the threshold SoC at those times;
    the value 1.0 is a sentinel meaning "every DWPT-EV prefers the ERS
    link".
    """

    __slots__ = ()

    @property
    def x1(self) -> float:
        return self.x1_d + self.x1_o

    @property
    def x2(self) -> float:
        return self.x2_d + self.x2_o


def _root(g, lo: float, hi: float, n_total: float, what: str) -> float:
    """Root of a non-decreasing map on [lo, hi], clamped to the bracket.

    g(x) returns the map's value and slope at x.  Returns lo if g(lo) >= 0
    and hi if g(hi) <= 0.  Otherwise it iterates from the secant point of
    the ends by rtsafe (Numerical Recipes): a Newton step if it lands
    strictly inside the sign bracket and is at most half the step before
    last, else the bracket's midpoint, so a steep map (a high BPR power)
    is bisected where its Newton steps crawl.  The root is the iterate
    after a step of at most xtol = ROOT_TOL_FACTOR*n_total (half the
    bracket for a midpoint), a point whose Newton step rounds to it, or,
    once the bracket is two adjacent doubles, the end where the map is
    nearer zero.  Each point is evaluated once.  A value outside the end
    values raises ConvergenceError, which guards against a mis-specified
    map, or OverflowError if nan (inf - inf from times that overflow
    without raising); each error, as MAX_ITER steps without a root do,
    names the map (what) and N: "balanced flow, N 1000.0: ...".
    """
    g_lo = g(lo)[0]
    if g_lo >= 0.0:
        return lo
    g_hi = g(hi)[0]
    if g_hi <= 0.0:
        return hi
    xtol = ROOT_TOL_FACTOR * n_total
    slack = 1e-9 * (1.0 + abs(g_lo) + abs(g_hi))
    floor, ceiling = g_lo - slack, g_hi + slack
    a, b, g_a, g_b = lo, hi, g_lo, g_hi
    x = lo - g_lo * (hi - lo) / (g_hi - g_lo)  # the secant point of the ends
    if not lo < x < hi:  # rounded onto an end
        x = 0.5 * (lo + hi)
    last = before = hi - lo  # the sizes of the last step and the one before
    for _ in range(MAX_ITER):
        value, slope = g(x)
        if not floor <= value <= ceiling:
            if math.isnan(value):
                raise OverflowError(f"{what}, N {n_total}: the map is nan at {x}")
            raise ConvergenceError(
                f"{what}, N {n_total}: map is not monotone on the bracket [{lo}, {hi}] "
                f"({value} at {x})"
            )
        if value < 0.0:
            a, g_a = x, value
        else:
            b, g_b = x, value
        newton = x - value / slope if 0.0 < slope < math.inf else math.inf
        step = newton - x if newton > x else x - newton
        # a Newton step below x's rounding (newton == x) ends the search at x
        if (a < newton < b or newton == x) and step + step <= before:
            x = newton
        else:
            x = 0.5 * (a + b)
            if not a < x < b:  # a and b are adjacent doubles
                return b if g_b <= -g_a else a
            step = 0.5 * (b - a)
        if step <= xtol:
            return x
        before, last = last, step
    raise ConvergenceError(
        f"{what}, N {n_total}: no convergence to xtol={xtol} after {MAX_ITER} iterations "
        f"(bracket [{a}, {b}], residual {value})"
    )


def _group_root(
    gap, soc: DiscreteAgents, lo: float, hi: float, n_total: float, what: str
) -> float:
    """Crossing on [lo, hi] of the step map toll - price(n) of a discrete pool.

    gap(s, n) is that map with the marginal SoC held at s: non-decreasing
    in s and continuous in n.  A binary search over the agents finds the
    first SoC group k whose gap is >= 0 at its last count C_k (or hi),
    else the last group.  The crossing is its first count C_(k-1) (or lo)
    if the gap is >= 0 there already, else the root of group k's gap
    between the two, which puts the threshold on s_k.
    """

    def group(m: int) -> tuple[float, float, float]:
        # SoC of agent m, and the counts below and through its level
        s = soc.quantile(m)
        return s, soc.count_below(s), soc.count_below(math.nextafter(s, 1.0))

    a, b = max(math.ceil(lo), 1), max(math.ceil(hi), 1)
    while a < b:
        m = (a + b) // 2
        s, _, end = group(m)
        if gap(s, min(end, hi))[0] >= 0.0:
            b = m
        else:
            a = m + 1
    s, start, end = group(a)
    return _root(lambda n: gap(s, n), max(start, lo), min(end, hi), n_total, what)


def _bpr_slope(link: LinkParams, x: float, t: float) -> float:
    """Slope of BPR at flow x, where the time is t: beta*(t - t0)/x; at
    x = 0, t0*alpha/capacity if beta = 1, else 0."""
    if x > 0.0:
        return link.bpr_beta * (t - link.free_flow_time) / x
    if link.bpr_beta == 1.0:
        return link.free_flow_time * link.bpr_alpha / link.capacity
    return 0.0


def _time_gap(link1: LinkParams, link2: LinkParams, n_total: float):
    """The map x -> (t1(x) - t2(n_total - x), its slope) at link-1 flow x:
    bpr_time's and _bpr_slope's arithmetic on parameters read once, so
    theirs bit for bit, raising as bpr_time does, link 1 first."""
    t01, cap1, alpha1, beta1 = (
        link1.free_flow_time, link1.capacity, link1.bpr_alpha, link1.bpr_beta
    )
    t02, cap2, alpha2, beta2 = (
        link2.free_flow_time, link2.capacity, link2.bpr_alpha, link2.bpr_beta
    )

    def time_gap(x: float) -> tuple[float, float]:
        if x < 0.0:
            raise ValueError(f"flow must be >= 0, got {x}")
        t1 = t01 * (1.0 + alpha1 * (x / cap1) ** beta1)
        y = n_total - x
        if y < 0.0:
            raise ValueError(f"flow must be >= 0, got {y}")
        t2 = t02 * (1.0 + alpha2 * (y / cap2) ** beta2)
        d1 = beta1 * (t1 - t01) / x if x > 0.0 else t01 * alpha1 / cap1 if beta1 == 1.0 else 0.0
        d2 = beta2 * (t2 - t02) / y if y > 0.0 else t02 * alpha2 / cap2 if beta2 == 1.0 else 0.0
        return t1 - t2, d1 + d2

    return time_gap


def _overflow(stage: str, n_total: float, network: Network, where: str = "") -> OverflowError:
    """The OverflowError of a stage where a link travel time overflows:
    the stage, N, where (such as " at DWPT mass 700.0"), and each link's
    capacity, alpha and beta.  The caller raises it from the original."""
    link1, link2 = network.link1, network.link2
    return OverflowError(
        f"{stage}, N {n_total}: a link travel time overflows{where} "
        f"(link 1: capacity {link1.capacity}, alpha {link1.bpr_alpha}, "
        f"beta {link1.bpr_beta}; link 2: capacity {link2.capacity}, "
        f"alpha {link2.bpr_alpha}, beta {link2.bpr_beta})"
    )


# The last (network, N) that _balanced built, and what it built for them.
_balance = (None, None, None)


def _balanced(network: Network, n_total: float):
    """The _time_gap map of the network at N, its root x_eq (N/2 on twin
    links), and the map's value and slope at x_eq.

    They depend on the network and N alone, so they are kept in a
    one-entry memo (_balance) keyed on the Network object's identity and
    N: every scenario on that same object and N, such as each cell of a
    sweep, builds them once.  A build that raises stores nothing; a
    travel time that overflows, or both that are inf at x_eq without
    raising, raise OverflowError naming the stage, N and each link's
    capacity, alpha and beta (_overflow).
    """
    global _balance
    entry = _balance
    if entry[0] is network and entry[1] == n_total:
        return entry[2]
    link1, link2 = network.link1, network.link2
    time_gap = _time_gap(link1, link2, n_total)
    try:
        x_eq = (
            0.5 * n_total
            if link1.same_bpr(link2)
            else _root(time_gap, 0.0, n_total, n_total, "balanced flow")
        )
        built = time_gap, x_eq, time_gap(x_eq)
    except OverflowError as exc:
        raise _overflow("balanced flow", n_total, network) from exc
    if math.isnan(built[2][0]):  # both times overflowed to inf without raising
        raise _overflow("balanced flow", n_total, network)
    _balance = (network, n_total, built)
    return built


def _wardrop_response(scenario: Scenario, toll: float):
    """OTHER-Vs' Wardrop best response to the DWPT mass n on the ERS link,
    priced at a toll.

    Returns (x_eq, at_eq, gap): the balanced flow and the time gap there
    (_balanced), and gap(s, n) = toll - charging_value(s) + vot*(t1 - t2)
    with its slope in n, at the link-1 flow
    x1(n) = min(max(x_eq, n), n + n_other) and a marginal SoC s.  With s
    the SoC of the marginal of n DWPT-EVs it is toll - price(n) (module
    docstring).
    """
    time_gap, x_eq, at_eq = _balanced(scenario.network, scenario.total_vehicles)
    n_other, prefs = scenario.n_other, scenario.prefs

    def gap(s: float, n: float) -> tuple[float, float]:
        if n > x_eq:
            t_gap, dt = time_gap(n)
        elif x_eq > n + n_other:
            t_gap, dt = time_gap(n + n_other)
        else:
            t_gap, dt = at_eq
        return toll - charging_value(prefs, s) + prefs.vot * t_gap, prefs.vot * dt

    return x_eq, at_eq, gap


def solve(scenario: Scenario) -> tuple[EquilibriumResult, RegimeTag]:
    """User equilibrium of the scenario: class flows, times, regime.

    The DWPT mass n on link 1 is where the price map of the module
    docstring, taken with the times of OTHER's Wardrop response to n,
    crosses the toll.  At equal times the count n_star below the
    threshold is that crossing in closed form if OTHER-Vs can fill the
    rest of x_eq (interior).  Otherwise it lies in [x_eq, rN] when
    n_star > x_eq (every OTHER-V on link 2), else in
    [0, x_eq - n_other] (every OTHER-V on link 1), or at the bracket end
    where toll - price(n), the response's gap, already has its final
    sign.  For a continuum pool that map is rooted by _root to
    ROOT_TOL_FACTOR*N; for a discrete pool, whose price is a step
    function of n, _group_root finds the marginal SoC group and splits it
    at its own SoC.  A travel time that overflows in a corner root raises
    OverflowError naming the fixed point, N and the bracket (_overflow).
    """
    prefs, soc, toll = scenario.prefs, scenario.soc, scenario.toll.dwpt_link1_charge
    n_dwpt, n_other = scenario.n_dwpt, scenario.n_other
    link1, link2 = scenario.network.link1, scenario.network.link2
    x_eq, at_eq, gap = _wardrop_response(scenario, toll)

    # the times enter the threshold only as t1 - t2
    n_star = soc.count_below(threshold_soc(prefs, toll, at_eq[0], 0.0))
    if n_star <= x_eq and x_eq - n_star <= n_other:
        regime, x1_d = RegimeTag.INTERIOR, n_star  # the response to n_star is x_eq
    else:
        if n_star > x_eq:
            regime, lo, hi = RegimeTag.CORNER_OTHER_ON_2, x_eq, n_dwpt
        else:
            regime, lo, hi = RegimeTag.CORNER_OTHER_ON_1, 0.0, min(x_eq - n_other, n_dwpt)
        n_total, what = scenario.total_vehicles, f"fixed point ({regime.value})"
        try:
            if isinstance(soc, DiscreteAgents):
                x1_d = _group_root(gap, soc, lo, hi, n_total, what)
            else:
                ds = (soc.s_hi - soc.s_lo) / soc.mass

                def continuum_gap(n: float) -> tuple[float, float]:
                    # a continuum's marginal SoC moves by ds per vehicle (a
                    # discrete group's is fixed, so s*s never divides
                    # there); an s*s that underflows is an infinite slope
                    s = soc.quantile(n)
                    value, slope = gap(s, n)
                    square = s * s
                    return value, (prefs.voe * ds / square if square > 0.0 else math.inf) + slope

                x1_d = _root(continuum_gap, lo, hi, n_total, what)
        except OverflowError as exc:
            where = f" on the bracket [{lo}, {hi}]"
            raise _overflow(what, n_total, scenario.network, where) from exc
    x1_o = min(max(x_eq - x1_d, 0.0), n_other)
    x2_d, x2_o = n_dwpt - x1_d, n_other - x1_o
    # times at the stored link flows, which can round an ulp of N away
    # from the response map's x1
    t1, t2 = bpr_time(link1, x1_d + x1_o), bpr_time(link2, x2_d + x2_o)
    s_thres = threshold_soc(prefs, toll, t1, t2)
    return EquilibriumResult(x1_d, x2_d, x1_o, x2_o, t1, t2, s_thres), regime


def verify_equilibrium(scenario: Scenario, result: EquilibriumResult) -> list[str]:
    """Check that no vehicle gains by leaving its link; return violations.

    One rule for both classes: no class with mass above mass_tol on a link
    gains more than money_tol by leaving it (an OTHER-V vot*(t1 - t2) from
    link 1 and the negative from link 2, a DWPT-EV that less its link-1
    bonus).  Tolerances: masses VERIFY_MASS_TOL_FACTOR*N, stored times
    max(VERIFY_TIME_TOL, VERIFY_REL_TOL*max(t1, t2)) minutes, and money
    VERIFY_REL_TOL*(toll + vot*(t1 + t2)) + INDIFFERENCE_EPS JPY for the
    rounding of the recomputed times and money, plus the flow resolution
    vot*(dt1/dx + dt2/dx)*ROOT_TOL_FACTOR*N: a result passes if it is an
    exact equilibrium of flows within the root's step, ROOT_TOL_FACTOR*N.
    money_tol is inf, so no gain is flagged, where a link's slope overflows.
    """
    mass_tol = VERIFY_MASS_TOL_FACTOR * scenario.total_vehicles
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

    link1, link2 = scenario.network.link1, scenario.network.link2
    t1, t2 = bpr_time(link1, result.x1), bpr_time(link2, result.x2)
    time_tol = max(VERIFY_TIME_TOL, VERIFY_REL_TOL * max(t1, t2))
    if abs(t1 - result.t1) > time_tol or abs(t2 - result.t2) > time_tol:
        problems.append("stored travel times do not match BPR at stored flows")

    prefs, price = scenario.prefs, scenario.toll.dwpt_link1_charge
    slopes = _bpr_slope(link1, result.x1, t1) + _bpr_slope(link2, result.x2, t2)
    money_tol = VERIFY_REL_TOL * (price + prefs.vot * (t1 + t2)) + INDIFFERENCE_EPS
    money_tol += prefs.vot * slopes * ROOT_TOL_FACTOR * scenario.total_vehicles
    gain1 = prefs.vot * (t1 - t2)  # an OTHER-V's gain from leaving link 1
    for link, mass, gain in ((1, result.x1_o, gain1), (2, result.x2_o, -gain1)):
        if mass > mass_tol and gain > money_tol:
            problems.append(f"OTHER on link {link} would gain {gain} JPY by leaving it")

    # DWPT-EVs: on link 1 if the charging value beats toll + vot*(t1 - t2)
    # by more than money_tol, on link 2 if it falls short by more than that.
    below = scenario.soc.count_below(threshold_soc(prefs, price + money_tol, t1, t2))
    at_or_above = scenario.soc.total_mass - scenario.soc.count_below(
        math.nextafter(threshold_soc(prefs, price - money_tol, t1, t2), math.inf)
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


def brute_force_equilibrium(scenario: Scenario) -> EquilibriumResult:
    """Atomic oracle: the Nash profile at the exact potential's minimum;
    requires a DiscreteAgents SoC pool.

    The atomic game is a potential game (Rosenthal 1973; Monderer and
    Shapley 1996).  With the link-1 bonuses ranked, largest first, the
    potential of the top x1 on link 1 is convex in x1.  The pool's SoCs
    ascend, so the DWPT-EVs' bonuses (charging_value - price) already
    fall; the OTHER-Vs' bonus 0 ranks after every DWPT-EV at a bonus >= 0
    and before the rest.  The first x1 ranks go on link 1, where x1 is
    the first rank whose vehicle would not gain more than INDIFFERENCE_EPS
    by joining them: the switch rule's own arithmetic on bpr_time, so the
    profile is Nash.  Every rounded operation in a gain is monotone, so
    the gains fall with the rank and both counts are bisections; a time
    or gap that overflows at a flow 0..N, as in the simulator's kernel,
    overflows at an end (x1 = N or 1) and raises OverflowError (an
    ArithmeticError), as does a bonus that overflows, the largest at
    the pool's lowest SoC.  Each names the oracle and N, and a time its
    link-1 flow (_overflow).
    """
    if not isinstance(scenario.soc, DiscreteAgents):
        raise ValueError("brute_force_equilibrium needs DiscreteAgents SoC")
    n_dwpt, n_other = scenario.agent_counts()
    n, prefs, socs = n_dwpt + n_other, scenario.prefs, scenario.soc.soc_values
    link1, link2 = scenario.network.link1, scenario.network.link2
    price, n_total = scenario.toll.dwpt_link1_charge, scenario.total_vehicles
    for x1 in (n, 1):  # the gap's ends
        try:
            t1, t2 = bpr_time(link1, x1), bpr_time(link2, n + 1 - x1)
        except OverflowError as exc:
            where = f" at link-1 flow {x1}"
            raise _overflow("oracle", n_total, scenario.network, where) from exc
        if not math.isfinite(prefs.vot * (t1 - t2)):
            raise OverflowError(
                f"oracle, N {n_total}: the gap between link times {t1} and {t2} overflows"
            )

    def bonus(i: int) -> float:
        return charging_value(prefs, socs[i]) - price

    if not math.isfinite(bonus(0)):  # the largest bonus
        raise OverflowError(f"oracle, N {n_total}: the charging bonus at SoC {socs[0]} overflows")
    k = bisect.bisect_left(range(n_dwpt), True, key=lambda i: bonus(i) < 0.0)

    def stays(j: int) -> bool:
        # rank j, on link 2 at link-1 flow j, gains this by joining link 1
        ranked = bonus(j) if j < k else 0.0 if j < k + n_other else bonus(j - n_other)
        gain = ranked - prefs.vot * (bpr_time(link1, j + 1) - bpr_time(link2, n - j))
        return not gain > INDIFFERENCE_EPS

    x1 = bisect.bisect_left(range(n), True, key=stays)
    x1_o = min(max(x1 - k, 0), n_other)
    x1_d = x1 - x1_o
    t1, t2 = bpr_time(link1, x1), bpr_time(link2, n - x1)
    return EquilibriumResult(
        float(x1_d), float(n_dwpt - x1_d), float(x1_o), float(n_other - x1_o),
        t1, t2, threshold_soc(prefs, price, t1, t2),
    )


def __getattr__(name):
    # The benchmark's tracing span still names the potential under this
    # module; the forward goes when it is renamed to dynamics (ROADMAP
    # item 2).
    if name == "rosenthal_potential":
        from . import dynamics

        return getattr(dynamics, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
