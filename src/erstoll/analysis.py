"""Equilibrium pattern taxonomy, system metrics, and toll bands.

Pattern labels follow a two-level scheme.  The leading letter is the
pricing regime (A = free ERS, B = fixed toll); the roman numeral is the
fleet-mix case (i: DWPT share r < 0.5, ii: r >= 0.5); the trailing letter
describes how DWPT-EVs split (a: all on the ERS link, b: none, c: both
links), with c refined by the total-flow comparison for r >= 0.5
(c1: x1 = x2, c2: x1 > x2, c3: x1 < x2).  The a and b tests are exact
(solve gives a DWPT flow of exactly 0.0 or rN at a corner); on links
that differ c1 means |x1 - x2| <= PATTERN_MASS_TOL*N.  classify and
metrics raise ValueError for a result that does not conserve the
scenario's class totals.

Toll bands evaluate the closed-form price map that solve inverts (the
toll at which a given DWPT mass on the ERS link is in equilibrium) at
each pattern's break point.  No band calls the solver.
"""

from __future__ import annotations

import math
from collections import namedtuple
from enum import Enum

from .equilibrium import (
    EquilibriumResult,
    _bpr_slope,
    _overflow,
    _root,
    _wardrop_response,
)
from .model import FixedToll, FreeToll, LinkParams, Network, Scenario, bpr_time

# Flows within this fraction of N count as equal (c1, Metrics.ers_optimum).
PATTERN_MASS_TOL = 1e-6
# A TTT within this fraction of the network minimum is a system optimum
# (Metrics.conventional_so).
SO_REL_TOL = 1e-6


class PatternLabel(Enum):
    A_i = "A_i"
    A_ii = "A_ii"
    B_i_a = "B_i_a"
    B_i_b = "B_i_b"
    B_i_c = "B_i_c"
    B_ii_a = "B_ii_a"
    B_ii_b = "B_ii_b"
    B_ii_c1 = "B_ii_c1"
    B_ii_c2 = "B_ii_c2"
    B_ii_c3 = "B_ii_c3"


class Metrics(namedtuple("Metrics", "ttt tcv revenue conventional_so ers_optimum")):
    """System-level outcomes of one equilibrium.

    ttt: total travel time over both classes, vehicle-minutes.
    tcv: total charged volume, kWh.
    revenue: toll receipts, JPY.
    conventional_so: ttt is the network minimum, to a relative SO_REL_TOL.
    ers_optimum: the ERS link carries as many DWPT-EVs as it can,
      min(x1, rN), to PATTERN_MASS_TOL*N: no DWPT/OTHER swap at fixed
      flows could raise charging.
    """

    __slots__ = ()


class TollBand(namedtuple("TollBand", "pattern c_low c_high")):
    """Half-open price interval [c_low, c_high) yielding one pattern.

    A named tuple whose every constructor, _make and _replace included,
    raises ValueError if c_low > c_high.
    """

    __slots__ = ()

    def __new__(cls, pattern: PatternLabel, c_low: float, c_high: float):
        band = tuple.__new__(cls, (pattern, c_low, c_high))
        if c_low > c_high:
            raise ValueError(f"band bounds out of order: {band}")
        return band

    @classmethod
    def _make(cls, iterable) -> TollBand:
        return cls(*iterable)


# toll_bands' pattern of each band, in price order, for r < 0.5 and r >= 0.5
_LOW_SHARE_LABELS = (PatternLabel.B_i_a, PatternLabel.B_i_c, PatternLabel.B_i_b)
_HIGH_SHARE_LABELS = (
    PatternLabel.B_ii_a,
    PatternLabel.B_ii_c2,
    PatternLabel.B_ii_c1,
    PatternLabel.B_ii_c3,
    PatternLabel.B_ii_b,
)


def _check_pair(scenario: Scenario, result: EquilibriumResult) -> None:
    tol = PATTERN_MASS_TOL * scenario.total_vehicles
    if abs(result.x1_d + result.x2_d - scenario.n_dwpt) > tol or abs(
        result.x1_o + result.x2_o - scenario.n_other
    ) > tol:
        raise ValueError(
            "result flows do not conserve the scenario's class totals; "
            "was this result solved from a different scenario?"
        )


def classify(scenario: Scenario, result: EquilibriumResult) -> PatternLabel:
    """Pattern label of an equilibrium (see module docstring)."""
    _check_pair(scenario, result)
    return _pattern(scenario, result)


def _pattern(scenario: Scenario, result: EquilibriumResult) -> PatternLabel:
    # classify of a pair already checked, for a caller that also runs metrics
    low_share = scenario.dwpt_ratio < 0.5
    if isinstance(scenario.toll, FreeToll):
        return PatternLabel.A_i if low_share else PatternLabel.A_ii

    all_on_1 = result.x2_d <= 0.0
    all_on_2 = result.x1_d <= 0.0
    if low_share:
        if all_on_1:
            return PatternLabel.B_i_a
        if all_on_2:
            return PatternLabel.B_i_b
        return PatternLabel.B_i_c
    if all_on_1:
        return PatternLabel.B_ii_a
    if all_on_2:
        return PatternLabel.B_ii_b
    if abs(result.x1 - result.x2) <= PATTERN_MASS_TOL * scenario.total_vehicles:
        return PatternLabel.B_ii_c1
    if result.x1 > result.x2:
        return PatternLabel.B_ii_c2
    return PatternLabel.B_ii_c3


def _marginal(link: LinkParams, x: float, t: float) -> tuple[float, float]:
    """Marginal cost d(x*t(x))/dx = t + x*t' of BPR at flow x, where the
    time is t, and its slope (beta + 1)*t', since x*t' = beta*(t - t0)."""
    slope = _bpr_slope(link, x, t)
    return t + x * slope, (link.bpr_beta + 1.0) * slope


def _scaled_marginal(link: LinkParams, t: float, m: float) -> float:
    """_marginal's cost at a flow > 0, where it is t + beta*(t - t0),
    divided by m >= t: finite where the cost itself overflows."""
    return t / m + link.bpr_beta * ((t - link.free_flow_time) / m)


def _time(link: LinkParams, x: float) -> float:
    """bpr_time, or inf at a flow whose time overflows a double: such a
    split's TTT is infinite, so no optimum search ever settles there."""
    try:
        return bpr_time(link, x)
    except OverflowError:
        return math.inf


class _Settled(Exception):
    """_least_ttt's answer (args[0]), found before its root."""


def _least_ttt(
    network: Network, n_total: float, ttt: float, start: EquilibriumResult | None
) -> float:
    """TTT of the system optimum, or of the first split evaluated whose
    TTT F has ttt > F*(1 + SO_REL_TOL), whichever it meets first.

    x*t(x) is convex for BPR, so TTT is convex in the split (Beckmann,
    McGuire and Winsten 1956) and its minimum is where the marginal costs
    of the two links meet, or an end of [0, n_total] if they never do;
    twin links split evenly.  Every split's F is at least that minimum,
    so one that ttt exceeds settles that ttt is not the minimum, and the
    search stops there.  On links that differ, a start (an equilibrium of
    this network and n_total) gives a probe: the Newton step on the
    marginal-cost gap from its x1, with t' from its stored t1 and t2,
    clamped to [0, n_total] and skipped if not finite, priced by its F
    alone.  The root search then runs as without it, and returns the
    least F of the root and the splits it evaluated: on a link so steep
    that F grows by orders of magnitude within the root's tolerance, the
    root's own F can be far above an end's.  A link time that overflows
    a double is infinite (_time), and so are that split's F and the
    link's marginal cost, so the gap keeps its sign and the root lies
    below that flow.  Where both marginal costs overflow but F need not,
    the gap compares them divided by the larger time, or, if one time
    overflows, takes that link's as the larger.  Where both links' times
    overflow at one split, one of them does at every split, and the
    least TTT is inf.
    """
    link1, link2 = network.link1, network.link2

    def total(x: float) -> float:
        return x * _time(link1, x) + (n_total - x) * _time(link2, n_total - x)

    if link1.same_bpr(link2):
        return total(0.5 * n_total)
    least = math.inf  # the least F of the splits evaluated

    def gap(x: float) -> tuple[float, float]:
        nonlocal least
        t1, t2 = _time(link1, x), _time(link2, n_total - x)
        if t1 == t2 == math.inf:
            # both links overflow at x, so one of them at every split
            raise _Settled(math.inf)
        f = x * t1 + (n_total - x) * t2
        if ttt > f * (1.0 + SO_REL_TOL):
            raise _Settled(f)
        least = min(least, f)
        c1, d1 = _marginal(link1, x, t1)
        c2, d2 = _marginal(link2, n_total - x, t2)
        value = c1 - c2
        if value != value:  # inf - inf: compare the costs over the larger time
            m = max(t1, t2)
            if m < math.inf:
                value = _scaled_marginal(link1, t1, m) - _scaled_marginal(link2, t2, m)
            else:  # one time overflows, and its link's marginal cost is the larger
                value = t1 - t2
        return value, d1 + d2

    if start is not None:
        c1, d1 = _marginal(link1, start.x1, start.t1)
        c2, d2 = _marginal(link2, start.x2, start.t2)
        if d1 + d2 > 0.0:  # not 0 or nan
            x = start.x1 - (c1 - c2) / (d1 + d2)
            if math.isfinite(x):
                least = total(min(max(x, 0.0), n_total))
                if ttt > least * (1.0 + SO_REL_TOL):
                    return least
    try:
        x1 = _root(gap, 0.0, n_total, n_total, "system optimum")
    except _Settled as settled:
        return settled.args[0]
    return min(least, total(x1))


def min_total_travel_time(network: Network, n_total: float) -> float:
    """Network-optimal TTT over all splits of n_total across the links
    (_least_ttt, with no TTT to stop at); inf where every split's TTT
    overflows."""
    return _least_ttt(network, n_total, -math.inf, None)


def metrics(scenario: Scenario, result: EquilibriumResult) -> Metrics:
    """TTT (vehicle-minutes), TCV (kWh), revenue (JPY), and predicates.

    Only the ERS link charges, so tcv = x1_d * W * t1 / 60 with W the
    link-1 power in kW and t1 in minutes.  conventional_so is
    ttt <= min_total_travel_time*(1 + SO_REL_TOL) for the scenario's
    network and N, and false as soon as any split's TTT F has
    ttt > F*(1 + SO_REL_TOL): no split's F is below the minimum (up to
    its rounding), so that is the converged search's answer.  On links
    that differ the first split tried is the Newton step toward the
    optimum from the equilibrium's own split, found from its stored times
    and priced by its TTT alone; it settles most false flags, and a wrong
    or non-finite stored time can only waste it.  The search runs to the
    optimum only when no split beats ttt (_least_ttt).
    """
    _check_pair(scenario, result)
    power = scenario.network.link1.ers_power_kw
    ttt = result.x1 * result.t1 + result.x2 * result.t2
    least = _least_ttt(scenario.network, scenario.total_vehicles, ttt, result)
    tol = PATTERN_MASS_TOL * scenario.total_vehicles
    return Metrics(
        ttt,
        result.x1_d * power * result.t1 / 60.0,
        result.x1_d * scenario.toll.dwpt_link1_charge,
        ttt <= least * (1.0 + SO_REL_TOL),
        result.x1_d >= min(result.x1, scenario.n_dwpt) - tol,
    )


def toll_bands(scenario: Scenario) -> list[TollBand]:
    """Partition of the price axis [0, inf) into pattern bands.

    Each band edge is the price map that solve inverts (price(n), the
    toll at which the marginal of n DWPT-EVs on the ERS link is
    indifferent, closed form and non-increasing in n: minus the gap of
    equilibrium._wardrop_response at toll 0) at a break point: n = rN
    (a|c), n = 0 (c|b) and, for r >= 0.5, the n where x1 = (N +- tol)/2
    (c2|c1 and c1|c3), from the response's inverse.  Here
    tol = PATTERN_MASS_TOL*N, as in classify: on links that differ, c1
    means |x1 - x2| <= tol, so its band is narrow but exact.  On twin
    links below r = 0.5, x1 = x_eq gives t1 = t2 and the edges are
    voe*(1/quantile(rN) - 1) and voe*(1/quantile(0) - 1), at the pool's
    highest and lowest SoC.  A travel time that overflows at an edge,
    or is inf there without raising while the edge's bonus is inf too,
    raises OverflowError naming the edge's DWPT mass and N (_overflow).
    """
    if not isinstance(scenario.toll, FixedToll):
        raise ValueError("toll bands are defined for a fixed-toll system")
    n_total = scenario.total_vehicles
    n_dwpt, n_other, soc = scenario.n_dwpt, scenario.n_other, scenario.soc
    x_eq, _, gap = _wardrop_response(scenario, 0.0)

    def dwpt_mass_at(x1: float) -> float:
        # the DWPT mass in [0, rN] at which the response puts x1 on link 1
        return min(max(x1 - n_other if x1 < x_eq else x1, 0.0), n_dwpt)

    if scenario.dwpt_ratio < 0.5:
        labels, breaks = _LOW_SHARE_LABELS, (n_dwpt, 0.0)
    else:
        tol = PATTERN_MASS_TOL * n_total
        labels = _HIGH_SHARE_LABELS
        breaks = (
            n_dwpt,
            dwpt_mass_at(0.5 * (n_total + tol)),
            dwpt_mass_at(0.5 * (n_total - tol)),
            0.0,
        )
    edges = [0.0]
    try:
        for n in breaks:  # price(n) is 0.0 - gap, not -gap, so a zero price is +0.0
            price = 0.0 - gap(soc.quantile(n), n)[0]
            if price != price:  # a time inf without raising, less an inf bonus
                raise OverflowError("the edge's price is nan")
            edges.append(max(price, edges[-1]))
    except OverflowError as exc:
        raise _overflow("toll band edge", n_total, scenario.network, f" at DWPT mass {n}") from exc
    edges.append(math.inf)
    return [
        TollBand(p, lo, hi)
        for p, lo, hi in zip(labels, edges, edges[1:])
        if hi > lo
    ]
