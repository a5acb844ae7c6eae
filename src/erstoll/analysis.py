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
from dataclasses import dataclass
from enum import Enum

from .equilibrium import (
    ROOT_TOL_FACTOR,
    EquilibriumResult,
    _bpr_slope,
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


@dataclass(frozen=True)
class Metrics:
    """System-level outcomes of one equilibrium.

    ttt: total travel time over both classes, vehicle-minutes.
    tcv: total charged volume, kWh.
    revenue: toll receipts, JPY.
    conventional_so: ttt is the network minimum, to a relative SO_REL_TOL.
    ers_optimum: the ERS link carries as many DWPT-EVs as it can,
      min(x1, rN), to PATTERN_MASS_TOL*N: no DWPT/OTHER swap at fixed
      flows could raise charging.
    """

    ttt: float
    tcv: float
    revenue: float
    conventional_so: bool
    ers_optimum: bool


@dataclass(frozen=True)
class TollBand:
    """Half-open price interval [c_low, c_high) yielding one pattern."""

    pattern: PatternLabel
    c_low: float
    c_high: float

    def __post_init__(self):
        if self.c_low > self.c_high:
            raise ValueError(f"band bounds out of order: {self}")


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
    below that flow.  Where both links' times overflow at one split, one
    of them does at every split, and the least TTT is inf.
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
        return c1 - c2, d1 + d2

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
        x1 = _root(gap, 0.0, n_total, ROOT_TOL_FACTOR * n_total, "system optimum")
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
    tcv = result.x1_d * power * result.t1 / 60.0
    revenue = result.x1_d * scenario.toll.dwpt_link1_charge
    least = _least_ttt(scenario.network, scenario.total_vehicles, ttt, result)
    tol = PATTERN_MASS_TOL * scenario.total_vehicles
    return Metrics(
        ttt=ttt,
        tcv=tcv,
        revenue=revenue,
        conventional_so=ttt <= least * (1.0 + SO_REL_TOL),
        ers_optimum=result.x1_d >= min(result.x1, scenario.n_dwpt) - tol,
    )


def toll_bands(scenario: Scenario) -> list[TollBand]:
    """Partition of the price axis [0, inf) into pattern bands.

    Each band edge is the price map that solve inverts (price(n) of
    equilibrium._wardrop_response: the toll at which the marginal of n
    DWPT-EVs on the ERS link is indifferent, closed form and
    non-increasing in n) at a break point: n = rN (a|c), n = 0 (c|b)
    and, for r >= 0.5, the n where x1 = (N +- tol)/2 (c2|c1 and c1|c3),
    from the response's inverse.  Here tol = PATTERN_MASS_TOL*N, as in
    classify: on links that differ, c1 means |x1 - x2| <= tol, so its
    band is narrow but exact.  On twin links below r = 0.5, x1 = x_eq
    gives t1 = t2 and the edges are voe*(1/quantile(rN) - 1) and
    voe*(1/quantile(0) - 1), at the pool's highest and lowest SoC.
    """
    if not isinstance(scenario.toll, FixedToll):
        raise ValueError("toll bands are defined for a fixed-toll system")
    n_total = scenario.total_vehicles
    n_dwpt = scenario.n_dwpt
    _, _, dwpt_mass_at, price = _wardrop_response(scenario)

    if scenario.dwpt_ratio < 0.5:
        labels = (PatternLabel.B_i_a, PatternLabel.B_i_c, PatternLabel.B_i_b)
        breaks = (n_dwpt, 0.0)
    else:
        tol = PATTERN_MASS_TOL * n_total
        labels = (
            PatternLabel.B_ii_a,
            PatternLabel.B_ii_c2,
            PatternLabel.B_ii_c1,
            PatternLabel.B_ii_c3,
            PatternLabel.B_ii_b,
        )
        breaks = (
            n_dwpt,
            dwpt_mass_at(0.5 * (n_total + tol)),
            dwpt_mass_at(0.5 * (n_total - tol)),
            0.0,
        )
    edges = [0.0]
    for n in breaks:
        edges.append(max(price(n), edges[-1]))
    edges.append(math.inf)
    return [
        TollBand(p, lo, hi)
        for p, lo, hi in zip(labels, edges, edges[1:])
        if hi > lo
    ]
