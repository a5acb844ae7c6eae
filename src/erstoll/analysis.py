"""Equilibrium pattern taxonomy, system metrics, and toll bands.

Pattern labels follow a two-level scheme.  The leading letter is the
pricing regime (A = free ERS, B = fixed toll); the roman numeral is the
fleet-mix case (i: DWPT share r < 0.5, ii: r >= 0.5); the trailing letter
describes how DWPT-EVs split (a: all on the ERS link, b: none, c: both
links), with c refined by the total-flow comparison for r >= 0.5
(c1: x1 = x2, c2: x1 > x2, c3: x1 < x2).  Masses within
PATTERN_MASS_TOL*N count as zero, so on links that differ c1 means
|x1 - x2| <= PATTERN_MASS_TOL*N.

Toll bands evaluate the closed-form price map that solve inverts (the
toll at which a given DWPT mass on the ERS link is in equilibrium) at
each pattern's break point.  No band calls the solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .equilibrium import EquilibriumResult, _equal_split, _wardrop_response
from .model import FixedToll, FreeToll, Network, Scenario, bpr_time

# Masses below this fraction of N count as zero when labelling patterns.
PATTERN_MASS_TOL = 1e-6


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
    conventional_so: ttt is the network minimum, to a relative 1e-6.
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

    def contains(self, price: float) -> bool:
        return self.c_low <= price < self.c_high


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
    low_share = scenario.dwpt_ratio < 0.5
    if isinstance(scenario.toll, FreeToll):
        return PatternLabel.A_i if low_share else PatternLabel.A_ii

    tol = PATTERN_MASS_TOL * scenario.total_vehicles
    all_on_1 = result.x2_d <= tol
    all_on_2 = result.x1_d <= tol
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
    if abs(result.x1 - result.x2) <= tol:
        return PatternLabel.B_ii_c1
    if result.x1 > result.x2:
        return PatternLabel.B_ii_c2
    return PatternLabel.B_ii_c3


def min_total_travel_time(network: Network, n_total: float) -> float:
    """Network-optimal TTT over all splits of n_total across the links.

    x*t(x) is convex for BPR, so the optimum is where the marginal costs
    d(x*t(x))/dx = t0*(1 + alpha*(beta + 1)*(x/c)^beta) of the two links
    meet, or an end of [0, n_total] if they never do.
    """

    def marginal(link, x: float) -> float:
        a, b = link.bpr_alpha, link.bpr_beta
        return link.free_flow_time * (1.0 + a * (b + 1.0) * (x / link.capacity) ** b)

    x1 = _equal_split(network.link1, network.link2, n_total, marginal, "system optimum")
    return x1 * bpr_time(network.link1, x1) + (n_total - x1) * bpr_time(
        network.link2, n_total - x1
    )


def metrics(scenario: Scenario, result: EquilibriumResult) -> Metrics:
    """TTT (vehicle-minutes), TCV (kWh), revenue (JPY), and predicates.

    Only the ERS link charges, so tcv = x1_d * W * t1 / 60 with W the
    link-1 power in kW and t1 in minutes.  conventional_so compares ttt
    with min_total_travel_time of the scenario's network and N.
    """
    _check_pair(scenario, result)
    power = scenario.network.link1.ers_power_kw
    ttt = result.x1 * result.t1 + result.x2 * result.t2
    tcv = result.x1_d * power * result.t1 / 60.0
    revenue = result.x1_d * scenario.toll.dwpt_link1_charge
    min_ttt = min_total_travel_time(scenario.network, scenario.total_vehicles)
    tol = PATTERN_MASS_TOL * scenario.total_vehicles
    return Metrics(
        ttt=ttt,
        tcv=tcv,
        revenue=revenue,
        conventional_so=ttt <= min_ttt * (1.0 + 1e-6),
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
    gives t1 = t2 and the edges are voe*(1/s_max - 1) and
    voe*(1/s_min - 1).
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
