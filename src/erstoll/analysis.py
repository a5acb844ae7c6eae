"""Equilibrium pattern taxonomy, system metrics, and toll bands.

Pattern labels follow a two-level scheme.  The leading letter is the
pricing regime (A = free ERS, B = fixed toll); the roman numeral is the
fleet-mix case (i: DWPT share r < 0.5, ii: r >= 0.5); the trailing letter
describes how DWPT-EVs split (a: all on the ERS link, b: none, c: both
links), with c refined by the total-flow comparison for r >= 0.5
(c1: x1 = x2, c2: x1 > x2, c3: x1 < x2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

from .equilibrium import (
    BALANCE_TOL_FACTOR,
    EquilibriumResult,
    _bisect_root,
    solve,
    threshold_soc,
)
from .model import FixedToll, FreeToll, Network, Scenario, bpr_time

# Masses below this fraction of N count as zero when labelling patterns.
PATTERN_MASS_TOL = 1e-6
# Toll-band boundaries for r >= 0.5 are located to this precision (JPY).
BAND_PRICE_TOL = 1e-6


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
    ttt_dwpt: travel time of the DWPT fleet alone (diagnostic).
    tcv: total charged volume, kWh.
    revenue: toll receipts, JPY.
    """

    ttt: float
    ttt_dwpt: float
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

    def total(x1: float) -> float:
        return x1 * bpr_time(network.link1, x1) + (n_total - x1) * bpr_time(
            network.link2, n_total - x1
        )

    def marginal(link, x: float) -> float:
        a, b = link.bpr_alpha, link.bpr_beta
        return link.free_flow_time * (1.0 + a * (b + 1.0) * (x / link.capacity) ** b)

    def gap(x1: float) -> float:
        return marginal(network.link1, x1) - marginal(network.link2, n_total - x1)

    if gap(0.0) >= 0.0:
        return total(0.0)
    if gap(n_total) <= 0.0:
        return total(n_total)
    return total(
        _bisect_root(gap, 0.0, n_total, BALANCE_TOL_FACTOR * n_total, "system optimum")
    )


def is_conventional_so(scenario: Scenario, result: EquilibriumResult) -> bool:
    """True if the equilibrium TTT equals the network minimum."""
    ttt = result.x1 * result.t1 + result.x2 * result.t2
    best = min_total_travel_time(scenario.network, scenario.total_vehicles)
    return ttt <= best * (1.0 + 1e-6)


def is_ers_optimum(scenario: Scenario, result: EquilibriumResult) -> bool:
    """True if no DWPT/OTHER swap could raise charging at fixed flows.

    Holding (x1, x2) fixed, charged volume is maximal when the ERS link
    carries as many DWPT-EVs as it can: min(x1, rN).
    """
    ceiling = min(result.x1, scenario.n_dwpt)
    return result.x1_d >= ceiling - PATTERN_MASS_TOL * scenario.total_vehicles


def metrics(scenario: Scenario, result: EquilibriumResult) -> Metrics:
    """TTT (vehicle-minutes), TCV (kWh), revenue (JPY), and predicates.

    Only the ERS link charges, so tcv = n_thres * W * t1 / 60 with W the
    link-1 power in kW and t1 in minutes.
    """
    _check_pair(scenario, result)
    power = scenario.network.link1.ers_power_kw
    ttt = result.x1 * result.t1 + result.x2 * result.t2
    ttt_dwpt = result.x1_d * result.t1 + result.x2_d * result.t2
    tcv = result.n_thres * power * result.t1 / 60.0
    revenue = result.n_thres * scenario.toll.dwpt_link1_charge
    return Metrics(
        ttt=ttt,
        ttt_dwpt=ttt_dwpt,
        tcv=tcv,
        revenue=revenue,
        conventional_so=is_conventional_so(scenario, result),
        ers_optimum=is_ers_optimum(scenario, result),
    )


def _solve_at_price(scenario: Scenario, price: float) -> PatternLabel:
    repriced = replace(scenario, toll=FixedToll(price))
    result, _ = solve(repriced)
    return classify(repriced, result)


# Stage order of patterns as the toll price climbs (r >= 0.5).
_STAGE = {
    PatternLabel.B_ii_a: 0,
    PatternLabel.B_ii_c2: 1,
    PatternLabel.B_ii_c1: 2,
    PatternLabel.B_ii_c3: 3,
    PatternLabel.B_ii_b: 4,
}


def _first_price_reaching(
    scenario: Scenario, stage: int, lo: float, hi: float
) -> float:
    """Smallest price whose pattern stage is >= stage, by bisection.

    The stage function is non-decreasing in price: raising the toll only
    ever pushes DWPT-EVs off the ERS link.
    """
    if _STAGE[_solve_at_price(scenario, lo)] >= stage:
        return lo
    if _STAGE[_solve_at_price(scenario, hi)] < stage:
        return hi
    while hi - lo > BAND_PRICE_TOL:
        mid = 0.5 * (lo + hi)
        if _STAGE[_solve_at_price(scenario, mid)] >= stage:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def toll_bands(scenario: Scenario) -> list[TollBand]:
    """Partition of the price axis [0, inf) into pattern bands.

    For r < 0.5 travel times are equal in every equilibrium and the
    boundaries are closed-form: the all-charge band ends where the
    highest-SoC vehicle stops charging, the no-charge band starts where
    the lowest-SoC one does.  For r >= 0.5 the extreme bands use the
    time gaps of their own corner flows, and the interior boundaries are
    located by bisection on the solver.
    """
    if not isinstance(scenario.toll, FixedToll):
        raise ValueError("toll bands are defined for a fixed-toll system")
    voe = scenario.prefs.voe
    vot = scenario.prefs.vot
    soc = scenario.soc
    u_top = 1.0 / soc.s_min - 1.0  # most eager vehicle
    u_bottom = 1.0 / soc.s_max - 1.0  # least eager vehicle

    if scenario.dwpt_ratio < 0.5:
        edges = [
            (PatternLabel.B_i_a, 0.0, voe * u_bottom),
            (PatternLabel.B_i_c, voe * u_bottom, voe * u_top),
            (PatternLabel.B_i_b, voe * u_top, math.inf),
        ]
        return [
            TollBand(p, lo, hi) for p, lo, hi in edges if hi > lo
        ]

    net = scenario.network
    n_total = scenario.total_vehicles
    n_dwpt = scenario.n_dwpt
    n_other = scenario.n_other
    # Pattern (a): all DWPT on link 1, all OTHER on link 2.
    gap_a = bpr_time(net.link1, n_dwpt) - bpr_time(net.link2, n_other)
    c_a = voe * u_bottom - vot * gap_a
    # Pattern (b): all DWPT on link 2, all OTHER on link 1.
    gap_b = bpr_time(net.link1, n_other) - bpr_time(net.link2, n_dwpt)
    c_b = voe * u_top - vot * gap_b

    if c_b <= 0.0:  # ERS link so slow that nobody charges even toll-free
        return [TollBand(PatternLabel.B_ii_b, 0.0, math.inf)]
    lo = max(c_a, 0.0)
    c_b = max(c_b, lo)
    c1_start = _first_price_reaching(scenario, 2, lo, c_b)
    c3_start = _first_price_reaching(scenario, 3, c1_start, c_b)
    edges = [
        (PatternLabel.B_ii_a, 0.0, c_a),
        (PatternLabel.B_ii_c2, lo, c1_start),
        (PatternLabel.B_ii_c1, c1_start, c3_start),
        (PatternLabel.B_ii_c3, c3_start, c_b),
        (PatternLabel.B_ii_b, c_b, math.inf),
    ]
    return [TollBand(p, lo, hi) for p, lo, hi in edges if hi > lo]


def band_containing(bands: list[TollBand], price: float) -> TollBand:
    """The band whose half-open interval holds the given price."""
    for band in bands:
        if band.contains(price):
            return band
    raise ValueError(f"no band contains price {price}")
