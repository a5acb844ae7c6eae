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

The atomic game over discrete agents, with its brute-force
better-response oracle, lives in dynamics; it is an independent check of
the same equilibrium definition.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .model import LinkParams, Scenario, bpr_time, charging_value, threshold_soc

# Bisection controls (BPR is monotone, so every map bisected below is
# non-decreasing on its bracket).
MAX_BISECT_ITER = 200
FLOW_TOL_FACTOR = 1e-9  # corner fixed point, fraction of N
BALANCE_TOL_FACTOR = 1e-12  # link-split root, fraction of N

# verify_equilibrium tolerances: masses to this fraction of N (above the
# bisection residual, far below one vehicle at the scales of interest),
# times in minutes.
VERIFY_MASS_TOL_FACTOR = 1e-5
VERIFY_TIME_TOL = 1e-6


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


def _equal_split(link1: LinkParams, link2: LinkParams, total: float, cost, what) -> float:
    """Link-1 flow x in [0, total] where cost(link1, x) meets
    cost(link2, total - x), for a cost increasing in the flow; half of
    total on links with one travel-time function."""
    if link1.same_bpr(link2):
        return 0.5 * total
    return _bisect_root(
        lambda x: cost(link1, x) - cost(link2, total - x),
        0.0,
        total,
        BALANCE_TOL_FACTOR * total,
        what,
    )


def _wardrop_response(scenario: Scenario):
    """OTHER-Vs' Wardrop best response to the DWPT mass n on the ERS link.

    Returns (x_eq, times, dwpt_mass_at, price): the balanced flow;
    times(n), the link times (t1, t2) at link-1 flow x1(n) =
    min(max(x_eq, n), n + n_other); dwpt_mass_at(x1), its inverse, the
    DWPT mass in [0, rN] at which the response puts x1 on link 1; and
    price(n), the toll at which the marginal of n DWPT-EVs on link 1 is
    indifferent (module docstring).
    """
    link1, link2 = scenario.network.link1, scenario.network.link2
    n_total, n_dwpt, n_other = scenario.total_vehicles, scenario.n_dwpt, scenario.n_other
    prefs, soc = scenario.prefs, scenario.soc
    x_eq = _equal_split(link1, link2, n_total, bpr_time, "balanced flow")

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

    def price(n: float) -> float:
        t1, t2 = times(n)
        return charging_value(prefs, soc.quantile(n)) - prefs.vot * (t1 - t2)

    return x_eq, times, dwpt_mass_at, price


def solve(scenario: Scenario) -> tuple[EquilibriumResult, RegimeTag]:
    """User equilibrium of the scenario: class flows, times, regime.

    The DWPT mass n on link 1 is where the price map of the module
    docstring, taken with the times of OTHER's Wardrop response to n,
    crosses the toll.  At equal times the count n_star below the
    threshold is that crossing in closed form if OTHER-Vs can fill the
    rest of x_eq (interior).  Otherwise it lies in [x_eq, rN] when
    n_star > x_eq (every OTHER-V on link 2), else in
    [0, x_eq - n_other] (every OTHER-V on link 1), and toll - price(n)
    is bisected to FLOW_TOL_FACTOR*N, or taken at the bracket end where
    it already has its final sign.
    """
    prefs, soc, toll = scenario.prefs, scenario.soc, scenario.toll.dwpt_link1_charge
    n_dwpt, n_other = scenario.n_dwpt, scenario.n_other
    x_eq, times, _, price = _wardrop_response(scenario)

    t1, t2 = times(x_eq)
    n_star = soc.count_below(threshold_soc(prefs, toll, t1, t2))
    if n_star <= x_eq and x_eq - n_star <= n_other:
        regime, x1_d = RegimeTag.INTERIOR, n_star  # the response to n_star is x_eq
    else:
        if n_star > x_eq:
            regime, lo, hi = RegimeTag.CORNER_OTHER_ON_2, x_eq, n_dwpt
        else:
            regime, lo, hi = RegimeTag.CORNER_OTHER_ON_1, 0.0, min(x_eq - n_other, n_dwpt)
        xtol = FLOW_TOL_FACTOR * scenario.total_vehicles
        x1_d = _bisect_root(
            lambda n: toll - price(n), lo, hi, xtol, f"fixed point ({regime.value})"
        )
        t1, t2 = times(x1_d)
    x1_o = min(max(x_eq - x1_d, 0.0), n_other)
    result = EquilibriumResult(
        x1_d=x1_d,
        x2_d=n_dwpt - x1_d,
        x1_o=x1_o,
        x2_o=n_other - x1_o,
        t1=t1,
        t2=t2,
        s_thres=threshold_soc(prefs, toll, t1, t2),
    )
    return result, regime


def verify_equilibrium(scenario: Scenario, result: EquilibriumResult) -> list[str]:
    """Check the no-improving-switch conditions; return violations.

    Masses count to VERIFY_MASS_TOL_FACTOR*N and times to VERIFY_TIME_TOL.
    """
    n_total = scenario.total_vehicles
    mass_tol, time_tol = VERIFY_MASS_TOL_FACTOR * n_total, VERIFY_TIME_TOL
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


def __getattr__(name):
    # The benchmark's tracing spans still name the oracle and the potential
    # under this module; the forward goes when they are renamed to dynamics
    # (ROADMAP item 2).
    if name in ("brute_force_equilibrium", "rosenthal_potential"):
        from . import dynamics

        return getattr(dynamics, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
