"""Domain types and the charging payoff for a two-link electric road system.

The network has one origin-destination pair served by two parallel links.
Link 1 carries an electric road system (ERS) that charges suitably equipped
vehicles (DWPT-EVs) while they drive; link 2 is a plain road.  Two vehicle
classes share the network: DWPT-EVs, which value in-motion charging, and
all other vehicles (OTHER-Vs), which only care about travel time.

UNIT CONVENTIONS
----------------
* travel time: minutes
* flows and vehicle masses: vehicles
* ERS power output: kW; charged energy: kWh (power * minutes / 60)
* money: JPY

Utilities are money-metric: each vehicle's utility is expressed in JPY by
normalising with the magnitude of the cost coefficient, so only two taste
ratios appear anywhere:

* ``vot`` - value of time, JPY per minute of travel
* ``voe`` - value of charging, JPY per unit of charging utility

The charging utility of a DWPT-EV with state of charge ``s`` is ``1/s - 1``:
near-empty batteries value ERS access steeply, near-full ones barely at all.
charging_value prices it in JPY, and every layer reaches the payoff through
it or its inverse threshold_soc.  Raw (un-normalised) taste coefficients
are not representable in this model; link choice is invariant to the
normalisation, so no behaviour is lost.

The DWPT-EV SoC pool (UniformContinuum or DiscreteAgents) is read
through ``total_mass`` (fleet size in vehicles), ``count_below(s)`` (mass
with SoC strictly below s: non-decreasing, 0 at the lowest SoC, total
mass at 1) and ``quantile(mass)`` (the SoC below which that mass lies;
quantile(0) and quantile(total_mass) are the lowest and highest SoC).
These readers tell the two apart: equilibrium.solve, for the slope of a
continuum's quantile and the SoC groups of a discrete pool;
harness._override, whose dwpt_ratio and soc.* overrides need a
UniformContinuum; dynamics.discretize_scenario, which turns one into
DiscreteAgents; and dynamics.agents_from_scenario and
equilibrium.brute_force_equilibrium, which need DiscreteAgents.
DiscreteAgents holds its SoCs in ascending order, so the simulator's
population reads the DWPT-EVs in falling order of their charging value
without sorting them again, and the brute-force oracle bisects that
order.  A toll (FreeToll or FixedToll) is priced through
dwpt_link1_charge; analysis._pattern also branches on FreeToll,
analysis.toll_bands needs a FixedToll, and harness.fig2_data reads each
FixedToll's price.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from enum import Enum


# Indifference tolerance, in money units (JPY).  A link switch counts as
# improving only if it gains strictly more than this.
INDIFFERENCE_EPS = 1e-9

# Starting assignments and per-round visiting orders of the best-response
# simulator (dynamics); held here, with no numpy, so the command line can
# offer them without loading it.
INITIAL_ASSIGNMENTS = ("all_link2", "all_link1", "random", "balanced")
ORDER_POLICIES = ("sequential", "random")

# Range checks below are written as "not (lo < x < math.inf)" so that NaN,
# which fails every comparison, and +-inf are rejected with the range.


class VehicleClass(Enum):
    DWPT = "dwpt"
    OTHER = "other"


@dataclass(frozen=True)
class LinkParams:
    """BPR travel-time parameters and ERS equipment for one road link."""

    free_flow_time: float
    capacity: float
    bpr_alpha: float = 0.15
    bpr_beta: float = 4.0
    has_ers: bool = False
    ers_power_kw: float | None = None

    def __post_init__(self):
        if not (0 < self.free_flow_time < math.inf):
            raise ValueError(
                f"free_flow_time must be finite and > 0, got {self.free_flow_time}"
            )
        if not (0 < self.capacity < math.inf):
            raise ValueError(f"capacity must be finite and > 0, got {self.capacity}")
        if not (0 <= self.bpr_alpha < math.inf):
            raise ValueError(f"bpr_alpha must be finite and >= 0, got {self.bpr_alpha}")
        if not (1 <= self.bpr_beta < math.inf):
            raise ValueError(f"bpr_beta must be finite and >= 1, got {self.bpr_beta}")
        if self.has_ers:
            if self.ers_power_kw is None or not (0 < self.ers_power_kw < math.inf):
                raise ValueError(
                    "ers_power_kw must be finite and > 0 on an ERS link, "
                    f"got {self.ers_power_kw}"
                )
        elif self.ers_power_kw is not None:
            raise ValueError("ers_power_kw given for a link without ERS")

    def same_bpr(self, other: "LinkParams") -> bool:
        """True if both links have identical travel-time functions."""
        return (
            self.free_flow_time == other.free_flow_time
            and self.capacity == other.capacity
            and self.bpr_alpha == other.bpr_alpha
            and self.bpr_beta == other.bpr_beta
        )


@dataclass(frozen=True)
class Network:
    """Two parallel links on one OD pair; link 1 is the ERS link."""

    link1: LinkParams
    link2: LinkParams

    def __post_init__(self):
        if not self.link1.has_ers:
            raise ValueError("link1 must carry the ERS")
        if self.link2.has_ers:
            raise ValueError("link2 must not carry the ERS")


@dataclass(frozen=True)
class Preferences:
    """Money-metric taste ratios shared by the whole fleet.

    vot: JPY per minute of travel time.
    voe: JPY per unit of charging utility (1/soc - 1).
    """

    vot: float
    voe: float

    def __post_init__(self):
        if not (0 < self.vot < math.inf):
            raise ValueError(f"vot must be finite and > 0, got {self.vot}")
        if not (0 < self.voe < math.inf):
            raise ValueError(f"voe must be finite and > 0, got {self.voe}")


@dataclass(frozen=True)
class UniformContinuum:
    """SoC spread uniformly over (s_lo, s_hi) with the given total mass."""

    s_lo: float
    s_hi: float
    mass: float

    def __post_init__(self):
        if not (0.0 < self.s_lo < 1.0):
            raise ValueError(f"s_lo must be in (0,1), got {self.s_lo}")
        if not (0.0 < self.s_hi < 1.0):
            raise ValueError(f"s_hi must be in (0,1), got {self.s_hi}")
        if self.s_lo >= self.s_hi:
            # A degenerate continuum would make count_below discontinuous;
            # use DiscreteAgents with equal values instead.
            raise ValueError(
                f"s_lo must be < s_hi, got [{self.s_lo}, {self.s_hi}]"
            )
        if not (0 < self.mass < math.inf):
            raise ValueError(f"mass must be finite and > 0, got {self.mass}")

    @property
    def total_mass(self) -> float:
        return self.mass

    def count_below(self, s: float) -> float:
        frac = (s - self.s_lo) / (self.s_hi - self.s_lo)
        return self.mass * min(max(frac, 0.0), 1.0)

    def quantile(self, mass: float) -> float:
        frac = min(max(mass / self.mass, 0.0), 1.0)
        return self.s_lo + frac * (self.s_hi - self.s_lo)


@dataclass(frozen=True)
class DiscreteAgents:
    """Finite set of DWPT-EV agents, one vehicle of mass 1 per SoC value.

    soc_values is held in ascending order, whatever order it is given in,
    so pools of the same SoCs compare equal.
    """

    soc_values: tuple[float, ...]

    def __post_init__(self):
        if not self.soc_values:
            raise ValueError("soc_values must be non-empty")
        for v in self.soc_values:
            if not (0.0 < v < 1.0):
                raise ValueError(f"every SoC must be in (0,1), got {v}")
        object.__setattr__(self, "soc_values", tuple(sorted(self.soc_values)))

    @property
    def total_mass(self) -> float:
        return float(len(self.soc_values))

    def count_below(self, s: float) -> float:
        return float(bisect.bisect_left(self.soc_values, s))

    def quantile(self, mass: float) -> float:
        k = min(max(int(math.ceil(mass)), 1), len(self.soc_values))
        return self.soc_values[k - 1]


@dataclass(frozen=True)
class FreeToll:
    """ERS usable by anyone at no charge."""

    @property
    def dwpt_link1_charge(self) -> float:
        return 0.0


@dataclass(frozen=True)
class FixedToll:
    """Fixed price per trip for DWPT-EVs on the ERS link."""

    price: float

    def __post_init__(self):
        if not (0 <= self.price < math.inf):
            raise ValueError(f"toll price must be finite and >= 0, got {self.price}")

    @property
    def dwpt_link1_charge(self) -> float:
        return self.price


@dataclass(frozen=True)
class Scenario:
    """One complete problem instance."""

    total_vehicles: float
    dwpt_ratio: float
    soc: UniformContinuum | DiscreteAgents
    prefs: Preferences
    toll: FreeToll | FixedToll
    network: Network

    def __post_init__(self):
        check_fleet(self.total_vehicles, self.dwpt_ratio)
        expected = self.dwpt_ratio * self.total_vehicles
        if abs(self.soc.total_mass - expected) > 1e-9 * expected:
            raise ValueError(
                f"soc total mass {self.soc.total_mass} does not match "
                f"dwpt_ratio * total_vehicles = {expected}"
            )

    @property
    def n_dwpt(self) -> float:
        return self.soc.total_mass

    @property
    def n_other(self) -> float:
        return (1.0 - self.dwpt_ratio) * self.total_vehicles

    def agent_counts(self) -> tuple[int, int]:
        """(DWPT, OTHER) vehicle counts of an atomic population.

        Raises ValueError unless both class totals are integral.
        """
        n_dwpt, n_other = round(self.n_dwpt), round(self.n_other)
        if abs(self.n_dwpt - n_dwpt) > 1e-9 or abs(self.n_other - n_other) > 1e-9:
            raise ValueError(
                "an agent population needs integral class totals; got "
                f"{self.n_dwpt} DWPT and {self.n_other} OTHER"
            )
        return n_dwpt, n_other


def check_fleet(total_vehicles: float, dwpt_ratio: float) -> None:
    """Fleet domain: total_vehicles finite and > 0, dwpt_ratio in (0,1)."""
    if not (0 < total_vehicles < math.inf):
        raise ValueError(
            f"total_vehicles must be finite and > 0, got {total_vehicles}"
        )
    if not (0.0 < dwpt_ratio < 1.0):
        raise ValueError(f"dwpt_ratio must be in (0,1), got {dwpt_ratio}")


def bpr_time(link: LinkParams, flow: float) -> float:
    """Travel time in minutes: t0 * (1 + alpha * (flow/capacity)^beta)."""
    if flow < 0:
        raise ValueError(f"flow must be >= 0, got {flow}")
    return link.free_flow_time * (
        1.0 + link.bpr_alpha * (flow / link.capacity) ** link.bpr_beta
    )


def charging_value(prefs: Preferences, soc):
    """JPY value to a DWPT-EV of charging on the ERS link, voe*(1/soc - 1),
    for a float or a numpy array of SoCs in (0,1).  It charges when this
    beats the toll plus vot*(t1 - t2); threshold_soc is the inverse."""
    return prefs.voe * (1.0 / soc - 1.0)


def threshold_soc(prefs: Preferences, toll_price: float, t1: float, t2: float) -> float:
    """SoC below which a DWPT-EV prefers the ERS link at the given times.

    Solves charging_value(prefs, s) = toll_price + vot*(t1 - t2).  When
    the right side is <= 0 the ERS link dominates for every SoC in
    (0,1); the sentinel 1.0 is returned.
    """
    gap = toll_price + prefs.vot * (t1 - t2)
    if gap <= 0.0:
        return 1.0
    return prefs.voe / (prefs.voe + gap)
