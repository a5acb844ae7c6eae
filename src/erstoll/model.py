"""Domain types and utility functions for a two-link electric road system.

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
Raw (un-normalised) taste coefficients are not representable in this model;
link choice is invariant to the normalisation, so no behaviour is lost.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
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


class SocDistribution:
    """State-of-charge population of the DWPT-EV fleet.

    Implementations expose the same counting interface:

    * ``total_mass`` - fleet size in vehicles
    * ``s_min`` / ``s_max`` - support bounds
    * ``count_below(s)`` - vehicle mass with SoC strictly below ``s``
      (non-decreasing in ``s``, 0 at the lower support bound, total mass at 1)
    * ``quantile(mass)`` - SoC below which the given mass lies
    """

    @property
    def total_mass(self) -> float:
        raise NotImplementedError

    @property
    def s_min(self) -> float:
        raise NotImplementedError

    @property
    def s_max(self) -> float:
        raise NotImplementedError

    def count_below(self, s: float) -> float:
        raise NotImplementedError

    def quantile(self, mass: float) -> float:
        raise NotImplementedError


@dataclass(frozen=True)
class UniformContinuum(SocDistribution):
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

    @property
    def s_min(self) -> float:
        return self.s_lo

    @property
    def s_max(self) -> float:
        return self.s_hi

    def count_below(self, s: float) -> float:
        frac = (s - self.s_lo) / (self.s_hi - self.s_lo)
        return self.mass * min(max(frac, 0.0), 1.0)

    def quantile(self, mass: float) -> float:
        frac = min(max(mass / self.mass, 0.0), 1.0)
        return self.s_lo + frac * (self.s_hi - self.s_lo)


@dataclass(frozen=True)
class DiscreteAgents(SocDistribution):
    """Finite set of DWPT-EV agents, one vehicle of mass 1 per SoC value."""

    soc_values: tuple[float, ...]
    _sorted: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        values = tuple(float(v) for v in self.soc_values)
        if not values:
            raise ValueError("soc_values must be non-empty")
        for v in values:
            if not (0.0 < v < 1.0):
                raise ValueError(f"every SoC must be in (0,1), got {v}")
        object.__setattr__(self, "soc_values", values)
        object.__setattr__(self, "_sorted", tuple(sorted(values)))

    @property
    def total_mass(self) -> float:
        return float(len(self.soc_values))

    @property
    def s_min(self) -> float:
        return self._sorted[0]

    @property
    def s_max(self) -> float:
        return self._sorted[-1]

    def count_below(self, s: float) -> float:
        return float(bisect.bisect_left(self._sorted, s))

    def quantile(self, mass: float) -> float:
        k = min(max(int(math.ceil(mass)), 1), len(self.soc_values))
        return self._sorted[k - 1]


class TollSystem:
    """Pricing regime for the ERS link; only DWPT-EVs using link 1 pay."""

    @property
    def dwpt_link1_charge(self) -> float:
        raise NotImplementedError


@dataclass(frozen=True)
class FreeToll(TollSystem):
    """ERS usable by anyone at no charge."""

    @property
    def dwpt_link1_charge(self) -> float:
        return 0.0


@dataclass(frozen=True)
class FixedToll(TollSystem):
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
    soc: SocDistribution
    prefs: Preferences
    toll: TollSystem
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


def charging_utility(soc: float) -> float:
    """Charging utility 1/soc - 1; strictly decreasing, positive on (0,1)."""
    if not (0.0 < soc < 1.0):
        raise ValueError(f"soc must be in (0,1), got {soc}")
    return 1.0 / soc - 1.0


def utility(
    vclass: VehicleClass,
    link: int,
    t1: float,
    t2: float,
    toll: TollSystem,
    prefs: Preferences,
    soc: float | None = None,
) -> float:
    """Money-metric utility (JPY) of one vehicle choosing the given link.

    OTHER-Vs pay nothing on either link, so their utility is -vot * t_a.
    A DWPT-EV on link 1 additionally pays the toll and gains
    voe * (1/soc - 1) from charging.
    """
    if link not in (1, 2):
        raise ValueError(f"link must be 1 or 2, got {link}")
    if t1 < 0 or t2 < 0:
        raise ValueError("travel times must be >= 0")
    if vclass is VehicleClass.DWPT:
        if soc is None:
            raise ValueError("soc is required for a DWPT vehicle")
        if link == 1:
            return (
                -prefs.vot * t1
                - toll.dwpt_link1_charge
                + prefs.voe * charging_utility(soc)
            )
        return -prefs.vot * t2
    if soc is not None:
        raise ValueError("soc is only meaningful for DWPT vehicles")
    return -prefs.vot * (t1 if link == 1 else t2)
