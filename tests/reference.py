"""A decimal accuracy reference for the roots of erstoll.equilibrium._root.

Each map that _root roots is evaluated here again in stdlib `decimal`,
from the exact values of the scenario's doubles, at 36 significant
digits: the balanced flow's time gap t1(x) - t2(N - x), a corner's
crossing toll - price(n) (a continuum's, or a discrete pool's within its
marginal SoC group), and the system optimum's marginal-cost gap.
`reference_root` bisects a map to 1e-30*N on the bracket _root was
given, with _root's clamp: lo if the map is >= 0 there, hi if it is
<= 0 there.

Each map also returns a bound on the rounding error of erstoll's float
evaluation of it, from a model of that arithmetic in which every
operation errs by at most EPS of its result and u**beta by beta/2 + 1 of
that.  Where both links run near free flow, t1 - t2 cancels almost all
of t1 and t2, and those roundings alone can move the float map's root
by more than the root's own tolerance; `rounding_reach` says how far.
"""

from __future__ import annotations

import decimal
from decimal import Decimal

from erstoll.model import DiscreteAgents, LinkParams, Scenario

CONTEXT = decimal.Context(prec=36)
WIDTH_FACTOR = Decimal("1e-30")  # the bisection's last bracket, a fraction of N
EPS = Decimal(2) ** -52  # twice a double's unit roundoff


def _time(link: LinkParams, x: Decimal) -> tuple[Decimal, Decimal]:
    """BPR time t0*(1 + alpha*(x/capacity)**beta) at flow x (an integer
    power exactly, else by exp and ln) and its float rounding bound."""
    u, beta = x / Decimal(link.capacity), link.bpr_beta
    if u == 0:
        power = Decimal(0)
    elif beta == int(beta):
        power = u ** int(beta)
    else:
        power = (Decimal(beta) * u.ln()).exp()
    t0 = Decimal(link.free_flow_time)
    t = t0 * (1 + Decimal(link.bpr_alpha) * power)
    return t, EPS * (t + (Decimal(beta) / 2 + 1) * (t - t0))


def time_gap(link1: LinkParams, link2: LinkParams, n_total: float, x: Decimal):
    """(t1(x) - t2(N - x), its rounding bound)."""
    (t1, e1), (t2, e2) = _time(link1, x), _time(link2, Decimal(n_total) - x)
    return t1 - t2, e1 + e2 + EPS * abs(t1 - t2)


def marginal_gap(link1: LinkParams, link2: LinkParams, n_total: float, x: Decimal):
    """(c1(x) - c2(N - x), its rounding bound), each marginal cost
    d(x*t(x))/dx = t + beta*(t - t0)."""

    def cost(link: LinkParams, flow: Decimal) -> tuple[Decimal, Decimal]:
        t, err = _time(link, flow)
        beta = Decimal(link.bpr_beta)
        c = t + beta * (t - Decimal(link.free_flow_time))
        return c, (beta + 1) * err + 2 * EPS * c

    (c1, e1), (c2, e2) = cost(link1, x), cost(link2, Decimal(n_total) - x)
    return c1 - c2, e1 + e2 + EPS * abs(c1 - c2)


def corner_map(scenario: Scenario, other_on_1: bool, hi: float):
    """n -> (toll - charging_value(s) + vot*(t1 - t2), its rounding
    bound) with n DWPT-EVs on link 1, and every OTHER-V on link 1
    (other_on_1) or on link 2.  The marginal SoC s is a continuum's
    quantile of n, or, for a discrete pool, the SoC of the group whose
    bracket ends at hi."""
    prefs, soc, network = scenario.prefs, scenario.soc, scenario.network
    toll, vot, voe = (
        Decimal(scenario.toll.dwpt_link1_charge), Decimal(prefs.vot), Decimal(prefs.voe)
    )
    others = Decimal(scenario.n_other) if other_on_1 else Decimal(0)
    discrete = isinstance(soc, DiscreteAgents)
    if discrete:
        fixed = Decimal(soc.quantile(hi))
    else:
        s_lo, s_hi, mass = Decimal(soc.s_lo), Decimal(soc.s_hi), Decimal(soc.mass)

    def crossing(n: Decimal):
        if discrete:
            s = fixed
        else:
            s = s_lo + (s_hi - s_lo) * min(max(n / mass, Decimal(0)), Decimal(1))
        gap, err = time_gap(network.link1, network.link2, scenario.total_vehicles, n + others)
        value = toll - voe * (1 / s - 1) + vot * gap
        return value, EPS * (toll + 4 * voe / s + vot * abs(gap) + abs(value)) + vot * err

    return crossing


def stage_map(scenario: Scenario, what: str, hi: float):
    """The decimal map of _root's stage `what` ("balanced flow", "fixed
    point (corner_other_on_1)", ...) on the scenario; hi is the upper end
    of the bracket _root was given."""
    link1, link2, n_total = scenario.network.link1, scenario.network.link2, scenario.total_vehicles
    if what == "balanced flow":
        return lambda x: time_gap(link1, link2, n_total, x)
    if what == "system optimum":
        return lambda x: marginal_gap(link1, link2, n_total, x)
    return corner_map(scenario, what == "fixed point (corner_other_on_1)", hi)


def reference_root(g, lo: float, hi: float, n_total: float) -> Decimal:
    """The root of the non-decreasing decimal map g on [lo, hi], clamped
    as _root clamps, bisected to a bracket of 1e-30*n_total."""
    with decimal.localcontext(CONTEXT):
        a, b = Decimal(lo), Decimal(hi)
        if g(a)[0] >= 0:
            return a
        if g(b)[0] <= 0:
            return b
        width = WIDTH_FACTOR * Decimal(n_total)
        while b - a > width:
            mid = (a + b) / 2
            if g(mid)[0] < 0:
                a = mid
            else:
                b = mid
        return (a + b) / 2


def rounding_reach(g, root: Decimal, lo: float, hi: float, n_total: float) -> Decimal:
    """How far the float map's roundings can move its root from root:
    g's rounding bound there over its slope, a central difference over
    1e-12*n_total within [lo, hi] (inf where g is flat)."""
    with decimal.localcontext(CONTEXT):
        h = Decimal("1e-12") * Decimal(n_total)
        a, b = max(root - h, Decimal(lo)), min(root + h, Decimal(hi))
        rise = g(b)[0] - g(a)[0]
        return g(root)[1] * (b - a) / rise if rise > 0 else Decimal("Infinity")
