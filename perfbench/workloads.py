"""The four workloads: seeded inputs, the timed op, and its check.

Each workload builds a pool of ``POOL_SIZE`` inputs from a
``random.Random`` (so the same seed gives the same inputs on any numpy);
a run draws a fresh pool for every pass.  The op is the only timed code.
Every op's output is checked outside the timed region.

``text`` renders an op's output for its sha256; ``check`` returns
``(kind, detail)`` for a failed op, else ``None``, and may record input
properties it measured in ``op.props``.
Kinds listed in ``KNOWN_DEFECTS`` are open defects of the program at the
benchmark's commit (ROADMAP items 2 and 3): they count as failed ops and
leave the run correct.  Any other kind makes the run incorrect.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os
import random
from dataclasses import dataclass, replace

import yaml
from erstoll import analysis, cli, dynamics, equilibrium, harness, model

NEGATIVE_FLOW = "negative-flow crash"
BAND_MISMATCH_ASYM = "band mismatch on asymmetric links"
BAND_EDGE_SYM = "band edge within classify's mass tolerance on symmetric links"
VERIFY_FAILS = "verify_equilibrium"

KNOWN_DEFECTS = {
    "sweep-grid": (),
    "random-scenarios": (NEGATIVE_FLOW, VERIFY_FAILS),
    "bands": (BAND_MISMATCH_ASYM, BAND_EDGE_SYM, NEGATIVE_FLOW),
    "simulate": (),
}


@dataclass
class Op:
    """One pool entry: the op's input plus the properties recorded for it."""

    arg: object
    props: dict


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _asymmetric(scenario: model.Scenario) -> bool:
    return not scenario.network.link1.same_bpr(scenario.network.link2)


def crash_kind(exc: Exception) -> str:
    if isinstance(exc, ValueError) and "flow must be >= 0" in str(exc):
        return NEGATIVE_FLOW
    return f"raised {type(exc).__name__}"


# ---------------------------------------------------------------------------
# sweep-grid: the paper's sweep use through the CLI.


class SweepGrid:
    """``erstoll sweep`` over a seeded 5 x 5 x 4 grid on the bundled network.

    dwpt_ratio takes two values below 0.5 and two at or above it; one op
    in twenty writes the structured-text format instead of CSV.
    """

    name = "sweep-grid"
    POOL_SIZE = (40, 2)  # (normal, tiny)
    PASS_MS = 1000  # op time of one pass at the reference host speed

    def __init__(self, out_dir: str):
        self.out_dir = out_dir

    def pool(self, rng: random.Random, size: int) -> list[Op]:
        ops = []
        for i in range(size):
            prices = sorted(round(rng.uniform(0.0, 400.0), 3) for _ in range(5))
            voes = sorted(round(rng.uniform(20.0, 300.0), 3) for _ in range(5))
            ratios = sorted(
                [round(rng.uniform(0.05, 0.49), 4) for _ in range(2)]
                + [round(rng.uniform(0.5, 0.95), 4) for _ in range(2)]
            )
            fmt = "structured-text" if i % 20 == 19 else "csv"
            path = os.path.join(self.out_dir, f"sweep-{i}.out")
            argv = [
                "sweep",
                "--scenario", "table1.cfg",
                "--axis", "toll.price=" + ",".join(map(repr, prices)),
                "--axis", "prefs.voe=" + ",".join(map(repr, voes)),
                "--axis", "dwpt_ratio=" + ",".join(map(repr, ratios)),
                "--output", path,
                "--format", fmt,
            ]
            cells = len(prices) * len(voes) * len(ratios)
            ops.append(
                Op(
                    (argv, path, fmt, cells),
                    {
                        "cells": cells,
                        "r_at_least_0.5": 0.5,
                        "structured_text": fmt != "csv",
                        "shares_network_with_previous": True,
                        "asymmetric": False,
                    },
                )
            )
        return ops

    @staticmethod
    def run(arg):
        argv, path, _, _ = arg
        return cli.main(argv)

    @staticmethod
    def text(arg, code):
        with open(arg[1]) as f:
            return f"exit {code}\n" + f.read()

    @staticmethod
    def check(op, code):
        _, path, fmt, cells = op.arg
        if code != 0:
            return ("exit code", str(code))
        with open(path, newline="") as f:
            if fmt == "csv":
                rows = list(csv.DictReader(f))
            else:
                rows = yaml.safe_load(f)
        if len(rows) != cells:
            return ("row count", f"{len(rows)} rows for {cells} cells")
        errors = [row["error"] for row in rows if row["error"]]
        if errors:
            return ("error rows", f"{len(errors)} rows, first: {errors[0]}")
        return None


# ---------------------------------------------------------------------------
# Random scenarios shared by random-scenarios and bands.


def _link(rng, n_total, ers=False):
    return model.LinkParams(
        free_flow_time=rng.uniform(2.0, 30.0),
        capacity=n_total * rng.uniform(0.1, 1.0),
        bpr_alpha=rng.uniform(0.05, 1.0),
        bpr_beta=rng.uniform(1.0, 8.0),
        has_ers=ers,
        ers_power_kw=rng.uniform(10.0, 100.0) if ers else None,
    )


def random_scenario(rng: random.Random, ratio: float, symmetric: bool) -> model.Scenario:
    """Log-uniform N in [10, 1e7], BPR beta in [1, 8], uniform SoC pool.

    Free-flow time, capacity, alpha and beta are drawn per link unless
    the links are symmetric, in which case link 2 copies link 1.
    """
    n_total = 10.0 ** rng.uniform(1.0, 7.0)
    link1 = _link(rng, n_total, ers=True)
    if symmetric:
        link2 = replace(link1, has_ers=False, ers_power_kw=None)
    else:
        link2 = _link(rng, n_total)
    s_lo = rng.uniform(0.05, 0.5)
    s_hi = rng.uniform(s_lo + 0.05, 0.95)
    return model.Scenario(
        total_vehicles=n_total,
        dwpt_ratio=ratio,
        soc=model.UniformContinuum(s_lo, s_hi, ratio * n_total),
        prefs=model.Preferences(vot=rng.uniform(10.0, 100.0), voe=rng.uniform(20.0, 300.0)),
        toll=model.FixedToll(rng.uniform(0.0, 300.0)),
        network=model.Network(link1, link2),
    )


class RandomScenarios:
    """``harness.solve_row`` on scenarios that each have their own network."""

    name = "random-scenarios"
    POOL_SIZE = (4000, 20)
    PASS_MS = 910

    def pool(self, rng: random.Random, size: int) -> list[Op]:
        ops = []
        for _ in range(size):
            s = random_scenario(rng, rng.uniform(0.05, 0.95), symmetric=False)
            props = {
                "r_at_least_0.5": s.dwpt_ratio >= 0.5,
                "asymmetric": _asymmetric(s),
                "shares_network_with_previous": False,
            }
            ops.append(Op(s, props))
        return ops

    @staticmethod
    def run(s):
        return harness.solve_row(s)

    @staticmethod
    def text(s, row):
        return repr(row)

    @staticmethod
    def check(op, row):
        s = op.arg
        try:
            result, regime = equilibrium.solve(s)
        except Exception as exc:  # the row should carry the same error
            result = None
            op.props["regime"] = f"raised {type(exc).__name__}"
        else:
            op.props["regime"] = regime.value
        if row.error:
            kind = NEGATIVE_FLOW if "flow must be >= 0" in row.error else "error row"
            return (kind, row.error)
        if result is None:
            return ("row without the error solve raises", repr(row))
        if (row.x1_d, row.x1_o, row.t1) != (result.x1_d, result.x1_o, result.t1):
            return ("row differs from solve", repr(row))
        problems = equilibrium.verify_equilibrium(s, result)
        if problems:
            return (VERIFY_FAILS, problems[0])
        return None


# ---------------------------------------------------------------------------
# bands


class Bands:
    """``analysis.toll_bands`` on seeded fixed-toll scenarios.

    ``HIGH_SHARE`` of the pool has r >= 0.5 and the rest r < 0.5; each
    part is half symmetric, half asymmetric links.  The mix is not 50/50:
    the r < 0.5 calls and about a fifth of the others take 0.01-0.3 ms,
    the rest 1-10 ms.  At 50/50 the median sat on the gap between the
    two populations and moved by 30% between seeds; at 75% it sat just
    above the gap, where it moved 15% more than the throughput did.
    """

    name = "bands"
    POOL_SIZE = (1000, 10)
    PASS_MS = 3050
    HIGH_SHARE = 0.9

    def pool(self, rng: random.Random, size: int) -> list[Op]:
        n_high = round(self.HIGH_SHARE * size)
        ops = []
        for i in range(size):
            high = i < n_high
            ratio = rng.uniform(0.5, 0.95) if high else rng.uniform(0.05, 0.4999)
            symmetric = rng.random() < 0.5
            s = random_scenario(rng, ratio, symmetric)
            ops.append(
                Op(
                    s,
                    {
                        "r_at_least_0.5": high,
                        "asymmetric": not symmetric,
                        "shares_network_with_previous": False,
                    },
                )
            )
        rng.shuffle(ops)
        return ops

    @staticmethod
    def run(s):
        return analysis.toll_bands(s)

    @staticmethod
    def text(s, bands):
        return repr([(b.pattern.value, b.c_low, b.c_high) for b in bands])

    @staticmethod
    def check(op, bands):
        s = op.arg
        edges = [(b.c_low, b.c_high) for b in bands]
        tiled = (
            bool(bands)
            and bands[0].c_low == 0.0
            and math.isinf(bands[-1].c_high)
            and all(hi == lo for (_, hi), (lo, _) in zip(edges, edges[1:]))
        )
        if not tiled:
            return ("bands do not tile [0, inf)", repr(edges))
        for k, band in enumerate(bands):
            if math.isinf(band.c_high):
                prices = ((band.c_low + 1.0, None),)
            else:
                # The midpoint, and points 1% of the width inside each edge
                # with the band across that edge.
                width = band.c_high - band.c_low
                prices = (
                    (band.c_low + 0.01 * width, bands[k - 1] if k else None),
                    (band.c_low + 0.5 * width, None),
                    (band.c_high - 0.01 * width, bands[k + 1]),
                )
            for price, across in prices:
                repriced = replace(s, toll=model.FixedToll(price))
                try:
                    result, _ = equilibrium.solve(repriced)
                except ValueError as exc:
                    return (crash_kind(exc), str(exc))
                label = analysis.classify(repriced, result)
                if label is band.pattern:
                    continue
                if _asymmetric(s):
                    kind = BAND_MISMATCH_ASYM
                elif (
                    across is not None
                    and label is across.pattern
                    and label in _ROUNDED_TO_ZERO
                    and _ROUNDED_TO_ZERO[label](result) > 0.0
                ):
                    # The band is right for the exact flows; classify
                    # rounded a positive flow below its mass tolerance to
                    # zero.  Seen in about 1 of 10 000 inputs.
                    kind = BAND_EDGE_SYM
                else:
                    kind = "band mismatch on symmetric links"
                return (kind, f"{band.pattern.value} band, {label.value} at {price}")
        return None


# The flow that classify treats as zero, within PATTERN_MASS_TOL * N
# vehicles, when it returns each of these labels.
_ROUNDED_TO_ZERO = {
    analysis.PatternLabel.B_i_a: lambda r: r.x2_d,
    analysis.PatternLabel.B_ii_a: lambda r: r.x2_d,
    analysis.PatternLabel.B_i_b: lambda r: r.x1_d,
    analysis.PatternLabel.B_ii_b: lambda r: r.x1_d,
    analysis.PatternLabel.B_ii_c1: lambda r: abs(r.x1 - r.x2),
}


# ---------------------------------------------------------------------------
# simulate


class Simulate:
    """Best-response dynamics then the brute-force oracle, N in [1k, 10k].

    Congested: link capacity N/3, a random start, 6 sizes log-spaced over
    3k-9.8k.  Uncongested: capacity N/0.75, every agent starts on link 2,
    7 sizes over 1k-9.8k.  Both use sequential order.  The oracle refuses
    more than 10 000 agents, which caps N.

    The scenario is otherwise the bundled table1.cfg (r = 0.2, SoC
    0.1-0.9), with the toll drawn per op from [90, 110] so that no two
    ops share a scenario.  Wider draws of tolls, charging values and
    fleet mixes made rounds per op range 5-87 and the cost of a pass vary
    several-fold from seed to seed; over this toll range an uncongested
    op takes 3 rounds and a congested one 11-26.  So the sizes are fixed,
    and the seed draws the tolls and the random starts.
    """

    name = "simulate"
    N_MAX = 9800
    # (initial assignment, N / capacity, smallest N, number of sizes)
    CASES = (("random", 3.0, 3000, 6), ("all_link2", 0.75, 1000, 7))
    POOL_SIZE = (sum(case[3] for case in CASES), len(CASES))
    PASS_MS = 2150

    def pool(self, rng: random.Random, size: int) -> list[Op]:
        base = harness.table1_scenario()
        ops = []
        for initial, k, n_min, strata in self.CASES:
            for j in range(strata if size == self.POOL_SIZE[0] else 1):
                n_total = 5 * round(n_min * (self.N_MAX / n_min) ** (j / (strata - 1)) / 5)
                cap = n_total / k
                s = replace(
                    base,
                    total_vehicles=float(n_total),
                    soc=replace(base.soc, mass=base.dwpt_ratio * n_total),
                    toll=model.FixedToll(round(rng.uniform(90.0, 110.0), 3)),
                    network=model.Network(
                        replace(base.network.link1, capacity=cap),
                        replace(base.network.link2, capacity=cap),
                    ),
                )
                ops.append(
                    Op(
                        (s, initial, rng.randrange(1 << 30)),
                        {
                            "congested": initial == "random",
                            "n": n_total,
                            "r_at_least_0.5": False,
                            "asymmetric": False,
                            "shares_network_with_previous": False,
                        },
                    )
                )
        return ops

    @staticmethod
    def run(arg):
        s, initial, seed = arg
        d = dynamics.discretize_scenario(s)
        agents = dynamics.agents_from_scenario(d, initial=initial, seed=seed)
        traj = dynamics.run(agents, d.network, d.prefs, d.toll, order_policy="sequential")
        oracle = equilibrium.brute_force_equilibrium(d)
        return d, agents, traj, oracle

    @staticmethod
    def text(arg, out):
        _, _, traj, oracle = out
        return repr(
            (
                [(r.round_index, r.x1_d, r.x1_o, r.switches, r.potential) for r in traj.snapshots],
                traj.converged,
                (oracle.x1_d, oracle.x1_o),
            )
        )

    @staticmethod
    def check(op, out):
        d, agents, traj, oracle = out
        last = traj.snapshots[-1]
        if not traj.converged:
            return ("not converged", f"{traj.terminal_round} rounds")
        dyn_gain = _max_switch_gain(
            d, [(a.current_link == 1, _bonus(d, a.soc)) for a in agents]
        )
        if dyn_gain > model.INDIFFERENCE_EPS:
            return ("final state not Nash", f"max gain {dyn_gain}")
        oracle_gain = _max_switch_gain(d, _oracle_placement(d, oracle))
        if oracle_gain > model.INDIFFERENCE_EPS:
            return ("oracle end state not Nash", f"max gain {oracle_gain}")
        # Link-1 flows within one vehicle; DWPT-EVs on link 1 within one
        # plus those that may sit on either link near the dynamics' flow.
        result, _ = equilibrium.solve(d)
        x1_dyn = last.x1_d + last.x1_o
        tol_d = 1 + _indifferent_dwpt(d, round(x1_dyn))
        for ref_name, ref in (("oracle", oracle), ("solve", result)):
            if abs(last.x1_d - ref.x1_d) > tol_d or abs(x1_dyn - ref.x1) > 1.0:
                return (
                    f"flows differ from {ref_name}",
                    f"x1_d {last.x1_d} vs {ref.x1_d} (tol {tol_d}), x1 {x1_dyn} vs {ref.x1}",
                )
        return None


def _bonus(d, soc) -> float:
    """A vehicle's link-1 bonus: a DWPT-EV's charging value less the toll."""
    if soc is None:
        return 0.0
    return d.prefs.voe * (1.0 / soc - 1.0) - d.toll.dwpt_link1_charge


def _max_switch_gain(d, placement) -> float:
    """Largest gain from a switch, over ``(on_link1, bonus)`` per vehicle.

    Recomputed here, independently of the simulator's and the oracle's
    own loops; at a Nash state it is at most INDIFFERENCE_EPS.
    """
    placement = list(placement)
    net, vot = d.network, d.prefs.vot
    x1 = sum(1 for on1, _ in placement if on1)
    x2 = len(placement) - x1
    leave1 = vot * (model.bpr_time(net.link1, x1) - model.bpr_time(net.link2, x2 + 1))
    leave2 = vot * (model.bpr_time(net.link2, x2) - model.bpr_time(net.link1, x1 + 1))
    return max(leave1 - b if on1 else leave2 + b for on1, b in placement)


def _oracle_placement(d, oracle):
    """A placement with the oracle's class counts that is Nash if any is.

    The oracle reports counts only.  With x1_d DWPT-EVs on link 1, the
    placement that puts the x1_d largest bonuses there has the smallest
    largest gain, so it is Nash exactly when the counts admit a Nash
    profile.
    """
    bonuses = sorted((_bonus(d, s) for s in d.soc.soc_values), reverse=True)
    x1_d, x1_o = round(oracle.x1_d), round(oracle.x1_o)
    n_other = round(d.n_other)
    return (
        [(True, b) for b in bonuses[:x1_d]]
        + [(False, b) for b in bonuses[x1_d:]]
        + [(True, 0.0)] * x1_o
        + [(False, 0.0)] * (n_other - x1_o)
    )


def _indifferent_dwpt(d, x1: int) -> int:
    """DWPT-EVs whose link preference one vehicle can reverse near flow x1.

    At link-1 flow x a DWPT-EV stays on link 1 when its bonus is at least
    G_lo(x) = vot*(t1(x) - t2(x2+1)) and stays on link 2 when it is at
    most G_hi(x) = vot*(t1(x+1) - t2(x2)).  Every DWPT-EV with a bonus in
    [G_lo, G_hi] can sit on either link in a correct atomic equilibrium,
    so equilibria whose link-1 flows are within one vehicle of each other
    can differ by that many DWPT-EVs over flows x1-1 .. x1+1.  The band
    depends on the reference flow x1 only, not on the flows compared.
    """
    net, vot, n = d.network, d.prefs.vot, round(d.total_vehicles)
    flows = [x for x in (x1 - 1, x1, x1 + 1) if 0 <= x < n]
    lo = min(vot * (model.bpr_time(net.link1, x) - model.bpr_time(net.link2, n - x + 1))
             for x in flows) - model.INDIFFERENCE_EPS
    hi = max(vot * (model.bpr_time(net.link1, x + 1) - model.bpr_time(net.link2, n - x))
             for x in flows) + model.INDIFFERENCE_EPS
    return sum(1 for s in d.soc.soc_values if lo <= _bonus(d, s) <= hi)


WORKLOADS = {
    "sweep-grid": SweepGrid,
    "random-scenarios": RandomScenarios,
    "bands": Bands,
    "simulate": Simulate,
}
