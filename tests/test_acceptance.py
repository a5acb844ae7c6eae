"""Acceptance gate: the eight externally pinned behaviors of the package.

Each test covers one numbered criterion and prints a single PASS line
when its assertions hold (pytest's own FAILED line marks the converse).
Tolerances are stated inline next to each assertion.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from erstoll.analysis import (
    PatternLabel,
    classify,
    metrics,
    toll_bands,
)
from erstoll.cli import main
from erstoll.dynamics import (
    Population,
    agents_from_scenario,
    class_flows,
    discretize_scenario,
    run,
)
from erstoll.equilibrium import brute_force_equilibrium, solve
from erstoll.harness import (
    load_scenario,
    table1_scenario,
    table2_rows,
)
from erstoll.model import FixedToll, FreeToll

from conftest import (
    band_containing,
    base_scenario,
    discrete_scenario,
    random_discrete_scenario,
    write_scenario,
)


def _report(number: int, title: str) -> None:
    print(f"criterion {number} ({title}): PASS")


def test_criterion_1_five_scenario_comparison():
    start = time.monotonic()
    rows = table2_rows()
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"comparison took {elapsed:.3f}s, budget 1s"

    golden_s = [0.50, 0.6667, 0.40, 0.3333, 0.60]
    golden_x1d = [100.0, 141.7, 75.0, 58.3, 125.0]
    golden_tcv = [575.3, 814.6, 431.3, 335.5, 718.8]
    golden_revenue = [10000.7, 7083.7, 11251.0, 5834.0, 12500.7]
    assert len(rows) == 5
    for row, s, x1d, tcv, rev in zip(
        rows, golden_s, golden_x1d, golden_tcv, golden_revenue
    ):
        assert row.error == ""
        assert row.s_thres == pytest.approx(s, abs=0.005)
        assert row.x1_d == pytest.approx(x1d, abs=0.1)
        assert row.x1 == pytest.approx(500.0, abs=1e-6)
        assert row.x2_d + row.x2_o == pytest.approx(500.0, abs=1e-6)
        assert row.t1 == pytest.approx(11.5, abs=1e-9)
        assert row.tcv == pytest.approx(tcv, abs=2.0)
        assert row.revenue == pytest.approx(rev, abs=2.0)
        assert row.ttt == pytest.approx(11500.0, rel=1e-6)
    _report(1, "five-scenario comparison within stated tolerances")


def test_criterion_2_toll_band_boundaries():
    scenario = table1_scenario()
    bands = toll_bands(scenario)
    assert [b.pattern for b in bands] == [
        PatternLabel.B_i_a,
        PatternLabel.B_i_c,
        PatternLabel.B_i_b,
    ]
    # closed-form edges: voe*(1/s_hi - 1) and voe*(1/s_lo - 1)
    assert bands[0].c_high == pytest.approx(100.0 * (1 / 0.9 - 1), abs=0.01)
    assert bands[1].c_high == pytest.approx(100.0 * (1 / 0.1 - 1), abs=0.01)

    mismatches = []
    for price in np.linspace(0.0, 1000.0, 200):
        cell = replace(scenario, toll=FixedToll(float(price)))
        result, _ = solve(cell)
        label = classify(cell, result)
        band = band_containing(bands, float(price))
        if label is not band.pattern:
            mismatches.append((float(price), label, band.pattern))
    assert not mismatches, f"grid disagreements: {mismatches[:5]}"
    _report(2, "band edges 11.11/900 +-0.01, 200-point grid consistent")


def test_criterion_3_oracle_equivalence():
    rng = np.random.default_rng(2024)
    start = time.monotonic()
    worst = 0.0
    for _ in range(50):
        scenario = random_discrete_scenario(rng, n_max=200)
        result, _ = solve(scenario)
        oracle = brute_force_equilibrium(scenario)
        for field in ("x1_d", "x2_d", "x1_o", "x2_o"):
            gap = abs(getattr(result, field) - getattr(oracle, field))
            worst = max(worst, gap)
            assert gap <= 1.0 + 1e-9, f"{field} differs by {gap} vehicles"
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"50 instances took {elapsed:.2f}s, budget 10s"
    _report(3, f"oracle within 1 vehicle on 50 instances (worst {worst:.3f})")


def test_criterion_4_low_share_structure():
    ratios = np.linspace(0.05, 0.45, 5)
    prices = np.linspace(0.0, 800.0, 5)
    voes = (50.0, 100.0, 150.0, 200.0)
    cells = 0
    for ratio in ratios:
        for voe in voes:
            for price in prices:
                cell = base_scenario(
                    ratio=float(ratio), voe=voe, toll=FixedToll(float(price))
                )
                result, _ = solve(cell)
                m = metrics(cell, result)
                assert result.x1 == pytest.approx(result.x2, abs=1e-6)
                assert m.conventional_so
                cells += 1
            free = base_scenario(ratio=float(ratio), voe=voe, toll=FreeToll())
            result, _ = solve(free)
            m = metrics(free, result)
            assert result.x1 == pytest.approx(result.x2, abs=1e-6)
            assert result.x1_d == pytest.approx(ratio * 1000.0, abs=1e-6)
            assert m.conventional_so
            assert m.ers_optimum
    assert cells == 100
    _report(4, "balanced flows and minimum-time totals for dwpt_ratio < 0.5")


def test_criterion_5_high_share_properties():
    # toll-free: whenever the ERS link is slower, no OTHER vehicle uses it
    binding = 0
    for ratio in np.linspace(0.55, 0.95, 9):
        cell = base_scenario(ratio=float(ratio), toll=FreeToll())
        result, _ = solve(cell)
        if result.t1 > result.t2 + 1e-9:
            binding += 1
            assert result.x1_o == pytest.approx(0.0, abs=1e-6)
    assert binding > 0, "grid never produced t1 > t2; check setup"

    # the all-charge corner is self-consistent: even the highest-SoC
    # vehicle still gains by charging at the realized times
    eager = base_scenario(ratio=0.55, s_lo=0.05, s_hi=0.3, toll=FixedToll(50.0))
    result, _ = solve(eager)
    assert classify(eager, result) is PatternLabel.B_ii_a
    price = eager.toll.price
    worst_gain = eager.prefs.voe * (1 / 0.3 - 1) - eager.prefs.vot * (
        result.t1 - result.t2
    )
    assert price < worst_gain

    # total travel time is minimal exactly when flows balance
    saw_balanced = saw_corner = False
    for price in np.linspace(0.0, 1200.0, 25):
        cell = base_scenario(ratio=0.6, toll=FixedToll(float(price)))
        result, _ = solve(cell)
        m = metrics(cell, result)
        balanced = abs(result.x1 - result.x2) <= 1e-3
        if m.conventional_so:
            assert balanced
            saw_balanced = True
        if abs(result.x1 - result.x2) <= 1e-6:
            assert m.conventional_so
        if not balanced:
            assert not m.conventional_so
            saw_corner = True
    assert saw_balanced and saw_corner
    _report(5, "high-share corner, all-charge, and balance-only-optimum checks")


def test_criterion_6_dynamics_convergence():
    rng = np.random.default_rng(11)
    for _ in range(20):
        scenario = random_discrete_scenario(rng, n_max=120)
        result, _ = solve(scenario)
        expected = {
            "x1_d": result.x1_d,
            "x2_d": result.x2_d,
            "x1_o": result.x1_o,
            "x2_o": result.x2_o,
        }
        for init_seed in range(10):
            agents = agents_from_scenario(scenario, initial="random", seed=init_seed)
            traj = run(
                agents,
                scenario.network,
                scenario.prefs,
                scenario.toll,
                order_policy="random",
                seed=init_seed,
            )
            assert traj.converged
            assert traj.total_switches <= 10**6
            potentials = [snap.potential for snap in traj.snapshots]
            for before, after in zip(potentials, potentials[1:]):
                assert after <= before + 1e-9 * (1.0 + abs(before))
            x1_d, x1_o, x2_d, x2_o = class_flows(agents)
            endpoint = {"x1_d": x1_d, "x2_d": x2_d, "x1_o": x1_o, "x2_o": x2_o}
            for cell, value in expected.items():
                assert endpoint[cell] == pytest.approx(value, abs=1.0 + 1e-9)

    # the split state (all OTHER on the ERS link, all DWPT off it) is
    # abandoned within one round when DWPT vehicles dominate
    mixed = discretize_scenario(base_scenario(total=100.0, ratio=0.8, toll=FreeToll()))
    agents = Population(
        np.array(mixed.soc.soc_values), np.array([False] * 80 + [True] * 20)
    )
    traj = run(agents, mixed.network, mixed.prefs, mixed.toll)
    assert traj.converged
    assert traj.snapshots[1].switches > 0
    assert (traj.snapshots[1].x1_d, traj.snapshots[1].x1_o) != (0.0, 20.0)
    _report(6, "20x10 runs converge, potential monotone, endpoints within 1")


def test_criterion_7_monotonicity():
    s_prev = None
    for price in np.linspace(0.0, 990.0, 100):
        cell = base_scenario(toll=FixedToll(float(price)))
        result, _ = solve(cell)
        if s_prev is not None:
            assert result.s_thres < s_prev - 1e-12
        s_prev = result.s_thres

    s_prev = None
    for voe in np.linspace(10.0, 300.0, 100):
        cell = base_scenario(voe=float(voe))
        result, _ = solve(cell)
        if s_prev is not None:
            assert result.s_thres > s_prev + 1e-12
        s_prev = result.s_thres

    tcv_prev = None
    for price in np.linspace(0.0, 1000.0, 100):
        cell = base_scenario(ratio=0.3, toll=FixedToll(float(price)))
        result, _ = solve(cell)
        tcv = metrics(cell, result).tcv
        if tcv_prev is not None:
            assert tcv <= tcv_prev + 1e-9
        tcv_prev = tcv
    _report(7, "s_thres monotone in price and charging value, tcv non-increasing")


def test_criterion_8_round_trip_and_determinism(tmp_path):
    uniform = base_scenario(ratio=0.35, vot=62.5, toll=FixedToll(87.5))
    path = tmp_path / "uniform.cfg"
    write_scenario(uniform, path)
    assert load_scenario(path) == uniform

    discrete = discrete_scenario([0.15, 0.5, 0.85], n_other=5, toll=FreeToll())
    path = tmp_path / "discrete.cfg"
    write_scenario(discrete, path)
    assert load_scenario(path) == discrete

    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["table2", "--output", str(first)]) == 0
    assert main(["table2", "--output", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    _report(8, "config round-trip identity and byte-identical table2 output")
