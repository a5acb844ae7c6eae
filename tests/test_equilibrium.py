import numpy as np
import pytest
from conftest import (
    base_scenario,
    discrete_scenario,
    evenly_spaced_socs,
    random_discrete_scenario,
)
from dataclasses import replace

from erstoll.equilibrium import (
    ConvergenceError,
    RegimeTag,
    brute_force_equilibrium,
    solve,
    threshold_soc,
    verify_equilibrium,
)
from erstoll.model import (
    DiscreteAgents,
    FixedToll,
    FreeToll,
    LinkParams,
    Network,
    Preferences,
    Scenario,
    UniformContinuum,
)

PREFS = Preferences(vot=50.0, voe=100.0)


class TestThresholdSoc:
    def test_equal_times_base_case(self):
        assert threshold_soc(PREFS, 100.0, 11.5, 11.5) == pytest.approx(0.5)

    def test_low_charging_value(self):
        prefs = Preferences(vot=50.0, voe=50.0)
        assert threshold_soc(prefs, 100.0, 11.5, 11.5) == pytest.approx(1 / 3)

    def test_zero_toll_equal_times_means_all_charge(self):
        assert threshold_soc(PREFS, 0.0, 11.5, 11.5) == 1.0

    def test_time_advantage_can_absorb_the_whole_toll(self):
        # toll 100 exactly offset by a 2-minute advantage at vot 50
        assert threshold_soc(PREFS, 100.0, 9.5, 11.5) == 1.0
        assert threshold_soc(PREFS, 100.0, 9.0, 11.5) == 1.0

    def test_time_penalty_tightens_the_threshold(self):
        slower = threshold_soc(PREFS, 100.0, 12.0, 11.5)
        assert slower < threshold_soc(PREFS, 100.0, 11.5, 11.5)
        assert slower == pytest.approx(100.0 / (100.0 + 100.0 + 25.0))

    def test_never_nonpositive(self):
        assert threshold_soc(PREFS, 1e9, 20.0, 10.0) > 0.0


class TestSolveInterior:
    def test_base_scenario_splits_both_classes(self):
        scn = base_scenario()
        result, regime = solve(scn)
        assert regime is RegimeTag.INTERIOR
        assert result.s_thres == pytest.approx(0.5)
        assert result.x1_d == pytest.approx(100.0)
        assert result.x2_d == pytest.approx(100.0)
        assert result.x1_o == pytest.approx(400.0)
        assert result.x2_o == pytest.approx(400.0)
        assert result.x1 == pytest.approx(500.0, abs=1e-9)
        assert result.t1 == pytest.approx(11.5, abs=1e-9)
        assert result.t2 == pytest.approx(11.5, abs=1e-9)
        assert result.n_thres == result.x1_d
        assert verify_equilibrium(scn, result) == []

    def test_prohibitive_toll_clears_the_ers_link_of_dwpt(self):
        scn = base_scenario(toll=FixedToll(1000.0))
        result, regime = solve(scn)
        assert regime is RegimeTag.INTERIOR
        assert result.x1_d == pytest.approx(0.0)
        assert result.x1_o == pytest.approx(500.0)
        assert verify_equilibrium(scn, result) == []

    def test_free_ers_draws_every_dwpt_at_low_share(self):
        scn = base_scenario(toll=FreeToll())
        result, regime = solve(scn)
        assert regime is RegimeTag.INTERIOR
        assert result.s_thres == 1.0
        assert result.x1_d == pytest.approx(200.0)
        assert result.x1_o == pytest.approx(300.0)
        assert verify_equilibrium(scn, result) == []

    def test_low_share_always_balances_flows(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            scn = base_scenario(
                ratio=float(rng.uniform(0.05, 0.45)),
                vot=float(rng.uniform(10, 100)),
                voe=float(rng.uniform(10, 300)),
                toll=FixedToll(float(rng.uniform(0, 1000))),
            )
            result, regime = solve(scn)
            assert regime is RegimeTag.INTERIOR
            assert result.x1 == pytest.approx(result.x2, abs=1e-6)
            assert verify_equilibrium(scn, result) == []


class TestSolveCorners:
    def test_high_share_toll_free_pushes_other_off_ers_link(self):
        scn = base_scenario(ratio=0.8, toll=FreeToll())
        result, regime = solve(scn)
        assert regime is RegimeTag.CORNER_OTHER_ON_2
        assert result.x1_o == 0.0
        # fixed point solved independently from the threshold identity
        assert result.x1_d == pytest.approx(545.409187, abs=1e-3)
        assert result.t1 == pytest.approx(12.123738, abs=1e-4)
        assert result.t2 == pytest.approx(11.024929, abs=1e-4)
        assert result.s_thres == pytest.approx(0.645409, abs=1e-5)
        assert result.t1 > result.t2
        assert verify_equilibrium(scn, result) == []

    def test_corner_fixed_point_is_self_consistent(self):
        for price, expected in ((0.0, 521.419391), (15.0, 510.845062), (30.0, 500.304742)):
            scn = base_scenario(ratio=0.6, toll=FixedToll(price))
            result, regime = solve(scn)
            assert regime is RegimeTag.CORNER_OTHER_ON_2
            assert result.x1_d == pytest.approx(expected, abs=1e-3)
            # the mass on link 1 reproduces its own threshold count
            count = scn.soc.count_below(
                threshold_soc(scn.prefs, price, result.t1, result.t2)
            )
            assert result.x1_d == pytest.approx(count, abs=1e-5)
            assert verify_equilibrium(scn, result) == []

    def test_heavy_toll_with_high_share_fills_ers_link_with_other(self):
        scn = base_scenario(ratio=0.6, toll=FixedToll(400.0))
        result, regime = solve(scn)
        assert regime is RegimeTag.CORNER_OTHER_ON_1
        assert result.x2_o == 0.0
        assert result.t1 < result.t2
        count = scn.soc.count_below(
            threshold_soc(scn.prefs, 400.0, result.t1, result.t2)
        )
        assert result.x1_d == pytest.approx(count, abs=1e-5)
        assert verify_equilibrium(scn, result) == []

    def test_extreme_toll_with_high_share_empties_dwpt_from_ers(self):
        scn = base_scenario(ratio=0.6, toll=FixedToll(1100.0))
        result, regime = solve(scn)
        assert regime is RegimeTag.CORNER_OTHER_ON_1
        assert result.x1_d == 0.0
        assert result.x1_o == pytest.approx(400.0)
        assert verify_equilibrium(scn, result) == []

    def test_all_dwpt_charge_at_boundary(self):
        # eager pool (low SoC) and tiny toll: the whole DWPT fleet charges
        scn = base_scenario(ratio=0.6, s_lo=0.05, s_hi=0.3, toll=FixedToll(1.0))
        result, regime = solve(scn)
        assert regime is RegimeTag.CORNER_OTHER_ON_2
        assert result.x1_d == pytest.approx(600.0)
        assert result.x2_d == pytest.approx(0.0)
        assert verify_equilibrium(scn, result) == []

    def test_conservation_across_regimes(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            scn = base_scenario(
                ratio=float(rng.uniform(0.5, 0.95)),
                vot=float(rng.uniform(10, 100)),
                voe=float(rng.uniform(10, 300)),
                toll=FixedToll(float(rng.uniform(0, 1200))),
            )
            result, _ = solve(scn)
            assert result.x1_d + result.x2_d == pytest.approx(
                scn.n_dwpt, rel=1e-6
            )
            assert result.x1_o + result.x2_o == pytest.approx(
                scn.n_other, rel=1e-6
            )
            assert min(result.x1_d, result.x2_d, result.x1_o, result.x2_o) >= 0
            assert verify_equilibrium(scn, result) == []


    def test_other_on_1_bracket_stays_inside_dwpt_mass(self):
        # x_eq is clamped to N, so the bracket end x_eq - n_other exceeded
        # n_dwpt by a rounding error and link 2 was handed a flow of
        # -5.3e-15.  The bracket end is now at most n_dwpt.
        link1 = LinkParams(
            free_flow_time=3.6507237412766913,
            capacity=39.90029716030172,
            bpr_alpha=0.17287321091775001,
            bpr_beta=2.7333038358784,
            has_ers=True,
            ers_power_kw=45.18547328199044,
        )
        link2 = LinkParams(
            free_flow_time=26.399815275536383,
            capacity=8.698055992205484,
            bpr_alpha=0.4767280309018644,
            bpr_beta=4.846079364008261,
        )
        n_total, ratio = 50.416740764438266, 0.2012435410158901
        scn = Scenario(
            total_vehicles=n_total,
            dwpt_ratio=ratio,
            soc=UniformContinuum(0.4475227218986806, 0.8682282329258871, ratio * n_total),
            prefs=Preferences(vot=87.75860227286637, voe=97.95789806389121),
            toll=FixedToll(124.58895516350957),
            network=Network(link1, link2),
        )
        result, regime = solve(scn)
        assert regime is RegimeTag.CORNER_OTHER_ON_1
        assert 0.0 <= result.x1_d <= scn.n_dwpt
        assert verify_equilibrium(scn, result) == []

    def test_other_on_1_tied_pool_at_the_interior_boundary(self):
        # 17 DWPT-EVs tied at SoC 0.5 are indifferent at t1 = t2 for this
        # toll.  n_other rounds to 11.000000000000002, so at the bracket
        # end x_eq - n_other the link-1 flow fell an ulp short of x_eq,
        # t1 < t2, and the whole tied group counted as charging: excess
        # was negative at both ends and solve raised ConvergenceError.
        link1 = LinkParams(2.0, 7.0, 1.0, 1.0, has_ers=True, ers_power_kw=30.0)
        link2 = LinkParams(2.0, 7.0, 1.0, 1.0)
        scn = discrete_scenario(
            [0.5] * 17,
            n_other=11,
            vot=10.0,
            voe=20.0,
            toll=FixedToll(20.0),
            network=Network(link1, link2),
        )
        result, regime = solve(scn)
        assert regime is RegimeTag.CORNER_OTHER_ON_1
        assert result.x1_d == pytest.approx(3.0)
        assert verify_equilibrium(scn, result) == []


class TestSolveDiscrete:
    def test_discrete_pool_matches_continuum_structure(self):
        scn = discrete_scenario(evenly_spaced_socs(6), n_other=14)
        result, regime = solve(scn)
        assert regime is RegimeTag.INTERIOR
        assert result.x1_d == pytest.approx(3.0)  # SoCs 0.1, 0.26, 0.42 < 0.5
        assert result.x1_o == pytest.approx(7.0)


class TestVerifyEquilibrium:
    def test_flags_corrupted_flows(self):
        scn = base_scenario()
        result, _ = solve(scn)
        broken = replace(result, x1_d=result.x2_d, x2_d=result.x1_d + 50.0)
        assert verify_equilibrium(scn, broken) != []

    def test_flags_wrong_times(self):
        scn = base_scenario()
        result, _ = solve(scn)
        assert verify_equilibrium(scn, replace(result, t1=99.0)) != []

    def test_flags_threshold_violation(self):
        scn = base_scenario()
        result, _ = solve(scn)
        swapped = replace(result, x1_d=0.0, x2_d=200.0)
        assert verify_equilibrium(scn, swapped) != []


class TestBruteForceOracle:
    def test_two_agents_sort_themselves(self):
        scn = discrete_scenario((0.5,), n_other=1, toll=FreeToll())
        result = brute_force_equilibrium(scn, exhaustive=True)
        assert result.x1_d == 1.0
        assert result.x1_o == 0.0
        assert result.x2_o == 1.0

    def test_exhaustive_agrees_with_solver(self):
        scn = discrete_scenario(evenly_spaced_socs(6), n_other=14)
        oracle = brute_force_equilibrium(scn, exhaustive=True)
        analytic, _ = solve(scn)
        for cell in ("x1_d", "x2_d", "x1_o", "x2_o"):
            assert abs(getattr(oracle, cell) - getattr(analytic, cell)) <= 1.0

    def test_large_discretization_matches_target_flows(self):
        scn = discrete_scenario(
            evenly_spaced_socs(200, 0.102, 0.898), n_other=800
        )
        oracle = brute_force_equilibrium(scn)
        assert oracle.x1_d == pytest.approx(100.0, abs=1.0)
        assert oracle.x1_o == pytest.approx(400.0, abs=1.0)

    def test_randomized_agreement_with_solver(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            scn = random_discrete_scenario(rng)
            oracle = brute_force_equilibrium(scn)
            analytic, _ = solve(scn)
            for cell in ("x1_d", "x2_d", "x1_o", "x2_o"):
                assert abs(getattr(oracle, cell) - getattr(analytic, cell)) <= 1.0

    def test_seeded_order_is_reproducible(self):
        scn = discrete_scenario(evenly_spaced_socs(10), n_other=20)
        first = brute_force_equilibrium(scn, seed=5)
        second = brute_force_equilibrium(scn, seed=5)
        assert first == second

    def test_requires_discrete_agents(self):
        with pytest.raises(ValueError):
            brute_force_equilibrium(base_scenario())

    def test_exhaustive_agent_cap(self):
        scn = discrete_scenario(evenly_spaced_socs(5), n_other=17)
        with pytest.raises(ValueError):
            brute_force_equilibrium(scn, exhaustive=True)

    def test_agent_count_cap(self):
        scn = discrete_scenario(
            tuple(np.linspace(0.1, 0.9, 6000)), n_other=6000
        )
        with pytest.raises(ValueError):
            brute_force_equilibrium(scn)

    def test_switch_guard_raises(self):
        scn = discrete_scenario(evenly_spaced_socs(40), n_other=60)
        with pytest.raises(ConvergenceError):
            brute_force_equilibrium(scn, max_switches=1)
