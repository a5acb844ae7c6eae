import csv
import math
import random
from dataclasses import replace

import numpy as np
import pytest
import yaml
from conftest import (
    PLAIN_LINK,
    band_containing,
    base_scenario,
    discrete_scenario,
    random_link,
    scenarios,
)
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from erstoll.analysis import (
    SO_REL_TOL,
    PatternLabel,
    TollBand,
    _marginal,
    classify,
    metrics,
    min_total_travel_time,
    toll_bands,
)
from erstoll.cli import main
from erstoll.equilibrium import brute_force_equilibrium, solve, verify_equilibrium
from erstoll.harness import apply_overrides, bundled_scenario_path, load_scenario
from erstoll.model import (
    FixedToll,
    FreeToll,
    LinkParams,
    Network,
    Preferences,
    Scenario,
    UniformContinuum,
    bpr_time,
)


def solved(scn):
    result, _ = solve(scn)
    return result


class TestClassify:
    def test_low_share_cases(self):
        assert (
            classify(*_pair(base_scenario(toll=FreeToll()))) is PatternLabel.A_i
        )
        assert classify(*_pair(base_scenario(toll=FixedToll(5.0)))) is PatternLabel.B_i_a
        assert classify(*_pair(base_scenario())) is PatternLabel.B_i_c
        assert (
            classify(*_pair(base_scenario(toll=FixedToll(1000.0))))
            is PatternLabel.B_i_b
        )

    def test_high_share_cases(self):
        assert (
            classify(*_pair(base_scenario(ratio=0.6, toll=FreeToll())))
            is PatternLabel.A_ii
        )
        assert (
            classify(*_pair(base_scenario(ratio=0.6, toll=FixedToll(15.0))))
            is PatternLabel.B_ii_c2
        )
        assert (
            classify(*_pair(base_scenario(ratio=0.6, toll=FixedToll(100.0))))
            is PatternLabel.B_ii_c1
        )
        assert (
            classify(*_pair(base_scenario(ratio=0.6, toll=FixedToll(400.0))))
            is PatternLabel.B_ii_c3
        )
        assert (
            classify(*_pair(base_scenario(ratio=0.6, toll=FixedToll(1100.0))))
            is PatternLabel.B_ii_b
        )

    def test_high_share_all_charge(self):
        # eager low-SoC pool: every DWPT-EV stays on the ERS link
        scn = base_scenario(ratio=0.55, s_lo=0.05, s_hi=0.3, toll=FixedToll(50.0))
        assert classify(*_pair(scn)) is PatternLabel.B_ii_a

    def test_rejects_mismatched_pair(self):
        scn = base_scenario()
        other = base_scenario(ratio=0.4)
        with pytest.raises(ValueError):
            classify(scn, solved(other))


def _pair(scn):
    return scn, solved(scn)


class TestMetrics:
    def test_base_scenario_values(self):
        scn = base_scenario()
        m = metrics(scn, solved(scn))
        assert m.ttt == pytest.approx(11500.0)
        assert m.tcv == pytest.approx(575.0)
        assert m.revenue == pytest.approx(10000.0)
        assert m.conventional_so is True
        assert m.ers_optimum is False

    def test_identities(self):
        for price in (5.0, 50.0, 300.0, 700.0):
            scn = base_scenario(toll=FixedToll(price))
            result = solved(scn)
            m = metrics(scn, result)
            assert m.revenue == result.x1_d * price
            assert m.tcv * 60.0 == pytest.approx(
                result.x1_d * 30.0 * result.t1
            )
            assert m.ttt == pytest.approx(
                result.x1 * result.t1 + result.x2 * result.t2
            )

    def test_free_system_collects_nothing(self):
        scn = base_scenario(toll=FreeToll())
        assert metrics(scn, solved(scn)).revenue == 0.0

    def test_no_charging_when_dwpt_avoid_ers(self):
        scn = base_scenario(toll=FixedToll(1000.0))
        m = metrics(scn, solved(scn))
        assert m.tcv == 0.0
        assert m.revenue == 0.0


    @pytest.mark.parametrize("price", [0.0, 30.0, 100.0, 400.0, 1000.0])
    @pytest.mark.parametrize("ratio", [0.2, 0.7])
    @pytest.mark.parametrize("unequal", [False, True])
    def test_given_system_optimum_changes_nothing(self, price, ratio, unequal):
        network = (
            Network(
                base_scenario().network.link1,
                LinkParams(free_flow_time=12.0, capacity=400.0, bpr_beta=2.0),
            )
            if unequal
            else base_scenario().network
        )
        scn = base_scenario(ratio=ratio, toll=FixedToll(price), network=network)
        result = solved(scn)
        # conventional_so is the only field the optimum decides; one held
        # by the caller gives the verdict that metrics reaches on its own
        best = min_total_travel_time(scn.network, scn.total_vehicles)
        m = metrics(scn, result)
        assert m.conventional_so == (m.ttt <= best * (1.0 + 1e-6))


# link 2 at 150 minutes free flow: at vot 50 the equilibrium and the
# optimum put every vehicle on link 1; at vot 0.01 the toll moves some
# DWPT-EVs to link 2, and TTT above the optimum
SLOW_LINK2 = Network(base_scenario().network.link1, replace(PLAIN_LINK, free_flow_time=150.0))


class TestConventionalSo:
    def test_twin_network_minimum(self):
        scn = base_scenario()
        assert min_total_travel_time(scn.network, 1000.0) == pytest.approx(11500.0)

    def test_twin_network_minimum_is_exact(self):
        # twin links split evenly, so the optimum is N*t(N/2) to the bit
        rng = np.random.default_rng(5)
        for _ in range(50):
            n_total = 10.0 ** rng.uniform(1.0, 7.0)
            link = random_link(rng, n_total)
            network = Network(replace(link, has_ers=True, ers_power_kw=30.0), link)
            assert min_total_travel_time(network, n_total) == n_total * bpr_time(
                link, n_total / 2
            )

    def test_balanced_flows_are_optimal(self):
        scn = base_scenario(ratio=0.6, toll=FixedToll(100.0))  # x1 = x2
        assert metrics(scn, solved(scn)).conventional_so is True

    def test_unbalanced_flows_are_not(self):
        scn = base_scenario(ratio=0.6, toll=FreeToll())  # x1 > x2
        assert metrics(scn, solved(scn)).conventional_so is False

    def test_low_share_always_optimal(self):
        for price in (0.0, 100.0, 500.0, 1000.0):
            scn = base_scenario(toll=FixedToll(price))
            assert metrics(scn, solved(scn)).conventional_so is True

    @settings(max_examples=300, deadline=None)
    @given(scn=scenarios())
    @example(scn=base_scenario())  # twin links, optimal
    @example(scn=base_scenario(ratio=0.6, toll=FreeToll()))  # twin links, not optimal
    @example(scn=base_scenario(network=SLOW_LINK2))  # differing links, optimal
    @example(scn=base_scenario(vot=0.01, network=SLOW_LINK2))  # differing, not optimal
    def test_flag_is_the_converged_optimum_comparison(self, scn):
        # metrics stops its optimum search at the first split that beats
        # ttt; the flag must be the comparison with the converged optimum
        m = metrics(scn, solved(scn))
        best = min_total_travel_time(scn.network, scn.total_vehicles)
        assert m.conventional_so == (m.ttt <= best * (1.0 + 1e-6))

    def test_a_link_time_that_overflows_is_an_infinite_ttt(self):
        # link 1's BPR time overflows a double above a flow of about 280;
        # solve puts every vehicle on link 2 at finite times, and both the
        # probe's split (1 330.5) and the search's end N overflow link 1
        n_total, ratio = 38384.48, 0.7536
        scn = Scenario(
            total_vehicles=n_total,
            dwpt_ratio=ratio,
            soc=UniformContinuum(0.1323, 0.6066, ratio * n_total),
            prefs=Preferences(vot=594.7, voe=416.1),
            toll=FixedToll(447.4),
            network=Network(
                LinkParams(432.5, 1.78e-37, bpr_alpha=0.00307, bpr_beta=7.86,
                           has_ers=True, ers_power_kw=30.0),
                LinkParams(1.396, 20700.9, bpr_alpha=0.974, bpr_beta=6.48),
            ),
        )
        with pytest.raises(OverflowError):
            bpr_time(scn.network.link1, n_total)
        m = metrics(scn, solved(scn))
        best = min_total_travel_time(scn.network, n_total)
        # the optimum moves a flow of order 1e-37 onto link 1, so it is
        # the equilibrium's TTT, not a split within the root's tolerance
        assert best == pytest.approx(m.ttt, rel=1e-12) and best <= m.ttt
        assert m.conventional_so is True

    def test_every_split_overflowing_a_link_is_an_infinite_optimum(self):
        # at capacity 1e-40 both links' times overflow a double above a
        # flow of about 0.02, so every split of 1 000 overflows one of them
        network = Network(
            LinkParams(10.0, 1e-40, 1.0, 8.0, True, 50.0), LinkParams(12.0, 1e-40, 1.0, 8.0)
        )
        assert min_total_travel_time(network, 1000.0) == math.inf

    @settings(max_examples=200, deadline=None)
    @given(
        exponent=st.floats(1.0, 7.0),
        # log10 of free-flow time, capacity / N and alpha, then beta
        links=st.tuples(
            *[st.tuples(st.floats(-2.0, 3.0), st.floats(-45.0, 1.0), st.floats(-3.0, 1.0),
                        st.floats(1.0, 8.0))] * 2
        ),
    )
    def test_optimum_is_no_split_above_it(self, exponent, links):
        # a capacity down to 1e-45*N makes TTT grow by orders of magnitude
        # within the root's tolerance, and overflow a double at larger flows
        n_total = 10.0**exponent
        link1, link2 = (
            LinkParams(10.0**t0, n_total * 10.0**cap, bpr_alpha=10.0**alpha, bpr_beta=beta, **ers)
            for (t0, cap, alpha, beta), ers in zip(links, ({"has_ers": True, "ers_power_kw": 30.0}, {}))
        )

        def total(x):
            try:
                return x * bpr_time(link1, x) + (n_total - x) * bpr_time(link2, n_total - x)
            except OverflowError:
                return math.inf

        splits = [n_total * k / 100 for k in range(100)] + [n_total]
        splits += [n_total * 10.0**-e for e in range(1, 320, 3)]
        splits += [n_total - n_total * 10.0**-e for e in range(1, 16)]
        least = min(map(total, splits))
        # where every split overflows a link, the search may fail numerically
        assume(math.isfinite(least))
        best = min_total_travel_time(Network(link1, link2), n_total)
        assert 0.0 < best <= least * (1.0 + SO_REL_TOL)

    @pytest.mark.parametrize(
        "vot, calls, flag",
        [
            # the probe's split, N, beats ttt before any marginal cost
            # there is formed: 2 calls, where both ends of the search made 4
            (0.01, 2, False),
            # ttt is the optimum: the probe's split, priced by its TTT
            # alone, settles nothing, and the search runs as before (4)
            (50.0, 6, True),
        ],
    )
    def test_probe_settles_a_false_flag_at_once(self, monkeypatch, vot, calls, flag):
        # the probe is the Newton step from the equilibrium's split,
        # priced from its stored times: 2 calls
        seen = []

        def counting(link, x, t):
            seen.append(x)
            return _marginal(link, x, t)

        monkeypatch.setattr("erstoll.analysis._marginal", counting)
        scn = base_scenario(vot=vot, network=SLOW_LINK2)
        assert metrics(scn, solved(scn)).conventional_so is flag
        assert len(seen) == calls

    @settings(max_examples=300, deadline=None)
    @given(
        scn=scenarios(),
        factors=st.tuples(*[st.floats(0.0, 10.0) | st.sampled_from([math.inf, math.nan])] * 2),
    )
    def test_flag_with_wrong_stored_times(self, scn, factors):
        # the probe reads the stored times: wrong or non-finite ones may
        # waste its split, never change the flag
        result = solved(scn)
        result = replace(result, t1=result.t1 * factors[0], t2=result.t2 * factors[1])
        m = metrics(scn, result)
        best = min_total_travel_time(scn.network, scn.total_vehicles)
        assert m.conventional_so == (m.ttt <= best * (1.0 + 1e-6))

    @settings(max_examples=100, deadline=None)
    @given(scn=scenarios(max_agents=200))
    def test_flag_of_the_oracle_equilibrium(self, scn):
        # the probe starts from whatever equilibrium it is given
        m = metrics(scn, brute_force_equilibrium(scn))
        best = min_total_travel_time(scn.network, scn.total_vehicles)
        assert m.conventional_so == (m.ttt <= best * (1.0 + 1e-6))


    def test_flags_of_a_sweep_on_a_slow_link_2(self, tmp_path):
        # the bundled scenario with link 2 at 150 minutes free flow, swept
        # through the CLI; each row's flag is the converged comparison
        config = yaml.safe_load(bundled_scenario_path().read_text())
        config["network"]["link2"]["free_flow_time"] = 150.0
        scenario, output = tmp_path / "slow-link2.cfg", tmp_path / "slow-link2.csv"
        scenario.write_text(yaml.safe_dump(config))
        assert main([
            "sweep", "--scenario", str(scenario), "--axis", "prefs.vot=0.01,50",
            "--axis", "toll.price=0:1200:13", "--axis", "dwpt_ratio=0.2,0.8",
            "--output", str(output),
        ]) == 0
        base = load_scenario(scenario)
        best = min_total_travel_time(base.network, base.total_vehicles)
        rows = list(csv.DictReader(output.read_text().splitlines()))
        assert len(rows) == 52 and {row["conventional_so"] for row in rows} == {"true", "false"}
        for row in rows:
            cell = {path: float(row[path]) for path in ("prefs.vot", "toll.price", "dwpt_ratio")}
            result = solved(apply_overrides(base, cell))
            ttt = result.x1 * result.t1 + result.x2 * result.t2
            assert row["conventional_so"] == ("true" if ttt <= best * (1 + 1e-6) else "false"), row

    def test_flags_of_random_differing_link_scenarios(self):
        # 2 000 seeded scenarios that share nothing, each on its own
        # differing links, N 10 to 1e7
        rng = random.Random(1)
        flags = []
        for _ in range(2000):
            n = 10.0 ** rng.uniform(1.0, 7.0)
            r = rng.uniform(0.05, 0.95)
            link1, link2 = (
                LinkParams(
                    free_flow_time=rng.uniform(2.0, 30.0),
                    capacity=n * rng.uniform(0.1, 1.0),
                    bpr_alpha=rng.uniform(0.05, 1.0),
                    bpr_beta=rng.uniform(1.0, 8.0),
                    **ers,
                )
                for ers in ({"has_ers": True, "ers_power_kw": 30.0}, {})
            )
            assert not link1.same_bpr(link2)
            s_lo = rng.uniform(0.05, 0.5)
            scn = Scenario(
                total_vehicles=n,
                dwpt_ratio=r,
                soc=UniformContinuum(s_lo, rng.uniform(s_lo + 0.05, 0.95), r * n),
                prefs=Preferences(vot=rng.uniform(10.0, 100.0), voe=rng.uniform(20.0, 300.0)),
                toll=FixedToll(rng.uniform(0.0, 300.0)),
                network=Network(link1, link2),
            )
            m = metrics(scn, solved(scn))
            best = min_total_travel_time(scn.network, n)
            assert m.conventional_so == (m.ttt <= best * (1 + 1e-6)), (scn, m, best)
            flags.append(m.conventional_so)
        assert set(flags) == {True, False}


class TestErsOptimum:
    def test_full_charge_assignments(self):
        scn = base_scenario(toll=FreeToll())  # every DWPT on the ERS link
        assert metrics(scn, solved(scn)).ers_optimum is True

    def test_partial_charge_is_suboptimal(self):
        scn = base_scenario()  # 100 of 200 DWPT charge, OTHER fill link 1
        assert metrics(scn, solved(scn)).ers_optimum is False

    def test_dwpt_only_ers_link_is_optimal(self):
        # all OTHER repelled from link 1, so x1_d = x1: nothing to swap
        scn = base_scenario(ratio=0.6, toll=FixedToll(15.0))
        assert metrics(scn, solved(scn)).ers_optimum is True


class TestTollBands:
    def test_low_share_closed_forms(self):
        bands = toll_bands(base_scenario())
        assert [b.pattern for b in bands] == [
            PatternLabel.B_i_a,
            PatternLabel.B_i_c,
            PatternLabel.B_i_b,
        ]
        assert bands[0].c_low == 0.0
        assert bands[0].c_high == pytest.approx(100 * (1 / 0.9 - 1), abs=1e-9)
        assert bands[1].c_high == pytest.approx(900.0, abs=1e-9)
        assert math.isinf(bands[2].c_high)

    def test_band_bounds_out_of_order_rejected(self):
        with pytest.raises(ValueError, match="out of order"):
            TollBand(PatternLabel.B_i_c, 20.0, 10.0)

    def test_bands_partition_the_price_axis(self):
        bands = toll_bands(base_scenario())
        assert bands[0].c_low == 0.0
        for left, right in zip(bands, bands[1:]):
            assert left.c_high == right.c_low
        assert math.isinf(bands[-1].c_high)

    def test_high_share_band_order(self):
        bands = toll_bands(base_scenario(ratio=0.6))
        assert [b.pattern for b in bands] == [
            PatternLabel.B_ii_c2,  # the all-charge band is empty here
            PatternLabel.B_ii_c1,
            PatternLabel.B_ii_c3,
            PatternLabel.B_ii_b,
        ]
        assert bands[-1].c_low == pytest.approx(1024.8, abs=1e-6)

    def test_high_share_with_eager_pool_has_all_charge_band(self):
        bands = toll_bands(base_scenario(ratio=0.55, s_lo=0.05, s_hi=0.3))
        assert bands[0].pattern is PatternLabel.B_ii_a
        assert bands[0].c_low == 0.0
        assert bands[0].c_high > 0.0

    def test_grid_consistency_low_share(self):
        scn = base_scenario()
        bands = toll_bands(scn)
        for price in np.linspace(0.0, 1000.0, 101):
            cell = replace(scn, toll=FixedToll(float(price)))
            label = classify(cell, solved(cell))
            assert band_containing(bands, float(price)).pattern is label

    def test_grid_consistency_high_share(self):
        scn = base_scenario(ratio=0.6)
        bands = toll_bands(scn)
        for price in np.linspace(0.0, 1100.0, 100):
            cell = replace(scn, toll=FixedToll(float(price)))
            label = classify(cell, solved(cell))
            assert band_containing(bands, float(price)).pattern is label

    def test_requires_fixed_toll(self):
        with pytest.raises(ValueError):
            toll_bands(base_scenario(toll=FreeToll()))

    def test_band_containing_bounds(self):
        # the bands tile [0, inf): 0 and 1e9 fall in the end bands, and no
        # band holds a negative price
        bands = toll_bands(base_scenario())
        assert band_containing(bands, 0.0).pattern is PatternLabel.B_i_a
        assert band_containing(bands, 1e9).pattern is PatternLabel.B_i_b
        assert not any(band.c_low <= -1.0 < band.c_high for band in bands)


# ---------------------------------------------------------------------------
# Differential property test: toll_bands against solve + classify


# Link 1 is twice as slow at free flow, so at the all-charge edge every
# OTHER-V is on link 2 and t1 > t2: the band ends below voe*(1/s_hi - 1).
_SLOW_ERS = base_scenario(
    ratio=0.3,
    network=Network(
        LinkParams(free_flow_time=20.0, capacity=500.0, has_ers=True, ers_power_kw=30.0),
        PLAIN_LINK,
    ),
)

# 17 DWPT-EVs tied at SoC 0.5 on twin links: the c1 band is centred on
# the toll 20 at which the tied group is indifferent at t1 = t2.
_TIED_AT_C1 = discrete_scenario(
    [0.5] * 17,
    n_other=11,
    vot=10.0,
    voe=20.0,
    network=Network(
        LinkParams(2.0, 7.0, 1.0, 1.0, has_ers=True, ers_power_kw=30.0),
        LinkParams(2.0, 7.0, 1.0, 1.0),
    ),
)

# Five times capacity on each link at x1 = x2: one vehicle moves the toll
# by millions, and 1% of the c2 band is 1e-9 vehicles of DWPT mass.
_STEEP_TWIN = Scenario(
    total_vehicles=10.0,
    dwpt_ratio=0.59375,
    soc=UniformContinuum(0.375, 0.609375, 5.9375),
    prefs=Preferences(vot=32.0, voe=30.0),
    toll=FixedToll(0.0),
    network=Network(
        LinkParams(16.0, 1.0, 0.5, 5.5625, has_ers=True, ers_power_kw=30.0),
        LinkParams(16.0, 1.0, 0.5, 5.5625),
    ),
)


class TestTollBandsAgreeWithSolver:
    """Bands tile [0, inf) and hold the label solve + classify give inside.

    On steep links 1% of a band can be 1e-9*N of DWPT mass or less, so
    this needs solve's corner root at ROOT_TOL_FACTOR*N = 1e-12*N.
    """

    @settings(max_examples=300, deadline=None)
    @given(scn=scenarios().map(lambda scn: replace(scn, toll=FixedToll(0.0))))
    @example(scn=_SLOW_ERS)
    @example(scn=_TIED_AT_C1)
    @example(scn=_STEEP_TWIN)
    def test_bands_match_solve_and_classify(self, scn):
        bands = toll_bands(scn)
        assert bands[0].c_low == 0.0
        assert math.isinf(bands[-1].c_high)
        for left, right in zip(bands, bands[1:]):
            assert left.c_high == right.c_low
            assert left.pattern is not right.pattern

        for band in bands:
            width = band.c_high - band.c_low
            if math.isinf(width):
                prices = [band.c_low + 1.0]
            elif width > 1e-9 * band.c_high:
                # 1e-6 of the width inside each edge, not one ulp: at the
                # floating-point floor the threshold rounds onto a pool end
                prices = [
                    band.c_low + 1e-6 * width,
                    band.c_low + 0.01 * width,
                    band.c_low + 0.5 * width,
                    band.c_high - 0.01 * width,
                    band.c_high - 1e-6 * width,
                ]
            else:
                # SoC levels a few ulps apart: the band is narrower than
                # the rounding of solve's threshold arithmetic.
                continue
            for price in prices:
                cell = replace(scn, toll=FixedToll(price))
                label = classify(cell, solved(cell))
                assert label is band.pattern, (
                    f"{band.pattern.value} band [{band.c_low}, {band.c_high}) "
                    f"but {label.value} at {price}"
                )


@settings(max_examples=300, deadline=None)
@given(scn=scenarios())
def test_solve_classify_and_metrics_never_raise_on_the_domain(scn):
    result, _ = solve(scn)
    assert verify_equilibrium(scn, result) == []
    assert isinstance(classify(scn, result), PatternLabel)
    assert metrics(scn, result).ttt > 0.0
