import numpy as np
import pytest

from erstoll.model import (
    DiscreteAgents,
    FixedToll,
    FreeToll,
    LinkParams,
    Network,
    Preferences,
    Scenario,
    UniformContinuum,
    VehicleClass,
    bpr_time,
    charging_utility,
    utility,
)


def ers_link(**kw):
    base = dict(free_flow_time=10.0, capacity=500.0, has_ers=True, ers_power_kw=30.0)
    base.update(kw)
    return LinkParams(**base)


def plain_link(**kw):
    base = dict(free_flow_time=10.0, capacity=500.0)
    base.update(kw)
    return LinkParams(**base)


class TestLinkParams:
    def test_valid(self):
        link = ers_link()
        assert link.has_ers and link.ers_power_kw == 30.0

    @pytest.mark.parametrize(
        "kw",
        [
            {"free_flow_time": 0.0},
            {"free_flow_time": -1.0},
            {"capacity": 0.0},
            {"bpr_alpha": -0.1},
            {"bpr_beta": 0.5},
        ],
    )
    def test_rejects_bad_numbers(self, kw):
        with pytest.raises(ValueError):
            ers_link(**kw)

    def test_ers_link_needs_power(self):
        with pytest.raises(ValueError):
            LinkParams(free_flow_time=10, capacity=500, has_ers=True)
        with pytest.raises(ValueError):
            ers_link(ers_power_kw=0.0)

    def test_plain_link_rejects_power(self):
        with pytest.raises(ValueError):
            LinkParams(free_flow_time=10, capacity=500, ers_power_kw=30.0)

    def test_same_bpr(self):
        assert ers_link().same_bpr(plain_link())
        assert not ers_link().same_bpr(plain_link(capacity=400.0))


class TestNetwork:
    def test_link_roles_enforced(self):
        Network(ers_link(), plain_link())
        with pytest.raises(ValueError):
            Network(plain_link(), plain_link())
        with pytest.raises(ValueError):
            Network(ers_link(), ers_link())


class TestPreferences:
    def test_positive_required(self):
        Preferences(vot=50, voe=100)
        with pytest.raises(ValueError):
            Preferences(vot=0, voe=100)
        with pytest.raises(ValueError):
            Preferences(vot=50, voe=-1)


class TestUniformContinuum:
    def test_count_below_clamps_and_interpolates(self):
        soc = UniformContinuum(s_lo=0.1, s_hi=0.9, mass=200.0)
        assert soc.count_below(0.05) == 0.0
        assert soc.count_below(0.1) == 0.0
        assert soc.count_below(0.5) == pytest.approx(100.0)
        assert soc.count_below(0.9) == 200.0
        assert soc.count_below(1.0) == 200.0
        assert soc.total_mass == 200.0
        assert (soc.s_min, soc.s_max) == (0.1, 0.9)

    def test_quantile_inverts_count(self):
        soc = UniformContinuum(s_lo=0.2, s_hi=0.6, mass=50.0)
        for mass in (0.0, 10.0, 25.0, 50.0):
            assert soc.count_below(soc.quantile(mass)) == pytest.approx(mass)

    @pytest.mark.parametrize(
        "kw",
        [
            {"s_lo": 0.0},
            {"s_hi": 1.0},
            {"s_lo": 0.5, "s_hi": 0.5},
            {"s_lo": 0.6, "s_hi": 0.4},
            {"mass": 0.0},
        ],
    )
    def test_validation(self, kw):
        base = dict(s_lo=0.1, s_hi=0.9, mass=100.0)
        base.update(kw)
        with pytest.raises(ValueError):
            UniformContinuum(**base)


class TestDiscreteAgents:
    def test_count_below_is_strict(self):
        soc = DiscreteAgents((0.3, 0.5, 0.5, 0.7))
        assert soc.count_below(0.5) == 1.0  # the 0.5 agents are not below 0.5
        assert soc.count_below(0.5 + 1e-12) == 3.0
        assert soc.count_below(0.2) == 0.0
        assert soc.count_below(0.9) == 4.0
        assert soc.total_mass == 4.0
        assert (soc.s_min, soc.s_max) == (0.3, 0.7)

    def test_quantile(self):
        soc = DiscreteAgents((0.7, 0.3, 0.5))
        assert soc.quantile(1.0) == 0.3
        assert soc.quantile(2.0) == 0.5
        assert soc.quantile(3.0) == 0.7
        assert soc.quantile(0.0) == 0.3  # clamped
        assert soc.quantile(99.0) == 0.7

    def test_validation(self):
        with pytest.raises(ValueError):
            DiscreteAgents(())
        with pytest.raises(ValueError):
            DiscreteAgents((0.5, 1.0))
        with pytest.raises(ValueError):
            DiscreteAgents((0.0,))


NON_FINITE_BUILDERS = {
    "free_flow_time": lambda v: ers_link(free_flow_time=v),
    "capacity": lambda v: ers_link(capacity=v),
    "bpr_alpha": lambda v: ers_link(bpr_alpha=v),
    "bpr_beta": lambda v: ers_link(bpr_beta=v),
    "ers_power_kw": lambda v: ers_link(ers_power_kw=v),
    "vot": lambda v: Preferences(vot=v, voe=100.0),
    "voe": lambda v: Preferences(vot=50.0, voe=v),
    "s_lo": lambda v: UniformContinuum(v, 0.9, 200.0),
    "s_hi": lambda v: UniformContinuum(0.1, v, 200.0),
    "mass": lambda v: UniformContinuum(0.1, 0.9, v),
    "soc_values": lambda v: DiscreteAgents((0.5, v)),
    "price": lambda v: FixedToll(v),
}


class TestNonFinite:
    """NaN fails every comparison and inf passes lower bounds, so each
    value type must reject both when it is built."""

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("field", sorted(NON_FINITE_BUILDERS))
    def test_rejected_when_built(self, field, bad):
        with pytest.raises(ValueError):
            NON_FINITE_BUILDERS[field](bad)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_scenario_total_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            TestScenario().base(total_vehicles=bad)


class TestTolls:
    def test_charges(self):
        assert FreeToll().dwpt_link1_charge == 0.0
        assert FixedToll(100.0).dwpt_link1_charge == 100.0
        assert FixedToll(0.0).dwpt_link1_charge == 0.0

    def test_negative_price_rejected(self):
        with pytest.raises(ValueError):
            FixedToll(-1.0)


class TestScenario:
    def base(self, **kw):
        args = dict(
            total_vehicles=1000.0,
            dwpt_ratio=0.2,
            soc=UniformContinuum(0.1, 0.9, 200.0),
            prefs=Preferences(50, 100),
            toll=FixedToll(100.0),
            network=Network(ers_link(), plain_link()),
        )
        args.update(kw)
        return Scenario(**args)

    def test_class_totals(self):
        scn = self.base()
        assert scn.n_dwpt == pytest.approx(200.0)
        assert scn.n_other == pytest.approx(800.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            self.base(total_vehicles=0.0)
        with pytest.raises(ValueError):
            self.base(dwpt_ratio=0.0)
        with pytest.raises(ValueError):
            self.base(dwpt_ratio=1.0)
        with pytest.raises(ValueError):  # SoC mass out of step with r*N
            self.base(soc=UniformContinuum(0.1, 0.9, 150.0))


class TestBprTime:
    def test_known_values(self):
        link = plain_link()
        assert bpr_time(link, 0.0) == 10.0
        assert bpr_time(link, 500.0) == pytest.approx(11.5)
        assert bpr_time(link, 1000.0) == pytest.approx(10.0 * (1 + 0.15 * 16))

    def test_monotone_in_flow(self):
        link = plain_link()
        flows = np.linspace(0, 1500, 40)
        times = [bpr_time(link, x) for x in flows]
        assert all(b >= a for a, b in zip(times, times[1:]))

    def test_negative_flow_rejected(self):
        with pytest.raises(ValueError):
            bpr_time(plain_link(), -1.0)


class TestChargingUtility:
    def test_values_and_shape(self):
        assert charging_utility(0.5) == pytest.approx(1.0)
        assert charging_utility(0.1) == pytest.approx(9.0)
        assert charging_utility(0.9) == pytest.approx(1.0 / 0.9 - 1.0)
        assert charging_utility(0.2) > charging_utility(0.8)

    @pytest.mark.parametrize("s", [0.0, 1.0, -0.5, 1.5])
    def test_domain(self, s):
        with pytest.raises(ValueError):
            charging_utility(s)


class TestUtility:
    prefs = Preferences(vot=50, voe=100)

    def test_dwpt_on_ers_link_nets_out_toll_and_charge(self):
        u = utility(
            VehicleClass.DWPT, 1, 11.5, 11.5, FixedToll(100.0), self.prefs, soc=0.5
        )
        assert u == pytest.approx(-50 * 11.5 - 100 + 100 * 1.0)  # -575

    def test_dwpt_indifferent_at_threshold(self):
        toll = FixedToll(100.0)
        u1 = utility(VehicleClass.DWPT, 1, 11.5, 11.5, toll, self.prefs, soc=0.5)
        u2 = utility(VehicleClass.DWPT, 2, 11.5, 11.5, toll, self.prefs, soc=0.5)
        assert u1 == pytest.approx(u2)

    def test_other_ignores_toll_and_charge(self):
        toll = FixedToll(100.0)
        assert utility(VehicleClass.OTHER, 1, 11.0, 12.0, toll, self.prefs) == -550.0
        assert utility(VehicleClass.OTHER, 2, 11.0, 12.0, toll, self.prefs) == -600.0

    def test_dwpt_off_ers_link_pays_time_only(self):
        u = utility(
            VehicleClass.DWPT, 2, 11.5, 12.0, FixedToll(100.0), self.prefs, soc=0.5
        )
        assert u == pytest.approx(-50 * 12.0)

    @pytest.mark.parametrize("t1, t2", [(-1.0, 11.5), (11.5, -1.0)])
    def test_negative_travel_time_rejected(self, t1, t2):
        with pytest.raises(ValueError, match="travel times"):
            utility(VehicleClass.OTHER, 1, t1, t2, FreeToll(), self.prefs)

    def test_soc_argument_policing(self):
        with pytest.raises(ValueError):
            utility(VehicleClass.DWPT, 1, 11.5, 11.5, FreeToll(), self.prefs)
        with pytest.raises(ValueError):
            utility(VehicleClass.OTHER, 1, 11.5, 11.5, FreeToll(), self.prefs, soc=0.5)
        with pytest.raises(ValueError):
            utility(
                VehicleClass.DWPT, 3, 11.5, 11.5, FreeToll(), self.prefs, soc=0.5
            )
