import inspect
import pickle
from dataclasses import asdict, fields, is_dataclass, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from erstoll.dynamics import Population, _SweepKernel
from erstoll.model import (
    DiscreteAgents,
    FixedToll,
    FreeToll,
    LinkParams,
    Network,
    Preferences,
    Scenario,
    UniformContinuum,
    bpr_time,
    charging_value,
    threshold_soc,
)

PREFS = Preferences(vot=50.0, voe=100.0)


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

    def test_quantile(self):
        soc = DiscreteAgents((0.7, 0.3, 0.5))
        assert soc.quantile(1.0) == 0.3
        assert soc.quantile(2.0) == 0.5
        assert soc.quantile(3.0) == 0.7
        assert soc.quantile(0.0) == 0.3  # clamped
        assert soc.quantile(99.0) == 0.7

    def test_held_in_ascending_order(self):
        assert DiscreteAgents((0.5, 0.2)) == DiscreteAgents((0.2, 0.5))
        assert DiscreteAgents((0.7, 0.3, 0.5, 0.3)).soc_values == (0.3, 0.3, 0.5, 0.7)

    def test_validation(self):
        with pytest.raises(ValueError):
            DiscreteAgents(())
        with pytest.raises(ValueError):
            DiscreteAgents((0.5, 1.0))
        with pytest.raises(ValueError):
            DiscreteAgents((0.0,))
        # checked in the given order, before sorting
        with pytest.raises(ValueError, match=r"got 1\.5$"):
            DiscreteAgents((0.5, 1.5, -0.2))
        # sorting leaves this nan between the ends, so only the sum finds it
        with pytest.raises(ValueError, match=r"got nan$"):
            DiscreteAgents((0.2, float("nan"), 0.4))

    @pytest.mark.parametrize(
        "bad", [float("nan"), float("inf"), float("-inf"), 0.0, 1.0, -0.3], ids=repr
    )
    @pytest.mark.parametrize("where", [0, 2, 4], ids=["first", "middle", "last"])
    def test_names_the_first_bad_value_in_the_given_order(self, bad, where):
        # the pool checks the ends of its sorted values and their sum, and
        # names a bad value in the given order: before it, a later 1.5
        values = [0.6, 0.2, 0.8, 0.4, 0.5]
        values[where] = bad
        if where < 4:
            values[4] = 1.5
        with pytest.raises(ValueError) as failure:
            DiscreteAgents(tuple(values))
        assert str(failure.value) == f"every SoC must be in (0,1), got {bad}"


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
    """charging_value: voe times the charging utility 1/s - 1."""

    def test_values_and_shape(self):
        unit = Preferences(vot=50.0, voe=1.0)
        assert charging_value(unit, 0.5) == pytest.approx(1.0)
        assert charging_value(unit, 0.1) == pytest.approx(9.0)
        assert charging_value(unit, 0.9) == pytest.approx(1.0 / 0.9 - 1.0)
        assert charging_value(unit, 0.2) > charging_value(unit, 0.8)
        assert charging_value(PREFS, 0.1) == pytest.approx(900.0)
        # an array of SoCs gives each SoC's float value, to the bit
        socs = [0.05, 0.2, 0.5, 0.9]
        assert charging_value(PREFS, np.array(socs)).tolist() == [
            charging_value(PREFS, s) for s in socs
        ]

    @pytest.mark.parametrize("s", [0.0, 1.0, -0.5, 1.5])
    def test_domain(self, s):
        # charging_value takes the SoCs of a pool, or of a population
        # built from a DiscreteAgents pool, and the pool rejects an SoC
        # outside (0,1) when it is built
        with pytest.raises(ValueError, match="SoC"):
            DiscreteAgents((0.5, s))
        with pytest.raises(ValueError, match="s_lo"):
            UniformContinuum(s_lo=s, s_hi=0.95, mass=10.0)
        with pytest.raises(ValueError, match="s_hi"):
            UniformContinuum(s_lo=0.05, s_hi=s, mass=10.0)


class TestUtility:
    """A DWPT-EV gains charging_value - toll on the ERS link, where it
    pays vot*t1, against vot*t2 on link 2; an OTHER-V pays time only.
    The solver and verifier reach this rule through threshold_soc, and
    the simulator and oracle through Population.bonus."""

    @settings(max_examples=300, deadline=None)
    @given(
        vot=st.floats(0.1, 1e3),
        voe=st.floats(0.1, 1e4),
        toll=st.floats(0.0, 1e4),
        t1=st.floats(1.0, 200.0),
        t2=st.floats(1.0, 200.0),
    )
    @example(vot=50.0, voe=100.0, toll=100.0, t1=11.5, t2=11.5)
    @example(vot=50.0, voe=100.0, toll=100.0, t1=9.0, t2=11.5)
    def test_dwpt_indifferent_at_threshold(self, vot, voe, toll, t1, t2):
        prefs = Preferences(vot=vot, voe=voe)
        s = threshold_soc(prefs, toll, t1, t2)
        extra_time_cost = vot * (t1 - t2)
        if toll + extra_time_cost <= 0.0:
            assert s == 1.0  # every SoC in (0,1) prefers the ERS link
            return
        # the rounding of 1/s - 1 scales with voe + toll
        tol = 1e-9 * (voe + toll)
        assert charging_value(prefs, s) - toll == pytest.approx(
            extra_time_cost, rel=1e-9, abs=tol
        )
        assert charging_value(prefs, s * (1 - 1e-6)) - toll > extra_time_cost
        assert charging_value(prefs, s * (1 + 1e-6)) - toll < extra_time_cost

    TOLLS = (FreeToll(), FixedToll(100.0), FixedToll(1e4))

    def test_dwpt_on_ers_link_nets_out_toll_and_charge(self):
        socs = np.array([0.05, 0.2, 0.5, 0.9])
        population = Population(socs, np.zeros(6, dtype=bool))
        for toll in self.TOLLS:
            assert population.bonus(PREFS, toll)[:4].tolist() == [
                charging_value(PREFS, s) - toll.dwpt_link1_charge for s in socs.tolist()
            ]

    def test_other_ignores_toll_and_charge(self):
        population = Population(np.array([0.5]), np.ones(4, dtype=bool))
        for toll in self.TOLLS:
            assert population.bonus(PREFS, toll)[1:].tolist() == [0.0, 0.0, 0.0]

    def test_dwpt_off_ers_link_pays_time_only(self):
        # a DWPT-EV on link 2 gains its link-1 bonus plus the time it
        # saves by switching, so on link 2 it paid vot*t2 and nothing else
        link1, link2 = ers_link(), plain_link(free_flow_time=12.0, capacity=5.0)
        bonus = Population(np.array([0.3]), np.zeros(10, dtype=bool)).bonus(
            PREFS, FixedToll(100.0)
        )
        kernel = _SweepKernel(link1, link2, PREFS.vot, bonus)
        x1 = 4  # vehicles on link 1 besides it
        gain = bonus[0] - kernel.gap[x1 + 1]  # the kernel's gain for leaving link 2
        assert gain == PREFS.vot * (bpr_time(link2, 10 - x1) - bpr_time(link1, x1 + 1)) + bonus[0]


# Every model value type keeps its fields in slots: (instance, one field's
# replacement, the repr it had as a dataclass).
SLOTTED = {
    "LinkParams": (
        lambda: ers_link(), {"capacity": 600.0},
        "LinkParams(free_flow_time=10.0, capacity=500.0, bpr_alpha=0.15, bpr_beta=4.0, "
        "has_ers=True, ers_power_kw=30.0)",
    ),
    "Network": (
        lambda: Network(ers_link(), plain_link()), {"link2": plain_link(capacity=400.0)},
        "Network(link1=LinkParams(free_flow_time=10.0, capacity=500.0, bpr_alpha=0.15, "
        "bpr_beta=4.0, has_ers=True, ers_power_kw=30.0), link2=LinkParams(free_flow_time=10.0, "
        "capacity=500.0, bpr_alpha=0.15, bpr_beta=4.0, has_ers=False, ers_power_kw=None))",
    ),
    "Preferences": (lambda: PREFS, {"voe": 150.0}, "Preferences(vot=50.0, voe=100.0)"),
    "UniformContinuum": (
        lambda: UniformContinuum(0.1, 0.9, 200.0), {"mass": 100.0},
        "UniformContinuum(s_lo=0.1, s_hi=0.9, mass=200.0)",
    ),
    "DiscreteAgents": (  # replace re-sorts through __init__
        lambda: DiscreteAgents((0.5, 0.2)), {"soc_values": (0.7, 0.3)},
        "DiscreteAgents(soc_values=(0.2, 0.5))",
    ),
    "FreeToll": (lambda: FreeToll(), {}, "FreeToll()"),
    "FixedToll": (lambda: FixedToll(100.0), {"price": 50.0}, "FixedToll(price=100.0)"),
    "Scenario": (
        lambda: TestScenario().base(network=Network(ers_link(), plain_link(capacity=400.0))),
        {"toll": FreeToll()},
        "Scenario(total_vehicles=1000.0, dwpt_ratio=0.2, soc=UniformContinuum(s_lo=0.1, "
        "s_hi=0.9, mass=200.0), prefs=Preferences(vot=50, voe=100), toll=FixedToll(price=100.0), "
        "network=Network(link1=LinkParams(free_flow_time=10.0, capacity=500.0, bpr_alpha=0.15, "
        "bpr_beta=4.0, has_ers=True, ers_power_kw=30.0), link2=LinkParams(free_flow_time=10.0, "
        "capacity=400.0, bpr_alpha=0.15, bpr_beta=4.0, has_ers=False, ers_power_kw=None)))",
    ),
}

# the only constructor defaults
LINK_DEFAULTS = {"bpr_alpha": 0.15, "bpr_beta": 4.0, "has_ers": False, "ers_power_kw": None}


@pytest.mark.parametrize("name", sorted(SLOTTED))
def test_value_types_keep_their_fields_in_slots(name):
    make, change, expected_repr = SLOTTED[name]
    value = make()
    assert type(value).__name__ == name and not hasattr(value, "__dict__")
    with pytest.raises(TypeError):
        vars(value)
    field_values = {f.name: getattr(value, f.name) for f in fields(value)}
    changed, copy = replace(value, **change), pickle.loads(pickle.dumps(value))
    rebuilt = type(value)(**{**field_values, **change})
    assert changed == rebuilt and (changed != value) == bool(change)
    assert copy == value == make() and copy is not value
    assert hash(copy) == hash(value) == hash(tuple(field_values.values()))
    assert repr(copy) == repr(value) == expected_repr
    defaults = LINK_DEFAULTS if name == "LinkParams" else {}
    assert {p.name: p.default for p in inspect.signature(type(value)).parameters.values()} == {
        field: defaults.get(field, inspect.Parameter.empty) for field in field_values
    }
    for field in field_values:
        with pytest.raises(AttributeError):
            setattr(value, field, 1.0)
        with pytest.raises(AttributeError):
            delattr(value, field)
    assert value == make() and is_dataclass(value)
    assert asdict(value) == {
        field: asdict(v) if is_dataclass(v) else v for field, v in field_values.items()
    }
