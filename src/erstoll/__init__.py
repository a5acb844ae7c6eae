"""Two-class traffic equilibrium and toll analysis for a two-link
electric road system.

The deterministic user-equilibrium solver, pattern taxonomy, toll bands,
and a best-response simulator live in submodules:

* model - domain types (links, preferences, SoC pools, tolls, scenarios)
* equilibrium - analytic solver and equilibrium verifier (math only)
* analysis - pattern labels, TTT/TCV/revenue, toll bands
* dynamics - the atomic game over discrete agents (numpy): day-to-day
  best-response simulation and the brute-force oracle
* harness - config files, sweeps, presets, CSV output
* cli - the `erstoll` command
"""

from .analysis import (
    Metrics,
    PatternLabel,
    TollBand,
    band_containing,
    classify,
    is_conventional_so,
    is_ers_optimum,
    metrics,
    min_total_travel_time,
    toll_bands,
)
from .equilibrium import (
    ConvergenceError,
    EquilibriumResult,
    RegimeTag,
    solve,
    threshold_soc,
    verify_equilibrium,
)
from .harness import (
    ConfigError,
    ResultRow,
    SweepSpec,
    apply_overrides,
    fig2_data,
    load_scenario,
    run_sweep,
    save_scenario,
    table1_scenario,
    table2_rows,
)
from .model import (
    INDIFFERENCE_EPS,
    DiscreteAgents,
    FixedToll,
    FreeToll,
    LinkParams,
    Network,
    Preferences,
    Scenario,
    SocDistribution,
    TollSystem,
    UniformContinuum,
    VehicleClass,
    bpr_time,
    charging_utility,
    utility,
)

__version__ = "0.1.0"


def __getattr__(name):
    # The oracle lives with the numpy-backed atomic game; importing it on
    # first use keeps numpy off the analytic path.
    if name == "brute_force_equilibrium":
        from .dynamics import brute_force_equilibrium

        return brute_force_equilibrium
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "INDIFFERENCE_EPS",
    "ConfigError",
    "ConvergenceError",
    "DiscreteAgents",
    "EquilibriumResult",
    "FixedToll",
    "FreeToll",
    "LinkParams",
    "Metrics",
    "Network",
    "PatternLabel",
    "Preferences",
    "RegimeTag",
    "ResultRow",
    "Scenario",
    "SocDistribution",
    "SweepSpec",
    "TollBand",
    "TollSystem",
    "UniformContinuum",
    "VehicleClass",
    "apply_overrides",
    "band_containing",
    "bpr_time",
    "brute_force_equilibrium",
    "charging_utility",
    "classify",
    "fig2_data",
    "is_conventional_so",
    "is_ers_optimum",
    "load_scenario",
    "metrics",
    "min_total_travel_time",
    "run_sweep",
    "save_scenario",
    "solve",
    "table1_scenario",
    "table2_rows",
    "threshold_soc",
    "toll_bands",
    "utility",
    "verify_equilibrium",
]
