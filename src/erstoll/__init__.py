"""Two-class traffic equilibrium and toll analysis for a two-link
electric road system.

The deterministic user-equilibrium solver, pattern taxonomy, toll bands,
and a best-response simulator live in submodules:

* model - domain types (links, preferences, SoC pools, tolls, scenarios)
  and the charging payoff
* equilibrium - analytic solver and equilibrium verifier (math only)
* analysis - pattern labels, TTT/TCV/revenue, toll bands
* dynamics - the atomic game over discrete agents (numpy): day-to-day
  best-response simulation and the brute-force oracle
* harness - config files, sweeps, presets, CSV output
* cli - the `erstoll` command

The package re-exports the README quick start, its model types, results
and errors, load_scenario, verify_equilibrium and the oracle; everything
else is reached through its module.
"""

from .analysis import Metrics, PatternLabel, TollBand, classify, metrics, toll_bands
from .equilibrium import (
    ConvergenceError,
    EquilibriumResult,
    RegimeTag,
    solve,
    verify_equilibrium,
)
from .harness import ConfigError, apply_overrides, load_scenario, table1_scenario
from .model import (
    DiscreteAgents,
    FixedToll,
    FreeToll,
    LinkParams,
    Network,
    Preferences,
    Scenario,
    UniformContinuum,
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
    "Scenario",
    "TollBand",
    "UniformContinuum",
    "apply_overrides",
    "brute_force_equilibrium",
    "classify",
    "load_scenario",
    "metrics",
    "solve",
    "table1_scenario",
    "toll_bands",
    "verify_equilibrium",
]
