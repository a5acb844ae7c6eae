"""Two-class traffic equilibrium and toll analysis for a two-link
electric road system.

The deterministic user-equilibrium solver, pattern taxonomy, toll bands,
and a best-response simulator live in submodules:

* model - domain types (links, preferences, SoC pools, tolls, scenarios)
  and the charging payoff
* equilibrium - analytic solver, equilibrium verifier and the
  brute-force oracle of the atomic game (math only)
* analysis - pattern labels, TTT/TCV/revenue, toll bands
* dynamics - day-to-day best-response simulation of the atomic game
  over discrete agents (numpy)
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
    brute_force_equilibrium,
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
