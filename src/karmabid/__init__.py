"""Karma bidding economy for fair resource allocation.

A non-monetary currency (karma) mediates repeated pairwise contests for
a scarce resource between agents whose urgency evolves with the outcome:
winning resets it, losing escalates it. The package computes the
stationary equilibrium of the mean-field bidding game, simulates a
finite population playing it, and benchmarks efficiency and fairness
against coin-flip, turn-taking, and a linear-programming upper bound.

The names below are the public API: the functions the README's library
example calls and load_config, the types they take and return, the
errors they raise, and ARTIFACT_VERSION. Everything else is importable
from its own module, without a stability promise.
"""

from .baselines import LpProblem, build_max_eff_lp, solve_lp
from .config import ARTIFACT_VERSION, RunSetup, load_config
from .equilibrium import EquilibriumResult, SolverConfig, SolverError, ValueTables, solve_sne
from .model import GameConfig, ParameterError, SocialState, UrgencyProcess, build_urgency_process
from .simplex import LpError
from .simulation import Mechanism, MechanismKind, MetricsReport, run_experiment

__version__ = ARTIFACT_VERSION

__all__ = [
    "ARTIFACT_VERSION",
    "EquilibriumResult",
    "GameConfig",
    "LpError",
    "LpProblem",
    "Mechanism",
    "MechanismKind",
    "MetricsReport",
    "ParameterError",
    "RunSetup",
    "SocialState",
    "SolverConfig",
    "SolverError",
    "UrgencyProcess",
    "ValueTables",
    "build_max_eff_lp",
    "build_urgency_process",
    "load_config",
    "run_experiment",
    "solve_lp",
    "solve_sne",
]
