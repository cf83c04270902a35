"""Karma bidding economy for fair resource allocation.

A non-monetary currency (karma) mediates repeated pairwise contests for
a scarce resource between agents whose urgency evolves with the outcome:
winning resets it, losing escalates it. The package computes the
stationary equilibrium of the mean-field bidding game, simulates a
finite population playing it, and benchmarks efficiency and fairness
against coin-flip, turn-taking, and a linear-programming upper bound.
"""

from .baselines import (
    LpProblem,
    build_max_eff_lp,
    mixture_stationary_distribution,
    random_long_run_reward,
    solve_lp,
)
from .config import ARTIFACT_VERSION, DEFAULTS, RunManifest, RunSetup, load_config, setup_from_mapping
from .equilibrium import (
    EquilibriumResult,
    SolverConfig,
    SolverError,
    ValueTables,
    exploitability,
    initial_social_state,
    perturbed_best_response,
    policy_evaluation,
    q_function,
    solve_sne,
)
from .model import (
    GameConfig,
    ParameterError,
    SocialState,
    UrgencyProcess,
    average_payment,
    bid_marginal,
    build_urgency_process,
    win_prob_all_bids,
)
from .simplex import LpError, LpInfeasibleError, LpUnboundedError, solve_standard_form
from .simulation import (
    Mechanism,
    MechanismKind,
    MetricsReport,
    Population,
    initialize_population,
    run_experiment,
    run_round,
)

__version__ = ARTIFACT_VERSION

__all__ = [
    "ARTIFACT_VERSION",
    "DEFAULTS",
    "EquilibriumResult",
    "GameConfig",
    "LpError",
    "LpInfeasibleError",
    "LpProblem",
    "LpUnboundedError",
    "Mechanism",
    "MechanismKind",
    "MetricsReport",
    "ParameterError",
    "Population",
    "RunManifest",
    "RunSetup",
    "SocialState",
    "SolverConfig",
    "SolverError",
    "UrgencyProcess",
    "ValueTables",
    "average_payment",
    "bid_marginal",
    "build_max_eff_lp",
    "build_urgency_process",
    "exploitability",
    "initial_social_state",
    "initialize_population",
    "load_config",
    "mixture_stationary_distribution",
    "perturbed_best_response",
    "policy_evaluation",
    "q_function",
    "random_long_run_reward",
    "run_experiment",
    "run_round",
    "setup_from_mapping",
    "solve_lp",
    "solve_sne",
    "solve_standard_form",
    "win_prob_all_bids",
]
