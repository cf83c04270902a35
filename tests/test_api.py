"""The public API: growing or shrinking it takes an edit here."""

import re
from pathlib import Path

import karmabid

PUBLIC_NAMES = [
    "ARTIFACT_VERSION", "DEFAULTS", "EquilibriumResult", "GameConfig", "LpError",
    "LpInfeasibleError", "LpProblem", "LpUnboundedError", "Mechanism", "MechanismKind",
    "MetricsReport", "ParameterError", "Population", "RunManifest", "RunSetup", "SocialState",
    "SolverConfig", "SolverError", "UrgencyProcess", "ValueTables", "average_payment",
    "bid_marginal", "build_max_eff_lp", "build_urgency_process", "exploitability",
    "initial_social_state", "initialize_population", "load_config",
    "mixture_stationary_distribution", "perturbed_best_response", "policy_evaluation",
    "q_function", "random_long_run_reward", "run_experiment", "run_round", "setup_from_mapping",
    "solve_lp", "solve_sne", "solve_standard_form", "win_prob_all_bids",
]


def test_exported_names_are_pinned():
    assert sorted(karmabid.__all__) == PUBLIC_NAMES
    assert len(set(karmabid.__all__)) == len(karmabid.__all__)


def test_every_exported_name_resolves():
    for name in karmabid.__all__:
        assert getattr(karmabid, name) is not None, name


def test_readme_library_example_runs(capsys):
    # The README's Python block is the documented use of the public API.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.DOTALL | re.MULTILINE)
    assert len(blocks) == 1
    namespace: dict = {}
    exec(compile(blocks[0], "README.md", "exec"), namespace)
    result, report, bound = namespace["result"], namespace["report"], namespace["bound"]
    assert result.converged and result.iterations == 456  # as its comment says
    assert report.r_bar <= bound
    printed = capsys.readouterr().out.splitlines()
    assert printed[-1] == f"{report.r_bar} {report.beta} {bound}"
