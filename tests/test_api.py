"""The public API: growing or shrinking it takes an edit here."""

import re
from pathlib import Path

import karmabid

PUBLIC_NAMES = [
    "ARTIFACT_VERSION", "EquilibriumResult", "GameConfig", "LpError", "LpProblem", "Mechanism",
    "MechanismKind", "MetricsReport", "ParameterError", "RunSetup", "SocialState", "SolverConfig",
    "SolverError", "UrgencyProcess", "ValueTables", "build_max_eff_lp", "build_urgency_process",
    "load_config", "run_experiment", "solve_lp", "solve_sne",
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
    assert result.converged and result.iterations == 402  # as its comment says
    assert report.r_bar <= bound
    printed = capsys.readouterr().out.splitlines()
    assert printed[-1] == f"{report.r_bar} {report.beta} {bound}"
