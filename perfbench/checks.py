"""Correctness checks on the artifacts one `karmabid compare` writes.

Each check is a (name, ok, detail) triple; the benchmark counts every
triple as attempted and every ok == False as failed.
"""

from __future__ import annotations

import json
from pathlib import Path

MECHANISM_ROWS = ("KARMA", "RANDOM", "TURN", "GREEDY_URGENCY")
LP_ROW = "MAX_EFF_LP"


def parse_comparison(text: str) -> dict[str, float]:
    """comparison.csv as {mechanism: r_bar}."""
    rows = {}
    for line in text.splitlines()[1:]:
        cells = line.split(",")
        if len(cells) >= 2 and cells[0]:
            rows[cells[0]] = float(cells[1])
    return rows


def check_rows(exit_code: int, comparison: str | None) -> tuple:
    expected = set(MECHANISM_ROWS) | {LP_ROW}
    present = set(parse_comparison(comparison)) if comparison is not None else set()
    missing = sorted(expected - present)
    ok = exit_code == 0 and not missing
    return ("exit_0_and_five_rows", ok, f"exit {exit_code}, missing {missing}")


def check_converged(summary: dict, tol_policy: float, tol_distribution: float) -> tuple:
    expl = summary.get("exploitability", float("inf"))
    resid = summary.get("stationarity_residual", float("inf"))
    ok = bool(summary.get("converged")) and expl <= tol_policy and resid <= tol_distribution
    return ("solve_within_tolerances", ok, f"exploitability {expl!r}, stationarity {resid!r}")


def check_lp_bound(rows: dict[str, float]) -> tuple:
    lp = rows.get(LP_ROW, float("-inf"))
    simulated = {name: rows[name] for name in MECHANISM_ROWS if name in rows}
    below = sorted(name for name, r_bar in simulated.items() if lp < r_bar)
    ok = bool(simulated) and not below
    return ("lp_bounds_every_r_bar", ok, f"lp {lp!r}, exceeded by {below}")


def check_identical(texts: list[str]) -> tuple:
    ok = len(set(texts)) == 1
    return ("comparison_byte_identical", ok, f"{len(set(texts))} distinct of {len(texts)}")


def artifact_checks(out: Path, exit_code: int) -> list[tuple]:
    """The per-compare checks: rows present, convergence, LP bound."""
    comparison_path = out / "comparison.csv"
    comparison = comparison_path.read_text() if comparison_path.exists() else None
    checks = [check_rows(exit_code, comparison)]
    if comparison is None or exit_code != 0:
        return checks
    config = json.loads((out / "manifest.json").read_text())["config"]
    summary = json.loads((out / "solve_summary.json").read_text())
    checks.append(check_converged(summary, config["tol_policy"], config["tol_distribution"]))
    checks.append(check_lp_bound(parse_comparison(comparison)))
    return checks
