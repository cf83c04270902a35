"""Acceptance suite: every exit criterion at its stated tolerance.

Each criterion prints one PASS/FAIL line (run with `pytest -s` to see
them live). Criterion 7's final clause, the literal efficiency bar
against the LP bound, is unattainable for sign reasons detailed at the
test; it is asserted literally and marked as an expected failure so the
defect stays visible without masking the healthy criteria.
"""

import dataclasses

import numpy as np
import pytest

from karmabid import (
    Mechanism,
    MechanismKind,
    build_max_eff_lp,
    run_experiment,
    solve_lp,
)
from karmabid.cli import main
from karmabid.simulation import _UrgencyTables, initialize_population, run_round
from oracles import deviation_gains_oracle, random_long_run_reward, unpack, vertex_enumeration_lp

SEEDS = (11, 12, 13, 14, 15)
MECHANISMS = (
    MechanismKind.KARMA,
    MechanismKind.RANDOM,
    MechanismKind.TURN,
    MechanismKind.GREEDY_URGENCY,
)


def _criterion(number: str, name: str, passed: bool, detail: str) -> bool:
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number:>3} {name}: {status} ({detail})")
    return passed


@pytest.fixture(scope="module")
def lp_solution(case_process):
    problem = build_max_eff_lp(case_process)
    value, psi = solve_lp(problem)
    return problem, value, psi


@pytest.fixture(scope="module")
def seeded_reports(case_process, case_config, case_equilibrium):
    """All four mechanisms on five common seeds."""
    reports = {kind: {} for kind in MECHANISMS}
    for seed in SEEDS:
        config = dataclasses.replace(case_config, rng_seed=seed)
        for kind in MECHANISMS:
            if kind is MechanismKind.KARMA:
                mechanism = Mechanism.karma(case_equilibrium)
            else:
                mechanism = Mechanism(kind=kind)
            reports[kind][seed] = run_experiment(case_process, config, mechanism)
    return reports


def _mean_and_se(values: np.ndarray) -> tuple[float, float]:
    values = np.asarray(values, dtype=float)
    return float(values.mean()), float(values.std(ddof=1) / np.sqrt(len(values)))


def test_criterion_1_sne_convergence(case_config, case_equilibrium):
    result = case_equilibrium
    ok = (
        result.converged
        and result.exploitability <= 1e-4
        and result.stationarity_residual <= 1e-6
        and result.iterations <= 2000
        and result.solve_seconds < 300.0
    )
    assert _criterion(
        "1", "SNE convergence on the case study", ok,
        f"converged={result.converged} iters={result.iterations} "
        f"exploitability={result.exploitability:.3e} "
        f"residual={result.stationarity_residual:.3e} time={result.solve_seconds:.1f}s",
    )


def test_criterion_2_equilibrium_mean_karma(case_config, case_equilibrium):
    mean_karma = case_equilibrium.social.mean_karma
    cap_mass = float(case_equilibrium.social.d[:, case_config.k_max - 2 :].sum())
    ok = abs(mean_karma - case_config.k_bar) <= 0.01 and cap_mass < 1e-3
    assert _criterion(
        "2", "equilibrium mean karma and truncation headroom", ok,
        f"mean_karma={mean_karma:.6f} mass_at_top_3_bins={cap_mass:.3e}",
    )


def test_criterion_3_bids_monotone_in_urgency(case_config, case_equilibrium):
    social = case_equilibrium.social
    bids = np.arange(case_config.k_max + 1, dtype=float)
    expected_bid = unpack(social.pi) @ bids
    worst = 0.0
    for k in range(case_config.k_max + 1):
        eligible = np.nonzero(social.d[:, k] > 1e-4)[0]
        values = expected_bid[eligible, k]
        if len(values) >= 2:
            worst = max(worst, float(np.max(values[:-1] - values[1:])))
    ok = worst <= 1e-6
    assert _criterion(
        "3", "expected bid nondecreasing in urgency", ok,
        f"worst_decrease={worst:.3e} over states with mass > 1e-4",
    )


def test_criterion_4_small_game_deviation_proof(small_game, small_game_solution):
    process, config = small_game
    gains = deviation_gains_oracle(process, small_game_solution.social, config.alpha)
    ok = float(gains.max()) <= 1e-4
    assert _criterion(
        "4", "no profitable unilateral deviation in the 2-level game", ok,
        f"max_deviation_gain={gains.max():.3e} (exhaustive search over deterministic bids)",
    )


def test_criterion_5_random_matches_analytic(case_process, seeded_reports):
    analytic = random_long_run_reward(case_process)
    errors = [
        abs(seeded_reports[MechanismKind.RANDOM][seed].r_bar - analytic) / abs(analytic)
        for seed in SEEDS
    ]
    ok = max(errors) <= 0.02
    assert _criterion(
        "5", "RANDOM simulation matches the chain oracle", ok,
        f"analytic={analytic:.4f} worst_rel_error={max(errors):.4f} over {len(SEEDS)} seeds",
    )


def test_criterion_6_lp_correctness_and_upper_bound(lp_solution, seeded_reports):
    problem, value, _psi = lp_solution
    oracle_value, _ = vertex_enumeration_lp(problem)
    enum_ok = abs(value - oracle_value) <= 1e-8
    bound_ok = all(
        seeded_reports[kind][seed].r_bar <= value + 0.02 * abs(value)
        for kind in MECHANISMS
        for seed in SEEDS
    )
    ok = enum_ok and bound_ok
    assert _criterion(
        "6", "LP optimum equals enumeration and upper-bounds all mechanisms", ok,
        f"lp={value:.6f} enum={oracle_value:.6f} upper_bound_holds={bound_ok}",
    )


def test_criterion_7_karma_beats_random_and_turn(seeded_reports):
    karma = np.array([seeded_reports[MechanismKind.KARMA][s].r_bar for s in SEEDS])
    random_r = np.array([seeded_reports[MechanismKind.RANDOM][s].r_bar for s in SEEDS])
    turn_r = np.array([seeded_reports[MechanismKind.TURN][s].r_bar for s in SEEDS])
    karma_b = np.array([seeded_reports[MechanismKind.KARMA][s].beta for s in SEEDS])
    random_b = np.array([seeded_reports[MechanismKind.RANDOM][s].beta for s in SEEDS])

    checks = []
    for label, diffs in (
        ("r_bar KARMA-TURN", karma - turn_r),
        ("r_bar KARMA-RANDOM", karma - random_r),
        ("beta KARMA-RANDOM", karma_b - random_b),
    ):
        mean, se = _mean_and_se(diffs)
        margin = mean / se if se > 0 else np.inf
        checks.append((label, mean, margin, mean > 0 and margin > 3.0))
    ok = all(flag for *_ignored, flag in checks)
    detail = "; ".join(f"{label}: +{mean:.4f} ({margin:.0f} SE)" for label, mean, margin, _ in checks)
    assert _criterion("7ab", "KARMA beats RANDOM and TURN by > 3 standard errors", ok, detail)


@pytest.mark.xfail(
    strict=True,
    reason=(
        "Literal bar r_bar_KARMA >= 0.9 * r_bar_MAX_EFF_LP is unattainable: rewards are "
        "nonpositive, so every mechanism satisfies r_bar <= lp_bound < 0.9 * lp_bound. The "
        "sign-corrected efficiency reading (r_bar >= lp_bound / 0.9) also cannot hold here "
        "because the LP relaxes the pairing constraints of uniform random matching: even the "
        "omniscient greedy rule only reaches about 0.78 of the LP bound, while KARMA reaches "
        "about 0.98 of greedy, which is what 'nearly on par' describes."
    ),
)
def test_criterion_7_literal_lp_efficiency_bar(lp_solution, seeded_reports):
    _problem, lp_value, _psi = lp_solution
    karma_mean = float(np.mean([seeded_reports[MechanismKind.KARMA][s].r_bar for s in SEEDS]))
    greedy_mean = float(np.mean([seeded_reports[MechanismKind.GREEDY_URGENCY][s].r_bar for s in SEEDS]))
    ok = karma_mean >= 0.9 * lp_value
    _criterion(
        "7c", "literal efficiency bar vs the LP bound", ok,
        f"karma={karma_mean:.4f} lp_bound={lp_value:.4f} "
        f"lp_efficiency_ratio={lp_value / karma_mean:.3f} "
        f"vs_greedy_ratio={greedy_mean / karma_mean:.3f}",
    )
    assert ok


def test_criterion_8_exact_karma_conservation(case_process, case_config, case_equilibrium):
    mechanism = Mechanism.karma(case_equilibrium)
    pop = initialize_population(case_process, case_config, mechanism)
    tables = _UrgencyTables.build(case_process)
    expected_total = case_config.n_agents * case_config.k_bar
    violations = 0
    rounds = case_config.burn_in + case_config.n_rounds
    for _ in range(rounds):
        run_round(pop, tables, mechanism)
        if int(pop.karma.sum()) != expected_total:
            violations += 1
    ok = violations == 0
    assert _criterion(
        "8", "integer karma conservation every round", ok,
        f"{rounds} rounds, total always {expected_total}: violations={violations}",
    )


def test_criterion_9_compare_rerun_is_byte_identical(tmp_path):
    out1 = tmp_path / "first"
    out2 = tmp_path / "second"
    assert main(["compare", "--out", str(out1)]) == 0
    # reproduce from the manifest alone
    assert main(["compare", "--config", str(out1 / "manifest.json"), "--out", str(out2)]) == 0
    mismatched = [
        name
        for name in ("comparison.csv", "policy.csv", "distribution.csv", "residuals.csv")
        if (out1 / name).read_bytes() != (out2 / name).read_bytes()
    ]
    rows = {
        line.split(",")[0]: float(line.split(",")[1])
        for line in (out1 / "comparison.csv").read_text().splitlines()[1:]
    }
    ordering_ok = rows["KARMA"] > rows["TURN"] and rows["KARMA"] > rows["RANDOM"]
    ok = not mismatched and ordering_ok
    assert _criterion(
        "9", "compare rerun from its manifest is byte-identical", ok,
        f"checked comparison/policy/distribution/residuals CSVs; mismatches={mismatched or 'none'}; "
        f"emitted r_bar ordering holds={ordering_ok}",
    )
