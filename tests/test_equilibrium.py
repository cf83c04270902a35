"""Equilibrium solver tests: evaluation against dense and power-iteration
oracles, best-response limits, and convergence behavior on small games."""

import gc
import time
import tracemalloc
import types

import numpy as np
import pytest

from karmabid import (
    GameConfig,
    Mechanism,
    ParameterError,
    SocialState,
    SolverConfig,
    SolverError,
    UrgencyProcess,
    build_urgency_process,
    run_experiment,
    solve_sne,
)
from karmabid import equilibrium
from karmabid.equilibrium import (
    TransitionOperator,
    _anneal,
    exploitability,
    initial_social_state,
    perturbed_best_response,
    policy_evaluation,
    q_function,
)
from karmabid.cli import main
from karmabid.model import bid_marginal, win_prob_all_bids
from conftest import make_random_social
from oracles import (
    best_response_oracle,
    deviation_gains_oracle,
    exploitability_oracle,
    kernel_oracle,
    pack,
    power_iteration_oracle,
    q_oracle,
    rewards_oracle,
    unpack,
    value_iteration_oracle,
)


def zero_level_process() -> UrgencyProcess:
    return UrgencyProcess(levels=(0,), phi=np.ones((2, 1, 1)))


def stress_q_table(rng: np.random.Generator, temperature: float) -> np.ndarray:
    """Random packed Q table with states that probe the softmax: shifted,
    scaled exponents spread over [-746, -708] (denormal and zero
    exponentials), the single feasible bid of balance 0, and exact ties
    at the maximum."""
    n_u, nk = 3, 14
    q = rng.standard_normal((n_u, nk, nk))
    gaps = [0.0, -708.0, -708.4, -720.0, -740.0, -745.0, -745.1, -745.2, -745.9,
            -746.0, -746.1, -800.0, -3.0]
    q[0, 12, :13] = temperature * np.array(gaps)
    q[0, 13, :14] = 7.0 + temperature * rng.uniform(-746.0, -708.0, 14)
    q[0, 13, 5] = 7.0
    q[1, 0, 0] = 0.7
    q[2, 8, :9] = [1.0, 2.0, 2.0, 0.5, 2.0, -1.0, 2.0, 0.0, 1.5]
    q[2, 4, :5] = 0.25
    return pack(q)


# Slack for oracle entries that are themselves denormal: a quotient there
# keeps only a few significant bits, so it may round to a neighbouring
# multiple of the smallest denormal (4.9e-324).
DENORMAL_SLACK = 1e-322


def push_step(process: UrgencyProcess, social: SocialState) -> SocialState:
    """One push of d through the transitions of the social state itself."""
    return SocialState(d=TransitionOperator(process, social).push(), pi=social.pi)


def assert_operator_matches_oracle(process: UrgencyProcess, social: SocialState, seed: int) -> None:
    op = TransitionOperator(process, social)
    kernel = kernel_oracle(process, social)
    values = np.random.default_rng(seed).standard_normal(social.d.shape)
    np.testing.assert_allclose(op.apply(values).ravel(), kernel @ values.ravel(), rtol=0, atol=1e-12)
    np.testing.assert_allclose(op.push().ravel(), social.d.ravel() @ kernel, rtol=0, atol=1e-12)


class TestPolicyEvaluation:
    def test_alpha_zero_gives_immediate_rewards(self, case_process):
        rng = np.random.default_rng(1)
        social = make_random_social(rng, case_process.n_levels, 8)
        config = GameConfig(alpha=0.0, k_bar=4, k_max=8)
        values = policy_evaluation(case_process, TransitionOperator(case_process, social), config)
        np.testing.assert_allclose(values.V, values.R, rtol=0, atol=1e-14)

    def test_zero_valuation_gives_zero_values(self):
        proc = zero_level_process()
        config = GameConfig(k_bar=2, k_max=4)
        social = initial_social_state(proc, config)
        values = policy_evaluation(proc, TransitionOperator(proc, social), config)
        np.testing.assert_allclose(values.V, 0.0, atol=1e-12)

    def test_uniform_policy_matches_oracle_solve(self, case_process, case_config):
        # Independent route: rewards and kernel rebuilt by loops, values by
        # successive approximation instead of the library's direct solve.
        social = initial_social_state(case_process, case_config)
        values = policy_evaluation(case_process, TransitionOperator(case_process, social), case_config)
        reward_oracle = rewards_oracle(case_process, social)
        kernel_o = kernel_oracle(case_process, social)
        v_oracle = value_iteration_oracle(reward_oracle, kernel_o, case_config.alpha)
        np.testing.assert_allclose(values.V, v_oracle, atol=1e-8)

    def test_value_bounds(self, case_process, case_config, case_equilibrium):
        v = case_equilibrium.values.V
        bound = max(case_process.levels) / (1.0 - case_config.alpha)
        assert v.max() <= 1e-9
        assert v.min() >= -bound - 1e-9

    def test_residual_contract_raises_with_residual(self, case_process, case_config):
        # No iterate reaches 1e-300, so this also checks that the capped
        # iterative solve gives up in bounded time.
        op = TransitionOperator(case_process, initial_social_state(case_process, case_config))
        start = time.perf_counter()
        with pytest.raises(SolverError) as err:
            policy_evaluation(case_process, op, case_config, 1e-300)
        assert err.value.residual > 0
        assert time.perf_counter() - start < 30.0

    def test_warm_start_matches_cold_start(self, case_process, case_config):
        rng = np.random.default_rng(4)
        social = make_random_social(rng, case_process.n_levels, case_config.k_max)
        op = TransitionOperator(case_process, social)
        cold = policy_evaluation(case_process, op, case_config)
        arbitrary = 100.0 * rng.standard_normal(social.d.shape)
        warm = policy_evaluation(case_process, op, case_config, initial=arbitrary)
        np.testing.assert_allclose(warm.V, cold.V, rtol=0, atol=1e-8)

    def test_non_finite_start_raises(self, case_process, case_config):
        social = initial_social_state(case_process, case_config)
        with pytest.raises(SolverError):
            policy_evaluation(case_process, TransitionOperator(case_process, social), case_config,
                              initial=np.full(social.d.shape, np.nan))

    def test_rejects_misshapen_initial(self, case_process, case_config):
        social = initial_social_state(case_process, case_config)
        n_u, nk = social.d.shape
        op = TransitionOperator(case_process, social)
        for shape in ((nk, n_u), (n_u, nk - 1)):
            with pytest.raises(ParameterError, match="initial"):
                policy_evaluation(case_process, op, case_config, initial=np.zeros(shape))

    def test_restarted_gmres_meets_the_contract(self, case_process, case_config, case_equilibrium,
                                                monkeypatch):
        # No workload restarts GMRES: the longest value solve seen takes 89
        # steps, under the 100 of one cycle. With cycles of 4 steps the
        # case-study equilibrium's solve takes 179 steps instead of 42; more
        # steps than one cycle holds means it restarted.
        op = TransitionOperator(case_process, case_equilibrium.social)
        whole = policy_evaluation(case_process, op, case_config)
        monkeypatch.setattr(equilibrium, "_GMRES_RESTART", 4)
        restarted = policy_evaluation(case_process, op, case_config)
        assert restarted.inner_iterations > 4
        backup = restarted.R + case_config.alpha * op.apply(restarted.V)
        assert np.abs(restarted.V - backup).max() <= SolverConfig().tol_value
        np.testing.assert_allclose(restarted.V, whole.V, rtol=0, atol=1e-8)

    def test_peak_memory_stays_below_dense_kernel(self, case_process):
        # A dense S x S float kernel at k_max = 160 alone takes S^2 * 8 bytes.
        config = GameConfig(k_max=160)
        social = initial_social_state(case_process, config)
        size = social.d.size
        tracemalloc.start()
        try:
            policy_evaluation(case_process, TransitionOperator(case_process, social), config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < size * size * 8


class TestQFunction:
    def test_alpha_zero_reduces_to_immediate_reward(self, case_process):
        rng = np.random.default_rng(2)
        social = make_random_social(rng, case_process.n_levels, 8)
        config = GameConfig(alpha=0.0, k_bar=4, k_max=8)
        op = TransitionOperator(case_process, social)
        values = policy_evaluation(case_process, op, config)
        q = unpack(q_function(values, op, case_process, config))
        nu = bid_marginal(social)
        xi = -np.outer(case_process.level_values, 1.0 - win_prob_all_bids(nu))
        for k in range(9):
            np.testing.assert_allclose(q[:, k, : k + 1], xi[:, : k + 1], atol=1e-14)

    def test_infeasible_bids_absent(self, case_process, case_config, case_equilibrium):
        # The packed table has exactly one finite entry per feasible bid.
        op = TransitionOperator(case_process, case_equilibrium.social)
        q = q_function(case_equilibrium.values, op, case_process, case_config)
        nk = case_config.k_max + 1
        assert q.shape == (case_process.n_levels, nk * (nk + 1) // 2)
        assert np.isfinite(q).all()

    def test_spot_state_matches_bruteforce(self, case_process, case_config):
        rng = np.random.default_rng(3)
        social = make_random_social(rng, case_process.n_levels, case_config.k_max)
        op = TransitionOperator(case_process, social)
        values = policy_evaluation(case_process, op, case_config)
        q = unpack(q_function(values, op, case_process, case_config))
        spot = q_oracle(case_process, social, values.V, case_config.alpha, u=4, k=10)
        np.testing.assert_allclose(q[4, 10, :11], spot, atol=1e-9)

    def test_full_table_matches_bruteforce(self, small_game):
        process, config = small_game
        social = make_random_social(np.random.default_rng(19), process.n_levels, config.k_max)
        op = TransitionOperator(process, social)
        values = policy_evaluation(process, op, config)
        q = unpack(q_function(values, op, process, config), fill=np.nan)
        for u in range(process.n_levels):
            for k in range(config.k_max + 1):
                row = q_oracle(process, social, values.V, config.alpha, u=u, k=k)
                np.testing.assert_allclose(q[u, k, : k + 1], row, rtol=0, atol=1e-12)


class TestPerturbedBestResponse:
    def test_uniform_q_gives_uniform_policy(self):
        q = np.full((1, 10), 1.25)  # balances 0 to 3
        pi = unpack(perturbed_best_response(q, temperature=0.7))
        for k in range(4):
            np.testing.assert_allclose(pi[0, k, : k + 1], 1.0 / (k + 1), atol=1e-12)

    def test_low_temperature_selects_argmax(self):
        q = np.zeros((1, 4, 4))
        q[0, 3] = [0.0, 1.0, 3.0, 2.0]
        pi = unpack(perturbed_best_response(pack(q), temperature=1e-9))
        np.testing.assert_allclose(pi[0, 3], [0, 0, 1, 0], atol=1e-6)

    def test_low_temperature_splits_exact_ties(self):
        q = np.zeros((1, 4, 4))
        q[0, 3] = [0.0, 3.0, 3.0, 1.0]
        pi = unpack(perturbed_best_response(pack(q), temperature=1e-9))
        np.testing.assert_allclose(pi[0, 3], [0, 0.5, 0.5, 0], atol=1e-6)

    @pytest.mark.parametrize("temperature", [2.0, 1e-2, 1e-5])
    def test_matches_oracle_on_stress_rows(self, temperature):
        q = stress_q_table(np.random.default_rng(20), temperature)
        pi = perturbed_best_response(q, temperature)
        oracle = best_response_oracle(q, temperature)
        np.testing.assert_array_equal(pi == 0.0, oracle == 0.0)
        np.testing.assert_allclose(pi, oracle, rtol=1e-15, atol=DENORMAL_SLACK)
        # the gap row does reach denormal weights and exact zeros
        gap_row = unpack(oracle)[0, 12, :13]
        assert ((0.0 < gap_row) & (gap_row < np.finfo(float).tiny)).any()
        assert (gap_row[9:12] == 0.0).all()

    def test_rejects_nonpositive_temperature(self):
        q = np.zeros((1, 1))
        with pytest.raises(ParameterError):
            perturbed_best_response(q, temperature=0.0)

    def test_extreme_values_do_not_overflow(self):
        # value scale of a discounted game with top urgency 16 at alpha 0.98
        q = np.zeros((1, 3, 3))
        q[0, 2] = [-800.0, -1.0, -400.0]
        pi = unpack(perturbed_best_response(pack(q), temperature=1e-5))
        assert np.isfinite(pi).all()
        np.testing.assert_allclose(pi[0, 2], [0, 1, 0], atol=1e-12)


class TestExploitability:
    @pytest.mark.parametrize("temperature", [2.0, 1e-5])
    def test_matches_oracle_on_stress_rows(self, temperature):
        rng = np.random.default_rng(22)
        q = stress_q_table(rng, temperature)
        for pi in (best_response_oracle(q, 1.0), best_response_oracle(q, temperature)):
            gain = exploitability(q, pi)
            oracle = exploitability_oracle(q, pi)
            assert gain == pytest.approx(oracle, rel=1e-15, abs=1e-15 * np.abs(q).max())

    def test_zero_at_a_deterministic_best_response(self):
        q = stress_q_table(np.random.default_rng(23), 1.0)
        square = unpack(q, fill=-np.inf)
        pi = np.zeros(square.shape)
        for index in np.ndindex(square.shape[:2]):
            pi[index + (int(np.argmax(square[index])),)] = 1.0
        assert exploitability(q, pack(pi)) == 0.0 == exploitability_oracle(q, pack(pi))


class TestStationaryDistributionStep:
    def test_stationary_point_is_fixed(self):
        # With everyone bidding zero no karma moves and the kernel does not
        # depend on d, so (stationary urgency) x (any karma marginal) is fixed.
        proc = build_urgency_process([1, 2, 4], 0.1)
        nk = 7
        pi = np.zeros((3, nk, nk))
        pi[:, :, 0] = 1.0
        pi = pack(pi)
        d0 = np.zeros((3, nk))
        d0[:, 3] = 1.0 / 3.0
        social = SocialState(d=d0, pi=pi)
        stationary = power_iteration_oracle(kernel_oracle(proc, social)).reshape(3, nk)
        fixed = SocialState(d=stationary, pi=pi)
        stepped = push_step(proc, fixed)
        assert 0.5 * np.abs(stepped.d - fixed.d).sum() <= 1e-12

    def test_full_step_is_exact_push_forward(self, case_process):
        rng = np.random.default_rng(9)
        social = make_random_social(rng, case_process.n_levels, 9)
        push = (social.d.ravel() @ kernel_oracle(case_process, social)).reshape(social.d.shape)
        stepped = push_step(case_process, social)
        np.testing.assert_allclose(stepped.d, push / push.sum(), atol=1e-12)

    def test_repeated_steps_reach_power_iteration_limit(self, case_process, case_config, case_equilibrium):
        # Arbitrary start pushed through the equilibrium policy's dynamics;
        # the limit must agree with the independent power-iteration oracle.
        d_start = np.zeros_like(case_equilibrium.social.d)
        d_start[0, case_config.k_bar] = 1.0
        social = SocialState(d=d_start, pi=case_equilibrium.social.pi)
        for _ in range(5000):
            new = push_step(case_process, social)
            change = 0.5 * np.abs(new.d - social.d).sum()
            social = new
            if change <= 1e-12:
                break
        assert change <= 1e-12, f"push-forward iteration still moving by {change:.3e}"
        limit = power_iteration_oracle(kernel_oracle(case_process, social)).reshape(social.d.shape)
        assert 0.5 * np.abs(social.d - limit).sum() <= 1e-6

    def test_mean_karma_preserved_per_step_at_defaults(self, case_process, case_config):
        social = initial_social_state(case_process, case_config)
        for _ in range(5):
            stepped = push_step(case_process, social)
            assert abs(stepped.d.sum() - 1.0) <= 1e-12
            assert abs(stepped.mean_karma - social.mean_karma) <= 1e-12
            social = stepped

    def test_rejects_bad_step_size(self):
        for step_size in (0.0, 1.5):
            with pytest.raises(ParameterError):
                SolverConfig(step_size=step_size)


class TestSolverConfig:
    @pytest.mark.parametrize("name", [
        "br_temperature", "temperature_decay", "temperature_floor", "step_size",
        "tol_policy", "tol_distribution", "tol_value", "max_outer_iters"])
    # 10**400 is an int too large for a float.
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), 10**400])
    def test_rejects_non_finite_field_by_name(self, name, value):
        with pytest.raises(ParameterError, match=f"{name} must be finite"):
            SolverConfig(**{name: value})

    def test_rejects_decay_that_never_reaches_the_floor(self):
        with pytest.raises(ParameterError, match="temperature_decay = 1"):
            SolverConfig(temperature_decay=1.0)
        assert SolverConfig(temperature_decay=1.0, br_temperature=1e-5).temperature_floor == 1e-5

    def test_rejects_br_temperature_below_the_floor(self):
        with pytest.raises(ParameterError, match="br_temperature"):
            SolverConfig(br_temperature=1e-6)
        assert SolverConfig(br_temperature=1e-5).br_temperature == SolverConfig.temperature_floor


class TestTransitionKernel:
    def test_rows_are_stochastic(self, case_process):
        rng = np.random.default_rng(13)
        social = make_random_social(rng, case_process.n_levels, 9)
        op = TransitionOperator(case_process, social)
        np.testing.assert_allclose(op.apply(np.ones(social.d.shape)), 1.0, atol=1e-10)
        assert op.karma_win.min() >= 0.0 and op.lose_weight.min() >= 0.0

    def test_matches_bruteforce(self, case_process):
        rng = np.random.default_rng(14)
        social = make_random_social(rng, case_process.n_levels, 7)
        assert_operator_matches_oracle(case_process, social, seed=15)

    def test_integral_payment_matches_bruteforce(self, case_process):
        # Everyone holds 4 and bids 4: a bid of 4 wins half the time, so
        # p_bar = 2 exactly and only the ceiling branch carries mass.
        nk = 9
        d = np.zeros((case_process.n_levels, nk))
        d[:, 4] = 1.0 / case_process.n_levels
        pi = np.zeros((case_process.n_levels, nk, nk))
        for k in range(nk):
            pi[:, k, min(k, 4)] = 1.0
        social = SocialState(d=d, pi=pack(pi))
        # The f_low half of the landing weights.
        assert (TransitionOperator(case_process, social).landing_weight[:nk] == 0.0).all()
        assert_operator_matches_oracle(case_process, social, seed=16)

    def test_overflow_keeps_mean_karma(self, case_process):
        # Mass at the top balance: losers receive a grant > 0 and would land
        # above k_max. The push-forward keeps them at k_max and grants more,
        # so that d's mean karma is kept.
        rng = np.random.default_rng(17)
        nk = 6
        d = np.zeros((case_process.n_levels, nk))
        d[:, -2:] = rng.random((case_process.n_levels, 2))
        d /= d.sum()
        pi = rng.random((case_process.n_levels, nk, nk)) * np.tril(np.ones((nk, nk)))
        social = SocialState(d=d, pi=pack(pi / pi.sum(axis=2, keepdims=True)))
        push = TransitionOperator(case_process, social).push()
        assert push[:, -1].sum() > 0.0
        assert abs(push.sum() - 1.0) <= 1e-12
        pushed = SocialState(d=push, pi=social.pi)
        assert pushed.mean_karma == pytest.approx(social.mean_karma, rel=0, abs=1e-12)
        assert_operator_matches_oracle(case_process, social, seed=18)


class TestSolveSne:
    def test_degenerate_game_converges_immediately(self):
        # A single zero-valuation level makes every reward zero, so any
        # policy is a best response; with no karma in the system the
        # distribution is trivially stationary. A solve stops only at the
        # temperature floor, so this one starts there.
        proc = zero_level_process()
        config = GameConfig(k_bar=0, k_max=1)
        result = solve_sne(proc, config, SolverConfig(br_temperature=1e-5))
        assert result.converged
        assert result.iterations <= 2
        assert result.exploitability == 0.0

    def test_degenerate_game_anneals_to_the_floor_by_default(self):
        # Settled from the first evaluation, but the default schedule first
        # reaches its floor at iteration 402 (2 * 0.97 ** 401 <= 1e-5).
        result = solve_sne(zero_level_process(), GameConfig(k_bar=0, k_max=1))
        assert result.converged and result.iterations == 402
        assert (result.residuals == 0.0).all()

    def test_rejects_periodic_urgency_chain(self):
        # Urgency alternates between the middle level and the outer two
        # whatever the outcome, so the undamped push of the uniform start
        # would alternate between two distributions forever.
        period_two = [[0.0, 1.0, 0.0], [0.5, 0.0, 0.5], [0.0, 1.0, 0.0]]
        process = UrgencyProcess(levels=(1, 2, 3), phi=np.array([period_two, period_two]))
        with pytest.raises(ParameterError, match="aperiodic"):
            solve_sne(process, GameConfig(k_bar=2, k_max=8))

    def test_small_game_policy_is_deviation_proof(self, small_game, small_game_solution):
        process, config = small_game
        result = small_game_solution
        assert result.exploitability <= 1e-4
        gains = deviation_gains_oracle(process, result.social, config.alpha)
        assert gains.max() <= 1e-4

    def test_case_study_converges(self, case_config, case_equilibrium):
        result = case_equilibrium
        assert result.converged
        assert result.iterations <= case_config.k_max * 1000  # sanity, real bound below
        assert result.exploitability <= 1e-4
        assert result.stationarity_residual <= 1e-12
        assert result.social.mean_karma == pytest.approx(case_config.k_bar, rel=0, abs=1e-12)

    @pytest.mark.parametrize("k_bar, k_max", [(1, 4), (2, 8)])
    def test_karma_at_the_cap_is_conserved(self, case_process, k_bar, k_max):
        # Both games hold mass at their cap (1.5e-2 at (1, 4)). Granting the
        # bare average payment there loses karma every step, and d never
        # becomes stationary.
        result = solve_sne(case_process, GameConfig(k_bar=k_bar, k_max=k_max))
        assert result.converged and result.iterations == 402
        assert abs(result.social.mean_karma - k_bar) <= 1e-12

    def test_stops_only_at_the_temperature_floor(self):
        # The default schedule first reaches its floor at iteration 402
        # (2 * 0.97 ** 401 <= 1e-5).
        process = build_urgency_process([1, 16], 0.04)
        result = solve_sne(process, GameConfig(k_bar=1, k_max=4))
        assert result.converged and result.iterations == 402
        resid, expl = result.residuals[121:].T
        assert (resid <= 1e-6).all() and (expl <= 1e-4).all()
        assert result.equilibrium_fingerprint.startswith("cf1aaf29")

    def test_residual_trace_invariants(self, case_equilibrium):
        trace = case_equilibrium.residuals
        assert trace.shape[1] == 2
        assert (trace[:, 1] >= 0.0).all()
        assert trace.shape[0] == case_equilibrium.iterations

    def test_summary_reports_value_solve_counts(self, case_equilibrium):
        # An evaluation applies P for the residual of its start and, unless
        # that start meets the tolerance, for each Arnoldi step and for the
        # true residual of the values it returns.
        summary = case_equilibrium.summary()
        assert summary["value_matvecs"] >= 2 * case_equilibrium.iterations
        assert 1 <= summary["max_inner_iterations"] < summary["value_matvecs"]

    def test_warm_start_keeps_value_solves_short(self, case_equilibrium):
        # Deterministic count: starting each GMRES from the quadratic
        # extrapolation 3 (V(t-1) - V(t-2)) + V(t-3) and solving only to
        # max(tol_value, 1e-3 * the last exploitability) takes 4517
        # applications of P on the case study; solving every iteration to
        # tol_value takes 9008. The count moves by about 150 with the last
        # bits of the operator's grant, so the bound leaves twice that above it.
        assert case_equilibrium.value_matvecs <= 4_517 + 300

    @pytest.mark.parametrize("max_outer_iters, k_max", [(None, 40), (30, 40), (30, 160)])
    def test_returned_values_meet_tol_value(self, case_process, case_config, case_equilibrium,
                                            max_outer_iters, k_max):
        # Iterations far from equilibrium solve loosely; whatever the solve
        # returns, converged or stopped at max_outer_iters, must still meet
        # tol_value in sup norm. At k_max = 160 the coarse stage spends all
        # 30 iterations and the full space gets one evaluation.
        if max_outer_iters is None:
            result = case_equilibrium
        else:
            config = GameConfig(k_max=k_max)
            result = solve_sne(case_process, config, SolverConfig(max_outer_iters=max_outer_iters))
            assert not result.converged and result.social.k_max == k_max
            # Far from equilibrium, so the last solve started loose, unless it
            # was the full space's first.
            assert result.exploitability > 1e-6
        values = result.values
        transitions = TransitionOperator(case_process, result.social)
        backup = values.R + case_config.alpha * transitions.apply(values.V)
        assert np.abs(values.V - backup).max() <= SolverConfig().tol_value

    def test_case_study_equilibrium_is_pinned(self, case_equilibrium):
        # The case study has more than one stationary equilibrium and the
        # annealing path selects one of them. A solver change that lands on
        # another fails here by name. Values recorded with every value
        # solve run to tol_value and the square policy layout.
        summary = case_equilibrium.summary()
        assert summary["predicted_r_bar"] == pytest.approx(-0.6746330401938613, rel=0, abs=1e-9)
        assert int((case_equilibrium.social.d > 1e-6).sum()) == 119
        assert summary["equilibrium_fingerprint"] == (
            "77b50543b02da145a50c93115b3a18c83aee1102ebfc4f684aedf0b5b78814a2")

    def test_faster_decay_selects_the_other_equilibrium(self, case_process, case_config,
                                                         case_equilibrium):
        # A faster anneal lands on a second stationary equilibrium of the
        # case study, in fewer iterations. The KARMA row of `compare` moves
        # with the selected equilibrium, so the paper's comparison is a
        # statement about the one the default schedule selects.
        other = solve_sne(case_process, case_config, SolverConfig(temperature_decay=0.8))
        summary = other.summary()
        assert other.converged and other.iterations == 151
        assert case_equilibrium.iterations == 402
        assert summary["equilibrium_fingerprint"].startswith("7649e3e763d417eb")
        assert summary["predicted_r_bar"] == pytest.approx(-0.6749916944328533, rel=0, abs=1e-9)
        for result, r_bar, beta in ((case_equilibrium, -0.673975, -0.022518667256300917),
                                    (other, -0.674888, -0.02284787640022589)):
            report = run_experiment(case_process, case_config, Mechanism.karma(result))
            assert report.r_bar == pytest.approx(r_bar, rel=0, abs=1e-9)
            assert report.beta == pytest.approx(beta, rel=0, abs=1e-9)

    def test_deterministic_residual_traces(self, small_game):
        process, config = small_game
        solver = SolverConfig(max_outer_iters=120)
        first = solve_sne(process, config, solver)
        second = solve_sne(process, config, solver)
        assert np.array_equal(first.residuals, second.residuals)
        assert first.summary() == second.summary()
        np.testing.assert_array_equal(first.social.d, second.social.d)
        np.testing.assert_array_equal(first.social.pi, second.social.pi)

    def test_nonconvergence_reports_instead_of_raising(self, small_game):
        process, config = small_game
        result = solve_sne(process, config, SolverConfig(max_outer_iters=30))
        assert not result.converged
        assert result.iterations == 30
        assert result.residuals.shape == (30, 2)

    def test_builds_one_transition_operator_per_iteration(self, small_game, monkeypatch):
        # The closing re-solve of the last allowed iteration, on a loose
        # value solve, reuses that iteration's operator.
        process, config = small_game
        builds = []

        class Counted(TransitionOperator):
            def __init__(self, *args):
                builds.append(1)
                super().__init__(*args)

        monkeypatch.setattr(equilibrium, "TransitionOperator", Counted)
        result = solve_sne(process, config, SolverConfig(max_outer_iters=30))
        assert result.iterations == 30 and result.coarse_k_max is None
        assert len(builds) == 30

    @pytest.mark.parametrize("solve", ["case_equilibrium", "fine_solve"])
    def test_result_holds_no_transition_operator(self, solve, request):
        # Without and with a coarse stage: the operator, the largest table
        # of an evaluation, stays inside the iteration.
        result = request.getfixturevalue(solve)
        if solve == "fine_solve":
            result = result[0]
            assert result.coarse_k_max is not None
        seen, stack = set(), [result]
        while stack:
            obj = stack.pop()
            if id(obj) in seen or isinstance(obj, (type, types.ModuleType, types.FunctionType)):
                continue
            seen.add(id(obj))
            assert not isinstance(obj, TransitionOperator)
            stack.extend(gc.get_referents(obj))
        assert result.values.R.shape == result.social.d.shape

    def test_value_monotonicity_at_equilibrium(self, case_equilibrium):
        v = case_equilibrium.values.V
        assert (np.diff(v, axis=0) <= 1e-8).all()   # higher urgency, weakly lower value
        assert (np.diff(v, axis=1) >= -1e-8).all()  # more karma, weakly higher value

    def test_exploitability_helper_agrees_with_trace(self, case_process, case_config, case_equilibrium):
        op = TransitionOperator(case_process, case_equilibrium.social)
        values = policy_evaluation(case_process, op, case_config)
        q = q_function(values, op, case_process, case_config)
        again = exploitability(q, case_equilibrium.social.pi)
        assert again == pytest.approx(case_equilibrium.exploitability, abs=1e-12)


@pytest.fixture(scope="module")
def fine_solve(case_process):
    """The k_max = 160 solve of the case-study game and its traced peak."""
    tracemalloc.start()
    try:
        result = solve_sne(case_process, GameConfig(k_max=160))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


class TestCoarseStage:
    def test_fine_solve_starts_from_the_coarse_equilibrium(self, fine_solve):
        # The direct solve takes 402 iterations and 8649 applications of P.
        # The count moves by about 150 with the last bits of the operator's
        # grant, so the bound leaves twice that above it.
        result, _ = fine_solve
        summary = result.summary()
        assert result.converged
        assert (summary["coarse_k_max"], summary["coarse_iterations"]) == (40, 402)
        assert result.iterations == 433 and result.residuals.shape == (433, 2)
        assert summary["value_matvecs"] <= 5_690 + 300
        assert summary["mass_at_k_max"] < 1e-6
        assert summary["equilibrium_fingerprint"] == (
            "77b50543b02da145a50c93115b3a18c83aee1102ebfc4f684aedf0b5b78814a2")
        assert summary["predicted_r_bar"] == pytest.approx(-0.6746330401938813, rel=0, abs=1e-9)
        assert abs(summary["predicted_r_bar"] - -0.6746330401938613) <= 1e-12

    def test_fine_solve_peak_memory(self, fine_solve):
        # Reads 4.33 units on numpy 2.4, against 4.27 for the direct solve.
        # Keeping the loose solve's operator and Q alive through the fine
        # stage's closing re-solve read 4.96, and also keeping the coarse
        # operator through the fine stage 5.03.
        result, peak = fine_solve
        unit = result.social.d.size * (result.social.k_max + 1) * 8
        assert peak < 6 * unit

    def test_faster_decay_keeps_the_other_equilibrium(self, case_process):
        result = solve_sne(case_process, GameConfig(k_max=160), SolverConfig(temperature_decay=0.8))
        assert result.converged
        assert (result.coarse_k_max, result.coarse_iterations, result.iterations) == (40, 151, 183)
        assert result.equilibrium_fingerprint.startswith("7649e3e763d417eb")

    @pytest.mark.parametrize("k_bar, k_max, fingerprint", [(5, 40, "d9815686"), (10, 80, "77b50543")])
    def test_coarse_start_selects_the_direct_equilibrium(self, case_process, k_bar, k_max,
                                                         fingerprint):
        config = GameConfig(k_bar=k_bar, k_max=k_max)
        coarse_started = solve_sne(case_process, config)
        direct = _anneal(case_process, config, SolverConfig())
        assert coarse_started.coarse_k_max == 4 * k_bar and direct.coarse_k_max is None
        assert coarse_started.converged and direct.converged
        assert coarse_started.equilibrium_fingerprint.startswith(fingerprint)
        assert direct.equilibrium_fingerprint == coarse_started.equilibrium_fingerprint

    def test_no_coarse_stage_without_headroom(self, case_equilibrium):
        # k_max = 4 k_bar: the case study is solved directly, and k_bar = 0
        # would give a coarse game with k_max = 0.
        degenerate = solve_sne(zero_level_process(), GameConfig(k_bar=0, k_max=8))
        for result in (case_equilibrium, degenerate):
            summary = result.summary()
            assert (summary["coarse_k_max"], summary["coarse_iterations"]) == (None, 0)
        assert case_equilibrium.summary()["mass_at_k_max"] == pytest.approx(3.38e-13, rel=1e-2)

    def test_truncated_coarse_equilibrium_is_refined(self, case_process):
        # The coarse equilibrium at k_max = 12 holds 7.3e-6 at 12. Refined, it
        # takes 24 fine iterations to the equilibrium that the direct solve
        # reaches in 402.
        result = solve_sne(case_process, GameConfig(k_bar=3, k_max=30))
        assert result.converged
        assert (result.coarse_k_max, result.coarse_iterations, result.iterations) == (12, 402, 426)
        assert result.equilibrium_fingerprint.startswith("dad8e872")

    def test_coarse_stage_at_k_bar_one_converges(self, case_process):
        # The coarse stage at k_max = 4 holds 1.5e-2 at its cap and converges
        # because the grant keeps its mean karma. Refined, it selects what
        # the direct anneal selects.
        result = solve_sne(case_process, GameConfig(k_bar=1, k_max=8))
        assert result.converged
        assert (result.coarse_k_max, result.coarse_iterations, result.iterations) == (4, 402, 493)
        assert result.equilibrium_fingerprint.startswith("adaef604")

    def test_unconverged_coarse_stage_is_the_result(self, case_process):
        # The two stages share max_outer_iters: a coarse stage that spends
        # them all leaves the full space one evaluation, and is returned as
        # the unconverged result on the full space.
        result = solve_sne(case_process, GameConfig(k_max=160), SolverConfig(max_outer_iters=30))
        assert not result.converged and result.social.k_max == 160
        assert (result.coarse_k_max, result.coarse_iterations, result.iterations) == (40, 30, 31)
        assert result.residuals.shape == (31, 2)


class TestWritePolicyCsv:
    def test_round_trips_exactly(self, case_process, case_equilibrium, tmp_path):
        social = case_equilibrium.social
        # With no config, karmabid solve solves the case study.
        assert main(["solve", "--out", str(tmp_path)]) == 0
        header, *lines = (tmp_path / "policy.csv").read_text().splitlines()
        assert header == "urgency_level,karma,bid,probability"
        ks, bs = np.tril_indices(social.k_max + 1)
        rows = [line.split(",") for line in lines]
        expected = [(level, k, b) for level in case_process.levels for k, b in zip(ks.tolist(), bs.tolist())]
        assert [(int(r[0]), int(r[1]), int(r[2])) for r in rows] == expected
        probability = np.array([float(r[3]) for r in rows])
        np.testing.assert_array_equal(probability, unpack(social.pi)[:, ks, bs].ravel())
