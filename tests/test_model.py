"""Game-primitive tests: construction rules, hand-checked examples,
brute-force oracle agreement, and randomized invariants."""

import numpy as np
import pytest

from karmabid import (
    AgentState,
    GameConfig,
    ParameterError,
    SocialState,
    UrgencyProcess,
    average_payment,
    bid_marginal,
    build_urgency_process,
    immediate_reward,
    karma_transition,
    outcome_distribution,
    outcome_probability,
    state_transition,
)
from conftest import make_random_social
from oracles import (
    average_payment_oracle,
    bid_marginal_oracle,
    state_transition_oracle,
    win_prob_oracle,
)


def point_policy(n_levels: int, k_max: int, bid_of_k) -> np.ndarray:
    """Deterministic policy bidding bid_of_k(k) (clipped to k) in every state."""
    nk = k_max + 1
    pi = np.zeros((n_levels, nk, nk))
    for k in range(nk):
        pi[:, k, min(bid_of_k(k), k)] = 1.0
    return pi


class TestBuildUrgencyProcess:
    def test_case_study_matrices(self):
        proc = build_urgency_process([1, 2, 4, 8, 16], 0.04)
        win_row = np.array([0.96, 0.01, 0.01, 0.01, 0.01])
        for i in range(5):
            np.testing.assert_allclose(proc.phi[0, i], win_row, atol=1e-15)
        np.testing.assert_allclose(proc.phi[1, 0], [0.01, 0.96, 0.01, 0.01, 0.01], atol=1e-15)
        np.testing.assert_allclose(proc.phi[1, 3], [0.01, 0.01, 0.01, 0.01, 0.96], atol=1e-15)
        # top level saturates: losing keeps it at the top
        np.testing.assert_allclose(proc.phi[1, 4], [0.01, 0.01, 0.01, 0.01, 0.96], atol=1e-15)

    def test_near_zero_noise_collapses_to_reset_and_escalate(self):
        proc = build_urgency_process([1, 2], 1e-9)
        np.testing.assert_allclose(proc.phi[0], [[1, 0], [1, 0]], atol=1e-8)
        np.testing.assert_allclose(proc.phi[1], [[0, 1], [0, 1]], atol=1e-8)

    def test_symmetric_degenerate_noise(self):
        proc = build_urgency_process([1, 2], 0.5)
        np.testing.assert_allclose(proc.phi, 0.5, atol=1e-15)
        np.testing.assert_allclose(proc.phi.sum(axis=2), 1.0, atol=1e-12)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ParameterError):
            build_urgency_process([2, 1], 0.04)
        with pytest.raises(ParameterError):
            build_urgency_process([1, 1], 0.04)
        with pytest.raises(ParameterError):
            build_urgency_process([1, 2], 0.0)
        with pytest.raises(ParameterError):
            build_urgency_process([1, 2], 1.0)
        with pytest.raises(ParameterError):
            build_urgency_process([1], 0.04)

    def test_direct_construction_single_level(self):
        proc = UrgencyProcess(levels=(3,), phi=np.ones((2, 1, 1)), epsilon=0.5)
        assert proc.n_levels == 1

    def test_rejects_non_stochastic_rows(self):
        phi = np.ones((2, 2, 2)) * 0.4
        with pytest.raises(ParameterError):
            UrgencyProcess(levels=(1, 2), phi=phi, epsilon=0.1)

    def test_accepts_256_levels(self):
        # Path counts of a fully mixing 256-level chain reach 256, which a
        # uint8 reachability matrix would wrap to zero.
        proc = build_urgency_process(range(1, 257), 0.04)
        assert proc.n_levels == 256

    def test_accepts_cycle_needing_longest_path(self):
        # A one-way cycle connects level 0 to level n-1 only through n-1 steps.
        n = 256
        phi = np.zeros((2, n, n))
        phi[:, np.arange(n), (np.arange(n) + 1) % n] = 1.0
        assert UrgencyProcess(levels=tuple(range(n)), phi=phi, epsilon=0.1).n_levels == n

    def test_rejects_reducible_chain(self):
        # Escalation that saturates at the top under both outcomes: the top
        # level can never return to the others.
        n = 5
        phi = np.zeros((2, n, n))
        phi[:, np.arange(n), np.minimum(np.arange(n) + 1, n - 1)] = 1.0
        with pytest.raises(ParameterError, match="irreducible"):
            UrgencyProcess(levels=tuple(range(n)), phi=phi, epsilon=0.1)


class TestOutcomeProbability:
    def test_higher_bid_wins(self):
        assert outcome_probability(3, 2) == 1.0

    def test_lower_bid_loses(self):
        assert outcome_probability(2, 3) == 0.0

    def test_tie_is_fair_coin(self):
        assert outcome_probability(5, 5) == 0.5

    def test_rejects_negative(self):
        with pytest.raises(ParameterError):
            outcome_probability(-1, 0)


class TestBidMarginal:
    def test_point_mass_policy(self):
        d = np.zeros((2, 6))
        d[0, 5] = 1.0
        social = SocialState(d=d, pi=point_policy(2, 5, lambda k: 0))
        nu = bid_marginal(social)
        assert nu[0] == 1.0
        assert nu[1:].max() == 0.0

    def test_two_point_mixture(self):
        d = np.zeros((1, 6))
        d[0, 1] = 0.5
        d[0, 3] = 0.5
        social = SocialState(d=d, pi=point_policy(1, 5, lambda k: k))
        nu = bid_marginal(social)
        np.testing.assert_allclose(nu[[1, 3]], [0.5, 0.5], atol=1e-15)
        assert nu.sum() == pytest.approx(1.0, abs=1e-10)

    def test_matches_bruteforce_on_random_states(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            social = make_random_social(rng, int(rng.integers(1, 4)), int(rng.integers(1, 9)))
            np.testing.assert_allclose(bid_marginal(social), bid_marginal_oracle(social), atol=1e-12)

    def test_case_study_equilibrium_marginal(self, case_equilibrium):
        nu = bid_marginal(case_equilibrium.social)
        assert abs(nu.sum() - 1.0) <= 1e-10
        assert (nu >= 0).all()
        assert nu.shape == (41,)


class TestOutcomeDistribution:
    def test_dominating_bid(self):
        nu = np.array([0.25, 0.5, 0.25, 0.0])
        gamma = outcome_distribution(3, nu)
        np.testing.assert_allclose(gamma, [1.0, 0.0], atol=1e-15)

    def test_point_mass_at_own_bid(self):
        nu = np.zeros(5)
        nu[2] = 1.0
        gamma = outcome_distribution(2, nu)
        np.testing.assert_allclose(gamma, [0.5, 0.5], atol=1e-15)

    def test_two_point_enumeration(self):
        nu = np.zeros(4)
        nu[1] = 0.5
        nu[3] = 0.5
        gamma = outcome_distribution(2, nu)
        assert gamma[0] == pytest.approx(win_prob_oracle(2, nu), abs=1e-15)
        assert gamma[0] == pytest.approx(0.5, abs=1e-15)

    def test_bid_beyond_support(self):
        nu = np.array([0.5, 0.5])
        np.testing.assert_allclose(outcome_distribution(7, nu), [1.0, 0.0], atol=1e-15)


class TestImmediateReward:
    def test_certain_loss(self):
        assert immediate_reward(16, np.array([0.0, 1.0])) == -16.0

    def test_certain_win(self):
        assert immediate_reward(16, np.array([1.0, 0.0])) == 0.0

    def test_even_odds(self):
        assert immediate_reward(4, np.array([0.5, 0.5])) == -2.0


class TestAveragePayment:
    def test_all_zero_bids(self):
        d = np.full((2, 4), 1 / 8)
        social = SocialState(d=d, pi=point_policy(2, 3, lambda k: 0))
        assert average_payment(social) == 0.0

    def test_single_state_bid_four(self):
        d = np.zeros((1, 5))
        d[0, 4] = 1.0
        social = SocialState(d=d, pi=point_policy(1, 4, lambda k: 4))
        # everyone bids 4, so a bid of 4 wins half the time
        assert average_payment(social) == pytest.approx(2.0, abs=1e-12)

    def test_two_state_example_matches_bruteforce(self):
        d = np.zeros((1, 6))
        d[0, 1] = 0.5
        d[0, 3] = 0.5
        social = SocialState(d=d, pi=point_policy(1, 5, lambda k: k))
        value = average_payment(social)
        assert value == pytest.approx(average_payment_oracle(social), abs=1e-12)
        # gamma0[1] = 0.25, gamma0[3] = 0.75: 0.5*0.25*1 + 0.5*0.75*3
        assert value == pytest.approx(1.25, abs=1e-12)

    def test_random_states_match_bruteforce(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            social = make_random_social(rng, 2, 7)
            assert average_payment(social) == pytest.approx(
                average_payment_oracle(social), abs=1e-12
            )


class TestKarmaTransition:
    def test_fractional_payment_two_point(self):
        assert karma_transition(10, 4, 0, 2.5, 40) == {8: 0.5, 9: 0.5}

    def test_integral_payment_single_point(self):
        assert karma_transition(10, 4, 1, 2.0, 40) == {12: 1.0}

    def test_truncation_at_cap(self):
        assert karma_transition(40, 0, 1, 0.7, 40) == {40: 1.0}
        # untruncated expectation sits 0.7 above the balance
        free = karma_transition(40, 0, 1, 0.7, 10_000)
        assert sum(k * p for k, p in free.items()) == pytest.approx(40.7, abs=1e-12)

    def test_bid_above_balance_rejected(self):
        with pytest.raises(ParameterError):
            karma_transition(3, 4, 0, 1.0, 40)

    def test_bad_outcome_rejected(self):
        with pytest.raises(ParameterError):
            karma_transition(3, 1, 2, 1.0, 40)


class TestStateTransition:
    def test_winning_resets_urgency(self):
        proc = build_urgency_process([1, 2, 4], 1e-9)
        d = np.full((3, 5), 1 / 15)
        social = SocialState(d=d, pi=point_policy(3, 4, lambda k: 0))
        rho = state_transition(proc, social, u=2, k=3, b=2)  # outbids everyone
        marginal_u = rho.sum(axis=1)
        assert marginal_u[0] == pytest.approx(1.0, abs=1e-8)

    def test_losing_escalates_urgency_and_pays_out(self):
        proc = build_urgency_process([1, 2, 4, 8], 1e-9)
        d = np.zeros((4, 8))
        d[0, 3] = 1.0
        social = SocialState(d=d, pi=point_policy(4, 7, lambda k: 3))
        # everyone else bids 3; a zero bid loses with certainty
        rho = state_transition(proc, social, u=2, k=5, b=0)
        marginal_u = rho.sum(axis=1)
        assert marginal_u[3] == pytest.approx(1.0, abs=1e-8)
        # average payment is 0.5 * 3 = 1.5, so the loser lands on k+1 / k+2
        marginal_k = rho.sum(axis=0)
        assert marginal_k[6] == pytest.approx(0.5, abs=1e-12)
        assert marginal_k[7] == pytest.approx(0.5, abs=1e-12)

    def test_matches_bruteforce_on_case_study(self, case_process):
        rng = np.random.default_rng(3)
        social = make_random_social(rng, case_process.n_levels, 12)
        for _ in range(8):
            u = int(rng.integers(case_process.n_levels))
            k = int(rng.integers(13))
            b = int(rng.integers(k + 1))
            got = state_transition(case_process, social, u, k, b)
            want = state_transition_oracle(case_process, social, u, k, b)
            np.testing.assert_allclose(got, want, atol=1e-12)

    def test_bid_above_balance_rejected(self, case_process):
        rng = np.random.default_rng(4)
        social = make_random_social(rng, case_process.n_levels, 6)
        with pytest.raises(ParameterError):
            state_transition(case_process, social, 0, 2, 3)


class TestSocialStateValidation:
    def test_rejects_negative_mass(self):
        d = np.full((1, 2), 0.5)
        pi = point_policy(1, 1, lambda k: 0)
        d[0, 0] = -0.5
        d[0, 1] = 1.5
        with pytest.raises(ParameterError):
            SocialState(d=d, pi=pi)

    def test_rejects_unnormalized_distribution(self):
        d = np.full((1, 2), 0.6)
        with pytest.raises(ParameterError):
            SocialState(d=d, pi=point_policy(1, 1, lambda k: 0))

    def test_rejects_infeasible_bid_mass(self):
        d = np.full((1, 2), 0.5)
        pi = np.zeros((1, 2, 2))
        pi[0, 0, 1] = 1.0  # bid 1 with karma 0
        pi[0, 1, 0] = 1.0
        with pytest.raises(ParameterError):
            SocialState(d=d, pi=pi)

    def test_construction_renormalizes_exactly(self):
        rng = np.random.default_rng(5)
        social = make_random_social(rng, 3, 6)
        assert abs(social.d.sum() - 1.0) <= 1e-14
        sums = social.pi.sum(axis=2)
        np.testing.assert_allclose(sums, 1.0, atol=1e-14)


class TestGameConfigValidation:
    def test_defaults_are_valid(self):
        cfg = GameConfig()
        assert cfg.alpha == 0.98
        assert cfg.k_bar == 10
        assert cfg.k_max == 40

    def test_alpha_out_of_range_names_field(self):
        with pytest.raises(ParameterError, match="alpha"):
            GameConfig(alpha=1.2)

    def test_epsilon_bounds(self):
        with pytest.raises(ParameterError, match="epsilon"):
            GameConfig(epsilon=0.0)

    def test_karma_headroom(self):
        with pytest.raises(ParameterError, match="k_max"):
            GameConfig(k_bar=10, k_max=15)
        with pytest.raises(ParameterError, match="k_max"):
            GameConfig(k_bar=10, k_max=10)


class TestAgentState:
    def test_valid(self):
        state = AgentState(u=1, k=3)
        assert (state.u, state.k) == (1, 3)

    def test_rejects_negative_karma(self):
        with pytest.raises(ParameterError):
            AgentState(u=0, k=-1)


class TestRandomizedInvariants:
    """Invariants over randomized social states, seeded for reproducibility."""

    def test_all_output_masses_normalized(self, case_process):
        rng = np.random.default_rng(17)
        for _ in range(15):
            social = make_random_social(rng, case_process.n_levels, 10)
            nu = bid_marginal(social)
            assert abs(nu.sum() - 1.0) <= 1e-10
            p_bar = average_payment(social)
            for trial in range(4):
                u = int(rng.integers(case_process.n_levels))
                k = int(rng.integers(11))
                b = int(rng.integers(k + 1))
                gamma = outcome_distribution(b, nu)
                assert abs(gamma.sum() - 1.0) <= 1e-10
                kappa = karma_transition(k, b, trial % 2, p_bar, 10)
                assert abs(sum(kappa.values()) - 1.0) <= 1e-10
                rho = state_transition(case_process, social, u, k, b)
                assert abs(rho.sum() - 1.0) <= 1e-10
                assert (rho >= 0).all()

    def test_karma_conserved_without_truncation(self, case_process):
        # Support capped so no next balance can reach the bound.
        rng = np.random.default_rng(23)
        k_max = 14
        cap = 6
        for _ in range(5):
            nk = k_max + 1
            d = np.zeros((case_process.n_levels, nk))
            d[:, : cap + 1] = rng.random((case_process.n_levels, cap + 1))
            d /= d.sum()
            pi = rng.random((case_process.n_levels, nk, nk)) * np.tril(np.ones((nk, nk)))
            pi /= pi.sum(axis=2, keepdims=True)
            social = SocialState(d=d, pi=pi)
            mean_before = social.mean_karma
            mean_after = _expected_next_karma(case_process, social)
            assert mean_after == pytest.approx(mean_before, abs=1e-9)

    def test_truncation_only_loses_karma(self, case_process):
        rng = np.random.default_rng(29)
        for _ in range(5):
            social = make_random_social(rng, case_process.n_levels, 6)
            assert _expected_next_karma(case_process, social) <= social.mean_karma + 1e-12

    def test_win_probability_monotone_in_bid(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            nu = rng.random(12)
            nu /= nu.sum()
            gammas = [outcome_distribution(b, nu)[0] for b in range(12)]
            assert all(b2 >= b1 - 1e-12 for b1, b2 in zip(gammas, gammas[1:]))

    def test_reward_bounds(self):
        rng = np.random.default_rng(37)
        for _ in range(50):
            u_value = float(rng.integers(1, 20))
            p = rng.random()
            r = immediate_reward(u_value, np.array([1 - p, p]))
            assert -u_value <= r <= 0.0

    def test_transition_continuity_in_policy(self, case_process):
        # A small policy perturbation moves the transition law by at most
        # a bounded multiple (slack 1e3) of the perturbation size.
        rng = np.random.default_rng(41)
        k_max = 8
        social = make_random_social(rng, case_process.n_levels, k_max)
        nk = k_max + 1
        noise = rng.standard_normal((case_process.n_levels, nk, nk)) * 1e-6
        pi_perturbed = np.clip(social.pi + noise, 0.0, None) * np.tril(np.ones((nk, nk)))
        pi_perturbed /= pi_perturbed.sum(axis=2, keepdims=True)
        perturbed = SocialState(d=social.d.copy(), pi=pi_perturbed)
        delta = 0.5 * np.abs(perturbed.pi - social.pi).sum(axis=2).max()
        assert delta > 0
        for _ in range(6):
            u = int(rng.integers(case_process.n_levels))
            k = int(rng.integers(nk))
            b = int(rng.integers(k + 1))
            before = state_transition(case_process, social, u, k, b)
            after = state_transition(case_process, perturbed, u, k, b)
            tv = 0.5 * np.abs(after - before).sum()
            assert tv <= 1e3 * delta


def _expected_next_karma(process, social) -> float:
    total = 0.0
    for u in range(social.n_levels):
        for k in range(social.k_max + 1):
            if social.d[u, k] == 0.0:
                continue
            for b in range(k + 1):
                if social.pi[u, k, b] == 0.0:
                    continue
                rho = state_transition(process, social, u, k, b)
                weight = social.d[u, k] * social.pi[u, k, b]
                total += weight * float(rho.sum(axis=0) @ np.arange(social.k_max + 1))
    return total
