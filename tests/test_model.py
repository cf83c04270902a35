"""Game-primitive tests: construction rules, hand-checked examples,
brute-force oracle agreement, and randomized invariants."""

import numpy as np
import pytest

import dataclasses

from karmabid import (
    GameConfig,
    ParameterError,
    SocialState,
    UrgencyProcess,
    build_urgency_process,
)
from karmabid.config import setup_from_mapping
from karmabid.equilibrium import TransitionOperator, policy_evaluation, q_function
from karmabid.model import LOSE, bid_marginal, win_prob_all_bids
from conftest import make_random_social
from oracles import (
    average_payment_oracle,
    bid_marginal_oracle,
    grant_oracle,
    karma_transition_oracle,
    outcome_probability,
    pack,
    state_transition_oracle,
    unpack,
    win_prob_oracle,
)


def point_policy(n_levels: int, k_max: int, bid_of_k) -> np.ndarray:
    """Deterministic packed policy bidding bid_of_k(k) (clipped to k) in
    every state."""
    nk = k_max + 1
    pi = np.zeros((n_levels, nk, nk))
    for k in range(nk):
        pi[:, k, min(bid_of_k(k), k)] = 1.0
    return pack(pi)


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
        proc = UrgencyProcess(levels=(3,), phi=np.ones((2, 1, 1)))
        assert proc.n_levels == 1

    def test_rejects_non_stochastic_rows(self):
        phi = np.ones((2, 2, 2)) * 0.4
        with pytest.raises(ParameterError):
            UrgencyProcess(levels=(1, 2), phi=phi)

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
        assert UrgencyProcess(levels=tuple(range(n)), phi=phi).n_levels == n

    def test_aperiodic_needs_no_common_cycle_length(self):
        # The one-way cycle returns to each level only in multiples of n
        # steps; one self-loop adds a return in 1, and period 2 alternates
        # between the middle level and the outer two.
        n = 256
        phi = np.zeros((2, n, n))
        phi[:, np.arange(n), (np.arange(n) + 1) % n] = 1.0
        assert not UrgencyProcess(levels=tuple(range(n)), phi=phi).aperiodic
        phi[LOSE, 0] = np.eye(n)[0]
        assert UrgencyProcess(levels=tuple(range(n)), phi=phi).aperiodic
        period_two = [[0.0, 1.0, 0.0], [0.5, 0.0, 0.5], [0.0, 1.0, 0.0]]
        assert not UrgencyProcess(levels=(1, 2, 3), phi=np.array([period_two] * 2)).aperiodic
        assert build_urgency_process(range(1, 257), 0.04).aperiodic
        assert UrgencyProcess(levels=(3,), phi=np.ones((2, 1, 1))).aperiodic

    def test_rejects_reducible_chain(self):
        # Escalation that saturates at the top under both outcomes: the top
        # level can never return to the others.
        n = 5
        phi = np.zeros((2, n, n))
        phi[:, np.arange(n), np.minimum(np.arange(n) + 1, n - 1)] = 1.0
        with pytest.raises(ParameterError, match="irreducible"):
            UrgencyProcess(levels=tuple(range(n)), phi=phi)


class TestOutcomeProbability:
    """The pairwise rule the oracles build every win probability from."""

    def test_higher_bid_wins(self):
        assert outcome_probability(3, 2) == 1.0

    def test_lower_bid_loses(self):
        assert outcome_probability(2, 3) == 0.0

    def test_tie_is_fair_coin(self):
        assert outcome_probability(5, 5) == 0.5

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
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
    """The outcome law of a bid: it wins with win_prob_all_bids(nu)[b]."""

    def test_dominating_bid(self):
        nu = np.array([0.25, 0.5, 0.25, 0.0])
        assert win_prob_all_bids(nu)[3] == 1.0

    def test_point_mass_at_own_bid(self):
        nu = np.zeros(5)
        nu[2] = 1.0
        assert win_prob_all_bids(nu)[2] == 0.5

    def test_two_point_enumeration(self):
        nu = np.zeros(4)
        nu[1] = 0.5
        nu[3] = 0.5
        gamma0 = win_prob_all_bids(nu)[2]
        assert gamma0 == pytest.approx(win_prob_oracle(2, nu), abs=1e-15)
        assert gamma0 == pytest.approx(0.5, abs=1e-15)

    def test_bid_beyond_support(self):
        # Bids above every bid the marginal holds win with certainty.
        nu = np.array([0.5, 0.5, 0.0, 0.0])
        np.testing.assert_array_equal(win_prob_all_bids(nu)[2:], 1.0)


class TestImmediateReward:
    """The immediate reward R of policy evaluation: minus the urgency
    level times the probability of losing."""

    @staticmethod
    def rewards() -> np.ndarray:
        # Everyone holds 3 and bids the whole balance, so a bid of 0 always
        # loses, a bid of 3 ties and a bid of 5 always wins.
        process = build_urgency_process([4, 16], 0.04)
        d = np.zeros((2, 6))
        d[:, 3] = 0.5
        social = SocialState(d=d, pi=point_policy(2, 5, lambda k: k))
        return policy_evaluation(process, TransitionOperator(process, social),
                                 GameConfig(k_bar=2, k_max=5)).R

    def test_certain_loss(self):
        assert self.rewards()[1, 0] == -16.0

    def test_certain_win(self):
        assert self.rewards()[1, 5] == 0.0

    def test_even_odds(self):
        assert self.rewards()[0, 3] == -2.0


def any_process(n_levels: int) -> UrgencyProcess:
    """An urgency chain of n_levels levels; the karma moves do not read it."""
    return UrgencyProcess(levels=tuple(range(n_levels)), phi=np.full((2, n_levels, n_levels), 1 / n_levels))


def operator_grant(social: SocialState) -> float:
    """The grant of the social state's operator, f_low low + f_high high,
    read from balance 0's landings, which the cap never reaches."""
    op = TransitionOperator(any_process(social.n_levels), social)
    nk = social.k_max + 1
    return float(op.landing_weight[0] * op.landing[0] + op.landing_weight[nk] * op.landing[nk])


def assert_push_keeps_mean_karma(process: UrgencyProcess, social: SocialState) -> None:
    pushed = SocialState(d=TransitionOperator(process, social).push(), pi=social.pi)
    assert pushed.mean_karma == pytest.approx(social.mean_karma, rel=0, abs=1e-12)


class TestRedistributionGrant:
    """The operator grants the average payment p_bar where no balance can
    overflow, and more where the cap would fold karma away, so that the
    push keeps the mean karma."""

    def test_all_zero_bids(self):
        d = np.full((2, 4), 1 / 8)
        social = SocialState(d=d, pi=point_policy(2, 3, lambda k: 0))
        assert operator_grant(social) == 0.0 == average_payment_oracle(social)

    def test_single_state_bid_four(self):
        d = np.zeros((1, 5))
        d[0, 4] = 1.0
        social = SocialState(d=d, pi=point_policy(1, 4, lambda k: 4))
        # everyone bids 4, so a bid of 4 wins half the time: p_bar = 2. The
        # losers stay at the cap whatever they receive, so the winners must
        # get all 4 back.
        assert average_payment_oracle(social) == pytest.approx(2.0, abs=1e-12)
        assert operator_grant(social) == pytest.approx(4.0, rel=0, abs=1e-12)
        assert_push_keeps_mean_karma(any_process(1), social)

    def test_two_state_example_matches_bruteforce(self):
        d = np.zeros((1, 6))
        d[0, 1] = 0.5
        d[0, 3] = 0.5
        social = SocialState(d=d, pi=point_policy(1, 5, lambda k: k))
        # gamma0[1] = 0.25, gamma0[3] = 0.75: 0.5*0.25*1 + 0.5*0.75*3. The
        # top balance after payment, 3, gains at most 2 and stays below 5.
        assert average_payment_oracle(social) == pytest.approx(1.25, abs=1e-12)
        assert operator_grant(social) == pytest.approx(average_payment_oracle(social), rel=0, abs=1e-12)

    def test_random_states_match_bruteforce(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            social = make_random_social(rng, 2, 7)
            grant = operator_grant(social)
            assert grant == pytest.approx(grant_oracle(social), rel=0, abs=1e-12)
            assert grant > average_payment_oracle(social)
            assert_push_keeps_mean_karma(any_process(2), social)


class TestKarmaTransition:
    """The karma landing of the oracles, checked by hand."""

    def test_fractional_payment_two_point(self):
        assert karma_transition_oracle(10, 4, 0, 2.5, 40) == {8: 0.5, 9: 0.5}

    def test_integral_payment_single_point(self):
        assert karma_transition_oracle(10, 4, 1, 2.0, 40) == {12: 1.0}

    def test_truncation_at_cap(self):
        assert karma_transition_oracle(40, 0, 1, 0.7, 40) == {40: 1.0}
        # untruncated expectation sits 0.7 above the balance
        free = karma_transition_oracle(40, 0, 1, 0.7, 10_000)
        assert sum(k * p for k, p in free.items()) == pytest.approx(40.7, abs=1e-12)

    def test_bid_above_balance_rejected(self):
        with pytest.raises(ValueError):
            karma_transition_oracle(3, 4, 0, 1.0, 40)

    def test_bad_outcome_rejected(self):
        with pytest.raises(ValueError):
            karma_transition_oracle(3, 1, 2, 1.0, 40)


class TestStateTransition:
    """The one-bid state transition law: the oracle's by hand, and the
    library's as it enters Q."""

    def test_winning_resets_urgency(self):
        proc = build_urgency_process([1, 2, 4], 1e-9)
        d = np.full((3, 5), 1 / 15)
        social = SocialState(d=d, pi=point_policy(3, 4, lambda k: 0))
        rho = state_transition_oracle(proc, social, u=2, k=3, b=2)  # outbids everyone
        marginal_u = rho.sum(axis=1)
        assert marginal_u[0] == pytest.approx(1.0, abs=1e-8)

    def test_losing_escalates_urgency_and_pays_out(self):
        proc = build_urgency_process([1, 2, 4, 8], 1e-9)
        d = np.zeros((4, 8))
        d[0, 3] = 1.0
        social = SocialState(d=d, pi=point_policy(4, 7, lambda k: 3))
        # everyone else bids 3; a zero bid loses with certainty
        rho = state_transition_oracle(proc, social, u=2, k=5, b=0)
        marginal_u = rho.sum(axis=1)
        assert marginal_u[3] == pytest.approx(1.0, abs=1e-8)
        # average payment is 0.5 * 3 = 1.5, so the loser lands on k+1 / k+2
        marginal_k = rho.sum(axis=0)
        assert marginal_k[6] == pytest.approx(0.5, abs=1e-12)
        assert marginal_k[7] == pytest.approx(0.5, abs=1e-12)

    def test_matches_bruteforce_on_case_study(self, case_process):
        # Q[u, k, b] = -level[u] (1 - gamma0[b]) + alpha rho(u, k, b) . V for
        # any V, so arbitrary values expose the library's transition law.
        rng = np.random.default_rng(3)
        config = GameConfig(k_bar=6, k_max=12)
        social = make_random_social(rng, case_process.n_levels, config.k_max)
        op = TransitionOperator(case_process, social)
        values = policy_evaluation(case_process, op, config)
        values = dataclasses.replace(values, V=rng.standard_normal(social.d.shape))
        q = unpack(q_function(values, op, case_process, config))
        lose = 1.0 - win_prob_all_bids(bid_marginal(social))
        for _ in range(8):
            u = int(rng.integers(case_process.n_levels))
            k = int(rng.integers(13))
            b = int(rng.integers(k + 1))
            rho = state_transition_oracle(case_process, social, u, k, b)
            want = -case_process.levels[u] * lose[b] + config.alpha * float((rho * values.V).sum())
            assert q[u, k, b] == pytest.approx(want, rel=0, abs=1e-12)

    def test_bid_above_balance_rejected(self, case_process):
        rng = np.random.default_rng(4)
        social = make_random_social(rng, case_process.n_levels, 6)
        with pytest.raises(ValueError):
            state_transition_oracle(case_process, social, 0, 2, 3)


class TestSocialStateValidation:
    def test_rejects_negative_mass(self):
        d = np.full((1, 2), 0.5)
        pi = point_policy(1, 1, lambda k: 0)
        d[0, 0] = -0.5
        d[0, 1] = 1.5
        with pytest.raises(ParameterError):
            SocialState(d=d, pi=pi)

    def test_rejects_nan_mass(self):
        # A lone NaN fails neither `< 0` nor `abs(total - 1) > atol`.
        d = np.full((1, 2), 0.5)
        d[0, 1] = np.nan
        with pytest.raises(ParameterError, match="NaN"):
            SocialState(d=d, pi=point_policy(1, 1, lambda k: 0))

    def test_rejects_unnormalized_distribution(self):
        d = np.full((1, 2), 0.6)
        with pytest.raises(ParameterError):
            SocialState(d=d, pi=point_policy(1, 1, lambda k: 0))

    def test_rejects_infeasible_bid_mass(self):
        # The packed policy has no entry for a bid above the balance, so
        # only a table of another shape, such as the square one, can carry
        # that mass; it is rejected by its shape.
        d = np.full((1, 2), 0.5)
        pi = np.zeros((1, 2, 2))
        pi[0, 0, 1] = 1.0  # bid 1 with karma 0
        pi[0, 1, 0] = 1.0
        for table in (pi, pi.reshape(1, 4)):
            with pytest.raises(ParameterError, match=r"pi must have shape \(1, 3\)"):
                SocialState(d=d, pi=table)

    def test_rejects_nan_in_policy(self):
        pi = point_policy(2, 3, lambda k: 0)
        pi[1, 4] = np.nan  # balance 2, bid 1
        with pytest.raises(ParameterError, match="NaN"):
            SocialState(d=np.full((2, 4), 1 / 8), pi=pi)

    def test_construction_renormalizes_exactly(self):
        rng = np.random.default_rng(5)
        social = make_random_social(rng, 3, 6)
        assert abs(social.d.sum() - 1.0) <= 1e-14
        sums = unpack(social.pi).sum(axis=2)
        np.testing.assert_allclose(sums, 1.0, atol=1e-14)

    def test_construction_never_writes_the_callers_arrays(self):
        rng = np.random.default_rng(6)
        given = make_random_social(rng, 2, 4)
        d, pi = given.d * (1.0 + 5e-11), given.pi * (1.0 + 5e-11)  # within MASS_ATOL
        d_in, pi_in = d.copy(), pi.copy()
        social = SocialState(d=d, pi=pi)
        np.testing.assert_array_equal(d, d_in)
        np.testing.assert_array_equal(pi, pi_in)
        assert not np.shares_memory(social.d, d) and not np.shares_memory(social.pi, pi)
        np.testing.assert_allclose(unpack(social.pi).sum(axis=2), 1.0, rtol=0, atol=1e-14)


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
        # epsilon lives on the urgency process, which the config builds.
        with pytest.raises(ParameterError, match="epsilon"):
            setup_from_mapping({"epsilon": 0.0})

    def test_karma_headroom(self):
        with pytest.raises(ParameterError, match="k_max"):
            GameConfig(k_bar=10, k_max=15)
        with pytest.raises(ParameterError, match="k_max"):
            GameConfig(k_bar=10, k_max=10)


class TestRandomizedInvariants:
    """Invariants over randomized social states, seeded for reproducibility."""

    def test_all_output_masses_normalized(self, case_process):
        rng = np.random.default_rng(17)
        for _ in range(15):
            social = make_random_social(rng, case_process.n_levels, 10)
            nu = bid_marginal(social)
            assert abs(nu.sum() - 1.0) <= 1e-10
            gamma0 = win_prob_all_bids(nu)
            assert ((0.0 <= gamma0) & (gamma0 <= 1.0 + 1e-12)).all()
            op = TransitionOperator(case_process, social)
            np.testing.assert_allclose(op.apply(np.ones(social.d.shape)), 1.0, rtol=0, atol=1e-10)
            assert abs(op.push().sum() - 1.0) <= 1e-10
            p_bar = average_payment_oracle(social)
            for trial in range(4):
                u = int(rng.integers(case_process.n_levels))
                k = int(rng.integers(11))
                b = int(rng.integers(k + 1))
                kappa = karma_transition_oracle(k, b, trial % 2, p_bar, 10)
                assert abs(sum(kappa.values()) - 1.0) <= 1e-10
                rho = state_transition_oracle(case_process, social, u, k, b)
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
            social = SocialState(d=d, pi=pack(pi))
            mean_before = social.mean_karma
            mean_after = _expected_next_karma(case_process, social)
            assert mean_after == pytest.approx(mean_before, abs=1e-9)

    def test_truncation_keeps_mean_karma(self, case_process):
        # Mass at every balance, the cap included.
        rng = np.random.default_rng(29)
        for _ in range(5):
            assert_push_keeps_mean_karma(case_process, make_random_social(rng, case_process.n_levels, 6))

    def test_win_probability_monotone_in_bid(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            nu = rng.random(12)
            nu /= nu.sum()
            gammas = win_prob_all_bids(nu)
            assert (np.diff(gammas) >= -1e-12).all()

    def test_reward_bounds(self):
        rng = np.random.default_rng(37)
        process = build_urgency_process([1, 3, 19], 0.04)
        config = GameConfig(k_bar=3, k_max=6)
        for _ in range(10):
            social = make_random_social(rng, process.n_levels, config.k_max)
            reward = policy_evaluation(process, TransitionOperator(process, social), config).R
            assert (-process.level_values[:, None] <= reward).all() and (reward <= 0.0).all()

    def test_transition_continuity_in_policy(self, case_process):
        # A small policy perturbation moves the transition law by at most
        # a bounded multiple (slack 1e3) of the perturbation size.
        rng = np.random.default_rng(41)
        k_max = 8
        social = make_random_social(rng, case_process.n_levels, k_max)
        nk = k_max + 1
        noise = rng.standard_normal((case_process.n_levels, nk, nk)) * 1e-6
        pi_perturbed = np.clip(unpack(social.pi) + noise, 0.0, None) * np.tril(np.ones((nk, nk)))
        pi_perturbed /= pi_perturbed.sum(axis=2, keepdims=True)
        perturbed = SocialState(d=social.d.copy(), pi=pack(pi_perturbed))
        delta = 0.5 * np.abs(unpack(perturbed.pi) - unpack(social.pi)).sum(axis=2).max()
        assert delta > 0

        def kernel(social_state):
            # Column s of P is P applied to the s-th unit vector.
            op = TransitionOperator(case_process, social_state)
            units = np.eye(social.d.size).reshape(-1, *social.d.shape)
            return np.stack([op.apply(unit).ravel() for unit in units], axis=1)

        tv = 0.5 * np.abs(kernel(perturbed) - kernel(social)).sum(axis=1)
        assert (tv <= 1e3 * delta).all()


def _expected_next_karma(process, social) -> float:
    """Mean karma after one step of the library's push-forward."""
    pushed = TransitionOperator(process, social).push()
    return float(pushed.sum(axis=0) @ np.arange(social.k_max + 1))
