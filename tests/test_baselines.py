"""Benchmark tests: the efficiency LP against vertex enumeration, the
analytic stationary-chain values, and the simulator's winner rule."""

import numpy as np
import pytest

from karmabid import (
    GameConfig,
    LpProblem,
    Mechanism,
    ParameterError,
    UrgencyProcess,
    build_max_eff_lp,
    build_urgency_process,
    run_experiment,
    solve_lp,
)
from karmabid.simplex import LpInfeasibleError
from karmabid.simulation import (
    Population, _UrgencyTables, _baseline_round, _pick_winners, initialize_population,
)
from oracles import (
    mixture_stationary_distribution,
    power_iteration_oracle,
    random_long_run_reward,
    vertex_enumeration_lp,
)


def single_level_process(level: int) -> UrgencyProcess:
    return UrgencyProcess(levels=(level,), phi=np.ones((2, 1, 1)))


class TestBuildMaxEffLp:
    def test_case_study_dimensions(self, case_process):
        problem = build_max_eff_lp(case_process)
        assert problem.A.shape == (7, 10)
        assert problem.c.shape == (10,)
        assert problem.labels[0] == (1, 0)
        assert problem.labels[-1] == (16, 1)

    def test_single_level_fully_constrained(self):
        problem = build_max_eff_lp(single_level_process(3))
        assert problem.A.shape == (3, 2)
        value, psi = solve_lp(problem)
        np.testing.assert_allclose(psi, [0.5, 0.5], atol=1e-9)
        assert value == pytest.approx(-1.5, abs=1e-9)

    @pytest.mark.parametrize("n_levels", [None, 1, 3, 4, 5])
    def test_layout_entry_by_entry(self, case_process, n_levels):
        # Column 2 v + o of stationarity row u holds [u = v] - phi[o, v, u];
        # then come the mass row and the winner-share row. None is the case
        # study, the others random chains.
        if n_levels is None:
            process = case_process
        else:
            phi = np.random.default_rng(n_levels).uniform(0.01, 1.0, (2, n_levels, n_levels))
            process = UrgencyProcess(levels=tuple(range(1, 2 * n_levels, 2)),
                                     phi=phi / phi.sum(axis=2, keepdims=True))
        problem = build_max_eff_lp(process)
        n = process.n_levels
        assert problem.A.shape == (n + 2, 2 * n)
        for u in range(n):
            for v in range(n):
                for o in (0, 1):
                    assert problem.A[u, 2 * v + o] == (u == v) - process.phi[o, v, u]
        for v, level in enumerate(process.levels):
            assert problem.labels[2 * v: 2 * v + 2] == [(level, 0), (level, 1)]
            assert list(problem.c[2 * v: 2 * v + 2]) == [0.0, -float(level)]
            assert list(problem.A[n, 2 * v: 2 * v + 2]) == [1.0, 1.0]
            assert list(problem.A[n + 1, 2 * v: 2 * v + 2]) == [1.0, 0.0]
        assert list(problem.b) == [0.0] * n + [1.0, 0.5]

    def test_solution_is_feasible(self, case_process):
        problem = build_max_eff_lp(case_process)
        _value, psi = solve_lp(problem)
        assert np.abs(problem.A @ psi - problem.b).max() <= 1e-9
        assert psi.min() >= -1e-12


class TestSolveLp:
    def test_degenerate_noise_matches_enumeration_exactly(self):
        process = build_urgency_process([1, 2], 0.5)
        problem = build_max_eff_lp(process)
        value, _psi = solve_lp(problem)
        oracle_value, _ = vertex_enumeration_lp(problem)
        assert value == pytest.approx(oracle_value, abs=1e-12)
        # all losing mass sits on the cheap level
        assert value == pytest.approx(-0.5, abs=1e-12)

    def test_case_study_matches_enumeration(self, case_process):
        problem = build_max_eff_lp(case_process)
        value, _psi = solve_lp(problem)
        oracle_value, _ = vertex_enumeration_lp(problem)
        assert value == pytest.approx(oracle_value, abs=1e-8)

    def test_upper_bounds_simulated_mechanisms(self, case_process):
        # scaled-down population; the bound is scale-free
        config = GameConfig(n_agents=400, n_rounds=400, burn_in=100, rng_seed=5)
        value, _ = solve_lp(build_max_eff_lp(case_process))
        for mechanism in (Mechanism("RANDOM"), Mechanism("TURN"), Mechanism("GREEDY_URGENCY")):
            report = run_experiment(case_process, config, mechanism)
            assert report.r_bar <= value + 0.02 * abs(value)

    @pytest.mark.xfail(strict=True, reason=(
        "r_bar is the mean of per-agent averages, each rounded, so where exactly half the "
        "agents lose at level 3 every round RANDOM and GREEDY_URGENCY read "
        "-1.4999999999999998, one ulp above the LP value -1.5"))
    def test_single_level_bound_holds_to_the_last_bit(self):
        process = single_level_process(3)
        config = GameConfig(n_agents=10, n_rounds=5, burn_in=1, k_bar=1, k_max=2, rng_seed=1)
        value, _ = solve_lp(build_max_eff_lp(process))
        assert value == -1.5
        for kind in ("RANDOM", "TURN", "GREEDY_URGENCY"):
            assert run_experiment(process, config, Mechanism(kind)).r_bar <= value

    def test_infeasible_problem_raises_cleanly(self):
        problem = LpProblem(
            c=np.zeros(2),
            A=np.array([[1.0, 1.0], [1.0, 1.0]]),
            b=np.array([1.0, 2.0]),
            labels=[(1, 0), (1, 1)],
        )
        with pytest.raises(LpInfeasibleError):
            solve_lp(problem)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ParameterError):
            LpProblem(c=np.zeros(3), A=np.eye(2), b=np.zeros(2), labels=[(1, 0), (1, 1)])


class TestMixtureStationary:
    def test_matches_power_iteration(self, case_process):
        dist = mixture_stationary_distribution(case_process)
        mix = 0.5 * (case_process.phi[0] + case_process.phi[1])
        oracle = power_iteration_oracle(mix)
        np.testing.assert_allclose(dist, oracle, atol=1e-10)
        assert dist.sum() == pytest.approx(1.0, abs=1e-12)

    def test_single_level(self):
        dist = mixture_stationary_distribution(single_level_process(4))
        np.testing.assert_allclose(dist, [1.0], atol=1e-12)

    def test_random_reward_value(self, case_process):
        value = random_long_run_reward(case_process)
        dist = mixture_stationary_distribution(case_process)
        assert value == pytest.approx(-(dist @ case_process.level_values) / 2, abs=1e-12)
        assert value < 0


class TestTurnChoose:
    """The TURN rule as the simulator applies it, on one hand-built pair.

    Everyone plays every round, so win counts order the agents as their
    win fractions do; an agent with no wins yet counts as fraction zero.
    """

    @staticmethod
    def first_wins(wins, coin: bool, kind: str = "TURN", u=(0, 0), bids=None) -> bool:
        pop = Population(
            u=np.asarray(u, dtype=np.int64), karma=np.zeros(2, dtype=np.int64),
            wins=np.asarray(wins, dtype=np.int64), reward_sums=np.zeros(2),
            rng=np.random.default_rng(0),
        )
        # The winner rule reads only the kind, so any valid KARMA policy will do.
        mechanism = Mechanism(kind, policy=np.ones((1, 1)) if kind == "KARMA" else None)
        bids = None if bids is None else np.asarray(bids, dtype=np.int64)
        # Agents 0 and 1 form the one pair, agent 0 first.
        won = _pick_winners(pop, mechanism, np.array([0, 1]), np.array([coin]), bids)
        return bool(won[0])

    def test_lower_fraction_wins(self):
        for coin in (True, False):
            assert self.first_wins([2, 5], coin)
            assert not self.first_wins([5, 2], coin)

    def test_fresh_agents_tie_by_coin(self):
        assert self.first_wins([0, 0], True)
        assert not self.first_wins([0, 0], False)
        assert self.first_wins([3, 3], True)
        assert not self.first_wins([3, 3], False)

    def test_zero_history_counts_as_zero_fraction(self):
        # A fresh agent beats a veteran whatever the coin says.
        for coin in (True, False):
            assert self.first_wins([0, 1], coin)
            assert not self.first_wins([1, 0], coin)

    def test_two_agents_alternate_to_half(self, case_process):
        config = GameConfig(n_agents=2, rng_seed=7)
        mechanism = Mechanism("TURN")
        pop = initialize_population(case_process, config, mechanism)
        tables = _UrgencyTables.build(case_process)
        rounds = 1000
        for _ in range(rounds):
            _baseline_round([pop], [mechanism], tables)
        # The counters are updated every round, so the two agents take
        # turns and their win counts never differ by more than one.
        assert int(pop.wins.sum()) == rounds
        assert abs(int(pop.wins[0]) - int(pop.wins[1])) <= 1


class TestWinnerRule:
    """The one winner rule under every kind, on TestTurnChoose's pair: each
    kind ranks by its own priority (bid, urgency, fewest wins), the higher
    priority wins whatever the coin and a tie takes the coin; RANDOM ranks
    no one."""

    first_wins = staticmethod(TestTurnChoose.first_wins)

    def test_higher_bid_or_urgency_wins_whatever_the_coin(self):
        # The second agent leads on the priorities of the other kinds, so
        # only the kind's own priority can make the first one win.
        for coin in (True, False):
            assert self.first_wins([5, 0], coin, "KARMA", u=[0, 4], bids=[3, 1])
            assert not self.first_wins([0, 5], coin, "KARMA", u=[4, 0], bids=[1, 3])
            assert self.first_wins([5, 0], coin, "GREEDY_URGENCY", u=[2, 0], bids=[0, 4])
            assert not self.first_wins([0, 5], coin, "GREEDY_URGENCY", u=[0, 2], bids=[4, 0])
            assert self.first_wins([0, 5], coin, "TURN", u=[0, 4], bids=[0, 4])

    def test_equal_priority_takes_the_coin(self):
        for coin in (True, False):
            assert self.first_wins([5, 0], coin, "KARMA", u=[0, 4], bids=[2, 2]) is coin
            assert self.first_wins([5, 0], coin, "GREEDY_URGENCY", u=[1, 1], bids=[0, 4]) is coin
            assert self.first_wins([4, 4], coin, "TURN", u=[0, 4], bids=[0, 4]) is coin

    def test_random_always_takes_the_coin(self):
        for coin in (True, False):
            assert self.first_wins([0, 5], coin, "RANDOM", u=[3, 0], bids=[4, 0]) is coin
            assert self.first_wins([5, 0], coin, "RANDOM", u=[0, 3], bids=[0, 4]) is coin
