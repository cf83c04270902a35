"""Population-simulator tests: exact karma accounting, reward bookkeeping,
urgency-chain statistics, exact inverse-CDF sampling, and seed
determinism."""

import dataclasses
import hashlib
import tracemalloc

import numpy as np
import pytest

from karmabid import (
    GameConfig,
    Mechanism,
    MechanismKind,
    ParameterError,
    UrgencyProcess,
    build_urgency_process,
    run_experiment,
    solve_sne,
)
from karmabid.simulation import (
    _guide_table, _sample_cdf, _sample_guided, initialize_population, run_round, write_trace_csv,
)
from oracles import (
    mixture_stationary_distribution, pack, random_long_run_reward, sample_rows_oracle, unpack,
)


def uniform_policy(n_levels: int, k_max: int) -> np.ndarray:
    """Packed policy, uniform over the feasible bids; unpack() to edit it."""
    nk = k_max + 1
    pi = np.zeros((n_levels, nk, nk))
    for k in range(nk):
        pi[:, k, : k + 1] = 1.0 / (k + 1)
    return pack(pi)


@pytest.fixture
def small_setup():
    process = build_urgency_process([1, 2, 4], 0.05)
    config = GameConfig(k_bar=5, k_max=10, n_agents=50, n_rounds=40, burn_in=10, rng_seed=3)
    return process, config


class TestInitializePopulation:
    def test_case_study_totals(self, case_config):
        pop = initialize_population(case_config)
        assert int(pop.karma.sum()) == 1000 * 10
        assert (pop.u == 0).all()
        assert (pop.wins == 0).all()
        assert (pop.reward_sums == 0).all()

    def test_deterministic_under_seed(self, small_setup):
        _process, config = small_setup
        a = initialize_population(config)
        b = initialize_population(config)
        np.testing.assert_array_equal(a.karma, b.karma)
        np.testing.assert_array_equal(a.u, b.u)

    def test_odd_population_rejected(self):
        with pytest.raises(ParameterError, match="n_agents"):
            GameConfig(n_agents=999)

    def test_agent_state_arrays(self, small_setup):
        _process, config = small_setup
        pop = initialize_population(config)
        assert (int(pop.u[0]), int(pop.karma[0])) == (0, 5)
        assert pop.u.dtype == pop.karma.dtype == np.int64


class TestMechanism:
    def test_karma_requires_policy(self):
        with pytest.raises(ParameterError):
            Mechanism(kind=MechanismKind.KARMA)

    def test_kind_by_value(self):
        mechanism = Mechanism(kind="KARMA", policy=uniform_policy(2, 4))
        assert mechanism.kind is MechanismKind.KARMA
        assert Mechanism(kind="TURN") == Mechanism(MechanismKind.TURN)
        with pytest.raises(ParameterError, match="kind must name a MechanismKind"):
            Mechanism(kind="karma")

    def test_karma_requires_converged_equilibrium(self, small_game):
        process, config = small_game
        from karmabid import SolverConfig

        unconverged = solve_sne(process, config, SolverConfig(max_outer_iters=5))
        assert not unconverged.converged
        with pytest.raises(ParameterError):
            Mechanism.karma(unconverged)

    def test_non_karma_rejects_policy(self):
        with pytest.raises(ParameterError):
            Mechanism(kind=MechanismKind.RANDOM, policy=np.zeros((1, 2, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_karma_rejects_non_finite_policy(self, bad):
        policy = unpack(uniform_policy(2, 4))
        policy[1, 3, 2] = bad
        with pytest.raises(ParameterError, match="policy entries must be finite"):
            Mechanism(kind=MechanismKind.KARMA, policy=pack(policy))

    def test_karma_rejects_negative_policy_entry(self):
        policy = unpack(uniform_policy(2, 4))
        policy[0, 2] = [-0.1, 0.6, 0.5, 0.0, 0.0]  # the row still sums to 1
        with pytest.raises(ParameterError, match="policy entries must be nonnegative"):
            Mechanism(kind=MechanismKind.KARMA, policy=pack(policy))

    def test_karma_rejects_mass_above_the_balance(self):
        # The packed policy has no entry for a bid above the balance. Only
        # a table of another shape, such as the square one, can hold such
        # mass, and it is rejected by its shape, with the field named.
        square = unpack(uniform_policy(2, 4))
        square[0, 1] = [0.5, 0.25, 0.25, 0.0, 0.0]  # bids 2 with balance 1
        for policy in (square, square.reshape(2, 25), uniform_policy(2, 4)[:, :-1]):
            with pytest.raises(ParameterError, match="policy must"):
                Mechanism(kind=MechanismKind.KARMA, policy=policy)

    def test_karma_rejects_rows_off_one(self):
        # Half mass: every draw above 0.5 would bid the top bid.
        policy = unpack(uniform_policy(2, 4))
        policy[1, 4] *= 0.5
        with pytest.raises(ParameterError, match="policy rows must sum to 1"):
            Mechanism(kind=MechanismKind.KARMA, policy=pack(policy))

    def test_karma_accepts_rows_within_mass_tolerance(self):
        policy = unpack(uniform_policy(2, 4))
        policy[1, 4, 0] += 5e-11
        mechanism = Mechanism(kind=MechanismKind.KARMA, policy=pack(policy))
        assert mechanism.bid_guide.shape == (2 * 5, 257)


class TestRunRound:
    def test_exact_karma_conservation(self, small_setup):
        process, config = small_setup
        mechanism = Mechanism(kind=MechanismKind.KARMA,
                              policy=uniform_policy(process.n_levels, config.k_max))
        pop = initialize_population(config)
        total = config.n_agents * config.k_bar
        for _ in range(200):
            run_round(pop, process, mechanism)
            assert int(pop.karma.sum()) == total
            assert pop.karma.min() >= 0

    def test_winner_reward_zero_loser_pays_urgency(self, small_setup):
        process, config = small_setup
        pop = initialize_population(config)
        levels = np.asarray(process.levels, float)
        for _ in range(30):
            urgency_before = pop.u.copy()
            wins_before = pop.wins.copy()
            rewards = run_round(pop, process, Mechanism("RANDOM"))
            winner_mask = pop.wins > wins_before
            assert winner_mask.sum() == config.n_agents // 2
            assert (rewards[winner_mask] == 0).all()
            np.testing.assert_array_equal(
                rewards[~winner_mask], -levels[urgency_before[~winner_mask]]
            )

    def test_forced_winner_accumulates_zero_reward(self):
        # one agent pinned at the top urgency always beats the other under
        # the greedy rule, matching a mechanism that always grants it
        process = build_urgency_process([1, 16], 1e-12)
        config = GameConfig(n_agents=2, k_bar=1, k_max=2, rng_seed=9)
        pop = initialize_population(config)
        total = 0.0
        for _ in range(50):
            pop.u = np.array([1, 0])
            rewards = run_round(pop, process, Mechanism("GREEDY_URGENCY"))
            total += rewards[0]
            assert rewards[0] == 0.0
            assert rewards[1] == -1.0
        assert total == 0.0

    def test_zero_bid_round_urgency_statistics(self):
        process = build_urgency_process([1, 2, 4, 8, 16], 0.04)
        config = GameConfig(n_agents=4000, k_bar=10, k_max=40, rng_seed=21)
        mechanism = Mechanism(kind=MechanismKind.KARMA,
                              policy=point_zero_policy(process.n_levels, config.k_max))
        pop = initialize_population(config)
        wins_before = pop.wins.copy()
        run_round(pop, process, mechanism)
        winner_mask = pop.wins > wins_before
        # everyone bid zero at the lowest level: winners stay low with
        # probability 0.96, losers escalate with probability 0.96
        assert (pop.u[winner_mask] == 0).mean() == pytest.approx(0.96, abs=0.02)
        assert (pop.u[~winner_mask] == 1).mean() == pytest.approx(0.96, abs=0.02)

    def test_policy_lookup_clamped_above_truncation(self, small_setup):
        process, config = small_setup
        mechanism = Mechanism(kind=MechanismKind.KARMA,
                              policy=uniform_policy(process.n_levels, config.k_max))
        pop = initialize_population(config)
        pop.karma[0] = config.k_max + 25  # balance far above the policy table
        total = pop.karma.sum()
        for _ in range(50):
            run_round(pop, process, mechanism)
            assert pop.karma.sum() == total
            assert pop.karma.min() >= 0


def point_zero_policy(n_levels: int, k_max: int) -> np.ndarray:
    nk = k_max + 1
    pi = np.zeros((n_levels, nk, nk))
    pi[:, :, 0] = 1.0
    return pack(pi)


def pinned_policy(n_levels: int, k_max: int) -> np.ndarray:
    """Seeded random packed policy with many zero-probability bids."""
    rng = np.random.default_rng(5)
    nk = k_max + 1
    pi = rng.random((n_levels, nk, nk)) * np.tril(np.ones((nk, nk)))
    pi[rng.random(pi.shape) < 0.4] = 0.0
    pi[:, :, 0] += 0.05
    return pack(pi / pi.sum(axis=2, keepdims=True))


def random_rows(rng: np.random.Generator, n_rows: int, width: int) -> np.ndarray:
    rows = rng.random((n_rows, width))
    rows[rng.random(rows.shape) < 0.3] = 0.0
    rows[:, rng.integers(width)] = 0.0  # one column never drawn
    rows[rows.sum(axis=1) == 0, 0] = 1.0
    return rows / rows.sum(axis=1, keepdims=True)


class TestSampleCdf:
    """_sample_cdf must reproduce the brute-force inverse-CDF sample bit
    for bit: the simulator's draws depend on it."""

    sample = staticmethod(_sample_cdf)

    def check(self, rows: np.ndarray, state: np.ndarray, draws: np.ndarray) -> None:
        expected = sample_rows_oracle(rows[state], draws)
        got = self.sample(np.cumsum(rows, axis=1), state, draws)
        np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("width", [1, 2, 5, 41, 64, 161, 256])
    def test_matches_oracle_on_random_rows(self, width):
        rng = np.random.default_rng(width)
        rows = random_rows(rng, 7, width)
        state = rng.integers(7, size=20000)
        self.check(rows, state, rng.random(20000))

    @pytest.mark.parametrize("width", [2, 5, 41, 64, 161, 256])
    def test_draws_equal_to_cdf_entries(self, width):
        rng = np.random.default_rng(100 + width)
        rows = random_rows(rng, 4, width)
        cdf = np.cumsum(rows, axis=1)
        state = np.repeat(np.arange(4), width)
        draws = cdf[state, np.tile(np.arange(width), 4)]
        self.check(rows, state, draws)
        # just above and just below every entry as well
        self.check(rows, state, np.nextafter(draws, 2.0))
        self.check(rows, state, np.nextafter(draws, -1.0))

    @pytest.mark.parametrize("width", [2, 5, 41, 161])
    def test_draw_above_short_row_sum_takes_last_column(self, width):
        rows = np.full((1, width), 1.0 / width)
        rows[0, -1] = 0.0
        rows[0, 0] += 1.0 / width * (1 - 1e-9)  # row sum rounds below 1
        total = np.cumsum(rows, axis=1)[0, -1]
        assert total < 1.0
        draws = np.array([total, np.nextafter(total, 2.0), np.nextafter(1.0, 0.0)])
        state = np.zeros(3, dtype=np.int64)
        self.check(rows, state, draws)
        assert list(self.sample(np.cumsum(rows, axis=1), state, draws)) == [
            width - 2, width - 1, width - 1]

    def test_balances_above_k_max_use_the_top_row(self):
        rng = np.random.default_rng(8)
        k_max, n = 12, 5000
        policy = pinned_policy(3, k_max)
        mechanism = Mechanism(kind=MechanismKind.KARMA, policy=policy)
        u = rng.integers(3, size=n)
        karma = rng.integers(0, 3 * k_max, size=n)
        assert (karma > k_max).any()
        draws = rng.random(n)
        capped = np.minimum(karma, k_max)
        got = self.sample(mechanism.bid_cdf, u * (k_max + 1) + capped, draws)
        np.testing.assert_array_equal(got, sample_rows_oracle(unpack(policy)[u, capped], draws))


def guided(cdf: np.ndarray, state: np.ndarray, draws: np.ndarray) -> np.ndarray:
    return _sample_guided(cdf, _guide_table(cdf), state, draws)


class TestSampleGuided(TestSampleCdf):
    """Every TestSampleCdf case through the guide table, plus draws and
    CDF entries on the bucket edges b / 256."""

    sample = staticmethod(guided)

    @pytest.mark.parametrize("width", [1, 2, 5, 41, 161, 256])
    def test_draws_on_every_bucket_edge(self, width):
        rng = np.random.default_rng(200 + width)
        rows = random_rows(rng, 3, width)
        edges = np.arange(256) / 256
        draws = np.concatenate([edges, np.nextafter(edges, 2.0), np.nextafter(edges[1:], -1.0),
                                [np.nextafter(1.0, 0.0)]])
        state = np.repeat(np.arange(3), draws.size)
        self.check(rows, state, np.tile(draws, 3))

    @pytest.mark.parametrize("width", [2, 5, 41, 256])
    def test_cdf_entries_on_bucket_edges(self, width):
        # Probabilities in multiples of 1/256 put every CDF entry exactly
        # on a bucket edge; zero columns repeat an entry.
        rng = np.random.default_rng(300 + width)
        units = rng.multinomial(256, np.full(width, 1.0 / width), size=4)
        units[:, rng.integers(width)] = 0
        units[:, 0] += 256 - units.sum(axis=1)
        rows = units / 256
        cdf = np.cumsum(rows, axis=1)
        assert np.array_equal(cdf * 256, np.round(cdf * 256))
        edges = np.arange(257) / 256
        draws = np.concatenate([edges, np.nextafter(edges, 2.0), np.nextafter(edges, -1.0)])
        draws = draws[(draws >= 0) & (draws < 1)]
        state = np.repeat(np.arange(4), draws.size)
        self.check(rows, state, np.tile(draws, 4))

    def test_draws_just_above_one_fall_back(self):
        rng = np.random.default_rng(9)
        rows = random_rows(rng, 3, 7)
        rows[1, -2:] = 0.0  # trailing zero columns: entries equal to the row sum
        rows[1] /= rows[1].sum()
        top = 1.0 + 1.0 / 256
        draws = np.array([np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0), 1.0 + 1.0 / 512,
                          np.nextafter(top, 0.0)])
        state = np.repeat(np.arange(3), draws.size)
        self.check(rows, state, np.tile(draws, 3))

    def test_guide_marks_only_cut_buckets(self):
        # One boundary at 0.3 cuts exactly the bucket holding 0.3; an
        # entry exactly on the edge 0.5 cuts the bucket it opens.
        cdf = np.array([[0.3, 0.5, 1.0]])
        guide = _guide_table(cdf)
        assert guide.dtype == np.uint8
        cut = np.flatnonzero(guide[0] == 3)  # 3 columns: 3 is no column
        assert cut.tolist() == [int(0.3 * 256), 128, 256]  # 256: draws >= 1
        assert (guide[0, :76] == 0).all() and (guide[0, 77:128] == 1).all()
        assert (guide[0, 129:256] == 2).all()

    @pytest.mark.parametrize("width, dtype", [(255, np.uint8), (256, np.uint16), (300, np.uint16)])
    def test_guide_holds_every_column_and_the_cut_mark(self, width, dtype):
        rng = np.random.default_rng(width)
        rows = random_rows(rng, 2, width)
        rows[0] = 0.0
        rows[0, -1] = 1.0  # every draw in (0, 1) samples the last column
        guide = _guide_table(np.cumsum(rows, axis=1))
        assert guide.dtype == dtype
        assert guide[0, 0] == width  # a draw of exactly 0 samples column 0
        assert (guide[0, 1:256] == width - 1).all()
        self.check(rows, np.repeat([0, 1], 1000), rng.random(2000))

    @pytest.mark.parametrize("width", [5, 41, 161])
    def test_leaves_its_arguments_unchanged_and_returns_int64(self, width):
        rng = np.random.default_rng(400 + width)
        cdf = np.cumsum(random_rows(rng, 6, width), axis=1)
        state = rng.integers(6, size=5000)
        # cdf entries land in cut buckets, so the fallback runs too
        draws = np.concatenate([rng.random(4000), cdf[state[4000:], rng.integers(width, size=1000)]])
        state_before, draws_before = state.copy(), draws.copy()
        got = _sample_guided(cdf, _guide_table(cdf), state, draws)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(state, state_before)
        np.testing.assert_array_equal(draws, draws_before)
        np.testing.assert_array_equal(got, _sample_cdf(cdf, state, draws))

    def test_guide_build_allocates_little_beyond_the_table(self):
        rng = np.random.default_rng(4)
        cdf = np.cumsum(random_rows(rng, 805, 161), axis=1)
        tracemalloc.start()
        try:
            guide = _guide_table(cdf)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # A (rows, 257) int64 temporary alone would be 1.65 MB.
        assert peak < guide.nbytes + 64 * 1024


# r_bar and beta reprs recorded before the sampler rewrite; any change
# to the RNG draw order or to a single sampled bid or urgency moves them.
PINNED_REPRS = {
    "KARMA": ("-1.1929999999999998", "-0.40803172534606774"),
    "RANDOM": ("-1.6661666666666668", "-0.7311480888149662"),
    "TURN": ("-1.0061666666666667", "-0.25089456616940375"),
    "GREEDY_URGENCY": ("-0.6609166666666667", "-0.08845271021537127"),
}


@pytest.mark.parametrize("kind", list(PINNED_REPRS))
def test_draw_order_pinned(case_process, kind):
    # k_max = 12 with k_bar = 6 lets balances climb above the policy table
    config = GameConfig(k_bar=6, k_max=12, n_agents=200, n_rounds=60, burn_in=10, rng_seed=11)
    if kind == "KARMA":
        mechanism = Mechanism(kind=MechanismKind.KARMA,
                              policy=pinned_policy(case_process.n_levels, config.k_max))
    else:
        mechanism = Mechanism(kind=MechanismKind(kind))
    report = run_experiment(case_process, config, mechanism)
    assert (repr(report.r_bar), repr(report.beta)) == PINNED_REPRS[kind]


# sha256 of per_agent_avg.tobytes() and of karma_histograms.tobytes()
# (KARMA only), recorded before the guide-table sampler and the
# scatter-free round, on the game of test_draw_order_pinned.
PINNED_SHA256 = {
    "KARMA": ("5453ae72baf9d369e6605ab2cd2677ddfe1d983a81be17bce8b50dbfc40f0fd0",
              "b7b37ac6dce2d4bdd18db689e332bae213116e11f22787ff2ab58e3dd9d2d7c1"),
    "RANDOM": ("fdf2404635534f066f91c5cb7087b4d061938f8eb1e0c22e3447612bc9bd9f49", None),
    "TURN": ("c2d84f87a6f71a3fdc0c712258ba10b13c277aebfbfd18df6b0639e0145c8364", None),
    "GREEDY_URGENCY": ("4195b9cecc7cf7060ea688fb6030ada1b6974d10234ba3acd0a69e021bcaa014", None),
}


@pytest.mark.parametrize("kind", list(PINNED_SHA256))
def test_whole_run_pinned(case_process, kind):
    config = GameConfig(k_bar=6, k_max=12, n_agents=200, n_rounds=60, burn_in=10, rng_seed=11)
    if kind == "KARMA":
        mechanism = Mechanism(kind=MechanismKind.KARMA,
                              policy=pinned_policy(case_process.n_levels, config.k_max))
    else:
        mechanism = Mechanism(kind=MechanismKind(kind))
    report = run_experiment(case_process, config, mechanism)
    histograms = report.karma_histograms
    digests = (hashlib.sha256(report.per_agent_avg.tobytes()).hexdigest(),
               None if histograms is None else hashlib.sha256(histograms.tobytes()).hexdigest())
    assert digests == PINNED_SHA256[kind]


def test_urgency_tables_built_once_per_process(small_setup):
    process, config = small_setup
    mechanism = Mechanism("RANDOM")
    pop = initialize_population(config)
    run_round(pop, process, mechanism)
    tables = pop.urgency_tables
    run_round(pop, process, mechanism)
    assert pop.urgency_tables is tables
    assert pop.u.dtype == np.int64
    other = build_urgency_process([1, 3], 0.1)
    pop.u = np.minimum(pop.u, 1)
    run_round(pop, other, mechanism)
    assert pop.urgency_tables is not tables
    assert pop.urgency_tables.cdf.shape == (4, 2)


def test_karma_round_builds_no_per_agent_policy_rows(case_process):
    n, k_max = 20000, 160
    config = GameConfig(k_bar=10, k_max=k_max, n_agents=n, rng_seed=2)
    mechanism = Mechanism(kind=MechanismKind.KARMA,
                          policy=uniform_policy(case_process.n_levels, k_max))
    pop = initialize_population(config)
    run_round(pop, case_process, mechanism)
    tracemalloc.start()
    try:
        run_round(pop, case_process, mechanism)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * (k_max + 1) * 8


def traced_peak(action) -> int:
    tracemalloc.start()
    try:
        action()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


# Bounds in N-length int64 arrays. Before the round freed each stage's
# temporaries, KARMA peaked at 9.0 and the baselines at 6.3-6.4.
ROUND_PEAK_ARRAYS = {"KARMA": 6.5, "RANDOM": 5.5, "TURN": 5.5, "GREEDY_URGENCY": 5.5}


@pytest.mark.parametrize("kind", list(ROUND_PEAK_ARRAYS))
def test_round_keeps_a_small_working_set(case_process, kind):
    n = 20000
    config = GameConfig(n_agents=n, rng_seed=5)
    policy = uniform_policy(case_process.n_levels, config.k_max) if kind == "KARMA" else None
    mechanism = Mechanism(kind, policy)
    pop = initialize_population(config)
    for _ in range(3):  # spread the balances and build the urgency tables
        run_round(pop, case_process, mechanism)
    peak = traced_peak(lambda: run_round(pop, case_process, mechanism))
    assert peak < ROUND_PEAK_ARRAYS[kind] * n * 8


def test_karma_mechanism_builds_the_bid_table_in_place(case_process):
    k_max = 160
    policy = uniform_policy(case_process.n_levels, k_max)
    Mechanism("KARMA", policy)  # the packed layout is cached per k_max
    peak = traced_peak(lambda: Mechanism("KARMA", policy))
    # A second (levels, k_max + 1, k_max + 1) float table would reach 2.
    assert peak < 1.5 * case_process.n_levels * (k_max + 1) ** 2 * 8


class TestRunExperiment:
    def test_report_shapes_and_bounds(self, small_setup):
        process, config = small_setup
        report = run_experiment(process, config, Mechanism("TURN"))
        assert report.per_agent_avg.shape == (config.n_agents,)
        assert report.round_mean_rewards.shape == (config.n_rounds,)
        assert report.beta <= 0
        assert -max(process.levels) <= report.r_bar <= 0
        assert report.karma_histograms is None

    def test_karma_histograms_only_for_karma(self, small_setup):
        process, config = small_setup
        mechanism = Mechanism(kind=MechanismKind.KARMA,
                              policy=uniform_policy(process.n_levels, config.k_max))
        report = run_experiment(process, config, mechanism)
        assert report.karma_histograms.shape == (config.n_rounds, config.k_max + 1)
        np.testing.assert_array_equal(report.karma_histograms.sum(axis=1), config.n_agents)

    def test_seed_determinism(self, small_setup):
        process, config = small_setup
        first = run_experiment(process, config, Mechanism("RANDOM"))
        second = run_experiment(process, config, Mechanism("RANDOM"))
        assert first.r_bar == second.r_bar
        assert first.beta == second.beta
        np.testing.assert_array_equal(first.per_agent_avg, second.per_agent_avg)

    def test_different_seeds_differ(self, small_setup):
        process, config = small_setup
        first = run_experiment(process, config, Mechanism("RANDOM"))
        import dataclasses

        second = run_experiment(process, dataclasses.replace(config, rng_seed=4), Mechanism("RANDOM"))
        assert first.r_bar != second.r_bar

    def test_random_matches_analytic_chain_value(self, case_process, case_config):
        report = run_experiment(case_process, case_config, Mechanism("RANDOM"))
        analytic = random_long_run_reward(case_process)
        assert report.r_bar == pytest.approx(analytic, rel=0.02)

    def test_random_urgency_marginal_near_stationary(self, case_process, case_config):
        report = run_experiment(case_process, case_config, Mechanism("RANDOM"))
        stationary = mixture_stationary_distribution(case_process)
        tv = 0.5 * np.abs(report.urgency_marginal - stationary).sum()
        assert tv <= 0.02

    def test_turn_equalizes_win_fractions(self, case_process, case_config):
        mechanism = Mechanism("TURN")
        pop = initialize_population(case_config)
        for _ in range(case_config.burn_in + case_config.n_rounds):
            run_round(pop, case_process, mechanism)
        fractions = pop.wins / (case_config.burn_in + case_config.n_rounds)
        assert fractions.min() >= 0.48
        assert fractions.max() <= 0.52

    def test_beta_zero_when_rewards_identical(self):
        # zero-valuation bottom level pins every reward at zero
        process = UrgencyProcess(
            levels=(0, 5),
            phi=np.array([[[1 - 1e-12, 1e-12], [1 - 1e-12, 1e-12]],
                          [[1 - 1e-12, 1e-12], [1 - 1e-12, 1e-12]]]),
        )
        config = GameConfig(n_agents=2, n_rounds=20, burn_in=2, k_bar=1, k_max=2, rng_seed=13)
        report = run_experiment(process, config, Mechanism("RANDOM"))
        assert report.beta == 0.0
        assert report.r_bar == 0.0

    def test_report_serializes(self, small_setup):
        process, config = small_setup
        report = run_experiment(process, config, Mechanism("RANDOM"))
        doc = report.to_dict()
        assert doc["mechanism"] == "RANDOM"
        assert len(doc["per_agent_avg"]) == config.n_agents
        import json

        json.dumps(doc)


class TestWriteTraceCsv:
    @pytest.mark.parametrize("karma", [True, False])
    def test_round_trips_exactly(self, small_setup, tmp_path, karma):
        process, config = small_setup
        # 46 agents give mean rewards with long decimal expansions.
        config = dataclasses.replace(config, n_agents=46)
        mechanism = (Mechanism(kind=MechanismKind.KARMA,
                               policy=uniform_policy(process.n_levels, config.k_max))
                     if karma else Mechanism("TURN"))
        report = run_experiment(process, config, mechanism)
        path = tmp_path / "trace.csv"
        write_trace_csv(path, report)
        header, *lines = path.read_text().splitlines()
        k_cols = [f"karma_{k}" for k in range(config.k_max + 1)] if karma else []
        assert header.split(",") == ["round", "mean_reward", "running_mean_reward"] + k_cols
        rows = [line.split(",") for line in lines]
        assert [int(r[0]) for r in rows] == list(range(1, config.n_rounds + 1))
        means = np.array([float(r[1]) for r in rows])
        np.testing.assert_array_equal(means, report.round_mean_rewards)
        running = np.cumsum(report.round_mean_rewards) / np.arange(1, config.n_rounds + 1)
        np.testing.assert_array_equal([float(r[2]) for r in rows], running)
        if karma:
            np.testing.assert_array_equal([[int(c) for c in r[3:]] for r in rows],
                                          report.karma_histograms)
        else:
            assert all(len(r) == 3 for r in rows)
