"""Finite-population experiment with integer-exact karma accounting.

Every round the N agents are partitioned into N/2 pairs by a uniformly
random perfect matching; the mechanism picks one winner per pair; losers
collect a reward of minus their current urgency, winners collect zero.
Under the karma mechanism winners pay their sampled bid into a pool that
is redistributed integer-exactly: everyone receives floor(pool / N) and
a uniformly chosen set of (pool mod N) agents receives one extra unit,
so the total karma supply never changes. Urgencies then transition on
the outcome-conditioned chain.

Bids and urgency transitions are exact inverse-CDF samples from a
cumulative table, one row per agent state. Each table has a guide table
(Chen & Asau 1974; Devroye 1986, section III.2) that splits [0, 1) into
256 equal buckets and records, per row, the sample shared by every draw
in a bucket, or a mark where a column boundary cuts the bucket. A draw
then costs one gather; the few draws that land in a cut bucket fall
back to a vectorised binary search of their row. The bid tables are
built once per Mechanism and the urgency tables once per population and
process, so a round builds no per-agent row table.

A round never scatters through winner or loser index arrays: one boolean
per agent records the outcome, and the urgency state
u + n_levels * (1 - won) indexes both the reward table and the urgency
transition table. Each stage frees what later ones do not read, so a
round holds at most four N-length 8-byte arrays beside the population's:
permutation, bid state, draws and bids, while KARMA draws its bids.

All randomness flows through one seeded generator in a fixed draw order,
so runs are reproducible bit for bit from (config, mechanism, seed).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Optional

import numpy as np

from .equilibrium import EquilibriumResult
from .model import GameConfig, ParameterError, UrgencyProcess, bid_layout, packed_k_max, policy_row_sums

# Buckets of a guide table. A power of two, so int(draw * _GUIDE_BUCKETS)
# is the exact bucket of every draw in [0, 1).
_GUIDE_BUCKETS = 256


class MechanismKind(str, Enum):
    KARMA = "KARMA"
    RANDOM = "RANDOM"
    TURN = "TURN"
    GREEDY_URGENCY = "GREEDY_URGENCY"


@dataclass
class Mechanism:
    """Allocation rule driving the experiment.

    KARMA needs the bidding policy of a converged equilibrium, packed as
    SocialState.pi is, (levels, (k_max+1)(k_max+2)/2); Mechanism.karma
    takes it from one. The other kinds carry no extra state (TURN counters
    live on the population); build them by kind, such as Mechanism("TURN").
    The policy is checked by policy_row_sums but not renormalized.
    bid_cdf is derived once from the policy: row u * (k_max + 1) + k holds
    the cumulative bid probabilities of an agent at urgency u with balance
    k, constant from bid k on; bid_guide is its guide table.
    """

    kind: MechanismKind
    policy: Optional[np.ndarray] = None
    bid_cdf: Optional[np.ndarray] = field(default=None, init=False, repr=False, compare=False)
    bid_guide: Optional[np.ndarray] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        try:
            self.kind = MechanismKind(self.kind)
        except ValueError:
            raise ParameterError(f"kind must name a MechanismKind, got {self.kind!r}") from None
        if self.kind is MechanismKind.KARMA:
            if self.policy is None:
                raise ParameterError("KARMA mechanism requires a bidding policy")
            policy = self.policy = np.asarray(self.policy, dtype=float)
            if policy.ndim != 2:
                raise ParameterError(
                    f"policy must be (levels, (k_max+1)(k_max+2)/2), got {policy.shape}")
            nk = packed_k_max(policy.shape[1], "policy") + 1
            policy_row_sums(policy, nk - 1)
            _starts, balance, bid = bid_layout(nk - 1)
            # Zeros above the balance keep each row's cumulative sums flat
            # from bid k on.
            square = np.zeros((policy.shape[0], nk, nk))
            square[:, balance, bid] = policy
            self.bid_cdf = np.cumsum(square, axis=2, out=square).reshape(-1, nk)
            self.bid_guide = _guide_table(self.bid_cdf)
        elif self.policy is not None:
            raise ParameterError(f"{self.kind.value} does not take a policy")

    @classmethod
    def karma(cls, equilibrium: EquilibriumResult) -> "Mechanism":
        if not equilibrium.converged:
            raise ParameterError("KARMA requires a converged equilibrium policy")
        return cls(kind=MechanismKind.KARMA, policy=equilibrium.social.pi)


@dataclass(frozen=True, eq=False)
class _UrgencyTables:
    """A process's round tables, indexed by the urgency state
    outcome * n_levels + u (outcome 0 for a win, 1 for a loss): the reward
    (0 for a win, -level for a loss), the cumulative next-level table
    cumsum(phi, axis=2) and its guide table."""

    process: UrgencyProcess
    reward: np.ndarray
    cdf: np.ndarray
    guide: np.ndarray

    @classmethod
    def build(cls, process: UrgencyProcess) -> "_UrgencyTables":
        n_levels = process.n_levels
        cdf = np.cumsum(process.phi, axis=2).reshape(-1, n_levels)
        reward = np.concatenate([np.zeros(n_levels), -process.level_values])
        return cls(process=process, reward=reward, cdf=cdf, guide=_guide_table(cdf))


@dataclass
class Population:
    """State of the N simulated agents, stored as parallel arrays.

    urgency_tables caches the round tables of the process the population
    last played under; run_round rebuilds them when the process changes.
    """

    u: np.ndarray
    karma: np.ndarray
    wins: np.ndarray
    reward_sums: np.ndarray
    rng: np.random.Generator
    urgency_tables: Optional[_UrgencyTables] = field(default=None, repr=False, compare=False)

    @property
    def n(self) -> int:
        return self.u.shape[0]


@dataclass
class MetricsReport:
    """Outcome metrics of one experiment.

    r_bar is the long-run average reward per agent per round over the
    measured rounds; beta is minus the population standard deviation of
    the per-agent time-averaged rewards (zero only when all agents fared
    identically). karma_histograms (karma rounds only) has one row per
    measured round with counts over balances 0..k_max, balances above
    k_max folded into the top bin.
    """

    mechanism: str
    seed: int
    n_agents: int
    n_rounds: int
    burn_in: int
    r_bar: float
    beta: float
    per_agent_avg: np.ndarray
    round_mean_rewards: np.ndarray
    urgency_marginal: np.ndarray
    karma_histograms: Optional[np.ndarray] = None

    def to_dict(self) -> dict:
        return {
            "mechanism": self.mechanism,
            "seed": int(self.seed),
            "n_agents": int(self.n_agents),
            "n_rounds": int(self.n_rounds),
            "burn_in": int(self.burn_in),
            "r_bar": float(self.r_bar),
            "beta": float(self.beta),
            "urgency_marginal": [float(x) for x in self.urgency_marginal],
            "per_agent_avg": [float(x) for x in self.per_agent_avg],
        }


def initialize_population(config: GameConfig) -> Population:
    """Fresh population: everyone at the lowest urgency with exactly k_bar
    karma (total N * k_bar), counters zeroed, generator seeded."""
    n = config.n_agents
    return Population(
        u=np.zeros(n, dtype=np.int64),
        karma=np.full(n, config.k_bar, dtype=np.int64),
        wins=np.zeros(n, dtype=np.int64),
        reward_sums=np.zeros(n, dtype=float),
        rng=np.random.default_rng(config.rng_seed),
    )


def _sample_cdf(cdf: np.ndarray, state: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """Inverse-CDF sample from row state[i] of the table cdf for each draw.

    cdf is (n_states, m) with non-decreasing rows. The result is the
    number of entries of the row strictly below the draw, clamped to
    m - 1 so that a draw above a row sum that rounded below 1 does not
    fall past the last category. Counting over the first m - 1 entries
    only gives that clamp for free.

    The count is found by binary lifting, one gather and one compare per
    agent and step, ceil(log2(m)) steps in all: a first probe at column
    n - h (n = m - 1, h the largest power of two <= n) narrows the count
    to a window of h values starting at 0 or n - h + 1, and each further
    probe halves the window.
    """
    m = cdf.shape[1]
    n = m - 1
    if n == 0:
        return np.zeros(state.shape, dtype=np.int64)
    flat = cdf.ravel()
    start = state * m
    h = 1 << (n.bit_length() - 1)
    pos = start + (n - h + 1) * (np.take(flat, start + (n - h)) < draws)
    while h > 1:
        h //= 2
        pos += h * (np.take(flat, pos + (h - 1)) < draws)
    return pos - start


def _guide_table(cdf: np.ndarray) -> np.ndarray:
    """Guide table of the cumulative table cdf (n_states, m).

    Entry [r, b] for b < B = _GUIDE_BUCKETS is the _sample_cdf sample of
    row r shared by every draw in the bucket [b / B, (b + 1) / B), or m
    (no column) if the bucket holds draws with different samples. A
    draw's sample is the number of entries of cdf[r, :m-1] strictly below
    it, which lies between the counts strictly below the two bucket
    edges; where those two agree it is known. Column B is m: a draw in
    [1, 1 + 1 / B), such as a CDF entry that rounded to 1 or just above,
    lands there and falls back. Rows are filled one at a time into the
    smallest unsigned integer type that holds m.
    """
    rows, m = cdf.shape
    guide = np.full((rows, _GUIDE_BUCKETS + 1), m, dtype=np.min_scalar_type(m))
    edges = np.arange(_GUIDE_BUCKETS + 1) / _GUIDE_BUCKETS
    for row, out in zip(cdf[:, :-1], guide):
        below = np.searchsorted(row, edges)
        out[:-1] = np.where(below[:-1] == below[1:], below[:-1], m)
    return guide


def _sample_guided(
    cdf: np.ndarray, guide: np.ndarray, state: np.ndarray, draws: np.ndarray
) -> np.ndarray:
    """_sample_cdf(cdf, state, draws) for draws in [0, 1 + 1 / B), read
    from the guide table of cdf, as a new int64 array.

    Each draw costs one gather; only the draws whose guide entry is m
    go through _sample_cdf. state and draws are never written; beside the
    result the call holds one uint16 bucket array, then the guide lookup.
    """
    idx = np.multiply(state, _GUIDE_BUCKETS + 1, dtype=np.int64)
    # draw * B is exact and truncating it is the floor. A ufunc casting
    # into an integer output is several times faster than astype; every
    # bucket, B included, fits in uint16.
    idx += np.multiply(draws, _GUIDE_BUCKETS, out=np.empty(state.shape, np.uint16), casting="unsafe")
    idx[...] = np.take(guide.ravel(), idx)
    cut = np.flatnonzero(idx == cdf.shape[1])
    if cut.size:
        idx[cut] = _sample_cdf(cdf, state[cut], draws[cut])
    return idx


def _pick_winners(
    pop: Population,
    mechanism: Mechanism,
    first: np.ndarray,
    second: np.ndarray,
    coin_first: np.ndarray,
    bids: Optional[np.ndarray],
) -> np.ndarray:
    """Per pair, True if the first agent wins: higher priority wins, a tie takes coin_first."""
    if mechanism.kind is MechanismKind.RANDOM:
        return coin_first
    if mechanism.kind is MechanismKind.KARMA:
        priority = bids
    elif mechanism.kind is MechanismKind.GREEDY_URGENCY:
        priority = pop.u
    else:
        # Everyone plays every round, so all win fractions share one
        # denominator and comparing win counts gives the same decisions.
        priority = -pop.wins
    pf, ps = priority[first], priority[second]
    return np.where(pf == ps, coin_first, pf > ps)


def run_round(pop: Population, process: UrgencyProcess, mechanism: Mechanism) -> np.ndarray:
    """Play one full round in place and return the per-agent rewards.

    Draw order is fixed: matching permutation, tie coins, karma bid
    draws, redistribution picks, urgency draws. Payments and
    redistribution are integer-exact, so the karma total is conserved to
    the unit.

    Each stage keeps only what the next one reads: the permutation until
    the outcome mask exists, KARMA's bids until paid, and the old
    urgencies until the urgency state holds them.
    """
    n = pop.n
    rng = pop.rng
    tables = pop.urgency_tables
    if tables is None or tables.process is not process:
        tables = pop.urgency_tables = _UrgencyTables.build(process)
    perm = rng.permutation(n)
    first, second = perm[0::2], perm[1::2]
    coin_first = rng.random(n // 2) < 0.5

    bids: Optional[np.ndarray] = None
    if mechanism.kind is MechanismKind.KARMA:
        nk = mechanism.bid_cdf.shape[1]
        state = np.minimum(pop.karma, nk - 1)
        state += pop.u * nk
        bids = _sample_guided(mechanism.bid_cdf, mechanism.bid_guide, state, rng.random(n))
        del state
        # Balances above the policy truncation look like k_max to the
        # policy but the bid must never exceed the true balance.
        np.minimum(bids, pop.karma, out=bids)

    first_wins = _pick_winners(pop, mechanism, first, second, coin_first, bids)
    won = np.empty(n, dtype=bool)
    won[first] = first_wins
    won[second] = ~first_wins
    del perm, first, second, coin_first, first_wins

    if mechanism.kind is MechanismKind.KARMA:
        bids *= won
        pop.karma -= bids
        pool = int(bids.sum())
        del bids
        share, extra = divmod(pool, n)
        pop.karma += share
        if extra:
            pop.karma[rng.choice(n, size=extra, replace=False)] += 1

    pop.wins += won
    # urgency state outcome * n_levels + u, outcome 0 for winners
    state = np.multiply(~won, process.n_levels, dtype=np.int64)
    state += pop.u
    pop.u = None  # the state carries the old urgencies into the draw
    pop.u = _sample_guided(tables.cdf, tables.guide, state, rng.random(n))
    rewards = np.take(tables.reward, state)

    pop.reward_sums += rewards
    return rewards


def run_experiment(
    process: UrgencyProcess, config: GameConfig, mechanism: Mechanism
) -> MetricsReport:
    """Run burn-in plus n_rounds measured rounds and compute the metrics.

    The burn-in rounds are excluded from every metric. Deterministic for
    identical (process, config, mechanism).
    """
    pop = initialize_population(config)
    for _ in range(config.burn_in):
        run_round(pop, process, mechanism)

    n_rounds = config.n_rounds
    baseline = pop.reward_sums.copy()
    round_means = np.empty(n_rounds)
    urgency_counts = np.zeros(process.n_levels)
    track_karma = mechanism.kind is MechanismKind.KARMA
    histograms = np.empty((n_rounds, config.k_max + 1), dtype=np.int64) if track_karma else None

    for t in range(n_rounds):
        urgency_counts += np.bincount(pop.u, minlength=process.n_levels)
        rewards = run_round(pop, process, mechanism)
        round_means[t] = rewards.mean()
        if track_karma:
            histograms[t] = np.bincount(
                np.minimum(pop.karma, config.k_max), minlength=config.k_max + 1
            )

    per_agent_avg = (pop.reward_sums - baseline) / n_rounds
    return MetricsReport(
        mechanism=mechanism.kind.value,
        seed=config.rng_seed,
        n_agents=config.n_agents,
        n_rounds=n_rounds,
        burn_in=config.burn_in,
        r_bar=float(per_agent_avg.mean()),
        beta=-float(per_agent_avg.std()),
        per_agent_avg=per_agent_avg,
        round_mean_rewards=round_means,
        urgency_marginal=urgency_counts / urgency_counts.sum(),
        karma_histograms=histograms,
    )


def write_trace_csv(path: Path | str, report: MetricsReport) -> None:
    """Per-round trace: mean reward, running average, and (karma runs)
    the karma histogram columns."""
    histograms = report.karma_histograms
    k_cols = [f"karma_{k}" for k in range(histograms.shape[1])] if histograms is not None else []
    lines = [",".join(["round", "mean_reward", "running_mean_reward"] + k_cols)]
    running = np.cumsum(report.round_mean_rewards) / np.arange(1, report.n_rounds + 1)
    counts = (["," + ",".join(map(str, row)) for row in histograms.tolist()]
              if histograms is not None else [""] * report.n_rounds)
    lines.extend([f"{t},{mean!r},{run!r}{tail}" for t, (mean, run, tail) in enumerate(
        zip(report.round_mean_rewards.tolist(), running.tolist(), counts), start=1)])
    Path(path).write_text("\n".join(lines) + "\n")
