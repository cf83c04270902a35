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
then costs one gather; the few draws that land in a cut bucket count
the entries of their row below the draw, in blocks of bounded size.
The bid tables are built once per Mechanism and the urgency tables once
per experiment, so a round builds no per-agent row table.

A round never scatters through winner or loser index arrays: one boolean
per agent records the outcome, and the urgency state
u + n_levels * (1 - won) indexes both the reward table and the urgency
transition table. Each stage frees what later ones do not read, so a
round holds at most four N-length 8-byte arrays beside the population's:
permutation, bid state, draws and bids, while KARMA draws its bids.

All randomness flows through one seeded generator in a fixed draw order,
so runs are reproducible bit for bit from (config, mechanism, seed).
run_round plays KARMA's round. RANDOM, TURN and GREEDY_URGENCY draw only
each round's permutation, tie coins and urgency uniforms, so under one
seed their draws are the same: _baseline_round plays any group of them
on one generator that draws each value once. simulate plays a group of
one and compare a group of three, and a population's reports are the
same bit for bit in either.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional

import numpy as np

from .equilibrium import EquilibriumResult
from .model import GameConfig, ParameterError, UrgencyProcess, bid_layout, packed_k_max, policy_row_sums

# Buckets of a guide table. A power of two, so int(draw * _GUIDE_BUCKETS)
# is the exact bucket of every draw in [0, 1).
_GUIDE_BUCKETS = 256

# Entries of cdf that one block of _sample_guided's fallback gathers.
# 2**16 float64 entries are 512 KB: the fallback's memory stays bounded
# however wide the rows and however many draws land in cut buckets,
# while the few cut draws of a converged policy take one block.
_FALLBACK_ENTRIES = 1 << 16


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

    reward: np.ndarray
    cdf: np.ndarray
    guide: np.ndarray

    @classmethod
    def build(cls, process: UrgencyProcess) -> "_UrgencyTables":
        n_levels = process.n_levels
        cdf = np.cumsum(process.phi, axis=2).reshape(-1, n_levels)
        reward = np.concatenate([np.zeros(n_levels), -process.level_values])
        return cls(reward=reward, cdf=cdf, guide=_guide_table(cdf))


@dataclass
class Population:
    """State of the N simulated agents, stored as parallel arrays.

    run_baselines' populations leave karma None, and wins too except
    TURN's, since nothing reads them there; their u is the smallest
    unsigned type that holds every urgency level.
    """

    u: np.ndarray
    karma: Optional[np.ndarray]
    wins: Optional[np.ndarray]
    reward_sums: np.ndarray
    rng: np.random.Generator

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
    return _new_population(config, np.random.default_rng(config.rng_seed), karma=True, wins=True)


def _new_population(
    config: GameConfig, rng: np.random.Generator, karma: bool, wins: bool, u_dtype=np.int64
) -> Population:
    n = config.n_agents
    return Population(
        u=np.zeros(n, dtype=u_dtype),
        karma=np.full(n, config.k_bar, dtype=np.int64) if karma else None,
        wins=np.zeros(n, dtype=np.int64) if wins else None,
        reward_sums=np.zeros(n, dtype=float),
        rng=rng,
    )


def _guide_table(cdf: np.ndarray) -> np.ndarray:
    """Guide table of the cumulative table cdf (n_states, m).

    The sample of row r for a draw is the number of entries of
    cdf[r, :m-1] strictly below the draw: the inverse-CDF column, clamped
    to m - 1 so that a draw above a row sum that rounded below 1 does not
    fall past the last column. Entry [r, b] for b < B = _GUIDE_BUCKETS is
    the sample shared by every draw in the bucket [b / B, (b + 1) / B),
    or m (no column) if the bucket holds draws with different samples. A
    draw's sample lies between the counts strictly below the two bucket
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
    """The sample of row state[i] of cdf for each draws[i] in
    [0, 1 + 1 / B), as _guide_table defines it, in a new int64 array;
    guide is the guide table of cdf.

    Each draw costs one gather. A draw whose guide entry is the cut mark
    m is counted against the first m - 1 entries of its row, in blocks of
    at most _FALLBACK_ENTRIES gathered entries. state and draws are never
    written; beside the result the call holds one uint16 bucket array,
    then the guide lookup, then one block.
    """
    idx = np.multiply(state, _GUIDE_BUCKETS + 1, dtype=np.int64)
    # draw * B is exact and truncating it is the floor. A ufunc casting
    # into an integer output is several times faster than astype; every
    # bucket, B included, fits in uint16.
    idx += np.multiply(draws, _GUIDE_BUCKETS, out=np.empty(state.shape, np.uint16), casting="unsafe")
    idx[...] = np.take(guide.ravel(), idx)
    m = cdf.shape[1]
    cut = np.flatnonzero(idx == m)
    step = max(1, _FALLBACK_ENTRIES // max(m - 1, 1))
    for lo in range(0, cut.size, step):
        part = cut[lo:lo + step]
        idx[part] = (cdf[state[part], :-1] < draws[part, None]).sum(axis=1)
    return idx


def _pick_winners(
    pop: Population,
    mechanism: Mechanism,
    perm: np.ndarray,
    coin_first: np.ndarray,
    bids: Optional[np.ndarray],
) -> np.ndarray:
    """One boolean per agent, True for the winner of its pair. The pairs
    are (perm[0::2], perm[1::2]): higher priority wins, a tie takes
    coin_first, True for the first agent."""
    if mechanism.kind is MechanismKind.RANDOM:
        first_wins = coin_first
    else:
        # One gather in seat order, perm[j] in seat j, reads the pairs as
        # its even and odd seats.
        if mechanism.kind is MechanismKind.KARMA:
            seats = bids[perm]
        elif mechanism.kind is MechanismKind.GREEDY_URGENCY:
            seats = pop.u[perm]
        else:
            seats = pop.wins[perm]
        pf, ps = seats[0::2], seats[1::2]
        if mechanism.kind is MechanismKind.TURN:
            # Everyone plays every round, so all win fractions share one
            # denominator and comparing win counts gives the same decisions;
            # the fewer wins have the priority, so the pair is read swapped.
            pf, ps = ps, pf
        first_wins = np.where(pf == ps, coin_first, pf > ps)
        del seats, pf, ps
    seat_won = np.empty(perm.shape[0], dtype=bool)
    seat_won[0::2] = first_wins
    seat_won[1::2] = ~first_wins
    won = np.empty_like(seat_won)
    won[perm] = seat_won
    return won


def _settle(pop: Population, tables: _UrgencyTables, won: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """The round's last stage: count the wins (where pop keeps them), draw
    the next urgencies from the uniforms draws (never written), and return
    the rewards, already added to reward_sums. pop.u keeps its dtype."""
    if pop.wins is not None:
        pop.wins += won
    # urgency state outcome * n_levels + u, outcome 0 for winners
    state = np.multiply(~won, tables.cdf.shape[1], dtype=np.int64)
    state += pop.u
    u_dtype = pop.u.dtype
    pop.u = None  # the state carries the old urgencies into the draw
    pop.u = _sample_guided(tables.cdf, tables.guide, state, draws).astype(u_dtype, copy=False)
    rewards = np.take(tables.reward, state)
    pop.reward_sums += rewards
    return rewards


def run_round(pop: Population, tables: _UrgencyTables, mechanism: Mechanism) -> np.ndarray:
    """Play one KARMA round in place on the process's urgency tables and
    return the per-agent rewards.

    Draw order is fixed: matching permutation, tie coins, bid draws,
    redistribution picks, urgency draws. Payments and redistribution are
    integer-exact, so the karma total is conserved to the unit. Each stage
    keeps only what the next one reads: the permutation until the outcome
    mask exists, the bids until paid, and the old urgencies until the
    urgency state holds them.
    """
    n = pop.n
    rng = pop.rng
    perm = rng.permutation(n)
    coin_first = rng.random(n // 2) < 0.5
    nk = mechanism.bid_cdf.shape[1]
    state = np.minimum(pop.karma, nk - 1)
    state += pop.u * nk
    bids = _sample_guided(mechanism.bid_cdf, mechanism.bid_guide, state, rng.random(n))
    del state
    # Balances above the policy truncation look like k_max to the
    # policy but the bid must never exceed the true balance.
    np.minimum(bids, pop.karma, out=bids)

    won = _pick_winners(pop, mechanism, perm, coin_first, bids)
    del perm, coin_first
    bids *= won
    pop.karma -= bids
    pool = int(bids.sum())
    del bids
    share, extra = divmod(pool, n)
    pop.karma += share
    if extra:
        pop.karma[rng.choice(n, size=extra, replace=False)] += 1

    return _settle(pop, tables, won, rng.random(n))


def _baseline_round(
    pops: list[Population], mechanisms: list[Mechanism], tables: _UrgencyTables
) -> list[float]:
    """Play one round of the baseline populations in place, pops[i] under
    mechanisms[i] on the process's urgency tables, and return their mean
    rewards. Their one generator draws the matching, the tie coins and the
    urgency uniforms once for the group. Every outcome mask comes first,
    then the uniforms, then every urgency step, so a population meets the
    same draws in a group of any size.
    """
    rng, n = pops[0].rng, pops[0].n
    perm = rng.permutation(n)
    coin_first = rng.random(n // 2) < 0.5
    won = [_pick_winners(pop, mechanism, perm, coin_first, None)
           for pop, mechanism in zip(pops, mechanisms)]
    del perm, coin_first
    draws = rng.random(n)
    return [_settle(pop, tables, won.pop(0), draws).mean() for pop in pops]


def _measure(
    process: UrgencyProcess,
    config: GameConfig,
    mechanisms: list[Mechanism],
    pops: list[Population],
    play: Callable[[], list[float]],
) -> list[MetricsReport]:
    """Burn-in plus n_rounds measured rounds, and one report per population.

    play() plays one round of every population, pops[i] under
    mechanisms[i], and returns their mean rewards in that order. The
    populations end here: each report's per_agent_avg is its population's
    reward_sums, divided in place.
    """
    for _ in range(config.burn_in):
        play()
    # Every reward is an integer (0 or -level), so reward_sums holds exact
    # sums: clearing it here gives the bits that subtracting a copy of the
    # burn-in sums gave, while max(level) * (burn_in + n_rounds) < 2**53.
    for pop in pops:
        pop.reward_sums.fill(0.0)

    n_rounds, n_levels = config.n_rounds, process.n_levels
    round_means = np.empty((len(pops), n_rounds))
    urgency_counts = np.zeros((len(pops), n_levels))
    histograms = [np.empty((n_rounds, config.k_max + 1), dtype=np.int64)
                  if mechanism.kind is MechanismKind.KARMA else None for mechanism in mechanisms]
    for t in range(n_rounds):
        for counts, pop in zip(urgency_counts, pops):
            counts += np.bincount(pop.u, minlength=n_levels)
        round_means[:, t] = play()
        for hist, pop in zip(histograms, pops):
            if hist is not None:
                hist[t] = np.bincount(np.minimum(pop.karma, config.k_max), minlength=config.k_max + 1)

    reports = []
    for mechanism, pop, means, counts, hist in zip(
            mechanisms, pops, round_means, urgency_counts, histograms):
        per_agent_avg = pop.reward_sums
        per_agent_avg /= n_rounds
        reports.append(MetricsReport(
            mechanism=mechanism.kind.value,
            seed=config.rng_seed,
            n_agents=config.n_agents,
            n_rounds=n_rounds,
            burn_in=config.burn_in,
            r_bar=float(per_agent_avg.mean()),
            beta=-float(per_agent_avg.std()),
            per_agent_avg=per_agent_avg,
            round_mean_rewards=means,
            urgency_marginal=counts / counts.sum(),
            karma_histograms=hist,
        ))
    return reports


def run_experiment(
    process: UrgencyProcess, config: GameConfig, mechanism: Mechanism
) -> MetricsReport:
    """Run burn-in plus n_rounds measured rounds and compute the metrics.

    The burn-in rounds are excluded from every metric. Deterministic for
    identical (process, config, mechanism). A baseline runs as
    run_baselines' group of one.

    Raises:
        ParameterError: if a KARMA policy has another number of urgency
            levels than the process.
    """
    if mechanism.kind is not MechanismKind.KARMA:
        return run_baselines(process, config, [mechanism])[0]
    if mechanism.policy.shape[0] != process.n_levels:
        raise ParameterError(f"policy has {mechanism.policy.shape[0]} urgency levels, "
                             f"the process {process.n_levels}")
    pop = initialize_population(config)
    tables = _UrgencyTables.build(process)
    return _measure(process, config, [mechanism], [pop],
                    lambda: [run_round(pop, tables, mechanism).mean()])[0]


def run_baselines(
    process: UrgencyProcess, config: GameConfig, mechanisms: list[Mechanism]
) -> list[MetricsReport]:
    """The reports of the baselines (RANDOM, TURN or GREEDY_URGENCY) in
    mechanisms, in that order, played by _baseline_round on one generator
    seeded from config.rng_seed. A report does not depend on the group.
    The populations hold no karma, only TURN's counts wins, and each keeps
    its urgencies in one byte while there are at most 256 levels: a group
    of three peaks below KARMA's run_experiment.
    """
    if not mechanisms or any(m.kind is MechanismKind.KARMA for m in mechanisms):
        raise ParameterError(f"mechanisms must hold one or more baselines, got "
                             f"{[m.kind.value for m in mechanisms]}")
    rng = np.random.default_rng(config.rng_seed)
    tables = _UrgencyTables.build(process)
    u_dtype = np.min_scalar_type(process.n_levels - 1)
    pops = [_new_population(config, rng, karma=False, wins=mechanism.kind is MechanismKind.TURN,
                            u_dtype=u_dtype)
            for mechanism in mechanisms]
    return _measure(process, config, mechanisms, pops,
                    lambda: _baseline_round(pops, mechanisms, tables))
