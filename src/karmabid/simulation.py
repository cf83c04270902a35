"""Finite-population experiment with integer-exact karma accounting.

Every round the N agents are partitioned into N/2 pairs by a uniformly
random perfect matching; the mechanism picks one winner per pair; losers
collect a reward of minus their current urgency, winners collect zero.
Under the karma mechanism winners pay their sampled bid into a pool that
is redistributed integer-exactly: everyone receives floor(pool / N) and
a uniformly chosen set of (pool mod N) agents receives one extra unit,
so the total karma supply never changes. Urgencies then transition on
the outcome-conditioned chain.

Bids and urgency transitions are exact inverse-CDF samples: each draw
is located in its agent's row of a cumulative table by a vectorised
binary search. The bid table (the policy's cumulative sums over bids)
is built once per Mechanism, so a round builds no per-agent row table.

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
from .model import GameConfig, ParameterError, UrgencyProcess


class MechanismKind(str, Enum):
    KARMA = "KARMA"
    RANDOM = "RANDOM"
    TURN = "TURN"
    GREEDY_URGENCY = "GREEDY_URGENCY"


@dataclass
class Mechanism:
    """Allocation rule driving the experiment.

    KARMA needs the bidding policy of a converged equilibrium; the other
    kinds carry no extra state here (TURN counters live on the
    population). bid_cdf is derived once from the policy: row
    u * (k_max + 1) + k holds the cumulative bid probabilities of an
    agent at urgency u with balance k.
    """

    kind: MechanismKind
    policy: Optional[np.ndarray] = None
    bid_cdf: Optional[np.ndarray] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.kind is MechanismKind.KARMA:
            if self.policy is None:
                raise ParameterError("KARMA mechanism requires a bidding policy")
            self.policy = np.asarray(self.policy, dtype=float)
            if self.policy.ndim != 3 or self.policy.shape[1] != self.policy.shape[2]:
                raise ParameterError(f"policy must be (levels, k+1, k+1), got {self.policy.shape}")
            nk = self.policy.shape[2]
            self.bid_cdf = np.cumsum(self.policy, axis=2).reshape(-1, nk)
        elif self.policy is not None:
            raise ParameterError(f"{self.kind.value} does not take a policy")

    @classmethod
    def karma(cls, equilibrium: EquilibriumResult) -> "Mechanism":
        if not equilibrium.converged:
            raise ParameterError("KARMA requires a converged equilibrium policy")
        return cls(kind=MechanismKind.KARMA, policy=equilibrium.social.pi)

    @classmethod
    def random(cls) -> "Mechanism":
        return cls(kind=MechanismKind.RANDOM)

    @classmethod
    def turn(cls) -> "Mechanism":
        return cls(kind=MechanismKind.TURN)

    @classmethod
    def greedy_urgency(cls) -> "Mechanism":
        return cls(kind=MechanismKind.GREEDY_URGENCY)


@dataclass
class Population:
    """State of the N simulated agents, stored as parallel arrays."""

    u: np.ndarray
    karma: np.ndarray
    wins: np.ndarray
    reward_sums: np.ndarray
    rng: np.random.Generator

    @property
    def n(self) -> int:
        return self.u.shape[0]

    def total_karma(self) -> int:
        return int(self.karma.sum())


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
    lp_bound: Optional[float] = None

    def to_dict(self) -> dict:
        out = {
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
        if self.lp_bound is not None:
            out["lp_bound"] = float(self.lp_bound)
        return out


def initialize_population(config: GameConfig, mechanism: Mechanism) -> Population:
    """Fresh population: everyone at the lowest urgency with exactly k_bar
    karma (total N * k_bar), counters zeroed, generator seeded."""
    n = config.n_agents
    if n % 2 != 0:
        raise ParameterError(f"n_agents must be even for pairwise matching, got {n}")
    if mechanism.kind is MechanismKind.KARMA and mechanism.policy is None:
        raise ParameterError("KARMA mechanism requires a bidding policy")
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


def _pick_winners(
    pop: Population,
    mechanism: Mechanism,
    first: np.ndarray,
    second: np.ndarray,
    coin_first: np.ndarray,
    bids: Optional[np.ndarray],
) -> np.ndarray:
    """Per pair, True if the first agent wins."""
    if mechanism.kind is MechanismKind.KARMA:
        bf, bs = bids[first], bids[second]
        return np.where(bf == bs, coin_first, bf > bs)
    if mechanism.kind is MechanismKind.RANDOM:
        return coin_first
    if mechanism.kind is MechanismKind.TURN:
        # Everyone plays every round, so all win fractions share one
        # denominator and comparing win counts gives the same decisions.
        wf, ws = pop.wins[first], pop.wins[second]
        return np.where(wf == ws, coin_first, wf < ws)
    if mechanism.kind is MechanismKind.GREEDY_URGENCY:
        uf, us = pop.u[first], pop.u[second]
        return np.where(uf == us, coin_first, uf > us)
    raise ParameterError(f"unknown mechanism kind {mechanism.kind!r}")


def run_round(pop: Population, process: UrgencyProcess, mechanism: Mechanism) -> np.ndarray:
    """Play one full round in place and return the per-agent rewards.

    Draw order is fixed: matching permutation, tie coins, karma bid
    draws, redistribution picks, urgency draws. Payments and
    redistribution are integer-exact, so the karma total is conserved to
    the unit.
    """
    n = pop.n
    rng = pop.rng
    perm = rng.permutation(n)
    first, second = perm[0::2], perm[1::2]
    coin_first = rng.random(n // 2) < 0.5

    bids: Optional[np.ndarray] = None
    if mechanism.kind is MechanismKind.KARMA:
        nk = mechanism.policy.shape[1]
        state = pop.u * nk + np.minimum(pop.karma, nk - 1)
        bids = _sample_cdf(mechanism.bid_cdf, state, rng.random(n))
        # Balances above the policy truncation look like k_max to the
        # policy but the bid must never exceed the true balance.
        bids = np.minimum(bids, pop.karma)

    first_wins = _pick_winners(pop, mechanism, first, second, coin_first, bids)
    winners = np.where(first_wins, first, second)
    losers = np.where(first_wins, second, first)

    rewards = np.zeros(n)
    level_values = np.asarray(process.levels, dtype=float)
    rewards[losers] = -level_values[pop.u[losers]]

    if mechanism.kind is MechanismKind.KARMA:
        paid = bids[winners]
        pop.karma[winners] -= paid
        pool = int(paid.sum())
        share, extra = divmod(pool, n)
        pop.karma += share
        if extra:
            lucky = rng.choice(n, size=extra, replace=False)
            pop.karma[lucky] += 1

    pop.wins[winners] += 1

    # urgency state outcome * n_levels + u, outcome 0 for winners
    n_levels = process.n_levels
    state = pop.u + n_levels
    state[winners] -= n_levels
    urgency_cdf = np.cumsum(process.phi, axis=2).reshape(-1, n_levels)
    pop.u = _sample_cdf(urgency_cdf, state, rng.random(n))

    pop.reward_sums += rewards
    return rewards


def run_experiment(
    process: UrgencyProcess, config: GameConfig, mechanism: Mechanism
) -> MetricsReport:
    """Run burn-in plus n_rounds measured rounds and compute the metrics.

    The burn-in rounds are excluded from every metric. Deterministic for
    identical (process, config, mechanism).
    """
    pop = initialize_population(config, mechanism)
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


def _fmt(value: float) -> str:
    return repr(float(value))


def write_trace_csv(path: Path | str, report: MetricsReport) -> None:
    """Per-round trace: mean reward, running average, and (karma runs)
    the karma histogram columns."""
    k_cols = (
        [f"karma_{k}" for k in range(report.karma_histograms.shape[1])]
        if report.karma_histograms is not None
        else []
    )
    lines = [",".join(["round", "mean_reward", "running_mean_reward"] + k_cols)]
    running = np.cumsum(report.round_mean_rewards) / np.arange(1, report.n_rounds + 1)
    for t in range(report.n_rounds):
        cells = [str(t + 1), _fmt(report.round_mean_rewards[t]), _fmt(running[t])]
        if report.karma_histograms is not None:
            cells.extend(str(int(c)) for c in report.karma_histograms[t])
        lines.append(",".join(cells))
    Path(path).write_text("\n".join(lines) + "\n")
