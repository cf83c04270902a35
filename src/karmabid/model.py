"""Primitives of the karma bidding game.

Each interaction pairs two agents who bid integer karma for a single
resource (a ride). An agent's private state is (urgency level, karma
balance). Urgency follows a finite Markov chain whose transition depends
on the interaction outcome: winning resets urgency to the lowest level,
losing escalates it one step (saturating at the top), with a small
uniform noise floor for off-pattern moves. The winner pays its bid into
a common pool that is redistributed across the whole population, so the
total karma supply is preserved.

Everything in this module is a pure function of the population's social
state (a distribution over private states plus the shared bidding
policy). The equilibrium solver and the finite-population simulator are
built on top of these functions.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

# Probability masses are compared with this absolute tolerance right
# after construction; they are renormalized only at construction time.
MASS_ATOL = 1e-10
ROW_SUM_ATOL = 1e-12

WIN = 0
LOSE = 1


class ParameterError(ValueError):
    """A constructor or operation received an invalid parameter."""


@dataclass
class UrgencyProcess:
    """Finite urgency chain with outcome-conditioned transitions.

    Attributes:
        levels: strictly increasing integer urgency values.
        phi: array of shape (2, n, n); phi[o][i][j] is the probability of
            moving from level i to level j given outcome o (0 = won the
            resource, 1 = yielded). Rows are stochastic.
        epsilon: off-pattern noise mass used when the chain was built
            from the standard reset/escalate pattern.
    """

    levels: tuple[int, ...]
    phi: np.ndarray
    epsilon: float

    def __post_init__(self) -> None:
        self.levels = tuple(int(v) for v in self.levels)
        self.phi = np.asarray(self.phi, dtype=float)
        n = len(self.levels)
        if n < 1:
            raise ParameterError("levels must be non-empty")
        if any(b <= a for a, b in zip(self.levels, self.levels[1:])):
            raise ParameterError(f"levels must be strictly increasing, got {self.levels}")
        if not 0.0 < self.epsilon < 1.0:
            raise ParameterError(f"epsilon must lie in (0, 1), got {self.epsilon}")
        if self.phi.shape != (2, n, n):
            raise ParameterError(
                f"phi must have shape (2, {n}, {n}), got {self.phi.shape}"
            )
        if (self.phi < 0).any():
            raise ParameterError("phi entries must be nonnegative")
        row_sums = self.phi.sum(axis=2)
        if not np.allclose(row_sums, 1.0, rtol=0.0, atol=ROW_SUM_ATOL):
            worst = float(np.abs(row_sums - 1.0).max())
            raise ParameterError(f"phi rows must sum to 1 (worst deviation {worst:.3e})")
        if not self._mixture_irreducible():
            raise ParameterError("urgency chain is not irreducible under even outcome mixing")

    def _mixture_irreducible(self) -> bool:
        # Reachability on the 0.5/0.5 outcome mixture: every level must be
        # able to reach every other one. Each boolean squaring doubles the
        # path length covered, and ceil(log2 n) of them cover the n - 1
        # steps the longest shortest path can need.
        n = self.n_levels
        reach = np.eye(n, dtype=bool) | ((self.phi[WIN] + self.phi[LOSE]) > 0)
        for _ in range((n - 1).bit_length()):
            reach = reach @ reach
        return bool(reach.all())

    @property
    def n_levels(self) -> int:
        return len(self.levels)

    @property
    def level_values(self) -> np.ndarray:
        return np.asarray(self.levels, dtype=float)


def build_urgency_process(levels, epsilon: float) -> UrgencyProcess:
    """Build the reset/escalate urgency chain from a noise level.

    Winning sends urgency to the lowest level with probability 1-epsilon;
    losing advances it one level (saturating at the top) with probability
    1-epsilon. All other destinations share the remaining epsilon mass
    uniformly.

    Args:
        levels: strictly increasing integer urgency values, at least two.
        epsilon: noise mass in (0, 1).

    Raises:
        ParameterError: for non-increasing levels, fewer than two levels,
            or epsilon outside (0, 1).
    """
    levels = tuple(int(v) for v in levels)
    n = len(levels)
    if n < 2:
        raise ParameterError("need at least two urgency levels to build the standard chain")
    if any(b <= a for a, b in zip(levels, levels[1:])):
        raise ParameterError(f"levels must be strictly increasing, got {levels}")
    if not 0.0 < epsilon < 1.0:
        raise ParameterError(f"epsilon must lie in (0, 1), got {epsilon}")
    off = epsilon / (n - 1)
    phi = np.full((2, n, n), off)
    phi[WIN, :, 0] = 1.0 - epsilon
    for i in range(n):
        phi[LOSE, i, min(i + 1, n - 1)] = 1.0 - epsilon
    return UrgencyProcess(levels=levels, phi=phi, epsilon=epsilon)


@dataclass
class AgentState:
    """Private state of one agent: urgency level index and karma balance."""

    u: int
    k: int

    def __post_init__(self) -> None:
        if self.u < 0:
            raise ParameterError(f"urgency index must be nonnegative, got {self.u}")
        if self.k < 0:
            raise ParameterError(f"karma must be nonnegative, got {self.k}")


@dataclass
class SocialState:
    """Macroscopic description of the population.

    Attributes:
        d: joint probability mass over (urgency index, karma) with karma
            truncated to {0, ..., k_max}; shape (n_levels, k_max + 1).
        pi: shared bidding policy; pi[u, k, b] is the probability of
            bidding b in state (u, k), zero for b > k; shape
            (n_levels, k_max + 1, k_max + 1).

    Masses are validated against MASS_ATOL and renormalized exactly once,
    here at construction; no operation renormalizes silently.
    """

    d: np.ndarray
    pi: np.ndarray

    def __post_init__(self) -> None:
        self.d = np.asarray(self.d, dtype=float)
        self.pi = np.asarray(self.pi, dtype=float)
        if self.d.ndim != 2:
            raise ParameterError(f"d must be 2-d (levels x karma), got shape {self.d.shape}")
        n_u, nk = self.d.shape
        if self.pi.shape != (n_u, nk, nk):
            raise ParameterError(
                f"pi must have shape ({n_u}, {nk}, {nk}), got {self.pi.shape}"
            )
        if self.d.min(initial=0.0) < 0 or self.pi.min(initial=0.0) < 0:
            raise ParameterError("masses must be nonnegative")
        total = float(self.d.sum())
        if abs(total - 1.0) > MASS_ATOL:
            raise ParameterError(f"d must sum to 1 within {MASS_ATOL}, got {total!r}")
        feas = feasible_bids(nk - 1)
        if self.pi.max(initial=0.0, where=~feas) > MASS_ATOL:
            raise ParameterError("pi puts mass on bids above the karma balance")
        # The one copy of pi: the caller's array is never written.
        self.pi = np.where(feas, self.pi, 0.0)
        row_sums = self.pi.sum(axis=2)
        worst = float(np.abs(row_sums - 1.0).max())
        if not worst <= MASS_ATOL:  # also rejects a NaN row sum
            raise ParameterError(f"pi rows must sum to 1 within {MASS_ATOL} (worst {worst:.3e})")
        self.d = self.d / total
        self.pi /= row_sums[:, :, None]

    @property
    def n_levels(self) -> int:
        return self.d.shape[0]

    @property
    def k_max(self) -> int:
        return self.d.shape[1] - 1

    @property
    def mean_karma(self) -> float:
        return float(self.d.sum(axis=0) @ np.arange(self.d.shape[1]))


@dataclass
class GameConfig:
    """Scalar parameters of the game and the population experiment."""

    alpha: float = 0.98
    epsilon: float = 0.04
    k_bar: int = 10
    k_max: int = 40
    n_agents: int = 1000
    n_rounds: int = 1000
    burn_in: int = 100
    rng_seed: int = 20250809

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha < 1.0:
            raise ParameterError(f"alpha must lie in [0, 1), got {self.alpha}")
        if not 0.0 < self.epsilon < 1.0:
            raise ParameterError(f"epsilon must lie in (0, 1), got {self.epsilon}")
        if self.k_bar < 0:
            raise ParameterError(f"k_bar must be nonnegative, got {self.k_bar}")
        if self.k_max <= self.k_bar:
            raise ParameterError(f"k_max must exceed k_bar, got k_max={self.k_max} k_bar={self.k_bar}")
        if self.k_max < 2 * self.k_bar:
            raise ParameterError(
                f"k_max must be at least 2*k_bar to leave truncation headroom, "
                f"got k_max={self.k_max} k_bar={self.k_bar}"
            )
        if self.n_agents <= 0:
            raise ParameterError(f"n_agents must be positive, got {self.n_agents}")
        if self.n_rounds <= 0:
            raise ParameterError(f"n_rounds must be positive, got {self.n_rounds}")
        if self.burn_in < 0:
            raise ParameterError(f"burn_in must be nonnegative, got {self.burn_in}")
        if self.rng_seed < 0:
            raise ParameterError(f"rng_seed must be nonnegative, got {self.rng_seed}")


@functools.lru_cache(maxsize=8)
def feasible_bids(k_max: int) -> np.ndarray:
    """Boolean mask of shape (k_max+1, k_max+1); entry [k, b] is b <= k.

    Built once per k_max and shared, so it is read-only.
    """
    mask = np.tril(np.ones((k_max + 1, k_max + 1), dtype=bool))
    mask.flags.writeable = False
    return mask


def outcome_probability(b: int, b_prime: int) -> float:
    """Probability that a bid of b wins against an opponent bid of b_prime.

    Strictly higher bids win, strictly lower lose, ties are a fair coin.
    """
    if b < 0 or b_prime < 0:
        raise ParameterError("bids must be nonnegative")
    if b > b_prime:
        return 1.0
    if b < b_prime:
        return 0.0
    return 0.5


def bid_marginal(social: SocialState) -> np.ndarray:
    """Population bid distribution: nu[b] = sum_{u,k} d[u,k] pi[b|u,k]."""
    return np.einsum("uk,ukb->b", social.d, social.pi)


def win_prob_all_bids(nu: np.ndarray) -> np.ndarray:
    """Win probability for every bid against an opponent drawn from nu.

    gamma0[b] = sum_{b' < b} nu[b'] + 0.5 * nu[b].
    """
    nu = np.asarray(nu, dtype=float)
    below = np.concatenate(([0.0], np.cumsum(nu)[:-1]))
    return below + 0.5 * nu


def outcome_distribution(b: int, nu: np.ndarray) -> np.ndarray:
    """Outcome distribution [p_win, p_yield] for bid b against bid marginal nu.

    Bids beyond the support of nu win with certainty.
    """
    nu = np.asarray(nu, dtype=float)
    if b < 0:
        raise ParameterError("bid must be nonnegative")
    if b >= nu.shape[0]:
        gamma0 = float(nu.sum())
    else:
        gamma0 = float(win_prob_all_bids(nu)[b])
    return np.array([gamma0, 1.0 - gamma0])


def immediate_reward(u_value: float, gamma: np.ndarray) -> float:
    """Expected one-round reward: zero on winning, -u_value on yielding."""
    return -float(u_value) * float(gamma[LOSE])


def average_payment(social: SocialState, nu: np.ndarray | None = None) -> float:
    """Population-average payment collected per interaction.

    Each agent pays its bid when it wins, nothing otherwise; the average
    of gamma0[b] * b over the social state, sum_b nu[b] gamma0[b] b, is
    the per-capita pool that gets redistributed. nu is the social state's
    bid marginal, for a caller that already has it.
    """
    nu = bid_marginal(social) if nu is None else nu
    return float(nu @ (win_prob_all_bids(nu) * np.arange(nu.shape[0])))


def redistribution_split(p_bar: float) -> tuple[int, int, float, float]:
    """Integer split of the average payment.

    Returns (low, high, f_low, f_high): a fraction f_low of agents
    receives the floor of p_bar, the rest receive the ceiling, so the
    expectation equals p_bar exactly. For integral p_bar the two branches
    coincide and f_low is zero.
    """
    if p_bar < 0:
        raise ParameterError(f"average payment must be nonnegative, got {p_bar}")
    low = int(np.floor(p_bar))
    high = int(np.ceil(p_bar))
    f_low = float(high - p_bar)
    return low, high, f_low, 1.0 - f_low


def karma_transition(k: int, b: int, o: int, p_bar: float, k_max: int) -> dict[int, float]:
    """Distribution of the next karma balance after one interaction.

    Winners pay their bid; everyone receives the floor or ceiling of the
    average payment with the fractions from redistribution_split. Mass
    that would land above k_max is reassigned to k_max.

    Args:
        k: current balance.
        b: bid placed (must not exceed k).
        o: outcome, 0 = won, 1 = yielded.
        p_bar: population-average payment.
        k_max: truncation bound of the karma state space.

    Returns:
        Mapping from next balance to probability (one or two entries).
    """
    if b > k:
        raise ParameterError(f"bid {b} exceeds karma balance {k}")
    if o not in (WIN, LOSE):
        raise ParameterError(f"outcome must be 0 or 1, got {o}")
    low, high, f_low, f_high = redistribution_split(p_bar)
    paid = b if o == WIN else 0
    out: dict[int, float] = {}
    for received, frac in ((low, f_low), (high, f_high)):
        if frac == 0.0:
            continue
        nxt = min(k - paid + received, k_max)
        out[nxt] = out.get(nxt, 0.0) + frac
    return out


def state_transition(
    process: UrgencyProcess, social: SocialState, u: int, k: int, b: int
) -> np.ndarray:
    """Joint distribution of the next (urgency, karma) state after bidding b.

    Mixes the karma transition and the urgency chain over the two possible
    outcomes of the interaction. Returns an array of shape
    (n_levels, k_max + 1).
    """
    if b > k:
        raise ParameterError(f"bid {b} exceeds karma balance {k}")
    nu = bid_marginal(social)
    gamma = outcome_distribution(b, nu)
    p_bar = average_payment(social)
    k_max = social.k_max
    rho = np.zeros((process.n_levels, k_max + 1))
    for o in (WIN, LOSE):
        kappa = karma_transition(k, b, o, p_bar, k_max)
        for k_next, mass in kappa.items():
            rho[:, k_next] += gamma[o] * mass * process.phi[o, u, :]
    return rho
