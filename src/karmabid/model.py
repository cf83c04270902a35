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

import dataclasses
import functools
import math
import numbers
import sys
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


def check_number(name: str, value, integer: bool = False):
    """value, or a ParameterError naming the field unless value is a finite
    real number, not a bool, and for an integer field an int, not a float."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ParameterError(f"{name} must be {'an integer' if integer else 'a number'}, got {value!r}")
    # Also false for NaN, and for an int too large to convert to a float.
    if not abs(value) <= sys.float_info.max:
        raise ParameterError(f"{name} must be finite, got {value!r}")
    if integer and not isinstance(value, numbers.Integral):
        raise ParameterError(f"{name} must be an integer, got {value!r}")
    return value


def check_fields(obj) -> None:
    """check_number on every field of the dataclass obj; one annotated int must hold an int."""
    for field in dataclasses.fields(obj):
        check_number(field.name, getattr(obj, field.name), field.type in ("int", int))


def check_epsilon(epsilon) -> None:
    """The urgency noise rule: epsilon must be a number in (0, 1)."""
    check_number("epsilon", epsilon)
    if not 0.0 < epsilon < 1.0:
        raise ParameterError(f"epsilon must lie in (0, 1), got {epsilon}")


@dataclass
class UrgencyProcess:
    """Finite urgency chain with outcome-conditioned transitions.

    Attributes:
        levels: strictly increasing integer urgency values.
        phi: array of shape (2, n, n); phi[o][i][j] is the probability of
            moving from level i to level j given outcome o (0 = won the
            resource, 1 = yielded). Rows are stochastic.
    """

    levels: tuple[int, ...]
    phi: np.ndarray

    def __post_init__(self) -> None:
        self.levels = tuple(int(check_number(f"levels[{i}]", v, integer=True))
                            for i, v in enumerate(self.levels))
        self.phi = np.asarray(self.phi, dtype=float)
        n = len(self.levels)
        if n < 1:
            raise ParameterError("levels must be non-empty")
        if any(b <= a for a, b in zip(self.levels, self.levels[1:])):
            raise ParameterError(f"levels must be strictly increasing, got {self.levels}")
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
        if not self._mixture_links_all(n - 1, stay=True):
            raise ParameterError("urgency chain is not irreducible under even outcome mixing")

    @property
    def aperiodic(self) -> bool:
        """Whether the 0.5/0.5 outcome mixture is aperiodic. By Wielandt's
        bound, an irreducible chain on n levels is aperiodic iff it links
        every pair of levels by paths of exactly (n - 1)^2 + 1 steps."""
        return self._mixture_links_all((self.n_levels - 1) ** 2 + 1, stay=False)

    def _mixture_links_all(self, steps: int, stay: bool) -> bool:
        # Whether every level reaches every level on the 0.5/0.5 outcome
        # mixture by paths of exactly 2^j steps (with stay: at most 2^j), for
        # the least 2^j >= steps; each boolean squaring doubles the length.
        reach = (self.phi[WIN] + self.phi[LOSE]) > 0
        reach |= np.eye(self.n_levels, dtype=bool) & stay
        for _ in range((steps - 1).bit_length()):
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
        ParameterError: for fewer than two levels, non-integer or
            non-increasing levels, or epsilon outside (0, 1).
    """
    check_epsilon(epsilon)
    n = len(levels)
    if n < 2:
        raise ParameterError("need at least two urgency levels to build the standard chain")
    # UrgencyProcess checks the levels before it reads phi.
    off = epsilon / (n - 1)
    phi = np.full((2, n, n), off)
    phi[WIN, :, 0] = 1.0 - epsilon
    for i in range(n):
        phi[LOSE, i, min(i + 1, n - 1)] = 1.0 - epsilon
    return UrgencyProcess(levels=levels, phi=phi)


@dataclass
class SocialState:
    """Macroscopic description of the population.

    Attributes:
        d: joint probability mass over (urgency index, karma) with karma
            truncated to {0, ..., k_max}; shape (n_levels, k_max + 1).
        pi: shared bidding policy over the feasible bids only, packed;
            shape (n_levels, (k_max + 1)(k_max + 2) / 2). Row u lists, for
            each balance k in order, the probabilities of bidding
            b = 0, ..., k in state (u, k) (see bid_layout), the row order
            of policy.csv. A bid above the balance has no entry.

    Masses are validated against MASS_ATOL (pi by policy_row_sums) and
    renormalized exactly once, here at construction, into new arrays; no
    operation renormalizes silently.
    """

    d: np.ndarray
    pi: np.ndarray

    def __post_init__(self) -> None:
        self.d = np.asarray(self.d, dtype=float)
        self.pi = np.asarray(self.pi, dtype=float)
        if self.d.ndim != 2:
            raise ParameterError(f"d must be 2-d (levels x karma), got shape {self.d.shape}")
        n_u, nk = self.d.shape
        width = nk * (nk + 1) // 2
        if self.pi.shape != (n_u, width):
            raise ParameterError(
                f"pi must have shape ({n_u}, {width}), one entry per feasible bid, "
                f"got {self.pi.shape}"
            )
        # Written as `not ... <=` so that a NaN fails it too.
        if not 0.0 <= self.d.min(initial=0.0):
            raise ParameterError("d masses must be nonnegative and not NaN")
        total = float(self.d.sum())
        if not abs(total - 1.0) <= MASS_ATOL:
            raise ParameterError(f"d must sum to 1 within {MASS_ATOL}, got {total!r}")
        row_sums = policy_row_sums(self.pi, nk - 1)
        self.d = self.d / total
        self.pi = self.pi / per_bid(row_sums)

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
    k_bar: int = 10
    k_max: int = 40
    n_agents: int = 1000
    n_rounds: int = 1000
    burn_in: int = 100
    rng_seed: int = 20250809

    def __post_init__(self) -> None:
        check_fields(self)
        if not 0.0 <= self.alpha < 1.0:
            raise ParameterError(f"alpha must lie in [0, 1), got {self.alpha}")
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
        if self.n_agents % 2 != 0:
            raise ParameterError(f"n_agents must be even for pairwise matching, got {self.n_agents}")
        if self.n_rounds <= 0:
            raise ParameterError(f"n_rounds must be positive, got {self.n_rounds}")
        if self.burn_in < 0:
            raise ParameterError(f"burn_in must be nonnegative, got {self.burn_in}")
        if self.rng_seed < 0:
            raise ParameterError(f"rng_seed must be nonnegative, got {self.rng_seed}")


@functools.lru_cache(maxsize=8)
def bid_layout(k_max: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Layout of the packed tables over the feasible bids b <= k <= k_max.

    Returns (starts, balance, bid). Entry t of a packed row belongs to
    balance balance[t] and bid bid[t], ordered by balance and then by
    bid; the bids of balance k fill entries starts[k] = k (k + 1) / 2 to
    starts[k] + k, so np.ufunc.reduceat at starts reduces over each
    state's bids. Built once per k_max and shared, so read-only.
    """
    nk = k_max + 1
    ks = np.arange(nk)
    starts = ks * (ks + 1) // 2
    balance = np.repeat(ks, ks + 1)
    bid = np.arange(balance.size) - starts[balance]
    for table in (starts, balance, bid):
        table.flags.writeable = False
    return starts, balance, bid


def per_bid(values: np.ndarray) -> np.ndarray:
    """Per-state values (..., k_max + 1) repeated over each balance's
    feasible bids, giving a packed table (..., (k_max+1)(k_max+2)/2)."""
    return np.repeat(values, np.arange(1, values.shape[-1] + 1), axis=-1)


def packed_k_max(width: int, name: str) -> int:
    """The k_max of a packed table with width columns, (k_max+1)(k_max+2)/2.

    Raises:
        ParameterError: naming the table if no k_max >= 0 has that width.
    """
    nk = (math.isqrt(8 * width + 1) - 1) // 2
    if nk < 1 or nk * (nk + 1) // 2 != width:
        raise ParameterError(
            f"{name} must have (k_max+1)(k_max+2)/2 columns for some k_max >= 0, got {width}")
    return nk - 1


def policy_row_sums(pi: np.ndarray, k_max: int) -> np.ndarray:
    """Per-state sums (levels, k_max + 1) of the packed policy pi, or a
    ParameterError naming the rule pi breaks: it must be finite and
    nonnegative, and each state's bids must sum to 1 within MASS_ATOL."""
    # NaN propagates into both reductions and infinities reach one.
    lowest, highest = pi.min(initial=0.0), pi.max(initial=0.0)
    if not (math.isfinite(lowest) and math.isfinite(highest)):
        raise ParameterError("policy entries must be finite, not NaN or infinite")
    if lowest < 0:
        raise ParameterError("policy entries must be nonnegative")
    sums = np.add.reduceat(pi, bid_layout(k_max)[0], axis=1)
    worst = float(np.abs(sums - 1.0).max(initial=0.0))
    if worst > MASS_ATOL:
        raise ParameterError(f"policy rows must sum to 1 within {MASS_ATOL} (worst {worst:.3e})")
    return sums


def bid_marginal(social: SocialState) -> np.ndarray:
    """Population bid distribution: nu[b] = sum_{u,k} d[u,k] pi[b|u,k]."""
    mass = np.einsum("ut,ut->t", per_bid(social.d), social.pi)
    return np.bincount(bid_layout(social.k_max)[2], mass, minlength=social.k_max + 1)


def win_prob_all_bids(nu: np.ndarray) -> np.ndarray:
    """Win probability for every bid against an opponent drawn from nu.

    gamma0[b] = sum_{b' < b} nu[b'] + 0.5 * nu[b].
    """
    nu = np.asarray(nu, dtype=float)
    below = np.concatenate(([0.0], np.cumsum(nu)[:-1]))
    return below + 0.5 * nu
