"""Independent brute-force oracles the tests check the library against.

Everything here recomputes quantities from first principles with plain
loops and elementary arithmetic, deliberately avoiding the library's
vectorized code paths. numpy appears only as a calculator (matvec,
linear solve on oracle-built systems). Population-level quantities (bid
marginal, win probabilities, average payment) are hoisted once per
social state so oracle-built kernels stay affordable.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from karmabid import LpProblem, SocialState, UrgencyProcess


def pack(square: np.ndarray) -> np.ndarray:
    """Packed copy of a square [..., k, b] table: the entries b <= k in
    order of k, then b, as the library stores policy and Q tables."""
    ks, bs = np.tril_indices(square.shape[-1])
    return square[..., ks, bs]


def unpack(packed: np.ndarray, fill: float = 0.0) -> np.ndarray:
    """Square [..., k, b] copy of a packed table; entries b > k hold fill.

    Every oracle and test that indexes a policy or Q table by (u, k, b)
    goes through this.
    """
    width = packed.shape[-1]
    nk = (math.isqrt(8 * width + 1) - 1) // 2
    assert nk * (nk + 1) // 2 == width, f"{width} columns is no packed width"
    ks, bs = np.tril_indices(nk)
    square = np.full(packed.shape[:-1] + (nk, nk), fill)
    square[..., ks, bs] = packed
    return square


def outcome_probability(b: int, b_prime: int) -> float:
    """Probability that a bid of b wins against an opponent bid of b_prime:
    strictly higher bids win, strictly lower lose, ties are a fair coin."""
    if b < 0 or b_prime < 0:
        raise ValueError("bids must be nonnegative")
    if b > b_prime:
        return 1.0
    if b < b_prime:
        return 0.0
    return 0.5


def bid_marginal_oracle(social: SocialState) -> np.ndarray:
    nk = social.k_max + 1
    pi = unpack(social.pi)
    nu = np.zeros(nk)
    for u in range(social.n_levels):
        for k in range(nk):
            for b in range(nk):
                nu[b] += social.d[u, k] * pi[u, k, b]
    return nu


def win_prob_oracle(b: int, nu: np.ndarray) -> float:
    total = 0.0
    for b_prime in range(len(nu)):
        total += nu[b_prime] * outcome_probability(b, b_prime)
    return total


def _win_prob_table(nu: np.ndarray) -> list[float]:
    return [win_prob_oracle(b, nu) for b in range(len(nu))]


def average_payment_oracle(social: SocialState) -> float:
    nu = bid_marginal_oracle(social)
    win = _win_prob_table(nu)
    pi = unpack(social.pi)
    total = 0.0
    for u in range(social.n_levels):
        for k in range(social.k_max + 1):
            for b in range(k + 1):
                total += social.d[u, k] * pi[u, k, b] * win[b] * b
    return total


def sample_rows_oracle(rows: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """Inverse-CDF sample, one categorical row per draw: the number of
    cumulative sums strictly below the draw, clamped to the last column."""
    cdf = np.cumsum(rows, axis=1)
    idx = (draws[:, None] > cdf).sum(axis=1)
    return np.minimum(idx, rows.shape[1] - 1)


def karma_transition_oracle(k: int, b: int, o: int, p_bar: float, k_max: int) -> dict[int, float]:
    """Next-balance distribution after bidding b from balance k with
    outcome o (0 won, 1 lost): the winner pays b, everyone receives the
    floor or the ceiling of p_bar, and balances above k_max fold into it."""
    if b > k:
        raise ValueError(f"bid {b} exceeds karma balance {k}")
    if o not in (0, 1):
        raise ValueError(f"outcome must be 0 or 1, got {o}")
    low = math.floor(p_bar)
    high = math.ceil(p_bar)
    f_low = high - p_bar
    f_high = 1.0 - f_low
    paid = b if o == 0 else 0
    out: dict[int, float] = {}
    for received, frac in ((low, f_low), (high, f_high)):
        if frac == 0.0:
            continue
        nxt = min(k - paid + received, k_max)
        out[nxt] = out.get(nxt, 0.0) + frac
    return out


def _rho_oracle(
    process: UrgencyProcess,
    k_max: int,
    win: list[float],
    p_bar: float,
    u: int,
    k: int,
    b: int,
) -> np.ndarray:
    gamma = {0: win[b], 1: 1.0 - win[b]}
    rho = np.zeros((process.n_levels, k_max + 1))
    for o in (0, 1):
        kappa = karma_transition_oracle(k, b, o, p_bar, k_max)
        for k_next, k_mass in kappa.items():
            for u_next in range(process.n_levels):
                rho[u_next, k_next] += gamma[o] * k_mass * process.phi[o, u, u_next]
    return rho


def state_transition_oracle(
    process: UrgencyProcess, social: SocialState, u: int, k: int, b: int
) -> np.ndarray:
    """Triple sum over outcomes, redistribution branches, and next levels."""
    nu = bid_marginal_oracle(social)
    win = _win_prob_table(nu)
    p_bar = average_payment_oracle(social)
    return _rho_oracle(process, social.k_max, win, p_bar, u, k, b)


def rewards_oracle(process: UrgencyProcess, social: SocialState) -> np.ndarray:
    """Expected immediate reward per state under the shared policy."""
    nu = bid_marginal_oracle(social)
    win = _win_prob_table(nu)
    nk = social.k_max + 1
    pi = unpack(social.pi)
    reward = np.zeros((process.n_levels, nk))
    for u in range(process.n_levels):
        for k in range(nk):
            for b in range(k + 1):
                reward[u, k] += pi[u, k, b] * (-process.levels[u] * (1.0 - win[b]))
    return reward


def kernel_oracle(process: UrgencyProcess, social: SocialState) -> np.ndarray:
    """Policy-induced state kernel, built state by state."""
    nu = bid_marginal_oracle(social)
    win = _win_prob_table(nu)
    p_bar = average_payment_oracle(social)
    nk = social.k_max + 1
    n_u = process.n_levels
    pi = unpack(social.pi)
    size = n_u * nk
    kernel = np.zeros((size, size))
    for u in range(n_u):
        for k in range(nk):
            row = np.zeros((n_u, nk))
            for b in range(k + 1):
                if pi[u, k, b] == 0.0:
                    continue
                row += pi[u, k, b] * _rho_oracle(process, social.k_max, win, p_bar, u, k, b)
            kernel[u * nk + k] = row.ravel()
    return kernel


def value_iteration_oracle(
    reward: np.ndarray, kernel: np.ndarray, alpha: float, tol: float = 1e-13, max_iters: int = 200_000
) -> np.ndarray:
    """Successive approximation of V = R + alpha P V on an oracle-built system."""
    flat_r = reward.ravel()
    v = np.zeros_like(flat_r)
    for _ in range(max_iters):
        v_next = flat_r + alpha * (kernel @ v)
        if np.abs(v_next - v).max() <= tol:
            return v_next.reshape(reward.shape)
        v = v_next
    raise AssertionError("oracle value iteration did not converge")


def q_oracle(
    process: UrgencyProcess,
    social: SocialState,
    values: np.ndarray,
    alpha: float,
    u: int,
    k: int,
) -> np.ndarray:
    """One-step deviation values at a single state, expanded by loops."""
    nu = bid_marginal_oracle(social)
    win = _win_prob_table(nu)
    p_bar = average_payment_oracle(social)
    out = np.empty(k + 1)
    for b in range(k + 1):
        rho = _rho_oracle(process, social.k_max, win, p_bar, u, k, b)
        cont = 0.0
        for u_next in range(process.n_levels):
            for k_next in range(social.k_max + 1):
                cont += rho[u_next, k_next] * values[u_next, k_next]
        out[b] = -process.levels[u] * (1.0 - win[b]) + alpha * cont
    return out


def best_response_oracle(q: np.ndarray, temperature: float) -> np.ndarray:
    """Softmax over each state's feasible bids of a packed Q table, shifted
    by the state's maximum, one exponential at a time; packed like q."""
    square = unpack(q, fill=math.nan)
    n_u, n_k, n_b = square.shape
    pi = np.zeros(square.shape)
    for u in range(n_u):
        for k in range(n_k):
            row = {b: float(square[u, k, b]) for b in range(n_b) if not math.isnan(square[u, k, b])}
            top = max(row.values())
            weights = {b: math.exp((value - top) / temperature) for b, value in row.items()}
            total = sum(weights.values())
            for b, weight in weights.items():
                pi[u, k, b] = weight / total
    return pack(pi)


def exploitability_oracle(q: np.ndarray, pi: np.ndarray) -> float:
    """Largest gain of a state's best feasible bid over the policy's
    average, floored at zero; q and pi packed."""
    square, policy = unpack(q, fill=math.nan), unpack(pi)
    n_u, n_k, n_b = square.shape
    gain = 0.0
    for u in range(n_u):
        for k in range(n_k):
            row = {b: float(square[u, k, b]) for b in range(n_b) if not math.isnan(square[u, k, b])}
            current = sum(float(policy[u, k, b]) * value for b, value in row.items())
            gain = max(gain, max(row.values()) - current)
    return gain


def deviation_gains_oracle(
    process: UrgencyProcess, social: SocialState, alpha: float
) -> np.ndarray:
    """Best deterministic one-step improvement over the policy, per state.

    Rebuilds rewards, kernel, values, and Q entirely through the oracle
    path and returns max_b Q[u,k,b] - sum_b pi[b|u,k] Q[u,k,b].
    """
    reward = rewards_oracle(process, social)
    kernel = kernel_oracle(process, social)
    values = value_iteration_oracle(reward, kernel, alpha)
    nk = social.k_max + 1
    pi = unpack(social.pi)
    gains = np.zeros((process.n_levels, nk))
    for u in range(process.n_levels):
        for k in range(nk):
            q_row = q_oracle(process, social, values, alpha, u, k)
            policy_value = sum(pi[u, k, b] * q_row[b] for b in range(k + 1))
            gains[u, k] = q_row.max() - policy_value
    return gains


def power_iteration_oracle(
    kernel: np.ndarray, tol: float = 1e-13, max_iters: int = 200_000
) -> np.ndarray:
    """Stationary row vector of a stochastic kernel by repeated push-forward."""
    size = kernel.shape[0]
    dist = np.full(size, 1.0 / size)
    for _ in range(max_iters):
        pushed = dist @ kernel
        if np.abs(pushed - dist).max() <= tol:
            return pushed
        dist = pushed
    raise AssertionError("oracle power iteration did not converge")


def vertex_enumeration_lp(problem: LpProblem) -> tuple[float, np.ndarray]:
    """Maximize over all basic feasible solutions of the equality system."""
    A = np.asarray(problem.A, dtype=float)
    b = np.asarray(problem.b, dtype=float)
    c = np.asarray(problem.c, dtype=float)
    n = A.shape[1]

    rows: list[int] = []
    for i in range(A.shape[0]):
        candidate = rows + [i]
        if np.linalg.matrix_rank(A[candidate], tol=1e-11) == len(candidate):
            rows.append(i)
    A_r, b_r = A[rows], b[rows]
    m = len(rows)

    best_value = -np.inf
    best_x: np.ndarray | None = None
    for cols in itertools.combinations(range(n), m):
        basis = A_r[:, cols]
        if abs(np.linalg.det(basis)) < 1e-12:
            continue
        x_basic = np.linalg.solve(basis, b_r)
        if (x_basic < -1e-12).any():
            continue
        x = np.zeros(n)
        x[list(cols)] = x_basic
        value = float(c @ x)
        if value > best_value:
            best_value = value
            best_x = x
    if best_x is None:
        raise AssertionError("no basic feasible solution found")
    return best_value, best_x


def mixture_stationary_distribution(process: UrgencyProcess) -> np.ndarray:
    """Stationary urgency distribution when every agent wins half of its
    interactions, independent of state."""
    mix = 0.5 * process.phi[0] + 0.5 * process.phi[1]
    n = process.n_levels
    # Stationarity rows plus normalization; full column rank for an
    # irreducible chain, solved in the least-squares sense.
    stacked = np.vstack([mix.T - np.eye(n), np.ones((1, n))])
    target = np.zeros(n + 1)
    target[-1] = 1.0
    dist, *_ = np.linalg.lstsq(stacked, target, rcond=None)
    return dist


def random_long_run_reward(process: UrgencyProcess) -> float:
    """Long-run average reward per agent per interaction under RANDOM.

    At the even-coin stationary urgency distribution an agent loses half
    the time, paying its current urgency.
    """
    dist = mixture_stationary_distribution(process)
    return float(-(dist @ process.level_values) / 2.0)
