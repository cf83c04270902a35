"""Stationary equilibrium solver for the mean-field bidding game.

A stationary Nash equilibrium is a social state (d, pi) where d is
stationary under the population dynamics induced by pi and pi is a best
response to the values it generates at every private state. The solver
alternates policy evaluation, a temperature-smoothed best response, and
damped push-forward of the state distribution, annealing the temperature
until both the exploitability and the stationarity residual pass their
tolerances.

The state transition kernel is never formed as an S x S array. A
TransitionOperator, built once per policy evaluation, applies P (for the
value solve and for Q) and its push-forward d P through the karma
landing indices. The values come from restarted GMRES, which solve_sne
warm-starts by extrapolating the previous iterations' V.

Layout conventions: private states are (urgency index u, karma k) with
karma truncated to {0, ..., k_max}; flat state index is u * (k_max+1) + k.
Value arrays are (n_levels, k_max+1); the policy and Q tables are
(n_levels, k_max+1, k_max+1) indexed [u, k, b], with entries for b > k
zeroed (policy) or NaN (Q).
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from .model import (
    GameConfig,
    ParameterError,
    SocialState,
    UrgencyProcess,
    average_payment,
    bid_marginal,
    redistribution_split,
    win_prob_all_bids,
)


# Krylov basis size of one GMRES cycle, and the cap on operator
# applications in one value solve. On the case-study game at k_max = 160
# shorter cycles stall (30 steps per cycle took up to 680 steps in all,
# 20 did not converge); 100 covers the longest solve seen, 66 steps at
# k_max = 160 and 89 at k_max = 320, without a restart. A solve that hits
# the cap falls through to the sup-norm residual check and its SolverError.
_GMRES_RESTART = 100
_GMRES_MAX_MATVECS = 3000


class SolverError(RuntimeError):
    """Raised when a value computation fails to meet its residual contract."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


@dataclass
class SolverConfig:
    """Knobs of the equilibrium iteration.

    br_temperature is the initial softmax temperature of the perturbed
    best response; it decays multiplicatively each outer iteration down
    to temperature_floor. step_size damps both the policy and the
    distribution updates.
    """

    br_temperature: float = 2.0
    temperature_decay: float = 0.97
    temperature_floor: float = 1e-5
    step_size: float = 0.2
    tol_policy: float = 1e-4
    tol_distribution: float = 1e-6
    tol_value: float = 1e-9
    max_outer_iters: int = 2000

    def __post_init__(self) -> None:
        for name in ("br_temperature", "temperature_decay", "temperature_floor",
                     "step_size", "tol_policy", "tol_distribution", "tol_value"):
            if getattr(self, name) <= 0:
                raise ParameterError(f"{name} must be positive, got {getattr(self, name)}")
        if self.step_size > 1.0:
            raise ParameterError(f"step_size must lie in (0, 1], got {self.step_size}")
        if self.temperature_decay > 1.0:
            raise ParameterError(f"temperature_decay must lie in (0, 1], got {self.temperature_decay}")
        if self.max_outer_iters < 1:
            raise ParameterError(f"max_outer_iters must be positive, got {self.max_outer_iters}")


@dataclass
class ValueTables:
    """Value quantities of one policy-evaluation pass.

    V: expected discounted reward per (u, k).
    R: expected immediate reward per (u, k).
    transitions: matrix-free transition operator of the evaluated social
       state; q_function and the push-forward in solve_sne reuse it.
    matvecs: applications of P spent on V, the final residual check
       included.
    inner_iterations: GMRES (Arnoldi) steps spent on V.
    Q: one-step deviation values per (u, k, b), NaN for b > k; filled in
       by q_function.
    """

    V: np.ndarray
    R: np.ndarray
    transitions: TransitionOperator = dataclasses.field(repr=False)
    matvecs: int = 0
    inner_iterations: int = 0
    Q: np.ndarray | None = None


@dataclass
class EquilibriumResult:
    """Converged (or best-effort) social state with diagnostics.

    residuals has one row per outer iteration with columns
    (stationarity residual in total variation, exploitability), both
    measured on the social state entering that iteration. value_matvecs
    counts the applications of P over all value solves, and
    max_inner_iterations is the most GMRES steps one value solve took.
    timings holds the wall seconds spent in each stage of the iterations:
    solve_value_seconds (policy evaluation), solve_q_seconds (Q table and
    exploitability), solve_best_response_seconds and solve_update_seconds
    (push-forward, residual and the damped updates). They vary from run
    to run, so summary() leaves them out.
    """

    social: SocialState
    values: ValueTables
    residuals: np.ndarray
    converged: bool
    iterations: int
    value_matvecs: int = 0
    max_inner_iterations: int = 0
    timings: dict[str, float] = dataclasses.field(default_factory=dict)

    @property
    def exploitability(self) -> float:
        return float(self.residuals[-1, 1])

    @property
    def stationarity_residual(self) -> float:
        return float(self.residuals[-1, 0])

    def summary(self) -> dict:
        return {
            "converged": bool(self.converged),
            "iterations": int(self.iterations),
            "exploitability": self.exploitability,
            "stationarity_residual": self.stationarity_residual,
            "mean_karma": self.social.mean_karma,
            "value_matvecs": int(self.value_matvecs),
            "max_inner_iterations": int(self.max_inner_iterations),
        }


def initial_social_state(process: UrgencyProcess, config: GameConfig) -> SocialState:
    """Unbiased starting point: urgency uniform, karma point mass at k_bar
    (so the mean karma equals k_bar exactly), policy uniform over feasible bids."""
    n_u = process.n_levels
    nk = config.k_max + 1
    d = np.zeros((n_u, nk))
    d[:, config.k_bar] = 1.0 / n_u
    pi = np.zeros((n_u, nk, nk))
    for k in range(nk):
        pi[:, k, : k + 1] = 1.0 / (k + 1)
    return SocialState(d=d, pi=pi)


class TransitionOperator:
    """State transition kernel P induced by a social state, never formed densely.

    A move splits into a payment and a redistribution. A winner bidding b
    from balance k keeps j = k - b, a loser keeps j = k; then the urgency
    moves by phi[outcome] and the balance moves from j to j + low or
    j + high (fractions f_low, f_high), with overflow above k_max folded
    into k_max, so every row of P sums to one. karma_win[u, k, j] is the
    probability of winning and keeping j, lose_weight[u, k] that of
    losing. Applying P or its push-forward costs O(n_u k_max^2), against
    O(S^2) for the dense S x S kernel.
    """

    def __init__(self, process: UrgencyProcess, social: SocialState):
        n_u, nk = social.d.shape
        self.phi = process.phi
        nu = bid_marginal(social)
        self.gamma0 = win_prob_all_bids(nu)
        self.gamma1 = 1.0 - self.gamma0
        low, high, self.f_low, self.f_high = redistribution_split(average_payment(social, nu))
        ks = np.arange(nk)
        # Both redistribution branches in one table: balance j lands on
        # landing[j] with weight f_low and on landing[nk + j] with f_high.
        self.landing = np.minimum(np.concatenate([ks + low, ks + high]), nk - 1)
        self.landing_weight = np.repeat([self.f_low, self.f_high], nk)
        self.lo, self.hi = self.landing[:nk], self.landing[nk:]
        complement, flat, _ = _bid_tables(nk)
        self.karma_win = social.pi.reshape(n_u, nk * nk).take(flat, axis=1, mode="clip")
        self.karma_win = self.karma_win.reshape(n_u, nk, nk)
        self.karma_win *= self.gamma0[complement]
        self.lose_weight = social.pi @ self.gamma1

    def continuation(self, values: np.ndarray) -> np.ndarray:
        """z[o, u, j]: expected V(u', k') after outcome o from urgency u with
        balance j before redistribution; values shaped (n_u, k_max+1)."""
        nk = values.shape[1]
        both = (self.phi @ values).take(self.landing, axis=2)
        both *= self.landing_weight
        return both[:, :, :nk] + both[:, :, nk:]

    def apply(self, values: np.ndarray) -> np.ndarray:
        """(P V)[u, k]: expected next-state value."""
        z = self.continuation(values)
        return (self.karma_win @ z[0][:, :, None])[:, :, 0] + self.lose_weight * z[1]

    def push(self, d: np.ndarray) -> np.ndarray:
        """(d P)[v, m]: the distribution d, shaped (n_u, k_max+1), one step on."""
        n_u, nk = d.shape
        paid = (d[:, None, :] @ self.karma_win)[:, 0, :]
        moved = (self.phi[0].T @ paid + self.phi[1].T @ (d * self.lose_weight)).ravel()
        rows = np.arange(n_u)[:, None] * nk
        landing = np.concatenate([(rows + self.lo).ravel(), (rows + self.hi).ravel()])
        weights = np.concatenate([moved * self.f_low, moved * self.f_high])
        return np.bincount(landing, weights, n_u * nk).reshape(n_u, nk)


@functools.lru_cache(maxsize=8)
def _bid_tables(nk: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only index tables of the bid/balance pairing for nk balances.

    complement[k, x] = (k - x) mod nk: the balance a bid x leaves, or the
    bid that leaves balance x. The wrap sends x > k to bids above k, where
    pi is 0. flat[k * nk + x] = k * nk + complement[k, x] gathers
    pi[u, k, k - x] from a policy table flattened per urgency. kept[k, b]
    is the balance k - b a bid b leaves, or nk for b > k, which indexes a
    NaN pad.
    """
    ks = np.arange(nk)
    complement = (ks[:, None] - ks[None, :]) % nk
    flat = (ks[:, None] * nk + complement).ravel()
    kept = np.where(ks[None, :] <= ks[:, None], complement, nk)
    for table in (complement, flat, kept):
        table.flags.writeable = False
    return complement, flat, kept


def _gmres(apply_a, rhs: np.ndarray, x0: np.ndarray, tol: float) -> tuple[np.ndarray, int, int]:
    """Restarted GMRES (Saad & Schultz 1986) for A x = rhs, started from x0.

    Stops once the true residual's 2-norm is at most tol, or once
    _GMRES_MAX_MATVECS applications of A are spent. The Arnoldi basis is
    orthogonalized by classical Gram-Schmidt applied twice; Givens
    rotations keep the Hessenberg least-squares problem triangular.
    Returns (x, applications of A, Arnoldi steps).
    """
    x = x0.copy()
    m = min(_GMRES_RESTART, rhs.size)
    basis = np.empty((m + 1, rhs.size))
    matvecs = steps = 0
    while True:
        r = rhs - apply_a(x)
        matvecs += 1
        beta = math.sqrt(r @ r)
        if beta <= tol or matvecs >= _GMRES_MAX_MATVECS:
            return x, matvecs, steps
        np.divide(r, beta, out=basis[0])
        tri = np.zeros((m, m))
        g = [beta]
        cs: list[float] = []
        sn: list[float] = []
        for j in range(m):
            w = apply_a(basis[j])
            matvecs += 1
            steps += 1
            active = basis[: j + 1]
            h = active @ w
            w -= h @ active
            h2 = active @ w
            w -= h2 @ active
            col = (h + h2).tolist()
            h_next = math.sqrt(w @ w)
            # Apply the earlier rotations in order; top carries the entry
            # that rotation i + 1 meets.
            top = col[0]
            for i, (c, s) in enumerate(zip(cs, sn)):
                below = col[i + 1]
                col[i] = c * top + s * below
                top = c * below - s * top
            radius = math.hypot(top, h_next)
            c, s = top / radius, h_next / radius
            cs.append(c)
            sn.append(s)
            col[j] = radius
            tri[: j + 1, j] = col
            g.append(-s * g[j])
            g[j] = c * g[j]
            if abs(g[j + 1]) <= tol or h_next == 0.0 or matvecs >= _GMRES_MAX_MATVECS:
                break
            np.divide(w, h_next, out=basis[j + 1])
        n = j + 1
        y = np.linalg.solve(tri[:n, :n], g[:n])
        x += y @ basis[:n]


def policy_evaluation(
    process: UrgencyProcess,
    social: SocialState,
    config: GameConfig,
    solver: SolverConfig | None = None,
    initial: np.ndarray | None = None,
) -> ValueTables:
    """Evaluate the shared policy: immediate rewards, transitions, and values.

    V solves the discounted fixed-point equation (I - alpha P) V = R by
    restarted GMRES on the matrix-free transition operator, started from
    initial (values shaped like V; zeros if None) and stopped at 2-norm
    residual tol_value; the result must then meet tol_value in sup norm.

    Raises:
        ParameterError: if initial is not shaped (n_levels, k_max + 1).
        SolverError: if the value residual exceeds tol_value (carries the
            residual).
    """
    solver = solver if solver is not None else SolverConfig()
    shape = social.d.shape
    if initial is not None:
        initial = np.asarray(initial, dtype=float)
        if initial.shape != shape:
            raise ParameterError(f"initial values must have shape {shape}, got {initial.shape}")
    transitions = TransitionOperator(process, social)
    reward = -process.level_values[:, None] * transitions.lose_weight
    alpha = config.alpha

    def apply_a(flat: np.ndarray) -> np.ndarray:
        return flat - alpha * transitions.apply(flat.reshape(shape)).ravel()

    start = np.zeros(reward.size) if initial is None else initial.ravel()
    flat, matvecs, steps = _gmres(apply_a, reward.ravel(), start, solver.tol_value)
    values = flat.reshape(shape)
    residual = float(np.abs(values - (reward + alpha * transitions.apply(values))).max())
    if not residual <= solver.tol_value:  # also rejects a NaN residual
        raise SolverError(
            f"policy evaluation residual {residual:.3e} exceeds tol_value {solver.tol_value:.3e}",
            residual=residual,
        )
    return ValueTables(V=values, R=reward, transitions=transitions,
                       matvecs=matvecs + 1, inner_iterations=steps)


def q_function(
    values: ValueTables,
    process: UrgencyProcess,
    social: SocialState,
    config: GameConfig,
) -> np.ndarray:
    """One-step deviation values Q[u, k, b] for every feasible bid b <= k.

    Q is the immediate reward of bidding b plus the discounted expected
    continuation value over the outcome-mixed karma and urgency moves,
    read through the transition operator of the same evaluation.
    Entries with b > k are NaN (absent).
    """
    op = values.transitions
    n_u, nk = values.V.shape
    z = op.continuation(values.V)
    # xi + alpha (gamma0 z0[k - b] + gamma1 z1[k]), evaluated in that order
    # in one gathered table; b > k gathers the NaN pad, which every later
    # step keeps.
    padded = np.empty((n_u, nk + 1))
    padded[:, :nk] = z[0]
    padded[:, nk] = np.nan
    q = padded.take(_bid_tables(nk)[2], axis=1, mode="clip")
    q *= op.gamma0
    for q_u, z_u in zip(q, z[1]):
        q_u += np.multiply.outer(z_u, op.gamma1)
    q *= config.alpha
    q += -np.outer(process.level_values, op.gamma1)[:, None, :]
    return q


def exploitability(q: np.ndarray, pi: np.ndarray) -> float:
    """Largest one-step gain any state can get by deviating from pi.

    NaN entries of q (bids above the balance) are absent. Zero exactly at
    a best response; the max over states is floored at zero to discard
    sub-epsilon float dust.
    """
    best = np.fmax.reduce(q, axis=2)
    current = np.sum(pi * q, axis=2, where=~np.isnan(q))
    return max(float((best - current).max()), 0.0)


def perturbed_best_response(q: np.ndarray, temperature: float) -> np.ndarray:
    """Softmax best response over feasible bids, sharpened as temperature -> 0.

    Exponentials are shifted by the per-state maximum, so any Q scale is
    safe; exact ties split evenly in the low-temperature limit. Shifted
    exponents at or below -746 are not evaluated: exp rounds them to
    exactly 0, but the exp routine is slow on them.
    """
    if temperature <= 0:
        raise ParameterError(f"temperature must be positive, got {temperature}")
    shifted = q - np.fmax.reduce(q, axis=2, keepdims=True)
    shifted /= temperature
    weights = np.zeros_like(shifted)
    np.exp(shifted, out=weights, where=shifted > -746.0)  # NaN (b > k) stays 0
    weights /= weights.sum(axis=2, keepdims=True)
    return weights


def solve_sne(
    process: UrgencyProcess,
    config: GameConfig,
    solver: SolverConfig | None = None,
    initial: SocialState | None = None,
) -> EquilibriumResult:
    """Iterate smoothed best response with annealing to a stationary equilibrium.

    Each outer iteration evaluates the current social state (warm-starting
    the value solve from the quadratic extrapolation
    3 (V_(t-1) - V_(t-2)) + V_(t-3) of the previous three iterations'
    values, linear or constant while fewer exist), records its residual
    pair, and stops as soon as both exploitability and the stationarity
    residual meet their tolerances; otherwise the policy is mixed toward the
    softmax best response and the distribution is pushed one damped step,
    reusing the transition operator of the evaluation. Deterministic:
    identical inputs give bit-identical residual traces.

    Non-convergence is reported through converged=False on the result,
    never as an exception.
    """
    solver = solver if solver is not None else SolverConfig()
    social = initial if initial is not None else initial_social_state(process, config)
    if social.d.shape != (process.n_levels, config.k_max + 1):
        raise ParameterError(
            f"initial social state shape {social.d.shape} does not match "
            f"({process.n_levels}, {config.k_max + 1})"
        )
    temperature = solver.br_temperature
    step = solver.step_size
    trace: list[tuple[float, float]] = []
    converged = False
    values: ValueTables | None = None
    q: np.ndarray | None = None
    start: np.ndarray | None = None
    history: list[np.ndarray] = []  # the latest values first
    iterations = matvecs = max_inner = 0
    stage = dict.fromkeys(("solve_value_seconds", "solve_q_seconds",
                           "solve_best_response_seconds", "solve_update_seconds"), 0.0)

    for iterations in range(1, solver.max_outer_iters + 1):
        t0 = perf_counter()
        values = policy_evaluation(process, social, config, solver, initial=start)
        matvecs += values.matvecs
        max_inner = max(max_inner, values.inner_iterations)
        t1 = perf_counter()
        q = q_function(values, process, social, config)
        expl = exploitability(q, social.pi)
        t2 = perf_counter()
        stage["solve_value_seconds"] += t1 - t0
        stage["solve_q_seconds"] += t2 - t1
        push = values.transitions.push(social.d)
        resid = 0.5 * float(np.abs(push - social.d).sum())
        trace.append((resid, expl))
        if expl <= solver.tol_policy and resid <= solver.tol_distribution:
            converged = True
            break
        if iterations == solver.max_outer_iters:
            break
        t3 = perf_counter()
        target = perturbed_best_response(q, temperature)
        t4 = perf_counter()
        # (1 - step) pi + step target, each product formed in place.
        target *= step
        pi_new = social.pi * (1.0 - step)
        pi_new += target
        d_new = (1.0 - step) * social.d + step * push
        social = SocialState(d=d_new, pi=pi_new)
        temperature = max(temperature * solver.temperature_decay, solver.temperature_floor)
        # The values move smoothly between iterations, so extrapolating the
        # last three (quadratically) starts GMRES closer to the next solution
        # than V alone; the first iterations extrapolate what they have.
        history = [values.V] + history[:2]
        if len(history) == 3:
            start = 3.0 * (history[0] - history[1]) + history[2]
        elif len(history) == 2:
            start = 2.0 * history[0] - history[1]
        else:
            start = history[0]
        t5 = perf_counter()
        stage["solve_best_response_seconds"] += t4 - t3
        stage["solve_update_seconds"] += (t3 - t2) + (t5 - t4)

    assert values is not None and q is not None
    return EquilibriumResult(
        social=social,
        values=dataclasses.replace(values, Q=q),
        residuals=np.asarray(trace),
        converged=converged,
        iterations=iterations,
        value_matvecs=matvecs,
        max_inner_iterations=max_inner,
        timings=stage,
    )


def write_policy_csv(path: Path | str, process: UrgencyProcess, social: SocialState) -> None:
    """Policy table as CSV rows (urgency_level, karma, bid, probability)."""
    with open(path, "w") as out:
        out.write("urgency_level,karma,bid,probability\n")
        # One urgency level at a time keeps the live text to a fraction of
        # the file, which reaches megabytes at k_max in the hundreds.
        for level, table in zip(process.levels, social.pi):
            lines = []
            for k, row in enumerate(table):
                prefix = f"{level},{k},"
                lines.extend([f"{prefix}{b},{p!r}\n" for b, p in enumerate(row[: k + 1].tolist())])
            out.writelines(lines)


def write_distribution_csv(path: Path | str, process: UrgencyProcess, social: SocialState) -> None:
    """State distribution as CSV rows (urgency_level, karma, mass)."""
    lines = ["urgency_level,karma,mass"]
    for level, row in zip(process.levels, social.d.tolist()):
        lines.extend([f"{level},{k},{mass!r}" for k, mass in enumerate(row)])
    Path(path).write_text("\n".join(lines) + "\n")


def write_residuals_csv(path: Path | str, result: EquilibriumResult) -> None:
    """Residual trace as CSV rows (iteration, stationarity_residual, exploitability)."""
    lines = ["iteration,stationarity_residual,exploitability"]
    lines.extend([f"{i},{resid!r},{expl!r}"
                  for i, (resid, expl) in enumerate(result.residuals.tolist(), start=1)])
    Path(path).write_text("\n".join(lines) + "\n")
