"""Stationary equilibrium solver for the mean-field bidding game.

A stationary Nash equilibrium is a social state (d, pi) where d is
stationary under the population dynamics induced by pi and pi is a best
response to the values it generates at every private state. The solver
alternates policy evaluation, a damped temperature-smoothed best
response, and push-forward of the state distribution (d <- d P), annealing
the temperature until it reaches its floor and both the exploitability and
the stationarity residual pass their tolerances.

The state transition kernel is never formed as an S x S array. A
TransitionOperator, built once per solve_sne iteration, applies P (for
the value solve and for Q) and its push-forward d P through the karma
landing indices; it dies with its iteration. The values come from
restarted GMRES, which solve_sne warm-starts by extrapolating the
previous iterations' V and stops early while the policy is far from a
best response (a forcing term, _FORCING).

Karma is conserved, as in the simulator, which has no cap and
redistributes the pool integer-exactly. Balances here stop at k_max, so
the operator grants back not the average payment but the amount that
keeps the mean karma of its d: the average payment wherever no balance
can overflow, more where one would.

A karma space much wider than its equilibrium needs is solved by nested
iteration (Briggs, Henson & McCormick 2000): solve_sne solves k_max = 4 k_bar
first, embeds its result (no mass above, higher balances bid as its top
one, V flat) and refines it from temperature_floor.

Layout conventions: private states are (urgency index u, karma k) with
karma truncated to {0, ..., k_max}; flat state index is u * (k_max+1) + k.
Value arrays are (n_levels, k_max+1). The policy, Q and best-response
tables hold only the feasible bids b <= k, packed: shape
(n_levels, (k_max+1)(k_max+2)/2), ordered by k and then by b, so the bids
of balance k start at column k (k + 1) / 2 (model.bid_layout). Per-state
maxima and sums are np.maximum.reduceat and np.add.reduceat at those
starts. Only the transition operator and the simulator's bid sampler
expand the policy into square (k_max+1, k_max+1) tables, each by one
scatter through that layout.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

# CPython's built-in SHA-256. hashlib loads OpenSSL, which alone raised the
# peak resident memory of a k_max = 160 compare by 3.6 MB (8 %).
try:
    from _sha256 import sha256  # Python <= 3.11
except ImportError:
    try:
        from _sha2 import sha256  # Python >= 3.12
    except ImportError:
        from hashlib import sha256

from .model import (
    GameConfig,
    ParameterError,
    SocialState,
    UrgencyProcess,
    bid_marginal,
    bid_layout,
    check_fields,
    packed_k_max,
    per_bid,
    redistribution_split,
    win_prob_all_bids,
)


# Krylov basis size of one GMRES cycle, and the cap on operator
# applications in one value solve. On the case-study game at k_max = 160
# shorter cycles stall (30 steps per cycle took up to 680 steps in all,
# 20 did not converge); 100 covers every solve there (66 steps at most).
# At k_max = 320 the fine stage's first solve takes 191 steps, one restart.
# A solve that hits the cap falls to the sup-norm check and its SolverError.
_GMRES_RESTART = 100
_GMRES_MAX_MATVECS = 3000

# Forcing term of the inexact value solve: iteration t of solve_sne solves
# (I - alpha P) V = R only to max(tol_value, _FORCING * exploitability at
# t - 1), as in inexact Newton methods (Dembo, Eisenstat & Steihaug 1982)
# and modified policy iteration (Puterman 1994, section 6.5). On the case
# study it roughly halves the applications of P at an unchanged iteration
# path; 1e-2 saved little more and moved d by 2.4e-10.
_FORCING = 1e-3

# States with less equilibrium mass than this do not enter the
# equilibrium fingerprint: their best bid is not pinned down.
_FINGERPRINT_MASS = 1e-6

# solve_sne's coarse stage: k_max = _COARSE_FACTOR * k_bar.
_COARSE_FACTOR = 4


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
    to temperature_floor, and a solve stops only once it is there, so
    max_outer_iters must allow ceil(log(temperature_floor / br_temperature)
    / log(temperature_decay)) + 1 iterations (402 at the defaults).
    step_size damps the policy update only; d is pushed undamped.
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
        check_fields(self)
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if value <= 0:
                raise ParameterError(f"{field.name} must be positive, got {value}")
        if self.step_size > 1.0:
            raise ParameterError(f"step_size must lie in (0, 1], got {self.step_size}")
        if self.temperature_decay > 1.0:
            raise ParameterError(f"temperature_decay must lie in (0, 1], got {self.temperature_decay}")
        if self.temperature_decay == 1.0 and self.br_temperature > self.temperature_floor:
            raise ParameterError("temperature_decay = 1 never brings br_temperature down to "
                                 "temperature_floor, where a solve stops")


@dataclass
class ValueTables:
    """Value quantities of one policy-evaluation pass.

    V: expected discounted reward per (u, k).
    R: expected immediate reward per (u, k).
    matvecs: applications of P spent on V, the final residual check
       included.
    inner_iterations: GMRES (Arnoldi) steps spent on V.
    """

    V: np.ndarray
    R: np.ndarray
    matvecs: int = 0
    inner_iterations: int = 0


@dataclass
class EquilibriumResult:
    """Converged (or best-effort) social state with diagnostics.

    residuals has one row per outer iteration with columns
    (stationarity residual in total variation, exploitability), both
    measured on the social state entering that iteration. value_matvecs
    counts the applications of P over all value solves, and
    max_inner_iterations is the most GMRES steps one value solve took.
    These counts, like iterations, residuals and timings, cover both
    stages of a coarse-started solve (solve_sne).
    predicted_r_bar is the mean-field long-run reward d . R, and
    equilibrium_fingerprint names the selected equilibrium: the sha256 of
    the int64 most likely bid of every state holding mass above 1e-6, in
    state order.
    coarse_k_max and coarse_iterations describe solve_sne's coarse stage
    (None and 0 without one); summary() adds mass_at_k_max, d at k_max.
    timings holds the wall seconds spent in each stage of the iterations:
    solve_value_seconds (policy evaluation), solve_q_seconds (Q table and
    exploitability), solve_best_response_seconds and solve_update_seconds
    (push-forward, residual and the damped policy update). They vary from
    run to run, so summary() leaves them out.
    """

    social: SocialState
    values: ValueTables
    residuals: np.ndarray
    converged: bool
    iterations: int
    value_matvecs: int = 0
    max_inner_iterations: int = 0
    timings: dict[str, float] = dataclasses.field(default_factory=dict)
    coarse_k_max: int | None = None
    coarse_iterations: int = 0

    @property
    def exploitability(self) -> float:
        return float(self.residuals[-1, 1])

    @property
    def stationarity_residual(self) -> float:
        return float(self.residuals[-1, 0])

    @property
    def predicted_r_bar(self) -> float:
        return float((self.social.d * self.values.R).sum())

    @property
    def equilibrium_fingerprint(self) -> str:
        starts = bid_layout(self.social.k_max)[0]
        pi = self.social.pi
        bids = [pi[u, starts[k]:starts[k] + k + 1].argmax()
                for u, k in zip(*np.nonzero(self.social.d > _FINGERPRINT_MASS))]
        return sha256(np.array(bids, dtype=np.int64).tobytes()).hexdigest()

    def summary(self) -> dict:
        return {
            "converged": bool(self.converged),
            "iterations": int(self.iterations),
            "exploitability": self.exploitability,
            "stationarity_residual": self.stationarity_residual,
            "mean_karma": self.social.mean_karma,
            "predicted_r_bar": self.predicted_r_bar,
            "equilibrium_fingerprint": self.equilibrium_fingerprint,
            "value_matvecs": int(self.value_matvecs),
            "max_inner_iterations": int(self.max_inner_iterations),
            "coarse_k_max": self.coarse_k_max,
            "coarse_iterations": int(self.coarse_iterations),
            "mass_at_k_max": float(self.social.d[:, -1].sum()),
        }


def initial_social_state(process: UrgencyProcess, config: GameConfig) -> SocialState:
    """Unbiased starting point: urgency uniform, karma point mass at k_bar
    (so the mean karma equals k_bar exactly), policy uniform over feasible bids."""
    n_u = process.n_levels
    nk = config.k_max + 1
    d = np.zeros((n_u, nk))
    d[:, config.k_bar] = 1.0 / n_u
    balance = bid_layout(config.k_max)[1]
    return SocialState(d=d, pi=np.tile(1.0 / (balance + 1.0), (n_u, 1)))


class TransitionOperator:
    """State transition kernel P induced by a social state, never formed densely.

    A move splits into a payment and a redistribution. A winner bidding b
    from balance k keeps j = k - b, a loser keeps j = k; then the urgency
    moves by phi[outcome] and the balance moves from j to landing[j] =
    j + low with weight landing_weight[j] = f_low, or to landing[nk + j] =
    j + high with f_high (apply and push share this table), with overflow
    above k_max landing at k_max, so every row of P sums to one. The grant
    f_low low + f_high high keeps the mean karma of d; the mean after a
    grant of m is linear between integers, so interpolating it is exact.
    karma_win[u, k, j] is the probability of winning and keeping j, zero
    for j > k: one scatter of the packed policy through model.bid_layout
    into a square table, so that BLAS applies it; lose_weight[u, k] is the
    probability of losing. Applying P or its push-forward costs
    O(n_u k_max^2), against O(S^2) for the dense kernel.
    """

    def __init__(self, process: UrgencyProcess, social: SocialState):
        n_u, nk = social.d.shape
        self.phi = process.phi
        self.gamma0 = win_prob_all_bids(bid_marginal(social))
        self.gamma1 = 1.0 - self.gamma0
        starts, balance, bid = bid_layout(nk - 1)
        self.karma_win = np.zeros((n_u, nk, nk))
        self.karma_win[:, balance, balance - bid] = social.pi * self.gamma0[bid]
        self.lose_weight = np.add.reduceat(social.pi * self.gamma1[bid], starts, axis=1)
        # paid[j]: mass of d at balance j after payment; after[m]: its mean
        # once every balance gains m under the cap, which rises from m to
        # m + 1 by the mass still below k_max - m.
        paid = (social.d[:, None, :] @ self.karma_win).sum(axis=(0, 1))
        paid += (social.d * self.lose_weight).sum(axis=0)
        ks = np.arange(nk)
        after = paid @ ks + np.concatenate(([0.0], np.cumsum(np.cumsum(paid)[-2::-1])))
        low, high, f_low, f_high = redistribution_split(float(np.interp(social.mean_karma, after, ks)))
        self.landing = np.minimum(np.concatenate([ks + low, ks + high]), nk - 1)
        self.landing_weight = np.repeat([f_low, f_high], nk)

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
        moved = self.phi[0].T @ paid + self.phi[1].T @ (d * self.lose_weight)
        # Row v scatters into row v only, each bin's terms in landing order.
        landing = self.landing + np.arange(n_u)[:, None] * nk
        weights = np.tile(moved, 2) * self.landing_weight
        return np.bincount(landing.ravel(), weights.ravel(), n_u * nk).reshape(n_u, nk)


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


def policy_evaluation(process: UrgencyProcess, transitions: TransitionOperator, config: GameConfig,
                      tol: float = SolverConfig.tol_value,
                      initial: np.ndarray | None = None) -> ValueTables:
    """Immediate rewards and values of the shared policy that transitions encodes.

    V solves the discounted fixed-point equation (I - alpha P) V = R by
    restarted GMRES on the matrix-free transition operator, started from
    initial (values shaped like V; zeros if None) and stopped at 2-norm
    residual tol; the result must then meet tol in sup norm.

    Raises:
        ParameterError: if initial is not shaped (n_levels, k_max + 1).
        SolverError: if the value residual exceeds tol (carries the
            residual).
    """
    shape = transitions.lose_weight.shape
    if initial is not None:
        initial = np.asarray(initial, dtype=float)
        if initial.shape != shape:
            raise ParameterError(f"initial values must have shape {shape}, got {initial.shape}")
    reward = -process.level_values[:, None] * transitions.lose_weight
    alpha = config.alpha

    def apply_a(flat: np.ndarray) -> np.ndarray:
        return flat - alpha * transitions.apply(flat.reshape(shape)).ravel()

    start = np.zeros(reward.size) if initial is None else initial.ravel()
    flat, matvecs, steps = _gmres(apply_a, reward.ravel(), start, tol)
    values = flat.reshape(shape)
    residual = float(np.abs(values - (reward + alpha * transitions.apply(values))).max())
    if not residual <= tol:  # also rejects a NaN residual
        raise SolverError(
            f"policy evaluation residual {residual:.3e} exceeds tol_value {tol:.3e}",
            residual=residual,
        )
    return ValueTables(V=values, R=reward, matvecs=matvecs + 1, inner_iterations=steps)


def q_function(values: ValueTables, transitions: TransitionOperator,
               process: UrgencyProcess, config: GameConfig) -> np.ndarray:
    """One-step deviation values Q[u, k, b] for every feasible bid b <= k.

    Q is the immediate reward of bidding b plus the discounted expected
    continuation value over the outcome-mixed karma and urgency moves,
    read through the transition operator that V was evaluated on. The
    table is packed like the policy, shape (n_levels, (k_max+1)(k_max+2)/2).
    """
    _, balance, bid = bid_layout(values.V.shape[1] - 1)
    z = transitions.continuation(values.V)
    # xi + alpha (gamma0 z0[k - b] + gamma1 z1[k]), evaluated in that order.
    lose = transitions.gamma1[bid]
    q = z[0].take(balance - bid, axis=1)
    q *= transitions.gamma0[bid]
    term = per_bid(z[1])
    term *= lose
    q += term
    q *= config.alpha
    q -= np.multiply.outer(process.level_values, lose, out=term)
    return q


def exploitability(q: np.ndarray, pi: np.ndarray) -> float:
    """Largest one-step gain any state can get by deviating from pi.

    q and pi are packed tables over the feasible bids. Zero exactly at a
    best response; the max over states is floored at zero to discard
    sub-epsilon float dust.
    """
    starts = bid_layout(packed_k_max(q.shape[1], "q"))[0]
    best = np.maximum.reduceat(q, starts, axis=1)
    current = np.add.reduceat(pi * q, starts, axis=1)
    return max(float((best - current).max()), 0.0)


def perturbed_best_response(q: np.ndarray, temperature: float) -> np.ndarray:
    """Softmax best response over feasible bids, sharpened as temperature -> 0.

    q and the result are packed tables over the feasible bids.
    Exponentials are shifted by the per-state maximum, so any Q scale is
    safe; exact ties split evenly in the low-temperature limit. Shifted
    exponents at or below -746 are not evaluated: exp rounds them to
    exactly 0, but the exp routine is slow on them.
    """
    if temperature <= 0:
        raise ParameterError(f"temperature must be positive, got {temperature}")
    starts = bid_layout(packed_k_max(q.shape[1], "q"))[0]
    shifted = per_bid(np.maximum.reduceat(q, starts, axis=1))
    np.subtract(q, shifted, out=shifted)
    shifted /= temperature
    weights = np.zeros_like(shifted)
    np.exp(shifted, out=weights, where=shifted > -746.0)
    weights /= per_bid(np.add.reduceat(weights, starts, axis=1))
    return weights


def solve_sne(process: UrgencyProcess, config: GameConfig,
              solver: SolverConfig | None = None) -> EquilibriumResult:
    """Iterate smoothed best response with annealing to a stationary equilibrium.

    Each outer iteration evaluates the current social state (warm-starting
    the value solve from the quadratic extrapolation
    3 (V_(t-1) - V_(t-2)) + V_(t-3) of the previous three iterations'
    values, linear or constant while fewer exist), records its residual
    pair, and stops once the temperature is at temperature_floor and both
    exploitability and the stationarity residual meet their tolerances;
    otherwise the policy moves step_size toward the softmax best response
    and d <- d P, by the operator built for the iteration's evaluation.
    That push is power iteration, which settles only on an aperiodic P:
    an urgency chain that is periodic (UrgencyProcess.aperiodic) raises
    ParameterError, and P periodic through the karma ends unconverged.
    Deterministic: identical inputs give bit-identical residual traces.

    The value solve is inexact: iteration t solves only to
    max(tol_value, _FORCING * exploitability at t - 1), the first one to
    tol_value. An iteration that would stop, or the last one allowed, on a
    looser solve first re-solves to tol_value from that V and recomputes
    Q and the exploitability, so converged=True and the returned values
    always rest on a solve to tol_value.

    When k_bar >= 1 and k_max > 4 k_bar, a coarse stage (module docstring)
    runs first, and the full space is always refined from its last social
    state, even one holding mass at its k_max. The two stages share
    max_outer_iters: the refinement gets what the coarse stage left, and
    at least one iteration, so a coarse stage that spent them all is
    returned, unconverged, after one evaluation of the full space.
    iterations, residuals (coarse rows first), the work counts and the
    timings cover both stages.

    Non-convergence is reported through converged=False on the result,
    never as an exception.
    """
    if not process.aperiodic:
        raise ParameterError("solve_sne pushes d undamped, so the urgency chain must be aperiodic")
    solver = solver if solver is not None else SolverConfig()
    coarse_k_max = _COARSE_FACTOR * config.k_bar
    if config.k_bar < 1 or config.k_max <= coarse_k_max:
        return _anneal(process, config, solver)
    coarse = _anneal(process, dataclasses.replace(config, k_max=coarse_k_max), solver)
    fine = dataclasses.replace(solver, max_outer_iters=max(1, solver.max_outer_iters - coarse.iterations))
    pad = ((0, 0), (0, config.k_max - coarse_k_max))
    result = _anneal(process, config, fine, _embed(coarse.social, config.k_max),
                     solver.temperature_floor, np.pad(coarse.values.V, pad, "edge"))
    result.residuals = np.concatenate([coarse.residuals, result.residuals])
    result.iterations += coarse.iterations
    result.coarse_k_max, result.coarse_iterations = coarse_k_max, coarse.iterations
    result.value_matvecs += coarse.value_matvecs
    result.max_inner_iterations = max(result.max_inner_iterations, coarse.max_inner_iterations)
    result.timings = {name: t + coarse.timings[name] for name, t in result.timings.items()}
    return result


def _embed(coarse: SocialState, k_max: int) -> SocialState:
    """coarse on {0, ..., k_max}: no mass above its k_max, where it bids as at its k_max."""
    top, starts = coarse.k_max, bid_layout(k_max)[0]
    pi = np.zeros((coarse.pi.shape[0], starts[-1] + k_max + 1))
    pi[:, :coarse.pi.shape[1]] = coarse.pi  # the layout orders by balance
    above = (starts[top + 1:, None] + np.arange(top + 1)).ravel()
    pi[:, above] = np.tile(coarse.pi[:, starts[top]:], k_max - top)
    return SocialState(d=np.pad(coarse.d, ((0, 0), (0, k_max - top))), pi=pi)


def _anneal(process: UrgencyProcess, config: GameConfig, solver: SolverConfig,
            social: SocialState | None = None, temperature: float | None = None,
            start: np.ndarray | None = None) -> EquilibriumResult:
    """solve_sne's loop from social, temperature and first value guess start (None: as solve_sne)."""
    social = social if social is not None else initial_social_state(process, config)
    temperature = temperature if temperature is not None else solver.br_temperature
    trace: list[tuple[float, float]] = []
    history: list[np.ndarray] = []  # the latest values first
    iterations = matvecs = max_inner = 0
    tolerance = solver.tol_value
    stage = dict.fromkeys(("solve_value_seconds", "solve_q_seconds",
                           "solve_best_response_seconds", "solve_update_seconds"), 0.0)

    def evaluate(tol: float, guess: np.ndarray | None) -> tuple[ValueTables, np.ndarray, float]:
        nonlocal matvecs, max_inner
        t0 = perf_counter()
        values = policy_evaluation(process, transitions, config, tol, initial=guess)
        matvecs += values.matvecs
        max_inner = max(max_inner, values.inner_iterations)
        t1 = perf_counter()
        q = q_function(values, transitions, process, config)
        expl = exploitability(q, social.pi)
        stage["solve_value_seconds"] += t1 - t0
        stage["solve_q_seconds"] += perf_counter() - t1
        return values, q, expl

    def settled(expl: float, resid: float) -> bool:
        return (temperature <= solver.temperature_floor and expl <= solver.tol_policy
                and resid <= solver.tol_distribution)

    for iterations in range(1, solver.max_outer_iters + 1):
        t0 = perf_counter()
        transitions = TransitionOperator(process, social)
        stage["solve_value_seconds"] += perf_counter() - t0
        values, q, expl = evaluate(tolerance, start)
        t2 = perf_counter()
        push = transitions.push(social.d)
        resid = 0.5 * float(np.abs(push - social.d).sum())
        stage["solve_update_seconds"] += perf_counter() - t2
        last = iterations == solver.max_outer_iters
        if tolerance > solver.tol_value and (last or settled(expl, resid)):
            # Free the loose solve's Q before the re-solve's.
            start = values.V
            del values, q
            values, q, expl = evaluate(solver.tol_value, start)
        trace.append((resid, expl))
        converged = settled(expl, resid)
        if converged or last:
            break
        t3 = perf_counter()
        pi_new = perturbed_best_response(q, temperature)
        t4 = perf_counter()
        # step target + (1 - step) pi, formed in the target's buffer.
        pi_new *= solver.step_size
        pi_new += social.pi * (1.0 - solver.step_size)
        social = SocialState(d=push, pi=pi_new)
        temperature = max(temperature * solver.temperature_decay, solver.temperature_floor)
        tolerance = max(solver.tol_value, _FORCING * expl)
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
        # Release this iteration's tables before the next evaluation builds
        # its own; held over, they fragment the heap and raised the peak
        # resident memory of a k_max = 160 compare by 1.3 MB.
        del pi_new, transitions, values, q
        t5 = perf_counter()
        stage["solve_best_response_seconds"] += t4 - t3
        stage["solve_update_seconds"] += t5 - t4

    return EquilibriumResult(
        social=social,
        values=values,
        residuals=np.asarray(trace),
        converged=converged,
        iterations=iterations,
        value_matvecs=matvecs,
        max_inner_iterations=max_inner,
        timings=stage,
    )


def write_policy_csv(path: Path | str, process: UrgencyProcess, social: SocialState) -> None:
    """Policy table as CSV rows (urgency_level, karma, bid, probability),
    in the packed order of the policy."""
    starts = bid_layout(social.k_max)[0].tolist()
    with open(path, "w") as out:
        out.write("urgency_level,karma,bid,probability\n")
        # One state at a time keeps the live text small; the file reaches
        # megabytes at k_max in the hundreds.
        for level, row in zip(process.levels, social.pi):
            for k, start in enumerate(starts):
                prefix = f"{level},{k},"
                out.writelines([f"{prefix}{b},{p!r}\n"
                                for b, p in enumerate(row[start:start + k + 1].tolist())])


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
