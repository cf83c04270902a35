"""The efficiency upper bound and the analytic coin-flip reward.

The allocation rules themselves (RANDOM, TURN, GREEDY_URGENCY) live in
the simulator. This module holds the two references computed from the
urgency chain alone:

- MAX_EFF is a linear program over joint (urgency, outcome) mass: it
  maximizes the population reward subject to stationarity of the urgency
  marginal, normalization, and a 0.5 aggregate win share. Its optimum
  upper-bounds the long-run average reward of any allocation rule whose
  urgency transitions follow the same outcome-conditioned chain.
- The long-run reward of RANDOM follows from the stationary urgency
  distribution under an even coin.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ParameterError, UrgencyProcess
from .simplex import LpError, solve_standard_form


@dataclass
class LpProblem:
    """Small dense LP: maximize c @ x subject to A x = b, x >= 0.

    Variables are the joint mass psi[u, o] in u-major order
    (index = 2 * u + o); labels carries (urgency level, outcome) per
    column. One stationarity row is linearly redundant and retained; the
    solver handles the rank deficiency.
    """

    c: np.ndarray
    A: np.ndarray
    b: np.ndarray
    labels: list[tuple[int, int]]

    def __post_init__(self) -> None:
        self.c = np.asarray(self.c, dtype=float)
        self.A = np.asarray(self.A, dtype=float)
        self.b = np.asarray(self.b, dtype=float)
        m, n = self.A.shape
        if self.c.shape != (n,) or self.b.shape != (m,) or len(self.labels) != n:
            raise ParameterError(
                f"inconsistent LP dimensions: c {self.c.shape}, A {self.A.shape}, "
                f"b {self.b.shape}, {len(self.labels)} labels"
            )


def build_max_eff_lp(process: UrgencyProcess) -> LpProblem:
    """Assemble the efficiency-bound LP for an urgency process.

    Maximize sum_u psi[u, 1] * (-level_u) subject to, for every level u,
    stationarity sum_o psi[u, o] = sum_{u-, o} psi[u-, o] phi[o, u-, u],
    total mass one, and winner share sum_u psi[u, 0] = 0.5.
    """
    n_u = process.n_levels
    n = 2 * n_u
    c = np.zeros(n)
    for u, level in enumerate(process.levels):
        c[2 * u + 1] = -float(level)

    rows = []
    rhs = []
    for u in range(n_u):
        row = np.zeros(n)
        row[2 * u] += 1.0
        row[2 * u + 1] += 1.0
        for u_prev in range(n_u):
            row[2 * u_prev] -= process.phi[0, u_prev, u]
            row[2 * u_prev + 1] -= process.phi[1, u_prev, u]
        rows.append(row)
        rhs.append(0.0)
    rows.append(np.ones(n))
    rhs.append(1.0)
    share = np.zeros(n)
    share[0::2] = 1.0
    rows.append(share)
    rhs.append(0.5)

    labels = [(level, o) for level in process.levels for o in (0, 1)]
    return LpProblem(c=np.asarray(c), A=np.asarray(rows), b=np.asarray(rhs), labels=labels)


def solve_lp(problem: LpProblem) -> tuple[float, np.ndarray]:
    """Maximize the LP; returns (optimal value, optimizer psi).

    Raises:
        LpInfeasibleError / LpUnboundedError: construction bugs; the
            efficiency LP is always feasible and bounded.
        LpError: if the claimed optimizer violates a constraint beyond 1e-9.
    """
    x, neg_value = solve_standard_form(-problem.c, problem.A, problem.b)
    residual = float(np.abs(problem.A @ x - problem.b).max())
    if residual > 1e-9:
        raise LpError(f"optimizer violates constraints by {residual:.3e}")
    return -neg_value, x


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
