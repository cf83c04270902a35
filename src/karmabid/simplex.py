"""Dense two-phase simplex for small equality-constrained linear programs.

Solves min c @ x subject to A x = b, x >= 0 on a classical tableau with
Bland's anti-cycling rule. Problems here have at most a few dozen
variables, so there is no sparse machinery; redundant constraint rows
(rank deficiency) are detected in phase one and dropped.
"""

from __future__ import annotations

import numpy as np

# Entries below this magnitude are treated as zero when selecting pivots.
PIVOT_TOL = 1e-11
# A phase-1 optimum above this is reported as infeasible.
FEAS_TOL = 1e-9
# Pivots allowed per phase before the tableau is declared numerically broken.
MAX_PIVOTS = 10_000


class LpError(RuntimeError):
    """Base class for linear-program solver failures."""


class LpInfeasibleError(LpError):
    """The constraints admit no nonnegative solution."""


class LpUnboundedError(LpError):
    """The objective is unbounded below on the feasible set."""


def _pivot(tableau: np.ndarray, basis: list[int], row: int, col: int) -> None:
    tableau[row] /= tableau[row, col]
    for i in range(tableau.shape[0]):
        if i != row and abs(tableau[i, col]) > 0.0:
            tableau[i] -= tableau[i, col] * tableau[row]
    basis[row] = col


def _bland_iterate(tableau: np.ndarray, basis: list[int], n_cols: int) -> None:
    """Pivot to optimality of the objective row (last row), Bland's rule.

    Entering: lowest-index column with reduced cost < -PIVOT_TOL.
    Leaving: minimum-ratio row, ties broken by lowest basis index.
    """
    m = tableau.shape[0] - 1
    for _ in range(MAX_PIVOTS):
        reduced = tableau[-1, :n_cols]
        candidates = np.nonzero(reduced < -PIVOT_TOL)[0]
        if candidates.size == 0:
            return
        col = int(candidates[0])
        best_ratio = None
        best_row = -1
        for i in range(m):
            a = tableau[i, col]
            if a > PIVOT_TOL:
                ratio = tableau[i, -1] / a
                if (
                    best_row < 0
                    or ratio < best_ratio - PIVOT_TOL
                    or (abs(ratio - best_ratio) <= PIVOT_TOL and basis[i] < basis[best_row])
                ):
                    best_ratio = ratio
                    best_row = i
        if best_row < 0:
            raise LpUnboundedError(f"objective unbounded along column {col}")
        _pivot(tableau, basis, best_row, col)
    raise LpError("pivot limit exceeded; numerical trouble in the simplex tableau")


def solve_standard_form(
    c: np.ndarray, A: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, float]:
    """Minimize c @ x subject to A x = b, x >= 0.

    Returns:
        (x, value) at an optimal basic feasible solution.

    Raises:
        LpInfeasibleError: no nonnegative solution satisfies A x = b.
        LpUnboundedError: the objective is unbounded below.
    """
    c = np.asarray(c, dtype=float)
    A = np.array(A, dtype=float)
    b = np.array(b, dtype=float)
    m, n = A.shape
    if c.shape != (n,) or b.shape != (m,):
        raise ValueError(f"inconsistent shapes: c {c.shape}, A {A.shape}, b {b.shape}")

    flip = b < 0
    A[flip] *= -1.0
    b[flip] *= -1.0

    # Phase 1: artificial basis, minimize the sum of artificials.
    tableau = np.zeros((m + 1, n + m + 1))
    tableau[:m, :n] = A
    tableau[:m, n : n + m] = np.eye(m)
    tableau[:m, -1] = b
    tableau[-1, :n] = -A.sum(axis=0)
    tableau[-1, -1] = -b.sum()
    basis = list(range(n, n + m))
    _bland_iterate(tableau, basis, n + m)
    if -tableau[-1, -1] > FEAS_TOL:
        raise LpInfeasibleError(
            f"phase-1 optimum {-tableau[-1, -1]:.3e} > {FEAS_TOL:.0e}; constraints are infeasible"
        )

    # Drive leftover artificials out of the basis; rows that offer no real
    # pivot are redundant constraints and get dropped.
    keep = []
    for i in range(m):
        if basis[i] < n:
            keep.append(i)
            continue
        row = tableau[i, :n]
        pivots = np.nonzero(np.abs(row) > PIVOT_TOL)[0]
        if pivots.size:
            _pivot(tableau, basis, i, int(pivots[0]))
            keep.append(i)
    rows = keep
    m2 = len(rows)
    basis = [basis[i] for i in rows]

    # Phase 2 on the original columns with the true objective.
    phase2 = np.zeros((m2 + 1, n + 1))
    phase2[:m2, :n] = tableau[rows][:, :n]
    phase2[:m2, -1] = tableau[rows][:, -1]
    phase2[-1, :n] = c
    for i in range(m2):
        phase2[-1] -= phase2[-1, basis[i]] * phase2[i]
    _bland_iterate(phase2, basis, n)

    x = np.zeros(n)
    for i in range(m2):
        x[basis[i]] = phase2[i, -1]
    return x, float(c @ x)
