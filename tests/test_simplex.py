"""Two-phase simplex tests against exhaustive vertex enumeration."""

import itertools

import numpy as np
import pytest

from karmabid.simplex import LpInfeasibleError, LpUnboundedError, solve_standard_form


def vertex_minimum(c, A, b):
    """Minimum of c @ x over basic feasible solutions (region bounded)."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    n = A.shape[1]
    rows = []
    for i in range(A.shape[0]):
        candidate = rows + [i]
        if np.linalg.matrix_rank(A[candidate], tol=1e-11) == len(candidate):
            rows.append(i)
    A_r, b_r = A[rows], b[rows]
    best = np.inf
    for cols in itertools.combinations(range(n), len(rows)):
        basis = A_r[:, cols]
        if abs(np.linalg.det(basis)) < 1e-12:
            continue
        x_basic = np.linalg.solve(basis, b_r)
        if (x_basic < -1e-12).any():
            continue
        x = np.zeros(n)
        x[list(cols)] = x_basic
        best = min(best, float(c @ x))
    assert np.isfinite(best), "enumeration found no feasible vertex"
    return best


def test_matches_vertex_enumeration_on_random_bounded_problems():
    rng = np.random.default_rng(101)
    for trial in range(25):
        n = int(rng.integers(3, 8))
        m = int(rng.integers(1, min(n, 5)))
        A = rng.standard_normal((m, n))
        x_feasible = rng.random(n)
        b = A @ x_feasible
        # a total-mass row keeps the feasible region bounded
        A = np.vstack([A, np.ones(n)])
        b = np.append(b, x_feasible.sum())
        c = rng.standard_normal(n)
        x, value = solve_standard_form(c, A, b)
        assert (x >= -1e-12).all()
        assert np.abs(A @ x - b).max() <= 1e-9
        assert value == pytest.approx(vertex_minimum(c, A, b), abs=1e-9)


def test_redundant_rows_are_handled():
    # second row is twice the first
    A = np.array([[1.0, 1.0, 0.0], [2.0, 2.0, 0.0], [0.0, 1.0, 1.0]])
    b = np.array([1.0, 2.0, 0.8])
    c = np.array([1.0, 2.0, 3.0])
    x, value = solve_standard_form(c, A, b)
    assert np.abs(A @ x - b).max() <= 1e-9
    assert value == pytest.approx(vertex_minimum(c, A, b), abs=1e-9)


def test_infeasible_raises():
    A = np.array([[1.0, 0.0], [1.0, 0.0]])
    b = np.array([1.0, 2.0])
    with pytest.raises(LpInfeasibleError):
        solve_standard_form(np.zeros(2), A, b)


def test_unbounded_raises():
    # x1 = x2 with objective -x1: feasible ray to infinity
    A = np.array([[1.0, -1.0]])
    b = np.array([0.0])
    with pytest.raises(LpUnboundedError):
        solve_standard_form(np.array([-1.0, 0.0]), A, b)


def test_negative_rhs_rows_are_normalized():
    # same system as a feasible one but with a sign-flipped row
    A = np.array([[-1.0, -1.0]])
    b = np.array([-1.0])
    x, value = solve_standard_form(np.array([2.0, 1.0]), A, b)
    assert value == pytest.approx(1.0, abs=1e-9)
    assert x[1] == pytest.approx(1.0, abs=1e-9)


def test_degenerate_vertices_terminate():
    # multiple constraints meet at the same vertex; Bland's rule must not cycle
    A = np.array([[1.0, 1.0, 1.0, 0.0], [1.0, 1.0, 0.0, 1.0]])
    b = np.array([1.0, 1.0])
    c = np.array([-1.0, -2.0, 0.0, 0.0])
    x, value = solve_standard_form(c, A, b)
    assert value == pytest.approx(-2.0, abs=1e-9)
