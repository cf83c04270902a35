import time

import numpy as np
import pytest

from karmabid import (
    GameConfig,
    SocialState,
    build_urgency_process,
    solve_sne,
)
from oracles import pack

CASE_LEVELS = [1, 2, 4, 8, 16]
CASE_EPSILON = 0.04


def make_random_social(rng: np.random.Generator, n_levels: int, k_max: int) -> SocialState:
    """Random valid social state; rows normalized before construction."""
    nk = k_max + 1
    d = rng.random((n_levels, nk))
    d /= d.sum()
    pi = rng.random((n_levels, nk, nk)) * np.tril(np.ones((nk, nk)))
    pi /= pi.sum(axis=2, keepdims=True)
    return SocialState(d=d, pi=pack(pi))


@pytest.fixture(scope="session")
def case_process():
    return build_urgency_process(CASE_LEVELS, CASE_EPSILON)


@pytest.fixture(scope="session")
def case_config():
    return GameConfig()


@pytest.fixture(scope="session")
def case_equilibrium(case_process, case_config):
    """Case-study equilibrium, solved once; wall time stashed on the result."""
    start = time.perf_counter()
    result = solve_sne(case_process, case_config)
    elapsed = time.perf_counter() - start
    result.solve_seconds = elapsed
    return result


@pytest.fixture(scope="session")
def small_game():
    process = build_urgency_process([1, 16], CASE_EPSILON)
    config = GameConfig(k_bar=2, k_max=6)
    return process, config


@pytest.fixture(scope="session")
def small_game_solution(small_game):
    process, config = small_game
    return solve_sne(process, config)
