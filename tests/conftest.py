from typing import Sequence

import numpy as np
import pytest

from tipas import EventRecord, ModelParams, ModelStructure, UserHistory
from tipas.model import DAY_HOURS


@pytest.fixture
def structure():
    return ModelStructure(n_actions=2, n_mixtures=2, horizon=48.0)


def random_params(
    rng: np.random.Generator,
    n_actions: int = 2,
    n_mixtures: int = 2,
    horizon: float = 48.0,
    users: tuple[str, ...] = ("u1",),
    kappa_range: tuple[float, float] = (1.0, 2.5),
) -> ModelParams:
    """A random well-behaved parameter set (all sign constraints strict)."""
    s = ModelStructure(n_actions=n_actions, n_mixtures=n_mixtures, horizon=horizon)
    a, z, c = n_actions, n_mixtures, s.n_categories
    return ModelParams(
        structure=s,
        users=users,
        alpha=rng.uniform(0.005, 0.08, (len(users), a)),
        beta=rng.uniform(0.05, 0.8, (a, z)),
        mu=rng.uniform(2.0, 22.0, (a, z)),
        sigma=rng.uniform(0.5, 3.0, (a, z)),
        theta=rng.uniform(0.02, 0.4, (a, a)),
        omega=rng.uniform(0.2, 2.5, (a, a)),
        phi=rng.uniform(0.02, 0.4, (c, a)),
        gamma=rng.uniform(0.02, 0.5, (c, a)),
        kappa=rng.uniform(*kappa_range, (c, a)),
    )


def zero_params(
    structure: ModelStructure, users: Sequence[str] = ()
) -> ModelParams:
    """All-zero parameter set (mu centered, sigma/kappa at 1)."""
    a, z, c = structure.n_actions, structure.n_mixtures, structure.n_categories
    mu = np.full((a, z), DAY_HOURS / 2.0)
    return ModelParams(
        structure=structure,
        users=tuple(users),
        alpha=np.zeros((len(users), a)),
        beta=np.zeros((a, z)),
        mu=mu,
        sigma=np.ones((a, z)),
        theta=np.zeros((a, a)),
        omega=np.zeros((a, a)),
        phi=np.zeros((c, a)),
        gamma=np.zeros((c, a)),
        kappa=np.ones((c, a)),
    )


def random_histories(
    rng: np.random.Generator,
    n_users: int = 2,
    max_events: int = 12,
    n_actions: int = 2,
    horizon: float = 48.0,
) -> list[UserHistory]:
    out = []
    for i in range(n_users):
        n = int(rng.integers(0, max_events + 1))
        times = np.sort(rng.uniform(0.0, horizon, n))
        actions = rng.integers(0, n_actions, n)
        out.append(
            UserHistory(
                user=f"u{i + 1}",
                events=tuple(
                    EventRecord(action=int(a), t=float(t))
                    for t, a in zip(times, actions)
                ),
            )
        )
    return out
