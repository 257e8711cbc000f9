"""Exact sampling of the process by thinning, plus synthetic-data generation.

Ogata thinning against a dominating rate that holds until the next event:
the preference and background parts at their global peaks, the exponential
part at its (decreasing) current value, and each Weibull term at its
current value, or at its mode peak while the mode still lies ahead.  The
rate is rebuilt after every candidate and after every hour without one.
Candidates arrive at the dominating rate and are accepted with probability
``lam(t) / lam_bar``; accepted candidates pick their action proportionally
to the per-action intensities.  Both rates come from the model's stream
state (``model._StreamState``), which carries them from event to event
without rescanning the history.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import (
    InvalidInputError,
    SimulationOverflowError,
    ThinningBoundError,
)
from .model import (
    EventRecord,
    HistoryPrefix,
    ModelParams,
    UserHistory,
    _prefix_arrays,
    _StreamState,
)


@dataclass(frozen=True)
class SimConfig:
    """Simulation controls: hours to draw, the seed of the stream and a cap
    on the event count.  The dominating rate holds until the next event and
    is rebuilt after every hour without a candidate; a rebuild costs
    O(A^2 + live Weibull sources), not O(history)."""

    horizon: float
    seed: int = 0
    max_events: int = 10**6

    def __post_init__(self) -> None:
        if self.horizon <= 0 or not math.isfinite(self.horizon):
            raise InvalidInputError("horizon must be positive and finite")
        if self.max_events < 1:
            raise InvalidInputError("max_events must be >= 1")


@dataclass(frozen=True)
class SyntheticSpec:
    """Ground truth for generated datasets.

    ``params.users`` may list exactly ``n_users`` users, a single template
    user whose alpha row is shared by everyone, or nobody (all cold users).
    """

    n_users: int
    params: ModelParams
    horizon: float
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_users < 0:
            raise InvalidInputError("n_users must be >= 0")
        if self.horizon <= 0:
            raise InvalidInputError("horizon must be positive")
        if len(self.params.users) not in (0, 1, self.n_users):
            raise InvalidInputError(
                "params must define 0, 1 or n_users alpha rows, got "
                f"{len(self.params.users)} for n_users={self.n_users}"
            )


def _stream_rng(seed: int, *salt: int) -> np.random.Generator:
    # Counter-based streams: any (seed, salt...) tuple opens the same stream
    # regardless of scheduling or call order.
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, *salt))))


def intensity_upper_bound(
    params: ModelParams,
    user: str,
    history: HistoryPrefix,
    t: float,
    window: float,
) -> float:
    """The simulator's dominating rate at ``t`` after ``history``: it bounds
    the total intensity from ``t`` until the next event.

    ``window`` is checked to be positive and otherwise unused: the bound
    holds over any window that ends before the next event.
    """
    if window <= 0:
        raise InvalidInputError("window must be positive")
    times, actions, cats = _prefix_arrays(params.structure, history, t)
    return _StreamState(params, params.alpha_row(user), times, actions, cats).bound(t)


def _simulate_stream(
    params: ModelParams,
    alpha_row: np.ndarray,
    times: np.ndarray,
    actions: np.ndarray,
    cats: np.ndarray,
    start: float,
    horizon: float,
    rng: np.random.Generator,
    *,
    max_events: int = 10**6,
    window: float = 1.0,
    stop_after: int | None = None,
) -> tuple[list[float], list[int]]:
    s = params.structure
    state = _StreamState(params, alpha_row, times, actions, cats)
    out_t: list[float] = []
    out_a: list[int] = []
    end = start + horizon
    t = start
    while t < end:
        lam_bar = state.bound(t)
        if lam_bar <= 0.0:
            t += window
            continue
        gap = rng.exponential() / lam_bar
        if gap > window:
            t += window
            continue
        t_cand = t + gap
        if t_cand > end:
            break
        lam_vec = state.intensity(t_cand)
        lam_tot = float(lam_vec.sum())
        if lam_tot > lam_bar * (1.0 + 1e-9):
            raise ThinningBoundError(
                f"intensity {lam_tot:.6g} exceeded dominating rate {lam_bar:.6g} "
                f"at t={t_cand:.6f}"
            )
        if lam_tot > 0.0 and rng.random() * lam_bar < lam_tot:
            a = int(
                np.searchsorted(np.cumsum(lam_vec), rng.random() * lam_tot, side="right")
            )
            a = min(a, s.n_actions - 1)
            if len(out_t) + 1 > max_events:
                raise SimulationOverflowError(
                    f"simulation produced more than {max_events} events "
                    f"(explosive parameters?)"
                )
            out_t.append(t_cand)
            out_a.append(a)
            if stop_after is not None and len(out_t) >= stop_after:
                return out_t, out_a
            state.add(t_cand, a)
        t = t_cand
    return out_t, out_a


def simulate(
    params: ModelParams,
    user: str,
    seed_history: HistoryPrefix,
    config: SimConfig,
) -> list[EventRecord]:
    """Draw events on (t_last, t_last + horizon] given ``seed_history``,
    from the Philox stream of ``config.seed``."""
    times, actions, cats = _prefix_arrays(params.structure, seed_history, math.inf)
    start = float(times[-1]) if times.size else 0.0
    rng = _stream_rng(config.seed)
    out_t, out_a = _simulate_stream(
        params,
        params.alpha_row(user),
        times,
        actions,
        cats,
        start,
        config.horizon,
        rng,
        max_events=config.max_events,
    )
    return [EventRecord(action=a, t=t) for t, a in zip(out_t, out_a)]


def params_for_users(params: ModelParams, users: Sequence[str]) -> ModelParams:
    """Rebind ground-truth parameters to concrete user keys.

    A single template alpha row is tiled across all users; an empty user
    list means everyone is cold (zero alpha).  Needed when scoring generated
    data against the generating parameters.
    """
    users = tuple(users)
    if params.users == users:
        return params
    n_rows = len(params.users)
    if n_rows == 1:
        alpha = np.tile(params.alpha[0], (len(users), 1))
    elif n_rows == 0:
        alpha = np.zeros((len(users), params.structure.n_actions))
    else:
        raise InvalidInputError(
            f"cannot rebind {n_rows} alpha rows to {len(users)} users"
        )
    return replace(params, users=users, alpha=alpha)


def generate_synthetic(spec: SyntheticSpec) -> list[UserHistory]:
    """Independent per-user draws from the ground truth; reproducible per
    (seed, user index)."""
    params = spec.params
    n_rows = len(params.users)
    histories = []
    empty = np.empty(0)
    empty_i = np.empty(0, dtype=np.int64)
    for i in range(spec.n_users):
        if n_rows == spec.n_users:
            user = params.users[i]
            alpha_row = params.alpha[i]
        else:
            user = f"u{i:05d}"
            alpha_row = params.alpha[0] if n_rows == 1 else np.zeros(
                params.structure.n_actions
            )
        rng = _stream_rng(spec.seed, i)
        out_t, out_a = _simulate_stream(
            params, alpha_row, empty, empty_i, empty_i, 0.0, spec.horizon, rng
        )
        histories.append(UserHistory.from_arrays(user, out_t, out_a))
    return histories
