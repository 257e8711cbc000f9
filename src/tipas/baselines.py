"""Reference predictors: copy, Markov chains, constant-rate Poisson models,
and interval-based time predictors.

Every model exposes the prefix surface of the evaluation driver (TIPAS
walks a stream state instead): ``predict_action(user, times, actions, t)``
and/or ``predict_time(user, times, actions)`` where ``times``/``actions``
are views of the user's full event prefix (train plus earlier test events).
Time predictions return ``nan`` when the model has nothing to say for that
prefix; action ties always break toward the lowest action id.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import InvalidInputError, InvalidStateError
from .model import UserHistory

__all__ = [
    "CopyModel",
    "MarkovModel",
    "PoissonGlobalModel",
    "PoissonUserModel",
    "TimeCopyModel",
    "AverageIntervalModel",
    "UserAverageIntervalModel",
    "BASELINE_NAMES",
    "make_baseline",
]


def _interarrivals(histories: Sequence[UserHistory]) -> np.ndarray:
    gaps = [np.diff(h.times()) for h in histories if len(h) >= 2]
    return np.concatenate(gaps) if gaps else np.empty(0)


class CopyModel:
    """Repeats the user's last action; empty prefixes fall back to the
    training majority action (flagged via ``fell_back``)."""

    name = "copy"
    supports_action = True
    supports_time = False

    def __init__(self) -> None:
        self.majority = 0
        self.fell_back = 0

    def fit(self, histories: Sequence[UserHistory], n_actions: int) -> "CopyModel":
        counts = np.zeros(n_actions, dtype=np.int64)
        for h in histories:
            np.add.at(counts, h.actions(), 1)
        self.majority = int(np.argmax(counts))
        return self

    def predict_action(self, user, times, actions, t) -> int:
        if len(actions) == 0:
            self.fell_back += 1
            return self.majority
        return int(actions[-1])


class MarkovModel:
    """Order-k Markov chain over actions with add-one smoothing.

    Prediction uses the last k actions; a context never seen in training
    backs off to order k-1, bottoming out at the global action counts.
    """

    supports_action = True
    supports_time = False

    def __init__(self, order: int) -> None:
        if not 1 <= order <= 5:
            raise InvalidInputError(f"markov order must be in [1, 5], got {order}")
        self.order = order
        self.name = f"markov{order}"
        self.n_actions = 0
        self.counts: list[dict[tuple, np.ndarray]] = []

    def fit(self, histories: Sequence[UserHistory], n_actions: int) -> "MarkovModel":
        self.n_actions = n_actions
        self.counts = [dict() for _ in range(self.order + 1)]
        for h in histories:
            acts = h.actions().tolist()
            for i, nxt in enumerate(acts):
                for o in range(min(i, self.order) + 1):
                    ctx = tuple(acts[i - o : i])
                    row = self.counts[o].get(ctx)
                    if row is None:
                        row = np.zeros(n_actions, dtype=np.int64)
                        self.counts[o][ctx] = row
                    row[nxt] += 1
        return self

    def transition_probs(self, context: tuple) -> np.ndarray:
        """Smoothed next-action distribution for a seen context."""
        row = self.counts[len(context)].get(tuple(context))
        if row is None:
            raise InvalidInputError(f"context {context!r} unseen at order {len(context)}")
        return (row + 1.0) / (row.sum() + self.n_actions)

    def predict_action(self, user, times, actions, t) -> int:
        recent = [int(a) for a in actions[-self.order :]]
        for o in range(len(recent), -1, -1):
            row = self.counts[o].get(tuple(recent[len(recent) - o :]))
            if row is not None:
                return int(np.argmax(row))
        return 0


class PoissonGlobalModel:
    """Constant per-action rates pooled over users: rate_a = count_a / (T |U|)."""

    name = "pp-global"
    supports_action = True
    supports_time = True

    def __init__(self) -> None:
        self.rates = np.zeros(0)
        self.degenerate = False

    def fit(
        self, histories: Sequence[UserHistory], n_actions: int, T: float
    ) -> "PoissonGlobalModel":
        if T <= 0:
            raise InvalidInputError("T must be positive")
        counts = np.zeros(n_actions)
        for h in histories:
            np.add.at(counts, h.actions(), 1.0)
        n_users = max(len(histories), 1)
        self.rates = counts / (T * n_users)
        self.degenerate = not np.any(self.rates > 0)
        return self

    def predict_action(self, user, times, actions, t) -> int:
        return int(np.argmax(self.rates))

    def predict_time(self, user, times, actions) -> float:
        total = float(self.rates.sum())
        if len(times) == 0 or total <= 0:
            return math.nan
        return float(times[-1]) + 1.0 / total


class PoissonUserModel:
    """Constant per-(user, action) rates: rate_ua = count_ua / T.

    Users unseen at fit time keep zero rates; their action prediction is the
    lowest action id and their time prediction is undefined.
    """

    name = "pp-user"
    supports_action = True
    supports_time = True

    def __init__(self) -> None:
        self.rates: dict[str, np.ndarray] = {}
        self.n_actions = 0
        self.degenerate = 0

    def fit(
        self, histories: Sequence[UserHistory], n_actions: int, T: float
    ) -> "PoissonUserModel":
        if T <= 0:
            raise InvalidInputError("T must be positive")
        self.n_actions = n_actions
        for h in histories:
            counts = np.zeros(n_actions)
            np.add.at(counts, h.actions(), 1.0)
            self.rates[h.user] = counts / T
        return self

    def _row(self, user) -> np.ndarray:
        return self.rates.get(user, np.zeros(self.n_actions))

    def predict_action(self, user, times, actions, t) -> int:
        row = self._row(user)
        if not np.any(row > 0):
            self.degenerate += 1
        return int(np.argmax(row))

    def predict_time(self, user, times, actions) -> float:
        total = float(self._row(user).sum())
        if len(times) == 0 or total <= 0:
            return math.nan
        return float(times[-1]) + 1.0 / total


class TimeCopyModel:
    """Repeats the user's most recent interarrival; one-event prefixes fall
    back to the global training average."""

    name = "time-copy"
    supports_action = False
    supports_time = True

    def __init__(self) -> None:
        self.global_mean = math.nan
        self.fell_back = 0

    def fit(self, histories: Sequence[UserHistory]) -> "TimeCopyModel":
        gaps = _interarrivals(histories)
        self.global_mean = float(gaps.mean()) if gaps.size else math.nan
        return self

    def predict_time(self, user, times, actions) -> float:
        if len(times) >= 2:
            return 2.0 * float(times[-1]) - float(times[-2])
        if len(times) == 1:
            if math.isnan(self.global_mean):
                raise InvalidStateError("no interarrivals anywhere in training data")
            self.fell_back += 1
            return float(times[-1]) + self.global_mean
        return math.nan


class AverageIntervalModel:
    """Adds the global training-average interarrival to the last event time."""

    name = "avg-interval"
    supports_action = False
    supports_time = True

    def __init__(self) -> None:
        self.global_mean = math.nan

    def fit(self, histories: Sequence[UserHistory]) -> "AverageIntervalModel":
        gaps = _interarrivals(histories)
        if not gaps.size:
            raise InvalidStateError("no interarrivals anywhere in training data")
        self.global_mean = float(gaps.mean())
        return self

    def predict_time(self, user, times, actions) -> float:
        if len(times) == 0:
            return math.nan
        return float(times[-1]) + self.global_mean


class UserAverageIntervalModel:
    """Adds the user's own average interarrival (over the prediction prefix);
    prefixes with fewer than two events fall back to the global average."""

    name = "user-avg-interval"
    supports_action = False
    supports_time = True

    def __init__(self) -> None:
        self.global_mean = math.nan
        self.fell_back = 0

    def fit(self, histories: Sequence[UserHistory]) -> "UserAverageIntervalModel":
        gaps = _interarrivals(histories)
        if not gaps.size:
            raise InvalidStateError("no interarrivals anywhere in training data")
        self.global_mean = float(gaps.mean())
        return self

    def predict_time(self, user, times, actions) -> float:
        if len(times) == 0:
            return math.nan
        if len(times) >= 2:
            return float(times[-1]) + float(np.diff(times).mean())
        self.fell_back += 1
        return float(times[-1]) + self.global_mean


BASELINE_NAMES = (
    "copy",
    "markov1",
    "markov2",
    "markov3",
    "markov4",
    "markov5",
    "pp-global",
    "pp-user",
    "time-copy",
    "avg-interval",
    "user-avg-interval",
)


def make_baseline(name: str, histories: Sequence[UserHistory], n_actions: int, T: float):
    """Fit the named baseline on the training histories."""
    if name == "copy":
        return CopyModel().fit(histories, n_actions)
    if name.startswith("markov"):
        return MarkovModel(int(name[len("markov") :])).fit(histories, n_actions)
    if name == "pp-global":
        return PoissonGlobalModel().fit(histories, n_actions, T)
    if name == "pp-user":
        return PoissonUserModel().fit(histories, n_actions, T)
    if name == "time-copy":
        return TimeCopyModel().fit(histories)
    if name == "avg-interval":
        return AverageIntervalModel().fit(histories)
    if name == "user-avg-interval":
        return UserAverageIntervalModel().fit(histories)
    raise InvalidInputError(f"unknown baseline {name!r}")
