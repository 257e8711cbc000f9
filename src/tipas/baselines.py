"""Reference predictors: copy, Markov chains, constant-rate Poisson models,
and interval-based time predictors.

Every model exposes the prefix surface of the evaluation driver (TIPAS
walks a stream state instead): ``predict_action(user, times, actions, t)``
and/or ``predict_time(user, times, actions)`` where ``times``/``actions``
are views of the user's full event prefix (train plus earlier test events).
Time predictions return ``nan`` when the model has nothing to say for that
prefix; action ties always break toward the lowest action id.

``_FITTERS`` is the one registry: ``BASELINE_NAMES`` is its keys in report
order, and ``make_baseline`` looks names up in it.  Adding a baseline means
one class (or a subclass of ``_PoissonModel`` or ``_IntervalModel``) plus
one table entry.
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


def _action_counts(histories: Sequence[UserHistory], n_actions: int) -> np.ndarray:
    counts = np.zeros(n_actions)
    for h in histories:
        np.add.at(counts, h.actions(), 1.0)
    return counts


class CopyModel:
    """Repeats the user's last action; empty prefixes fall back to the
    training majority action (flagged via ``fell_back``)."""

    supports_action = True
    supports_time = False

    def __init__(self) -> None:
        self.majority = 0
        self.fell_back = 0

    def fit(self, histories: Sequence[UserHistory], n_actions: int) -> "CopyModel":
        self.majority = int(np.argmax(_action_counts(histories, n_actions)))
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

    def predict_action(self, user, times, actions, t) -> int:
        recent = [int(a) for a in actions[-self.order :]]
        for o in range(len(recent), -1, -1):
            row = self.counts[o].get(tuple(recent[len(recent) - o :]))
            if row is not None:
                return int(np.argmax(row))
        return 0


class _PoissonModel:
    """Constant per-action rates over a training horizon ``T``; the next
    event is predicted one mean wait, 1 / (total rate), after the last.
    Subclasses set their rates in ``_fit_rates`` and give a user's rate
    row in ``_row``."""

    supports_action = True
    supports_time = True

    def fit(self, histories: Sequence[UserHistory], n_actions: int, T: float):
        if T <= 0:
            raise InvalidInputError("T must be positive")
        self._fit_rates(histories, n_actions, T)
        return self

    def predict_time(self, user, times, actions) -> float:
        total = float(self._row(user).sum())
        if len(times) == 0 or total <= 0:
            return math.nan
        return float(times[-1]) + 1.0 / total


class PoissonGlobalModel(_PoissonModel):
    """Constant per-action rates pooled over users: rate_a = count_a / (T |U|)."""

    def __init__(self) -> None:
        self.rates = np.zeros(0)
        self.degenerate = False

    def _fit_rates(self, histories, n_actions, T) -> None:
        n_users = max(len(histories), 1)
        self.rates = _action_counts(histories, n_actions) / (T * n_users)
        self.degenerate = not np.any(self.rates > 0)

    def _row(self, user) -> np.ndarray:
        return self.rates

    def predict_action(self, user, times, actions, t) -> int:
        return int(np.argmax(self.rates))


class PoissonUserModel(_PoissonModel):
    """Constant per-(user, action) rates: rate_ua = count_ua / T.

    Users unseen at fit time keep zero rates; their action prediction is the
    lowest action id and their time prediction is undefined.
    """

    def __init__(self) -> None:
        self.rates: dict[str, np.ndarray] = {}
        self.n_actions = 0
        self.degenerate = 0

    def _fit_rates(self, histories, n_actions, T) -> None:
        self.n_actions = n_actions
        for h in histories:
            self.rates[h.user] = _action_counts([h], n_actions) / T

    def _row(self, user) -> np.ndarray:
        return self.rates.get(user, np.zeros(self.n_actions))

    def predict_action(self, user, times, actions, t) -> int:
        row = self._row(user)
        if not np.any(row > 0):
            self.degenerate += 1
        return int(np.argmax(row))


_NO_GAPS = "no interarrivals anywhere in training data"


class _IntervalModel:
    """Time predictors built on interarrivals.  ``fit`` takes the global
    training-average interarrival; a one-event prefix adds it to its event
    time (counted in ``fell_back``).  Subclasses give ``_from_gaps``, the
    prediction for a prefix of two or more events."""

    supports_action = False
    supports_time = True
    # time-copy fits without any training gap: only its one-event prefixes
    # need the mean
    _needs_training_gaps = True

    def __init__(self) -> None:
        self.global_mean = math.nan
        self.fell_back = 0

    def fit(self, histories: Sequence[UserHistory]):
        gaps = [np.diff(h.times()) for h in histories if len(h) >= 2]
        if gaps:
            self.global_mean = float(np.concatenate(gaps).mean())
        elif self._needs_training_gaps:
            raise InvalidStateError(_NO_GAPS)
        return self

    def predict_time(self, user, times, actions) -> float:
        if len(times) == 0:
            return math.nan
        if len(times) >= 2:
            return self._from_gaps(times)
        if math.isnan(self.global_mean):
            raise InvalidStateError(_NO_GAPS)
        self.fell_back += 1
        return float(times[-1]) + self.global_mean


class TimeCopyModel(_IntervalModel):
    """Repeats the user's most recent interarrival; one-event prefixes fall
    back to the global training average."""

    _needs_training_gaps = False

    def _from_gaps(self, times) -> float:
        return 2.0 * float(times[-1]) - float(times[-2])


class AverageIntervalModel(_IntervalModel):
    """Adds the global training-average interarrival to the last event time."""

    def _from_gaps(self, times) -> float:
        return float(times[-1]) + self.global_mean


class UserAverageIntervalModel(_IntervalModel):
    """Adds the user's own average interarrival (over the prediction prefix);
    prefixes with fewer than two events fall back to the global average."""

    def _from_gaps(self, times) -> float:
        return float(times[-1]) + float(np.diff(times).mean())


# Every baseline in report order, each fitted from (histories, n_actions, T).
_FITTERS = {
    "copy": lambda hs, n, T: CopyModel().fit(hs, n),
    **{
        f"markov{k}": lambda hs, n, T, k=k: MarkovModel(k).fit(hs, n)
        for k in range(1, 6)
    },
    "pp-global": lambda hs, n, T: PoissonGlobalModel().fit(hs, n, T),
    "pp-user": lambda hs, n, T: PoissonUserModel().fit(hs, n, T),
    "time-copy": lambda hs, n, T: TimeCopyModel().fit(hs),
    "avg-interval": lambda hs, n, T: AverageIntervalModel().fit(hs),
    "user-avg-interval": lambda hs, n, T: UserAverageIntervalModel().fit(hs),
}
BASELINE_NAMES = tuple(_FITTERS)


def make_baseline(name: str, histories: Sequence[UserHistory], n_actions: int, T: float):
    """Fit the named baseline on the training histories."""
    if name not in _FITTERS:
        raise InvalidInputError(f"unknown baseline {name!r}")
    return _FITTERS[name](histories, n_actions, T)
