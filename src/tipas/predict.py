"""Next-action / next-time prediction and the rolling-window evaluation driver."""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .errors import CensoredPredictionError, InvalidInputError
from .inference import FitConfig, fit
from .metrics import EvalReport, WindowResult, fill_scores, finalize_report
from .model import (
    DAY_HOURS,
    HistoryPrefix,
    ModelParams,
    UserHistory,
    _intensity_vector_arrays,
    _prefix_arrays,
    _StreamState,
    tod_categories,
)

logger = logging.getLogger(__name__)

# Time predictions cap the wait at CENSOR_FACTOR times the horizon filter.
CENSOR_FACTOR = 10.0


@dataclass(frozen=True)
class PredictionTask:
    """One next-action query: the prefix (EventRecords are converted to a
    UserHistory) plus the known query time."""

    user: str
    history_prefix: UserHistory
    t: float

    def __post_init__(self) -> None:
        if not isinstance(self.history_prefix, UserHistory):
            prefix = UserHistory(self.user, self.history_prefix)
            object.__setattr__(self, "history_prefix", prefix)
        if len(self.history_prefix) and self.history_prefix.times()[-1] > self.t:
            raise InvalidInputError("prefix events must precede the query time")


@dataclass(frozen=True)
class ActionPrediction:
    action: int
    degenerate: bool
    intensities: np.ndarray


@dataclass(frozen=True)
class TimePrediction:
    """Predicted next-event time and the probability S(span) that no event
    arrives within the prediction span of ``CENSOR_FACTOR`` times the
    horizon filter; ``n_censored`` holds that probability."""

    time: float
    n_censored: float


def predict_next_action(params: ModelParams, task: PredictionTask) -> ActionPrediction:
    """Most intense action at the query time; ties break to the lowest id.

    When every action has zero intensity the prediction degenerates to
    action 0 and is flagged.
    """
    times, actions, cats = _prefix_arrays(params.structure, task.history_prefix, task.t)
    lam = _intensity_vector_arrays(
        params, params.alpha_row(task.user), times, actions, cats, task.t
    )
    return ActionPrediction(
        action=int(np.argmax(lam)),
        degenerate=not bool(np.any(lam > 0)),
        intensities=lam,
    )


# Gauss-Legendre rule applied on every piece of the first-arrival integral
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(24)


def _survival_nodes(
    params: ModelParams, start: float, span: float
) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature lags and weights on [0, span].

    Pieces end at every midnight after ``start`` (the background is not
    wrapped, so the rate jumps there) and at 0.25, 1 and 3 h, where the
    kernels of the last events change fastest.  A background component is
    resolved by pieces no longer than 12 of its standard deviations, but it
    only needs them near its bump: a piece is split evenly to 12 sigma of
    the narrowest component whose mu +- 6 sigma on that day it overlaps.  A
    component with 36 sigma < 24 h also ends pieces at mu +- 6 sigma: two
    more pieces a day cost less than splitting its whole day.
    """
    day = DAY_HOURS
    first_midnight = (math.floor(start / day) + 1.0) * day - start
    day_starts = np.arange(first_midnight - day, span, day)
    bump = (params.beta > 0) & (12.0 * params.sigma < day)
    sd = params.sigma[bump]
    tod_lo, tod_hi = params.mu[bump] - 6.0 * sd, params.mu[bump] + 6.0 * sd
    win_lo = day_starts[:, None] + np.maximum(tod_lo, 0.0)
    win_hi = day_starts[:, None] + np.minimum(tod_hi, day)
    narrow = 36.0 * sd < day
    cuts = np.unique(
        np.concatenate(
            (
                [0.0, 0.25, 1.0, 3.0, span],
                day_starts[1:],
                win_lo[:, narrow & (tod_lo > 0.0)].ravel(),
                win_hi[:, narrow & (tod_hi < day)].ravel(),
            )
        )
    )
    cuts = cuts[(cuts >= 0.0) & (cuts <= span)]
    lo, length = cuts[:-1], np.diff(cuts)
    overlaps = (win_lo < cuts[1:, None, None]) & (lo[:, None, None] < win_hi)
    max_len = np.where(overlaps, 12.0 * sd, math.inf).min(axis=(1, 2), initial=math.inf)
    n_split = np.maximum(np.ceil(length / max_len), 1.0).astype(int)
    piece = np.repeat(np.arange(lo.size), n_split)
    k = np.arange(piece.size) - np.repeat(np.cumsum(n_split) - n_split, n_split)
    edges = np.append(k * (length / n_split)[piece] + lo[piece], span)
    half = ((edges[1:] - edges[:-1]) / 2.0)[:, None]
    lags = edges[:-1, None] + half * (_GL_NODES + 1.0)
    return lags.reshape(-1), (half * _GL_WEIGHTS).reshape(-1)


def _next_time(state: _StreamState, span: float) -> TimePrediction:
    start = state.clock
    lags, weights = _survival_nodes(state.params, start, span)
    surv = np.exp(-state.increments(np.append(lags, span)))
    censored = float(surv[-1])
    if censored == 1.0:
        raise CensoredPredictionError(f"no event can occur within {span:.1f}h")
    return TimePrediction(time=start + float(weights @ surv[:-1]), n_censored=censored)


def _check_horizon_filter(horizon_filter: float) -> None:
    if not 0.0 < CENSOR_FACTOR * horizon_filter < math.inf:
        raise InvalidInputError(
            f"horizon_filter must be positive and finite, as must the span "
            f"{CENSOR_FACTOR:g} times it, got {horizon_filter}"
        )


def predict_next_time(
    params: ModelParams,
    user: str,
    history: HistoryPrefix,
    *,
    horizon_filter: float = 12.0,
) -> TimePrediction:
    """Mean first-arrival time (any action) after the end of the history.

    Waits are capped at ``span = CENSOR_FACTOR * horizon_filter`` hours
    (120 h at the default filter of 12 h), so the mean wait is
    E[min(X, span)], the integral over [0, span] of the survival curve
    S(s) = exp(-(Lambda(t_last + s) - Lambda(t_last))) of the process with
    no further events (time rescaling).  The stream state built from the
    history gives the compensator increments, and a quadrature integrates
    S with no random numbers.  ``n_censored`` is the censored mass S(span);
    when it is 1 no event can occur and there is no prediction.  The filter
    must be positive and finite.
    """
    _check_horizon_filter(horizon_filter)
    times, actions, cats = _prefix_arrays(params.structure, history, math.inf)
    state = _StreamState(params, params.alpha_row(user), times, actions, cats)
    return _next_time(state, CENSOR_FACTOR * horizon_filter)


class TipasPredictor:
    """Fitted model for the evaluation driver, which walks one stream state
    per user (``walk``) instead of rescanning prefixes."""

    supports_action = True
    supports_time = True

    def __init__(
        self,
        params: ModelParams,
        name: str = "tipas",
        horizon_filter: float = 12.0,
    ) -> None:
        self.params = params
        self.name = name
        self.horizon_filter = horizon_filter

    def walk(self, user, times, actions) -> _TipasWalk:
        p = self.params
        walk = _TipasWalk(p, p.alpha_row(user), times, actions, tod_categories(p.structure, times))
        walk.span = CENSOR_FACTOR * self.horizon_filter
        return walk


class _TipasWalk(_StreamState):
    """A user's stream state answering the driver: the mean first arrival
    within ``span`` of the last event (NaN when censored), the top action."""

    def action(self, t: float) -> int:
        return int(np.argmax(self.intensity(t)))

    def time(self) -> float:
        try:
            return _next_time(self, self.span).time
        except CensoredPredictionError:
            return math.nan


class _PrefixWalk:
    """The walk of a model that answers from prefixes: each query passes
    views of the events before it."""

    def __init__(self, model, user, times, actions, n: int) -> None:
        self.model, self.user, self.times, self.actions, self.n = model, user, times, actions, n

    def action(self, t: float) -> int:
        n = self.n
        return int(self.model.predict_action(self.user, self.times[:n], self.actions[:n], t))

    def time(self) -> float:
        return self.model.predict_time(self.user, self.times[: self.n], self.actions[: self.n])

    def add(self, t: float, a: int) -> None:
        self.n += 1


def make_tipas_factory(
    config: FitConfig,
    name: str = "tipas",
    horizon_filter: float = 12.0,
):
    """Factory for the evaluation driver: fits on each training window."""

    def factory(train: Sequence[UserHistory], T: float) -> TipasPredictor:
        params, _ = fit(train, replace(config, horizon=T))
        return TipasPredictor(params, name=name, horizon_filter=horizon_filter)

    return factory


def make_windows(start: float, end: float, width: float) -> list[tuple[float, float]]:
    """Consecutive fixed-width windows covering [start, end]."""
    if width <= 0 or end <= start:
        raise InvalidInputError("need width > 0 and end > start")
    out = []
    s = start
    while s + width <= end + 1e-9:
        out.append((s, s + width))
        s += width
    return out


def rolling_window_eval(
    histories: Sequence[UserHistory],
    model_factory: Callable[[Sequence[UserHistory], float], object],
    windows: Sequence[tuple[float, float]],
    *,
    n_actions: int,
    horizon_filter: float = 12.0,
    with_time: bool = True,
) -> EvalReport:
    """Fit on window k, score window k+1, for every consecutive pair.

    Predictions for a test event condition on every earlier event from the
    training window onward (test events included) without refitting; the
    time axis is shifted so each training window starts at zero.  Windows
    should start on day boundaries or the time-of-day structure would shift.
    ``horizon_filter`` must be positive and finite; it is checked before
    any fit.

    ``model.walk(user, times, actions)`` starts from a user's training events
    and each test event gets ``time()`` (after an earlier event), ``action(t)``
    and ``add(t, a)``; models without ``walk`` answer from prefix views.
    """
    _check_horizon_filter(horizon_filter)
    if len(windows) < 2:
        raise InvalidInputError("need at least two windows")
    report = EvalReport(horizon_filter=horizon_filter, n_actions=n_actions)
    by_user = {h.user: h for h in sorted(histories, key=lambda h: h.user)}

    all_preds: list[int] = []
    all_truths: list[int] = []
    all_errors: list[float] = []

    for pair_idx, ((tr_s, tr_e), (te_s, te_e)) in enumerate(
        zip(windows[:-1], windows[1:])
    ):
        if tr_s % DAY_HOURS != 0:
            logger.warning(
                "window start %.3f is not a day boundary; time-of-day patterns shift",
                tr_s,
            )
        # per user: the training events, then the test events, on a clock
        # that starts with the training window; and the training count
        cut = {}
        for u, h in by_user.items():
            times, acts = h.times(), h.actions()
            tr_lo, tr_hi, te_lo, te_hi = np.searchsorted(times, (tr_s, tr_e, te_s, te_e))
            keep = np.r_[tr_lo:tr_hi, te_lo:te_hi]
            cut[u] = (times[keep] - tr_s, acts[keep], int(tr_hi - tr_lo))
        train = [
            UserHistory.from_arrays(u, t[:n], a[:n]) for u, (t, a, n) in cut.items() if n
        ]
        n_test = sum(t.size - n for t, _, n in cut.values())
        if not train or not n_test:
            logger.warning(
                "skipping window pair %d: %d training users, %d test events",
                pair_idx,
                len(train),
                n_test,
            )
            continue
        model = model_factory(train, tr_e - tr_s)

        w = WindowResult(train_start=tr_s, train_end=tr_e, test_end=te_e)
        w_preds: list[int] = []
        w_truths: list[int] = []
        w_errors: list[float] = []
        does_action = getattr(model, "supports_action", False)
        does_time = with_time and getattr(model, "supports_time", False)

        for u, (times, acts, n_train) in cut.items():
            if times.size == n_train:
                continue
            if not n_train:
                w.n_coldstart += 1
            walk = (model.walk(u, times[:n_train], acts[:n_train]) if hasattr(model, "walk")
                    else _PrefixWalk(model, u, times, acts, n_train))
            for k in range(n_train, times.size):
                t_loc, a_loc = float(times[k]), int(acts[k])
                if does_time and k:
                    w.n_time_predictions += 1
                    pred_t = walk.time()
                    if pred_t is None or math.isnan(pred_t):
                        w.n_censored += 1
                    elif t_loc - times[k - 1] <= horizon_filter:
                        w_errors.append(abs(pred_t - t_loc))
                if does_action:
                    w_preds.append(walk.action(t_loc))
                    w_truths.append(a_loc)
                walk.add(t_loc, a_loc)

        fill_scores(w, w_preds, w_truths, w_errors, n_actions)
        report.windows.append(w)
        all_preds.extend(w_preds)
        all_truths.extend(w_truths)
        all_errors.extend(w_errors)
        report.n_censored += w.n_censored
        report.n_coldstart += w.n_coldstart

    return finalize_report(report, all_preds, all_truths, all_errors)
