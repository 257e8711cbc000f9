"""Exact data log-likelihood: event term plus analytic compensator.

The log-likelihood of histories observed on [0, T] is

    sum_events log lam_u(t_n, a_n)  -  sum_u int_0^T sum_a lam_u(t, a) dt

The integral (compensator) has a closed form at any horizon:

    T sum alpha  +  U sum beta * mass  +  sum theta * Q  +  sum phi * R

``model.background_mass`` gives ``mass``, the integral of each unit-weight
Gaussian component over [0, T]: its truncated day mass
``(erf(mu / (sqrt(2) sigma)) + erf((24 - mu) / (sqrt(2) sigma))) / 2`` once
per whole day plus its truncated mass up to the time of day at which T ends.
``tail_masses`` gives ``Q`` and ``R``, the partially-integrated kernel tails
``1 - exp(-omega (T - t))`` and ``1 - exp(-gamma (T - t)^kappa)`` summed per
parameter cell.  The EM M step reads the same two functions, so the fit
maximizes exactly the objective reported here.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._panel import EventPanel, WeibullPairs, build_panel, check_histories, decay_sums
from .errors import NumericalFailureError
from .model import (
    ModelParams,
    UserHistory,
    _background_total,
    _StreamState,
    gaussian_density,
    tod_categories,
    weibull_kernel,
)

logger = logging.getLogger(__name__)

LOG_FLOOR = 1e-300


@dataclass(frozen=True)
class LogLikValue:
    """Event term, compensator and their difference.

    ``total == event_term - compensator`` always; ``offenders`` names up to
    five (user, event index) pairs whose intensity was zero or floored.
    """

    event_term: float
    compensator: float
    total: float
    n_floored: int = 0
    offenders: tuple[tuple[str, int], ...] = ()


def _alpha_matrix(params: ModelParams, users: Sequence[str]) -> np.ndarray:
    """Alpha rows of ``users``, zeros for users unknown to the params."""
    if not users:
        return np.zeros((0, params.structure.n_actions))
    return np.stack([params.alpha_row(u) for u in users])


def event_contributions(
    params: ModelParams, panel: EventPanel
) -> tuple[
    np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, WeibullPairs, np.ndarray,
]:
    """Additive intensity pieces at every observed event.

    Returns ``(a0, bg, q_raw, q_dt_raw, r_raw, pairs, lam)`` where ``a0``
    (N,) is the preference term, ``bg`` (N, Z) the per-mixture background,
    ``q_raw`` (N, A) the short-term term per (event, source action),
    ``q_dt_raw`` (N, A) the same with each pair's term weighted by its gap,
    ``pairs`` the panel's :meth:`~EventPanel.live_pairs` at ``params``,
    ``r_raw`` the Weibull value of each of them, and ``lam`` (N,) the sum of
    ``a0``, ``bg``, ``q_raw`` and ``r_raw`` per event, i.e. the intensity at
    (t_n, a_n).  The Weibull kernel runs one cell at a time with the cell's
    parameters as scalars; every same-action pair left out of ``pairs`` has
    a kernel of exactly 0.
    """
    n = panel.n_events
    alpha_panel = _alpha_matrix(params, panel.users)
    a0 = alpha_panel[panel.ev_user, panel.ev_a] if n else np.zeros(0)
    mu = params.mu[panel.ev_a]
    sigma = params.sigma[panel.ev_a]
    bg = params.beta[panel.ev_a] * gaussian_density(panel.ev_tod[:, None], mu, sigma)
    K, G = decay_sums(panel, params.omega)
    theta_omega = (params.theta * params.omega)[:, panel.ev_a].T  # (N, A)
    q_raw = theta_omega * K
    q_dt_raw = theta_omega * G
    pairs = panel.live_pairs(params.phi, params.gamma, params.kappa)
    r_raw = np.empty(pairs.dst.size)
    phi, gamma, kappa = (w.ravel().tolist() for w in (params.phi, params.gamma, params.kappa))
    for c, cell in pairs.cells():
        r_raw[cell] = weibull_kernel(pairs.log_dt[cell], phi[c], gamma[c], kappa[c])
    lam = a0 + bg.sum(axis=1)
    lam += q_raw.sum(axis=1)
    lam += np.bincount(pairs.dst, weights=r_raw, minlength=n)
    return a0, bg, q_raw, q_dt_raw, r_raw, pairs, lam


def tail_masses(
    params: ModelParams, tails: np.ndarray, actions: np.ndarray, cats: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Kernel tails integrated over the ``tails`` hours left after each event.

    Returns ``Q`` (A, A) with ``Q[a', a]`` the sum over events of action a'
    of ``1 - exp(-omega[a', a] s)``, and ``R`` (C, A) with ``R[c, a]`` the
    sum over events of action a in category c of
    ``1 - exp(-gamma[c, a] s^kappa[c, a])``.  Their share of the compensator
    is ``sum(theta * Q) + sum(phi * R)``.
    """
    n_act = params.structure.n_actions
    q = np.bincount(
        (actions[:, None] * n_act + np.arange(n_act)).reshape(-1),
        weights=-np.expm1(-params.omega[actions] * tails[:, None]).reshape(-1),
        minlength=n_act * n_act,
    ).reshape(n_act, n_act)
    with np.errstate(over="ignore"):
        powered = tails ** params.kappa[cats, actions]
    r = np.bincount(
        cats * n_act + actions,
        weights=-np.expm1(-params.gamma[cats, actions] * powered),
        minlength=params.structure.n_categories * n_act,
    ).reshape(-1, n_act)
    return q, r


def _compensator(
    params: ModelParams,
    upto: float,
    users: Sequence[str],
    tails: np.ndarray,
    actions: np.ndarray,
    cats: np.ndarray,
) -> float:
    """``upto * sum(alpha) + U * background + sum(theta * Q) + sum(phi * R)``
    for ``users`` whose events before ``upto`` are given per event: the
    hours ``tails`` left to ``upto``, the actions and the categories."""
    total = upto * float(_alpha_matrix(params, users).sum())
    total += len(users) * float(_background_total(params, upto))
    q, r = tail_masses(params, tails, actions, cats)
    return total + float((params.theta * q).sum() + (params.phi * r).sum())


def log_likelihood(
    params: ModelParams, histories: Sequence[UserHistory], T: float
) -> LogLikValue:
    """Exact log-likelihood of ``histories`` on [0, T] under ``params``."""
    panel = build_panel(histories, params.structure, T)
    lam = event_contributions(params, panel)[-1]
    return _assemble_loglik(params, panel, lam)


def _assemble_loglik(
    params: ModelParams, panel: EventPanel, lam: np.ndarray
) -> LogLikValue:
    if np.any(np.isnan(lam)):
        bad = int(np.flatnonzero(np.isnan(lam))[0])
        raise NumericalFailureError(
            f"NaN intensity at event {panel.event_label(bad)}"
        )
    offenders: tuple[tuple[str, int], ...] = ()
    n_floored = 0
    if lam.size and lam.min() < LOG_FLOOR:
        low = np.flatnonzero(lam < LOG_FLOOR)
        n_floored = int(low.size)
        offenders = tuple(panel.event_label(i) for i in low[:5])
        if np.any(lam[low] <= 0.0):
            logger.warning(
                "zero intensity at %d observed event(s), first %s; "
                "log-likelihood is -inf",
                n_floored,
                offenders[0],
            )
            event_term = -math.inf
        else:
            logger.warning(
                "floored %d event intensit(ies) below %.0e, first %s",
                n_floored,
                LOG_FLOOR,
                offenders[0],
            )
            event_term = float(np.log(np.maximum(lam, LOG_FLOOR)).sum())
    else:
        event_term = float(np.log(lam).sum()) if lam.size else 0.0
    comp = _compensator(
        params, panel.T, panel.users, panel.ev_tail, panel.ev_a, panel.ev_cat
    )
    if math.isnan(event_term) or math.isnan(comp):
        raise NumericalFailureError("log-likelihood evaluated to NaN")
    return LogLikValue(
        event_term=event_term,
        compensator=comp,
        total=event_term - comp,
        n_floored=n_floored,
        offenders=offenders,
    )


def analytic_compensator(
    params: ModelParams, histories: Sequence[UserHistory], T: float
) -> float:
    """Closed-form integral of the total intensity over [0, T], all users."""
    check_histories(histories, params.structure, T)
    times = np.concatenate([np.empty(0), *(h.times() for h in histories)])
    actions = np.concatenate([np.empty(0, np.int64), *(h.actions() for h in histories)])
    cats = tod_categories(params.structure, times)
    return _compensator(params, T, [h.user for h in histories], T - times, actions, cats)


def rescaled_interarrivals(params: ModelParams, history: UserHistory) -> np.ndarray:
    """Compensator increments between consecutive events of one user.

    Under the generating model these are i.i.d. Exp(1) (time-rescaling), so
    they feed straight into a Kolmogorov-Smirnov goodness-of-fit test.  One
    stream state walks the history, adding each event after its increment.
    """
    state = _StreamState(
        params, params.alpha_row(history.user), np.empty(0), np.empty(0, dtype=np.int64)
    )
    out = []
    for t, a in zip(history.times().tolist(), history.actions().tolist()):
        out.append(float(state.increments(np.array([t - state.clock]))[0]))
        state.add(t, a)
    return np.array(out)
