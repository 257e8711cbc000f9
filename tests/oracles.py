"""Independent references for the package's exact intensity and compensator.

``quadrature_compensator`` integrates the total intensity numerically, kept
deliberately independent of the closed form so that the two can be used as
oracles for each other.  ``integrated_total_intensity`` is the closed form
for one user up to any time.  The per-term intensities (background,
short-term, long-term) and their sum evaluate one action at one time by
rescanning the prefix, and ``tod_category`` is the scalar form of
``tod_categories``.  ``pair_panel`` and ``pair_event_contributions`` are the
all-pairs form of the panel and the event terms: every ordered event pair of
a user is stored with its clamped gap and summed directly.
"""

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import integrate

from tipas.errors import InvalidInputError, NumericalFailureError
from tipas._panel import check_histories
from tipas.likelihood import _alpha_matrix, _compensator
from tipas.model import (
    DAY_HOURS,
    HistoryPrefix,
    ModelParams,
    ModelStructure,
    UserHistory,
    _background_vector,
    _intensity_vector_arrays,
    _prefix_arrays,
    clamp_gaps,
    exp_kernel,
    gaussian_density,
    time_of_day,
    tod_categories,
    weibull_kernel,
)


def quadrature_compensator(
    params: ModelParams,
    histories: Sequence[UserHistory],
    T: float,
    n_panels: int = 2000,
) -> float:
    """Numeric integral of the total intensity; independent check of the closed form.

    The integrand is only piecewise smooth (it jumps at events and at
    midnight because the background is not wrapped), so integration panels
    are aligned to those breakpoints and adaptively refined inside each.
    """
    if n_panels < 1:
        raise InvalidInputError("n_panels must be >= 1")
    total = 0.0
    err_budget = 0.0
    for hist in histories:
        times = hist.times()
        actions = hist.actions()
        if times.size and times.max() > T:
            raise InvalidInputError(
                f"user {hist.user!r} has events beyond T={T}"
            )
        cats = tod_categories(params.structure, times)
        alpha_row = params.alpha_row(hist.user)
        breaks = np.unique(
            np.concatenate(
                [
                    np.array([0.0, T]),
                    times[times < T],
                    np.arange(DAY_HOURS, T, DAY_HOURS),
                ]
            )
        )

        preference = float(alpha_row.sum())
        theta, omega = params.theta[actions], params.omega[actions]
        phi, gamma = params.phi[cats, actions], params.gamma[cats, actions]
        kappa = params.kappa[cats, actions]

        def rate(t: float, k: int) -> float:
            # kernels at the true gap: inside a panel t lies strictly after
            # the k earlier events, so no gap needs the TIE_EPSILON floor
            d = t - times[:k]
            lam = preference + _background_vector(params, t).sum()
            lam += exp_kernel(d[:, None], theta[:k], omega[:k]).sum()
            lam += weibull_kernel(d, phi[:k], gamma[:k], kappa[:k]).sum()
            return float(lam)

        for lo, hi in zip(breaks[:-1], breaks[1:]):
            k = int(np.searchsorted(times, lo, side="right"))
            pieces = max(1, int(round(n_panels * (hi - lo) / T)))
            edges = np.linspace(lo, hi, pieces + 1)
            for a, b in zip(edges[:-1], edges[1:]):
                res = integrate.quad(
                    rate, a, b, args=(k,), limit=200, epsabs=1e-12, epsrel=1e-10,
                    full_output=1,
                )
                total += res[0]
                err_budget += res[1]
    if err_budget > 1e-6 * max(1.0, abs(total)):
        raise NumericalFailureError(
            f"quadrature error estimate {err_budget:.3e} too large for "
            f"compensator {total:.6e}"
        )
    return total


def integrated_total_intensity(
    params: ModelParams, history: UserHistory, upto: float
) -> float:
    """Exact integral of the user's total intensity over [0, upto]."""
    if upto < 0 or not math.isfinite(upto):
        raise InvalidInputError(f"upto must be finite and >= 0, got {upto}")
    before = history.until(upto, inclusive=False)
    cats = tod_categories(params.structure, before.times())
    return _compensator(
        params, upto, [history.user], upto - before.times(), before.actions(), cats
    )


def tod_category(t: float, structure: ModelStructure) -> int:
    """Index of the time-of-day window containing ``time_of_day(t)``."""
    return int(tod_categories(structure, time_of_day(t)))


def background_intensity(params: ModelParams, a: int, t: float) -> float:
    """Gaussian-mixture background rate of action ``a`` at time ``t``."""
    _check_action(params, a)
    return float(_background_vector(params, t)[a])


def short_term_intensity(
    params: ModelParams, history_prefix: HistoryPrefix, a: int, t: float
) -> float:
    """Cross-excitation rate at ``t`` from all earlier events.

    Every prefix event contributes ``theta[a', a] * omega[a', a] *
    exp(-omega[a', a] * (t - t'))``.
    """
    _check_action(params, a)
    times, actions, _ = _prefix_arrays(params.structure, history_prefix, t)
    if not times.size:
        return 0.0
    dt = clamp_gaps(t - times)
    vals = exp_kernel(dt, params.theta[actions, a], params.omega[actions, a])
    return float(vals.sum())


def long_term_intensity(
    params: ModelParams, history_prefix: HistoryPrefix, a: int, t: float
) -> float:
    """Periodic-recurrence rate at ``t`` from earlier events of the same action.

    Each same-action event contributes a Weibull hazard whose parameters are
    selected by the time-of-day category of that earlier event.
    """
    _check_action(params, a)
    times, actions, cats = _prefix_arrays(params.structure, history_prefix, t)
    mask = actions == a
    if not mask.any():
        return 0.0
    dt = clamp_gaps(t - times[mask])
    c = cats[mask]
    vals = weibull_kernel(dt, params.phi[c, a], params.gamma[c, a], params.kappa[c, a])
    return float(vals.sum())


def total_intensity(
    params: ModelParams,
    user: str,
    history_prefix: HistoryPrefix,
    a: int,
    t: float,
) -> float:
    """Full conditional intensity of action ``a`` for ``user`` at time ``t``."""
    _check_action(params, a)
    times, actions, cats = _prefix_arrays(params.structure, history_prefix, t)
    lam = _intensity_vector_arrays(params, params.alpha_row(user), times, actions, cats, t)
    return float(lam[a])


def _check_action(params: ModelParams, a: int) -> None:
    if not 0 <= a < params.structure.n_actions:
        raise InvalidInputError(
            f"action {a} out of range for {params.structure.n_actions} actions"
        )


@dataclass(frozen=True)
class PairPanel:
    """Per-event arrays and every event pair.  ``sp_*`` hold every ordered
    pair (m < n within one user), ``lp_*`` the same-action subset; all gaps
    are clamped for ties.  Cells index the flattened parameter arrays:
    ``sp_cell = a_src * A + a_dst``, ``lp_cell = c_src * A + a``."""

    structure: ModelStructure
    T: float
    users: tuple[str, ...]

    # per event, length N
    ev_user: np.ndarray
    ev_t: np.ndarray
    ev_a: np.ndarray
    ev_tod: np.ndarray
    ev_cat: np.ndarray
    ev_tail: np.ndarray
    ev_pos: np.ndarray

    # every (earlier m, later n) pair within a user, length P
    sp_src: np.ndarray
    sp_dst: np.ndarray
    sp_dt: np.ndarray
    sp_cell: np.ndarray

    # same-action subset, length L
    lp_src: np.ndarray
    lp_dst: np.ndarray
    lp_dt: np.ndarray
    lp_cell: np.ndarray

    @property
    def n_events(self) -> int:
        return int(self.ev_t.size)


def pair_panel(
    histories: Sequence[UserHistory], structure: ModelStructure, T: float
) -> PairPanel:
    """The all-pairs panel of ``histories``: O(n^2) pairs per user."""
    check_histories(histories, structure, T)
    users = tuple(h.user for h in histories)

    def joined(parts, dtype=np.int64):
        return np.concatenate([np.empty(0, dtype=dtype), *parts])

    lengths = np.array([len(h) for h in histories], dtype=np.int64)
    starts = np.cumsum(lengths) - lengths
    ev_t_arr = joined((h.times() for h in histories), np.float64)
    ev_a_arr = joined(h.actions() for h in histories)
    ev_user_arr = np.repeat(np.arange(len(histories), dtype=np.int64), lengths)
    ev_pos_arr = np.arange(ev_t_arr.size, dtype=np.int64) - starts[ev_user_arr]
    pairs = [np.triu_indices(n, k=1) for n in lengths.tolist()]
    sp_src_arr = joined(src + s for (src, _), s in zip(pairs, starts.tolist()))
    sp_dst_arr = joined(dst + s for (_, dst), s in zip(pairs, starts.tolist()))

    ev_tod = ev_t_arr % DAY_HOURS
    ev_cat = tod_categories(structure, ev_tod)

    sp_dt = clamp_gaps(ev_t_arr[sp_dst_arr] - ev_t_arr[sp_src_arr])
    a_src, a_dst = ev_a_arr[sp_src_arr], ev_a_arr[sp_dst_arr]
    same = a_src == a_dst
    lp_src = sp_src_arr[same]
    lp_dst = sp_dst_arr[same]
    return PairPanel(
        structure=structure,
        T=float(T),
        users=users,
        ev_user=ev_user_arr,
        ev_t=ev_t_arr,
        ev_a=ev_a_arr,
        ev_tod=ev_tod,
        ev_cat=ev_cat,
        ev_tail=T - ev_t_arr,
        ev_pos=ev_pos_arr,
        sp_src=sp_src_arr,
        sp_dst=sp_dst_arr,
        sp_dt=sp_dt,
        sp_cell=a_src * structure.n_actions + a_dst,
        lp_src=lp_src,
        lp_dst=lp_dst,
        lp_dt=sp_dt[same],
        lp_cell=ev_cat[lp_src] * structure.n_actions + ev_a_arr[lp_dst],
    )


def pair_event_contributions(
    params: ModelParams, panel: PairPanel
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Additive intensity pieces at every observed event, pair by pair.

    Returns ``(a0, bg, q_raw, r_raw, lam)`` where ``a0`` (N,) is the
    preference term, ``bg`` (N, Z) the per-mixture background, ``q_raw`` (P,)
    and ``r_raw`` (L,) the per-pair kernel values, and ``lam`` (N,) their sum
    per event, i.e. the intensity at (t_n, a_n).
    """
    n = panel.n_events
    alpha_panel = _alpha_matrix(params, panel.users)
    a0 = alpha_panel[panel.ev_user, panel.ev_a] if n else np.zeros(0)
    mu = params.mu[panel.ev_a]
    sigma = params.sigma[panel.ev_a]
    bg = params.beta[panel.ev_a] * gaussian_density(panel.ev_tod[:, None], mu, sigma)
    sp, lp = panel.sp_cell, panel.lp_cell
    q_raw = exp_kernel(panel.sp_dt, params.theta.ravel()[sp], params.omega.ravel()[sp])
    r_raw = weibull_kernel(
        panel.lp_dt,
        params.phi.ravel()[lp],
        params.gamma.ravel()[lp],
        params.kappa.ravel()[lp],
    )
    lam = a0 + bg.sum(axis=1)
    lam += np.bincount(panel.sp_dst, weights=q_raw, minlength=n)
    lam += np.bincount(panel.lp_dst, weights=r_raw, minlength=n)
    return a0, bg, q_raw, r_raw, lam
