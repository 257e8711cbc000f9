"""Exact sampling of the process by thinning, plus synthetic-data generation.

Ogata thinning against a dominating rate that holds until the next event:
the preference and background parts at their global peaks, the exponential
part at its (decreasing) current value, and each Weibull term at its
current value, or at its mode peak while the mode still lies ahead.  The
rate is rebuilt after every candidate and after every hour without one.
Candidates arrive at the dominating rate and are accepted with probability
``lam(t) / lam_bar``; accepted candidates pick their action proportionally
to the per-action intensities.

One :class:`_ThinningState` per stream carries the rate forward in time, so
no evaluation rescans the history: the exponential part is an A x A state
decayed from the last event (Ozaki's recursion), and the Weibull part is a
list of the sources that can still move the rate.
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
    DAY_HOURS,
    TIE_EPSILON,
    EventRecord,
    HistoryPrefix,
    ModelParams,
    UserHistory,
    _prefix_arrays,
    tod_categories,
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


class _ThinningState:
    """The dominating rate and the intensity of one stream, moved forward in time.

    Built once from a history in O(n A^2); afterwards ``bound(t)`` and
    ``intensity(t)`` cost O(A^2 + live Weibull sources) and ``add(t, a)``
    appends an event, copying only the live sources.  Times passed to the
    three methods must not decrease and must not precede the history.
    """

    def __init__(
        self,
        params: ModelParams,
        alpha_row: np.ndarray,
        times: np.ndarray,
        actions: np.ndarray,
        cats: np.ndarray,
    ) -> None:
        peaks = params._rate_peaks
        self._structure = params.structure
        self._alpha_row = alpha_row
        # background: the bound takes the sum of the Gaussians' peaks and the
        # intensity scales each peak by its exp(-z^2 / 2)
        self._mu, self._sigma = params.mu, params.sigma
        self._bg_peak = peaks.background
        self._const = float(alpha_row.sum()) + peaks.background_total

        # Exponential part: ``_mass[a', a]`` sums the terms of the folded
        # sources of action a', decayed to ``_clock``, the time of the last
        # event.  A source is folded in once an evaluation lies at least
        # TIE_EPSILON after it; until then it sits in ``_recent`` and, as
        # clamp_gaps does, counts at the gap TIE_EPSILON (row ``_tied``).
        self._theta_omega, self._tied = peaks.theta_omega, peaks.tied
        self._tied_total = peaks.tied_total
        self._neg_omega = -params.omega
        self._clock = float(times[-1]) if times.size else 0.0
        gaps = self._clock - times
        m = int(np.count_nonzero(gaps >= TIE_EPSILON))  # times are sorted
        src = actions[:m]
        by_source = np.eye(len(self._neg_omega))[src].T  # (A, m) one-hot
        self._mass = self._theta_omega * (
            by_source @ np.exp(self._neg_omega[src] * gaps[:m, None])
        )
        self._recent = list(zip(times[m:].tolist(), actions[m:].tolist()))

        # Weibull part: the live sources, one column each in ``_live``: time,
        # then the constants of their cell (RatePeaks.weibull).  Cells whose
        # kernel is identically 0 add exactly nothing and are left out.
        self._cells, self._live_cell = peaks.weibull, peaks.weibull_live
        keep = self._live_cell[cats, actions]
        self._set_live(
            np.vstack([times[keep], self._cells[:, cats[keep], actions[keep]]]),
            actions[keep],
        )
        # Past its mode a Weibull term only falls.  Below 2^-80 of the
        # constant part even a million such terms move the rate by under
        # 1e-18 of itself, so the first bound after each added event drops
        # them (a one-off bound on the history skips the pruning).
        self._negligible = self._const * 2.0**-80
        self._pruned = True

    def _set_live(self, live: np.ndarray, actions: np.ndarray) -> None:
        self._live, self._live_act = live, actions
        (
            self._t_src,
            self._kappa,
            self._kappa_m1,
            self._neg_gamma,
            self._scale,
            self._mode,
            self._peak,
        ) = self._live

    def _decay(self, t: float) -> np.ndarray:
        """Factors that decay ``_mass`` from the clock to ``t``, after folding
        in the recent sources that ``t`` lies at least TIE_EPSILON after."""
        recent = []
        for t_j, a_j in self._recent:
            if t - t_j >= TIE_EPSILON:
                self._mass[a_j] += self._theta_omega[a_j] * np.exp(
                    self._neg_omega[a_j] * (self._clock - t_j)
                )
            else:
                recent.append((t_j, a_j))
        self._recent = recent
        return np.exp(self._neg_omega * (t - self._clock))

    def _weibull(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        """Gaps to the live Weibull sources and their terms at ``t``: the
        arithmetic of clamp_gaps and weibull_kernel, with the per-cell
        factors precomputed."""
        dt = np.maximum(t - self._t_src, TIE_EPSILON)
        log_dt = np.log(dt)
        power = np.exp(np.minimum(self._kappa * log_dt, 709.0))
        return dt, self._scale * np.exp(self._kappa_m1 * log_dt + self._neg_gamma * power)

    def bound(self, t: float) -> float:
        """A rate dominating the total intensity from ``t`` until the next event."""
        decay = self._decay(t)
        bound = self._const + (
            float(np.vdot(self._mass, decay))
            + sum(self._tied_total[a_j] for _, a_j in self._recent)
        )
        if not self._live_act.size:
            return bound
        dt, h = self._weibull(t)
        rising = dt < self._mode
        # decreasing beyond the mode, so the window sup sits at the left edge
        bound += float(np.where(rising, self._peak, h).sum())
        if not self._pruned:
            self._pruned = True
            kept = rising | (h > self._negligible)
            if not kept.all():
                self._set_live(self._live[:, kept], self._live_act[kept])
        return bound

    def intensity(self, t: float) -> np.ndarray:
        """Intensity of every action at ``t``, shape (A,)."""
        z = (t % DAY_HOURS - self._mu) / self._sigma
        lam = (
            self._alpha_row
            + (self._bg_peak * np.exp(-0.5 * z * z)).sum(axis=1)
            + (self._mass * self._decay(t)).sum(axis=0)
        )
        for _, a_j in self._recent:
            lam += self._tied[a_j]
        if self._live_act.size:
            np.add.at(lam, self._live_act, self._weibull(t)[1])
        return lam

    def add(self, t: float, a: int) -> None:
        """Append an event of action ``a`` at time ``t``."""
        self._mass *= np.exp(self._neg_omega * (t - self._clock))
        self._clock = t
        self._recent.append((t, a))
        c = int(tod_categories(self._structure, t))
        if self._live_cell[c, a]:
            column = np.concatenate([[t], self._cells[:, c, a]])
            self._set_live(
                np.column_stack([self._live, column]),
                np.concatenate([self._live_act, [a]]),
            )
            self._pruned = False


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
    return _ThinningState(params, params.alpha_row(user), times, actions, cats).bound(t)


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
    state = _ThinningState(params, alpha_row, times, actions, cats)
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
