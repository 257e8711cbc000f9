"""Domain types and conditional-intensity evaluation.

The rate at which user ``u`` performs action ``a`` at time ``t`` (hours) is

    lam_u(t, a) = alpha[u, a]                                   (preference)
                + sum_z beta[a, z] * N(tod(t); mu[a, z], sigma[a, z]^2)
                + sum_{t' < t} theta[a', a] * omega[a', a] * exp(-omega[a', a] * d)
                + sum_{t' < t, a' = a} phi[c', a] * gamma[c', a] * kappa[c', a]
                      * d^(kappa[c', a] - 1) * exp(-gamma[c', a] * d^kappa[c', a])

where ``d = t - t'``, ``tod(t) = t mod 24`` is the hour-of-day of ``t``,
``N`` is the Gaussian density (not wrapped at midnight), and ``c'`` is the
time-of-day category of the earlier event.  All times are hours, all rates
per hour, and a day is ``DAY_HOURS`` = 24 hours.

Everything here except ``_StreamState``, which its one caller advances, is
immutable and side-effect free, so evaluations are safe to run from any
number of threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, NamedTuple, Union

import numpy as np
from scipy.special import erf

from .errors import InvalidInputError

# Length of a day in hours.  Every time in the package is in hours, and the
# background and the time-of-day categories repeat with this period.
DAY_HOURS = 24.0

# Floor on event-time gaps: two events logged at the same instant would make
# the Weibull kernel diverge for kappa < 1, so ties are pushed apart by this
# much (hours).
TIE_EPSILON = 1e-6

_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _check_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise InvalidInputError(f"{name} must be finite, got {value!r}")
    return value


def check_positive(name: str, value: float) -> None:
    """Reject a ``value`` that is not a positive finite number, NaN included."""
    if not (value > 0 and math.isfinite(value)):
        raise InvalidInputError(f"{name} must be positive and finite, got {value!r}")


@dataclass(frozen=True)
class EventRecord:
    """One (action, timestamp) observation; ``t`` is hours since stream start."""

    action: int
    t: float

    def __post_init__(self) -> None:
        if self.action < 0:
            raise InvalidInputError(f"action index must be >= 0, got {self.action}")
        t = _check_finite("event time", self.t)
        if t < 0:
            raise InvalidInputError(f"event time must be >= 0, got {t}")


@dataclass(frozen=True, eq=False, init=False)
class UserHistory:
    """A user's chronologically sorted events as two read-only arrays.

    ``UserHistory(user, events)`` converts EventRecords once and
    ``UserHistory.from_arrays(user, times, actions)`` takes the arrays.  Both
    require times sorted, finite and >= 0 and actions >= 0, and keep a copy
    of the input.  Ties are allowed and keep their input order.
    """

    user: str
    _times: np.ndarray = field(repr=False)
    _actions: np.ndarray = field(repr=False)

    def __init__(self, user: str, events: Iterable[EventRecord]) -> None:
        events = tuple(events)
        self._store(user, [e.t for e in events], [e.action for e in events])

    @classmethod
    def from_arrays(cls, user: str, times, actions) -> UserHistory:
        history = cls.__new__(cls)
        history._store(user, times, actions)
        return history

    def _store(self, user: str, times, actions) -> None:
        times, actions = np.array(times, np.float64), np.array(actions, np.int64)
        if times.ndim != 1 or times.shape != actions.shape:
            raise InvalidInputError(
                f"history for user {user!r} needs 1-D times and actions of one length"
            )
        if not np.all(np.isfinite(times) & (times >= 0)) or np.any(actions < 0):
            raise InvalidInputError(
                f"history for user {user!r} needs finite times >= 0 and actions >= 0"
            )
        drops = np.flatnonzero(times[1:] < times[:-1])
        if drops.size:
            raise InvalidInputError(
                f"history for user {user!r} is not sorted by time "
                f"({times[drops[0]]} followed by {times[drops[0] + 1]})"
            )
        times.flags.writeable = actions.flags.writeable = False
        object.__setattr__(self, "user", user)
        object.__setattr__(self, "_times", times)
        object.__setattr__(self, "_actions", actions)

    def __len__(self) -> int:
        return len(self._times)

    def times(self) -> np.ndarray:
        """Event times in hours: the stored read-only array, not a copy."""
        return self._times

    def actions(self) -> np.ndarray:
        """Action ids: the stored read-only array, not a copy."""
        return self._actions

    @cached_property
    def events(self) -> tuple[EventRecord, ...]:
        """The events as EventRecords, built on first access."""
        return tuple(map(EventRecord, self._actions.tolist(), self._times.tolist()))

    def until(self, t: float, *, inclusive: bool = True) -> UserHistory:
        """The events at or before ``t`` (before ``t`` unless ``inclusive``)."""
        k = int(np.searchsorted(self._times, t, side="right" if inclusive else "left"))
        return UserHistory.from_arrays(self.user, self._times[:k], self._actions[:k])


# A history prefix: a UserHistory, or EventRecords in time order.
HistoryPrefix = Union[UserHistory, Iterable[EventRecord]]


@dataclass(frozen=True)
class ModelStructure:
    """Structural constants: action count, mixture count, day layout, horizon.

    ``tod_edges`` are the boundaries of the half-open time-of-day windows;
    they must start at 0 and end at ``DAY_HOURS`` (24) so the windows
    partition one day exactly.
    """

    n_actions: int
    n_mixtures: int
    tod_edges: tuple[float, ...] = (0.0, 6.0, 12.0, 18.0, 24.0)
    horizon: float = 720.0

    def __post_init__(self) -> None:
        if self.n_actions < 1:
            raise InvalidInputError("n_actions must be >= 1")
        if self.n_mixtures < 1:
            raise InvalidInputError("n_mixtures must be >= 1")
        check_positive("horizon", self.horizon)
        edges = tuple(float(e) for e in self.tod_edges)
        object.__setattr__(self, "tod_edges", edges)
        if len(edges) < 2 or edges[0] != 0.0 or edges[-1] != DAY_HOURS:
            raise InvalidInputError(f"tod_edges must run from 0 to 24, got {edges}")
        if any(b <= a for a, b in zip(edges, edges[1:])):
            raise InvalidInputError(f"tod_edges must be strictly increasing, got {edges}")

    @property
    def n_categories(self) -> int:
        return len(self.tod_edges) - 1


def time_of_day(t: float) -> float:
    """Hours since the most recent midnight, in [0, 24)."""
    t = _check_finite("time", t)
    if t < 0:
        raise InvalidInputError(f"time must be >= 0, got {t}")
    return t % DAY_HOURS


def tod_categories(structure: ModelStructure, times) -> np.ndarray:
    """Index of the time-of-day window containing each of ``times``."""
    edges = np.asarray(structure.tod_edges)
    # the edges start at 0, so only a remainder rounded up to 24 needs a cap
    c = np.searchsorted(edges, np.asarray(times) % DAY_HOURS, side="right") - 1
    return np.minimum(c, structure.n_categories - 1).astype(np.int64, copy=False)


class RatePeaks(NamedTuple):
    """Per-cell constants of ModelParams that the stream state
    (:class:`_StreamState`) reads; ``ModelParams._rate_peaks`` builds them
    once per instance."""

    background: np.ndarray  # (A, Z) peak beta / (sigma sqrt(2 pi)) of each Gaussian
    background_total: float  # their sum
    theta_omega: np.ndarray  # (A, A) exponential kernel at lag 0
    tied: np.ndarray  # (A, A) exponential kernel at lag TIE_EPSILON
    tied_total: list[float]  # row sums of ``tied``, per source action
    one_hot: np.ndarray  # (A, A) identity: row a' is the one-hot of action a'
    omega_min: np.ndarray  # (A,) smallest omega of each source action
    # (7, C, A) Weibull kernel constants: kappa, kappa - 1, -gamma,
    # phi * gamma * kappa, the mode (0 where the kernel only falls, that is
    # kappa <= 1 or gamma = 0), the kernel's value there (at TIE_EPSILON
    # when the mode is 0) and phi
    weibull: np.ndarray
    weibull_live: np.ndarray  # (C, A) cells whose kernel is not identically 0


@dataclass(frozen=True)
class ModelParams:
    """All model parameters plus the structural constants.

    Shapes: ``alpha`` (U, A) with ``users`` giving the row order; ``beta``,
    ``mu``, ``sigma`` (A, Z); ``theta``, ``omega`` (A, A) indexed
    [source action, target action]; ``phi``, ``gamma``, ``kappa`` (C, A)
    indexed [source time-of-day category, action].

    Users absent from ``users`` get a zero ``alpha`` row (cold start) and
    share every other parameter.  Instances are immutable; the arrays are
    marked read-only.
    """

    structure: ModelStructure
    users: tuple[str, ...]
    alpha: np.ndarray
    beta: np.ndarray
    mu: np.ndarray
    sigma: np.ndarray
    theta: np.ndarray
    omega: np.ndarray
    phi: np.ndarray
    gamma: np.ndarray
    kappa: np.ndarray

    _user_index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        s = self.structure
        a, z, c = s.n_actions, s.n_mixtures, s.n_categories
        users = tuple(str(u) for u in self.users)
        object.__setattr__(self, "users", users)
        shapes = {
            "alpha": (len(users), a),
            "beta": (a, z),
            "mu": (a, z),
            "sigma": (a, z),
            "theta": (a, a),
            "omega": (a, a),
            "phi": (c, a),
            "gamma": (c, a),
            "kappa": (c, a),
        }
        for name, shape in shapes.items():
            arr = np.ascontiguousarray(getattr(self, name), dtype=np.float64)
            if arr.shape != shape:
                raise InvalidInputError(
                    f"{name} must have shape {shape}, got {arr.shape}"
                )
            if not np.all(np.isfinite(arr)):
                raise InvalidInputError(f"{name} contains non-finite entries")
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        for name in ("alpha", "beta", "theta", "omega", "phi", "gamma"):
            if np.any(getattr(self, name) < 0):
                raise InvalidInputError(f"{name} must be non-negative")
        if np.any(self.sigma <= 0):
            raise InvalidInputError("sigma must be strictly positive")
        if np.any(self.kappa <= 0):
            raise InvalidInputError("kappa must be strictly positive")
        if np.any(self.mu <= 0) or np.any(self.mu >= DAY_HOURS):
            raise InvalidInputError("mu must lie strictly inside (0, 24)")
        if len(set(users)) != len(users):
            raise InvalidInputError("duplicate user keys")
        object.__setattr__(self, "_user_index", {u: i for i, u in enumerate(users)})

    @cached_property
    def _rate_peaks(self) -> RatePeaks:
        """Per-cell constants that bound the kernels, computed once."""
        ph, ga, ka = self.phi, self.gamma, self.kappa
        safe_ga = np.where(ga > 0, ga, 1.0)
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            raw_mode = ((ka - 1.0) / (safe_ga * ka)) ** (1.0 / ka)
        mode = np.where((ka > 1.0) & (ga > 0) & np.isfinite(raw_mode), raw_mode, 0.0)
        peak = weibull_kernel(np.maximum(mode, TIE_EPSILON), ph, ga, ka)
        weibull = np.stack([ka, ka - 1.0, -ga, ph * ga * ka, mode, peak, ph])
        background = self.beta / (self.sigma * _SQRT_2PI)
        theta_omega = self.theta * self.omega
        tied = theta_omega * np.exp(-self.omega * TIE_EPSILON)
        one_hot = np.eye(self.structure.n_actions)
        for arr in (weibull, background, theta_omega, tied, one_hot):
            arr.flags.writeable = False
        return RatePeaks(
            background=background,
            background_total=float(background.sum()),
            theta_omega=theta_omega,
            tied=tied,
            tied_total=tied.sum(axis=1).tolist(),
            one_hot=one_hot,
            omega_min=self.omega.min(axis=1),
            weibull=weibull,
            weibull_live=weibull[3] > 0,
        )

    def alpha_row(self, user: str) -> np.ndarray:
        """Per-action preference rates for ``user``; zeros when unseen."""
        idx = self._user_index.get(user)
        if idx is None:
            return np.zeros(self.structure.n_actions)
        return self.alpha[idx]


# ---------------------------------------------------------------------------
# kernel evaluation on raw arrays (shared by the public ops, the EM engine,
# the simulator and the predictors)
# ---------------------------------------------------------------------------


def gaussian_density(x: np.ndarray, mu: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Elementwise N(x; mu, sigma^2)."""
    z = (x - mu) / sigma
    return np.exp(-0.5 * z * z) / (sigma * _SQRT_2PI)


def exp_kernel(dt: np.ndarray, theta: np.ndarray, omega: np.ndarray) -> np.ndarray:
    """Short-term kernel theta * omega * exp(-omega * dt)."""
    return theta * omega * np.exp(-omega * dt)


def weibull_kernel(
    dt: np.ndarray, phi: np.ndarray, gamma: np.ndarray, kappa: np.ndarray
) -> np.ndarray:
    """Long-term kernel phi * gamma * kappa * dt^(kappa-1) * exp(-gamma * dt^kappa).

    Evaluated in log space so that huge dt^kappa underflows to zero instead
    of producing inf * 0.  ``dt`` must be strictly positive.
    """
    log_dt = np.log(dt)
    with np.errstate(over="ignore"):
        power = np.exp(np.minimum(kappa * log_dt, 709.0))
    return phi * gamma * kappa * np.exp((kappa - 1.0) * log_dt - gamma * power)


def clamp_gaps(dt: np.ndarray) -> np.ndarray:
    """Push zero/negative gaps (timestamp ties) up to TIE_EPSILON."""
    return np.maximum(dt, TIE_EPSILON)


def _background_vector(params: ModelParams, t: float) -> np.ndarray:
    """Background intensity of every action at time t, shape (A,)."""
    tod = time_of_day(t)
    dens = gaussian_density(tod, params.mu, params.sigma)  # (A, Z)
    return (params.beta * dens).sum(axis=1)


def background_mass(mu, sigma, upto) -> np.ndarray:
    """Integral over [0, upto] of each unit-weight background component.

    Broadcasts over ``mu``, ``sigma`` and ``upto``.  Whole days contribute
    their truncated day mass and the partial day its truncated-Gaussian mass
    up to the remaining time of day; that second term is exactly zero when
    ``upto`` is a whole number of days.
    """
    full_days, rem = upto // DAY_HOURS, upto % DAY_HOURS
    s = math.sqrt(2.0) * sigma
    below = erf(mu / s)
    whole = full_days * (below + erf((DAY_HOURS - mu) / s))
    return (whole + (below + erf((rem - mu) / s))) / 2.0


def _background_total(params: ModelParams, upto) -> np.ndarray:
    """Integral of the summed background rate over [0, upto], elementwise."""
    upto = np.asarray(upto, dtype=np.float64)[..., None, None]
    mass = background_mass(params.mu, params.sigma, upto)
    return (params.beta * mass).sum(axis=(-2, -1))


def _intensity_vector_arrays(
    params: ModelParams,
    alpha_row: np.ndarray,
    times: np.ndarray,
    actions: np.ndarray,
    cats: np.ndarray,
    t: float,
) -> np.ndarray:
    """Total intensity of every action at time t given an array-form prefix."""
    # One-off queries rescan the prefix: building a _StreamState for one
    # query costs 25-34% more at 30-90 events (2-core x86 machine) and wins
    # only from about 900 events on.  It is also the oracle for the state.
    lam = alpha_row + _background_vector(params, t)
    if times.size:
        dt = clamp_gaps(t - times)  # (n,)
        om = params.omega[actions]  # (n, A)
        lam = lam + (params.theta[actions] * om * np.exp(-om * dt[:, None])).sum(axis=0)
        h = weibull_kernel(
            dt,
            params.phi[cats, actions],
            params.gamma[cats, actions],
            params.kappa[cats, actions],
        )
        np.add.at(lam, actions, h)
    return lam


class _StreamState:
    """The intensity of one stream after a history, moved forward in time:
    the simulator's dominating rate (``bound``) and ``intensity``, and the
    compensator from the last event (``increments``) that time prediction
    integrates.

    Built once from a history in O(n A^2); afterwards each call costs
    O(A^2 + live Weibull sources) per time or lag, and ``add(t, a)`` appends
    an event, copying only the live sources, which the next ``bound``,
    ``intensity`` or ``add`` prunes (see ``_negligible``); so a walk that
    only calls ``increments`` and ``add`` stays short too.  ``clock`` is the
    time of the last event (0 without one); later times must not decrease.
    ``params`` are the parameters it was built from.
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
        self.params = params
        self._alpha_row = alpha_row
        # background: the bound takes the sum of the Gaussians' peaks and the
        # intensity scales each peak by its exp(-z^2 / 2)
        self._mu, self._sigma = params.mu, params.sigma
        self._bg_peak = peaks.background
        self._alpha_sum = float(alpha_row.sum())
        self._const = self._alpha_sum + peaks.background_total

        # Exponential part: ``_mass[a', a]`` sums the terms of the folded
        # sources of action a', decayed to ``clock``.  A source is folded in
        # once an evaluation or an added event lies at least TIE_EPSILON
        # after it; until then it sits in ``_recent`` and, as clamp_gaps
        # does, counts at the gap TIE_EPSILON (row ``_tied``).
        self._theta_omega, self._tied = peaks.theta_omega, peaks.tied
        self._tied_total = peaks.tied_total
        self._neg_omega = -params.omega
        self.clock = float(times[-1]) if times.size else 0.0
        gaps = self.clock - times
        m = int(np.count_nonzero(gaps >= TIE_EPSILON))  # times are sorted
        src = actions[:m]
        # skip sources whose every term underflows to 0 (exp is slow on them)
        keep = gaps[:m] * peaks.omega_min[src] <= 746.0
        src, gaps = src[keep], gaps[:m][keep]
        self._mass = self._theta_omega * (
            peaks.one_hot[src].T @ np.exp(self._neg_omega[src] * gaps[:, None])
        )
        self._recent = list(zip(times[m:].tolist(), actions[m:].tolist()))
        self._decay_key = self._factors = None  # (t, clock) of the factors

        # Weibull part: the live sources, one column each in ``_live``: time,
        # then the constants of their cell (RatePeaks.weibull).  Cells whose
        # kernel is identically 0 add exactly nothing and are left out.
        self._cells, self._live_cell = peaks.weibull, peaks.weibull_live
        keep = self._live_cell[cats, actions]
        t_src, a_src = times[keep], actions[keep]
        live = np.empty((1 + len(self._cells), t_src.size))
        live[0] = t_src
        live[1:] = self._cells[:, cats[keep], a_src]
        self._set_live(live, a_src)
        # Past its mode a Weibull term only falls.  Below 2^-80 of the
        # constant part even a million such terms move the rate by under
        # 1e-18 of itself, so the first evaluation (bound or intensity) after
        # each added event drops them, or the next add if no evaluation came
        # between; one on the built history does not.
        self._negligible = self._const * 2.0**-80
        self._pruned = True

    def _set_live(self, live: np.ndarray, actions: np.ndarray) -> None:
        self._live, self._live_act = live, actions
        (self._t_src, self._kappa, self._kappa_m1, self._neg_gamma,
         self._scale, self._mode, self._peak, self._phi) = live

    def _decay(self, t: float) -> np.ndarray:
        """Factors that decay ``_mass`` from the clock to ``t``, after folding
        in the recent sources that ``t`` lies at least TIE_EPSILON after.
        The factors of the last (t, clock) are kept: ``add(t, a)`` after a
        query at ``t`` reuses them.  Callers must not write into them."""
        recent = []
        for t_j, a_j in self._recent:
            if t - t_j >= TIE_EPSILON:
                self._mass[a_j] += self._theta_omega[a_j] * np.exp(
                    self._neg_omega[a_j] * (self.clock - t_j)
                )
            else:
                recent.append((t_j, a_j))
        self._recent = recent
        if self._decay_key != (t, self.clock):
            self._decay_key = (t, self.clock)
            self._factors = np.exp(self._neg_omega * (t - self.clock))
        return self._factors

    def _weibull(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        """Gaps to the live Weibull sources and their terms at ``t``: the
        arithmetic of clamp_gaps and weibull_kernel, with the per-cell
        factors precomputed."""
        dt = np.maximum(t - self._t_src, TIE_EPSILON)
        log_dt = np.log(dt)
        power = np.exp(np.minimum(self._kappa * log_dt, 709.0))
        return dt, self._scale * np.exp(self._kappa_m1 * log_dt + self._neg_gamma * power)

    def _prune(self, dt: np.ndarray, h: np.ndarray) -> None:
        if not self._pruned:
            self._pruned = True
            kept = (dt < self._mode) | (h > self._negligible)
            if not kept.all():
                self._set_live(self._live[:, kept], self._live_act[kept])

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
        # decreasing beyond the mode, so the window sup sits at the left edge
        bound += float(np.where(dt < self._mode, self._peak, h).sum())
        self._prune(dt, h)
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
            dt, h = self._weibull(t)
            np.add.at(lam, self._live_act, h)
            self._prune(dt, h)
        return lam

    def increments(self, lags: np.ndarray) -> np.ndarray:
        """``Lambda(clock + s) - Lambda(clock)`` for every lag ``s`` in the
        array ``lags`` if no event follows; sources count at their true gaps
        (no TIE_EPSILON floor), and the state is left unchanged."""
        p = self.params
        bg = _background_total(p, np.concatenate(([self.clock], self.clock + lags)))
        out = lags * self._alpha_sum + (bg[1:] - bg[0])
        # theta * D, D[a', a] = sum of exp(-omega[a', a] (clock - t)) over the
        # sources of action a': _mass / omega for the folded ones (omega = 0
        # cells integrate to 0), plus the recent ones
        decayed = np.divide(
            self._mass, p.omega, out=np.zeros_like(self._mass), where=p.omega > 0
        )
        for t_j, a_j in self._recent:
            decayed[a_j] += p.theta[a_j] * np.exp(self._neg_omega[a_j] * (self.clock - t_j))
        out -= decayed.reshape(-1) @ np.expm1(self._neg_omega.reshape(-1, 1) * lags)
        d = self.clock - self._t_src
        with np.errstate(over="ignore"):
            now = np.exp(self._neg_gamma * d**self._kappa)
            last = np.exp(self._neg_gamma * (d + lags.max(initial=0.0)) ** self._kappa)
            # a Weibull term that adds below 1e-17 up to the longest lag
            # changes no increment by more than rounding, so it is skipped
            live = self._phi * (now - last) > 1e-17
            later = np.exp(
                self._neg_gamma[live, None] * (d[live, None] + lags) ** self._kappa[live, None]
            )
        return out + self._phi[live] @ (now[live, None] - later)

    def add(self, t: float, a: int) -> None:
        """Append an event of action ``a`` at time ``t``."""
        if not self._pruned:
            self._prune(*self._weibull(t))
        self._mass *= self._decay(t)
        self.clock = t
        self._recent.append((t, a))
        c = int(tod_categories(self.params.structure, t))
        if self._live_cell[c, a]:
            column = np.concatenate([[t], self._cells[:, c, a]])
            self._set_live(
                np.column_stack([self._live, column]),
                np.concatenate([self._live_act, [a]]),
            )
            self._pruned = False


def _prefix_arrays(
    structure: ModelStructure, prefix: HistoryPrefix, t: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Times, actions and time-of-day categories of a prefix that ends at or
    before ``t``.  A UserHistory is read without copying; records are
    converted (and checked) by its constructor."""
    if not isinstance(prefix, UserHistory):
        prefix = UserHistory("", prefix)
    times, actions = prefix.times(), prefix.actions()
    if times.size:
        if times[-1] > t:
            raise InvalidInputError(
                f"prefix event at t={times[-1]} lies after evaluation time t={t}"
            )
        if actions.max() >= structure.n_actions:
            raise InvalidInputError(
                f"action {actions.max()} out of range for {structure.n_actions} actions"
            )
    return times, actions, tod_categories(structure, times)


# ---------------------------------------------------------------------------
# public intensity query
# ---------------------------------------------------------------------------


def intensity_vector(
    params: ModelParams, user: str, history_prefix: HistoryPrefix, t: float
) -> np.ndarray:
    """Conditional intensity of every action at time ``t``, shape (A,)."""
    times, actions, cats = _prefix_arrays(params.structure, history_prefix, t)
    return _intensity_vector_arrays(
        params, params.alpha_row(user), times, actions, cats, t
    )

