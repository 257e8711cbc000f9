"""Reference model for the benchmark's checks, written from the formula.

    lam_u(t, a) = alpha[u, a]
                + sum_z beta[a, z] * N(tod(t); mu[a, z], sigma[a, z]^2)
                + sum_{t' < t} theta[a', a] * omega[a', a] * exp(-omega[a', a] (t - t'))
                + sum_{t' < t, a' = a} phi[c', a] * gamma[c', a] * kappa[c', a]
                      * d^(kappa - 1) * exp(-gamma d^kappa),   d = t - t'

The background is not wrapped at midnight, gaps are floored at 1e-6 h, and
``c'`` is the time-of-day window of the earlier event.  Nothing here imports
the package under test: the checks must not share its code.

Also here: the exact cluster sampler that makes the benchmark's inputs
(Hawkes-Oakes construction: immigrants from the preference and background
rates, then Poisson offspring along each kernel, no thinning).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import ndtr, ndtri

TIE_EPSILON = 1e-6


@dataclass(frozen=True)
class Params:
    """Parameter arrays with the shapes of the formula above.

    ``alpha`` has one row per user in ``users``; the model's JSON documents
    and the package's synthetic specs both use this layout.
    """

    users: tuple
    alpha: np.ndarray
    beta: np.ndarray
    mu: np.ndarray
    sigma: np.ndarray
    theta: np.ndarray
    omega: np.ndarray
    phi: np.ndarray
    gamma: np.ndarray
    kappa: np.ndarray
    tod_edges: tuple
    day: float = 24.0

    @property
    def n_actions(self) -> int:
        return self.beta.shape[0]

    def alpha_row(self, user: str) -> np.ndarray:
        if user in self.users:
            return self.alpha[self.users.index(user)]
        if len(self.users) == 1:  # a template row shared by every user
            return self.alpha[0]
        return np.zeros(self.n_actions)

    def for_users(self, users) -> "Params":
        """The same parameters with one alpha row per user."""
        users = tuple(users)
        return replace(self, users=users, alpha=np.array([self.alpha_row(u) for u in users]))

    def to_doc(self, horizon: float) -> dict:
        """The ``structure``/``users``/``params`` part of a model document."""
        names = ("alpha", "beta", "mu", "sigma", "theta", "omega", "phi", "gamma", "kappa")
        return {
            "structure": {
                "n_actions": self.n_actions,
                "n_mixtures": self.beta.shape[1],
                "tod_edges": list(self.tod_edges),
                "day_length": self.day,
                "horizon": horizon,
            },
            "users": list(self.users),
            "params": {n: getattr(self, n).tolist() for n in names},
        }


def params_from_doc(doc: dict) -> Params:
    """Read a model document (or a spec's ``model`` part) without the package."""
    s, p = doc["structure"], doc["params"]
    arr = {k: np.asarray(v, dtype=np.float64) for k, v in p.items()}
    users = tuple(doc["users"])
    return Params(
        users=users,
        alpha=arr["alpha"].reshape(len(users), int(s["n_actions"])),
        beta=arr["beta"], mu=arr["mu"], sigma=arr["sigma"],
        theta=arr["theta"], omega=arr["omega"],
        phi=arr["phi"], gamma=arr["gamma"], kappa=arr["kappa"],
        tod_edges=tuple(float(e) for e in s["tod_edges"]),
        day=float(s["day_length"]),
    )


def categories(p: Params, times: np.ndarray) -> np.ndarray:
    edges = np.asarray(p.tod_edges)
    c = np.searchsorted(edges, np.asarray(times) % p.day, side="right") - 1
    return np.clip(c, 0, len(edges) - 2)


def intensity(p: Params, user: str, times, actions, t: float) -> np.ndarray:
    """lam_u(t, a) for every action, given the events strictly before ``t``."""
    times = np.asarray(times, dtype=np.float64)
    actions = np.asarray(actions, dtype=np.int64)
    tod = t % p.day
    zs = (tod - p.mu) / p.sigma
    lam = p.alpha_row(user) + (
        p.beta * np.exp(-0.5 * zs * zs) / (p.sigma * math.sqrt(2 * math.pi))
    ).sum(axis=1)
    if times.size:
        d = np.maximum(t - times, TIE_EPSILON)
        om = p.omega[actions]
        lam = lam + (p.theta[actions] * om * np.exp(-om * d[:, None])).sum(axis=0)
        c = categories(p, times)
        ph, ga, ka = p.phi[c, actions], p.gamma[c, actions], p.kappa[c, actions]
        with np.errstate(over="ignore"):
            h = ph * ga * ka * np.exp((ka - 1) * np.log(d) - ga * d**ka)
        lam = lam + np.bincount(actions, weights=h, minlength=p.n_actions)
    return lam


def _background_mass(p: Params, upto: np.ndarray) -> np.ndarray:
    """Exact background mass over [0, upto] for each point, summed over
    actions and mixtures: whole days, then the partial last day."""
    days, rem = np.divmod(upto, p.day)
    below_zero = ndtr(-p.mu / p.sigma)
    day_mass = float((p.beta * (ndtr((p.day - p.mu) / p.sigma) - below_zero)).sum())
    partial = p.beta * (ndtr((rem[:, None, None] - p.mu) / p.sigma) - below_zero)
    return days * day_mass + partial.sum(axis=(1, 2))


def _tails(p: Params, times, actions, upto: np.ndarray) -> np.ndarray:
    """Sum over events before each ``upto`` of the kernel mass they put on
    [t_i, upto]; ``upto`` is a vector, the result has its shape."""
    times = np.asarray(times, dtype=np.float64)
    actions = np.asarray(actions, dtype=np.int64)
    upto = np.atleast_1d(np.asarray(upto, dtype=np.float64))
    out = np.zeros(upto.shape)
    if not times.size:
        return out
    c = categories(p, times)
    ph, ga, ka = p.phi[c, actions], p.gamma[c, actions], p.kappa[c, actions]
    th, om = p.theta[actions], p.omega[actions]
    for j, u in enumerate(upto):
        k = int(np.searchsorted(times, u, side="left"))
        if not k:
            continue
        s = u - times[:k]
        val = (th[:k] * -np.expm1(-om[:k] * s[:, None])).sum()
        with np.errstate(over="ignore"):
            val += (ph[:k] * -np.expm1(-ga[:k] * s ** ka[:k])).sum()
        out[j] = val
    return out


def cumulative_intensity(p: Params, user: str, times, actions, upto) -> np.ndarray:
    """Lambda_u at each point of ``upto``: the exact integral of the user's
    total intensity from 0, counting the events before that point."""
    upto = np.atleast_1d(np.asarray(upto, dtype=np.float64))
    return (
        upto * float(p.alpha_row(user).sum())
        + _background_mass(p, upto)
        + _tails(p, times, actions, upto)
    )


def compensator(p: Params, user: str, times, actions, T: float) -> float:
    """Exact integral of the user's total intensity over [0, T]."""
    return float(cumulative_intensity(p, user, times, actions, T)[0])


def log_likelihood(p: Params, histories, T: float) -> tuple[float, float]:
    """(event term, compensator) of ``histories`` = [(user, times, actions)]."""
    event = 0.0
    comp = 0.0
    for user, times, actions in histories:
        for n in range(len(times)):
            lam = intensity(p, user, times[:n], actions[:n], float(times[n]))
            event += math.log(float(lam[actions[n]]))
        comp += compensator(p, user, times, actions, T)
    return event, comp


def _gauss_nodes(breaks: np.ndarray, per_piece: int = 24) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(per_piece)
    lo, hi = breaks[:-1, None], breaks[1:, None]
    nodes = (lo + hi) / 2 + (hi - lo) / 2 * x
    weights = (hi - lo) / 2 * w
    return nodes.ravel(), weights.ravel()


def first_arrival_moments(
    p: Params, user: str, times, actions, span: float, per_piece: int = 24
) -> tuple[float, float]:
    """Mean and variance of min(X, span), X the wait from the last event to
    the next one of any action when no further event arrives in between.

    P(X > s) = exp(-(Lambda(t_last + s) - Lambda(t_last))), integrated by
    Gauss-Legendre on pieces split at midnights and shortly after t_last,
    where the kernels change fastest.
    """
    times = np.asarray(times, dtype=np.float64)
    t_last = float(times[-1]) if times.size else 0.0
    cuts = [0.0, span]
    cuts += [s for s in (0.1, 0.25, 0.5, 1.0, 2.0, 3.0, 6.0) if s < span]
    first_midnight = (math.floor(t_last / p.day) + 1) * p.day - t_last
    cuts += list(np.arange(first_midnight, span, p.day))
    cuts += list(np.arange(first_midnight + p.day / 2, span, p.day))
    breaks = np.unique(np.asarray(cuts))
    s, w = _gauss_nodes(breaks, per_piece)
    lam = cumulative_intensity(p, user, times, actions, np.concatenate([[t_last], t_last + s]))
    surv = np.exp(-(lam[1:] - lam[0]))
    m1 = float((w * surv).sum())
    m2 = float((w * 2.0 * s * surv).sum())
    return m1, max(m2 - m1 * m1, 0.0)


# ---------------------------------------------------------------------------
# exact sampler
# ---------------------------------------------------------------------------


def _truncated_normal(rng, mu, sigma, upper, size):
    """Draws of N(mu, sigma^2) conditioned on [0, upper], by inverse CDF.

    With 0 < mu the lower bound sits at or below the median, so neither
    CDF value is close to 1 unless the interval covers the centre.
    """
    lo, hi = ndtr(-mu / sigma), ndtr((upper - mu) / sigma)
    return mu + sigma * ndtri(rng.uniform(lo, hi, size))


def sample_user(p: Params, alpha_row: np.ndarray, T: float, rng) -> tuple[np.ndarray, np.ndarray]:
    """One user's events on [0, T]: (sorted times, actions)."""
    A, Z = p.beta.shape
    t_parts, a_parts = [], []
    for a in range(A):
        n = rng.poisson(alpha_row[a] * T)
        t_parts.append(rng.uniform(0.0, T, n))
        a_parts.append(np.full(n, a))
    n_full, rem = divmod(T, p.day)
    n_full = int(n_full)
    for a in range(A):
        for z in range(Z):
            mu, sg, b = p.mu[a, z], p.sigma[a, z], p.beta[a, z]
            if b <= 0:
                continue
            mass = b * (ndtr((p.day - mu) / sg) - ndtr(-mu / sg))
            n = rng.poisson(mass * n_full)
            days = rng.integers(0, n_full, n) if n_full else np.empty(0, int)
            t_parts.append(days * p.day + _truncated_normal(rng, mu, sg, p.day, n))
            a_parts.append(np.full(n, a))
            if rem > 0:
                n = rng.poisson(b * (ndtr((rem - mu) / sg) - ndtr(-mu / sg)))
                t_parts.append(n_full * p.day + _truncated_normal(rng, mu, sg, rem, n))
                a_parts.append(np.full(n, a))
    gen_t = np.concatenate(t_parts)
    gen_a = np.concatenate(a_parts).astype(np.int64)
    all_t, all_a = [gen_t], [gen_a]
    while gen_t.size:
        # exponential offspring: Poisson(theta[a', a]) children of action a
        k = rng.poisson(p.theta[gen_a])  # (n, A)
        par, child_a = np.nonzero(k)
        reps = k[par, child_a]
        par, child_a = np.repeat(par, reps), np.repeat(child_a, reps)
        t1 = gen_t[par] + rng.exponential(1.0, par.size) / p.omega[gen_a[par], child_a]
        # Weibull offspring of the same action: Poisson(phi[c', a'])
        c = categories(p, gen_t)
        m = rng.poisson(p.phi[c, gen_a])
        par2 = np.repeat(np.arange(gen_t.size), m)
        ga = p.gamma[c[par2], gen_a[par2]]
        ka = p.kappa[c[par2], gen_a[par2]]
        t2 = gen_t[par2] + (rng.exponential(1.0, par2.size) / ga) ** (1.0 / ka)
        gen_t = np.concatenate([t1, t2])
        gen_a = np.concatenate([child_a, gen_a[par2]]).astype(np.int64)
        keep = gen_t < T
        gen_t, gen_a = gen_t[keep], gen_a[keep]
        all_t.append(gen_t)
        all_a.append(gen_a)
    times = np.concatenate(all_t)
    actions = np.concatenate(all_a)
    order = np.argsort(times, kind="stable")
    return times[order], actions[order]
