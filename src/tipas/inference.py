"""EM parameter fitting.

Each iteration attributes every observed event to the additive intensity
sources that could have produced it (E step), then raises the resulting
Jensen lower bound (M step).  Given the attributions the bound splits into
one term per parameter cell:

* ``alpha`` has a closed-form maximizer;
* every other cell pairs a linear weight (``beta``, ``theta``, ``phi``) with
  shape parameters (``mu``/``sigma``, ``omega``, the Weibull scale and
  ``kappa``).  The weight has a closed form for any shape, so it is profiled
  out, and the shapes of all cells of a block take one Newton step together
  on their profiled bound.  A cell keeps its step only if its bound does
  not fall; otherwise it halves the step and in the end keeps its value.
* The weights are then set in closed form at the new shapes.

Every iteration therefore raises the bound and with it the exact
log-likelihood (a generalized EM step).  The reported per-iteration
log-likelihood is the exact one, not the bound.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np
from scipy.special import xlogy

from ._panel import EventPanel, WeibullPairs, build_panel
from .errors import (
    DegenerateEventError,
    InvalidInputError,
    NumericalFailureError,
)
from .likelihood import (
    LogLikValue,
    _assemble_loglik,
    event_contributions,
    log_likelihood,
    tail_masses,
)
from .model import (
    DAY_HOURS, ModelParams, ModelStructure, UserHistory, background_mass, check_positive,
)

logger = logging.getLogger(__name__)

_SQRT2 = math.sqrt(2.0)
_C1 = 2.0 / math.sqrt(math.pi)
# Bounds of the M step: kappa stays at or below KAPPA_MAX and sigma at or
# above SIGMA_FLOOR (hours); the weights alpha, beta, theta and phi, and
# kappa, stay at or above PARAM_FLOOR, which keeps the next E step strictly
# interior.
KAPPA_MAX = 40.0
SIGMA_FLOOR = 0.05
PARAM_FLOOR = 1e-8


@dataclass(frozen=True)
class FitConfig:
    """Knobs for :func:`fit`; defaults suit month-scale hour-unit data.

    The bounds of the M step are the module constants ``KAPPA_MAX``,
    ``SIGMA_FLOOR`` and ``PARAM_FLOOR``, and a day is ``DAY_HOURS`` long.
    """

    n_mixtures: int = 3
    n_actions: int | None = None  # inferred from the data when None
    tod_edges: tuple[float, ...] = (0.0, 6.0, 12.0, 18.0, 24.0)
    horizon: float | None = None  # rounded up to whole days when None
    max_iterations: int = 500
    rel_ll_tolerance: float = 1e-6
    rng_seed: int = 0
    include_background: bool = True
    include_short: bool = True
    include_long: bool = True

    def __post_init__(self) -> None:
        if self.n_mixtures < 1:
            raise InvalidInputError("n_mixtures must be >= 1")
        if self.max_iterations < 1:
            raise InvalidInputError("max_iterations must be >= 1")
        check_positive("rel_ll_tolerance", self.rel_ll_tolerance)


@dataclass
class FitReport:
    """Per-iteration log-likelihood trace and convergence bookkeeping.

    ``newton_fallbacks`` counts, over all iterations, the cells whose
    M-step Newton step found no ascent and kept their values.  The last
    three count the cells of the fitted parameters that end on a bound:
    kappa at ``KAPPA_MAX``, sigma at ``SIGMA_FLOOR``, and a kernel weight
    (beta, theta or phi) at ``PARAM_FLOOR``.
    """

    ll_trace: list[LogLikValue]
    iterations_run: int
    converged: bool
    wall_time: float
    newton_fallbacks: int = 0
    kappa_at_max: int = 0
    sigma_at_floor: int = 0
    weights_at_floor: int = 0

    @property
    def final_total(self) -> float:
        return self.ll_trace[-1].total


@dataclass
class Responsibilities:
    """Per-event latent attributions.

    ``p0[n]`` is the probability event ``n`` came from user preference,
    ``pz[n, z]`` from background mixture ``z``, ``q[n, a']`` from the
    short-term excitation of its user's earlier events of action ``a'``, and
    ``r[i]`` from the Weibull recurrence of same-action pair ``i`` of
    ``pairs``, the panel's :meth:`~EventPanel.live_pairs` at the E step's
    parameters; every other same-action pair has an r of exactly 0.  For
    every event the pieces sum to one.
    ``q_dt[n, a']`` is ``q[n, a']`` with each earlier event's share weighted
    by its gap to event ``n``.
    """

    p0: np.ndarray
    pz: np.ndarray
    q: np.ndarray
    q_dt: np.ndarray
    r: np.ndarray
    pairs: WeibullPairs
    panel: EventPanel = field(repr=False)

    def event_totals(self) -> np.ndarray:
        """Sum of all attributions per event; should be 1 everywhere."""
        tot = self.p0 + self.pz.sum(axis=1)
        tot += self.q.sum(axis=1)
        tot += np.bincount(self.pairs.dst, weights=self.r, minlength=tot.size)
        return tot


# ---------------------------------------------------------------------------
# E step
# ---------------------------------------------------------------------------


def e_step(params: ModelParams, histories: Sequence[UserHistory]) -> Responsibilities:
    """Latent responsibilities of every event under ``params``."""
    panel = build_panel(histories, params.structure, params.structure.horizon)
    resp, _ = _e_step_panel(params, panel)
    return resp


def _e_step_panel(
    params: ModelParams, panel: EventPanel
) -> tuple[Responsibilities, np.ndarray]:
    a0, bg, q_raw, q_dt_raw, r_raw, pairs, lam = event_contributions(params, panel)
    if panel.n_events and lam.min() <= 0.0:
        bad = int(np.argmin(lam))
        raise DegenerateEventError(
            f"event {panel.event_label(bad)} receives zero intensity from "
            "every model component"
        )
    r_raw /= lam[pairs.dst]
    resp = Responsibilities(
        p0=a0 / lam if panel.n_events else a0,
        pz=bg / lam[:, None] if panel.n_events else bg,
        q=q_raw / lam[:, None],
        q_dt=q_dt_raw / lam[:, None],
        r=r_raw,
        pairs=pairs,
        panel=panel,
    )
    return resp, lam


# ---------------------------------------------------------------------------
# closed-form M-step updates
# ---------------------------------------------------------------------------


def _ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """``num / den`` where ``den > 0``, zero elsewhere."""
    return np.where(den > 0, num / np.where(den > 0, den, 1.0), 0.0)


def m_step_closed(
    resp: Responsibilities,
    params: ModelParams,
    T: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Closed-form updates for alpha, beta, theta, phi.

    Each is its responsibility mass over the compensator mass it scales:
    ``T`` per user for alpha, the exact background mass over [0, T] for
    beta and the tail masses of :func:`tail_masses` for theta and phi.
    Cells with no responsibility mass (or an empty denominator) are set to
    ``PARAM_FLOOR``, which keeps the next E step strictly interior.
    """
    panel = resp.panel
    s = params.structure
    A, Z, C, U = s.n_actions, s.n_mixtures, s.n_categories, panel.n_users

    alpha = (
        np.bincount(panel.ev_user * A + panel.ev_a, weights=resp.p0, minlength=U * A)
        .reshape(U, A)
        / T
    )

    bg_num = np.zeros((A, Z))
    np.add.at(bg_num, panel.ev_a, resp.pz)
    beta = _ratio(bg_num, U * background_mass(params.mu, params.sigma, T))

    q_den, r_den = tail_masses(params, panel.ev_tail, panel.ev_a, panel.ev_cat)
    q_num = panel.source_cell_sums(resp.q).reshape(A, A)
    theta = _ratio(q_num, q_den)
    if np.any((q_den <= 0) & (q_num > 0)):
        logger.warning("theta update saw responsibility mass with empty denominator")

    r_num = resp.pairs.cell_sums(resp.r).reshape(C, A)
    phi = _ratio(r_num, r_den)

    return (
        np.maximum(alpha, PARAM_FLOOR),
        np.maximum(beta, PARAM_FLOOR),
        np.maximum(theta, PARAM_FLOOR),
        np.maximum(phi, PARAM_FLOOR),
    )


# ---------------------------------------------------------------------------
# shape blocks: one guarded Newton step on each cell's profiled bound
# ---------------------------------------------------------------------------

# Halvings of a Newton step before a cell gives up and keeps its value.
BACKTRACK_HALVINGS = 30
# |log omega| and |kappa * log(Weibull scale)| stay below this, so omega and
# gamma remain normal doubles; exponents are clipped to it for the same reason.
EXP_LIMIT = 700.0


def _direction(grad: np.ndarray, hess: np.ndarray) -> np.ndarray:
    """Newton step where the Hessian is negative definite, else a scaled
    gradient step; per cell."""
    d = grad.shape[1]
    neg_def = np.linalg.eigvalsh(hess).max(axis=1) < 0
    newton = np.linalg.solve(
        np.where(neg_def[:, None, None], hess, -np.eye(d)), -grad[..., None]
    )[..., 0]
    scaled = grad / (np.abs(hess).max(axis=(1, 2)) + 1.0)[:, None]
    return np.where(neg_def[:, None], newton, scaled)


def _ascend(objective, x0: np.ndarray, active: np.ndarray, project):
    """One ascent-guarded Newton step for every active cell at once.

    ``objective(x)`` returns the value (n,) of every cell's objective at
    ``x`` (n, d); ``objective(x, derivatives=True)`` also returns its
    gradient (n, d) and Hessian (n, d, d).  Coordinates that ``project``
    holds at a bound drop out of the step.  Each cell halves its step until
    ``project(x0 + step * direction)`` does not lower its value.  Returns the
    new points, a mask of the cells that moved, and the number of active
    cells that gave up.
    """
    x = x0.copy()
    moved = np.zeros(x0.shape[0], dtype=bool)
    if not active.any():
        return x, moved, 0
    f0, grad, hess = objective(x0, derivatives=True)
    ok = (
        active
        & np.isfinite(f0)
        & np.isfinite(grad).all(axis=1)
        & np.isfinite(hess).all(axis=(1, 2))
    )
    identity = np.eye(x0.shape[1])
    grad = np.where(ok[:, None], grad, 0.0)
    hess = np.where(ok[:, None, None], hess, -identity)
    direction = _direction(grad, hess)
    free = (project(x0 + direction) != x0) | (direction == 0)
    if not free.all():
        both = free[:, :, None] & free[:, None, :]
        direction = _direction(grad * free, np.where(both, hess, -identity))
    pending = ok & np.isfinite(direction).all(axis=1) & (direction != 0).any(axis=1)
    direction = np.where(pending[:, None], direction, 0.0)
    gave_up = int((active & ~ok).sum())
    step = 1.0
    for _ in range(BACKTRACK_HALVINGS):
        if not pending.any():
            break
        trial = np.where(pending[:, None], project(x0 + step * direction), x0)
        value = objective(trial)
        up = pending & np.isfinite(value) & (value >= f0 - 1e-12 * np.abs(f0))
        x[up] = trial[up]
        moved |= up
        pending &= ~up
        step *= 0.5
    return x, moved, gave_up + int(pending.sum())


def exponential_objective(resp: Responsibilities, params: ModelParams):
    """Profiled EM bound of the exponential kernel, per (a', a) cell.

    With ``theta = sum q / Q(omega)`` profiled out, the bound of a cell is
    ``sum q * log(omega) - omega * sum q dt - sum q * log Q(omega)`` (up to a
    constant), where ``Q`` is the tail mass of :func:`tail_masses`.  The
    coordinate is ``x = log(omega)``, flattened row-major over (a', a).
    Returns ``(objective, x0, active)`` in the form :func:`_ascend` takes.
    ``active`` marks the cells with responsibility mass and a weight above
    ``PARAM_FLOOR``: at the floor a cell's bound is flat to rounding in its
    shape, so that cell keeps its shape.
    """
    panel = resp.panel
    A = params.structure.n_actions
    n = A * A
    sq = panel.source_cell_sums(resp.q)
    sq_dt = panel.source_cell_sums(resp.q_dt)
    live = panel.ev_tail > 0
    ev_cell = (panel.ev_a[live, None] * A + np.arange(A)).reshape(-1)
    log_s = np.repeat(np.log(panel.ev_tail[live]), A)

    def cell_sum(weights):
        return np.bincount(ev_cell, weights=weights, minlength=n)

    @np.errstate(over="ignore", divide="ignore", invalid="ignore")
    def objective(x, derivatives=False):
        v = x[:, 0]
        y = np.minimum(v[ev_cell] + log_s, EXP_LIMIT)  # log(omega s)
        e = np.exp(y)
        tail = cell_sum(-np.expm1(-e))
        rate = np.exp(v) * sq_dt
        f = sq * v - rate - xlogy(sq, tail)
        if not derivatives:
            return f
        ye = np.exp(y - e)  # omega s exp(-omega s)
        d1 = cell_sum(ye) / tail  # d log Q / d log omega
        d2 = cell_sum(ye * (1.0 - e)) / tail
        grad = sq - rate - sq * d1
        hess = -rate - sq * (d2 - d1 * d1)
        return f, grad[:, None], hess[:, None, None]

    with np.errstate(divide="ignore"):
        x0 = np.log(params.omega).reshape(-1, 1)
    return objective, x0, (sq > 0) & (params.theta.reshape(-1) > PARAM_FLOOR)


def weibull_objective(resp: Responsibilities, params: ModelParams):
    """Profiled EM bound of the Weibull kernel, per (c, a) cell.

    The coordinates are ``x = (u, kappa)`` with ``u`` the log of the Weibull
    scale, so ``gamma = exp(-kappa u)``.  With ``phi = sum r / R`` profiled
    out, where ``R`` is the tail mass of :func:`tail_masses`, the bound of a
    cell is, up to a constant,
    ``sum r * (log kappa + kappa (log dt - u) - (dt / e^u)^kappa) - sum r * log R``.
    Returns ``(objective, x0, active)`` as :func:`exponential_objective`,
    with ``phi`` as the weight.  The pair sums run one active cell at a time
    over its pairs in ``resp.pairs``, with the cell's ``u`` and ``kappa`` as
    scalars: a same-action pair left out of them has ``r`` exactly 0 and
    would add exactly 0 at every ``x``.  No caller reads the values of the
    other cells.
    """
    panel = resp.panel
    s = params.structure
    A = s.n_actions
    n = s.n_categories * A
    r, log_dt = resp.r, resp.pairs.log_dt
    sr = resp.pairs.cell_sums(r)
    active = (sr > 0) & (params.phi.reshape(-1) > PARAM_FLOOR)
    blocks = [(c, log_dt[cell], r[cell]) for c, cell in resp.pairs.cells() if active[c]]
    sr_log = np.zeros(n)
    for c, log_dt_c, r_c in blocks:
        sr_log[c] += (r_c * log_dt_c).sum()
    live = panel.ev_tail > 0
    ev_cell = (panel.ev_cat * A + panel.ev_a)[live]
    log_s = np.log(panel.ev_tail[live])

    def event_sum(weights):
        return np.bincount(ev_cell, weights=weights, minlength=n)

    @np.errstate(over="ignore", divide="ignore", invalid="ignore")
    def objective(x, derivatives=False):
        u, k = x[:, 0], x[:, 1]
        w0, w1, w2 = np.zeros(n), np.zeros(n), np.zeros(n)
        u_cell, k_cell = u.tolist(), k.tolist()
        for c, log_dt_c, r_c in blocks:
            xp = log_dt_c - u_cell[c]  # log(dt / scale)
            rw = np.exp(np.minimum(k_cell[c] * xp, EXP_LIMIT))
            rw *= r_c  # r gamma dt^kappa
            w0[c] += rw.sum()
            if derivatives:
                rw *= xp
                w1[c] += rw.sum()
                w2[c] += (rw * xp).sum()
        ye = log_s - u[ev_cell]
        ky = np.minimum(k[ev_cell] * ye, EXP_LIMIT)
        v = np.exp(ky)  # gamma s^kappa
        tail = event_sum(-np.expm1(-v))
        linear = sr_log - u * sr
        f = xlogy(sr, k) + k * linear - w0 - xlogy(sr, tail)
        if not derivatives:
            return f
        ev = np.exp(ky - v)  # gamma s^kappa exp(-gamma s^kappa)
        bend = ev * (1.0 - v)
        e0, e1, b0, b1, b2 = (
            event_sum(w) / tail for w in (ev, ev * ye, bend, bend * ye, bend * ye * ye)
        )
        # first derivatives of log R in u and kappa
        l_u, l_k = -k * e0, e1
        grad = np.stack([k * (w0 - sr) - sr * l_u, sr / k + linear - w1 - sr * l_k], axis=1)
        h_uu = -k * k * w0 - sr * (k * k * b0 - l_u * l_u)
        h_uk = w0 + k * w1 - sr - sr * (-e0 - k * b1 - l_u * l_k)
        h_kk = -sr / (k * k) - w2 - sr * (b2 - l_k * l_k)
        hess = np.stack([np.stack([h_uu, h_uk], -1), np.stack([h_uk, h_kk], -1)], -2)
        return f, grad, hess

    kappa = params.kappa.reshape(-1)
    with np.errstate(divide="ignore"):
        u0 = -np.log(params.gamma.reshape(-1)) / kappa
    return objective, np.stack([u0, kappa], axis=1), active


def _mass_derivatives(mu, sigma, T: float) -> list[np.ndarray]:
    """d/dmu, d/dsigma, d2/dmu2, d2/dmu dsigma, d2/dsigma2 of
    :func:`background_mass` over [0, T]."""
    # background_mass is (full_days (E(day) - E(0)) + (E(rem) - E(0))) / 2
    # with E(x) = erf((x - mu) / (sqrt(2) sigma))
    full_days, rem = divmod(T, DAY_HOURS)
    s2 = sigma * sigma

    def erf_derivatives(x):
        w = (x - mu) / (_SQRT2 * sigma)
        e = _C1 * np.exp(-w * w)
        return (
            -e / (_SQRT2 * sigma),
            -w * e / sigma,
            -w * e / s2,
            -e * (2.0 * w * w - 1.0) / (_SQRT2 * s2),
            2.0 * w * (1.0 - w * w) * e / s2,
        )

    at_zero = erf_derivatives(0.0)
    at_day = erf_derivatives(DAY_HOURS)
    at_rem = erf_derivatives(rem)
    return [(full_days * (d - z) + (r - z)) / 2.0 for z, d, r in zip(at_zero, at_day, at_rem)]


def background_objective(resp: Responsibilities, params: ModelParams, T: float):
    """Profiled EM bound of the background, per (a, z) cell, in ``x = (mu, sigma)``.

    With ``beta = sum pz / (U * mass)`` profiled out, where ``mass`` is the
    component's :func:`background_mass` over [0, T], the bound of a cell is
    ``-sum pz * log(sigma) - S2 / (2 sigma^2) - sum pz * log(mass)`` up to a
    constant, with ``S2`` the responsibility-weighted squared distance of the
    event hours of day from ``mu``.  Returns ``(objective, x0, active)`` as
    :func:`exponential_objective`.
    """
    panel = resp.panel
    s = params.structure
    Z = s.n_mixtures
    n = s.n_actions * Z
    cell = (panel.ev_a[:, None] * Z + np.arange(Z)).reshape(-1)
    pz = resp.pz.reshape(-1)
    tod = np.repeat(panel.ev_tod, Z)
    sw, swl, swll = (
        np.bincount(cell, weights=w, minlength=n) for w in (pz, pz * tod, pz * tod * tod)
    )

    @np.errstate(divide="ignore", invalid="ignore")
    def objective(x, derivatives=False):
        mu, sg = x[:, 0], x[:, 1]
        centred = swl - mu * sw
        s2 = swll - 2.0 * mu * swl + mu * mu * sw
        mass = background_mass(mu, sg, T)
        f = -sw * np.log(sg) - s2 / (2.0 * sg * sg) - xlogy(sw, mass)
        if not derivatives:
            return f
        # derivatives of log(mass) come from those of mass over mass
        m_m, m_s, m_mm, m_ms, m_ss = (
            d / mass for d in _mass_derivatives(mu, sg, T)
        )
        grad = np.stack(
            [centred / sg**2 - sw * m_m, -sw / sg + s2 / sg**3 - sw * m_s], axis=1
        )
        h_mm = -sw / sg**2 - sw * (m_mm - m_m * m_m)
        h_ms = -2.0 * centred / sg**3 - sw * (m_ms - m_m * m_s)
        h_ss = sw / sg**2 - 3.0 * s2 / sg**4 - sw * (m_ss - m_s * m_s)
        hess = np.stack([np.stack([h_mm, h_ms], -1), np.stack([h_ms, h_ss], -1)], -2)
        return f, grad, hess

    x0 = np.stack([params.mu.reshape(-1), params.sigma.reshape(-1)], axis=1)
    return objective, x0, sw > 0


def m_step_rate(
    resp: Responsibilities, params: ModelParams, T: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Kernel shapes: one guarded Newton step on the profiled bound of every
    exponential (a', a) cell in log omega and every Weibull (c, a) cell in
    (log scale, kappa).  Returns omega, gamma, kappa and the number of cells
    that gave up; cells without responsibility mass or with their weight at
    ``PARAM_FLOOR``, and cells that give up, keep their values.  ``T`` is
    not read: the tails are in the panel."""
    objective, x0, active = exponential_objective(resp, params)
    x, moved, fallbacks = _ascend(
        objective, x0, active, lambda x: np.clip(x, -EXP_LIMIT, EXP_LIMIT)
    )
    omega = np.where(moved, np.exp(x[:, 0]), params.omega.reshape(-1))

    def project(x):
        k = np.clip(x[:, 1], PARAM_FLOOR, KAPPA_MAX)
        return np.stack([np.clip(x[:, 0], -EXP_LIMIT / k, EXP_LIMIT / k), k], axis=1)

    objective, x0, active = weibull_objective(resp, params)
    x, moved, fell = _ascend(objective, x0, active, project)
    gamma = np.where(moved, np.exp(-x[:, 1] * x[:, 0]), params.gamma.reshape(-1))
    kappa = np.where(moved, x[:, 1], params.kappa.reshape(-1))
    shape = params.kappa.shape
    return (
        omega.reshape(params.omega.shape),
        gamma.reshape(shape),
        kappa.reshape(shape),
        fallbacks + fell,
    )


def m_step_newton(
    resp: Responsibilities, params: ModelParams, T: float
) -> tuple[np.ndarray, np.ndarray, int]:
    """Background shapes: one guarded Newton step on the profiled bound of
    every (a, z) cell in (mu, sigma).  Returns mu, sigma and the number of
    cells that gave up; cells without responsibility mass, and cells that
    give up, keep their values."""

    def project(x):
        return np.stack(
            [np.clip(x[:, 0], 1e-6, DAY_HOURS - 1e-6), np.maximum(x[:, 1], SIGMA_FLOOR)],
            axis=1,
        )

    objective, x0, active = background_objective(resp, params, T)
    x, moved, fallbacks = _ascend(objective, x0, active, project)
    mu = np.where(moved, x[:, 0], params.mu.reshape(-1)).reshape(params.mu.shape)
    sigma = np.where(moved, x[:, 1], params.sigma.reshape(-1)).reshape(params.sigma.shape)
    return mu, sigma, fallbacks


# ---------------------------------------------------------------------------
# the outer EM loop
# ---------------------------------------------------------------------------


def _init_params(
    panel: EventPanel, structure: ModelStructure, config: FitConfig, rng
) -> ModelParams:
    A, Z, C, U = (
        structure.n_actions,
        structure.n_mixtures,
        structure.n_categories,
        panel.n_users,
    )
    # Draw order is fixed so a seed pins the whole initialization.
    alpha = rng.uniform(0.001, 0.01, (U, A))
    beta = rng.uniform(0.1, 0.5, (A, Z))
    jitter = rng.uniform(-0.5, 0.5, (A, Z))
    sigma = rng.uniform(1.0, 3.0, (A, Z))
    theta = rng.uniform(0.01, 0.1, (A, A))
    phi = rng.uniform(0.01, 0.1, (C, A))

    # Quantile-seeded means avoid mixtures that start with no nearby mass.
    mu = np.empty((A, Z))
    qs = (np.arange(Z) + 0.5) / Z
    for a in range(A):
        tods = panel.ev_tod[panel.ev_a == a]
        base = np.quantile(tods, qs) if tods.size else qs * DAY_HOURS
        mu[a] = base
    mu = np.clip(mu + jitter, 0.25, DAY_HOURS - 0.25)
    beta, theta, phi = _ablate(config, beta, theta, phi)

    return ModelParams(
        structure=structure,
        users=panel.users,
        alpha=alpha,
        beta=beta,
        mu=mu,
        sigma=sigma,
        theta=theta,
        omega=np.ones((A, A)),
        phi=phi,
        gamma=np.full((C, A), 0.1),
        kappa=np.ones((C, A)),
    )


def _ablate(config: FitConfig, beta, theta, phi) -> list[np.ndarray]:
    """``beta``, ``theta`` and ``phi``, each zeroed if ``config`` leaves
    its term (background, short-term, long-term) out."""
    keep = (config.include_background, config.include_short, config.include_long)
    return [w if k else np.zeros_like(w) for w, k in zip((beta, theta, phi), keep)]


def _m_step(
    resp: Responsibilities, params: ModelParams, config: FitConfig
) -> tuple[ModelParams, int]:
    T = resp.panel.T
    omega, gamma, kappa, rate_fallbacks = m_step_rate(resp, params, T)
    mu, sigma, bg_fallbacks = m_step_newton(resp, params, T)
    shaped = replace(params, mu=mu, sigma=sigma, omega=omega, gamma=gamma, kappa=kappa)
    alpha, beta, theta, phi = m_step_closed(resp, shaped, T)
    beta, theta, phi = _ablate(config, beta, theta, phi)
    new = replace(shaped, alpha=alpha, beta=beta, theta=theta, phi=phi)
    return new, rate_fallbacks + bg_fallbacks


def _horizon(cfg: FitConfig, max_t: float) -> float:
    """``cfg.horizon``, or the whole days (at least one) that cover ``max_t``."""
    if cfg.horizon is not None:
        return cfg.horizon
    return max(1.0, math.ceil(max_t / DAY_HOURS)) * DAY_HOURS


def fit(
    histories: Sequence[UserHistory], config: FitConfig | None = None
) -> tuple[ModelParams, FitReport]:
    """Maximum-likelihood fit; alternates E and M steps until the exact
    log-likelihood moves by less than ``rel_ll_tolerance`` (relative)."""
    cfg = config or FitConfig()
    start = time.perf_counter()

    n_events_in = sum(len(h) for h in histories)
    if n_events_in == 0:
        raise InvalidInputError("cannot fit on empty data")
    max_t = max(float(h.times()[-1]) for h in histories if len(h))
    max_a = max(int(h.actions().max()) for h in histories if len(h))
    n_actions = cfg.n_actions if cfg.n_actions is not None else max_a + 1
    horizon = _horizon(cfg, max_t)
    structure = ModelStructure(
        n_actions=n_actions,
        n_mixtures=cfg.n_mixtures,
        tod_edges=cfg.tod_edges,
        horizon=horizon,
    )
    panel = build_panel(histories, structure, horizon)

    rng = np.random.default_rng(cfg.rng_seed)
    params = _init_params(panel, structure, cfg, rng)

    trace: list[LogLikValue] = []
    fallbacks = 0
    converged = False
    prev_total: float | None = None
    iterations = 0
    for it in range(cfg.max_iterations):
        resp, lam = _e_step_panel(params, panel)
        ll = _assemble_loglik(params, panel, lam)
        if not math.isfinite(ll.total):
            raise NumericalFailureError(
                f"log-likelihood became non-finite at iteration {it}"
            )
        trace.append(ll)
        if (
            prev_total is not None
            and abs(ll.total - prev_total) / max(1.0, abs(prev_total))
            < cfg.rel_ll_tolerance
        ):
            converged = True
            break
        prev_total = ll.total
        params, nf = _m_step(resp, params, cfg)
        del resp  # its pairs go before the next E step builds its own
        fallbacks += nf
        iterations += 1

    if not converged:
        # params moved after the last traced value; close the trace on them
        _, lam = _e_step_panel(params, panel)
        trace.append(_assemble_loglik(params, panel, lam))

    report = FitReport(
        ll_trace=trace,
        iterations_run=iterations,
        converged=converged,
        wall_time=time.perf_counter() - start,
        newton_fallbacks=fallbacks,
        kappa_at_max=int(np.count_nonzero(params.kappa == KAPPA_MAX)),
        sigma_at_floor=int(np.count_nonzero(params.sigma == SIGMA_FLOOR)),
        weights_at_floor=sum(
            int(np.count_nonzero(w == PARAM_FLOOR))
            for w in (params.beta, params.theta, params.phi)
        ),
    )
    return params, report


# ---------------------------------------------------------------------------
# mixture-count selection
# ---------------------------------------------------------------------------


def holdout_loglik(
    params: ModelParams,
    histories: Sequence[UserHistory],
    t_from: float,
    t_to: float,
) -> float:
    """Log-likelihood of the events in (t_from, t_to], conditioning each on
    the full earlier history (train and holdout alike).

    That is the log-likelihood on [0, t_to] minus the one on [0, t_from].
    """

    def loglik_upto(t: float) -> float:
        return log_likelihood(params, [h.until(t) for h in histories], t).total

    return loglik_upto(t_to) - loglik_upto(t_from)


def select_n_mixtures(
    histories: Sequence[UserHistory],
    config: FitConfig | None = None,
    grid: Sequence[int] = (1, 2, 3, 4, 5, 6),
    val_fraction: float = 0.2,
) -> int:
    """Pick the mixture count whose fit scores best on a held-out time slice."""
    cfg = config or FitConfig()
    max_t = max((float(h.times()[-1]) for h in histories if len(h)), default=0.0)
    if max_t <= 0:
        raise InvalidInputError("cannot select mixtures on empty data")
    horizon = _horizon(cfg, max_t)
    t_split = max(
        DAY_HOURS, math.floor(horizon * (1.0 - val_fraction) / DAY_HOURS) * DAY_HOURS
    )
    if t_split >= horizon:
        raise InvalidInputError(
            f"mixture selection needs data past one day: the validation slice "
            f"({t_split:g}, {horizon:g}] h is empty"
        )
    train = [h.until(t_split) for h in histories]
    if sum(len(h) for h in train) == 0:
        raise InvalidInputError("validation split leaves no training events")

    best_z, best_score = None, -math.inf
    for z in grid:
        zcfg = replace(cfg, n_mixtures=z, horizon=t_split)
        params, _ = fit(train, zcfg)
        score = holdout_loglik(params, histories, t_split, horizon)
        logger.info("mixture selection: Z=%d holdout ll=%.4f", z, score)
        if score > best_score:
            best_z, best_score = z, score
    return int(best_z)
