"""EM/MM parameter fitting.

Each iteration attributes every observed event to the additive intensity
sources that could have produced it (E step), then maximizes the resulting
Jensen lower bound (M step):

* ``alpha``, ``beta``, ``theta``, ``phi`` have closed-form updates;
* ``omega`` and ``gamma`` appear inside kernel tails, so their closed forms
  come from a further tangent lower bound anchored at the current iterate;
* ``kappa`` and the Gaussian ``mu``/``sigma`` are ascended by a damped,
  backtracking Newton step on their slice of the bound.

All updates within one M step read the current (k-th) iterates of every
other parameter and are applied together.  The reported per-iteration
log-likelihood is the exact one, not the bound.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from ._panel import EventPanel, build_panel
from .errors import (
    DegenerateEventError,
    InvalidInputError,
    NumericalFailureError,
)
from .likelihood import (
    LogLikValue,
    _assemble_loglik,
    background_mass,
    event_contributions,
    log_likelihood,
    tail_masses,
)
from .model import ModelParams, ModelStructure, UserHistory

logger = logging.getLogger(__name__)

_SQRT2 = math.sqrt(2.0)
_C1 = 2.0 / math.sqrt(math.pi)
KAPPA_MAX = 40.0


@dataclass(frozen=True)
class FitConfig:
    """Knobs for :func:`fit`; defaults suit month-scale hour-unit data."""

    n_mixtures: int = 3
    n_actions: int | None = None  # inferred from the data when None
    tod_edges: tuple[float, ...] = (0.0, 6.0, 12.0, 18.0, 24.0)
    day_length: float = 24.0
    horizon: float | None = None  # rounded up to whole days when None
    max_iterations: int = 500
    rel_ll_tolerance: float = 1e-6
    newton_max_steps: int = 8
    newton_max_inner: int = 50
    param_floor: float = 1e-8
    sigma_floor: float = 0.05
    rng_seed: int = 0
    include_background: bool = True
    include_short: bool = True
    include_long: bool = True

    def __post_init__(self) -> None:
        if self.n_mixtures < 1:
            raise InvalidInputError("n_mixtures must be >= 1")
        if self.max_iterations < 1:
            raise InvalidInputError("max_iterations must be >= 1")
        if self.rel_ll_tolerance <= 0:
            raise InvalidInputError("rel_ll_tolerance must be positive")
        if self.param_floor <= 0 or self.sigma_floor <= 0:
            raise InvalidInputError("floors must be positive")


@dataclass
class FitReport:
    """Per-iteration log-likelihood trace and convergence bookkeeping."""

    ll_trace: list[LogLikValue]
    iterations_run: int
    converged: bool
    wall_time: float
    newton_fallbacks: int = 0

    @property
    def final_total(self) -> float:
        return self.ll_trace[-1].total


@dataclass
class Responsibilities:
    """Per-event latent attributions.

    ``p0[n]`` is the probability event ``n`` came from user preference,
    ``pz[n, z]`` from background mixture ``z``; ``q[i]`` / ``r[i]`` attach to
    the pair arrays of ``panel`` (``sp_*`` and ``lp_*`` respectively).  For
    every event the pieces sum to one.
    """

    p0: np.ndarray
    pz: np.ndarray
    q: np.ndarray
    r: np.ndarray
    panel: EventPanel = field(repr=False)

    def event_totals(self) -> np.ndarray:
        """Sum of all attributions per event; should be 1 everywhere."""
        n = self.panel.n_events
        tot = self.p0 + self.pz.sum(axis=1)
        tot += np.bincount(self.panel.sp_dst, weights=self.q, minlength=n)
        tot += np.bincount(self.panel.lp_dst, weights=self.r, minlength=n)
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
    a0, bg, q_raw, r_raw, lam = event_contributions(params, panel)
    if panel.n_events and lam.min() <= 0.0:
        bad = int(np.argmin(lam))
        raise DegenerateEventError(
            f"event {panel.event_label(bad)} receives zero intensity from "
            "every model component"
        )
    resp = Responsibilities(
        p0=a0 / lam if panel.n_events else a0,
        pz=bg / lam[:, None] if panel.n_events else bg,
        q=q_raw / lam[panel.sp_dst],
        r=r_raw / lam[panel.lp_dst],
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
    param_floor: float = 1e-8,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Closed-form updates for alpha, beta, theta, phi.

    Each is its responsibility mass over the compensator mass it scales:
    ``T`` per user for alpha, the exact background mass over [0, T] for
    beta and the tail masses of :func:`tail_masses` for theta and phi.
    Cells with no responsibility mass (or an empty denominator) are set to
    ``param_floor``, which keeps the next E step strictly interior.
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
    beta = _ratio(bg_num, U * background_mass(params.mu, params.sigma, T, s.day_length))

    q_den, r_den = tail_masses(params, panel.ev_tail, panel.ev_a, panel.ev_cat)
    q_num = np.bincount(
        panel.sp_a_src * A + panel.sp_a_dst, weights=resp.q, minlength=A * A
    ).reshape(A, A)
    theta = _ratio(q_num, q_den)
    if np.any((q_den <= 0) & (q_num > 0)):
        logger.warning("theta update saw responsibility mass with empty denominator")

    r_num = np.bincount(
        panel.lp_c_src * A + panel.lp_a, weights=resp.r, minlength=C * A
    ).reshape(C, A)
    phi = _ratio(r_num, r_den)

    floor = param_floor
    return (
        np.maximum(alpha, floor),
        np.maximum(beta, floor),
        np.maximum(theta, floor),
        np.maximum(phi, floor),
    )


def m_step_rate(
    resp: Responsibilities, params: ModelParams, T: float
) -> tuple[np.ndarray, np.ndarray]:
    """Tangent-bound ratio updates for the decay rates omega and gamma.

    Cells without responsibility mass (or with an unusable denominator) keep
    their previous value.
    """
    panel = resp.panel
    s = params.structure
    A, C = s.n_actions, s.n_categories

    q_num = np.bincount(
        panel.sp_a_src * A + panel.sp_a_dst, weights=resp.q, minlength=A * A
    ).reshape(A, A)
    q_dt = np.bincount(
        panel.sp_a_src * A + panel.sp_a_dst,
        weights=resp.q * panel.sp_dt,
        minlength=A * A,
    ).reshape(A, A)
    q_tail = np.zeros((A, A))
    for a_src in range(A):
        tails = panel.ev_tail[panel.ev_a == a_src]
        if tails.size:
            q_tail[a_src] = (
                tails[:, None] * np.exp(-np.outer(tails, params.omega[a_src]))
            ).sum(axis=0)
    omega_den = q_dt + params.theta * q_tail
    usable = (q_num > 0) & (omega_den > 0) & np.isfinite(omega_den)
    omega = np.where(usable, q_num / np.where(usable, omega_den, 1.0), params.omega)

    r_num = np.bincount(
        panel.lp_c_src * A + panel.lp_a, weights=resp.r, minlength=C * A
    ).reshape(C, A)
    ka_pair = params.kappa[panel.lp_c_src, panel.lp_a]
    with np.errstate(over="ignore"):
        r_dt = np.bincount(
            panel.lp_c_src * A + panel.lp_a,
            weights=resp.r * panel.lp_dt**ka_pair,
            minlength=C * A,
        ).reshape(C, A)
        ga_ev = params.gamma[panel.ev_cat, panel.ev_a]
        ka_ev = params.kappa[panel.ev_cat, panel.ev_a]
        powered = panel.ev_tail**ka_ev
        r_tail = np.bincount(
            panel.ev_cat * A + panel.ev_a,
            weights=powered * np.exp(-ga_ev * powered),
            minlength=C * A,
        ).reshape(C, A)
    gamma_den = r_dt + params.phi * r_tail
    usable = (r_num > 0) & (gamma_den > 0) & np.isfinite(gamma_den)
    gamma = np.where(usable, r_num / np.where(usable, gamma_den, 1.0), params.gamma)
    return omega, gamma


# ---------------------------------------------------------------------------
# Newton-handled slices: kappa and (mu, sigma)
# ---------------------------------------------------------------------------


def _erf_derivatives(x: float, mu: float, sigma: float) -> tuple[float, ...]:
    """First and second derivatives of ``erf((x - mu) / (sqrt(2) sigma))``:
    d/dmu, d/dsigma, d2/dmu2, d2/dmu dsigma, d2/dsigma2."""
    w = (x - mu) / (_SQRT2 * sigma)
    e = _C1 * math.exp(-w * w)
    s2 = sigma * sigma
    return (
        -e / (_SQRT2 * sigma),
        -w * e / sigma,
        -w * e / s2,
        -e * (2.0 * w * w - 1.0) / (_SQRT2 * s2),
        2.0 * w * (1.0 - w * w) * e / s2,
    )


@dataclass(frozen=True)
class GaussianSlice:
    """Bound slice for one (action, mixture) pair as a function of (mu, sigma).

    ``sw``, ``swl``, ``swll`` are the 0th/1st/2nd responsibility-weighted
    moments of the event hours-of-day; ``kz`` (users times beta) multiplies
    the component's :func:`background_mass` over [0, horizon] in the
    compensator.
    """

    sw: float
    swl: float
    swll: float
    kz: float
    day_length: float
    horizon: float

    def _mass_derivatives(self, mu: float, sigma: float) -> list[float]:
        # background_mass is (full_days (erf at day_length - erf at 0)
        # + (erf at rem - erf at 0)) / 2 with erf at x = erf((x - mu) / (sqrt(2) sigma))
        full_days, rem = divmod(self.horizon, self.day_length)
        at_zero = _erf_derivatives(0.0, mu, sigma)
        at_day = _erf_derivatives(self.day_length, mu, sigma)
        at_rem = _erf_derivatives(rem, mu, sigma)
        return [
            (full_days * (d - z) + (r - z)) / 2.0 for z, d, r in zip(at_zero, at_day, at_rem)
        ]

    def value(self, mu: float, sigma: float) -> float:
        s2 = self.swll - 2.0 * mu * self.swl + mu * mu * self.sw
        mass = float(background_mass(mu, sigma, self.horizon, self.day_length))
        return -self.sw * math.log(sigma) - s2 / (2.0 * sigma * sigma) - self.kz * mass

    def grad(self, mu: float, sigma: float) -> np.ndarray:
        s2 = self.swll - 2.0 * mu * self.swl + mu * mu * self.sw
        d = self._mass_derivatives(mu, sigma)
        g_mu = (self.swl - mu * self.sw) / sigma**2 - self.kz * d[0]
        g_sigma = -self.sw / sigma + s2 / sigma**3 - self.kz * d[1]
        return np.array([g_mu, g_sigma])

    def hess(self, mu: float, sigma: float) -> np.ndarray:
        s2 = self.swll - 2.0 * mu * self.swl + mu * mu * self.sw
        d = self._mass_derivatives(mu, sigma)
        h_mm = -self.sw / sigma**2 - self.kz * d[2]
        h_ms = -2.0 * (self.swl - mu * self.sw) / sigma**3 - self.kz * d[3]
        h_ss = self.sw / sigma**2 - 3.0 * s2 / sigma**4 - self.kz * d[4]
        return np.array([[h_mm, h_ms], [h_ms, h_ss]])


@dataclass(frozen=True)
class ShapeSlice:
    """Bound slice for one (category, action) pair as a function of kappa.

    ``pair_dt``/``pair_r`` are the gaps and responsibilities of the cell's
    same-action pairs; ``tail_s`` the residual horizons of the cell's events.
    ``gamma`` and ``phi`` are held at their current iterates.
    """

    sr: float
    d1: float
    gamma: float
    phi: float
    pair_dt: np.ndarray
    pair_r: np.ndarray
    tail_s: np.ndarray

    def value(self, kappa: float) -> float:
        with np.errstate(over="ignore"):
            dt_k = self.pair_dt**kappa
            s_k = self.tail_s**kappa
        event = self.sr * math.log(kappa) + (kappa - 1.0) * self.d1
        event -= self.gamma * float((self.pair_r * dt_k).sum())
        tail = self.phi * float((-np.expm1(-self.gamma * s_k)).sum())
        return event - tail

    def grad(self, kappa: float) -> float:
        log_dt = np.log(self.pair_dt)
        log_s = np.log(self.tail_s)
        with np.errstate(over="ignore"):
            dt_k = self.pair_dt**kappa
            s_k = self.tail_s**kappa
        g = self.sr / kappa + self.d1
        g -= self.gamma * float((self.pair_r * dt_k * log_dt).sum())
        g -= self.phi * self.gamma * float((s_k * log_s * np.exp(-self.gamma * s_k)).sum())
        return g

    def hess(self, kappa: float) -> float:
        log_dt = np.log(self.pair_dt)
        log_s = np.log(self.tail_s)
        with np.errstate(over="ignore"):
            dt_k = self.pair_dt**kappa
            s_k = self.tail_s**kappa
        h = -self.sr / kappa**2
        h -= self.gamma * float((self.pair_r * dt_k * log_dt**2).sum())
        h -= self.phi * self.gamma * float(
            (log_s**2 * s_k * np.exp(-self.gamma * s_k) * (1.0 - self.gamma * s_k)).sum()
        )
        return h


def gaussian_slices(
    resp: Responsibilities, params: ModelParams, T: float
) -> dict[tuple[int, int], GaussianSlice]:
    """One slice per (action, mixture) cell that carries responsibility mass."""
    panel = resp.panel
    s = params.structure
    A, Z = s.n_actions, s.n_mixtures
    sw = np.zeros((A, Z))
    swl = np.zeros((A, Z))
    swll = np.zeros((A, Z))
    np.add.at(sw, panel.ev_a, resp.pz)
    np.add.at(swl, panel.ev_a, resp.pz * panel.ev_tod[:, None])
    np.add.at(swll, panel.ev_a, resp.pz * panel.ev_tod[:, None] ** 2)
    kz = panel.n_users * params.beta
    out = {}
    for a in range(A):
        for z in range(Z):
            if sw[a, z] > 0:
                out[(a, z)] = GaussianSlice(
                    sw=float(sw[a, z]),
                    swl=float(swl[a, z]),
                    swll=float(swll[a, z]),
                    kz=float(kz[a, z]),
                    day_length=s.day_length,
                    horizon=T,
                )
    return out


def shape_slices(
    resp: Responsibilities, params: ModelParams, T: float
) -> dict[tuple[int, int], ShapeSlice]:
    """One slice per (category, action) cell that carries responsibility mass."""
    panel = resp.panel
    s = params.structure
    A, C = s.n_actions, s.n_categories
    pair_cell = panel.lp_c_src * A + panel.lp_a
    ev_cell = panel.ev_cat * A + panel.ev_a
    pair_order = np.argsort(pair_cell, kind="stable")
    ev_order = np.argsort(ev_cell, kind="stable")
    pair_sorted = pair_cell[pair_order]
    ev_sorted = ev_cell[ev_order]
    out = {}
    for c in range(C):
        for a in range(A):
            cell = c * A + a
            p_lo, p_hi = np.searchsorted(pair_sorted, [cell, cell + 1])
            if p_lo == p_hi:
                continue
            idx = pair_order[p_lo:p_hi]
            r_cell = resp.r[idx]
            sr = float(r_cell.sum())
            if sr <= 0:
                continue
            e_lo, e_hi = np.searchsorted(ev_sorted, [cell, cell + 1])
            tails = panel.ev_tail[ev_order[e_lo:e_hi]]
            out[(c, a)] = ShapeSlice(
                sr=sr,
                d1=float((r_cell * np.log(panel.lp_dt[idx])).sum()),
                gamma=float(params.gamma[c, a]),
                phi=float(params.phi[c, a]),
                pair_dt=panel.lp_dt[idx],
                pair_r=r_cell,
                tail_s=tails[tails > 0],
            )
    return out


def _newton_1d(sl, x0, lo, hi, max_steps, max_inner):
    """Damped ascent on a scalar slice; returns (argmax-ish x, fell_back)."""
    x = min(max(x0, lo), hi)
    fx = sl.value(x)
    for _ in range(max_steps):
        g = sl.grad(x)
        h = sl.hess(x)
        if math.isfinite(h) and h < 0:
            d = -g / h
        else:
            d = g / (abs(h) + 1.0)
        if not math.isfinite(d) or d == 0.0:
            return x, False
        step = 1.0
        accepted = False
        for _ in range(max_inner):
            xn = min(max(x + step * d, lo), hi)
            fn = sl.value(xn)
            if math.isfinite(fn) and fn >= fx - 1e-12 * abs(fx) - 1e-30:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            return x, True
        moved = abs(xn - x)
        x, fx = xn, fn
        if moved < 1e-9 * max(1.0, abs(x)):
            break
    return x, False


def _newton_2d(sl, x0, project, max_steps, max_inner):
    x = project(np.asarray(x0, dtype=float))
    fx = sl.value(*x)
    for _ in range(max_steps):
        g = sl.grad(*x)
        h = sl.hess(*x)
        neg_def = h[0, 0] < 0 and np.linalg.det(h) > 0
        if neg_def:
            d = np.linalg.solve(h, -g)
        else:
            d = g / (np.abs(h).max() + 1.0)
        if not np.all(np.isfinite(d)) or not np.any(d):
            return x, False
        step = 1.0
        accepted = False
        for _ in range(max_inner):
            xn = project(x + step * d)
            fn = sl.value(*xn)
            if math.isfinite(fn) and fn >= fx - 1e-12 * abs(fx) - 1e-30:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            return x, True
        moved = float(np.abs(xn - x).max())
        x, fx = xn, fn
        if moved < 1e-9 * max(1.0, float(np.abs(x).max())):
            break
    return x, False


def m_step_newton(
    resp: Responsibilities,
    params: ModelParams,
    T: float,
    config: FitConfig | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Newton-ascent updates for kappa, mu, sigma; returns them plus the
    number of cells where backtracking gave up (previous value kept)."""
    cfg = config or FitConfig()
    s = params.structure
    kappa = np.array(params.kappa)
    mu = np.array(params.mu)
    sigma = np.array(params.sigma)
    fallbacks = 0

    for (c, a), sl in shape_slices(resp, params, T).items():
        new, fell = _newton_1d(
            sl,
            float(params.kappa[c, a]),
            cfg.param_floor,
            KAPPA_MAX,
            cfg.newton_max_steps,
            cfg.newton_max_inner,
        )
        kappa[c, a] = new
        fallbacks += fell

    day = s.day_length

    def project(x: np.ndarray) -> np.ndarray:
        return np.array(
            [
                min(max(x[0], 1e-6), day - 1e-6),
                max(x[1], cfg.sigma_floor),
            ]
        )

    for (a, z), sl in gaussian_slices(resp, params, T).items():
        new, fell = _newton_2d(
            sl,
            (float(params.mu[a, z]), float(params.sigma[a, z])),
            project,
            cfg.newton_max_steps,
            cfg.newton_max_inner,
        )
        mu[a, z], sigma[a, z] = new
        fallbacks += fell

    return kappa, mu, sigma, fallbacks


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
        base = np.quantile(tods, qs) if tods.size else qs * structure.day_length
        mu[a] = base
    mu = np.clip(mu + jitter, 0.25, structure.day_length - 0.25)

    if not config.include_background:
        beta = np.zeros((A, Z))
    if not config.include_short:
        theta = np.zeros((A, A))
    if not config.include_long:
        phi = np.zeros((C, A))

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


def _m_step(
    resp: Responsibilities, params: ModelParams, config: FitConfig
) -> tuple[ModelParams, int]:
    T = resp.panel.T
    alpha, beta, theta, phi = m_step_closed(resp, params, T, config.param_floor)
    omega, gamma = m_step_rate(resp, params, T)
    kappa, mu, sigma, fallbacks = m_step_newton(resp, params, T, config)

    if not config.include_background:
        beta = np.zeros_like(beta)
        mu, sigma = params.mu, params.sigma
    if not config.include_short:
        theta = np.zeros_like(theta)
        omega = params.omega
    if not config.include_long:
        phi = np.zeros_like(phi)
        gamma, kappa = params.gamma, params.kappa

    new = ModelParams(
        structure=params.structure,
        users=params.users,
        alpha=alpha,
        beta=beta,
        mu=mu,
        sigma=np.maximum(sigma, config.sigma_floor),
        theta=theta,
        omega=omega,
        phi=phi,
        gamma=gamma,
        kappa=kappa,
    )
    return new, fallbacks


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
    if max_a >= n_actions:
        raise InvalidInputError(
            f"data uses action {max_a} but n_actions={n_actions}"
        )
    horizon = cfg.horizon
    if horizon is None:
        horizon = max(1.0, math.ceil(max_t / cfg.day_length)) * cfg.day_length
    structure = ModelStructure(
        n_actions=n_actions,
        n_mixtures=cfg.n_mixtures,
        tod_edges=cfg.tod_edges,
        day_length=cfg.day_length,
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
    horizon = cfg.horizon
    if horizon is None:
        horizon = max(1.0, math.ceil(max_t / cfg.day_length)) * cfg.day_length
    day = cfg.day_length
    t_split = max(day, math.floor(horizon * (1.0 - val_fraction) / day) * day)
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
