"""The thinning simulator as it stood before its dominating rate became
incremental: every candidate rebuilds the rate from the whole history and
the history grows by ``np.append``.  Kept verbatim as the reference that the
incremental simulator must reproduce draw for draw."""

import math

import numpy as np

from tipas.errors import SimulationOverflowError, ThinningBoundError
from tipas.model import (
    TIE_EPSILON,
    ModelParams,
    _intensity_vector_arrays,
    clamp_gaps,
    tod_categories,
    weibull_kernel,
)

_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _bound_arrays(
    params: ModelParams,
    alpha_row: np.ndarray,
    times: np.ndarray,
    actions: np.ndarray,
    cats: np.ndarray,
    t: float,
) -> float:
    bound = float(alpha_row.sum())
    bound += float((params.beta / (params.sigma * _SQRT_2PI)).sum())
    if times.size:
        dt = clamp_gaps(t - times)
        om = params.omega[actions]
        bound += float(
            (params.theta[actions] * om * np.exp(-om * dt[:, None])).sum()
        )
        ph = params.phi[cats, actions]
        ga = params.gamma[cats, actions]
        ka = params.kappa[cats, actions]
        h_now = weibull_kernel(np.log(dt), ph, ga, ka)
        safe_ga = np.where(ga > 0, ga, 1.0)
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            raw_mode = ((ka - 1.0) / (safe_ga * ka)) ** (1.0 / ka)
        mode = np.where((ka > 1.0) & (ga > 0) & np.isfinite(raw_mode), raw_mode, 0.0)
        peak = weibull_kernel(np.log(np.maximum(mode, TIE_EPSILON)), ph, ga, ka)
        # decreasing beyond the mode, so the window sup sits at the left edge
        bound += float(np.where(dt < mode, peak, h_now).sum())
    return bound


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
    out_t: list[float] = []
    out_a: list[int] = []
    end = start + horizon
    t = start
    while t < end:
        lam_bar = _bound_arrays(params, alpha_row, times, actions, cats, t)
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
        lam_vec = _intensity_vector_arrays(params, alpha_row, times, actions, cats, t_cand)
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
            times = np.append(times, t_cand)
            actions = np.append(actions, a)
            cats = np.append(cats, tod_categories(s, t_cand))
            if stop_after is not None and len(out_t) >= stop_after:
                return out_t, out_a
        t = t_cand
    return out_t, out_a
