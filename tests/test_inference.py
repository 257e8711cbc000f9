"""E-step attributions, M-step updates, and the outer EM loop."""

import math
from dataclasses import replace
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tipas import (
    EventRecord,
    FitConfig,
    InvalidInputError,
    ModelParams,
    ModelStructure,
    SyntheticSpec,
    UserHistory,
    e_step,
    fit,
    generate_synthetic,
    intensity_vector,
    load_spec,
    log_likelihood,
    m_step_closed,
    m_step_newton,
    m_step_rate,
)
from tipas.inference import (
    KAPPA_MAX,
    PARAM_FLOOR,
    SIGMA_FLOOR,
    background_objective,
    exponential_objective,
    holdout_loglik,
    select_n_mixtures,
    weibull_objective,
)
from tipas.likelihood import tail_masses
from tipas.model import background_mass

from conftest import random_histories, random_params, zero_params
from oracles import integrated_total_intensity, quadrature_compensator


def build_params(n_actions=1, n_mixtures=1, horizon=100.0, users=("u",), **over):
    s = ModelStructure(n_actions=n_actions, n_mixtures=n_mixtures, horizon=horizon)
    a, z, c = n_actions, n_mixtures, s.n_categories
    base = dict(
        alpha=np.zeros((len(users), a)),
        beta=np.zeros((a, z)),
        mu=np.full((a, z), 12.0),
        sigma=np.ones((a, z)),
        theta=np.zeros((a, a)),
        omega=np.ones((a, a)),
        phi=np.zeros((c, a)),
        gamma=np.full((c, a), 0.1),
        kappa=np.ones((c, a)),
    )
    for key, val in over.items():
        base[key] = np.asarray(val, dtype=float).reshape(base[key].shape)
    return ModelParams(structure=s, users=users, **base)


def trace_truth():
    return build_params(
        n_actions=2,
        horizon=240.0,
        users=("t",),
        alpha=[[0.03, 0.03]],
        beta=[[0.3], [0.3]],
        mu=[[9.0], [15.0]],
        sigma=[[1.5], [2.0]],
        theta=[[0.1, 0.2], [0.1, 0.1]],
        omega=[[2.0, 2.0], [2.0, 2.0]],
        phi=[[0.2, 0.2]] * 4,
        gamma=[[0.2, 0.2]] * 4,
    )


def exact_loglik(params, histories, T):
    """Event term minus the per-user integrated intensity."""
    comp = sum(integrated_total_intensity(params, h, T) for h in histories)
    return log_likelihood(params, histories, T).event_term - comp


class TestEStep:
    def test_pure_preference(self):
        p = build_params(alpha=0.3)
        resp = e_step(p, [UserHistory("u", (EventRecord(0, 1.0), EventRecord(0, 5.0)))])
        np.testing.assert_allclose(resp.p0, 1.0)
        assert resp.pz.sum() == 0.0
        assert resp.q.sum() == 0.0

    def test_equal_sources_split_evenly(self):
        # alpha 0.2 against a background component worth 0.2 at the event
        peak = 0.2 * math.sqrt(2 * math.pi) * 1.0
        p = build_params(alpha=0.2, beta=peak, mu=12.0, sigma=1.0)
        resp = e_step(p, [UserHistory("u", (EventRecord(0, 12.0),))])
        assert resp.p0[0] == pytest.approx(0.5, rel=1e-12)
        assert resp.pz[0, 0] == pytest.approx(0.5, rel=1e-12)

    def test_preference_vs_short_term(self):
        # short-term kernel tuned to contribute exactly 0.3 at the event
        p = build_params(alpha=0.1, theta=0.3, omega=2.0)
        gap = math.log(2.0) / 2.0  # theta * omega * exp(-omega gap) = 0.3
        h = UserHistory("u", (EventRecord(0, 1.0), EventRecord(0, 1.0 + gap)))
        resp = e_step(p, [h])
        assert resp.p0[1] == pytest.approx(0.25, rel=1e-10)
        assert resp.q[1, 0] == pytest.approx(0.75, rel=1e-10)

    def test_normalization_bulk(self):
        rng = np.random.default_rng(17)
        total_events = 0
        while total_events < 2000:
            p = random_params(rng, users=("u1", "u2", "u3"))
            hs = random_histories(rng, n_users=3, max_events=25)
            n = sum(len(h) for h in hs)
            if n == 0:
                continue
            resp = e_step(p, hs)
            np.testing.assert_allclose(resp.event_totals(), 1.0, atol=1e-12)
            total_events += n


class TestMStepClosed:
    def test_alpha_update(self):
        # all mass on preference, 5 events, T=10 -> alpha = 0.5
        p = build_params(alpha=0.3, horizon=10.0)
        h = [UserHistory("u", tuple(EventRecord(0, float(t)) for t in range(1, 6)))]
        resp = e_step(p, h)
        alpha, _, _, _ = m_step_closed(resp, p, 10.0)
        assert alpha[0, 0] == pytest.approx(0.5, rel=1e-12)

    def test_empty_mixture_floored(self):
        p = build_params(alpha=0.3, horizon=10.0)
        h = [UserHistory("u", (EventRecord(0, 1.0),))]
        resp = e_step(p, h)
        _, beta, _, _ = m_step_closed(resp, p, 10.0)
        assert beta[0, 0] == PARAM_FLOOR == 1e-8

    def test_theta_large_horizon_limit(self):
        # with T - t huge the denominator approaches the source-event count
        p = build_params(
            n_actions=2,
            horizon=1e7,
            alpha=[[1e-12, 1e-12]],
            theta=[[1e-12, 0.5], [1e-12, 1e-12]],
            omega=[[1.0, 2.0], [1.0, 1.0]],
        )
        events = (
            EventRecord(0, 1.0),
            EventRecord(1, 1.2),
            EventRecord(0, 50.0),
            EventRecord(1, 50.1),
        )
        resp = e_step(p, [UserHistory("u", events)])
        q_mass = resp.q.sum()
        _, _, theta, _ = m_step_closed(resp, p, 1e7)
        assert theta[0, 1] == pytest.approx(q_mass / 2.0, rel=1e-3)


def ascend_block(step, resp, p, names, n_steps):
    """Repeat one block's M-step at fixed responsibilities; returns the last
    parameter set."""
    for _ in range(n_steps):
        p = replace(p, **dict(zip(names, step(resp, p, p.structure.horizon))))
    return p


class TestMStepRate:
    def test_omega_single_pair(self):
        # one triggered pair with gap 2, negligible tail -> omega = 1/2
        p = build_params(alpha=1e-14, theta=0.5, omega=1.0, horizon=1e9)
        resp = e_step(p, [UserHistory("u", (EventRecord(0, 1.0), EventRecord(0, 3.0)))])
        assert resp.q[1, 0] == pytest.approx(1.0, rel=1e-9)
        p = ascend_block(m_step_rate, resp, p, ("omega", "gamma", "kappa"), 20)
        assert p.omega[0, 0] == pytest.approx(0.5, rel=1e-6)

    def test_gamma_single_pair_shape_one(self):
        # one recurrence pair with gap 4: for every kappa the profiled bound
        # peaks at Weibull scale 4, i.e. gamma = 4^-kappa (1/4 at kappa = 1);
        # a single gap has no spread, so kappa climbs to its cap
        p = build_params(alpha=1e-14, phi=[[0.5]] * 4, gamma=[[1.0]] * 4, horizon=1e9)
        resp = e_step(p, [UserHistory("u", (EventRecord(0, 1.0), EventRecord(0, 5.0)))])
        assert resp.r[0] == pytest.approx(1.0, rel=1e-9)
        objective, _, _ = weibull_objective(resp, p)
        _, grad, _ = objective(np.array([[math.log(4.0), 1.0]] * 4), derivatives=True)
        assert abs(grad[0, 0]) < 1e-9
        p = ascend_block(m_step_rate, resp, p, ("omega", "gamma", "kappa"), 20)
        assert p.gamma[0, 0] ** (-1.0 / p.kappa[0, 0]) == pytest.approx(4.0, rel=1e-6)
        assert p.kappa[0, 0] == KAPPA_MAX

    def test_no_mass_keeps_previous(self):
        p = build_params(alpha=0.3, omega=1.7, gamma=[[0.31]] * 4, kappa=[[0.7]] * 4)
        resp = e_step(p, [UserHistory("u", (EventRecord(0, 1.0),))])
        omega, gamma, kappa, fallbacks = m_step_rate(resp, p, 100.0)
        assert omega[0, 0] == 1.7
        assert gamma[0, 0] == 0.31
        assert kappa[0, 0] == 0.7
        assert fallbacks == 0

    def test_weight_at_floor_keeps_shape(self):
        # a cell with responsibility mass but its weight at PARAM_FLOOR has a
        # bound flat to rounding in its shape, so it keeps its shape
        rng = np.random.default_rng(3)
        hs = random_histories(rng, n_users=3, max_events=60, horizon=100.0)
        p = random_params(rng, horizon=100.0, users=tuple(h.user for h in hs))
        theta, phi = p.theta.copy(), p.phi.copy()
        theta[0, 1] = PARAM_FLOOR
        phi[1, 0] = PARAM_FLOOR
        p = replace(p, theta=theta, phi=phi)
        resp = e_step(p, hs)
        # flat cells: (a', a) = (0, 1) is 1, (c, a) = (1, 0) is 2
        assert resp.panel.source_cell_sums(resp.q)[1] > 0
        assert resp.pairs.cell_sums(resp.r)[2] > 0
        assert not exponential_objective(resp, p)[2][1]
        assert not weibull_objective(resp, p)[2][2]
        omega, gamma, kappa, _ = m_step_rate(resp, p, 100.0)
        assert omega[0, 1] == p.omega[0, 1]
        assert (gamma[1, 0], kappa[1, 0]) == (p.gamma[1, 0], p.kappa[1, 0])
        # the cells above the floor still move
        assert omega[0, 0] != p.omega[0, 0] and gamma[0, 0] != p.gamma[0, 0]


def block_problems(resp, p, T):
    """The three profiled objectives with, per block, the map from its
    coordinates to the parameters of the exact model along the curve that
    keeps each cell's compensator share (weight times tail or background
    mass) at its current value."""
    panel = resp.panel
    s = p.structure
    A, C = s.n_actions, s.n_categories

    def tails(q, which):
        return tail_masses(q, panel.ev_tail, panel.ev_a, panel.ev_cat)[which]

    def rescaled(weight, before, after):
        # cells without events have no tail mass and keep their weight
        return np.where(after > 0, weight * before / np.where(after > 0, after, 1.0), weight)

    def exp_params(x):
        moved = replace(p, omega=np.exp(x[:, 0]).reshape(A, A))
        return replace(moved, theta=rescaled(p.theta, tails(p, 0), tails(moved, 0)))

    def weibull_params(x):
        u, k = x[:, 0].reshape(C, A), x[:, 1].reshape(C, A)
        moved = replace(p, gamma=np.exp(-k * u), kappa=k)
        return replace(moved, phi=rescaled(p.phi, tails(p, 1), tails(moved, 1)))

    def background_params(x):
        mu, sigma = x[:, 0].reshape(p.mu.shape), x[:, 1].reshape(p.mu.shape)
        mass = background_mass(p.mu, p.sigma, T)
        beta = p.beta * mass / background_mass(mu, sigma, T)
        return replace(p, mu=mu, sigma=sigma, beta=beta)

    return [
        (*exponential_objective(resp, p), exp_params),
        (*weibull_objective(resp, p), weibull_params),
        (*background_objective(resp, p, T), background_params),
    ]


def central_differences(fn, x0, h):
    """Central differences of ``fn`` in each coordinate, for all cells at
    once (the cells of a block are independent)."""
    out = []
    for j in range(x0.shape[1]):
        step = np.zeros_like(x0)
        step[:, j] = h
        out.append((fn(x0 + step) - fn(x0 - step)) / (2 * h))
    return np.stack(out, axis=-1)


class TestMStepNewton:
    def test_gradients_match_finite_differences(self):
        # each profiled objective's gradient and Hessian against finite
        # differences of its value and gradient, and its gradient against
        # finite differences of the exact log-likelihood along the curve that
        # holds the cell's compensator share fixed: by the envelope theorem
        # the two agree because the EM bound touches the log-likelihood at
        # the current iterate; at whole-day and fractional horizons
        rng = np.random.default_rng(42)
        for T in (48.0, 45.5):
            checked = 0
            while checked < 25:
                p = random_params(rng, users=("u1", "u2"), horizon=T, kappa_range=(0.7, 2.5))
                hs = random_histories(rng, n_users=2, max_events=15, horizon=T)
                if sum(len(h) for h in hs) == 0:
                    continue
                resp = e_step(p, hs)
                for objective, x0, active, to_params in block_problems(resp, p, T):
                    h = 1e-5
                    _, g, hess = objective(x0, derivatives=True)
                    fd = central_differences(objective, x0, h)
                    np.testing.assert_allclose(g[active], fd[active], rtol=1e-4, atol=1e-7)
                    fd_hess = central_differences(
                        lambda x: objective(x, derivatives=True)[1], x0, h
                    )
                    np.testing.assert_allclose(
                        hess[active], fd_hess[active], rtol=1e-4, atol=1e-6
                    )
                    for i in np.flatnonzero(active):
                        exact = []
                        for j in range(x0.shape[1]):
                            side = []
                            for sign in (1.0, -1.0):
                                x = x0.copy()
                                x[i, j] += sign * h
                                side.append(exact_loglik(to_params(x), hs, T))
                            exact.append((side[0] - side[1]) / (2 * h))
                        np.testing.assert_allclose(g[i], exact, rtol=1e-4, atol=1e-6)
                checked += 1

    def test_mu_converges_to_weighted_mean(self):
        # with all mass on the mixture the profiled optimum is the weighted
        # mean of the event hours (10) with their spread as sigma
        p = build_params(beta=1e-12, mu=9.0, sigma=1.0, alpha=1e-6, horizon=48.0)
        h = [UserHistory("u", (EventRecord(0, 9.9), EventRecord(0, 10.1)))]
        resp = e_step(p, h)
        resp.pz[:, 0] = 1.0
        resp.p0[:] = 0.0
        p = ascend_block(m_step_newton, resp, p, ("mu", "sigma"), 40)
        assert p.mu[0, 0] == pytest.approx(10.0, abs=1e-3)
        assert p.sigma[0, 0] == pytest.approx(0.1, rel=1e-2)


class TestFit:
    def test_poisson_rate_recovery(self):
        # constant-rate data with every structural component disabled
        rng = np.random.default_rng(3)
        times = np.sort(rng.uniform(0, 720.0, 400))
        h = [UserHistory("u", tuple(EventRecord(0, float(t)) for t in times))]
        cfg = FitConfig(
            n_mixtures=1,
            include_background=False,
            include_short=False,
            include_long=False,
            horizon=720.0,
            max_iterations=20,
        )
        params, _ = fit(h, cfg)
        assert params.alpha[0, 0] == pytest.approx(400 / 720.0, rel=0.02)

    def test_trace_is_monotone(self):
        hs = generate_synthetic(
            SyntheticSpec(n_users=6, params=trace_truth(), horizon=240.0, seed=4)
        )
        _, report = fit(hs, FitConfig(n_mixtures=2, rng_seed=1, max_iterations=60, horizon=240.0))
        totals = [v.total for v in report.ll_trace]
        for prev, nxt in zip(totals, totals[1:]):
            assert nxt >= prev - 1e-8 * abs(prev)

    def test_trace_ascends_on_demo_draw(self):
        # a demo-spec draw (1,502 events) on which the exact trace of a
        # three-mixture fit fell at 8 of its first 45 iterations, by up to
        # 119 nats, while the M-step blocks all read the previous iterate
        with resources.as_file(resources.files("tipas").joinpath("data/demo_spec.json")) as path:
            spec, _ = load_spec(path)
        hs = generate_synthetic(replace(spec, seed=91))
        _, report = fit(hs, FitConfig(n_mixtures=3, max_iterations=45, horizon=spec.horizon))
        totals = [v.total for v in report.ll_trace]
        assert len(totals) == 46
        for prev, nxt in zip(totals, totals[1:]):
            assert nxt >= prev - 1e-8 * abs(prev)

    def test_fractional_horizon_trace_is_exact(self):
        # a horizon that ends mid-day: the traced log-likelihood of the fitted
        # model must be its exact one, with the compensator from quadrature
        hs = generate_synthetic(
            SyntheticSpec(n_users=6, params=trace_truth(), horizon=240.0, seed=4)
        )
        hs = [UserHistory(h.user, tuple(e for e in h.events if e.t <= 36.0)) for h in hs]
        params, report = fit(
            hs, FitConfig(n_mixtures=2, rng_seed=1, max_iterations=60, horizon=36.0)
        )
        last = report.ll_trace[-1]
        exact = last.event_term - quadrature_compensator(params, hs, 36.0, n_panels=200)
        assert last.total == pytest.approx(exact, rel=1e-6)

    def test_seed_determinism_bitwise(self):
        rng = np.random.default_rng(8)
        hs = random_histories(rng, n_users=3, max_events=20, horizon=48.0)
        cfg = FitConfig(n_mixtures=2, rng_seed=5, max_iterations=15, horizon=48.0)
        _, r1 = fit(hs, cfg)
        _, r2 = fit(hs, cfg)
        assert [v.total for v in r1.ll_trace] == [v.total for v in r2.ll_trace]

    def test_empty_data_rejected(self):
        with pytest.raises(InvalidInputError):
            fit([UserHistory("u", ())], FitConfig())

    def test_convergence_flag(self):
        rng = np.random.default_rng(12)
        hs = random_histories(rng, n_users=2, max_events=15, horizon=48.0)
        cfg = FitConfig(
            n_mixtures=1, rng_seed=0, max_iterations=500, rel_ll_tolerance=1e-4, horizon=48.0
        )
        params, report = fit(hs, cfg)
        assert report.converged
        assert report.iterations_run < 500
        assert report.ll_trace[-1].total >= report.ll_trace[0].total

    def test_report_counts_cells_on_bounds(self):
        # this small fit drives some Weibull shapes to the kappa cap
        rng = np.random.default_rng(12)
        hs = random_histories(rng, n_users=2, max_events=15, horizon=48.0)
        cfg = FitConfig(
            n_mixtures=1, rng_seed=0, max_iterations=500, rel_ll_tolerance=1e-4, horizon=48.0
        )
        params, report = fit(hs, cfg)
        assert report.kappa_at_max == np.count_nonzero(params.kappa == KAPPA_MAX) >= 1
        # one action, always at 09:00: the background takes every event, so
        # its sigma sinks to the floor and theta and the four phi cells too
        t = 9.0 + 24.0 * np.arange(10) + np.linspace(0.0, 0.01, 10)
        daily = [UserHistory.from_arrays("u", t, np.zeros(10, dtype=int))]
        params, report = fit(daily, FitConfig(n_mixtures=1, horizon=240.0))
        assert params.sigma[0, 0] == SIGMA_FLOOR
        assert (report.sigma_at_floor, report.weights_at_floor) == (1, 5)
        assert report.kappa_at_max == 0

    def test_degenerate_event_error_names_offender(self):
        from tipas import DegenerateEventError

        p = zero_params(ModelStructure(n_actions=1, n_mixtures=1, horizon=10.0), users=("u",))
        with pytest.raises(DegenerateEventError, match="u"):
            e_step(p, [UserHistory("u", (EventRecord(0, 1.0),))])

    def test_disabled_components_stay_zero(self):
        rng = np.random.default_rng(13)
        hs = random_histories(rng, n_users=2, max_events=15, horizon=48.0)
        cfg = FitConfig(
            n_mixtures=1,
            rng_seed=0,
            max_iterations=10,
            include_short=False,
            include_long=False,
            horizon=48.0,
        )
        params, _ = fit(hs, cfg)
        assert np.all(params.theta == 0.0)
        assert np.all(params.phi == 0.0)

    def test_small_recovery(self):
        # the full-scale recovery run lives in the acceptance suite
        s = ModelStructure(n_actions=2, n_mixtures=1, tod_edges=(0.0, 12.0, 24.0), horizon=720.0)
        truth = ModelParams(
            structure=s,
            users=("t",),
            alpha=np.zeros((1, 2)),
            beta=np.array([[0.3], [0.3]]),
            mu=np.array([[9.0], [15.0]]),
            sigma=np.array([[2.0], [2.5]]),
            theta=np.array([[0.10, 0.25], [0.15, 0.10]]),
            omega=np.array([[12.0, 3.0], [2.5, 12.0]]),
            phi=np.full((2, 2), 0.35),
            gamma=np.full((2, 2), 0.25),
            kappa=np.ones((2, 2)),
        )
        hs = generate_synthetic(SyntheticSpec(n_users=60, params=truth, horizon=720.0, seed=11))
        cfg = FitConfig(
            n_mixtures=1,
            rng_seed=3,
            tod_edges=(0.0, 12.0, 24.0),
            max_iterations=400,
            rel_ll_tolerance=1e-7,
            horizon=720.0,
        )
        params, _ = fit(hs, cfg)
        assert np.max(np.abs(params.beta - truth.beta) / truth.beta) < 0.35
        assert np.max(np.abs(params.mu - truth.mu) / truth.mu) < 0.1
        assert np.max(np.abs(params.theta - truth.theta) / truth.theta) < 0.5


class TestMixtureSelection:
    def test_select_runs_and_returns_grid_member(self):
        truth = build_params(
            n_actions=1,
            horizon=480.0,
            users=("t",),
            alpha=[[0.02]],
            beta=[[0.6]],
            mu=[[9.0]],
            sigma=[[1.5]],
        )
        hs = generate_synthetic(SyntheticSpec(n_users=6, params=truth, horizon=480.0, seed=6))
        cfg = FitConfig(rng_seed=0, max_iterations=40, horizon=480.0)
        z = select_n_mixtures(hs, cfg, grid=(1, 2))
        assert z in (1, 2)

    def test_data_within_one_day_is_rejected(self):
        # the validation slice (24, 24] would hold no event, and every
        # candidate would score 0
        hs = [
            UserHistory.from_arrays(u, [0.5 + k, 6.0 + k, 23.5], [0, 0, 0])
            for k, u in enumerate(("a", "b", "c"))
        ]
        with pytest.raises(InvalidInputError, match="validation slice"):
            select_n_mixtures(hs, FitConfig(max_iterations=5), grid=(1, 2, 3))

    def test_holdout_matches_event_loop(self):
        rng = np.random.default_rng(31)
        p = random_params(rng, users=("u1", "u2", "u3"), horizon=96.0)
        hs = random_histories(rng, n_users=3, max_events=40, horizon=96.0)
        t_to = 90.25
        for t_from in (48.0, 50.5):
            # each held-out event scored on its full earlier history
            expected = 0.0
            for hist in hs:
                events = hist.events
                for n, ev in enumerate(events):
                    if t_from < ev.t <= t_to:
                        lam = intensity_vector(p, hist.user, events[:n], ev.t)
                        expected += math.log(max(float(lam[ev.action]), 1e-300))
                expected -= integrated_total_intensity(p, hist, t_to) - (
                    integrated_total_intensity(p, hist, t_from)
                )
            got = holdout_loglik(p, hs, t_from, t_to)
            assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_responsibilities_normalize(seed):
    rng = np.random.default_rng(seed)
    p = random_params(rng, users=("u1", "u2"))
    hs = random_histories(rng, n_users=2, max_events=15)
    if sum(len(h) for h in hs) == 0:
        return
    resp = e_step(p, hs)
    np.testing.assert_allclose(resp.event_totals(), 1.0, atol=1e-12)
