"""Log-likelihood, the closed-form compensator, and its quadrature oracle."""

import math
from dataclasses import replace
from importlib import resources

import numpy as np
import pytest
from scipy import stats

from tipas import (
    EventRecord,
    FitConfig,
    InvalidInputError,
    ModelParams,
    ModelStructure,
    SyntheticSpec,
    UserHistory,
    analytic_compensator,
    fit,
    generate_synthetic,
    load_spec,
    log_likelihood,
    rescaled_interarrivals,
)
from tipas.model import TIE_EPSILON, _StreamState
from tipas.simulate import params_for_users

from conftest import random_histories, random_params, zero_params
from oracles import integrated_total_intensity, quadrature_compensator


def alpha_only_params(alpha: float, T: float = 10.0) -> ModelParams:
    s = ModelStructure(n_actions=1, n_mixtures=1, horizon=T)
    return ModelParams(
        structure=s,
        users=("u",),
        alpha=np.full((1, 1), alpha),
        beta=np.zeros((1, 1)),
        mu=np.full((1, 1), 12.0),
        sigma=np.ones((1, 1)),
        theta=np.zeros((1, 1)),
        omega=np.zeros((1, 1)),
        phi=np.zeros((4, 1)),
        gamma=np.zeros((4, 1)),
        kappa=np.ones((4, 1)),
    )


class TestLogLikelihood:
    def test_constant_rate_hand_value(self):
        p = alpha_only_params(0.1)
        h = [UserHistory("u", (EventRecord(0, 1.0), EventRecord(0, 2.0)))]
        v = log_likelihood(p, h, 10.0)
        assert v.total == pytest.approx(2 * math.log(0.1) - 1.0, rel=1e-12)
        assert v.total == v.event_term - v.compensator

    def test_empty_history_zero_model(self):
        p = zero_params(ModelStructure(n_actions=1, n_mixtures=1), users=("u",))
        v = log_likelihood(p, [UserHistory("u", ())], 10.0)
        assert v.event_term == 0.0
        assert v.compensator == 0.0

    def test_zero_intensity_event_gives_minus_inf(self):
        p = zero_params(ModelStructure(n_actions=1, n_mixtures=1), users=("u",))
        v = log_likelihood(p, [UserHistory("u", (EventRecord(0, 1.0),))], 10.0)
        assert v.event_term == -math.inf
        assert v.n_floored == 1
        assert v.offenders[0] == ("u", 0)

    def test_event_beyond_horizon_rejected(self):
        p = alpha_only_params(0.1)
        with pytest.raises(InvalidInputError):
            log_likelihood(p, [UserHistory("u", (EventRecord(0, 11.0),))], 10.0)

    @pytest.mark.parametrize("T", [math.nan, math.inf])
    @pytest.mark.parametrize(
        "func", [log_likelihood, analytic_compensator], ids=lambda f: f.__name__
    )
    def test_non_finite_horizon_rejected(self, func, T):
        # a data error, not a NaN compensator or a numerical failure
        p = alpha_only_params(0.1)
        hs = [UserHistory("u", (EventRecord(0, 1.0), EventRecord(0, 2.0)))]
        with pytest.raises(InvalidInputError, match="observation horizon"):
            func(p, hs, T)

    def test_user_order_invariance(self):
        rng = np.random.default_rng(0)
        p = random_params(rng, users=("u1", "u2", "u3"))
        hs = random_histories(rng, n_users=3)
        a = log_likelihood(p, hs, 48.0).total
        b = log_likelihood(p, hs[::-1], 48.0).total
        assert a == pytest.approx(b, rel=1e-12)

    def test_mixture_relabel_invariance(self):
        rng = np.random.default_rng(1)
        p = random_params(rng)
        hs = random_histories(rng, n_users=2)
        swapped = ModelParams(
            structure=p.structure,
            users=p.users,
            alpha=p.alpha,
            beta=p.beta[:, ::-1],
            mu=p.mu[:, ::-1],
            sigma=p.sigma[:, ::-1],
            theta=p.theta,
            omega=p.omega,
            phi=p.phi,
            gamma=p.gamma,
            kappa=p.kappa,
        )
        a = log_likelihood(p, hs, 48.0).total
        b = log_likelihood(swapped, hs, 48.0).total
        assert a == pytest.approx(b, rel=1e-12)

    def test_fit_beats_initial_params(self):
        s = ModelStructure(n_actions=2, n_mixtures=1, horizon=240.0)
        truth = ModelParams(
            structure=s,
            users=("tmpl",),
            alpha=np.full((1, 2), 0.05),
            beta=np.array([[0.4], [0.4]]),
            mu=np.array([[9.0], [15.0]]),
            sigma=np.array([[1.5], [2.0]]),
            theta=np.full((2, 2), 0.1),
            omega=np.ones((2, 2)),
            phi=np.full((4, 2), 0.1),
            gamma=np.full((4, 2), 0.2),
            kappa=np.ones((4, 2)),
        )
        hs = generate_synthetic(SyntheticSpec(n_users=8, params=truth, horizon=240.0, seed=2))
        _, report = fit(hs, FitConfig(n_mixtures=1, rng_seed=0, max_iterations=40, horizon=240.0))
        assert report.ll_trace[-1].total > report.ll_trace[0].total


class TestCompensator:
    def test_alpha_only(self):
        p = alpha_only_params(0.1)
        h = [UserHistory("u", (EventRecord(0, 1.0),))]
        assert analytic_compensator(p, h, 10.0) == pytest.approx(1.0, rel=1e-12)

    def test_saturated_erf_is_unit_day_mass(self):
        s = ModelStructure(n_actions=1, n_mixtures=1, horizon=24.0)
        p = ModelParams(
            structure=s,
            users=("u",),
            alpha=np.zeros((1, 1)),
            beta=np.ones((1, 1)),
            mu=np.full((1, 1), 12.0),
            sigma=np.ones((1, 1)),
            theta=np.zeros((1, 1)),
            omega=np.zeros((1, 1)),
            phi=np.zeros((4, 1)),
            gamma=np.zeros((4, 1)),
            kappa=np.ones((4, 1)),
        )
        # erf(12 / sqrt(2)) saturates, so one day catches the whole unit mass
        c = analytic_compensator(p, [UserHistory("u", ())], 24.0)
        assert c == pytest.approx(1.0, abs=1e-15)

    def test_branching_mass_saturates(self):
        s = ModelStructure(n_actions=1, n_mixtures=1, horizon=10.0)
        p = ModelParams(
            structure=s,
            users=("u",),
            alpha=np.zeros((1, 1)),
            beta=np.zeros((1, 1)),
            mu=np.full((1, 1), 12.0),
            sigma=np.ones((1, 1)),
            theta=np.ones((1, 1)),
            omega=np.full((1, 1), 1e6),
            phi=np.zeros((4, 1)),
            gamma=np.zeros((4, 1)),
            kappa=np.ones((4, 1)),
        )
        h = [UserHistory("u", (EventRecord(0, 1.0),))]
        assert analytic_compensator(p, h, 10.0) == pytest.approx(1.0, rel=1e-12)

    def test_quadrature_alpha_only(self):
        p = alpha_only_params(0.1)
        h = [UserHistory("u", (EventRecord(0, 1.0),))]
        assert quadrature_compensator(p, h, 10.0, n_panels=50) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_quadrature_zero_model(self):
        p = zero_params(ModelStructure(n_actions=1, n_mixtures=1), users=("u",))
        assert quadrature_compensator(p, [UserHistory("u", ())], 10.0, 50) == 0.0

    def test_compensator_never_negative(self):
        rng = np.random.default_rng(44)
        for _ in range(50):
            p = random_params(rng, users=("u1", "u2"))
            hs = random_histories(rng, n_users=2, max_events=12)
            assert analytic_compensator(p, hs, 48.0) >= 0.0

    def test_oracle_equivalence_sample(self):
        # the full 100-instance sweep at 48 h lives in the acceptance suite;
        # the other horizons end mid-day, where the background counts a
        # partial day
        rng = np.random.default_rng(123)
        for T in (48.0, 36.0, 45.5, 129.0):
            for _ in range(10):
                p = random_params(rng, users=("u1", "u2"))
                hs = random_histories(rng, n_users=2, max_events=10, horizon=T)
                a = analytic_compensator(p, hs, T)
                q = quadrature_compensator(p, hs, T, n_panels=150)
                assert abs(a - q) / max(1.0, abs(a)) < 1e-6
        # kappa < 1 with a 5e-6 h gap: the Weibull hazard's spike just after
        # the second event must be integrated at its true gap, not one
        # raised to TIE_EPSILON
        s = ModelStructure(n_actions=1, n_mixtures=1, horizon=36.0)
        p = replace(
            zero_params(s, users=("u",)),
            alpha=np.full((1, 1), 0.01),
            phi=np.full((4, 1), 1.5),
            gamma=np.full((4, 1), 0.47),
            kappa=np.full((4, 1), 0.37),
        )
        hs = [UserHistory("u", (EventRecord(0, 1.0), EventRecord(0, 1.000005)))]
        a = analytic_compensator(p, hs, 36.0)
        q = quadrature_compensator(p, hs, 36.0, n_panels=150)
        assert abs(a - q) / max(1.0, abs(a)) < 1e-6


class TestIntegratedIntensity:
    def test_matches_compensator_at_any_horizon(self):
        rng = np.random.default_rng(9)
        p = random_params(rng, users=("u1",))
        for T in (48.0, 45.5):
            hs = random_histories(rng, n_users=1, max_events=10, horizon=T)
            total = integrated_total_intensity(p, hs[0], T)
            assert total == pytest.approx(analytic_compensator(p, hs, T), rel=1e-12)

    def test_partial_day_monotone(self):
        rng = np.random.default_rng(10)
        p = random_params(rng, users=("u1",))
        hs = random_histories(rng, n_users=1, max_events=10)
        values = [integrated_total_intensity(p, hs[0], t) for t in np.linspace(0, 48, 33)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_time_rescaling_ks(self):
        # interarrivals transformed by the generating model's compensator
        # must look Exp(1)
        s = ModelStructure(n_actions=2, n_mixtures=1, horizon=720.0)
        truth = ModelParams(
            structure=s,
            users=("tmpl",),
            alpha=np.full((1, 2), 0.02),
            beta=np.array([[0.3], [0.3]]),
            mu=np.array([[9.0], [15.0]]),
            sigma=np.array([[1.5], [2.0]]),
            theta=np.array([[0.1, 0.2], [0.15, 0.1]]),
            omega=np.array([[2.0, 2.5], [1.5, 2.0]]),
            phi=np.full((4, 2), 0.2),
            gamma=np.full((4, 2), 0.2),
            kappa=np.full((4, 2), 1.3),
        )
        hs = generate_synthetic(SyntheticSpec(n_users=40, params=truth, horizon=720.0, seed=21))
        bound = params_for_users(truth, [h.user for h in hs])
        z = np.concatenate([rescaled_interarrivals(bound, h) for h in hs])
        assert z.size >= 1500
        res = stats.kstest(z, "expon")
        assert res.pvalue > 0.01


def params_with_idle_cells(rng: np.random.Generator) -> ModelParams:
    """Random parameters, kappa in [0.4, 3], with some omega = 0 cells."""
    p = random_params(rng, n_actions=3, kappa_range=(0.4, 3.0))
    omega = np.where(rng.random((3, 3)) < 0.3, 0.0, p.omega)
    omega[0, 1] = 0.0
    return replace(p, omega=omega)


def history_with_close_end(rng: np.random.Generator) -> UserHistory:
    """Events across midnight, then up to three more at exact ties or gaps
    below TIE_EPSILON after the last; sometimes no events at all."""
    n = int(rng.integers(0, 9))
    times = np.sort(rng.uniform(10.0, 40.0, n))
    if n:
        close = [0.0, 1e-9, 0.5 * TIE_EPSILON, 0.999 * TIE_EPSILON]
        gaps = rng.choice(close, int(rng.integers(0, 4)))
        times = np.append(times, times[-1] + np.cumsum(gaps))
    return UserHistory.from_arrays("u1", times, rng.integers(0, 3, times.size))


def old_rescaled_interarrivals(params: ModelParams, history: UserHistory) -> np.ndarray:
    """The per-event loop ``rescaled_interarrivals`` replaced: O(n^2)."""
    at = [integrated_total_intensity(params, history, t) for t in history.times().tolist()]
    return np.diff(at, prepend=0.0)


class TestStreamStateIncrements:
    """The stream state's compensator from its clock against the closed form."""

    LAGS = np.concatenate(
        ([1e-9, 1e-7, TIE_EPSILON, 1e-3, 0.25, 1.0], np.linspace(3.0, 120.0, 9))
    )

    def test_matches_integrated_intensity(self):
        # the error is measured against Lambda(start + s), not against the
        # increment: at a lag of 1e-6 h the difference of two closed forms
        # cancels to ~1e-8 relative, while both agree to ~1e-16 of Lambda
        rng = np.random.default_rng(41)
        for _ in range(60):
            p = params_with_idle_cells(rng)
            h = history_with_close_end(rng)
            times, actions = h.times(), h.actions()
            state = _StreamState(p, p.alpha[0], times, actions)
            start = state.clock
            got = state.increments(self.LAGS)
            base = integrated_total_intensity(p, h, start)
            total = np.array(
                [integrated_total_intensity(p, h, start + s) for s in self.LAGS]
            )
            np.testing.assert_array_less(np.abs(got - (total - base)), 1e-12 * total)

    def test_added_events_match_a_fresh_state(self):
        rng = np.random.default_rng(42)
        for _ in range(30):
            p = params_with_idle_cells(rng)
            h = history_with_close_end(rng)
            times, actions = h.times(), h.actions()
            walked = _StreamState(p, p.alpha[0], times[:0], actions[:0])
            for t, a in zip(times.tolist(), actions.tolist()):
                walked.add(t, a)
            fresh = _StreamState(p, p.alpha[0], times, actions)
            np.testing.assert_allclose(
                walked.increments(self.LAGS), fresh.increments(self.LAGS), rtol=1e-12, atol=0.0
            )

    def test_rescaled_interarrivals_match_per_event_loop(self):
        rng = np.random.default_rng(43)
        for _ in range(30):
            p = params_with_idle_cells(rng)
            n = int(rng.integers(1, 30))
            times = np.sort(rng.uniform(0.0, 72.0, n))
            # exact ties and gaps below TIE_EPSILON inside the history
            times[1::4] = times[0::4][: times[1::4].size]
            times[2::5] = times[1::5][: times[2::5].size] + 0.5 * TIE_EPSILON
            times = np.sort(times)
            h = UserHistory.from_arrays("u1", times, rng.integers(0, 3, n))
            want = old_rescaled_interarrivals(p, h)
            at = np.cumsum(want)
            got = rescaled_interarrivals(p, h)
            assert got.shape == want.shape
            assert np.all(np.abs(got - want) <= 1e-12 * at)

    def test_walk_of_increments_and_adds_prunes(self):
        # the walk of rescaled_interarrivals calls no bound or intensity, so
        # add must drop the spent Weibull sources: kept, the recurrent
        # action's list grows by one source per event
        with resources.as_file(resources.files("tipas").joinpath("data/demo_spec.json")) as path:
            spec, _ = load_spec(path)
        (h,) = generate_synthetic(replace(spec, n_users=1, horizon=12000.0, seed=0))
        p = params_for_users(spec.params, [h.user])
        state = _StreamState(p, p.alpha_row(h.user), np.empty(0), np.empty(0, dtype=np.int64))
        sizes = []
        for t, a in zip(h.times().tolist(), h.actions().tolist()):
            state.increments(np.array([t - state.clock]))
            state.add(t, a)
            sizes.append(state._live_act.size)
        assert len(sizes) >= 1000 and max(sizes) < 20
