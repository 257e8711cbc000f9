"""Action/time prediction and the rolling-window driver."""

import math
from dataclasses import replace
from importlib import resources

import numpy as np
import pytest
from scipy import integrate

from tipas import (
    CensoredPredictionError,
    EventRecord,
    FitConfig,
    InvalidInputError,
    ModelParams,
    ModelStructure,
    PoissonUserModel,
    PredictionTask,
    SyntheticSpec,
    UserHistory,
    generate_synthetic,
    intensity_vector,
    make_windows,
    predict_next_action,
    predict_next_time,
    rolling_window_eval,
)
from tipas.dataio import load_spec
from tipas.model import TIE_EPSILON, _intensity_vector_arrays, _StreamState, tod_categories
from tipas.predict import CENSOR_FACTOR, TipasPredictor, _next_time, _survival_nodes
from tipas.simulate import _simulate_stream, params_for_users

from conftest import random_histories, random_params, zero_params
from oracles import integrated_total_intensity


def two_action_params(**over):
    s = ModelStructure(n_actions=2, n_mixtures=1, horizon=100.0)
    base = dict(
        alpha=np.zeros((1, 2)),
        beta=np.zeros((2, 1)),
        mu=np.full((2, 1), 12.0),
        sigma=np.ones((2, 1)),
        theta=np.zeros((2, 2)),
        omega=np.ones((2, 2)),
        phi=np.zeros((4, 2)),
        gamma=np.full((4, 2), 0.1),
        kappa=np.ones((4, 2)),
    )
    for key, val in over.items():
        base[key] = np.asarray(val, dtype=float).reshape(base[key].shape)
    return ModelParams(structure=s, users=("u",), **base)


def quadrature_mean_wait(p, hist, span=120.0):
    """E[min(X, span)] and S(span) for the first arrival after ``hist``.

    S(s) = exp(-(Lambda(t_last + s) - Lambda(t_last))) is built from the
    closed-form compensator and integrated adaptively, split at every point
    where it has a kink or a background bump.
    """
    t_last = float(hist.times()[-1])
    base = integrated_total_intensity(p, hist, t_last)

    def survival(s):
        return math.exp(-(integrated_total_intensity(p, hist, t_last + s) - base))

    day_starts = np.arange(24.0 - t_last % 24.0, span + 24.0, 24.0) - 24.0
    bumps = (day_starts[:, None] + p.mu.reshape(1, -1)).ravel()
    points = np.concatenate(([0.25, 1.0, 3.0], day_starts + 24.0, bumps))
    points = np.unique(points[(points > 0) & (points < span)])
    want, _ = integrate.quad(
        survival, 0.0, span, points=points, limit=1000, epsabs=1e-12, epsrel=1e-12
    )
    return want, survival(span)


class TestPredictNextAction:
    def test_argmax(self):
        p = two_action_params(alpha=[[0.5, 0.2]])
        pred = predict_next_action(p, PredictionTask("u", (), 5.0))
        assert pred.action == 0
        assert not pred.degenerate

    def test_tie_breaks_to_lowest_id(self):
        p = two_action_params(alpha=[[0.3, 0.3]])
        pred = predict_next_action(p, PredictionTask("u", (), 5.0))
        assert pred.action == 0

    def test_degenerate_flags_action_zero(self):
        p = zero_params(ModelStructure(n_actions=2, n_mixtures=1), users=("u",))
        pred = predict_next_action(p, PredictionTask("u", (), 5.0))
        assert pred.action == 0
        assert pred.degenerate

    def test_excitation_flips_prediction(self):
        # strong a0 -> a1 kernel dominates right after an a0 event
        p = two_action_params(alpha=[[0.1, 0.01]], theta=[[0.0, 0.8], [0.0, 0.0]],
                              omega=[[1.0, 4.0], [1.0, 1.0]])
        hist = (EventRecord(0, 10.0),)
        pred = predict_next_action(p, PredictionTask("u", hist, 10.05))
        assert pred.action == 1
        lam = intensity_vector(p, "u", hist, 10.05)
        assert lam[1] > lam[0]
        # long after, the preference term wins again
        late = predict_next_action(p, PredictionTask("u", hist, 40.0))
        assert late.action == 0

    def test_scale_invariance_of_argmax(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            p = random_params(rng, users=("u1",))
            hs = random_histories(rng, n_users=1, max_events=10)
            t = 49.0
            base = predict_next_action(p, PredictionTask("u1", hs[0].events, t)).action
            for c in (0.5, 3.0):
                scaled = ModelParams(
                    structure=p.structure,
                    users=p.users,
                    alpha=p.alpha * c,
                    beta=p.beta * c,
                    mu=p.mu,
                    sigma=p.sigma,
                    theta=p.theta * c,
                    omega=p.omega,
                    phi=p.phi * c,
                    gamma=p.gamma,
                    kappa=p.kappa,
                )
                assert predict_next_action(
                    scaled, PredictionTask("u1", hs[0].events, t)
                ).action == base

    def test_prefix_after_query_rejected(self):
        with pytest.raises(InvalidInputError):
            PredictionTask("u", (EventRecord(0, 6.0),), 5.0)


class TestPredictNextTime:
    def test_exponential_first_arrival(self):
        p = two_action_params(alpha=[[1.0, 1.0]])  # total rate 2/h
        hist = UserHistory("u", (EventRecord(0, 4.0),))
        pred = predict_next_time(p, "u", hist)
        assert pred.time == pytest.approx(4.5, abs=1e-9)
        assert pred.n_censored == pytest.approx(math.exp(-2.0 * 120.0))

    def test_preference_only_censored_mass(self):
        # constant rate r: E[min(X, span)] = (1 - exp(-r span)) / r and the
        # censored mass is exp(-r span)
        p = two_action_params(alpha=[[0.005, 0.003]])
        pred = predict_next_time(p, "u", (EventRecord(1, 30.0),))
        rate, span = 0.008, 120.0
        assert pred.n_censored == pytest.approx(math.exp(-rate * span), rel=1e-12)
        assert pred.time == pytest.approx(30.0 + -math.expm1(-rate * span) / rate, abs=1e-9)

    def test_zero_model_censors(self):
        p = zero_params(ModelStructure(n_actions=2, n_mixtures=1), users=("u",))
        with pytest.raises(CensoredPredictionError):
            predict_next_time(p, "u", UserHistory("u", (EventRecord(0, 1.0),)))

    def test_repeated_calls_are_equal(self):
        rng = np.random.default_rng(6)
        p = random_params(rng, users=("u1",))
        hist = UserHistory("u1", (EventRecord(0, 3.0), EventRecord(1, 5.0)))
        assert predict_next_time(p, "u1", hist) == predict_next_time(p, "u1", hist)

    def test_output_after_last_timestamp(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            p = random_params(rng, users=("u1",))
            hist = UserHistory("u1", (EventRecord(0, 3.0), EventRecord(1, 8.0)))
            pred = predict_next_time(p, "u1", hist)
            assert pred.time > 8.0

    def test_matches_quadrature_of_integrated_intensity(self):
        rng = np.random.default_rng(12)
        for _ in range(8):
            p = random_params(rng, users=("u1",), kappa_range=(0.4, 3.0))
            n = int(rng.integers(2, 7))
            times = np.sort(rng.uniform(10.0, 40.0, n))  # crosses midnight at 24h
            acts = rng.integers(0, 2, n)
            hist = UserHistory.from_arrays("u1", times, acts)
            want, censored = quadrature_mean_wait(p, hist)
            pred = predict_next_time(p, "u1", hist)
            assert pred.time - times[-1] == pytest.approx(want, abs=1e-5)
            assert pred.n_censored == pytest.approx(censored, rel=1e-9, abs=1e-300)

    @pytest.mark.parametrize("beta, sigma", [(0.004, 0.25), (1.0, 0.8)])
    def test_narrow_component_splits_only_near_its_bump(self, beta, sigma):
        # one narrow background bump beside a wide one.  At sigma 0.25,
        # splitting every piece to 12 sigma = 3 h took 1,008 to 1,056 nodes
        # over the 120 h span; its bump is now one piece of its own.  At
        # sigma 0.8 the pieces it overlaps must still be split: 24 nodes on
        # a whole day miss the mean wait by ~1e-3 h.
        p = two_action_params(
            alpha=[[0.01, 0.02]],
            beta=[[beta], [0.6]],
            mu=[[10.5], [14.0]],
            sigma=[[sigma], [2.5]],
            theta=[[0.1, 0.2], [0.05, 0.1]],
            phi=np.full((4, 2), 0.2),
            kappa=np.full((4, 2), 1.5),
        )
        for t_last in (20.0, 33.0, 46.5):
            hist = UserHistory.from_arrays("u", [t_last - 4.0, t_last], [0, 1])
            lags, _ = _survival_nodes(p, t_last, 120.0)
            assert lags.size <= 456
            want, _ = quadrature_mean_wait(p, hist)
            assert predict_next_time(p, "u", hist).time - t_last == pytest.approx(
                want, abs=1e-5
            )

    def test_matches_monte_carlo_first_arrival(self):
        # the thinning simulator is the oracle: on each of two parameter sets
        # the mean of min(first arrival, span) over 10k draws (20k in all)
        # lies within three standard errors.  Its dominating rate holds for
        # every later time, so one bound window covers the whole span.
        rng = np.random.default_rng(21)
        span, n_draws = 120.0, 10_000
        hist = UserHistory("u1", (EventRecord(0, 20.0), EventRecord(1, 23.0)))
        times, actions = hist.times(), hist.actions()
        for _ in range(2):
            p = random_params(rng, users=("u1",), kappa_range=(0.5, 2.5))
            draws = np.random.default_rng(5)
            waits = np.empty(n_draws)
            for i in range(n_draws):
                out_t, _ = _simulate_stream(
                    p, p.alpha_row("u1"), times, actions, 23.0, span, draws,
                    window=span, stop_after=1,
                )
                waits[i] = out_t[0] - 23.0 if out_t else span
            se = waits.std(ddof=1) / math.sqrt(n_draws)
            pred = predict_next_time(p, "u1", hist)
            assert abs(pred.time - 23.0 - waits.mean()) < 3.0 * se


class TestRollingWindowEval:
    def _dataset(self):
        truth = two_action_params(alpha=[[0.08, 0.03]])
        gt = ModelParams(
            structure=truth.structure,
            users=("tmpl",),
            alpha=np.array([[0.08, 0.03]]),
            beta=truth.beta,
            mu=truth.mu,
            sigma=truth.sigma,
            theta=truth.theta,
            omega=truth.omega,
            phi=truth.phi,
            gamma=truth.gamma,
            kappa=truth.kappa,
        )
        return generate_synthetic(SyntheticSpec(n_users=6, params=gt, horizon=96.0, seed=2))

    def test_two_windows_one_entry(self):
        hs = self._dataset()
        windows = make_windows(0.0, 96.0, 48.0)
        factory = lambda train, T: PoissonUserModel().fit(train, 2, T)
        rep = rolling_window_eval(hs, factory, windows, n_actions=2, with_time=False)
        assert len(rep.windows) == 1
        assert rep.n_predictions > 0

    def test_needs_two_windows(self):
        hs = self._dataset()
        with pytest.raises(InvalidInputError):
            rolling_window_eval(hs, lambda t, T: None, [(0.0, 96.0)], n_actions=2)

    def test_no_test_time_leakage(self):
        hs = self._dataset()
        windows = make_windows(0.0, 96.0, 48.0)
        seen = []

        class Recorder:
            supports_action = True
            supports_time = False

            def predict_action(self, user, times, actions, t):
                seen.append((user, len(times), float(t)))
                assert all(x < t for x in times)
                return 0

        rolling_window_eval(hs, lambda train, T: Recorder(), windows,
                            n_actions=2, with_time=False)
        assert seen  # predictions actually ran

    def test_pp_user_accuracy_equals_majority_frequency(self):
        # stationary data: PP-User always predicts each user's training
        # majority action, so accuracy is the majority's test frequency
        hs = self._dataset()
        windows = make_windows(0.0, 96.0, 48.0)
        factory = lambda train, T: PoissonUserModel().fit(train, 2, T)
        rep = rolling_window_eval(hs, factory, windows, n_actions=2, with_time=False)

        model = PoissonUserModel().fit(
            [UserHistory(h.user, tuple(e for e in h.events if e.t < 48.0)) for h in hs],
            2,
            48.0,
        )
        hits = total = 0
        for h in hs:
            maj = int(np.argmax(model._row(h.user)))
            test = [e for e in h.events if 48.0 <= e.t < 96.0]
            hits += sum(1 for e in test if e.action == maj)
            total += len(test)
        assert rep.accuracy == pytest.approx(hits / total)

    def test_coldstart_counted(self):
        hs = list(self._dataset())
        # a user who only appears in the test window
        hs.append(UserHistory("newcomer", (EventRecord(0, 50.0), EventRecord(1, 60.0))))
        windows = make_windows(0.0, 96.0, 48.0)
        factory = lambda train, T: PoissonUserModel().fit(train, 2, T)
        rep = rolling_window_eval(hs, factory, windows, n_actions=2, with_time=False)
        assert rep.n_coldstart == 1

    def test_time_task_filters_and_censoring(self):
        hs = self._dataset()
        windows = make_windows(0.0, 96.0, 48.0)

        class FixedOffset:
            supports_action = False
            supports_time = True

            def predict_time(self, user, times, actions):
                return float(times[-1]) + 1.0

        rep = rolling_window_eval(hs, lambda train, T: FixedOffset(), windows,
                                  n_actions=2, horizon_filter=12.0)
        assert rep.n_filtered <= rep.windows[0].n_time_predictions
        assert rep.mae_hours >= 0.0

    def test_tipas_predictor_end_to_end(self):
        hs = self._dataset()
        windows = make_windows(0.0, 96.0, 48.0)
        cfg = FitConfig(n_mixtures=1, rng_seed=0, max_iterations=15)

        def factory(train, T):
            from tipas import fit
            from dataclasses import replace

            params, _ = fit(train, replace(cfg, horizon=T))
            return TipasPredictor(params)

        rep = rolling_window_eval(hs, factory, windows, n_actions=2)
        assert rep.n_predictions > 0
        assert rep.windows[0].n_time_predictions > 0


class PrefixOracle:
    """The per-prefix TIPAS predictor the streamed driver replaced: every
    query rescans its prefix, and every time query builds a fresh state."""

    def __init__(self, params, horizon_filter=12.0):
        self.params, self.span = params, CENSOR_FACTOR * horizon_filter

    def predict_action(self, user, times, actions, t):
        p = self.params
        cats = tod_categories(p.structure, times)
        lam = _intensity_vector_arrays(p, p.alpha_row(user), times, actions, cats, t)
        return int(np.argmax(lam))

    def predict_time(self, user, times, actions):
        p = self.params
        state = _StreamState(p, p.alpha_row(user), times, actions)
        try:
            return _next_time(state, self.span).time
        except CensoredPredictionError:
            return math.nan


class Recorded(TipasPredictor):
    """TipasPredictor whose walks log every answer they give the driver."""

    def __init__(self, params):
        super().__init__(params)
        self.actions, self.times = [], []

    def walk(self, user, times, actions):
        inner, model = super().walk(user, times, actions), self

        class Logged:
            def action(self, t):
                model.actions.append(inner.action(t))
                return model.actions[-1]

            def time(self):
                model.times.append(inner.time())
                return model.times[-1]

            def add(self, t, a):
                inner.add(t, a)

        return Logged()


class TestStreamedDriver:
    """rolling_window_eval's walk against per-prefix rescans."""

    WINDOWS = make_windows(0.0, 720.0, 240.0)

    @staticmethod
    def _draw():
        """Four demo-spec users over 30 days with exact ties and gaps below
        TIE_EPSILON, plus a user who starts in the second window and only
        does actions without excitation kernels (3 and 4)."""
        with resources.as_file(resources.files("tipas").joinpath("data/demo_spec.json")) as path:
            spec, _ = load_spec(path)
        hs = generate_synthetic(replace(spec, n_users=4, horizon=720.0, seed=4))
        rng = np.random.default_rng(4)
        out = []
        for h in hs:
            t, a = h.times(), h.actions()
            picks = rng.choice(t.size, 12, replace=False)
            near = t[picks] + np.resize([0.0, 0.5 * TIE_EPSILON, 0.999 * TIE_EPSILON], 12)
            t = np.concatenate([t, near])
            a = np.concatenate([a, rng.integers(0, 5, 12)])
            order = np.argsort(t, kind="stable")
            out.append(UserHistory.from_arrays(h.user, t[order], a[order]))
        late = np.array([250.0, 251.5, 251.5, 251.5 + 0.5 * TIE_EPSILON, 300.0, 490.0, 495.0])
        out.append(UserHistory.from_arrays("newcomer", late, [3, 4, 3, 4, 4, 3, 4]))
        return spec.params, out

    def _expected(self, oracle, hs):
        """Per-event answers of the oracle on the driver's prefixes, and
        the cold-start and censored counts."""
        actions, times, cold = [], [], 0
        for (tr_s, tr_e), (te_s, te_e) in zip(self.WINDOWS[:-1], self.WINDOWS[1:]):
            for h in sorted(hs, key=lambda h: h.user):
                t, a = h.times(), h.actions()
                keep = ((t >= tr_s) & (t < tr_e)) | ((t >= te_s) & (t < te_e))
                n_train = int(np.count_nonzero(keep & (t < tr_e)))
                t, a = t[keep] - tr_s, a[keep]
                if t.size == n_train:
                    continue
                cold += n_train == 0
                for k in range(n_train, t.size):
                    if k:
                        times.append(oracle.predict_time(h.user, t[:k], a[:k]))
                    actions.append(oracle.predict_action(h.user, t[:k], a[:k], t[k]))
        return actions, np.array(times), cold, int(np.isnan(times).sum())

    @pytest.mark.parametrize("background", [True, False])
    def test_walk_matches_prefix_rescans(self, background):
        truth, hs = self._draw()
        if not background:
            # no background and no preference for the newcomer: its time
            # predictions are censored and its actions degenerate
            truth = replace(truth, alpha=np.full((1, 5), 0.02), beta=np.zeros((5, 1)))
        params = params_for_users(truth, [h.user for h in hs[:-1]])
        model = Recorded(params)
        rep = rolling_window_eval(hs, lambda train, T: model, self.WINDOWS, n_actions=5)
        actions, times, cold, censored = self._expected(PrefixOracle(params), hs)
        assert model.actions == actions
        np.testing.assert_allclose(model.times, times, rtol=1e-9, atol=0.0)
        assert rep.n_coldstart == cold == 1
        assert rep.n_censored == censored == (0 if background else 6)

    def test_walk_drops_spent_weibull_sources(self):
        # a daily recurrence with kappa = 14 is spent about 1.5 days after
        # its source; the walk only evaluates intensities, never the bound
        s = ModelStructure(n_actions=1, n_mixtures=1, horizon=9600.0)
        p = ModelParams(
            structure=s,
            users=("u",),
            alpha=np.full((1, 1), 0.05),
            beta=np.full((1, 1), 0.5),
            mu=np.full((1, 1), 12.0),
            sigma=np.full((1, 1), 2.0),
            theta=np.zeros((1, 1)),
            omega=np.ones((1, 1)),
            phi=np.full((4, 1), 0.7),
            gamma=np.full((4, 1), 4.4e-20),
            kappa=np.full((4, 1), 14.0),
        )
        times = np.arange(0.0, 9600.0, 8.0)
        actions = np.zeros(times.size, dtype=np.int64)
        cats = tod_categories(s, times)
        state = _StreamState(p, p.alpha[0], times[:0], actions[:0])
        sizes = []
        for k, t in enumerate(times.tolist()):
            lam = state.intensity(t)
            if k % 100 == 0:
                want = _intensity_vector_arrays(p, p.alpha[0], times[:k], actions[:k], cats[:k], t)
                np.testing.assert_allclose(lam, want, rtol=1e-12, atol=0.0)
            sizes.append(state._live_act.size)
            state.add(t, 0)
        assert len(sizes) > 1000 and max(sizes) < 10
        # 0.1 h after the last source its term is ~1e-31, yet still rising
        # toward a peak a day later, so it stays
        state.intensity(times[-1] + 0.1)
        assert times[-1] in state._t_src


class TestMakeWindows:
    def test_exact_cover(self):
        assert make_windows(0.0, 96.0, 48.0) == [(0.0, 48.0), (48.0, 96.0)]

    def test_partial_tail_dropped(self):
        assert make_windows(0.0, 100.0, 48.0) == [(0.0, 48.0), (48.0, 96.0)]

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            make_windows(0.0, 10.0, 0.0)
