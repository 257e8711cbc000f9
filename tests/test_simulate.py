"""Thinning simulation: distributional checks and bound validity."""

import math

import numpy as np
import pytest
from scipy import stats

from tipas import (
    EventRecord,
    InvalidInputError,
    ModelParams,
    ModelStructure,
    SimConfig,
    SimulationOverflowError,
    SyntheticSpec,
    UserHistory,
    generate_synthetic,
    intensity_upper_bound,
    intensity_vector,
    simulate,
)

from tipas.model import _intensity_vector_arrays, tod_categories
from tipas.model import _StreamState as _ThinningState
from tipas.simulate import _simulate_stream, _stream_rng

import thinning_oracle
from conftest import random_histories, random_params, zero_params


def alpha_only(rate: float) -> ModelParams:
    s = ModelStructure(n_actions=1, n_mixtures=1, horizon=100.0)
    return ModelParams(
        structure=s,
        users=("u",),
        alpha=np.full((1, 1), rate),
        beta=np.zeros((1, 1)),
        mu=np.full((1, 1), 12.0),
        sigma=np.ones((1, 1)),
        theta=np.zeros((1, 1)),
        omega=np.zeros((1, 1)),
        phi=np.zeros((4, 1)),
        gamma=np.zeros((4, 1)),
        kappa=np.ones((4, 1)),
    )


class TestSimulate:
    def test_homogeneous_mean_count(self):
        p = alpha_only(2.0)
        counts = [
            len(simulate(p, "u", UserHistory("u", ()), SimConfig(horizon=10.0, seed=seed)))
            for seed in range(400)
        ]
        se = math.sqrt(20.0 / 400)
        assert abs(np.mean(counts) - 20.0) < 3 * se

    def test_zero_model_is_silent(self):
        p = zero_params(ModelStructure(n_actions=1, n_mixtures=1), users=("u",))
        assert simulate(p, "u", UserHistory("u", ()), SimConfig(horizon=10.0, seed=1)) == []

    def test_output_sorted_and_in_range(self):
        rng = np.random.default_rng(2)
        p = random_params(rng, users=("u1",))
        seed_h = UserHistory("u1", (EventRecord(0, 3.0), EventRecord(1, 20.0)))
        out = simulate(p, "u1", seed_h, SimConfig(horizon=30.0, seed=3))
        times = [e.t for e in out]
        assert times == sorted(times)
        assert all(20.0 < t <= 50.0 for t in times)

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(4)
        p = random_params(rng, users=("u1",))
        a = simulate(p, "u1", UserHistory("u1", ()), SimConfig(horizon=50.0, seed=9))
        b = simulate(p, "u1", UserHistory("u1", ()), SimConfig(horizon=50.0, seed=9))
        assert a == b

    def test_explosion_guard(self):
        p = alpha_only(50.0)
        with pytest.raises(SimulationOverflowError):
            simulate(p, "u", UserHistory("u", ()), SimConfig(horizon=100.0, seed=0, max_events=100))

    def test_background_time_of_day_histogram(self):
        # events from a background-only model follow the truncated Gaussian;
        # beta is day mass, so pool many short user streams
        s = ModelStructure(n_actions=1, n_mixtures=1, horizon=240.0)
        p = ModelParams(
            structure=s,
            users=("tmpl",),
            alpha=np.zeros((1, 1)),
            beta=np.full((1, 1), 10.0),
            mu=np.full((1, 1), 14.0),
            sigma=np.full((1, 1), 3.0),
            theta=np.zeros((1, 1)),
            omega=np.zeros((1, 1)),
            phi=np.zeros((4, 1)),
            gamma=np.zeros((4, 1)),
            kappa=np.ones((4, 1)),
        )
        out = generate_synthetic(SyntheticSpec(n_users=50, params=p, horizon=240.0, seed=12))
        tods = np.array([e.t % 24.0 for h in out for e in h.events])
        assert tods.size > 5000
        hist, edges = np.histogram(tods, bins=24, range=(0.0, 24.0))
        centers = (edges[:-1] + edges[1:]) / 2
        dens = np.exp(-0.5 * ((centers - 14.0) / 3.0) ** 2)
        expected = dens / dens.sum() * tods.size
        # drop near-empty night bins for a stable chi-square
        keep = expected > 5
        res = stats.chisquare(hist[keep], expected[keep] * hist[keep].sum() / expected[keep].sum())
        assert res.pvalue > 0.01


class TestUpperBound:
    def test_alpha_only_is_exact(self):
        p = alpha_only(2.0)
        assert intensity_upper_bound(p, "u", [], 5.0, 1.0) == pytest.approx(2.0)

    def test_exponential_kernel_uses_current_value(self):
        s = ModelStructure(n_actions=1, n_mixtures=1, horizon=100.0)
        p = ModelParams(
            structure=s,
            users=("u",),
            alpha=np.zeros((1, 1)),
            beta=np.zeros((1, 1)),
            mu=np.full((1, 1), 12.0),
            sigma=np.ones((1, 1)),
            theta=np.full((1, 1), 0.5),
            omega=np.full((1, 1), 2.0),
            phi=np.zeros((4, 1)),
            gamma=np.zeros((4, 1)),
            kappa=np.ones((4, 1)),
        )
        hist = [EventRecord(0, 1.0)]
        t = 2.0
        bound = intensity_upper_bound(p, "u", hist, t, 1.0)
        lam = intensity_vector(p, "u", hist, t).sum()
        assert bound == pytest.approx(lam, rel=1e-12)

    def test_grid_dominance_random_states(self):
        rng = np.random.default_rng(77)
        window = 1.0
        for trial in range(1000):
            p = random_params(
                rng,
                n_actions=2,
                n_mixtures=1,
                users=("u1",),
                kappa_range=(0.6, 3.0),
            )
            hs = random_histories(rng, n_users=1, max_events=6, n_actions=2)
            events = hs[0].events
            t0 = (events[-1].t if events else 0.0) + float(rng.uniform(0.0, 5.0))
            bound = intensity_upper_bound(p, "u1", events, t0, window)
            grid = t0 + np.linspace(1e-9, window, 41)
            for t in grid:
                lam = intensity_vector(p, "u1", events, float(t)).sum()
                assert lam <= bound * (1 + 1e-9)


def seed_history_with_ties(rng, n_actions=2, max_events=10, horizon=48.0):
    """Sorted times with exact repeats and gaps below TIE_EPSILON."""
    n = int(rng.integers(0, max_events + 1))
    times = np.sort(rng.uniform(0.0, horizon, n))
    if n:
        k = int(rng.integers(1, n + 1))
        picks = rng.choice(times, k)
        near = picks + rng.choice([0.0, 3e-7, 8e-7], k)
        times = np.sort(np.concatenate([times, near]))
    return times, rng.integers(0, n_actions, times.size)


class TestIncrementalThinning:
    """The incremental dominating rate against the rescanning simulator it replaced."""

    def test_stream_matches_oracle(self):
        rng = np.random.default_rng(31)
        for trial in range(60):
            p = random_params(rng, users=("u1",), kappa_range=(0.5, 3.0))
            times, actions = seed_history_with_ties(rng)
            cats = tod_categories(p.structure, times)
            start = float(times[-1]) if times.size else 0.0
            horizon = 72.0
            window = (0.5, 1.0, horizon)[trial % 3]
            stop_after = 1 if trial % 4 == 3 else None
            got_t, got_a = _simulate_stream(
                p, p.alpha[0], times, actions, start, horizon,
                _stream_rng(trial, 7), window=window, stop_after=stop_after,
            )
            want_t, want_a = thinning_oracle._simulate_stream(
                p, p.alpha[0], times, actions, cats, start, horizon,
                _stream_rng(trial, 7), window=window, stop_after=stop_after,
            )
            assert got_a == want_a
            np.testing.assert_allclose(got_t, want_t, rtol=1e-12, atol=0.0)
            if stop_after:
                assert len(got_t) <= 1

    def test_upper_bound_matches_oracle(self):
        rng = np.random.default_rng(32)
        for _ in range(300):
            p = random_params(rng, users=("u1",), kappa_range=(0.5, 3.0))
            times, actions = seed_history_with_ties(rng)
            last = float(times[-1]) if times.size else 0.0
            t = last + float(rng.choice([0.0, 5e-7, rng.uniform(0.0, 30.0)]))
            hist = UserHistory.from_arrays("u1", times, actions)
            want = thinning_oracle._bound_arrays(
                p, p.alpha[0], times, actions, tod_categories(p.structure, times), t
            )
            assert intensity_upper_bound(p, "u1", hist, t, 1.0) == pytest.approx(
                want, rel=1e-12, abs=0.0
            )

    def test_intensity_at_every_candidate(self, monkeypatch):
        rng = np.random.default_rng(33)
        p = random_params(rng, users=("u1",), kappa_range=(0.5, 3.0))
        seen = []
        inner = _ThinningState.intensity

        def recording(self, t):
            lam = inner(self, t)
            seen.append((t, lam.copy()))
            return lam

        monkeypatch.setattr(_ThinningState, "intensity", recording)
        empty = np.empty(0)
        no_events = np.empty(0, dtype=np.int64)
        out_t, out_a = _simulate_stream(
            p, p.alpha[0], empty, no_events, 0.0, 4000.0, _stream_rng(3)
        )
        assert len(out_t) >= 1000
        times, actions = np.array(out_t), np.array(out_a)
        cats = tod_categories(p.structure, times)
        for t, lam in seen:
            k = int(np.searchsorted(times, t, side="left"))
            want = _intensity_vector_arrays(p, p.alpha[0], times[:k], actions[:k], cats[:k], t)
            np.testing.assert_allclose(lam, want, rtol=1e-10, atol=0.0)

    def test_spent_weibull_sources_leave_the_list(self):
        # a daily recurrence with kappa = 14 is spent about 1.5 days after
        # its source, so the live list stays a few days long
        s = ModelStructure(n_actions=1, n_mixtures=1, horizon=2400.0)
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
        times = np.arange(0.0, 2400.0, 8.0)
        actions = np.zeros(times.size, dtype=np.int64)
        cats = tod_categories(s, times)
        state = _ThinningState(p, p.alpha[0], times[:-1], actions[:-1])
        state.add(2392.0, 0)
        # 0.1 h after the last source its term is ~1e-31, yet still rising
        # toward a peak a day later, so it must stay
        for t in (2392.1, 2416.0):
            want = thinning_oracle._bound_arrays(p, p.alpha[0], times, actions, cats, t)
            assert state.bound(t) == pytest.approx(want, rel=1e-12, abs=0.0)
        assert state._live_act.size < 10


class TestGenerateSynthetic:
    def test_zero_users(self):
        p = zero_params(ModelStructure(n_actions=1, n_mixtures=1))
        assert generate_synthetic(SyntheticSpec(n_users=0, params=p, horizon=10.0)) == []

    def test_negative_seed_rejected(self):
        # NumPy's seeding refuses a negative entropy; the configs say so first
        p = zero_params(ModelStructure(n_actions=1, n_mixtures=1))
        with pytest.raises(InvalidInputError, match="seed must be >= 0"):
            SyntheticSpec(n_users=1, params=p, horizon=10.0, seed=-3)
        with pytest.raises(InvalidInputError, match="seed must be >= 0"):
            SimConfig(horizon=10.0, seed=-1)

    def test_fixed_seed_reproducible(self):
        rng = np.random.default_rng(5)
        p = random_params(rng, users=("tmpl",))
        spec = SyntheticSpec(n_users=4, params=p, horizon=72.0, seed=13)
        a = generate_synthetic(spec)
        b = generate_synthetic(spec)
        assert [(h.user, h.events) for h in a] == [(h.user, h.events) for h in b]

    def test_alpha_broadcast_from_template(self):
        p = alpha_only(1.0)  # one template user
        spec = SyntheticSpec(n_users=3, params=p, horizon=24.0, seed=0)
        out = generate_synthetic(spec)
        assert [h.user for h in out] == ["u00000", "u00001", "u00002"]
        assert all(len(h) > 0 for h in out)

    def test_scale_target_reachable(self):
        # rates calibrated for roughly 450 events per user over a month
        s = ModelStructure(n_actions=2, n_mixtures=1, horizon=720.0)
        p = ModelParams(
            structure=s,
            users=("tmpl",),
            alpha=np.full((1, 2), 0.2),
            beta=np.array([[2.0], [2.0]]),
            mu=np.array([[9.0], [15.0]]),
            sigma=np.array([[2.0], [2.0]]),
            theta=np.full((2, 2), 0.1),
            omega=np.full((2, 2), 2.0),
            phi=np.full((4, 2), 0.1),
            gamma=np.full((4, 2), 0.2),
            kappa=np.ones((4, 2)),
        )
        out = generate_synthetic(SyntheticSpec(n_users=2, params=p, horizon=720.0, seed=3))
        per_user = np.mean([len(h) for h in out])
        assert 300 < per_user < 700
