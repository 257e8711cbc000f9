"""Thinning simulation: distributional checks and bound validity."""

import math

import numpy as np
import pytest
from scipy import stats

from tipas import (
    EventRecord,
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
    zero_params,
)

from conftest import random_histories, random_params


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


class TestGenerateSynthetic:
    def test_zero_users(self):
        p = zero_params(ModelStructure(n_actions=1, n_mixtures=1))
        assert generate_synthetic(SyntheticSpec(n_users=0, params=p, horizon=10.0)) == []

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
