"""Intensity components against hand-computed values and their invariants."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tipas import (
    EventRecord,
    InvalidInputError,
    ModelParams,
    ModelStructure,
    UserHistory,
    intensity_vector,
    time_of_day,
)

from conftest import random_histories, random_params, zero_params
from oracles import (
    background_intensity,
    long_term_intensity,
    short_term_intensity,
    tod_category,
    total_intensity,
)


def single_action_params(**over):
    """1-action, 1-mixture parameter set with chosen entries."""
    s = ModelStructure(n_actions=1, n_mixtures=1, horizon=100.0)
    base = dict(
        alpha=np.zeros((1, 1)),
        beta=np.zeros((1, 1)),
        mu=np.full((1, 1), 12.0),
        sigma=np.ones((1, 1)),
        theta=np.zeros((1, 1)),
        omega=np.zeros((1, 1)),
        phi=np.zeros((4, 1)),
        gamma=np.zeros((4, 1)),
        kappa=np.ones((4, 1)),
    )
    for key, val in over.items():
        base[key] = np.asarray(val, dtype=float).reshape(base[key].shape)
    return ModelParams(structure=s, users=("u",), **base)


class TestTimeOfDay:
    def test_origin(self):
        assert time_of_day(0.0) == 0.0

    def test_wraps_at_24h(self):
        assert time_of_day(25.5) == 1.5

    def test_modulo(self):
        assert time_of_day(47.999) == pytest.approx(23.999)

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInputError):
            time_of_day(math.nan)
        with pytest.raises(InvalidInputError):
            time_of_day(math.inf)

    def test_rejects_negative(self):
        with pytest.raises(InvalidInputError):
            time_of_day(-1.0)


class TestTodCategory:
    def test_default_windows(self, structure):
        assert tod_category(3.0, structure) == 0

    def test_half_open_boundary(self, structure):
        assert tod_category(12.0, structure) == 2

    def test_wraps(self, structure):
        assert tod_category(30.0, structure) == 1


class TestBackground:
    def test_peak_value(self):
        p = single_action_params(beta=1.0, mu=12.0, sigma=2.0)
        assert background_intensity(p, 0, 12.0) == pytest.approx(
            1.0 / math.sqrt(8 * math.pi), rel=1e-12
        )

    def test_zero_weights(self):
        p = single_action_params(mu=12.0, sigma=2.0)
        assert background_intensity(p, 0, 12.0) == 0.0

    def test_two_mixtures_far_tail(self):
        s = ModelStructure(n_actions=1, n_mixtures=2, horizon=100.0)
        p = ModelParams(
            structure=s,
            users=("u",),
            alpha=np.zeros((1, 1)),
            beta=np.ones((1, 2)),
            mu=np.array([[6.0, 18.0]]),
            sigma=np.ones((1, 2)),
            theta=np.zeros((1, 1)),
            omega=np.zeros((1, 1)),
            phi=np.zeros((4, 1)),
            gamma=np.zeros((4, 1)),
            kappa=np.ones((4, 1)),
        )
        # both components are 6 sigma away from noon: 2 * N(6; 0, 1)
        expect = 2.0 * math.exp(-18.0) / math.sqrt(2 * math.pi)
        assert background_intensity(p, 0, 12.0) == pytest.approx(expect, rel=1e-12)

    def test_daily_periodicity_exact(self):
        # dyadic times keep t + 24 exactly representable, so the identity is
        # bitwise, not approximate
        p = single_action_params(beta=0.7, mu=9.3, sigma=1.7)
        for t in (0.0, 3.25, 11.5, 7.0625, 23.5):
            assert background_intensity(p, 0, t) == background_intensity(p, 0, t + 24.0)
            assert background_intensity(p, 0, t) == background_intensity(p, 0, t + 48.0)


class TestShortTerm:
    def test_value_at_zero_gap(self):
        p = single_action_params(theta=0.5, omega=2.0)
        ev = [EventRecord(0, 1.0)]
        assert short_term_intensity(p, ev, 0, 1.0 + 1e-9) == pytest.approx(1.0, rel=1e-4)

    def test_half_life(self):
        p = single_action_params(theta=0.5, omega=2.0)
        ev = [EventRecord(0, 1.0)]
        assert short_term_intensity(p, ev, 0, 1.0 + math.log(2) / 2) == pytest.approx(
            0.5, rel=1e-12
        )

    def test_empty_prefix(self):
        p = single_action_params(theta=0.5, omega=2.0)
        assert short_term_intensity(p, [], 0, 5.0) == 0.0

    def test_unsorted_prefix_rejected(self):
        p = single_action_params(theta=0.5, omega=2.0)
        with pytest.raises(InvalidInputError):
            short_term_intensity(p, [EventRecord(0, 2.0), EventRecord(0, 1.0)], 0, 5.0)

    def test_prefix_after_t_rejected(self):
        p = single_action_params(theta=0.5, omega=2.0)
        with pytest.raises(InvalidInputError):
            short_term_intensity(p, [EventRecord(0, 6.0)], 0, 5.0)


class TestLongTerm:
    def test_weibull_value(self):
        p = single_action_params(phi=[[1.0]] * 4, gamma=[[1.0]] * 4, kappa=[[2.0]] * 4)
        ev = [EventRecord(0, 1.0)]
        assert long_term_intensity(p, ev, 0, 2.0) == pytest.approx(
            2.0 * math.exp(-1.0), rel=1e-12
        )

    def test_shape_one_matches_exponential(self):
        # kappa = 1 collapses the Weibull onto the exponential kernel
        rng = np.random.default_rng(7)
        for _ in range(25):
            phi, gamma = rng.uniform(0.05, 2.0, 2)
            dt = rng.uniform(0.01, 30.0)
            p_long = single_action_params(
                phi=[[phi]] * 4, gamma=[[gamma]] * 4, kappa=[[1.0]] * 4
            )
            p_short = single_action_params(theta=phi, omega=gamma)
            ev = [EventRecord(0, 3.0)]
            a = long_term_intensity(p_long, ev, 0, 3.0 + dt)
            b = short_term_intensity(p_short, ev, 0, 3.0 + dt)
            assert a == pytest.approx(b, rel=1e-12)

    def test_other_action_excluded(self):
        s = ModelStructure(n_actions=2, n_mixtures=1, horizon=100.0)
        p = ModelParams(
            structure=s,
            users=("u",),
            alpha=np.zeros((1, 2)),
            beta=np.zeros((2, 1)),
            mu=np.full((2, 1), 12.0),
            sigma=np.ones((2, 1)),
            theta=np.zeros((2, 2)),
            omega=np.zeros((2, 2)),
            phi=np.ones((4, 2)),
            gamma=np.ones((4, 2)),
            kappa=np.full((4, 2), 2.0),
        )
        assert long_term_intensity(p, [EventRecord(1, 1.0)], 0, 2.0) == 0.0


class TestTotalIntensity:
    def test_zero_model(self):
        p = zero_params(ModelStructure(n_actions=1, n_mixtures=1), users=("u",))
        assert total_intensity(p, "u", [], 0, 5.0) == 0.0

    def test_constant_term_only(self):
        p = single_action_params(alpha=0.5)
        assert total_intensity(p, "u", [], 0, 5.0) == 0.5

    def test_cold_start_user_gets_zero_alpha(self):
        p = single_action_params(alpha=0.5, beta=0.2, mu=12.0, sigma=2.0)
        known = total_intensity(p, "u", [], 0, 12.0)
        cold = total_intensity(p, "stranger", [], 0, 12.0)
        assert known == pytest.approx(cold + 0.5, rel=1e-12)

    def test_additive_decomposition(self):
        rng = np.random.default_rng(3)
        for trial in range(20):
            p = random_params(rng)
            hists = random_histories(rng, n_users=1)
            ev = hists[0].events
            t = 48.5 + float(rng.uniform(0, 5))
            for a in range(2):
                parts = (
                    p.alpha_row("u1")[a]
                    + background_intensity(p, a, t)
                    + short_term_intensity(p, ev, a, t)
                    + long_term_intensity(p, ev, a, t)
                )
                total = total_intensity(p, "u1", ev, a, t)
                assert total == pytest.approx(parts, rel=1e-12, abs=1e-300)

    def test_prefix_monotonicity(self):
        # appending an event can only raise later intensities
        rng = np.random.default_rng(5)
        for _ in range(20):
            p = random_params(rng)
            hists = random_histories(rng, n_users=1, max_events=8)
            ev = list(hists[0].events)
            last = ev[-1].t if ev else 0.0
            extra = EventRecord(int(rng.integers(0, 2)), last + 0.5)
            t = extra.t + float(rng.uniform(0.1, 10.0))
            for a in range(2):
                base = total_intensity(p, "u1", ev, a, t)
                more = total_intensity(p, "u1", ev + [extra], a, t)
                assert more >= base - 1e-12

    def test_vector_matches_scalar(self):
        rng = np.random.default_rng(11)
        p = random_params(rng)
        hists = random_histories(rng, n_users=1)
        ev = hists[0].events
        t = 50.0
        vec = intensity_vector(p, "u1", ev, t)
        for a in range(2):
            assert vec[a] == pytest.approx(total_intensity(p, "u1", ev, a, t), rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    t_extra=st.floats(0.0, 100.0, allow_nan=False),
    action=st.integers(0, 1),
)
def test_total_intensity_non_negative(seed, t_extra, action):
    rng = np.random.default_rng(seed)
    p = random_params(rng)
    hists = random_histories(rng, n_users=1)
    t = 48.0 + t_extra + 1e-6
    lam = total_intensity(p, "u1", hists[0].events, action, t)
    assert lam >= 0.0
    assert math.isfinite(lam)


class TestDomainTypes:
    def test_event_requires_finite_time(self):
        with pytest.raises(InvalidInputError):
            EventRecord(0, math.inf)
        with pytest.raises(InvalidInputError):
            EventRecord(0, -1.0)

    def test_history_must_be_sorted(self):
        with pytest.raises(InvalidInputError):
            UserHistory("u", (EventRecord(0, 2.0), EventRecord(0, 1.0)))

    def test_history_keeps_ties(self):
        h = UserHistory("u", (EventRecord(0, 1.0), EventRecord(1, 1.0)))
        assert [e.action for e in h.events] == [0, 1]
        h = UserHistory.from_arrays("u", [1.0, 1.0, 1.0], [2, 0, 1])
        assert h.actions().tolist() == [2, 0, 1]

    def test_records_and_arrays_store_equal_arrays(self):
        records = (EventRecord(1, 0.5), EventRecord(0, 2.0), EventRecord(2, 2.0))
        a = UserHistory("u", records)
        b = UserHistory.from_arrays("u", np.array([0.5, 2.0, 2.0]), [1, 0, 2])
        for h in (a, b):
            assert h.times().dtype == np.float64 and h.actions().dtype == np.int64
            assert len(h) == 3
        np.testing.assert_array_equal(a.times(), b.times())
        np.testing.assert_array_equal(a.actions(), b.actions())

    @pytest.mark.parametrize(
        "times, actions",
        [
            ([2.0, 1.0], [0, 0]),
            ([-1.0, 1.0], [0, 0]),
            ([math.nan, 1.0], [0, 0]),
            ([0.0, math.inf], [0, 0]),
            ([0.0, 1.0], [0, -1]),
        ],
    )
    def test_both_constructors_reject_bad_events(self, times, actions):
        with pytest.raises(InvalidInputError):
            UserHistory.from_arrays("u", times, actions)
        # stand-ins, because EventRecord itself rejects most of these values
        records = [SimpleNamespace(t=t, action=a) for t, a in zip(times, actions)]
        with pytest.raises(InvalidInputError):
            UserHistory("u", records)

    def test_from_arrays_rejects_mismatched_arrays(self):
        with pytest.raises(InvalidInputError):
            UserHistory.from_arrays("u", [1.0, 2.0], [0])
        with pytest.raises(InvalidInputError):
            UserHistory.from_arrays("u", [[1.0, 2.0]], [[0, 0]])

    def test_stored_arrays_are_read_only(self):
        times, actions = np.array([1.0, 2.0]), np.array([0, 1])
        h = UserHistory.from_arrays("u", times, actions)
        times[0], actions[0] = 5.0, 3
        assert h.times().tolist() == [1.0, 2.0] and h.actions().tolist() == [0, 1]
        assert h.times() is h.times() and h.actions() is h.actions()
        for arr in (h.times(), h.actions()):
            with pytest.raises(ValueError):
                arr[0] = 0

    def test_events_round_trip(self):
        records = (EventRecord(0, 1.0), EventRecord(2, 1.5), EventRecord(1, 7.25))
        h = UserHistory("u", records)
        assert h.events == records
        assert h.events is h.events
        assert UserHistory.from_arrays("u", h.times(), h.actions()).events == records

    def test_until_cuts_at_time(self):
        h = UserHistory.from_arrays("u", [1.0, 2.0, 2.0, 3.0], [0, 1, 2, 0])
        assert h.until(2.0).actions().tolist() == [0, 1, 2]
        assert h.until(2.0, inclusive=False).actions().tolist() == [0]
        assert len(h.until(0.5)) == 0 and h.until(9.0).user == "u"

    def test_structure_rejects_bad_windows(self):
        with pytest.raises(InvalidInputError):
            ModelStructure(n_actions=1, n_mixtures=1, tod_edges=(0.0, 6.0, 12.0))
        with pytest.raises(InvalidInputError):
            ModelStructure(n_actions=1, n_mixtures=1, tod_edges=(0.0, 12.0, 6.0, 24.0))

    def test_params_sign_constraints(self):
        s = ModelStructure(n_actions=1, n_mixtures=1)
        good = zero_params(s)
        with pytest.raises(InvalidInputError):
            ModelParams(
                structure=s,
                users=(),
                alpha=np.zeros((0, 1)),
                beta=np.full((1, 1), -0.1),
                mu=good.mu,
                sigma=good.sigma,
                theta=good.theta,
                omega=good.omega,
                phi=good.phi,
                gamma=good.gamma,
                kappa=good.kappa,
            )
        with pytest.raises(InvalidInputError):
            ModelParams(
                structure=s,
                users=(),
                alpha=np.zeros((0, 1)),
                beta=good.beta,
                mu=np.full((1, 1), 25.0),  # outside (0, day_length)
                sigma=good.sigma,
                theta=good.theta,
                omega=good.omega,
                phi=good.phi,
                gamma=good.gamma,
                kappa=good.kappa,
            )

    def test_params_arrays_read_only(self):
        p = zero_params(ModelStructure(n_actions=1, n_mixtures=1))
        with pytest.raises(ValueError):
            p.beta[0, 0] = 1.0
