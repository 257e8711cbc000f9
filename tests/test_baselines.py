"""Closed-form behavior of every baseline on crafted fixtures."""

import math

import numpy as np
import pytest

from tipas import (
    BASELINE_NAMES,
    AverageIntervalModel,
    CopyModel,
    EventRecord,
    InvalidInputError,
    InvalidStateError,
    MarkovModel,
    PoissonGlobalModel,
    PoissonUserModel,
    TimeCopyModel,
    UserAverageIntervalModel,
    UserHistory,
    make_baseline,
)

from oracles import transition_probs


def hist(user, *pairs):
    ordered = sorted(pairs, key=lambda p: p[1])
    return UserHistory(user, tuple(EventRecord(a, t) for a, t in ordered))


def arrays(h: UserHistory):
    return h.times(), h.actions()


class TestCopy:
    def test_repeats_last_action(self):
        m = CopyModel().fit([hist("u", (0, 1.0), (2, 3.0))], 3)
        t, a = arrays(hist("u", (0, 1.0), (2, 3.0)))
        assert m.predict_action("u", t, a, 4.0) == 2

    def test_single_event(self):
        m = CopyModel().fit([hist("u", (1, 1.0))], 3)
        t, a = arrays(hist("u", (1, 1.0)))
        assert m.predict_action("u", t, a, 2.0) == 1

    def test_empty_prefix_falls_back_to_majority(self):
        m = CopyModel().fit([hist("u", (2, 1.0), (2, 2.0), (0, 3.0))], 3)
        assert m.predict_action("v", np.array([]), np.array([], dtype=int), 1.0) == 2
        assert m.fell_back == 1


class TestMarkov:
    def test_deterministic_alternation(self):
        m = MarkovModel(order=1).fit(
            [hist("u", (0, 1.0), (1, 2.0), (0, 3.0), (1, 4.0), (0, 5.0), (1, 6.0))], 2
        )
        t, a = arrays(hist("u", (1, 1.0), (0, 2.0)))
        assert m.predict_action("u", t, a, 3.0) == 1
        t, a = arrays(hist("u", (0, 1.0), (1, 2.0)))
        assert m.predict_action("u", t, a, 3.0) == 0

    def test_backoff_on_unseen_context(self):
        train = hist("u", (0, 1.0), (1, 2.0), (2, 3.0), (0, 4.0), (1, 5.0), (2, 6.0))
        m = MarkovModel(order=3).fit([train], 3)
        # context (2, 2, 2) never appears; order-2 (2, 2) neither; order-1
        # context (2,) predicts 0
        t = np.array([1.0, 2.0, 3.0])
        a = np.array([2, 2, 2])
        assert m.predict_action("u", t, a, 4.0) == 0

    def test_uniform_data_matches_global_argmax(self):
        rng = np.random.default_rng(0)
        actions = rng.integers(0, 3, 400)
        events = tuple(EventRecord(int(x), float(i)) for i, x in enumerate(actions))
        m = MarkovModel(order=2).fit([UserHistory("u", events)], 3)
        counts = np.bincount(actions, minlength=3)
        t = np.array([1000.0])
        a = np.array([int(actions[-1])])
        pred = m.predict_action("u", t, a, 1001.0)
        ctx_counts = m.counts[1][(int(actions[-1]),)]
        assert pred == int(np.argmax(ctx_counts))
        assert counts.argmax() == int(np.argmax(m.counts[0][()]))

    def test_rows_normalize_after_smoothing(self):
        m = MarkovModel(order=2).fit(
            [hist("u", (0, 1.0), (1, 2.0), (0, 3.0), (1, 4.0))], 2
        )
        for order_counts in m.counts:
            for ctx in order_counts:
                probs = transition_probs(m, ctx)
                assert probs.sum() == pytest.approx(1.0, abs=1e-12)
                assert np.all(probs > 0)

    def test_order_bounds(self):
        with pytest.raises(InvalidInputError):
            MarkovModel(order=0)
        with pytest.raises(InvalidInputError):
            MarkovModel(order=6)


class TestPoisson:
    def test_user_rates_are_count_over_horizon(self):
        h = hist("u", *[(0, float(i)) for i in range(1, 11)], *[(1, float(i) + 0.5) for i in range(1, 6)])
        m = PoissonUserModel().fit([h], 2, T=10.0)
        assert m.rates["u"][0] == pytest.approx(1.0)
        assert m.rates["u"][1] == pytest.approx(0.5)
        t, a = arrays(h)
        assert m.predict_action("u", t, a, 11.0) == 0

    def test_global_rates_normalized_by_users(self):
        h1 = hist("u1", (0, 1.0), (0, 2.0), (1, 3.0))
        h2 = hist("u2", (0, 1.0), (0, 2.0), (1, 3.0))
        one = PoissonGlobalModel().fit([h1], 2, T=10.0)
        two = PoissonGlobalModel().fit([h1, h2], 2, T=10.0)
        np.testing.assert_allclose(one.rates, two.rates)

    def test_time_prediction_is_exponential_mean(self):
        h = hist("u", *[(0, float(i)) for i in range(1, 11)], *[(1, float(i) + 0.5) for i in range(1, 11)])
        m = PoissonUserModel().fit([h], 2, T=10.0)
        # total rate 2/h -> next event 0.5h after the last
        t, a = arrays(h)
        assert m.predict_time("u", t, a) == pytest.approx(float(t[-1]) + 0.5)

    def test_unseen_user_degenerates(self):
        m = PoissonUserModel().fit([hist("u", (1, 1.0))], 2, T=10.0)
        t = np.array([1.0])
        a = np.array([1])
        assert m.predict_action("v", t, a, 2.0) == 0
        assert m.degenerate == 1
        assert math.isnan(m.predict_time("v", t, a))


class TestTimeBaselines:
    def test_time_copy_repeats_last_interval(self):
        m = TimeCopyModel().fit([hist("u", (0, 1.0), (0, 3.0))])
        t = np.array([1.0, 3.0])
        a = np.array([0, 0])
        assert m.predict_time("u", t, a) == pytest.approx(5.0)

    def test_avg_interval_adds_global_mean(self):
        # gaps 1, 2, 3 -> mean 2
        m = AverageIntervalModel().fit([hist("u", (0, 0.0), (0, 1.0), (0, 3.0), (0, 6.0))])
        t = np.array([0.0, 10.0])
        a = np.array([0, 0])
        assert m.predict_time("u", t, a) == pytest.approx(12.0)

    def test_user_avg_falls_back_to_global(self):
        m = UserAverageIntervalModel().fit(
            [hist("u", (0, 0.0), (0, 2.0), (0, 4.0)), hist("v", (0, 0.0))]
        )
        t = np.array([7.0])
        a = np.array([0])
        assert m.predict_time("v", t, a) == pytest.approx(9.0)
        assert m.fell_back == 1

    def test_user_avg_uses_own_prefix(self):
        m = UserAverageIntervalModel().fit([hist("u", (0, 0.0), (0, 2.0), (0, 4.0))])
        t = np.array([0.0, 1.0, 5.0])
        a = np.array([0, 0, 0])
        # prefix gaps 1 and 4 -> mean 2.5
        assert m.predict_time("u", t, a) == pytest.approx(7.5)

    def test_no_intervals_anywhere_is_invalid_state(self):
        with pytest.raises(InvalidStateError):
            AverageIntervalModel().fit([hist("u", (0, 1.0)), hist("v", (1, 2.0))])
        with pytest.raises(InvalidStateError):
            UserAverageIntervalModel().fit([hist("u", (0, 1.0))])
        m = TimeCopyModel().fit([hist("u", (0, 1.0))])
        with pytest.raises(InvalidStateError):
            m.predict_time("u", np.array([1.0]), np.array([0]))


class TestRegistry:
    def test_names_in_report_order(self):
        assert BASELINE_NAMES == (
            "copy",
            "markov1",
            "markov2",
            "markov3",
            "markov4",
            "markov5",
            "pp-global",
            "pp-user",
            "time-copy",
            "avg-interval",
            "user-avg-interval",
        )

    @pytest.mark.parametrize("name", BASELINE_NAMES)
    def test_every_name_builds_and_predicts(self, name):
        train = [hist("u", (0, 1.0), (1, 3.0), (0, 6.0)), hist("v", (1, 2.0), (1, 5.0))]
        m = make_baseline(name, train, 2, 10.0)
        assert m.supports_action == hasattr(m, "predict_action")
        assert m.supports_time == hasattr(m, "predict_time")
        t, a = arrays(train[0])
        if m.supports_action:
            assert m.predict_action("u", t, a, 7.0) in (0, 1)
        if m.supports_time:
            assert m.predict_time("u", t, a) > 6.0

    @pytest.mark.parametrize("name", ["nope", "markov6", "markov", "COPY"])
    def test_unknown_name_is_invalid_input(self, name):
        with pytest.raises(InvalidInputError, match="unknown baseline"):
            make_baseline(name, [hist("u", (0, 1.0), (0, 2.0))], 1, 10.0)
