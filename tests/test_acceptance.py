"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion with its runtime.  Budgets are asserted; every tolerance is
pinned here, not configured elsewhere.
"""

import json
import math
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from tipas import (
    EventRecord,
    FitConfig,
    ModelParams,
    ModelStructure,
    SimConfig,
    SyntheticSpec,
    UserHistory,
    analytic_compensator,
    e_step,
    fit,
    generate_synthetic,
    make_windows,
    rescaled_interarrivals,
    rolling_window_eval,
    simulate,
)
from tipas.baselines import (
    AverageIntervalModel,
    CopyModel,
    MarkovModel,
    PoissonGlobalModel,
    PoissonUserModel,
    TimeCopyModel,
    UserAverageIntervalModel,
)
from tipas.cli import main as cli_main
from tipas.inference import background_objective, exponential_objective, weibull_objective
from tipas.metrics import mae_filtered
from tipas.predict import make_tipas_factory
from tipas.simulate import params_for_users

from conftest import random_histories, random_params
from oracles import quadrature_compensator


@contextmanager
def criterion(num: int, description: str, budget_s: float):
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        assert elapsed < budget_s, f"budget {budget_s}s exceeded: {elapsed:.1f}s"
    except BaseException:
        print(f"[FAIL] criterion {num}: {description}")
        raise
    print(f"[PASS] criterion {num}: {description} ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# shared ground-truth scenarios (frozen seeds)
# ---------------------------------------------------------------------------


def recovery_truth() -> ModelParams:
    """2 actions, 1 mixture, 2 time-of-day windows; time scales chosen so the
    kernels are identifiable at the 10k-event scale: cross-excitation decays
    within minutes, same-action recurrence over hours, backgrounds by day."""
    s = ModelStructure(
        n_actions=2, n_mixtures=1, tod_edges=(0.0, 12.0, 24.0), horizon=720.0
    )
    return ModelParams(
        structure=s,
        users=("tmpl",),
        alpha=np.zeros((1, 2)),
        beta=np.array([[0.30], [0.30]]),
        mu=np.array([[9.0], [15.0]]),
        sigma=np.array([[2.0], [2.5]]),
        theta=np.array([[0.10, 0.25], [0.15, 0.10]]),
        omega=np.array([[12.0, 3.0], [2.5, 12.0]]),
        phi=np.full((2, 2), 0.35),
        gamma=np.full((2, 2), 0.25),
        kappa=np.ones((2, 2)),
    )


def ablation_truth() -> ModelParams:
    """Five actions: two day-patterned, one fast follower of action 0, one
    rare action recurring ~24h after itself with a drifting phase, and one
    flat 'floor' action that outbids every diffuse proxy for the rare one."""
    A, C = 5, 4
    s = ModelStructure(n_actions=A, n_mixtures=1, horizon=1440.0)
    theta = np.zeros((A, A))
    theta[0, 1] = 0.5
    omega = np.ones((A, A))
    omega[0, 1] = 6.0
    phi = np.zeros((C, A))
    phi[:, 2] = 0.7
    kappa = np.ones((C, A))
    kappa[:, 2] = 14.0
    gamma = np.full((C, A), 0.1)
    gamma[:, 2] = 13.0 / (14.0 * 24.0**14)
    return ModelParams(
        structure=s,
        users=("tmpl",),
        alpha=np.zeros((1, A)),
        beta=np.array([[0.40], [0.01], [0.15], [0.40], [1.60]]),
        mu=np.array([[9.0], [12.0], [12.0], [15.0], [12.0]]),
        sigma=np.array([[1.2], [4.0], [12.0], [1.2], [20.0]]),
        theta=theta,
        omega=omega,
        phi=phi,
        gamma=gamma,
        kappa=kappa,
    )


def test_criterion_01_compensator_oracle():
    with criterion(1, "analytic vs quadrature compensator on 100 instances", 60.0):
        rng = np.random.default_rng(2024)
        for _ in range(100):
            n_actions = int(rng.integers(1, 3))
            n_mixtures = int(rng.integers(1, 3))
            p = random_params(
                rng,
                n_actions=n_actions,
                n_mixtures=n_mixtures,
                users=tuple(f"u{i}" for i in range(int(rng.integers(1, 4)))),
                kappa_range=(1.0, 2.5),
            )
            hs = random_histories(
                rng,
                n_users=len(p.users),
                max_events=int(rng.integers(2, 8)),
                n_actions=n_actions,
            )
            a = analytic_compensator(p, hs, 48.0)
            q = quadrature_compensator(p, hs, 48.0, n_panels=150)
            assert abs(a - q) / max(1.0, abs(a)) < 1e-6


def test_criterion_02_em_monotonicity():
    with criterion(2, "log-likelihood never decreases on 20 random fits", 600.0):
        rng = np.random.default_rng(7)
        for trial in range(20):
            n_actions = int(rng.integers(2, 4))
            s = ModelStructure(n_actions=n_actions, n_mixtures=1, horizon=480.0)
            c = s.n_categories
            truth = ModelParams(
                structure=s,
                users=("tmpl",),
                alpha=rng.uniform(0.005, 0.03, (1, n_actions)),
                beta=rng.uniform(0.2, 0.5, (n_actions, 1)),
                mu=rng.uniform(6.0, 20.0, (n_actions, 1)),
                sigma=rng.uniform(1.0, 3.0, (n_actions, 1)),
                theta=rng.uniform(0.02, 0.5 / n_actions, (n_actions, n_actions)),
                omega=rng.uniform(0.5, 4.0, (n_actions, n_actions)),
                phi=rng.uniform(0.05, 0.25, (c, n_actions)),
                gamma=rng.uniform(0.05, 0.4, (c, n_actions)),
                kappa=rng.uniform(0.9, 2.0, (c, n_actions)),
            )
            n_users = int(rng.integers(8, 15))
            hs = generate_synthetic(
                SyntheticSpec(n_users=n_users, params=truth, horizon=480.0, seed=trial)
            )
            n_events = sum(len(h) for h in hs)
            assert n_events <= 5000, f"scenario {trial} too large: {n_events}"
            if n_events == 0:
                continue
            cfg = FitConfig(
                n_mixtures=int(rng.integers(1, 3)),
                rng_seed=trial,
                max_iterations=60,
                rel_ll_tolerance=1e-9,
                horizon=480.0,
            )
            _, report = fit(hs, cfg)
            totals = [v.total for v in report.ll_trace]
            for i, (prev, nxt) in enumerate(zip(totals, totals[1:])):
                assert nxt >= prev - 1e-8 * abs(prev), (
                    f"trial {trial}: ll dropped at iteration {i}: {prev} -> {nxt}"
                )


def test_criterion_03_responsibility_normalization():
    with criterion(3, "responsibilities sum to 1 per event (1e-12, 10k events)", 120.0):
        rng = np.random.default_rng(99)
        total = 0
        while total < 10_000:
            p = random_params(
                rng,
                n_actions=int(rng.integers(1, 4)),
                n_mixtures=int(rng.integers(1, 3)),
                users=("u1", "u2", "u3"),
            )
            hs = random_histories(
                rng, n_users=3, max_events=40, n_actions=p.structure.n_actions
            )
            n = sum(len(h) for h in hs)
            if n == 0:
                continue
            resp = e_step(p, hs)
            np.testing.assert_allclose(resp.event_totals(), 1.0, atol=1e-12)
            total += n


def test_criterion_04_gradient_oracle():
    with criterion(4, "profiled M-step gradients and Hessians match finite differences", 120.0):
        rng = np.random.default_rng(41)
        states = 0
        while states < 50:
            p = random_params(
                rng,
                n_actions=int(rng.integers(1, 3)),
                n_mixtures=int(rng.integers(1, 3)),
                users=("u1", "u2"),
                kappa_range=(0.7, 3.0),
            )
            hs = random_histories(
                rng, n_users=2, max_events=20, n_actions=p.structure.n_actions
            )
            if sum(len(h) for h in hs) < 4:
                continue
            resp = e_step(p, hs)
            T = p.structure.horizon
            checked_any = False
            blocks = (
                exponential_objective(resp, p),
                weibull_objective(resp, p),
                background_objective(resp, p, T),
            )
            for objective, x0, active in blocks:
                if not active.any():
                    continue
                _, g, hess = objective(x0, derivatives=True)
                h = 1e-6
                for j in range(x0.shape[1]):
                    step = np.zeros_like(x0)
                    step[:, j] = h
                    fd = (objective(x0 + step) - objective(x0 - step)) / (2 * h)
                    fd_g = (
                        objective(x0 + step, derivatives=True)[1]
                        - objective(x0 - step, derivatives=True)[1]
                    ) / (2 * h)
                    for got, want in ((g[:, j], fd), (hess[:, :, j], fd_g)):
                        got, want = got[active], want[active]
                        denom = np.maximum(1.0, np.abs(want))
                        assert np.all(np.abs(got - want) / denom < 1e-4)
                checked_any = True
            if checked_any:
                states += 1


def test_criterion_05_parameter_recovery():
    with criterion(5, "ground-truth recovery within 15% (kappa in [0.8, 1.25])", 900.0):
        truth = recovery_truth()
        hs = generate_synthetic(
            SyntheticSpec(n_users=200, params=truth, horizon=720.0, seed=11)
        )
        per_user = np.mean([len(h) for h in hs])
        assert 30 < per_user < 80  # "about 50 events per user"
        cfg = FitConfig(
            n_mixtures=1,
            rng_seed=3,
            tod_edges=(0.0, 12.0, 24.0),
            max_iterations=800,
            rel_ll_tolerance=1e-8,
            horizon=720.0,
        )
        params, report = fit(hs, cfg)
        assert report.converged
        for name in ("beta", "mu", "sigma", "theta", "omega", "phi", "gamma"):
            est = getattr(params, name)
            tru = getattr(truth, name)
            worst = float(np.max(np.abs(est - tru) / np.abs(tru)))
            assert worst < 0.15, f"{name}: worst relative error {worst:.3f}"
        assert params.kappa.min() >= 0.8 and params.kappa.max() <= 1.25


def test_criterion_06_simulator_correctness():
    with criterion(6, "homogeneous mean count and Exp(1) time-rescaling", 300.0):
        # (a) constant-rate process: mean count over 1000 runs
        s1 = ModelStructure(n_actions=1, n_mixtures=1, horizon=10.0)
        pc = ModelParams(
            structure=s1,
            users=("u",),
            alpha=np.full((1, 1), 2.0),
            beta=np.zeros((1, 1)),
            mu=np.full((1, 1), 12.0),
            sigma=np.ones((1, 1)),
            theta=np.zeros((1, 1)),
            omega=np.zeros((1, 1)),
            phi=np.zeros((4, 1)),
            gamma=np.zeros((4, 1)),
            kappa=np.ones((4, 1)),
        )
        counts = [
            len(simulate(pc, "u", UserHistory("u", ()), SimConfig(horizon=10.0, seed=k)))
            for k in range(1000)
        ]
        se = math.sqrt(20.0 / 1000)
        assert abs(float(np.mean(counts)) - 20.0) < 3 * se

        # (b) full model: transformed interarrivals are Exp(1) by KS
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
        hs = generate_synthetic(
            SyntheticSpec(n_users=40, params=truth, horizon=720.0, seed=21)
        )
        bound = params_for_users(truth, [h.user for h in hs])
        z = np.concatenate([rescaled_interarrivals(bound, h) for h in hs if len(h)])
        assert z.size >= 2000
        res = stats.kstest(z[:: max(1, z.size // 2500)], "expon")
        assert res.pvalue > 0.01, f"KS p-value {res.pvalue}"


def test_criterion_07_ablation_ordering():
    with criterion(
        7, "accuracy Time < Time+Short < full, each gap > 2 points", 1800.0
    ):
        truth = ablation_truth()
        hs = generate_synthetic(
            SyntheticSpec(n_users=40, params=truth, horizon=1440.0, seed=5)
        )
        cfg = FitConfig(n_mixtures=2, rng_seed=1, max_iterations=800, rel_ll_tolerance=1e-7)
        windows = make_windows(0.0, 1440.0, 720.0)
        reports = {}
        for name, c in (
            ("time", replace(cfg, include_short=False, include_long=False)),
            ("time+short", replace(cfg, include_long=False)),
            ("full", cfg),
        ):
            reports[name] = rolling_window_eval(
                hs,
                make_tipas_factory(c, name=name),
                windows,
                n_actions=5,
                with_time=False,
            )
        acc = {k: v.accuracy for k, v in reports.items()}
        mac = {k: v.macro_recall for k, v in reports.items()}
        short_gap = acc["time+short"] - acc["time"]
        long_gap = acc["full"] - acc["time+short"]
        macro_gap = mac["full"] - mac["time+short"]
        print(
            f"\n  accuracy: time={acc['time']:.4f} time+short={acc['time+short']:.4f} "
            f"full={acc['full']:.4f}"
        )
        print(f"  gaps: short={short_gap:.4f} long={long_gap:.4f} macro_long={macro_gap:.4f}")
        assert short_gap > 0.02, f"short-term gap {short_gap:.4f} <= 2 points"
        assert long_gap > 0.02, f"long-term gap {long_gap:.4f} <= 2 points"
        assert macro_gap > long_gap, "macro-recall gap should exceed the accuracy gap"


def test_criterion_08_baseline_sanity():
    with criterion(8, "baselines reproduce closed-form fixtures exactly", 60.0):
        def hist(user, *pairs):
            ordered = sorted(pairs, key=lambda x: x[1])
            return UserHistory(user, tuple(EventRecord(a, t) for a, t in ordered))

        # copy
        m = CopyModel().fit([hist("u", (0, 1.0), (2, 3.0))], 3)
        assert m.predict_action("u", np.array([1.0, 3.0]), np.array([0, 2]), 4.0) == 2
        assert m.predict_action("v", np.array([]), np.array([], dtype=int), 1.0) == 0

        # markov orders 1..5: deterministic cycle a b c a b c ...
        cycle = [i % 3 for i in range(60)]
        events = tuple(EventRecord(a, float(i)) for i, a in enumerate(cycle))
        for order in range(1, 6):
            mk = MarkovModel(order).fit([UserHistory("u", events)], 3)
            ctx_t = np.arange(order, dtype=float)
            ctx_a = np.array(cycle[:order])
            expected = cycle[order]
            assert mk.predict_action("u", ctx_t, ctx_a, 100.0) == expected

        # unseen context backs off
        mk = MarkovModel(3).fit([UserHistory("u", events)], 3)
        assert mk.predict_action("u", np.array([0.0, 1.0, 2.0]), np.array([2, 2, 2]), 5.0) == 0

        # poisson: rates are counts over horizon
        h = hist("u", *[(0, i + 0.1) for i in range(10)], *[(1, i + 0.5) for i in range(5)])
        pu = PoissonUserModel().fit([h], 2, T=10.0)
        assert pu.rates["u"][0] == 1.0 and pu.rates["u"][1] == 0.5
        pg1 = PoissonGlobalModel().fit([h], 2, T=10.0)
        h2 = UserHistory("v", h.events)
        pg2 = PoissonGlobalModel().fit([h, h2], 2, T=10.0)
        np.testing.assert_array_equal(pg1.rates, pg2.rates)
        t, a = h.times(), h.actions()
        assert pg1.predict_time("u", t, a) == pytest.approx(float(t[-1]) + 1.0 / 1.5)

        # time baselines
        tc = TimeCopyModel().fit([hist("u", (0, 1.0), (0, 3.0))])
        assert tc.predict_time("u", np.array([1.0, 3.0]), np.array([0, 0])) == 5.0
        ai = AverageIntervalModel().fit([hist("u", (0, 0.0), (0, 1.0), (0, 3.0), (0, 6.0))])
        assert ai.predict_time("u", np.array([10.0]), np.array([0])) == 12.0
        ua = UserAverageIntervalModel().fit(
            [hist("u", (0, 0.0), (0, 2.0), (0, 4.0)), hist("v", (0, 0.0))]
        )
        assert ua.predict_time("v", np.array([7.0]), np.array([0])) == 9.0
        assert ua.predict_time("u", np.array([0.0, 1.0, 5.0]), np.array([0, 0, 0])) == 7.5


def test_criterion_09_time_prediction_protocol():
    with criterion(9, "MAE filter at 12h and the 6h variant change the answer", 60.0):
        # direct metric fixture: 4h-gap event with error 1, 7h-gap event
        # with error 3, 13h-gap event with error 10
        preds = [10.0, 10.0, 30.0]
        true = [9.0, 7.0, 20.0]
        last = [5.0, 0.0, 7.0]
        assert mae_filtered(preds, true, last, horizon=12.0) == pytest.approx(2.0)
        assert mae_filtered(preds, true, last, horizon=6.0) == pytest.approx(1.0)

        # the evaluation driver applies the same filter
        hs = [
            UserHistory(
                "u",
                (
                    EventRecord(0, 10.0),
                    EventRecord(0, 47.0),  # prefix for the test window
                    EventRecord(0, 51.0),  # 4h gap
                    EventRecord(0, 58.0),  # 7h gap
                    EventRecord(0, 71.0),  # 13h gap: outside both filters
                ),
            )
        ]

        class FixedOffset:
            supports_action = False
            supports_time = True

            def predict_time(self, user, times, actions, seed=0):
                return float(times[-1]) + 2.0

        windows = make_windows(0.0, 96.0, 48.0)
        rep12 = rolling_window_eval(
            hs, lambda tr, T: FixedOffset(), windows, n_actions=1, horizon_filter=12.0
        )
        rep6 = rolling_window_eval(
            hs, lambda tr, T: FixedOffset(), windows, n_actions=1, horizon_filter=6.0
        )
        # |2 - 4| = 2 and |2 - 7| = 5
        assert rep12.n_filtered == 2
        assert rep12.mae_hours == pytest.approx((2.0 + 5.0) / 2)
        assert rep6.n_filtered == 1
        assert rep6.mae_hours == pytest.approx(2.0)


def test_criterion_10_pipeline_determinism(tmp_path):
    with criterion(10, "generate -> fit -> evaluate is byte-identical", 600.0):
        outputs = []
        for run in ("a", "b"):
            d = tmp_path / run
            d.mkdir()
            data = d / "data.jsonl"
            model = d / "model.json"
            report = d / "report.json"
            assert cli_main(["generate", "--spec", "demo", "--out", str(data)]) == 0
            assert (
                cli_main(
                    [
                        "fit",
                        "--data",
                        str(data),
                        "--out",
                        str(model),
                        "--mixtures",
                        "1",
                        "--max-iters",
                        "40",
                        "--seed",
                        "5",
                    ]
                )
                == 0
            )
            assert (
                cli_main(
                    [
                        "evaluate",
                        "--data",
                        str(data),
                        "--window-days",
                        "30",
                        "--baselines",
                        "copy,pp-user,time-copy",
                        "--mixtures",
                        "1",
                        "--max-iters",
                        "25",
                        "--seed",
                        "5",
                        "--out",
                        str(report),
                    ]
                )
                == 0
            )
            outputs.append(
                (data.read_bytes(), model.read_bytes(), report.read_bytes())
            )
        assert outputs[0][0] == outputs[1][0], "datasets differ"
        assert outputs[0][1] == outputs[1][1], "models differ"
        assert outputs[0][2] == outputs[1][2], "reports differ"
        doc = json.loads(outputs[0][2])
        assert "tipas" in doc["models"]
