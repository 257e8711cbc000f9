"""File formats, model persistence, parameter export, and the CLI surface."""

import csv
import json
import logging
import math
import os
import stat

import numpy as np
import pytest

from tipas import (
    DataFormatError,
    EventRecord,
    InvalidInputError,
    UnsupportedVersionError,
    UserHistory,
    VocabularyError,
    load_dataset,
    load_model,
    save_histories,
    save_model,
    save_spec,
)
from tipas.cli import _build_parser, main
from tipas.dataio import export_params, write_json
from tipas.model import (
    ModelParams,
    ModelStructure,
    exp_kernel,
    weibull_kernel,
)

from conftest import random_params, zero_params
from oracles import background_intensity


class TestLoadDataset:
    def test_jsonl_roundtrip(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text(
            '{"user": "u1", "action": "run", "t": 2.0}\n'
            '{"user": "u1", "action": "eat", "t": 1.0}\n'
            '{"user": "u1", "action": "run", "t": 3.0}\n'
        )
        res = load_dataset(path)
        assert res.n_records == 3
        assert res.vocabulary == ("eat", "run")
        assert len(res.histories) == 1
        assert [e.t for e in res.histories[0].events] == [1.0, 2.0, 3.0]
        assert res.n_reordered_users == 1

    def test_resorting_keeps_tie_order(self, tmp_path):
        # enough ties that an unstable sort would reorder them
        names = [f"a{i:02d}" for i in range(40)][::-1]
        lines = [{"user": "u", "action": "late", "t": 2.0}]
        lines += [{"user": "u", "action": n, "t": 1.0} for n in names]
        path = tmp_path / "d.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in lines))
        res = load_dataset(path)
        assert res.n_reordered_users == 1
        assert res.histories[0].times().tolist() == [1.0] * 40 + [2.0]
        assert [res.vocabulary[a] for a in res.histories[0].actions()] == names + ["late"]

    def test_csv_variant(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("user,action,t\nu1,run,1.5\nu2,eat,0.5\n")
        res = load_dataset(path)
        assert res.n_records == 2
        assert {h.user for h in res.histories} == {"u1", "u2"}

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"user": "u", "action": "a", "t": 1.0}\nnot json\n')
        with pytest.raises(DataFormatError, match="line 2"):
            load_dataset(path)

    def test_negative_time_rejected(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"user": "u", "action": "a", "t": -1.0}\n')
        with pytest.raises(DataFormatError, match="line 1"):
            load_dataset(path)

    def test_unknown_action_with_fixed_vocabulary(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"user": "u", "action": "swim", "t": 1.0}\n')
        with pytest.raises(VocabularyError):
            load_dataset(path, vocabulary=("eat", "run"))

    def test_iso_timestamps_with_anchor(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"user": "u", "action": "a", "t": "2024-01-01T06:00:00"}\n')
        res = load_dataset(path, t0="2024-01-01T00:00:00")
        assert res.histories[0].events[0].t == 6.0
        with pytest.raises(DataFormatError, match="t0"):
            load_dataset(path)

    def test_save_then_load(self, tmp_path):
        hs = [UserHistory("u", (EventRecord(0, 1.0), EventRecord(1, 2.5)))]
        path = tmp_path / "d.jsonl"
        save_histories(hs, ("eat", "run"), path)
        res = load_dataset(path)
        assert res.histories[0].events == hs[0].events


class TestModelFile:
    def test_bit_exact_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        p = random_params(rng, users=("u1", "u2"))
        path = tmp_path / "m.json"
        save_model(p, ("a", "b"), path, metadata={"seed": 1})
        q, vocab, meta = load_model(path)
        assert vocab == ("a", "b")
        assert meta == {"seed": 1}
        for name in ("alpha", "beta", "mu", "sigma", "theta", "omega", "phi", "gamma", "kappa"):
            np.testing.assert_array_equal(getattr(p, name), getattr(q, name))
        assert p.structure == q.structure
        assert p.users == q.users

    def test_version_gate(self, tmp_path):
        rng = np.random.default_rng(0)
        p = random_params(rng)
        path = tmp_path / "m.json"
        save_model(p, ("a", "b"), path)
        doc = json.loads(path.read_text())
        doc["schema_version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(UnsupportedVersionError):
            load_model(path)

    def test_writes_a_24_hour_day(self, tmp_path):
        path = tmp_path / "m.json"
        save_model(random_params(np.random.default_rng(0)), ("a", "b"), path)
        assert json.loads(path.read_text())["structure"]["day_length"] == 24.0

    def test_wrong_kind_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"kind": "something-else", "schema_version": 1}')
        with pytest.raises(DataFormatError):
            load_model(path)


class TestExportParams:
    def test_shape_one_curve_is_exponential(self, tmp_path):
        s = ModelStructure(n_actions=1, n_mixtures=1, horizon=24.0)
        p = ModelParams(
            structure=s,
            users=(),
            alpha=np.zeros((0, 1)),
            beta=np.zeros((1, 1)),
            mu=np.full((1, 1), 12.0),
            sigma=np.ones((1, 1)),
            theta=np.zeros((1, 1)),
            omega=np.ones((1, 1)),
            phi=np.full((4, 1), 0.4),
            gamma=np.full((4, 1), 0.3),
            kappa=np.ones((4, 1)),
        )
        paths = export_params(p, ("run",), tmp_path, delta_max=5.0, delta_step=0.5)
        long_path = [x for x in paths if "long" in x.name][0]
        rows = long_path.read_text().strip().splitlines()[1:]
        for row in rows:
            cat, lo, hi, action, d, v = row.split(",")
            expect = 0.4 * 0.3 * math.exp(-0.3 * float(d))
            assert float(v) == pytest.approx(expect, rel=1e-12)

    def test_values_are_the_model_kernels(self, tmp_path):
        # every exported value is the model's own function at the exported
        # point (a re-derived formula misses it by up to ~1e-12 relative)
        p = random_params(np.random.default_rng(3), kappa_range=(0.5, 3.0))
        names = ("a", "b")
        long_path, short_path, bg_path = export_params(
            p, names, tmp_path, delta_max=30.0, delta_step=0.25
        )

        def rows(path):
            return list(csv.reader(path.open()))[1:]

        for cat, lo, hi, action, d, v in rows(long_path):
            c, a = int(cat), names.index(action)
            assert (float(lo), float(hi)) == p.structure.tod_edges[c : c + 2]
            expect = weibull_kernel(np.log(float(d)), p.phi[c, a], p.gamma[c, a], p.kappa[c, a])
            assert float(v) == pytest.approx(expect, rel=1e-14, abs=0.0)
        for src, dst, d, v in rows(short_path):
            i, j = names.index(src), names.index(dst)
            expect = exp_kernel(float(d), p.theta[i, j], p.omega[i, j])
            assert float(v) == pytest.approx(expect, rel=1e-14, abs=0.0)
        tods = [float(tod) for _, tod, _ in rows(bg_path)]
        assert tods[0] == 0.0 and tods[-1] == pytest.approx(23.9)
        for action, tod, v in rows(bg_path):
            expect = background_intensity(p, names.index(action), float(tod))
            assert float(v) == pytest.approx(expect, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize(
        "delta_max, delta_step",
        [(36.0, 0.0), (36.0, -1.0), (math.inf, 0.05), (36.0, math.nan), (math.nan, 0.05),
         (1.0, 2.0)],
    )
    def test_bad_delta_grid_rejected(self, tmp_path, delta_max, delta_step):
        p = random_params(np.random.default_rng(1))
        with pytest.raises(InvalidInputError):
            export_params(
                p, ("a", "b"), tmp_path, delta_max=delta_max, delta_step=delta_step
            )
        assert not list(tmp_path.iterdir())

    def test_all_three_files_written(self, tmp_path):
        rng = np.random.default_rng(1)
        p = random_params(rng)
        paths = export_params(p, ("a", "b"), tmp_path, delta_max=2.0, delta_step=1.0)
        names = {x.name for x in paths}
        assert names == {
            "long_term_kernels.csv",
            "short_term_kernels.csv",
            "background_density.csv",
        }


class TestCli:
    def test_missing_data_is_usage_error(self, capsys):
        assert main(["fit", "--out", "m.json"]) == 1
        err = capsys.readouterr().err
        assert "usage" in err

    def test_unknown_baseline_is_data_error(self, tmp_path, capsys):
        data = tmp_path / "d.jsonl"
        data.write_text('{"user": "u", "action": "a", "t": 1.0}\n')
        code = main(
            ["evaluate", "--data", str(data), "--baselines", "nope",
             "--out", str(tmp_path / "r.json")]
        )
        assert code == 2

    def test_evaluate_rejects_fractional_window_days(self, tmp_path, capsys):
        data = tmp_path / "d.jsonl"
        events = (EventRecord(0, 1.0), EventRecord(0, 40.0), EventRecord(0, 80.0))
        save_histories([UserHistory("u", events)], ("a",), data)
        report = tmp_path / "r.json"
        code = main(
            ["evaluate", "--data", str(data), "--window-days", "1.5", "--no-time",
             "--baselines", "copy", "--max-iters", "2", "--out", str(report)]
        )
        assert code == 2
        assert not report.exists()
        assert "would shift the time-of-day patterns" in capsys.readouterr().err

    @pytest.mark.parametrize("days", ["0", "-30", "nan", "inf"])
    def test_evaluate_rejects_bad_window_days(self, tmp_path, capsys, days):
        data = tmp_path / "d.jsonl"
        save_histories([UserHistory("u", (EventRecord(0, 1.0), EventRecord(0, 40.0)))],
                       ("a",), data)
        report = tmp_path / "r.json"
        code = main(
            ["evaluate", "--data", str(data), "--window-days", days, "--no-time",
             "--baselines", "copy", "--max-iters", "2", "--out", str(report)]
        )
        assert code == 2
        assert not report.exists()
        assert "--window-days must be positive and finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command,value",
        [("evaluate", "auto"), ("evaluate", "2.5"), ("fit", "abc"), ("fit", "3.5"),
         ("fit", "0")],
    )
    def test_bad_mixture_count_is_usage_error(self, tmp_path, capsys, command, value):
        data = tmp_path / "d.jsonl"
        save_histories([UserHistory("u", (EventRecord(0, 1.0), EventRecord(0, 40.0)))],
                       ("a",), data)
        out = tmp_path / "out.json"
        code = main([command, "--data", str(data), "--mixtures", value, "--out", str(out)])
        assert code == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert "usage" in err and "Traceback" not in err

    def test_auto_mixtures_on_one_day_is_data_error(self, tmp_path, capsys):
        data = tmp_path / "d.jsonl"
        save_histories([UserHistory("u", (EventRecord(0, 1.0), EventRecord(0, 23.5)))],
                       ("a",), data)
        out = tmp_path / "model.json"
        code = main(["fit", "--data", str(data), "--mixtures", "auto", "--max-iters", "2",
                     "--out", str(out)])
        assert code == 2
        assert not out.exists()
        assert "validation slice" in capsys.readouterr().err

    def test_fit_accepts_auto_mixtures(self):
        args = _build_parser().parse_args(["fit", "--data", "d", "--out", "m", "--mixtures", "auto"])
        assert args.mixtures == "auto"
        args = _build_parser().parse_args(["evaluate", "--data", "d", "--out", "r"])
        assert args.mixtures == 3

    def test_missing_file_is_data_error(self, tmp_path):
        assert main(["fit", "--data", str(tmp_path / "nope.jsonl"), "--out", "m.json"]) == 2

    def test_generate_demo_spec(self, tmp_path):
        out = tmp_path / "demo.jsonl"
        assert main(["generate", "--spec", "demo", "--out", str(out)]) == 0
        res = load_dataset(out)
        assert res.n_records > 100
        assert len(res.vocabulary) == 5

    def test_full_pipeline_smoke(self, tmp_path, caplog):
        # generate -> fit -> predict -> predict-time -> simulate ->
        # export-params on a small spec
        caplog.set_level(logging.INFO, logger="tipas")
        spec_path = tmp_path / "spec.json"
        demo, vocab = _small_spec()
        from tipas.dataio import save_spec

        save_spec(demo, vocab, spec_path)
        data = tmp_path / "data.jsonl"
        assert main(["generate", "--spec", str(spec_path), "--out", str(data)]) == 0

        model = tmp_path / "model.json"
        assert main(
            ["fit", "--data", str(data), "--out", str(model),
             "--mixtures", "1", "--max-iters", "30", "--seed", "1"]
        ) == 0
        assert "cells on a bound:" in caplog.text
        assert "at_floor" not in model.read_text()

        pred = tmp_path / "pred.json"
        assert main(
            ["predict", "--model", str(model), "--data", str(data),
             "--at", "300.0", "--out", str(pred)]
        ) == 0
        doc = json.loads(pred.read_text())
        assert doc["predictions"]

        tpred = tmp_path / "tpred.json"
        assert main(
            ["predict-time", "--model", str(model), "--data", str(data),
             "--out", str(tpred)]
        ) == 0

        sim = tmp_path / "sim.jsonl"
        assert main(
            ["simulate", "--model", str(model), "--users", "2",
             "--horizon", "48", "--seed", "3", "--out", str(sim)]
        ) == 0
        assert load_dataset(sim).n_records >= 0

        outdir = tmp_path / "export"
        assert main(["export-params", "--model", str(model), "--out-dir", str(outdir)]) == 0
        assert (outdir / "background_density.csv").exists()

    def test_evaluate_selected_baseline_only(self, tmp_path):
        demo, vocab = _small_spec(horizon=1440.0)
        from tipas.dataio import save_spec

        spec_path = tmp_path / "spec.json"
        save_spec(demo, vocab, spec_path)
        data = tmp_path / "data.jsonl"
        assert main(["generate", "--spec", str(spec_path), "--out", str(data)]) == 0
        report = tmp_path / "report.json"
        code = main(
            ["evaluate", "--data", str(data), "--window-days", "30",
             "--baselines", "copy", "--no-time", "--max-iters", "15",
             "--mixtures", "1", "--out", str(report)]
        )
        assert code == 0
        doc = json.loads(report.read_text())
        assert set(doc["models"]) == {"copy", "tipas", "tipas-time", "tipas-time-short"}

    def test_byte_identical_reruns(self, tmp_path):
        demo, vocab = _small_spec(horizon=1440.0)
        from tipas.dataio import save_spec

        spec_path = tmp_path / "spec.json"
        save_spec(demo, vocab, spec_path)
        data = tmp_path / "data.jsonl"
        main(["generate", "--spec", str(spec_path), "--out", str(data)])
        r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
        args = ["evaluate", "--data", str(data), "--window-days", "30",
                "--baselines", "copy", "--no-time", "--max-iters", "10",
                "--mixtures", "1", "--seed", "3"]
        assert main(args + ["--out", str(r1)]) == 0
        assert main(args + ["--out", str(r2)]) == 0
        assert r1.read_bytes() == r2.read_bytes()

    def test_files_with_another_day_length_rejected(self, tmp_path, capsys):
        # consistent for a 12-hour day (edges and means halved), but every
        # time in the package is in hours of a 24-hour day
        spec, vocab = _small_spec()
        model, spec_path, data = (tmp_path / n for n in ("m.json", "s.json", "d.jsonl"))
        save_model(spec.params, vocab, model)
        save_spec(spec, vocab, spec_path)
        save_histories([UserHistory("t", (EventRecord(0, 1.0),))], vocab, data)
        for path, key in ((model, None), (spec_path, "model")):
            doc = json.loads(path.read_text())
            inner = doc[key] if key else doc
            inner["structure"]["day_length"] = 12.0
            inner["structure"]["tod_edges"] = [e / 2 for e in inner["structure"]["tod_edges"]]
            inner["params"]["mu"] = [[m / 2 for m in row] for row in inner["params"]["mu"]]
            path.write_text(json.dumps(doc))
        assert main(["predict", "--model", str(model), "--data", str(data),
                     "--at", "5"]) == 2
        assert "day_length must be 24 hours, got 12.0" in capsys.readouterr().err
        assert main(["generate", "--spec", str(spec_path),
                     "--out", str(tmp_path / "g.jsonl")]) == 2
        assert "day_length must be 24 hours, got 12.0" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-1", "inf", "nan", "1e308"])
    def test_bad_horizon_filter_exits_2(self, tmp_path, monkeypatch, value):
        # checked before any fit: evaluate writes no report and fits nothing
        import tipas.predict

        def no_fit(*args, **kwargs):
            raise AssertionError("fit ran before the horizon filter was checked")

        monkeypatch.setattr(tipas.predict, "fit", no_fit)
        vocab = ("a", "b")
        model, data = tmp_path / "m.json", tmp_path / "d.jsonl"
        save_model(random_params(np.random.default_rng(2), users=("u",)), vocab, model)
        events = (EventRecord(0, 1.0), EventRecord(1, 30.0), EventRecord(0, 50.0))
        save_histories([UserHistory("u", events)], vocab, data)
        out, report = tmp_path / "t.json", tmp_path / "r.json"
        assert main(["predict-time", "--model", str(model), "--data", str(data),
                     "--horizon-filter", value, "--out", str(out)]) == 2
        assert main(["evaluate", "--data", str(data), "--window-days", "1",
                     "--baselines", "copy", "--horizon-filter", value,
                     "--out", str(report)]) == 2
        assert not out.exists() and not report.exists()

    @pytest.mark.parametrize(
        "flags", [["--delta-step", "0"], ["--delta-step", "-1"], ["--delta-max", "inf"]]
    )
    def test_bad_export_grid_exits_2(self, tmp_path, flags):
        model, curves = tmp_path / "m.json", tmp_path / "curves"
        save_model(random_params(np.random.default_rng(3)), ("a", "b"), model)
        args = ["export-params", "--model", str(model), "--out-dir", str(curves), *flags]
        assert main(args) == 2
        assert not curves.exists()

    def test_predict_time_zero_model_writes_null(self, tmp_path):
        # no event can ever occur: the prediction is censored, not an error
        vocab = ("eat", "run")
        params = zero_params(ModelStructure(n_actions=2, n_mixtures=1), users=("u",))
        model, data, out = tmp_path / "m.json", tmp_path / "d.jsonl", tmp_path / "t.json"
        save_model(params, vocab, model)
        save_histories([UserHistory("u", (EventRecord(0, 1.0),))], vocab, data)
        assert main(["predict-time", "--model", str(model), "--data", str(data),
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["predictions"]["u"] == {"hours": None, "censored_probability": 1.0}

    @pytest.mark.parametrize(
        "case", ["simulate-nan", "simulate-inf", "spec-nan", "tol-nan", "tol-inf"]
    )
    def test_non_finite_input_exits_2_before_any_draw_or_fit(
        self, tmp_path, monkeypatch, capsys, case
    ):
        import tipas.cli

        def refuse(*args, **kwargs):
            raise AssertionError("drew or fitted before the input was checked")

        monkeypatch.setattr(tipas.cli, "generate_synthetic", refuse)
        monkeypatch.setattr(tipas.cli, "fit", refuse)
        spec, vocab = _small_spec()
        model, spec_path, data, out = (
            tmp_path / n for n in ("m.json", "s.json", "d.jsonl", "out")
        )
        save_model(spec.params, vocab, model)
        save_spec(spec, vocab, spec_path)
        doc = json.loads(spec_path.read_text())
        doc["horizon"] = math.nan
        spec_path.write_text(json.dumps(doc))  # a literal NaN, as json writes it
        save_histories([UserHistory("t", (EventRecord(0, 1.0),))], vocab, data)
        simulate = ["simulate", "--model", str(model), "--out", str(out), "--horizon"]
        fit = ["fit", "--data", str(data), "--out", str(out), "--tol"]
        argv = {
            "simulate-nan": simulate + ["nan"],
            "simulate-inf": simulate + ["inf"],
            "spec-nan": ["generate", "--spec", str(spec_path), "--out", str(out)],
            "tol-nan": fit + ["nan"],
            "tol-inf": fit + ["inf"],
        }[case]
        assert main(argv) == 2
        assert not out.exists()
        assert "must be positive and finite" in capsys.readouterr().err

    @pytest.mark.parametrize("flaw", ["no-n_users", "no-model", "text-horizon"])
    def test_malformed_spec_is_data_error_naming_the_file(self, tmp_path, capsys, flaw):
        spec, vocab = _small_spec()
        spec_path, out = tmp_path / "s.json", tmp_path / "g.jsonl"
        save_spec(spec, vocab, spec_path)
        doc = json.loads(spec_path.read_text())
        if flaw == "no-n_users":
            del doc["n_users"]
        elif flaw == "no-model":
            del doc["model"]
        else:
            doc["horizon"] = "abc"
        spec_path.write_text(json.dumps(doc))
        assert main(["generate", "--spec", str(spec_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{spec_path}: malformed spec document" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_output_files_follow_the_umask(self, tmp_path):
        vocab = ("a", "b")
        events = tuple(EventRecord(i % 2, 3.0 + 5.0 * i) for i in range(14))
        doc, data = tmp_path / "doc.json", tmp_path / "d.jsonl"
        report, table = tmp_path / "r.json", tmp_path / "r.csv"
        old = os.umask(0o022)
        try:
            write_json(doc, {"a": 1})
            save_histories([UserHistory("u", events)], vocab, data)
            assert main(["evaluate", "--data", str(data), "--window-days", "1",
                         "--baselines", "copy", "--no-time", "--mixtures", "1",
                         "--max-iters", "2", "--out", str(report),
                         "--csv", str(table)]) == 0
        finally:
            os.umask(old)
        for path in (doc, data, report, table):
            assert stat.S_IMODE(path.stat().st_mode) == 0o644, path
        rows = list(csv.reader(table.open()))
        assert rows[0][:3] == ["model", "window", "accuracy"]
        assert rows[-1][1] == "pooled"


def _small_spec(horizon: float = 480.0):
    from tipas import SyntheticSpec

    s = ModelStructure(n_actions=2, n_mixtures=1, horizon=horizon)
    params = ModelParams(
        structure=s,
        users=("t",),
        alpha=np.full((1, 2), 0.02),
        beta=np.array([[0.4], [0.4]]),
        mu=np.array([[9.0], [15.0]]),
        sigma=np.array([[1.5], [2.0]]),
        theta=np.full((2, 2), 0.08),
        omega=np.full((2, 2), 2.0),
        phi=np.full((4, 2), 0.15),
        gamma=np.full((4, 2), 0.2),
        kappa=np.ones((4, 2)),
    )
    return SyntheticSpec(n_users=5, params=params, horizon=horizon, seed=2), ("eat", "run")
