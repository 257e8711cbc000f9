"""The traced run: spans around each layer, taken from outside the program.

Two parts, both after the untraced rounds of the same run:

1. The generate, fit and evaluate commands run again with the functions the
   CLI calls replaced, for the duration, by wrappers that record a span
   (name, start, end, parent) and keep the return value.  Their stage times
   against the untraced rounds (median) give the tracing overhead.
2. Each layer's public function is called directly on the workload's
   inputs, at the fitted parameters (the intensity and the thinning bound
   at the ground truth the predictors use), and timed as the median of
   repeats.

Counts come from return values: FitReport, EventPanel array sizes,
TimePrediction.n_censored and EvalReport.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from pathlib import Path


REPEATS = 3  # direct calls per layer function; the median is reported


class Tracer:
    """Spans kept in memory; ``dump`` writes them out once at the end."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "name": name, "start": time.perf_counter(),
               "end": None, "parent": self._stack[-1] if self._stack else None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()

    def wrap(self, name: str, fn, keep: list | None = None):
        def traced(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if keep is not None:
                keep.append(out)
            return out

        return traced

    def seconds(self, prefix: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"].startswith(prefix)]

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.spans))


@contextmanager
def patched(obj, name: str, value):
    old = getattr(obj, name)
    setattr(obj, name, value)
    try:
        yield
    finally:
        setattr(obj, name, old)


def timed(tracer: Tracer, name: str, fn, repeats: int) -> tuple[float, object]:
    """Median seconds of ``repeats`` calls, and the last return value."""
    out = None
    for _ in range(repeats):
        with tracer.span(name):
            out = fn()
    return statistics.median(tracer.seconds(name)[-repeats:]), out


def traced_stages(tracer: Tracer, cmds: dict) -> dict:
    """Rerun the CLI stages with spans around the layers they call."""
    from tipas import cli, dataio

    kept = {"gen": [], "fit": [], "eval": []}
    tipas_factories = set()

    def make_factory(*args, **kwargs):
        factory = cli_make_factory(*args, **kwargs)
        traced = tracer.wrap(f"predict.factory.{kwargs.get('name', 'tipas')}", factory)
        tipas_factories.add(traced)
        return traced

    def rolling(histories, factory, *args, **kwargs):
        kind = "predict" if factory in tipas_factories else "baselines"
        with tracer.span(f"{kind}.rolling_window_eval"):
            rep = cli_rolling(histories, factory, *args, **kwargs)
        kept["eval"].append((kind, rep))
        return rep

    cli_make_factory, cli_rolling = cli.make_tipas_factory, cli.rolling_window_eval
    stage = {}
    with patched(cli, "generate_synthetic",
                 tracer.wrap("simulate.generate_synthetic", cli.generate_synthetic, kept["gen"])), \
            patched(cli, "fit", tracer.wrap("inference.fit", cli.fit, kept["fit"])), \
            patched(cli, "make_tipas_factory", make_factory), \
            patched(cli, "make_baseline", tracer.wrap("baselines.make_baseline", cli.make_baseline)), \
            patched(cli, "rolling_window_eval", rolling), \
            patched(dataio, "save_histories", tracer.wrap("dataio.save_histories", dataio.save_histories)), \
            patched(dataio, "load_dataset", tracer.wrap("dataio.load_dataset", dataio.load_dataset)), \
            patched(dataio, "save_model", tracer.wrap("dataio.save_model", dataio.save_model)):
        for name in ("generate", "fit", "evaluate"):
            with tracer.span(f"stage.{name}") as rec:
                code = cli.main(cmds[name])
            if code != 0:
                raise RuntimeError(f"traced tipas {name} exited with {code}")
            stage[name] = rec["end"] - rec["start"]
    return {"stage": stage, **kept}


def per_layer(s, rounds: list, aq: list, cmds: dict, paths: dict, tracer: Tracer) -> dict:
    import tipas
    from tipas import _panel

    traced = traced_stages(tracer, cmds)
    untraced = sum(statistics.median(t for r in rounds for t in r.calls[k]) for k in traced["stage"])
    overhead = 100.0 * (sum(traced["stage"].values()) - untraced) / untraced

    n_events = sum(len(h) for h in traced["gen"][0])
    fit_report = traced["fit"][0][1]
    trace = fit_report.ll_trace
    fit_s = tracer.seconds("inference.fit")[0]
    eval_fit = sum(tracer.seconds("predict.factory."))
    eval_tipas = sum(tracer.seconds("predict.rolling_window_eval"))
    eval_base = sum(tracer.seconds("baselines.rolling_window_eval"))
    eval_preds = sum(rep.n_predictions for kind, rep in traced["eval"] if kind == "predict")

    params, vocab, _ = tipas.load_model(paths["model.json"])
    truth, _, _ = tipas.load_model(s.truth_model)
    H, T = s.histories, s.T
    load_s, _ = timed(tracer, "dataio.load_dataset", lambda: tipas.load_dataset(s.data), REPEATS)
    out = s.work / "saved.jsonl"
    save_s, _ = timed(tracer, "dataio.save_histories",
                      lambda: tipas.save_histories(H, vocab, out), REPEATS)
    build_s, panel = timed(tracer, "panel.build_panel",
                           lambda: _panel.build_panel(H, params.structure, T), REPEATS)
    panel_bytes = sum(getattr(panel, f).nbytes for f in panel.__dataclass_fields__
                      if hasattr(getattr(panel, f), "nbytes"))
    pairs, same_pairs = int(panel.sp_src.size), int(panel.lp_src.size)
    del panel
    loglik_s, _ = timed(tracer, "likelihood.log_likelihood",
                        lambda: tipas.log_likelihood(params, H, T), REPEATS)
    comp_s, _ = timed(tracer, "likelihood.analytic_compensator",
                      lambda: tipas.analytic_compensator(params, H, T), REPEATS)
    e_s, resp = timed(tracer, "inference.e_step", lambda: tipas.e_step(params, H), REPEATS)
    closed_s, _ = timed(tracer, "inference.m_step_closed",
                        lambda: tipas.m_step_closed(resp, params, T), REPEATS)
    rate_s, _ = timed(tracer, "inference.m_step_rate",
                      lambda: tipas.m_step_rate(resp, params, T), REPEATS)
    newton_s, _ = timed(tracer, "inference.m_step_newton",
                        lambda: tipas.m_step_newton(resp, params, T), REPEATS)
    del resp

    intensity, bound = [], []
    for u, k in aq:
        h = H[u]
        prefix, t = h.events[:k], h.events[k].t
        with tracer.span("model.intensity_vector") as rec:
            tipas.intensity_vector(truth, h.user, prefix, t)
        intensity.append(rec["end"] - rec["start"])
        with tracer.span("simulate.intensity_upper_bound") as rec:
            tipas.intensity_upper_bound(truth, h.user, prefix, t, 1.0)
        bound.append(rec["end"] - rec["start"])

    m = {
        "dataio.load_ms": (load_s * 1e3, "ms"),
        "dataio.save_histories_ms": (save_s * 1e3, "ms"),
        "panel.build_ms": (build_s * 1e3, "ms"),
        "panel.pairs": (pairs, "count"),
        "panel.same_action_pairs": (same_pairs, "count"),
        "panel.mbytes": (panel_bytes / 2**20, "MB"),
        "model.intensity_us": (statistics.median(intensity) * 1e6, "us"),
        "likelihood.loglik_ms": (loglik_s * 1e3, "ms"),
        "likelihood.compensator_ms": (comp_s * 1e3, "ms"),
        "inference.iterations": (fit_report.iterations_run, "count"),
        "inference.iter_ms": (fit_s * 1e3 / max(fit_report.iterations_run, 1), "ms"),
        "inference.e_step_ms": (e_s * 1e3, "ms"),
        "inference.m_closed_ms": (closed_s * 1e3, "ms"),
        "inference.m_rate_ms": (rate_s * 1e3, "ms"),
        "inference.m_newton_ms": (newton_s * 1e3, "ms"),
        "inference.newton_fallbacks": (fit_report.newton_fallbacks, "count"),
        "inference.ll_decreases": (sum(b.total < a.total for a, b in zip(trace, trace[1:])), "count"),
        "simulate.events": (n_events, "count"),
        "simulate.ms_per_event": (tracer.seconds("simulate.generate_synthetic")[0] * 1e3 / max(n_events, 1), "ms"),
        "simulate.bound_us": (statistics.median(bound) * 1e6, "us"),
        "predict.censored_samples": (sum(q[0][1] for q in rounds[0].predicted_times), "count"),
        "predict.eval_fit_s": (eval_fit, "s"),
        "predict.eval_score_s": (eval_tipas - eval_fit, "s"),
        "predict.eval_predictions": (eval_preds, "count"),
        "baselines.eval_s": (eval_base, "s"),
        "trace.overhead_pct": (overhead, "%"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}
