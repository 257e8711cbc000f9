"""Command-line interface.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
All randomness flows from ``--seed``; reports and models are canonical JSON
so identical runs are byte-identical.  Next-event times are computed exactly
from the model (no sampling), so ``predict-time`` takes no seed.
"""

from __future__ import annotations

import argparse
import logging
import math
import sys
from dataclasses import replace
from importlib import resources

from . import dataio
from .baselines import BASELINE_NAMES, make_baseline
from .errors import (
    CensoredPredictionError,
    DataFormatError,
    InvalidInputError,
    InvalidStateError,
    NumericalFailureError,
    SimulationOverflowError,
    ThinningBoundError,
)
from .inference import FitConfig, fit, select_n_mixtures
from .metrics import CSV_COLUMNS, report_csv_rows, report_to_dict
from .model import DAY_HOURS, ModelParams, UserHistory
from .predict import (
    PredictionTask,
    make_tipas_factory,
    make_windows,
    predict_next_action,
    predict_next_time,
    rolling_window_eval,
)
from .simulate import SyntheticSpec, generate_synthetic

logger = logging.getLogger("tipas")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; usage errors are 1 here
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _tod_edges(n_windows: int) -> tuple[float, ...]:
    if n_windows < 1:
        raise InvalidInputError("--windows must be >= 1")
    return tuple(i * DAY_HOURS / n_windows for i in range(n_windows)) + (DAY_HOURS,)


def _build_parser() -> _Parser:
    p = _Parser(prog="tipas", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_fit_opts(sp, with_mixture_auto=False):
        sp.add_argument("--mixtures", default="3",
                        help="background mixture count, or 'auto' for grid selection"
                        if with_mixture_auto else "background mixture count")
        sp.add_argument("--windows", type=int, default=4,
                        help="number of equal time-of-day windows per day")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--tol", type=float, default=1e-6,
                        help="relative log-likelihood stopping tolerance")
        sp.add_argument("--max-iters", type=int, default=500)

    sp = sub.add_parser("fit", help="fit a model on a dataset")
    sp.add_argument("--data", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--horizon", type=float, default=None,
                    help="observation end in hours (default: whole days covering the data)")
    sp.add_argument("--t0", default=None, help="ISO-8601 anchor for timestamp inputs")
    add_fit_opts(sp, with_mixture_auto=True)

    sp = sub.add_parser("predict", help="predict the next action at a given time")
    sp.add_argument("--model", required=True)
    sp.add_argument("--data", required=True)
    sp.add_argument("--at", type=float, required=True, help="query time in hours")
    sp.add_argument("--t0", default=None)
    sp.add_argument("--out", default=None)

    sp = sub.add_parser("predict-time", help="predict when the next event happens")
    sp.add_argument("--model", required=True)
    sp.add_argument("--data", required=True)
    sp.add_argument("--horizon-filter", type=float, default=12.0,
                    help="waits are capped at ten times this many hours")
    sp.add_argument("--t0", default=None)
    sp.add_argument("--out", default=None)

    sp = sub.add_parser("simulate", help="simulate new data from a fitted model")
    sp.add_argument("--model", required=True)
    sp.add_argument("--users", type=int, default=None,
                    help="how many of the model's users to simulate (default all)")
    sp.add_argument("--horizon", type=float, required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", required=True)

    sp = sub.add_parser("generate", help="generate a synthetic dataset from a spec")
    sp.add_argument("--spec", required=True,
                    help="path to a synthetic-spec JSON, or 'demo' for the bundled one")
    sp.add_argument("--out", required=True)

    sp = sub.add_parser("evaluate", help="rolling-window evaluation with baselines")
    sp.add_argument("--data", required=True)
    sp.add_argument("--window-days", type=float, default=30.0)
    sp.add_argument("--baselines", default="all",
                    help="'all', 'none', or comma-separated baseline names")
    sp.add_argument("--horizon-filter", type=float, default=12.0,
                    help="only score time predictions with true gaps within this many hours")
    sp.add_argument("--no-time", action="store_true",
                    help="skip the time-prediction task entirely")
    sp.add_argument("--out", required=True)
    sp.add_argument("--csv", default=None, help="also write a flat CSV table")
    sp.add_argument("--t0", default=None)
    add_fit_opts(sp)

    sp = sub.add_parser("export-params", help="export kernel curves as CSV")
    sp.add_argument("--model", required=True)
    sp.add_argument("--out-dir", required=True)
    sp.add_argument("--delta-max", type=float, default=36.0)
    sp.add_argument("--delta-step", type=float, default=0.05)

    return p


def _config_from_args(args, n_actions: int, horizon=None) -> FitConfig:
    mixtures = getattr(args, "mixtures", "3")
    n_mixtures = 3 if mixtures == "auto" else int(mixtures)
    return FitConfig(
        n_mixtures=n_mixtures,
        n_actions=n_actions,
        tod_edges=_tod_edges(args.windows),
        horizon=horizon,
        max_iterations=args.max_iters,
        rel_ll_tolerance=args.tol,
        rng_seed=args.seed,
    )


def _emit(obj, out: str | None) -> None:
    text = dataio.canonical_json(obj)
    if out:
        dataio.write_json(out, obj)
    else:
        sys.stdout.write(text)


def _cmd_fit(args) -> int:
    loaded = dataio.load_dataset(args.data, t0=args.t0)
    config = _config_from_args(args, len(loaded.vocabulary), args.horizon)
    if args.mixtures == "auto":
        z = select_n_mixtures(loaded.histories, config)
        logger.info("selected %d mixtures by validation log-likelihood", z)
        config = replace(config, n_mixtures=z)
    params, report = fit(loaded.histories, config)
    logger.info(
        "fit: %d iterations, converged=%s, ll=%.6f",
        report.iterations_run,
        report.converged,
        report.final_total,
    )
    logger.info(
        "cells on a bound: %d kappa at the cap, %d sigma at the floor, "
        "%d weights at the floor",
        report.kappa_at_max,
        report.sigma_at_floor,
        report.weights_at_floor,
    )
    dataio.save_model(
        params,
        loaded.vocabulary,
        args.out,
        metadata={
            "seed": args.seed,
            "iterations": report.iterations_run,
            "converged": report.converged,
            "final_ll": report.final_total,
            "n_mixtures": config.n_mixtures,
        },
    )
    return 0


def _load_model_and_data(args) -> tuple[ModelParams, tuple[str, ...], tuple[UserHistory, ...]]:
    params, vocab, _ = dataio.load_model(args.model)
    loaded = dataio.load_dataset(args.data, vocabulary=vocab, t0=getattr(args, "t0", None))
    return params, vocab, loaded.histories


def _cmd_predict(args) -> int:
    params, vocab, histories = _load_model_and_data(args)
    out = {}
    for h in histories:
        prefix = h.until(args.at, inclusive=False)
        pred = predict_next_action(
            params, PredictionTask(user=h.user, history_prefix=prefix, t=args.at)
        )
        out[h.user] = {
            "action": vocab[pred.action],
            "degenerate": pred.degenerate,
        }
    _emit({"at": args.at, "predictions": out}, args.out)
    return 0


def _cmd_predict_time(args) -> int:
    params, _, histories = _load_model_and_data(args)
    out = {}
    for h in histories:
        try:
            pred = predict_next_time(
                params, h.user, h, horizon_filter=args.horizon_filter
            )
            out[h.user] = {"hours": pred.time, "censored_probability": pred.n_censored}
        except CensoredPredictionError:
            logger.warning("user %s: no event can occur within the span", h.user)
            out[h.user] = {"hours": None, "censored_probability": 1.0}
    _emit({"predictions": out}, args.out)
    return 0


def _cmd_simulate(args) -> int:
    params, vocab, _meta = dataio.load_model(args.model)
    n_model_users = len(params.users)
    n_users = args.users if args.users is not None else max(n_model_users, 1)
    if n_model_users > 1 and n_users != n_model_users:
        if n_users > n_model_users:
            raise InvalidInputError(
                f"model has {n_model_users} users, cannot simulate {n_users}"
            )
        params = replace(params, users=params.users[:n_users], alpha=params.alpha[:n_users])
    spec = SyntheticSpec(
        n_users=n_users, params=params, horizon=args.horizon, seed=args.seed
    )
    histories = generate_synthetic(spec)
    dataio.save_histories(histories, vocab, args.out)
    logger.info(
        "simulated %d events for %d users",
        sum(len(h) for h in histories),
        n_users,
    )
    return 0


def _cmd_generate(args) -> int:
    if args.spec == "demo":
        with resources.as_file(
            resources.files("tipas").joinpath("data/demo_spec.json")
        ) as path:
            spec, vocab = dataio.load_spec(path)
    else:
        spec, vocab = dataio.load_spec(args.spec)
    histories = generate_synthetic(spec)
    dataio.save_histories(histories, vocab, args.out)
    logger.info(
        "generated %d events for %d users over %.0f hours",
        sum(len(h) for h in histories),
        spec.n_users,
        spec.horizon,
    )
    return 0


def _cmd_evaluate(args) -> int:
    if not args.window_days.is_integer():
        raise InvalidInputError(
            f"--window-days must be a whole number of days, got {args.window_days}: "
            "windows starting mid-day would shift the time-of-day patterns"
        )
    loaded = dataio.load_dataset(args.data, t0=args.t0)
    n_actions = len(loaded.vocabulary)
    max_t = max((float(h.times()[-1]) for h in loaded.histories if len(h)), default=0.0)
    config = _config_from_args(args, n_actions)
    width = args.window_days * DAY_HOURS
    span = math.ceil(max_t / width) * width if max_t > 0 else 0.0
    windows = make_windows(0.0, span, width)
    if len(windows) < 2:
        raise InvalidInputError(
            f"data spans {max_t:.1f}h, needs at least two {width:.0f}h windows"
        )

    factories = {
        "tipas-time": make_tipas_factory(
            replace(config, include_short=False, include_long=False),
            name="tipas-time", horizon_filter=args.horizon_filter,
        ),
        "tipas-time-short": make_tipas_factory(
            replace(config, include_long=False),
            name="tipas-time-short", horizon_filter=args.horizon_filter,
        ),
        "tipas": make_tipas_factory(
            config, name="tipas", horizon_filter=args.horizon_filter,
        ),
    }
    if args.baselines == "all":
        names = BASELINE_NAMES
    elif args.baselines == "none":
        names = ()
    else:
        names = tuple(x.strip() for x in args.baselines.split(",") if x.strip())
        unknown = set(names) - set(BASELINE_NAMES)
        if unknown:
            raise InvalidInputError(f"unknown baselines: {sorted(unknown)}")
    for name in names:
        factories[name] = (
            lambda train, T, _n=name: make_baseline(_n, train, n_actions, T)
        )

    reports = {}
    csv_rows = []
    for name, factory in factories.items():
        logger.info("evaluating %s ...", name)
        report = rolling_window_eval(
            loaded.histories,
            factory,
            windows,
            n_actions=n_actions,
            horizon_filter=args.horizon_filter,
            with_time=not args.no_time,
        )
        reports[name] = report_to_dict(report)
        csv_rows.extend(report_csv_rows(name, report))
        logger.info(
            "%s: accuracy=%s macro_recall=%s mae=%s",
            name,
            _fmt(report.accuracy),
            _fmt(report.macro_recall),
            _fmt(report.mae_hours),
        )

    doc = {
        "schema_version": dataio.SCHEMA_VERSION,
        "kind": "tipas-eval-report",
        "config": {
            "window_days": args.window_days,
            "horizon_filter": args.horizon_filter,
            "baselines": sorted(n for n in factories if not n.startswith("tipas")),
            "mixtures": config.n_mixtures,
            "seed": args.seed,
            "time_prediction": not args.no_time,
            "n_windows": len(windows),
        },
        "models": reports,
    }
    dataio.write_json(args.out, doc)
    if args.csv:
        dataio.write_csv(args.csv, CSV_COLUMNS, csv_rows)
    return 0


def _fmt(x: float) -> str:
    return "n/a" if x is None or (isinstance(x, float) and math.isnan(x)) else f"{x:.4f}"


def _cmd_export_params(args) -> int:
    params, vocab, _ = dataio.load_model(args.model)
    paths = dataio.export_params(
        params, vocab, args.out_dir, delta_max=args.delta_max, delta_step=args.delta_step
    )
    for p in paths:
        logger.info("wrote %s", p)
    return 0


_COMMANDS = {
    "fit": _cmd_fit,
    "predict": _cmd_predict,
    "predict-time": _cmd_predict_time,
    "simulate": _cmd_simulate,
    "generate": _cmd_generate,
    "evaluate": _cmd_evaluate,
    "export-params": _cmd_export_params,
}


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(message)s")
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (FileNotFoundError, IsADirectoryError) as exc:
        print(f"tipas: {exc}", file=sys.stderr)
        return 2
    except (DataFormatError, InvalidInputError, InvalidStateError) as exc:
        print(f"tipas: {exc}", file=sys.stderr)
        return 2
    except (NumericalFailureError, ThinningBoundError, SimulationOverflowError) as exc:
        print(f"tipas: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
